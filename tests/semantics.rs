//! Semantic-equivalence property tests: every transformation in the
//! workspace — list scheduling, the postpass fixup, branch-and-bound,
//! delay-slot filling, and the two-phase allocate-and-schedule pipeline —
//! must leave the program's observable behaviour unchanged. Behaviour is
//! checked by *executing* original and transformed streams on the
//! architectural interpreter from random initial states.

mod common;

use common::{block_specs, build_block};
use dagsched::core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy};
use dagsched::isa::{Instruction, MachineModel, MemExprId, Reg, RegClass, Resource};
use dagsched::pipesim::interp::{equivalent_observable, run, MachineState};
use dagsched::sched::{
    emit_order, fill_branch_delay_slot, BranchAndBound, LinearScan, Scheduler, SchedulerKind,
    TwoPhase,
};
use proptest::prelude::*;

fn mem_cells(insns: &[Instruction]) -> Vec<MemExprId> {
    let mut cells: Vec<MemExprId> = insns.iter().filter_map(|i| i.mem.map(|m| m.expr)).collect();
    cells.sort();
    cells.dedup();
    cells
}

fn reorder(insns: &[Instruction], order: &[dagsched::core::NodeId]) -> Vec<Instruction> {
    order.iter().map(|n| insns[n.index()]).collect()
}

/// Registers whose final value the block may expose (last event is a
/// definition), split by class.
fn live_out_regs(insns: &[Instruction]) -> (Vec<Reg>, Vec<Reg>) {
    use std::collections::HashMap;
    let mut last_event_is_def: HashMap<Reg, bool> = HashMap::new();
    for insn in insns {
        for res in insn.uses() {
            if let Resource::Reg(r) = res {
                last_event_is_def.insert(r, false);
            }
        }
        for res in insn.defs() {
            if let Resource::Reg(r) = res {
                last_event_is_def.insert(r, true);
            }
        }
    }
    let mut ints = Vec::new();
    let mut fps = Vec::new();
    for (r, is_def) in last_event_is_def {
        if is_def {
            match r.class() {
                RegClass::Int => ints.push(r),
                RegClass::Fp => fps.push(r),
                _ => {}
            }
        }
    }
    (ints, fps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every published scheduler's reordering is an exact semantic no-op:
    /// identical full machine state from any initial state.
    #[test]
    fn schedulers_preserve_semantics(specs in block_specs(18), seed in any::<u64>(), kind_ix in 0usize..6) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let kind = SchedulerKind::ALL[kind_ix];
        let schedule = Scheduler::new(kind).schedule_block(&prog.insns, &model);
        let transformed = reorder(&prog.insns, &schedule.order);
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        let a = run(&prog.insns, &initial);
        let b = run(&transformed, &initial);
        prop_assert_eq!(&a, &b, "{} changed behaviour", kind);
    }

    /// Branch-and-bound optimal schedules are semantic no-ops too.
    #[test]
    fn optimal_schedules_preserve_semantics(specs in block_specs(9), seed in any::<u64>()) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let dag = build_dag(&prog.insns, &model, ConstructionAlgorithm::TableBackward, MemDepPolicy::SymbolicExpr);
        let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);
        let r = BranchAndBound::default().schedule(&dag, &prog.insns, &model, &heur);
        let transformed = reorder(&prog.insns, &r.schedule().order);
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        prop_assert_eq!(run(&prog.insns, &initial), run(&transformed, &initial));
    }

    /// Delay-slot filling only *moves* a dead-below instruction past the
    /// (straight-line no-op) branch: final state is unchanged.
    #[test]
    fn delay_slot_filling_preserves_semantics(specs in block_specs(12), seed in any::<u64>()) {
        let prog = build_block(&specs, true); // terminated by bicc
        let model = MachineModel::sparc2();
        let sched = Scheduler::new(SchedulerKind::GibbonsMuchnick);
        let block = dagsched::core::PreparedBlock::new(&prog.insns);
        let dag = sched.construction.run(&block, &model, sched.policy);
        let schedule = sched.schedule_block(&prog.insns, &model);
        let (order, _fill) = fill_branch_delay_slot(&schedule, &dag, &prog.insns);
        let stream: Vec<_> = emit_order(&order, &prog.insns).collect();
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        prop_assert_eq!(run(&prog.insns, &initial), run(&stream, &initial));
    }

    /// The two-phase pipeline (prepass schedule → linear-scan allocation
    /// with spilling → postpass schedule) preserves the block's observable
    /// behaviour: the memory image (excluding spill slots) and every
    /// live-out register.
    #[test]
    fn two_phase_preserves_observable_semantics(
        specs in block_specs(16),
        seed in any::<u64>(),
        tight in any::<bool>(),
    ) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let mut pool = prog.mem_exprs.clone();
        let tp = TwoPhase {
            allocator: if tight {
                LinearScan {
                    int_pool: (8..11).map(Reg::Int).collect(), // force spills
                    ..LinearScan::default()
                }
            } else {
                LinearScan::default()
            },
            ..TwoPhase::default()
        };
        let r = tp.run(&prog.insns, &model, &mut pool);
        let spill_cells: Vec<MemExprId> = pool
            .iter()
            .filter(|(_, text)| text.contains("spill"))
            .map(|(id, _)| id)
            .collect();
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        let a = run(&prog.insns, &initial);
        let b = run(&r.insns, &initial);
        let (live_int, live_fp) = live_out_regs(&prog.insns);
        equivalent_observable(&a, &b, &spill_cells, &live_int, &live_fp)
            .unwrap_or_else(|e| panic!("two-phase changed behaviour (tight={tight}): {e}"));
    }

    /// The reservation-table scheduler's backfilled order is a semantic
    /// no-op too.
    #[test]
    fn reservation_scheduler_preserves_semantics(specs in block_specs(16), seed in any::<u64>()) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let dag = build_dag(&prog.insns, &model, ConstructionAlgorithm::TableBackward, MemDepPolicy::SymbolicExpr);
        let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);
        let s = dagsched::sched::ReservationScheduler::default()
            .run(&dag, &prog.insns, &model, &heur);
        let transformed = reorder(&prog.insns, &s.order);
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        prop_assert_eq!(run(&prog.insns, &initial), run(&transformed, &initial));
    }

    /// Operand commutation for asymmetric bypass machines preserves
    /// semantics exactly (IEEE addition/multiplication commute).
    #[test]
    fn commutation_preserves_semantics(specs in block_specs(16), seed in any::<u64>()) {
        let prog = build_block(&specs, false);
        let model = MachineModel::rs6000_like();
        let dag = build_dag(&prog.insns, &model, ConstructionAlgorithm::TableBackward, MemDepPolicy::SymbolicExpr);
        let (rewritten, _n) = dagsched::sched::commute_for_bypass(&prog.insns, &dag, &model);
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        prop_assert_eq!(run(&prog.insns, &initial), run(&rewritten, &initial));
    }

    /// The driver (whole-program scheduling, optionally with inheritance
    /// and slot filling) preserves semantics across multi-block programs.
    #[test]
    fn driver_preserves_semantics(
        specs_a in block_specs(10),
        specs_b in block_specs(10),
        seed in any::<u64>(),
        inherit in any::<bool>(),
    ) {
        // Two blocks separated by a branch.
        let mut prog = build_block(&specs_a, true);
        let more = build_block(&specs_b, false);
        let base = prog.mem_exprs.len();
        let _ = base;
        for insn in more.insns {
            // Remap the second block's expressions into the first pool.
            let mut insn = insn;
            if let Some(mem) = &mut insn.mem {
                let text = format!("b2:{}", mem.expr.index());
                mem.expr = prog.mem_exprs.intern(&text);
            }
            prog.push(insn);
        }
        let model = MachineModel::sparc2();
        let cfg = dagsched::driver::DriverConfig {
            inherit_latencies: inherit,
            ..dagsched::driver::DriverConfig::default()
        };
        let result = dagsched::driver::schedule_program(&prog, &model, &cfg);
        let initial = MachineState::random(seed, mem_cells(&prog.insns));
        prop_assert_eq!(run(&prog.insns, &initial), run(&result.insns, &initial));
    }
}
