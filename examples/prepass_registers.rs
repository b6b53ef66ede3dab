//! Prepass (before register allocation) scheduling with the paper's
//! register-usage heuristics: Warren's liveness criterion and Tiemann's
//! birthing-instruction adjustment both try to keep values' live ranges
//! short so the allocator needs fewer registers.
//!
//! ```text
//! cargo run --example prepass_registers
//! ```

use dagsched::core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy};
use dagsched::isa::{Instruction, MachineModel, Reg, RegClass, Resource};
use dagsched::sched::{Schedule, Scheduler, SchedulerKind};
use dagsched::workloads::parse_asm;

/// Maximum number of simultaneously live registers across the block,
/// assuming nothing is live-in or live-out (a self-contained expression
/// block).
fn max_pressure(insns: &[Instruction]) -> usize {
    let mut live: std::collections::HashSet<Reg> = std::collections::HashSet::new();
    // Walk backward: a use births liveness, a def kills it.
    let mut max = 0usize;
    for insn in insns.iter().rev() {
        for r in insn.defs() {
            if let Resource::Reg(reg) = r {
                live.remove(&reg);
            }
        }
        for r in insn.uses() {
            if let Resource::Reg(reg) = r {
                if matches!(reg.class(), RegClass::Int | RegClass::Fp) {
                    live.insert(reg);
                }
            }
        }
        max = max.max(live.len());
    }
    max
}

fn reordered(insns: &[Instruction], schedule: &Schedule) -> Vec<Instruction> {
    schedule.order.iter().map(|n| insns[n.index()]).collect()
}

fn main() {
    // An expression-tree block: many independent subexpressions that an
    // aggressive latency-only scheduler would interleave, inflating the
    // number of simultaneously live values.
    let prog = parse_asm(
        "
        ld [%fp-4], %o0
        ld [%fp-8], %o1
        add %o0, %o1, %o2
        ld [%fp-12], %o3
        ld [%fp-16], %o4
        add %o3, %o4, %o5
        add %o2, %o5, %l0
        ld [%fp-20], %l1
        ld [%fp-24], %l2
        add %l1, %l2, %l3
        add %l0, %l3, %l4
        st %l4, [%fp-28]
        ",
    )
    .unwrap();
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableForward,
        MemDepPolicy::SymbolicExpr,
    );
    let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);

    println!(
        "original order: max pressure = {}",
        max_pressure(&prog.insns)
    );
    println!("register heuristics per instruction (born/killed/liveness):");
    for n in dag.node_ids() {
        let i = n.index();
        println!(
            "  {:<22} born={} killed={} net={:+}",
            prog.insns[i].to_string(),
            heur.regs_born[i],
            heur.regs_killed[i],
            heur.liveness[i]
        );
    }

    for kind in [
        SchedulerKind::ShiehPapachristou,
        SchedulerKind::Warren,
        SchedulerKind::Tiemann,
    ] {
        let schedule = Scheduler::new(kind).schedule_block(&prog.insns, &model);
        schedule.verify(&dag).unwrap();
        let new_order = reordered(&prog.insns, &schedule);
        println!(
            "\n{}: max pressure = {}, stalls = {}",
            kind.name(),
            max_pressure(&new_order),
            schedule.stall_cycles()
        );
    }

    // The published stacks rank latency heuristics above register usage,
    // so on a stall-free block they happily hoist every load and inflate
    // pressure. A *prepass* configuration built from the same framework
    // puts liveness first (the point of #registers born/killed in
    // Table 1's register-usage category).
    use dagsched::sched::{
        Criterion, Gating, HeurKey, ListScheduler, SchedDirection, SelectStrategy,
    };
    let prepass = ListScheduler {
        direction: SchedDirection::Forward,
        gating: Gating::AllReady,
        strategy: SelectStrategy::Winnowing(vec![
            Criterion::min(HeurKey::Liveness),
            Criterion::max(HeurKey::RegsKilled),
            Criterion::max(HeurKey::MaxDelayToLeaf),
            Criterion::min(HeurKey::OriginalOrder),
        ]),
        pin_terminator: true,
        birthing_boost: 0,
    };
    let schedule = prepass.run(&dag, &prog.insns, &model, &heur);
    schedule.verify(&dag).unwrap();
    let new_order = reordered(&prog.insns, &schedule);
    println!(
        "\nliveness-first prepass stack: max pressure = {}, stalls = {}",
        max_pressure(&new_order),
        schedule.stall_cycles()
    );
    println!(
        "\nThe published stacks rank latency above register usage and hoist all six\n\
         loads (pressure 7); ranking liveness first keeps each value's birth next\n\
         to its death, holding pressure near the original order's — the trade\n\
         pre-register-allocation scheduling makes (paper §3, register usage)."
    );
}
