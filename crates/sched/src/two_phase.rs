//! Warren's prepass/postpass scheduling pipeline.
//!
//! The paper (§3, register usage): "an algorithm like Warren's is
//! designed to be performed both prepass as well as postpass" — schedule
//! once *before* register allocation with pressure-aware heuristics (so
//! the allocator sees short live ranges and spills less), allocate, then
//! schedule again *after* allocation with latency-focused heuristics
//! (covering any spill code the allocator introduced).

use dagsched_core::{ConstructionAlgorithm, HeuristicSet, MemDepPolicy, PreparedBlock};
use dagsched_isa::{Instruction, MachineModel, MemExprPool};

use crate::framework::{Gating, ListScheduler, SchedDirection};
use crate::regalloc::{AllocResult, LinearScan};
use crate::schedule::Schedule;
use crate::selector::{Criterion, HeurKey, SelectStrategy};

/// Configuration for the two-phase pipeline.
#[derive(Debug, Clone)]
pub struct TwoPhase {
    /// Prepass scheduler: should rank register-usage heuristics high.
    pub prepass: ListScheduler,
    /// Postpass scheduler: latency-focused.
    pub postpass: ListScheduler,
    /// The register allocator between the passes.
    pub allocator: LinearScan,
    /// Construction algorithm + memory policy for both DAGs.
    pub construction: ConstructionAlgorithm,
    /// Memory disambiguation policy.
    pub policy: MemDepPolicy,
}

impl Default for TwoPhase {
    fn default() -> TwoPhase {
        TwoPhase {
            prepass: ListScheduler {
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
            },
            postpass: ListScheduler {
                direction: SchedDirection::Forward,
                gating: Gating::ByEarliestExec {
                    include_fpu_busy: true,
                },
                strategy: SelectStrategy::Winnowing(vec![
                    Criterion::min(HeurKey::EarliestExecTime),
                    Criterion::max(HeurKey::MaxDelayToLeaf),
                    Criterion::max(HeurKey::NumUncoveredChildren),
                    Criterion::min(HeurKey::OriginalOrder),
                ]),
                pin_terminator: true,
                birthing_boost: 0,
            },
            allocator: LinearScan::default(),
            construction: ConstructionAlgorithm::TableBackward,
            policy: MemDepPolicy::SymbolicExpr,
        }
    }
}

/// The result of the two-phase pipeline for one block.
#[derive(Debug, Clone)]
pub struct TwoPhaseResult {
    /// The final (allocated, postpass-scheduled) instruction stream.
    pub insns: Vec<Instruction>,
    /// The postpass schedule over `insns` (identity order with timing).
    pub schedule: Schedule,
    /// Live ranges the allocator spilled.
    pub spilled_ranges: usize,
    /// Spill stores + reloads inserted.
    pub spill_code: usize,
}

impl TwoPhase {
    /// Run prepass scheduling → linear-scan allocation → postpass
    /// scheduling on one block. Spill-slot expressions are interned into
    /// `mem_exprs`.
    pub fn run(
        &self,
        insns: &[Instruction],
        model: &MachineModel,
        mem_exprs: &mut MemExprPool,
    ) -> TwoPhaseResult {
        // Phase 1: prepass schedule (pressure-aware).
        let (dag, heur) = self.analyze(insns, model);
        let pre = self.prepass.run(&dag, insns, model, &heur);
        let reordered: Vec<Instruction> = pre.order.iter().map(|n| insns[n.index()]).collect();

        // Phase 2: register allocation on the prepass order.
        let alloc: AllocResult = self.allocator.allocate(&reordered, mem_exprs);

        // Phase 3: postpass schedule over the allocated stream (the DAG
        // is rebuilt: renaming and spill code changed the dependences).
        let (dag2, heur2) = self.analyze(&alloc.insns, model);
        let post = self.postpass.run(&dag2, &alloc.insns, model, &heur2);
        let final_insns: Vec<Instruction> =
            post.order.iter().map(|n| alloc.insns[n.index()]).collect();
        // `insns` above is already emitted in postpass order, so the
        // schedule over the *returned* stream is the identity order with
        // the postpass issue cycles.
        let final_schedule = Schedule {
            order: (0..final_insns.len())
                .map(dagsched_core::NodeId::new)
                .collect(),
            issue_cycle: post.issue_cycle.clone(),
        };
        TwoPhaseResult {
            insns: final_insns,
            schedule: final_schedule,
            spilled_ranges: alloc.spilled_ranges,
            spill_code: alloc.spill_code,
        }
    }

    fn analyze(
        &self,
        insns: &[Instruction],
        model: &MachineModel,
    ) -> (dagsched_core::Dag, HeuristicSet) {
        let prepared = PreparedBlock::new(insns);
        let dag = self.construction.run(&prepared, model, self.policy);
        let heur = HeuristicSet::compute(&dag, insns, model, false);
        (dag, heur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{MemRef, Opcode, Program, Reg};

    /// Eight distinct virtual registers (%o0-%o5, %l2, %l3 — avoiding the
    /// stack pointer and the allocator's scratches).
    const VREGS: [u8; 8] = [8, 9, 10, 11, 12, 13, 18, 19];

    /// Wide copy block: eight independent load/store pairs through eight
    /// virtual registers. Pressure depends entirely on the schedule: a
    /// loads-first order needs eight registers alive at once, a
    /// load/store interleaving needs one or two.
    fn consuming_block() -> Program {
        let mut p = Program::new();
        for (k, &v) in VREGS.iter().enumerate() {
            let src = p.mem_exprs.intern(&format!("[%fp-{}]", 8 * (k + 1)));
            p.push(Instruction::load(
                Opcode::Ld,
                MemRef::base_offset(Reg::fp(), -(8 * (k as i32 + 1)), src),
                Reg::Int(v),
            ));
        }
        for (k, &v) in VREGS.iter().enumerate() {
            let dst = p.mem_exprs.intern(&format!("[%fp-{}]", 100 + 8 * (k + 1)));
            p.push(Instruction::store(
                Opcode::St,
                Reg::Int(v),
                MemRef::base_offset(Reg::fp(), -(100 + 8 * (k as i32 + 1)), dst),
            ));
        }
        p
    }

    #[test]
    fn pipeline_produces_valid_allocated_stream() {
        let p = consuming_block();
        let model = MachineModel::sparc2();
        let mut pool = p.mem_exprs.clone();
        let tp = TwoPhase::default();
        let r = tp.run(&p.insns, &model, &mut pool);
        assert_eq!(
            r.insns.len(),
            p.insns.len() + r.spill_code,
            "only spill code may change the length"
        );
        // Final stream only names allocatable/pinned/scratch registers.
        let (dag, _heur) = tp.analyze(&r.insns, &model);
        assert!(dag.check_invariants().is_ok());
        assert_eq!(r.schedule.len(), r.insns.len());
    }

    #[test]
    fn pressure_aware_prepass_spills_less_than_latency_first() {
        let p = consuming_block();
        let model = MachineModel::sparc2();
        let tight = LinearScan {
            int_pool: (8..12).map(Reg::Int).collect(), // 4 registers only
            ..LinearScan::default()
        };

        let pressure_aware = TwoPhase {
            allocator: tight.clone(),
            ..TwoPhase::default()
        };
        let latency_first = TwoPhase {
            prepass: ListScheduler {
                direction: SchedDirection::Forward,
                gating: Gating::AllReady,
                strategy: SelectStrategy::Winnowing(vec![
                    // Hoist all loads (long delay-to-leaf) first: maximum
                    // pressure before any consumption.
                    Criterion::max(HeurKey::MaxDelayToLeaf),
                    Criterion::min(HeurKey::OriginalOrder),
                ]),
                pin_terminator: true,
                birthing_boost: 0,
            },
            allocator: tight,
            ..TwoPhase::default()
        };

        let mut pool_a = p.mem_exprs.clone();
        let a = pressure_aware.run(&p.insns, &model, &mut pool_a);
        let mut pool_b = p.mem_exprs.clone();
        let b = latency_first.run(&p.insns, &model, &mut pool_b);
        assert!(
            a.spilled_ranges < b.spilled_ranges,
            "pressure-aware prepass ({} spills) must beat latency-first ({} spills)",
            a.spilled_ranges,
            b.spilled_ranges
        );
    }

    #[test]
    fn postpass_covers_spill_reload_delays() {
        // With forced spills, the postpass must still produce a valid
        // schedule over the spill code (reloads have load delay slots).
        let p = consuming_block();
        let model = MachineModel::sparc2();
        let tp = TwoPhase {
            allocator: LinearScan {
                int_pool: (8..11).map(Reg::Int).collect(),
                ..LinearScan::default()
            },
            prepass: ListScheduler {
                direction: SchedDirection::Forward,
                gating: Gating::AllReady,
                strategy: SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::MaxDelayToLeaf)]),
                pin_terminator: true,
                birthing_boost: 0,
            },
            ..TwoPhase::default()
        };
        let mut pool = p.mem_exprs.clone();
        let r = tp.run(&p.insns, &model, &mut pool);
        assert!(r.spill_code > 0, "the tight pool must force spill code");
        let (dag, _h) = tp.analyze(&r.insns, &model);
        // The postpass output is the identity order over final insns.
        let identity = Schedule::from_order(
            (0..r.insns.len()).map(dagsched_core::NodeId::new).collect(),
            &dag,
            &r.insns,
            &model,
        );
        assert!(identity.verify(&dag).is_ok());
    }
}
