//! Inter-block latency inheritance.
//!
//! The paper's §2 notes that with global information "there may be
//! pseudo-nodes and arcs to represent operation latencies inherited from
//! immediately preceding blocks. This extra information can be used to
//! avoid dependency stalls and structural hazards that a purely local
//! algorithm would ignore"; §7 lists measuring that benefit as future
//! work. This module implements the mechanism:
//!
//! * [`carry_out`] — the residual latencies at a scheduled block's exit:
//!   which resources are still in flight, and for how many more cycles.
//! * [`entry_constraints`] — pseudo-arc equivalents for the next block:
//!   minimum issue offsets for the instructions that consume carried
//!   resources (or need a still-busy function unit).
//! * [`ListScheduler::run_with_entry`] — a forward scheduling pass seeded
//!   with those constraints, so inherited stalls get filled with
//!   independent work just like local ones.

use std::collections::HashMap;

use dagsched_core::{Dag, HeuristicSet, SchedStorage};
use dagsched_isa::{FuncUnit, Instruction, MachineModel, Resource};

use crate::framework::{ListScheduler, SchedDirection};
use crate::schedule::Schedule;

/// Residual state at a scheduled block's exit. All cycle counts are
/// relative to the first issue opportunity of the *next* block (the cycle
/// after the block's last issue).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CarryOut {
    /// Resources whose values are not yet available at block exit, with
    /// the number of cycles still to wait.
    pub resource_ready: Vec<(Resource, u64)>,
    /// Unpipelined function units still busy at block exit.
    pub unit_busy: Vec<(FuncUnit, u64)>,
}

impl CarryOut {
    /// Whether nothing is in flight at block exit.
    pub fn is_empty(&self) -> bool {
        self.resource_ready.is_empty() && self.unit_busy.is_empty()
    }
}

/// Compute the carried-out residual latencies of a scheduled block.
pub fn carry_out(schedule: &Schedule, insns: &[Instruction], model: &MachineModel) -> CarryOut {
    let Some(&last_issue) = schedule.issue_cycle.last() else {
        return CarryOut::default();
    };
    let boundary = last_issue + 1;
    let mut ready: HashMap<Resource, u64> = HashMap::new();
    let mut units: HashMap<FuncUnit, u64> = HashMap::new();
    for (&node, &issue) in schedule.order.iter().zip(&schedule.issue_cycle) {
        let insn = &insns[node.index()];
        let done = issue + model.exec_latency(insn) as u64;
        for res in insn.defs() {
            // Later definitions overwrite earlier ones (iteration is in
            // issue order).
            if done > boundary {
                ready.insert(res, done - boundary);
            } else {
                ready.remove(&res);
            }
        }
        if !model.unit_pipelined(insn) && done > boundary {
            let e = units.entry(model.unit_of(insn)).or_insert(0);
            *e = (*e).max(done - boundary);
        }
    }
    let mut resource_ready: Vec<_> = ready.into_iter().collect();
    resource_ready.sort_by_key(|&(r, _)| r);
    let mut unit_busy: Vec<_> = units.into_iter().collect();
    unit_busy.sort_by_key(|&(u, _)| u);
    CarryOut {
        resource_ready,
        unit_busy,
    }
}

/// Translate a predecessor's [`CarryOut`] into minimum issue offsets for
/// the instructions of the next block: for every instruction that reads a
/// carried resource (before any redefinition inside the block) or needs a
/// still-busy unpipelined unit, the cycle (relative to block entry) before
/// which it cannot execute.
pub fn entry_constraints(
    insns: &[Instruction],
    model: &MachineModel,
    carry: &CarryOut,
) -> Vec<(usize, u64)> {
    let ready: HashMap<Resource, u64> = carry.resource_ready.iter().copied().collect();
    let units: HashMap<FuncUnit, u64> = carry.unit_busy.iter().copied().collect();
    let mut redefined: std::collections::HashSet<Resource> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (i, insn) in insns.iter().enumerate() {
        let mut floor = 0u64;
        for res in insn.uses() {
            if redefined.contains(&res) {
                continue;
            }
            if let Some(&d) = ready.get(&res) {
                floor = floor.max(d);
            }
        }
        // A WAW/WAR against an in-flight value: the write itself must wait
        // only the short ordering delay, approximated by the carried
        // residual capped at 1 (writes do not consume the value).
        for res in insn.defs() {
            if !redefined.contains(&res) && ready.contains_key(&res) {
                floor = floor.max(1);
            }
            redefined.insert(res);
        }
        if !model.unit_pipelined(insn) {
            if let Some(&d) = units.get(&model.unit_of(insn)) {
                floor = floor.max(d);
            }
        }
        if floor > 0 {
            out.push((i, floor));
        }
    }
    out
}

impl ListScheduler {
    /// Run a **forward** scheduling pass with inherited entry constraints:
    /// each `(instruction index, min issue cycle)` pair seeds the dynamic
    /// earliest-execution state, exactly as a pseudo-arc from a
    /// pseudo-node of the preceding block would.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler is configured for a backward pass (carried
    /// latencies are a forward-time concept) or if `heur` does not match
    /// `dag`.
    pub fn run_with_entry(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
        entry: &[(usize, u64)],
    ) -> Schedule {
        assert_eq!(
            self.direction,
            SchedDirection::Forward,
            "entry constraints require a forward pass"
        );
        let mut storage = SchedStorage::default();
        let seed = &mut storage.dyn_state;
        seed.reset(dag);
        for &(i, t) in entry {
            seed.earliest_exec[i] = seed.earliest_exec[i].max(t);
        }
        self.run_forward_in(dag, insns, model, heur, &mut storage)
    }
}

/// Schedule a sequence of blocks with latency inheritance: each block is
/// scheduled with the entry constraints induced by its predecessor's
/// carry-out, and the emitted streams are concatenated.
///
/// Returns the per-block schedules. Compare against scheduling each block
/// in isolation to quantify the benefit of global information.
pub fn schedule_with_inheritance(
    scheduler: &ListScheduler,
    blocks: &[&[Instruction]],
    model: &MachineModel,
    build: impl Fn(&[Instruction]) -> (Dag, HeuristicSet),
) -> Vec<Schedule> {
    let mut carry = CarryOut::default();
    let mut out = Vec::with_capacity(blocks.len());
    for &insns in blocks {
        let (dag, heur) = build(insns);
        let entry = entry_constraints(insns, model, &carry);
        let schedule = scheduler.run_with_entry(&dag, insns, model, &heur, &entry);
        carry = carry_out(&schedule, insns, model);
        out.push(schedule);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Gating;
    use crate::selector::{Criterion, HeurKey, SelectStrategy};
    use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy, NodeId};
    use dagsched_isa::{Opcode, Reg};

    fn build(insns: &[Instruction]) -> (Dag, HeuristicSet) {
        let model = MachineModel::sparc2();
        let dag = build_dag(
            insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, insns, &model, false);
        (dag, heur)
    }

    fn forward() -> ListScheduler {
        ListScheduler {
            direction: SchedDirection::Forward,
            gating: Gating::ByEarliestExec {
                include_fpu_busy: true,
            },
            strategy: SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::MaxDelayToLeaf)]),
            pin_terminator: true,
            birthing_boost: 0,
        }
    }

    #[test]
    fn carry_out_reports_in_flight_values() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
        ];
        let (dag, heur) = build(&insns);
        let s = forward().run(&dag, &insns, &model, &heur);
        let carry = carry_out(&s, &insns, &model);
        // The divide (issued at 0, done at 20) is still in flight when the
        // block ends at cycle 2.
        let f4 = carry
            .resource_ready
            .iter()
            .find(|(r, _)| *r == Resource::Reg(Reg::f(4)))
            .expect("f4 carried");
        assert_eq!(f4.1, 18);
        // So is the unpipelined divider.
        let div = carry
            .unit_busy
            .iter()
            .find(|(u, _)| *u == FuncUnit::FpDiv)
            .expect("divider busy");
        assert_eq!(div.1, 18);
        // The add's result is long available.
        assert!(!carry
            .resource_ready
            .iter()
            .any(|(r, _)| *r == Resource::Reg(Reg::o(2))));
    }

    #[test]
    fn entry_constraints_respect_redefinition() {
        let model = MachineModel::sparc2();
        let carry = CarryOut {
            resource_ready: vec![(Resource::Reg(Reg::f(4)), 18)],
            unit_busy: vec![],
        };
        let next = vec![
            // Redefines f4 before any use: only the cheap WAW floor.
            Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(8), Reg::f(4)),
            // Uses the (now local) f4: no inherited constraint.
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(10), Reg::f(12)),
        ];
        let cons = entry_constraints(&next, &model, &carry);
        assert_eq!(cons, vec![(0, 1)]);
    }

    #[test]
    fn inherited_stalls_get_filled_with_independent_work() {
        let model = MachineModel::sparc2();
        // Block 1 launches a divide and ends immediately.
        let block1 = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::branch(Opcode::Ba),
        ];
        // Block 2 consumes the divide (on its longest local chain, so a
        // purely local pass schedules it first) plus a long independent
        // integer chain. A local pass issues the FP add first; on the
        // in-order machine that pushes the whole chain behind the
        // inherited 18-cycle wait.
        let mut pool = dagsched_isa::MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let mut block2 = vec![
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
            Instruction::store(
                Opcode::StDf,
                Reg::f(8),
                dagsched_isa::MemRef::base_offset(Reg::fp(), -8, e),
            ),
        ];
        for k in 0..20 {
            block2.push(Instruction::int_imm(Opcode::Add, Reg::o(2), k, Reg::o(2)));
        }
        // An original-order tie-break (as in Tiemann's and Warren's final
        // rank): locally everything is ready at cycle 0, so the pass
        // emits program order with the FP add first and eats the
        // inherited stall on the in-order machine.
        let sched = ListScheduler {
            strategy: SelectStrategy::Winnowing(vec![Criterion::min(HeurKey::OriginalOrder)]),
            ..forward()
        };
        let (dag2, heur2) = build(&block2);
        let local = sched.run(&dag2, &block2, &model, &heur2);
        assert_eq!(local.order[0], NodeId::new(0));

        // With inheritance, the add is known unready for 18 cycles: the
        // independent integer chain fills the hole.
        let schedules = schedule_with_inheritance(&sched, &[&block1, &block2], &model, build);
        let global = &schedules[1];
        assert_ne!(global.order[0], NodeId::new(0), "FP add deferred");
        // Replay both orders under the true inherited constraint (the FP
        // add cannot execute before cycle 18): the globally informed
        // schedule finishes strictly earlier.
        let (dag2, _) = build(&block2);
        let replay = |order: &[NodeId]| -> u64 {
            let mut issue_of = vec![0u64; block2.len()];
            let mut prev: Option<u64> = None;
            let mut makespan = 0;
            for &n in order {
                let mut t = prev.map_or(0, |p| p + 1);
                if n == NodeId::new(0) {
                    t = t.max(18);
                }
                for arc in dag2.in_arcs(n) {
                    t = t.max(issue_of[arc.from.index()] + arc.latency as u64);
                }
                issue_of[n.index()] = t;
                prev = Some(t);
                makespan = makespan.max(t + model.exec_latency(&block2[n.index()]) as u64);
            }
            makespan
        };
        assert!(
            replay(&global.order) < replay(&local.order),
            "global {} vs local {}",
            replay(&global.order),
            replay(&local.order)
        );
    }

    #[test]
    fn empty_schedule_carries_nothing() {
        let model = MachineModel::sparc2();
        let s = Schedule {
            order: vec![],
            issue_cycle: vec![],
        };
        assert!(carry_out(&s, &[], &model).is_empty());
        assert!(entry_constraints(&[], &model, &CarryOut::default()).is_empty());
    }
}
