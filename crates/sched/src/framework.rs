//! The list-scheduling framework: forward and backward drivers.

use dagsched_core::{Dag, HeuristicSet, NodeId, SchedStorage};
use dagsched_isa::{Instruction, MachineModel};

use crate::schedule::Schedule;
use crate::selector::{SelectCtx, SelectStrategy};

/// Direction of the scheduling pass (Table 2's "type of pass").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedDirection {
    /// Roots first: instructions are emitted in execution order.
    Forward,
    /// Leaves first: the schedule is built from the end of the block and
    /// reversed (Schlansker, Tiemann).
    Backward,
}

/// How candidates are admitted to the available list in a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gating {
    /// Any instruction whose parents are all scheduled is available;
    /// stall-avoidance is left to heuristics like "no interlock with
    /// previous instruction" (Gibbons & Muchnick).
    AllReady,
    /// The paper's earliest-execution-time rule: "nodes are admitted to
    /// the candidate list when all parents are scheduled and the earliest
    /// execution time is less than or equal to the current time". When no
    /// candidate qualifies the clock advances to the next release time.
    ByEarliestExec {
        /// Also require the candidate's (unpipelined) function unit to be
        /// free — the paper's "maximum earliest starting time calculation
        /// that includes the finish times of any required function units".
        include_fpu_busy: bool,
    },
}

/// A configurable list scheduler over a prebuilt DAG and heuristic set.
///
/// The six published algorithms ([`Scheduler`](crate::Scheduler)) are instances of
/// this framework; it is public so ablations can compose custom stacks.
#[derive(Debug, Clone)]
pub struct ListScheduler {
    /// Scheduling direction.
    pub direction: SchedDirection,
    /// Candidate admission rule (forward passes only).
    pub gating: Gating,
    /// Selection strategy.
    pub strategy: SelectStrategy,
    /// Keep a block-terminating control transfer in final position, the
    /// effect of the paper's "connect all true leaves to the block-ending
    /// branch node" convention.
    pub pin_terminator: bool,
    /// Boost applied to RAW parents of each scheduled node in a backward
    /// pass (Tiemann's birthing-instruction adjustment); 0 disables.
    pub birthing_boost: i64,
}

impl ListScheduler {
    /// Schedule `dag` over `insns`.
    ///
    /// # Panics
    ///
    /// Panics if `heur` was not computed for `dag` (length mismatch).
    pub fn run(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
    ) -> Schedule {
        self.run_in(dag, insns, model, heur, &mut SchedStorage::default())
    }

    /// [`ListScheduler::run`] over `storage` kept from an earlier block
    /// (a [`Scratch`](dagsched_core::Scratch)'s `sched`): the dynamic
    /// state, ready list and candidate buffer are reset and refilled, and
    /// the schedule's vectors are taken from `storage` — hand them back
    /// with [`Schedule::recycle`]. The schedule is identical to `run`'s.
    ///
    /// # Panics
    ///
    /// Panics if `heur` was not computed for `dag` (length mismatch).
    pub fn run_in(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
        storage: &mut SchedStorage,
    ) -> Schedule {
        assert_eq!(heur.len(), dag.node_count(), "heuristics/DAG mismatch");
        storage.dyn_state.reset(dag);
        match self.direction {
            SchedDirection::Forward => self.run_forward_in(dag, insns, model, heur, storage),
            SchedDirection::Backward => self.run_backward_in(dag, insns, model, heur, storage),
        }
    }

    /// The node that must stay last, if terminator pinning applies: the
    /// final instruction of the block when it is a control transfer or
    /// window instruction.
    fn pinned_terminator(&self, insns: &[Instruction]) -> Option<usize> {
        if !self.pin_terminator {
            return None;
        }
        let last = insns.len().checked_sub(1)?;
        insns[last].opcode.ends_block().then_some(last)
    }

    /// Forward pass from the dynamic state in `storage`, reset for `dag`
    /// and possibly seeded — the inter-block latency inheritance of
    /// [`crate::carry`] raises earliest execution times first.
    pub(crate) fn run_forward_in(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
        storage: &mut SchedStorage,
    ) -> Schedule {
        let n = dag.node_count();
        let pinned = self.pinned_terminator(insns);
        let SchedStorage {
            dyn_state,
            ready,
            candidates: selectable,
            scores,
            order,
            issue_cycle,
            ..
        } = storage;
        ready.clear();
        ready.extend(dag.node_ids().filter(|&c| dag.num_parents(c) == 0));
        let mut order = std::mem::take(order);
        order.clear();
        order.reserve(n);
        let mut issue_cycle = std::mem::take(issue_cycle);
        issue_cycle.clear();
        issue_cycle.reserve(n);
        let mut time: u64 = 0;
        // One candidate buffer for the whole block: refilled from `ready`
        // at every step and winnowed in place by the selection.
        selectable.clear();
        selectable.reserve(n);

        while order.len() < n {
            selectable.clear();
            selectable.extend(ready.iter().copied().filter(|&c| {
                if Some(c.index()) == pinned && order.len() + 1 < n {
                    return false;
                }
                match self.gating {
                    Gating::AllReady => true,
                    Gating::ByEarliestExec { include_fpu_busy } => {
                        let mut t = dyn_state.earliest_exec[c.index()];
                        if include_fpu_busy {
                            t = dyn_state.unit_free_at(model, &insns[c.index()], t);
                        }
                        t <= time
                    }
                }
            }));
            if selectable.is_empty() {
                // Stall: advance the clock to the earliest release time of
                // any ready node (taking the pin into account).
                let next = ready
                    .iter()
                    .filter(|&&c| Some(c.index()) != pinned || order.len() + 1 >= n)
                    .map(|&c| {
                        let mut t = dyn_state.earliest_exec[c.index()];
                        if let Gating::ByEarliestExec {
                            include_fpu_busy: true,
                        } = self.gating
                        {
                            t = dyn_state.unit_free_at(model, &insns[c.index()], t);
                        }
                        t
                    })
                    .min()
                    .expect("ready list empty with instructions remaining: cyclic DAG?");
                debug_assert!(next > time, "clock failed to advance");
                time = next;
                continue;
            }
            let ctx = SelectCtx {
                dag,
                insns,
                model,
                heur,
                dyn_state,
                time,
                last_class: order.last().map(|&p: &NodeId| insns[p.index()].class()),
            };
            let chosen = ctx.select_in(&self.strategy, selectable, scores);
            // Issue time: under AllReady gating the machine may still have
            // to wait for operands; record the true earliest issue.
            let issue = time
                .max(dyn_state.earliest_exec[chosen.index()])
                .max(dyn_state.unit_free_at(model, &insns[chosen.index()], time));
            dyn_state.on_schedule(dag, insns, model, chosen, issue);
            remove_sorted(ready, chosen);
            for arc in dag.out_arcs(chosen) {
                if dyn_state.ready_forward(arc.to) {
                    insert_sorted(ready, arc.to);
                }
            }
            order.push(chosen);
            issue_cycle.push(issue);
            time = issue + 1;
        }
        Schedule { order, issue_cycle }
    }

    fn run_backward_in(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
        storage: &mut SchedStorage,
    ) -> Schedule {
        let n = dag.node_count();
        let pinned = self.pinned_terminator(insns).map(NodeId::new);
        let SchedStorage {
            dyn_state,
            ready,
            order,
            ..
        } = storage;
        ready.clear();
        ready.extend(dag.node_ids().filter(|&c| dag.num_children(c) == 0));
        let mut rev_order = std::mem::take(order);
        rev_order.clear();
        rev_order.reserve(n);

        while rev_order.len() < n {
            // The pinned terminator must be FIRST in reverse order.
            let selectable: &[NodeId] = match &pinned {
                Some(p) if rev_order.is_empty() && ready.contains(p) => std::slice::from_ref(p),
                _ => ready.as_slice(),
            };
            let ctx = SelectCtx {
                dag,
                insns,
                model,
                heur,
                dyn_state,
                time: 0,
                last_class: rev_order.last().map(|&p| insns[p.index()].class()),
            };
            let chosen = ctx.select(&self.strategy, selectable);
            dyn_state.on_schedule_backward(dag, chosen, self.birthing_boost);
            remove_sorted(ready, chosen);
            for arc in dag.in_arcs(chosen) {
                if dyn_state.ready_backward(arc.from) {
                    insert_sorted(ready, arc.from);
                }
            }
            rev_order.push(chosen);
        }
        rev_order.reverse();
        Schedule::from_order_in(rev_order, dag, insns, model, storage)
    }
}

/// Remove `node` from the ascending, duplicate-free `ready` list.
fn remove_sorted(ready: &mut Vec<NodeId>, node: NodeId) {
    if let Ok(pos) = ready.binary_search(&node) {
        ready.remove(pos);
    }
}

/// Insert a newly ready `node` into the ascending `ready` list, keeping
/// it the order a sort would give.
fn insert_sorted(ready: &mut Vec<NodeId>, node: NodeId) {
    let (Ok(pos) | Err(pos)) = ready.binary_search(&node);
    ready.insert(pos, node);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{Criterion, HeurKey};
    use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy};
    use dagsched_isa::{Opcode, Reg};

    struct Fixture {
        insns: Vec<Instruction>,
        model: MachineModel,
        dag: Dag,
        heur: HeuristicSet,
    }

    fn fixture(insns: Vec<Instruction>) -> Fixture {
        let model = MachineModel::sparc2();
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, &insns, &model, false);
        Fixture {
            insns,
            model,
            dag,
            heur,
        }
    }

    fn fig1_with_fill() -> Vec<Instruction> {
        vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
            // Independent filler the scheduler can hoist into the stall.
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::int3(Opcode::Sub, Reg::o(2), Reg::o(1), Reg::o(3)),
        ]
    }

    fn forward(strategy: SelectStrategy, gating: Gating) -> ListScheduler {
        ListScheduler {
            direction: SchedDirection::Forward,
            gating,
            strategy,
            pin_terminator: true,
            birthing_boost: 0,
        }
    }

    #[test]
    fn forward_critical_path_fills_the_divide_shadow() {
        let f = fixture(fig1_with_fill());
        let s = forward(
            SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::MaxDelayToLeaf)]),
            Gating::ByEarliestExec {
                include_fpu_busy: false,
            },
        )
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        s.verify(&f.dag).unwrap();
        // The divide goes first; the independent adds are placed in its
        // 20-cycle shadow rather than stalling the machine.
        assert_eq!(s.order[0], NodeId::new(0));
        let original = Schedule::from_order(
            (0..5).map(NodeId::new).collect(),
            &f.dag,
            &f.insns,
            &f.model,
        );
        assert!(
            s.makespan(&f.insns, &f.model) <= original.makespan(&f.insns, &f.model),
            "scheduling must not be worse than program order"
        );
    }

    #[test]
    fn all_ready_gating_still_respects_dependences() {
        let f = fixture(fig1_with_fill());
        let s = forward(
            SelectStrategy::Winnowing(vec![
                Criterion::max(HeurKey::NoInterlockWithPrevious),
                Criterion::max(HeurKey::MaxPathToLeaf),
            ]),
            Gating::AllReady,
        )
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        s.verify(&f.dag).unwrap();
    }

    #[test]
    fn backward_scheduling_produces_valid_topological_order() {
        let f = fixture(fig1_with_fill());
        let s = ListScheduler {
            direction: SchedDirection::Backward,
            gating: Gating::AllReady,
            strategy: SelectStrategy::Priority(vec![Criterion::max(HeurKey::MaxDelayFromRoot)]),
            pin_terminator: true,
            birthing_boost: 4,
        }
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        s.verify(&f.dag).unwrap();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn terminator_stays_last() {
        let mut insns = fig1_with_fill();
        insns.push(Instruction::branch(Opcode::Bicc));
        // Make the branch depend on nothing (no cc def here) so only the
        // pin keeps it last.
        let f = fixture(insns);
        for direction in [SchedDirection::Forward, SchedDirection::Backward] {
            let s = ListScheduler {
                direction,
                gating: Gating::AllReady,
                strategy: SelectStrategy::Winnowing(vec![Criterion::min(HeurKey::ExecTime)]),
                pin_terminator: true,
                birthing_boost: 0,
            }
            .run(&f.dag, &f.insns, &f.model, &f.heur);
            s.verify(&f.dag).unwrap();
            assert_eq!(
                *s.order.last().unwrap(),
                NodeId::new(5),
                "{direction:?}: branch must stay terminal"
            );
        }
    }

    #[test]
    fn empty_block_schedules_empty() {
        let f = fixture(Vec::new());
        let s = forward(
            SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::ExecTime)]),
            Gating::AllReady,
        )
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        assert!(s.is_empty());
    }

    #[test]
    fn single_instruction_block() {
        let f = fixture(vec![Instruction::nop()]);
        let s = forward(
            SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::ExecTime)]),
            Gating::ByEarliestExec {
                include_fpu_busy: true,
            },
        )
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        assert_eq!(s.order, vec![NodeId::new(0)]);
        assert_eq!(s.issue_cycle, vec![0]);
    }

    #[test]
    fn fpu_gating_defers_structurally_blocked_divides() {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FDivD, Reg::f(6), Reg::f(8), Reg::f(10)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
        ];
        let f = fixture(insns);
        let s = forward(
            SelectStrategy::Winnowing(vec![Criterion::max(HeurKey::ExecTime)]),
            Gating::ByEarliestExec {
                include_fpu_busy: true,
            },
        )
        .run(&f.dag, &f.insns, &f.model, &f.heur);
        s.verify(&f.dag).unwrap();
        // First divide at 0; the add slots in at 1 while the divider is
        // busy; the second divide waits for cycle 20.
        assert_eq!(s.order[0], NodeId::new(0));
        assert_eq!(s.order[1], NodeId::new(2));
        assert_eq!(s.issue_cycle, vec![0, 1, 20]);
    }
}
