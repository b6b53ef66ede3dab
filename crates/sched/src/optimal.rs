//! Branch-and-bound optimal scheduling for small basic blocks.
//!
//! The paper's §7 names this as planned future work: "determining if an
//! optimal branch-and-bound scheduler would benefit performance for small
//! basic blocks". Finding the optimal order is NP-complete \[6\], but for
//! the short blocks that dominate systems code (Table 3: grep averages
//! 2.4 instructions per block) exhaustive search with good bounds is
//! practical. This module provides it, both as a usable scheduler and as
//! the oracle the heuristic-quality experiments compare against.

use dagsched_core::{Dag, HeuristicSet, NodeId};
use dagsched_isa::{FuncUnit, Instruction, MachineModel};

use crate::schedule::Schedule;

/// Result of an optimal-scheduling attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimalResult {
    /// A provably optimal schedule (minimum makespan under the in-order
    /// single-issue timing model of [`Schedule::from_order`]).
    Optimal(Schedule),
    /// The search budget was exhausted; the best schedule found so far is
    /// returned without an optimality proof.
    BudgetExhausted(Schedule),
}

impl OptimalResult {
    /// The schedule, optimal or best-effort.
    pub fn schedule(&self) -> &Schedule {
        match self {
            OptimalResult::Optimal(s) | OptimalResult::BudgetExhausted(s) => s,
        }
    }

    /// Whether optimality was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, OptimalResult::Optimal(_))
    }
}

/// Branch-and-bound scheduler for blocks of up to 64 instructions.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Maximum number of search nodes expanded before giving up with the
    /// incumbent (default 2_000_000).
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> BranchAndBound {
        BranchAndBound {
            node_budget: 2_000_000,
        }
    }
}

struct Search<'a> {
    dag: &'a Dag,
    exec: Vec<u64>,
    tail: Vec<u64>, // max delay to a leaf
    pipelined: Vec<bool>,
    unit: Vec<usize>,
    terminator: Option<usize>,
    best_order: Vec<NodeId>,
    best_makespan: u64,
    expanded: u64,
    budget: u64,
}

impl BranchAndBound {
    /// Find a minimum-makespan topological order of `dag`.
    ///
    /// `heur` must carry the backward critical-path annotations
    /// (`max_delay_to_leaf`) — they drive the lower bound.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds 64 instructions (use a list scheduler
    /// or an instruction window for larger blocks) or if `heur` does not
    /// match `dag`.
    pub fn schedule(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
    ) -> OptimalResult {
        let n = dag.node_count();
        assert!(n <= 64, "branch-and-bound is for small blocks (n = {n})");
        assert_eq!(heur.len(), n, "heuristics/DAG mismatch");
        if n == 0 {
            return OptimalResult::Optimal(Schedule {
                order: Vec::new(),
                issue_cycle: Vec::new(),
            });
        }
        // Incumbent: greedy critical-path schedule (never worse than this).
        let greedy = crate::framework::ListScheduler {
            direction: crate::framework::SchedDirection::Forward,
            gating: crate::framework::Gating::ByEarliestExec {
                include_fpu_busy: true,
            },
            strategy: crate::selector::SelectStrategy::Winnowing(vec![
                crate::selector::Criterion::max(crate::selector::HeurKey::MaxDelayToLeaf),
            ]),
            pin_terminator: true,
            birthing_boost: 0,
        }
        .run(dag, insns, model, heur);

        let terminator = insns
            .last()
            .filter(|i| i.opcode.ends_block())
            .map(|_| n - 1);
        let mut search = Search {
            dag,
            exec: (0..n)
                .map(|i| model.exec_latency(&insns[i]) as u64)
                .collect(),
            tail: heur.max_delay_to_leaf.clone(),
            pipelined: (0..n).map(|i| model.unit_pipelined(&insns[i])).collect(),
            unit: (0..n).map(|i| model.unit_of(&insns[i]).index()).collect(),
            terminator,
            best_makespan: greedy.makespan(insns, model),
            best_order: greedy.order.clone(),
            expanded: 0,
            budget: self.node_budget,
        };
        let mut state = State {
            scheduled: 0,
            count: 0,
            last_issue: 0,
            makespan: 0,
            earliest: vec![0; n],
            unscheduled_parents: (0..n)
                .map(|i| dag.num_parents(NodeId::new(i)) as u32)
                .collect(),
            unit_busy: [0; FuncUnit::COUNT],
            order: Vec::with_capacity(n),
        };
        let complete = search.dfs(&mut state);
        let schedule = Schedule::from_order(search.best_order.clone(), dag, insns, model);
        debug_assert_eq!(schedule.makespan(insns, model), search.best_makespan);
        if complete {
            OptimalResult::Optimal(schedule)
        } else {
            OptimalResult::BudgetExhausted(schedule)
        }
    }
}

struct State {
    scheduled: u64,
    count: usize,
    last_issue: u64,
    makespan: u64,
    earliest: Vec<u64>,
    unscheduled_parents: Vec<u32>,
    unit_busy: [u64; FuncUnit::COUNT],
    order: Vec<NodeId>,
}

impl Search<'_> {
    /// Returns `true` if the subtree was searched exhaustively.
    fn dfs(&mut self, st: &mut State) -> bool {
        let n = self.dag.node_count();
        if st.count == n {
            if st.makespan < self.best_makespan {
                self.best_makespan = st.makespan;
                self.best_order = st.order.clone();
            }
            return true;
        }
        if self.expanded >= self.budget {
            return false;
        }
        self.expanded += 1;

        // Lower bound over every unscheduled node: it cannot issue before
        // its dynamic earliest time nor before the next free cycle, and
        // the chain below it must still drain.
        let floor = if st.count == 0 { 0 } else { st.last_issue + 1 };
        let mut lb = st.makespan;
        for i in 0..n {
            if st.scheduled & (1 << i) == 0 {
                let issue = st.earliest[i].max(floor);
                lb = lb.max(issue + self.tail[i].max(self.exec[i] - 1) + 1);
            }
        }
        if lb >= self.best_makespan {
            return true; // pruned: cannot beat the incumbent
        }

        let mut complete = true;
        let ready: Vec<usize> = (0..n)
            .filter(|&i| {
                st.scheduled & (1 << i) == 0
                    && st.unscheduled_parents[i] == 0
                    && (Some(i) != self.terminator || st.count + 1 == n)
            })
            .collect();
        for &i in &ready {
            let mut issue = st.earliest[i].max(floor);
            if !self.pipelined[i] {
                issue = issue.max(st.unit_busy[self.unit[i]]);
            }
            // -- apply --
            let saved_last = st.last_issue;
            let saved_makespan = st.makespan;
            let saved_busy = st.unit_busy;
            let mut saved_earliest = Vec::new();
            st.scheduled |= 1 << i;
            st.count += 1;
            st.last_issue = issue;
            st.makespan = st.makespan.max(issue + self.exec[i]);
            if !self.pipelined[i] {
                st.unit_busy[self.unit[i]] = issue + self.exec[i];
            }
            for arc in self.dag.out_arcs(NodeId::new(i)) {
                let c = arc.to.index();
                saved_earliest.push((c, st.earliest[c]));
                st.earliest[c] = st.earliest[c].max(issue + arc.latency as u64);
                st.unscheduled_parents[c] -= 1;
            }
            st.order.push(NodeId::new(i));

            complete &= self.dfs(st);

            // -- undo --
            st.order.pop();
            for &(c, v) in saved_earliest.iter().rev() {
                st.earliest[c] = v;
            }
            for arc in self.dag.out_arcs(NodeId::new(i)) {
                st.unscheduled_parents[arc.to.index()] += 1;
            }
            st.scheduled &= !(1 << i);
            st.count -= 1;
            st.last_issue = saved_last;
            st.makespan = saved_makespan;
            st.unit_busy = saved_busy;
            if self.expanded >= self.budget {
                return false;
            }
        }
        complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Scheduler, SchedulerKind};
    use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy};
    use dagsched_isa::{Opcode, Reg};

    fn optimal(insns: &[Instruction], model: &MachineModel) -> OptimalResult {
        let dag = build_dag(
            insns,
            model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, insns, model, false);
        BranchAndBound::default().schedule(&dag, insns, model, &heur)
    }

    #[test]
    fn trivial_blocks() {
        let model = MachineModel::sparc2();
        let r = optimal(&[], &model);
        assert!(r.is_proven());
        assert!(r.schedule().is_empty());
        let one = [Instruction::nop()];
        let r = optimal(&one, &model);
        assert!(r.is_proven());
        assert_eq!(r.schedule().order.len(), 1);
    }

    #[test]
    fn finds_the_shadow_filling_schedule() {
        let model = MachineModel::sparc2();
        // divide + dependent add + two independent adds: optimum hides the
        // independent work in the divide shadow.
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::int3(Opcode::Sub, Reg::o(3), Reg::o(4), Reg::o(5)),
        ];
        let r = optimal(&insns, &model);
        assert!(r.is_proven());
        // Optimal: divide at 0, adds at 1 and 2, dependent add at 20:
        // makespan 24 (= critical path).
        assert_eq!(r.schedule().makespan(&insns, &model), 24);
        assert_eq!(r.schedule().order[0], NodeId::new(0));
    }

    #[test]
    fn never_beaten_by_list_schedulers() {
        let model = MachineModel::sparc2();
        let mut pool = dagsched_isa::MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = vec![
            Instruction::load(
                Opcode::Ld,
                dagsched_isa::MemRef::base_offset(Reg::fp(), -8, e),
                Reg::o(1),
            ),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::fp3(Opcode::FMulD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
            Instruction::int3(Opcode::Add, Reg::o(2), Reg::o(3), Reg::o(4)),
            Instruction::cmp(Reg::o(4), Reg::o(0)),
            Instruction::branch(Opcode::Bicc),
        ];
        let r = optimal(&insns, &model);
        assert!(r.is_proven());
        let opt = r.schedule().makespan(&insns, &model);
        for &kind in SchedulerKind::ALL {
            let s = Scheduler::new(kind).schedule_block(&insns, &model);
            assert!(
                s.makespan(&insns, &model) >= opt,
                "{kind} beat the 'optimal' {opt}"
            );
        }
        // The terminator still ends the block.
        assert_eq!(r.schedule().order.last().unwrap().index(), insns.len() - 1);
    }

    #[test]
    fn respects_unpipelined_units() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FDivD, Reg::f(6), Reg::f(8), Reg::f(10)),
        ];
        let r = optimal(&insns, &model);
        assert!(r.is_proven());
        // Two divides on one unpipelined divider: 20 + 20.
        assert_eq!(r.schedule().makespan(&insns, &model), 40);
    }

    #[test]
    fn budget_exhaustion_still_returns_valid_schedule() {
        let model = MachineModel::sparc2();
        let insns: Vec<Instruction> = (0..12)
            .map(|i| Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2 + (i % 4))))
            .collect();
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, &insns, &model, false);
        let r = BranchAndBound { node_budget: 3 }.schedule(&dag, &insns, &model, &heur);
        assert!(!r.is_proven());
        r.schedule().verify(&dag).unwrap();
    }
}
