//! Dynamic heuristics: state maintained by node visitation during the
//! scheduling pass (Table 1 class `v`).

use dagsched_isa::{FuncUnit, Instruction, MachineModel};

use crate::dag::{Dag, NodeId};

/// Scheduler-time heuristic state.
///
/// A forward list scheduler drives this by calling
/// [`DynState::on_schedule`] for each issued node; the query methods then
/// provide the dynamic heuristics of Table 1:
///
/// * earliest execution time (maintained per the paper: "when an
///   instruction is chosen each child has its earliest execution time
///   updated by taking the maximum of the previous value and the current
///   time plus the arc delay");
/// * interlock with the previous (most recently scheduled) instruction;
/// * `#single-parent children` / sum of their delays, and
///   `#uncovered children` — via the `#unscheduled_parents` counters the
///   paper prescribes;
/// * busy times for (unpipelined) floating point function units;
/// * birthing-instruction priority adjustments (Tiemann).
#[derive(Debug, Clone, Default)]
pub struct DynState {
    /// Earliest cycle each node may execute.
    pub earliest_exec: Vec<u64>,
    /// Remaining unscheduled parents per node.
    pub unscheduled_parents: Vec<u32>,
    /// Remaining unscheduled children per node (for backward scheduling).
    pub unscheduled_children: Vec<u32>,
    /// Whether each node has been scheduled.
    pub scheduled: Vec<bool>,
    /// The most recently scheduled node.
    pub last_scheduled: Option<NodeId>,
    /// Busy-until cycle per function unit (unpipelined units only),
    /// indexed by [`FuncUnit::index`].
    fpu_busy_until: [u64; FuncUnit::COUNT],
    /// Additive priority adjustment per node (birthing instruction).
    pub priority_adjust: Vec<i64>,
}

impl DynState {
    /// Fresh state for `dag`.
    pub fn new(dag: &Dag) -> DynState {
        let mut state = DynState::default();
        state.reset(dag);
        state
    }

    /// Reset to the fresh state for `dag`, keeping the vectors' storage:
    /// a state reused block after block (the one a
    /// [`Scratch`](crate::Scratch) keeps) allocates only when a block is
    /// larger than any before it. Every field is rewritten.
    pub fn reset(&mut self, dag: &Dag) {
        let n = dag.node_count();
        self.earliest_exec.clear();
        self.earliest_exec.resize(n, 0);
        self.unscheduled_parents.clear();
        self.unscheduled_parents
            .extend((0..n).map(|i| dag.num_parents(NodeId::new(i)) as u32));
        self.unscheduled_children.clear();
        self.unscheduled_children
            .extend((0..n).map(|i| dag.num_children(NodeId::new(i)) as u32));
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.last_scheduled = None;
        self.fpu_busy_until = [0; FuncUnit::COUNT];
        self.priority_adjust.clear();
        self.priority_adjust.resize(n, 0);
    }

    /// Bytes of vector storage this state holds.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.earliest_exec.capacity() * size_of::<u64>()
            + self.unscheduled_parents.capacity() * size_of::<u32>()
            + self.unscheduled_children.capacity() * size_of::<u32>()
            + self.scheduled.capacity() * size_of::<bool>()
            + self.priority_adjust.capacity() * size_of::<i64>()
    }

    /// Record that `node` issues at `time` in a *forward* schedule:
    /// updates children's earliest execution times and unscheduled-parent
    /// counters, marks function-unit busy windows, and remembers the node
    /// as most-recently-scheduled.
    pub fn on_schedule(
        &mut self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        node: NodeId,
        time: u64,
    ) {
        debug_assert!(!self.scheduled[node.index()], "{node} scheduled twice");
        self.scheduled[node.index()] = true;
        self.last_scheduled = Some(node);
        for arc in dag.out_arcs(node) {
            let c = arc.to.index();
            self.earliest_exec[c] = self.earliest_exec[c].max(time + arc.latency as u64);
            self.unscheduled_parents[c] -= 1;
        }
        let insn = &insns[node.index()];
        if !model.unit_pipelined(insn) {
            let u = model.unit_of(insn).index();
            self.fpu_busy_until[u] =
                self.fpu_busy_until[u].max(time + model.exec_latency(insn) as u64);
        }
    }

    /// Record that `node` is chosen in a *backward* schedule: updates
    /// unscheduled-children counters and applies Tiemann's birthing
    /// adjustment — every RAW parent of the node just scheduled gets a
    /// priority boost so the instruction that births the consumed value is
    /// pulled adjacent, shortening the register's live range.
    pub fn on_schedule_backward(&mut self, dag: &Dag, node: NodeId, birthing_boost: i64) {
        debug_assert!(!self.scheduled[node.index()], "{node} scheduled twice");
        self.scheduled[node.index()] = true;
        self.last_scheduled = Some(node);
        for arc in dag.in_arcs(node) {
            let p = arc.from.index();
            self.unscheduled_children[p] -= 1;
            if arc.kind == dagsched_isa::DepKind::Raw {
                self.priority_adjust[p] += birthing_boost;
            }
        }
    }

    /// Whether all parents of `node` are scheduled (forward readiness).
    pub fn ready_forward(&self, node: NodeId) -> bool {
        !self.scheduled[node.index()] && self.unscheduled_parents[node.index()] == 0
    }

    /// Whether all children of `node` are scheduled (backward readiness).
    pub fn ready_backward(&self, node: NodeId) -> bool {
        !self.scheduled[node.index()] && self.unscheduled_children[node.index()] == 0
    }

    /// "Interlock with previous instruction": whether `candidate` depends
    /// on the most recently scheduled node through an arc with delay > 1,
    /// i.e. it could not execute in the very next cycle. (As the paper
    /// notes, instructions scheduled *earlier* than the most recent with
    /// long latencies are deliberately not considered — that is earliest
    /// execution time's job.)
    pub fn interlocks_with_previous(&self, dag: &Dag, candidate: NodeId) -> bool {
        let Some(last) = self.last_scheduled else {
            return false;
        };
        dag.in_arcs(candidate)
            .any(|a| a.from == last && a.latency > 1)
    }

    /// "#single-parent children": how many children of `candidate` have it
    /// as their only unscheduled parent.
    pub fn num_single_parent_children(&self, dag: &Dag, candidate: NodeId) -> u32 {
        dag.children(candidate)
            .filter(|c| self.unscheduled_parents[c.index()] == 1)
            .count() as u32
    }

    /// "Sum of delays to single-parent children".
    pub fn sum_delays_single_parent_children(&self, dag: &Dag, candidate: NodeId) -> u64 {
        dag.out_arcs(candidate)
            .filter(|a| self.unscheduled_parents[a.to.index()] == 1)
            .map(|a| a.latency as u64)
            .sum()
    }

    /// "#uncovered children": children that would join the candidate list
    /// *immediately* if `candidate` were scheduled now — single remaining
    /// parent and an arc delay of one (Warren's refinement of `#children`).
    pub fn num_uncovered_children(&self, dag: &Dag, candidate: NodeId) -> u32 {
        dag.out_arcs(candidate)
            .filter(|a| self.unscheduled_parents[a.to.index()] == 1 && a.latency == 1)
            .count() as u32
    }

    /// "Busy times for floating point function units": the first cycle at
    /// which the (unpipelined) unit needed by `insn` is free; `time` for
    /// pipelined units.
    pub fn unit_free_at(&self, model: &MachineModel, insn: &Instruction, time: u64) -> u64 {
        if model.unit_pipelined(insn) {
            time
        } else {
            self.fpu_busy_until[model.unit_of(insn).index()].max(time)
        }
    }

    /// Whether `insn`'s function unit would stall it at `time`.
    pub fn fpu_interlock(&self, model: &MachineModel, insn: &Instruction, time: u64) -> bool {
        self.unit_free_at(model, insn, time) > time
    }

    /// Number of nodes not yet scheduled.
    pub fn remaining(&self) -> usize {
        self.scheduled.iter().filter(|&&s| !s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_dag, ConstructionAlgorithm};
    use crate::memdep::MemDepPolicy;
    use dagsched_isa::{MachineModel, Opcode, Reg};

    fn fig1() -> (Vec<Instruction>, MachineModel) {
        (
            vec![
                Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
                Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
                Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
            ],
            MachineModel::sparc2(),
        )
    }

    fn dag_of(insns: &[Instruction], model: &MachineModel) -> Dag {
        build_dag(
            insns,
            model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        )
    }

    #[test]
    fn earliest_exec_tracks_arc_delays() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        assert!(st.ready_forward(NodeId::new(0)));
        assert!(!st.ready_forward(NodeId::new(2)));
        st.on_schedule(&dag, &insns, &model, NodeId::new(0), 0);
        assert_eq!(st.earliest_exec[1], 1); // WAR
        assert_eq!(st.earliest_exec[2], 20); // transitive RAW retained
        st.on_schedule(&dag, &insns, &model, NodeId::new(1), 1);
        assert!(st.ready_forward(NodeId::new(2)));
        assert_eq!(st.earliest_exec[2], 20, "divide still dominates");
    }

    #[test]
    fn interlock_with_previous_looks_only_at_last() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        st.on_schedule(&dag, &insns, &model, NodeId::new(0), 0);
        // 2 depends on 0 (just scheduled) with 20-cycle delay: interlock.
        assert!(st.interlocks_with_previous(&dag, NodeId::new(2)));
        // 1 depends on 0 via WAR (delay 1): no interlock.
        assert!(!st.interlocks_with_previous(&dag, NodeId::new(1)));
        st.on_schedule(&dag, &insns, &model, NodeId::new(1), 1);
        // Now last = 1; 2 depends on 1 with delay 4: interlock — and the
        // older 20-cycle dependence on 0 is (deliberately) invisible.
        assert!(st.interlocks_with_previous(&dag, NodeId::new(2)));
    }

    #[test]
    fn uncovering_counters() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        // Node 0's children: 1 (unscheduled parents 1) and 2 (2 parents).
        assert_eq!(st.num_single_parent_children(&dag, NodeId::new(0)), 1);
        // The WAR arc to 1 has delay 1: uncovered.
        assert_eq!(st.num_uncovered_children(&dag, NodeId::new(0)), 1);
        assert_eq!(
            st.sum_delays_single_parent_children(&dag, NodeId::new(0)),
            1
        );
        st.on_schedule(&dag, &insns, &model, NodeId::new(0), 0);
        // After 0 is gone, node 1 is 2's single remaining parent, but the
        // 4-cycle delay means 2 is NOT uncovered by 1.
        assert_eq!(st.num_single_parent_children(&dag, NodeId::new(1)), 1);
        assert_eq!(st.num_uncovered_children(&dag, NodeId::new(1)), 0);
    }

    #[test]
    fn fpu_busy_times() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FDivD, Reg::f(6), Reg::f(8), Reg::f(10)),
        ];
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        st.on_schedule(&dag, &insns, &model, NodeId::new(0), 0);
        // The unpipelined divider is busy until cycle 20.
        assert!(st.fpu_interlock(&model, &insns[1], 5));
        assert_eq!(st.unit_free_at(&model, &insns[1], 5), 20);
        assert!(!st.fpu_interlock(&model, &insns[1], 20));
        // A pipelined add never unit-interlocks.
        let add = Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(2), Reg::f(12));
        assert!(!st.fpu_interlock(&model, &add, 1));
    }

    #[test]
    fn backward_scheduling_birthing_adjustment() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        assert!(st.ready_backward(NodeId::new(2)));
        assert!(!st.ready_backward(NodeId::new(0)));
        st.on_schedule_backward(&dag, NodeId::new(2), 10);
        // Both RAW parents of node 2 (nodes 0 and 1) get the boost.
        assert_eq!(st.priority_adjust[0], 10);
        assert_eq!(st.priority_adjust[1], 10);
        assert!(st.ready_backward(NodeId::new(1)));
        st.on_schedule_backward(&dag, NodeId::new(1), 10);
        // 0 -> 1 is WAR: no further boost for node 0.
        assert_eq!(st.priority_adjust[0], 10);
        assert!(st.ready_backward(NodeId::new(0)));
    }

    #[test]
    fn remaining_counts_down() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let mut st = DynState::new(&dag);
        assert_eq!(st.remaining(), 3);
        st.on_schedule(&dag, &insns, &model, NodeId::new(0), 0);
        assert_eq!(st.remaining(), 2);
    }
}
