//! Schedules and their validity/timing properties.

use dagsched_core::{Dag, NodeId, SchedStorage};
use dagsched_isa::{FuncUnit, Instruction, MachineModel};

/// The result of scheduling one basic block: a new instruction order plus
/// the issue cycle assigned to each position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Nodes in issue order.
    pub order: Vec<NodeId>,
    /// Issue cycle of each position of `order`.
    pub issue_cycle: Vec<u64>,
}

impl Schedule {
    /// Build a schedule from an order, assigning issue cycles by in-order
    /// single-issue timing: each instruction issues at the earliest cycle
    /// that is (a) after its predecessor's issue, (b) no earlier than
    /// every parent's issue plus the arc delay, and (c) when its function
    /// unit is free if the unit is unpipelined.
    pub fn from_order(
        order: Vec<NodeId>,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
    ) -> Schedule {
        Schedule::from_order_in(order, dag, insns, model, &mut SchedStorage::default())
    }

    /// [`Schedule::from_order`] with the timing table and the
    /// `issue_cycle` vector taken from `storage`.
    pub(crate) fn from_order_in(
        order: Vec<NodeId>,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        storage: &mut SchedStorage,
    ) -> Schedule {
        let mut issue_cycle = std::mem::take(&mut storage.issue_cycle);
        issue_cycle.clear();
        issue_cycle.reserve(order.len());
        in_order_timing(
            order.iter().copied(),
            dag,
            insns,
            model,
            &mut storage.issue_of,
            |_, t| issue_cycle.push(t),
        );
        Schedule { order, issue_cycle }
    }

    /// The makespan of the block issued in program order: what
    /// `Schedule::from_order(0..n)` followed by [`Schedule::makespan`]
    /// returns, computed by the same timing loop without building the
    /// schedule (the driver reports it for every block).
    pub fn program_order_makespan(
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        storage: &mut SchedStorage,
    ) -> u64 {
        let mut makespan = 0;
        in_order_timing(
            dag.node_ids(),
            dag,
            insns,
            model,
            &mut storage.issue_of,
            |n, t| makespan = makespan.max(t + model.exec_latency(&insns[n.index()]) as u64),
        );
        makespan
    }

    /// Hand this schedule's vectors back to `storage`, for the next
    /// block's [`ListScheduler::run_in`](crate::ListScheduler::run_in).
    pub fn recycle(self, storage: &mut SchedStorage) {
        storage.order = self.order;
        storage.issue_cycle = self.issue_cycle;
    }

    /// Number of scheduled instructions.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Completion time: the maximum of issue + execution latency over all
    /// instructions (the makespan the critical-path bound refers to).
    pub fn makespan(&self, insns: &[Instruction], model: &MachineModel) -> u64 {
        self.order
            .iter()
            .zip(&self.issue_cycle)
            .map(|(n, &t)| t + model.exec_latency(&insns[n.index()]) as u64)
            .max()
            .unwrap_or(0)
    }

    /// Total idle cycles between consecutive issues (stalls under the
    /// in-order single-issue model).
    pub fn stall_cycles(&self) -> u64 {
        self.issue_cycle
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0] + 1))
            .sum()
    }

    /// Issue position of each node (inverse of `order`).
    pub fn position_of(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.order.len()];
        for (p, n) in self.order.iter().enumerate() {
            pos[n.index()] = p;
        }
        pos
    }

    /// Verify that the schedule is a valid reordering of the block:
    /// a permutation of all nodes that respects every DAG arc, with
    /// non-decreasing issue cycles consistent with arc delays.
    ///
    /// Returns a description of the first violation.
    pub fn verify(&self, dag: &Dag) -> Result<(), String> {
        let n = dag.node_count();
        if self.order.len() != n {
            return Err(format!(
                "schedule has {} instructions, block has {n}",
                self.order.len()
            ));
        }
        let mut pos = vec![usize::MAX; n];
        for (p, node) in self.order.iter().enumerate() {
            if node.index() >= n {
                return Err(format!("node {node} out of range"));
            }
            if pos[node.index()] != usize::MAX {
                return Err(format!("node {node} scheduled twice"));
            }
            pos[node.index()] = p;
        }
        for arc in dag.arcs() {
            let (pf, pt) = (pos[arc.from.index()], pos[arc.to.index()]);
            if pf >= pt {
                return Err(format!(
                    "arc {} -> {} violated: positions {pf} >= {pt}",
                    arc.from, arc.to
                ));
            }
        }
        for w in self.issue_cycle.windows(2) {
            if w[1] <= w[0] {
                return Err("issue cycles are not strictly increasing".into());
            }
        }
        Ok(())
    }
}

/// In-order single-issue timing of `order` (see [`Schedule::from_order`]),
/// reporting each node's issue cycle to `issued` in order. `issue_of` is
/// the per-node issue table, resized and overwritten here; busy times of
/// unpipelined units live in a table indexed by [`FuncUnit::index`].
fn in_order_timing(
    order: impl Iterator<Item = NodeId>,
    dag: &Dag,
    insns: &[Instruction],
    model: &MachineModel,
    issue_of: &mut Vec<u64>,
    mut issued: impl FnMut(NodeId, u64),
) {
    issue_of.clear();
    issue_of.resize(dag.node_count(), 0);
    let mut unit_busy = [0u64; FuncUnit::COUNT];
    let mut time: u64 = 0;
    for (pos, n) in order.enumerate() {
        let mut t = if pos == 0 { 0 } else { time + 1 };
        for arc in dag.in_arcs(n) {
            t = t.max(issue_of[arc.from.index()] + arc.latency as u64);
        }
        let insn = &insns[n.index()];
        let unpipelined = !model.unit_pipelined(insn);
        let unit = model.unit_of(insn).index();
        if unpipelined {
            t = t.max(unit_busy[unit]);
        }
        issue_of[n.index()] = t;
        issued(n, t);
        if unpipelined {
            unit_busy[unit] = t + model.exec_latency(insn) as u64;
        }
        time = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy};
    use dagsched_isa::{Opcode, Reg};

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
    fn from_order_respects_arc_delays() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let s = Schedule::from_order(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            &dag,
            &insns,
            &model,
        );
        assert_eq!(s.issue_cycle, vec![0, 1, 20]);
        assert_eq!(s.makespan(&insns, &model), 24);
        assert_eq!(s.stall_cycles(), 18);
        assert!(s.verify(&dag).is_ok());
        let mut storage = SchedStorage::default();
        assert_eq!(
            Schedule::program_order_makespan(&dag, &insns, &model, &mut storage),
            24
        );
    }

    #[test]
    fn verify_rejects_arc_violation() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let s = Schedule::from_order(
            vec![NodeId::new(1), NodeId::new(0), NodeId::new(2)],
            &dag,
            &insns,
            &model,
        );
        assert!(s.verify(&dag).is_err(), "WAR arc 0 -> 1 is violated");
    }

    #[test]
    fn verify_rejects_duplicates_and_wrong_length() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let dup = Schedule::from_order(
            vec![NodeId::new(0), NodeId::new(0), NodeId::new(2)],
            &dag,
            &insns,
            &model,
        );
        assert!(dup.verify(&dag).is_err());
        let short = Schedule {
            order: vec![NodeId::new(0)],
            issue_cycle: vec![0],
        };
        assert!(short.verify(&dag).is_err());
    }

    #[test]
    fn unpipelined_unit_delays_issue() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FDivD, Reg::f(6), Reg::f(8), Reg::f(10)),
        ];
        let dag = dag_of(&insns, &model);
        assert_eq!(dag.arc_count(), 0, "independent divides");
        let s = Schedule::from_order(vec![NodeId::new(0), NodeId::new(1)], &dag, &insns, &model);
        // The unpipelined divider keeps the second divide waiting.
        assert_eq!(s.issue_cycle, vec![0, 20]);
        let mut storage = SchedStorage::default();
        assert_eq!(
            Schedule::program_order_makespan(&dag, &insns, &model, &mut storage),
            s.makespan(&insns, &model)
        );
    }

    #[test]
    fn position_of_inverts_order() {
        let (insns, model) = fig1();
        let dag = dag_of(&insns, &model);
        let s = Schedule::from_order(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            &dag,
            &insns,
            &model,
        );
        assert_eq!(s.position_of(), vec![0, 1, 2]);
    }
}
