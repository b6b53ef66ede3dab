//! Cross-validation between two independent timing implementations: the
//! DAG-based issue-time assignment used by the schedulers
//! (`Schedule::from_order`) and the architectural-state pipeline
//! simulator (`pipesim::simulate`), which rediscovers dependencies from a
//! register/memory scoreboard without ever looking at the DAG.
//!
//! On the same machine model and memory policy the two must assign
//! identical issue cycles to any topologically valid order — a mistake in
//! either the construction algorithms, the arc latencies, or the
//! simulator breaks the agreement.

mod common;

use common::{block_specs, build_block};
use dagsched::core::{ConstructionAlgorithm, HeuristicSet, MemDepPolicy, NodeId, PreparedBlock};
use dagsched::isa::MachineModel;
use dagsched::pipesim::{simulate, SimOptions};
use dagsched::sched::{Schedule, Scheduler, SchedulerKind};
use proptest::prelude::*;

fn sim_opts() -> SimOptions {
    SimOptions {
        mem_policy: MemDepPolicy::SymbolicExpr,
        issue_width: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Program order: DAG timing == scoreboard timing.
    #[test]
    fn program_order_times_agree(specs in block_specs(20)) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        // Table building encodes exactly the live dependences, matching the
        // scoreboard; n**2 adds conservative stale-definition arcs that can
        // overstate issue times (see closure::live_raw_deps).
        let dag = dagsched::core::build_dag(
            &prog.insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let order: Vec<NodeId> = (0..prog.insns.len()).map(NodeId::new).collect();
        let dag_timing = Schedule::from_order(order, &dag, &prog.insns, &model);
        let sim = simulate(&prog.insns, &model, sim_opts());
        prop_assert_eq!(&dag_timing.issue_cycle, &sim.issue_cycle);
    }

    /// Scheduler-produced orders: DAG timing == scoreboard timing on the
    /// reordered stream.
    #[test]
    fn scheduled_order_times_agree(specs in block_specs(18), kind_ix in 0usize..6) {
        let prog = build_block(&specs, false);
        if prog.insns.is_empty() {
            return Ok(());
        }
        let model = MachineModel::sparc2();
        let kind = SchedulerKind::ALL[kind_ix];
        let schedule = Scheduler::new(kind).schedule_block(&prog.insns, &model);
        let reordered: Vec<_> = schedule
            .order
            .iter()
            .map(|n| prog.insns[n.index()])
            .collect();
        // Recompute the timing of the order against the live-dependence
        // (table-built) DAG, then against architectural state.
        let dag = dagsched::core::build_dag(
            &prog.insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let dag_timing =
            Schedule::from_order(schedule.order.clone(), &dag, &prog.insns, &model);
        let sim = simulate(&reordered, &model, sim_opts());
        prop_assert_eq!(&dag_timing.issue_cycle, &sim.issue_cycle, "{}", kind);
    }

    /// Earliest-start-time heuristics agree with the simulator on an
    /// idealized machine: with unlimited units (all pipelined), the
    /// simulated completion of program order can never beat the critical
    /// path, and EST itself is achievable for the first instruction of
    /// any root.
    #[test]
    fn est_is_a_true_lower_bound(specs in block_specs(18)) {
        let prog = build_block(&specs, false);
        if prog.insns.is_empty() {
            return Ok(());
        }
        let model = MachineModel::sparc2();
        let dag = dagsched::core::build_dag(
            &prog.insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let h = HeuristicSet::compute(&dag, &prog.insns, &model, false);
        let sim = simulate(&prog.insns, &model, sim_opts());
        for i in 0..prog.insns.len() {
            prop_assert!(
                sim.issue_cycle[i] >= h.est[i],
                "insn {i} issued at {} before its EST {}",
                sim.issue_cycle[i],
                h.est[i]
            );
        }
    }

    /// Block preparation is agnostic to instruction order for the pure
    /// dependence relation: reversing two independent adjacent
    /// instructions never changes the set of dependent pairs.
    #[test]
    fn swapping_independent_neighbors_preserves_dependences(
        specs in block_specs(14),
        at in 0usize..12,
    ) {
        let prog = build_block(&specs, false);
        let n = prog.insns.len();
        if n < 2 || at + 1 >= n {
            return Ok(());
        }
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let dep = dagsched::core::strongest_dep(
            &block, &model, MemDepPolicy::SymbolicExpr, at, at + 1,
        );
        if dep.is_some() {
            return Ok(()); // only swap independent neighbors
        }
        let mut swapped = prog.insns.clone();
        swapped.swap(at, at + 1);
        let block2 = PreparedBlock::new(&swapped);
        let d1 = ConstructionAlgorithm::N2Forward.run(&block, &model, MemDepPolicy::SymbolicExpr);
        let d2 = ConstructionAlgorithm::N2Forward.run(&block2, &model, MemDepPolicy::SymbolicExpr);
        prop_assert_eq!(d1.arc_count(), d2.arc_count());
    }
}
