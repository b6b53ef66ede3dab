//! Property tests: every DAG construction algorithm is a faithful (if
//! differently materialized) representation of the same dependence
//! relation, under every memory disambiguation policy.

mod common;

use common::{block_specs, build_block};
use dagsched::core::construct::strongest_dep;
use dagsched::core::{
    closure, ConstructionAlgorithm, DagArc, MemDepPolicy, NodeId, PreparedBlock, Scratch,
};
use dagsched::isa::MachineModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The transitive closure of every construction algorithm's DAG equals
    /// the closure of the brute-force pairwise dependence relation.
    #[test]
    fn closure_is_preserved(specs in block_specs(24), policy_ix in 0usize..4) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let policy = MemDepPolicy::ALL[policy_ix];
        for &algo in ConstructionAlgorithm::ALL {
            let dag = algo.run(&block, &model, policy);
            prop_assert!(dag.check_invariants().is_ok(), "{algo}");
            closure::closure_equals_ground_truth(&dag, &block, &model, policy)
                .unwrap_or_else(|e| panic!("{algo} / {}: {e}", policy.name()));
        }
    }

    /// Forward `n**2` construction runs the pairwise test only where the
    /// definition/use masks allow a dependence, yet its arcs are exactly
    /// the brute-force relation — every arc, kind and latency, in the
    /// same order — and every pair still counts as a comparison. (The
    /// closure property alone would miss a dropped arc that another path
    /// implies.)
    #[test]
    fn n2_forward_arcs_are_the_pairwise_relation(
        specs in block_specs(24),
        policy_ix in 0usize..4,
    ) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let policy = MemDepPolicy::ALL[policy_ix];
        let mut scratch = Scratch::new();
        let dag = ConstructionAlgorithm::N2Forward
            .run_with_scratch(&block, &model, policy, &mut scratch);
        let n = block.len();
        let mut expected = Vec::new();
        for i in 0..n {
            for j in 0..i {
                if let Some((kind, latency)) = strongest_dep(&block, &model, policy, j, i) {
                    let (from, to) = (NodeId::new(j), NodeId::new(i));
                    expected.push(DagArc { from, to, kind, latency });
                }
            }
        }
        prop_assert_eq!(dag.arcs().collect::<Vec<_>>(), expected, "{}", policy.name());
        prop_assert_eq!(scratch.stats.comparisons, (n * n.saturating_sub(1) / 2) as u64);
    }

    /// The non-avoiding algorithms preserve every direct dependence's
    /// latency along the longest DAG path (the Figure 1 property).
    #[test]
    fn latencies_are_preserved_by_non_avoiding_algorithms(
        specs in block_specs(24),
        policy_ix in 0usize..4,
    ) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let policy = MemDepPolicy::ALL[policy_ix];
        for algo in [
            ConstructionAlgorithm::N2Forward,
            ConstructionAlgorithm::N2Backward,
            ConstructionAlgorithm::TableForward,
            ConstructionAlgorithm::TableBackward,
        ] {
            let dag = algo.run(&block, &model, policy);
            closure::preserves_dependence_latencies(&dag, &block, &model, policy)
                .unwrap_or_else(|e| panic!("{algo} / {}: {e}", policy.name()));
        }
    }

    /// Forward and backward compare-against-all construction produce the
    /// identical arc set.
    #[test]
    fn n2_is_direction_independent(specs in block_specs(24)) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let fwd = ConstructionAlgorithm::N2Forward.run(&block, &model, MemDepPolicy::SymbolicExpr);
        let bwd = ConstructionAlgorithm::N2Backward.run(&block, &model, MemDepPolicy::SymbolicExpr);
        prop_assert_eq!(fwd.arc_count(), bwd.arc_count());
        for arc in fwd.arcs() {
            let other = bwd.arc_between(arc.from, arc.to).expect("arc in both");
            prop_assert_eq!((other.kind, other.latency), (arc.kind, arc.latency));
        }
    }

    /// Table building never materializes more arcs than compare-against-all
    /// (it omits transitive arcs; it invents none).
    #[test]
    fn table_building_is_a_subset_of_n2(specs in block_specs(24), policy_ix in 0usize..4) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let policy = MemDepPolicy::ALL[policy_ix];
        let n2 = ConstructionAlgorithm::N2Forward.run(&block, &model, policy);
        for algo in [ConstructionAlgorithm::TableForward, ConstructionAlgorithm::TableBackward] {
            let tb = algo.run(&block, &model, policy);
            prop_assert!(
                tb.arc_count() <= n2.arc_count(),
                "{algo}: {} > {}", tb.arc_count(), n2.arc_count()
            );
            for arc in tb.arcs() {
                prop_assert!(
                    n2.arc_between(arc.from, arc.to).is_some(),
                    "{algo} invented arc {} -> {}", arc.from, arc.to
                );
            }
        }
    }

    /// The arc-avoidance variants produce sub-DAGs of their parents with
    /// identical reachability.
    #[test]
    fn avoidance_variants_only_remove_redundant_arcs(specs in block_specs(20)) {
        let prog = build_block(&specs, false);
        let model = MachineModel::sparc2();
        let block = PreparedBlock::new(&prog.insns);
        let policy = MemDepPolicy::SymbolicExpr;
        let pairs = [
            (ConstructionAlgorithm::N2Forward, ConstructionAlgorithm::N2ForwardLandskov),
            (ConstructionAlgorithm::TableBackward, ConstructionAlgorithm::TableBackwardBitmap),
        ];
        for (full_algo, pruned_algo) in pairs {
            let full = full_algo.run(&block, &model, policy);
            let pruned = pruned_algo.run(&block, &model, policy);
            prop_assert!(pruned.arc_count() <= full.arc_count(), "{pruned_algo}");
            let full_maps = full.descendant_maps();
            let pruned_maps = pruned.descendant_maps();
            for i in 0..prog.insns.len() {
                prop_assert!(
                    full_maps[i].iter().eq(pruned_maps[i].iter()),
                    "{pruned_algo}: reachability differs at node {i}"
                );
            }
        }
    }
}
