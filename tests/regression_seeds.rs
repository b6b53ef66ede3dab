//! Explicit replays of the committed `*.proptest-regressions` seeds.
//!
//! Each `cc` line in the regression files records a shrunk failing input
//! found by upstream proptest. The offline proptest stand-in does not read
//! those files, so the inputs are reconstructed here verbatim and run
//! through every property of the test file the seed belongs to. This keeps
//! the historical failures pinned as ordinary unit tests.

#[allow(dead_code)]
mod common;

use common::{build_block, InsnSpec};
use dagsched::core::{
    annotate_backward, annotate_backward_cp, annotate_construction, annotate_forward, build_dag,
    closure, BackwardOrder, ConstructionAlgorithm, DynState, HeuristicSet, MemDepPolicy, NodeId,
    PreparedBlock,
};
use dagsched::isa::{MachineModel, MemExprId, Reg};
use dagsched::pipesim::interp::{equivalent_observable, run, MachineState};
use dagsched::sched::{BranchAndBound, LinearScan, Scheduler, SchedulerKind, TwoPhase};

/// `tests/construction_equivalence.proptest-regressions`:
/// `specs = [Fp3 { op: 92, a: 0, b: 0, d: 15 }, Load { dword: true, expr: 0, d: 215 },
///  Store { dword: true, expr: 0, s: 35 }], policy_ix = 0`
///
/// Decodes to `FMulD f0,f0 -> f0; LdDf [%fp-8] -> f0; StDf f0 -> [%fp-8]`
/// — an all-double-word block exercising register-pair def/use overlap.
fn construction_seed() -> Vec<InsnSpec> {
    vec![
        InsnSpec::Fp3 {
            op: 92,
            a: 0,
            b: 0,
            d: 15,
        },
        InsnSpec::Load {
            dword: true,
            expr: 0,
            d: 215,
        },
        InsnSpec::Store {
            dword: true,
            expr: 0,
            s: 35,
        },
    ]
}

/// `tests/heuristics_consistency.proptest-regressions`:
/// `specs = [MulDiv { op: 0, a: 0, b: 0, d: 131 }, IntImm { op: 0, a: 0, imm: 0, d: 47 }]`
///
/// Decodes to `Umul %o0,%o0 -> %o5; Add %o0,0 -> %o5` (a WAW pair whose
/// first def has a long multiply latency).
fn heuristics_seed() -> Vec<InsnSpec> {
    vec![
        InsnSpec::MulDiv {
            op: 0,
            a: 0,
            b: 0,
            d: 131,
        },
        InsnSpec::IntImm {
            op: 0,
            a: 0,
            imm: 0,
            d: 47,
        },
    ]
}

/// `tests/scheduling_validity.proptest-regressions` (ten instructions).
fn scheduling_seed() -> Vec<InsnSpec> {
    vec![
        InsnSpec::Fp3 {
            op: 69,
            a: 0,
            b: 0,
            d: 0,
        },
        InsnSpec::Int3 {
            op: 0,
            a: 1,
            b: 1,
            d: 31,
        },
        InsnSpec::Fp3 {
            op: 0,
            a: 96,
            b: 47,
            d: 0,
        },
        InsnSpec::Int3 {
            op: 0,
            a: 0,
            b: 0,
            d: 0,
        },
        InsnSpec::Int3 {
            op: 0,
            a: 0,
            b: 0,
            d: 0,
        },
        InsnSpec::MulDiv {
            op: 108,
            a: 0,
            b: 0,
            d: 0,
        },
        InsnSpec::Int3 {
            op: 0,
            a: 0,
            b: 0,
            d: 0,
        },
        InsnSpec::MulDiv {
            op: 95,
            a: 78,
            b: 247,
            d: 63,
        },
        InsnSpec::Fp3 {
            op: 113,
            a: 76,
            b: 188,
            d: 160,
        },
        InsnSpec::Fp3 {
            op: 208,
            a: 122,
            b: 139,
            d: 227,
        },
    ]
}

/// `tests/semantics.proptest-regressions`:
/// `specs = [Load { dword: true, expr: 0, d: 0 }, Fp3 { op: 0, a: 200, b: 0, d: 1 }],
///  seed = 0, tight = false`
///
/// Decodes to `LdDf [%fp-8] -> f0; FAddD f0,f0 -> f2` — the load defines
/// the even/odd pair f0/f1 that the add consumes.
fn semantics_seed() -> Vec<InsnSpec> {
    vec![
        InsnSpec::Load {
            dword: true,
            expr: 0,
            d: 0,
        },
        InsnSpec::Fp3 {
            op: 0,
            a: 200,
            b: 0,
            d: 1,
        },
    ]
}

// ---------------------------------------------------------------------------
// construction_equivalence replays
// ---------------------------------------------------------------------------

#[test]
fn construction_seed_closure_is_preserved() {
    let prog = build_block(&construction_seed(), false);
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    let policy = MemDepPolicy::ALL[0];
    for &algo in ConstructionAlgorithm::ALL {
        let dag = algo.run(&block, &model, policy);
        assert!(dag.check_invariants().is_ok(), "{algo}");
        closure::closure_equals_ground_truth(&dag, &block, &model, policy)
            .unwrap_or_else(|e| panic!("{algo} / {}: {e}", policy.name()));
    }
}

#[test]
fn construction_seed_latencies_are_preserved() {
    let prog = build_block(&construction_seed(), false);
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    let policy = MemDepPolicy::ALL[0];
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

#[test]
fn construction_seed_n2_is_direction_independent() {
    let prog = build_block(&construction_seed(), false);
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    let fwd = ConstructionAlgorithm::N2Forward.run(&block, &model, MemDepPolicy::SymbolicExpr);
    let bwd = ConstructionAlgorithm::N2Backward.run(&block, &model, MemDepPolicy::SymbolicExpr);
    assert_eq!(fwd.arc_count(), bwd.arc_count());
    for arc in fwd.arcs() {
        let other = bwd.arc_between(arc.from, arc.to).expect("arc in both");
        assert_eq!((other.kind, other.latency), (arc.kind, arc.latency));
    }
}

#[test]
fn construction_seed_table_building_is_a_subset_of_n2() {
    let prog = build_block(&construction_seed(), false);
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    for policy in MemDepPolicy::ALL {
        let n2 = ConstructionAlgorithm::N2Forward.run(&block, &model, *policy);
        for algo in [
            ConstructionAlgorithm::TableForward,
            ConstructionAlgorithm::TableBackward,
        ] {
            let tb = algo.run(&block, &model, *policy);
            assert!(
                tb.arc_count() <= n2.arc_count(),
                "{algo}: {} > {}",
                tb.arc_count(),
                n2.arc_count()
            );
            for arc in tb.arcs() {
                assert!(
                    n2.arc_between(arc.from, arc.to).is_some(),
                    "{algo} invented arc {} -> {}",
                    arc.from,
                    arc.to
                );
            }
        }
    }
}

#[test]
fn construction_seed_avoidance_variants_only_remove_redundant_arcs() {
    let prog = build_block(&construction_seed(), false);
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    let policy = MemDepPolicy::SymbolicExpr;
    let pairs = [
        (
            ConstructionAlgorithm::N2Forward,
            ConstructionAlgorithm::N2ForwardLandskov,
        ),
        (
            ConstructionAlgorithm::TableBackward,
            ConstructionAlgorithm::TableBackwardBitmap,
        ),
    ];
    for (full_algo, pruned_algo) in pairs {
        let full = full_algo.run(&block, &model, policy);
        let pruned = pruned_algo.run(&block, &model, policy);
        assert!(pruned.arc_count() <= full.arc_count(), "{pruned_algo}");
        let full_maps = full.descendant_maps();
        let pruned_maps = pruned.descendant_maps();
        for i in 0..prog.insns.len() {
            assert!(
                full_maps[i].iter().eq(pruned_maps[i].iter()),
                "{pruned_algo}: reachability differs at node {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// heuristics_consistency replays
// ---------------------------------------------------------------------------

fn full_heur(prog: &dagsched::isa::Program) -> (dagsched::core::Dag, HeuristicSet) {
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let h = HeuristicSet::compute(&dag, &prog.insns, &model, true);
    (dag, h)
}

#[test]
fn heuristics_seed_est_lst_slack_relations() {
    let prog = build_block(&heuristics_seed(), false);
    let (_dag, h) = full_heur(&prog);
    let mut any_critical = false;
    for i in 0..prog.insns.len() {
        assert!(
            h.est[i] <= h.lst[i],
            "node {i}: est {} > lst {}",
            h.est[i],
            h.lst[i]
        );
        assert_eq!(h.slack[i], h.lst[i] - h.est[i]);
        any_critical |= h.slack[i] == 0;
    }
    assert!(any_critical, "some node must be critical");
}

#[test]
fn heuristics_seed_path_heuristics_are_monotone() {
    let prog = build_block(&heuristics_seed(), false);
    let (dag, h) = full_heur(&prog);
    for arc in dag.arcs() {
        let (f, t) = (arc.from.index(), arc.to.index());
        assert!(h.max_path_to_leaf[f] > h.max_path_to_leaf[t]);
        assert!(h.max_delay_to_leaf[f] >= h.max_delay_to_leaf[t] + arc.latency as u64);
        assert!(h.max_path_from_root[t] > h.max_path_from_root[f]);
        assert!(h.est[t] >= h.est[f] + arc.latency as u64);
    }
    for i in 0..prog.insns.len() {
        assert!(h.max_delay_to_leaf[i] >= h.max_path_to_leaf[i] as u64);
        assert!(h.max_delay_from_root[i] >= h.max_path_from_root[i] as u64);
    }
}

#[test]
fn heuristics_seed_backward_orders_agree() {
    let prog = build_block(&heuristics_seed(), false);
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let mk = |order: BackwardOrder| {
        let mut h = HeuristicSet::default();
        annotate_construction(&mut h, &dag, &prog.insns, &model);
        annotate_forward(&mut h, &dag);
        annotate_backward(&mut h, &dag, order, true);
        h
    };
    let a = mk(BackwardOrder::ReverseWalk);
    let b = mk(BackwardOrder::LevelLists);
    assert_eq!(a.max_path_to_leaf, b.max_path_to_leaf);
    assert_eq!(a.max_delay_to_leaf, b.max_delay_to_leaf);
    assert_eq!(a.lst, b.lst);
    assert_eq!(a.num_descendants, b.num_descendants);
    assert_eq!(a.sum_exec_descendants, b.sum_exec_descendants);

    let mk_cp = |order: BackwardOrder| {
        let mut h = HeuristicSet::default();
        annotate_construction(&mut h, &dag, &prog.insns, &model);
        annotate_backward_cp(&mut h, &dag, order);
        h
    };
    let a = mk_cp(BackwardOrder::ReverseWalk);
    let b = mk_cp(BackwardOrder::LevelLists);
    assert_eq!(a.max_path_to_leaf, b.max_path_to_leaf);
    assert_eq!(a.max_delay_to_leaf, b.max_delay_to_leaf);
}

#[test]
fn heuristics_seed_counters_match_structure() {
    let prog = build_block(&heuristics_seed(), false);
    let (dag, h) = full_heur(&prog);
    let maps = dag.descendant_maps();
    for (i, map) in maps.iter().enumerate().take(prog.insns.len()) {
        assert_eq!(h.num_descendants[i] as usize, map.count() - 1);
        assert_eq!(h.num_children[i] as usize, dag.num_children(NodeId::new(i)));
        assert_eq!(h.num_parents[i] as usize, dag.num_parents(NodeId::new(i)));
        assert!(h.num_descendants[i] >= h.num_children[i]);
        assert!(h.sum_delays_to_children[i] >= h.max_delay_to_child[i] as u64);
        assert!(h.sum_delays_from_parents[i] >= h.max_delay_from_parent[i] as u64);
    }
}

#[test]
fn heuristics_seed_interlock_with_child_definition() {
    let prog = build_block(&heuristics_seed(), false);
    let (dag, h) = full_heur(&prog);
    for i in 0..prog.insns.len() {
        let expected = dag.out_arcs(NodeId::new(i)).any(|a| a.latency > 1);
        assert_eq!(h.interlock_with_child[i], expected, "node {i}");
    }
}

#[test]
fn heuristics_seed_dynamic_uncovering_is_consistent() {
    let prog = build_block(&heuristics_seed(), false);
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let mut st = DynState::new(&dag);
    for i in 0..prog.insns.len() {
        let n = NodeId::new(i);
        assert!(st.ready_forward(n), "program order is topological");
        let single = st.num_single_parent_children(&dag, n);
        let uncovered = st.num_uncovered_children(&dag, n);
        assert!(uncovered <= single, "uncovered ⊆ single-parent");
        assert!(
            st.sum_delays_single_parent_children(&dag, n) >= single as u64,
            "each single-parent child contributes ≥ 1 cycle"
        );
        st.on_schedule(&dag, &prog.insns, &model, n, i as u64 * 64);
    }
    assert_eq!(st.remaining(), 0);
}

#[test]
fn heuristics_seed_register_heuristics_are_bounded() {
    let prog = build_block(&heuristics_seed(), false);
    let (_dag, h) = full_heur(&prog);
    for (i, insn) in prog.insns.iter().enumerate() {
        assert!(h.regs_killed[i] as usize <= insn.uses().len());
        assert!(h.regs_born[i] as usize <= insn.defs().len());
        assert_eq!(
            h.liveness[i],
            h.regs_born[i] as i32 - h.regs_killed[i] as i32
        );
    }
    let total_killed: u32 = h.regs_killed.iter().sum();
    let distinct_read: u32 = {
        let mut seen = std::collections::HashSet::new();
        for insn in &prog.insns {
            for r in insn.uses() {
                if let dagsched::isa::Resource::Reg(reg) = r {
                    if matches!(
                        reg.class(),
                        dagsched::isa::RegClass::Int | dagsched::isa::RegClass::Fp
                    ) {
                        seen.insert(reg);
                    }
                }
            }
        }
        seen.len() as u32
    };
    assert_eq!(
        total_killed, distinct_read,
        "one kill per distinct register read"
    );
}

// ---------------------------------------------------------------------------
// scheduling_validity replays
// ---------------------------------------------------------------------------

#[test]
fn scheduling_seed_schedules_are_valid() {
    for terminated in [false, true] {
        let prog = build_block(&scheduling_seed(), terminated);
        let model = MachineModel::sparc2();
        for &kind in SchedulerKind::ALL {
            let sched = Scheduler::new(kind);
            let block = PreparedBlock::new(&prog.insns);
            let dag = sched.construction.run(&block, &model, sched.policy);
            let schedule = sched.schedule_block(&prog.insns, &model);
            schedule
                .verify(&dag)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            if terminated {
                assert_eq!(
                    schedule.order.last().unwrap().index(),
                    prog.insns.len() - 1,
                    "{kind}: branch must stay terminal"
                );
            }
        }
    }
}

#[test]
fn scheduling_seed_makespan_respects_critical_path() {
    let prog = build_block(&scheduling_seed(), false);
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let h = HeuristicSet::compute(&dag, &prog.insns, &model, false);
    let bound: u64 = (0..prog.insns.len())
        .map(|i| h.est[i] + h.exec_time[i] as u64)
        .max()
        .unwrap();
    for &kind in SchedulerKind::ALL {
        let schedule = Scheduler::new(kind).schedule_block(&prog.insns, &model);
        assert!(
            schedule.makespan(&prog.insns, &model) >= bound,
            "{}: makespan {} < critical path {}",
            kind,
            schedule.makespan(&prog.insns, &model),
            bound
        );
    }
}

#[test]
fn scheduling_seed_construction_pairing_is_sound() {
    let prog = build_block(&scheduling_seed(), false);
    let model = MachineModel::sparc2();
    for &algo in ConstructionAlgorithm::ALL {
        let sched = Scheduler::new(SchedulerKind::Krishnamurthy).with_construction(algo);
        let block = PreparedBlock::new(&prog.insns);
        let truth = ConstructionAlgorithm::N2Forward.run(&block, &model, sched.policy);
        let schedule = sched.schedule_block(&prog.insns, &model);
        schedule
            .verify(&truth)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn scheduling_seed_fixup_never_hurts() {
    let prog = build_block(&scheduling_seed(), false);
    let model = MachineModel::sparc2();
    let mut sched = Scheduler::new(SchedulerKind::Krishnamurthy);
    let block = PreparedBlock::new(&prog.insns);
    let dag = sched.construction.run(&block, &model, sched.policy);
    let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);
    sched.postpass_fixup = false;
    let plain = sched.schedule_dag(&dag, &prog.insns, &model, &heur);
    sched.postpass_fixup = true;
    let fixed = sched.schedule_dag(&dag, &prog.insns, &model, &heur);
    fixed.verify(&dag).unwrap();
    assert!(
        fixed.makespan(&prog.insns, &model) <= plain.makespan(&prog.insns, &model),
        "fixup worsened {} -> {}",
        plain.makespan(&prog.insns, &model),
        fixed.makespan(&prog.insns, &model)
    );
}

// ---------------------------------------------------------------------------
// semantics replays
// ---------------------------------------------------------------------------

fn mem_cells(insns: &[dagsched::isa::Instruction]) -> Vec<MemExprId> {
    let mut cells: Vec<MemExprId> = insns.iter().filter_map(|i| i.mem.map(|m| m.expr)).collect();
    cells.sort();
    cells.dedup();
    cells
}

fn live_out_regs(insns: &[dagsched::isa::Instruction]) -> (Vec<Reg>, Vec<Reg>) {
    use dagsched::isa::{RegClass, Resource};
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

#[test]
fn semantics_seed_two_phase_preserves_observable_semantics() {
    for tight in [false, true] {
        let prog = build_block(&semantics_seed(), false);
        let model = MachineModel::sparc2();
        let mut pool = prog.mem_exprs.clone();
        let tp = TwoPhase {
            allocator: if tight {
                LinearScan {
                    int_pool: (8..11).map(Reg::Int).collect(),
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
        let initial = MachineState::random(0, mem_cells(&prog.insns));
        let a = run(&prog.insns, &initial);
        let b = run(&r.insns, &initial);
        let (live_int, live_fp) = live_out_regs(&prog.insns);
        equivalent_observable(&a, &b, &spill_cells, &live_int, &live_fp)
            .unwrap_or_else(|e| panic!("two-phase changed behaviour (tight={tight}): {e}"));
    }
}

#[test]
fn semantics_seed_schedulers_preserve_semantics() {
    let prog = build_block(&semantics_seed(), false);
    let model = MachineModel::sparc2();
    for &kind in SchedulerKind::ALL {
        let schedule = Scheduler::new(kind).schedule_block(&prog.insns, &model);
        let transformed: Vec<_> = schedule
            .order
            .iter()
            .map(|n| prog.insns[n.index()])
            .collect();
        let initial = MachineState::random(0, mem_cells(&prog.insns));
        let a = run(&prog.insns, &initial);
        let b = run(&transformed, &initial);
        assert_eq!(a, b, "{kind} changed behaviour");
    }
}

#[test]
fn semantics_seed_optimal_schedule_preserves_semantics() {
    let prog = build_block(&semantics_seed(), false);
    let model = MachineModel::sparc2();
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);
    let r = BranchAndBound::default().schedule(&dag, &prog.insns, &model, &heur);
    let transformed: Vec<_> = r
        .schedule()
        .order
        .iter()
        .map(|n| prog.insns[n.index()])
        .collect();
    let initial = MachineState::random(0, mem_cells(&prog.insns));
    assert_eq!(run(&prog.insns, &initial), run(&transformed, &initial));
}
