//! Static heuristic calculation passes.

use dagsched_isa::{Instruction, MachineModel};

use crate::dag::{Dag, NodeId};
use crate::heur::HeuristicSet;
use crate::prepare::{ResourceMasks, PRESSURE_MASK_BITS};

/// Empty `v` and refill it with `n` copies of `value`, keeping its
/// storage: every pass rewrites its fields through this (or
/// `clear` + `extend`), so a [`HeuristicSet`] reused across blocks
/// allocates only when a block is larger than any before it.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Annotate the heuristics that are "determined when an instruction node
/// or dependency arc is added to the DAG" (Table 1 class `a`).
///
/// In a production scheduler these counters would be maintained inside
/// `add_arc`; keeping them in a separate sweep leaves the construction
/// algorithms uncluttered while costing one pass over the arcs — the
/// per-arc work is identical. The register-pressure counts read each
/// instruction's [`ResourceMasks::of`].
pub fn annotate_construction(
    h: &mut HeuristicSet,
    dag: &Dag,
    insns: &[Instruction],
    model: &MachineModel,
) {
    assert_eq!(dag.node_count(), insns.len(), "DAG/block size mismatch");
    annotate_exec_and_order(h, insns, model);
    annotate_arcs(h, dag);
    annotate_registers(h, insns.iter().map(ResourceMasks::of));
}

/// Execution time and original order: the two fields every heuristic
/// set carries, whichever passes run.
pub(super) fn annotate_exec_and_order(
    h: &mut HeuristicSet,
    insns: &[Instruction],
    model: &MachineModel,
) {
    h.exec_time.clear();
    h.exec_time
        .extend(insns.iter().map(|i| model.exec_latency(i)));
    h.original_order.clear();
    h.original_order.extend(0..insns.len() as u32);
}

/// The arc-derived construction-time counts: `#children`, `#parents`,
/// the delays to children and from parents, and interlock with child.
pub(super) fn annotate_arcs(h: &mut HeuristicSet, dag: &Dag) {
    let n = dag.node_count();
    refill(&mut h.interlock_with_child, n, false);
    refill(&mut h.num_children, n, 0);
    refill(&mut h.num_parents, n, 0);
    refill(&mut h.sum_delays_to_children, n, 0);
    refill(&mut h.max_delay_to_child, n, 0);
    refill(&mut h.sum_delays_from_parents, n, 0);
    refill(&mut h.max_delay_from_parent, n, 0);
    // One linear sweep over the arc columns: order does not matter here,
    // so no sortedness gate is needed.
    let (froms, tos, lats) = (dag.arc_froms(), dag.arc_tos(), dag.arc_latencies());
    for ((&from, &to), &lat) in froms.iter().zip(tos).zip(lats) {
        let (f, t) = (from.index(), to.index());
        h.num_children[f] += 1;
        h.num_parents[t] += 1;
        h.sum_delays_to_children[f] += lat as u64;
        h.max_delay_to_child[f] = h.max_delay_to_child[f].max(lat);
        h.sum_delays_from_parents[t] += lat as u64;
        h.max_delay_from_parent[t] = h.max_delay_from_parent[t].max(lat);
        if lat > 1 {
            h.interlock_with_child[f] = true;
        }
    }
}

/// Register-pressure heuristics: `#registers born` (integer/FP registers
/// defined), `#registers killed` (registers read here and by no later
/// instruction of the block), and Warren-style `liveness` (born −
/// killed), over one [`ResourceMasks`] per instruction.
///
/// One backward sweep: only integer and FP registers count (resource
/// ids 0–63), `born` is the popcount of the definitions, and `killed`
/// the popcount of the uses minus every register read further down the
/// block, which the sweep accumulates as it goes. A repeated operand is
/// one bit, so it is killed once.
pub(super) fn annotate_registers<M>(h: &mut HeuristicSet, masks: M)
where
    M: DoubleEndedIterator<Item = ResourceMasks> + ExactSizeIterator,
{
    let n = masks.len();
    refill(&mut h.regs_born, n, 0);
    refill(&mut h.regs_killed, n, 0);
    refill(&mut h.liveness, n, 0);
    let mut read_later: u128 = 0;
    for (i, m) in masks.enumerate().rev() {
        let uses = m.uses & PRESSURE_MASK_BITS;
        let born = (m.defs & PRESSURE_MASK_BITS).count_ones();
        let killed = (uses & !read_later).count_ones();
        read_later |= uses;
        h.regs_born[i] = born;
        h.regs_killed[i] = killed;
        h.liveness[i] = born as i32 - killed as i32;
    }
}

/// Annotate the forward-pass heuristics (Table 1 class `f`): max path
/// length / total delay from a root, and earliest start time.
///
/// Because arcs always point program-forward, original order is a
/// topological order and one ascending sweep suffices. When the DAG's arc
/// columns are sorted (every in-tree constructor appends in one of the
/// two sorted orders) the sweep runs straight down the columns with no
/// per-node adjacency indirection; otherwise it falls back to the
/// node-order walk over in-arcs.
///
/// Column-sweep correctness: an update for arc `f -> t` needs the values
/// at `f` to be final, i.e. every arc *into* `f` already processed. All
/// arcs point forward (`from < to`), so visiting arcs in ascending `to`
/// order — or ascending `from` order — guarantees exactly that: any arc
/// into `f` has `to = f < t` (resp. `from < f`), so it precedes `f -> t`.
pub fn annotate_forward(h: &mut HeuristicSet, dag: &Dag) {
    let n = dag.node_count();
    refill(&mut h.max_path_from_root, n, 0);
    refill(&mut h.max_delay_from_root, n, 0);
    refill(&mut h.est, n, 0);
    let step = |h: &mut HeuristicSet, f: usize, t: usize, lat: u32| {
        h.max_path_from_root[t] = h.max_path_from_root[t].max(h.max_path_from_root[f] + 1);
        h.max_delay_from_root[t] =
            h.max_delay_from_root[t].max(h.max_delay_from_root[f] + lat as u64);
        h.est[t] = h.est[t].max(h.est[f] + lat as u64);
    };
    let (froms, tos, lats) = (dag.arc_froms(), dag.arc_tos(), dag.arc_latencies());
    if dag.arcs_to_sorted() {
        for k in 0..froms.len() {
            step(h, froms[k].index(), tos[k].index(), lats[k]);
        }
    } else if dag.arcs_from_rev_sorted() {
        // `from` is nonincreasing, so the reverse of the columns is
        // ascending-`from` order.
        for k in (0..froms.len()).rev() {
            step(h, froms[k].index(), tos[k].index(), lats[k]);
        }
    } else {
        for i in 0..n {
            for arc in dag.in_arcs(NodeId::new(i)) {
                step(h, arc.from.index(), i, arc.latency);
            }
        }
    }
}

/// Iteration order for the backward (class `b`) pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardOrder {
    /// Reverse walk of the original instruction list — the paper's §4
    /// recommendation ("any reverse topological sort, including a reverse
    /// scan of the original instructions ... produces the same result").
    ReverseWalk,
    /// The level-list algorithm of \[8,13\]: bucket nodes by level (leaves
    /// at level 0, parents one above their highest child) and visit levels
    /// high-to-low... equivalently buckets built leaf-up and iterated in
    /// level order. Produces identical annotations at slightly higher
    /// bookkeeping cost; kept for the paper's finding 4 ablation.
    LevelLists,
}

/// Compute leaf-based levels: leaves are level 0, every other node is one
/// plus the maximum level of its children (the paper's §4 alternate
/// definition for backward-pass use).
pub fn compute_levels(dag: &Dag) -> Vec<u32> {
    let n = dag.node_count();
    let mut level = vec![0u32; n];
    for i in (0..n).rev() {
        for arc in dag.out_arcs(NodeId::new(i)) {
            level[i] = level[i].max(level[arc.to.index()] + 1);
        }
    }
    level
}

/// Annotate only the critical-path backward heuristics — max path length
/// and max total delay to a leaf — without requiring the forward pass.
///
/// This is the intermediate step of the paper's §6 measurement pipeline
/// ("the following backward static heuristics are used: max path to leaf,
/// max delay to leaf, and max delay to child"): the cheapest useful
/// backward pass, timed in Tables 4 and 5.
pub fn annotate_backward_cp(h: &mut HeuristicSet, dag: &Dag, order: BackwardOrder) {
    let n = dag.node_count();
    refill(&mut h.max_path_to_leaf, n, 0);
    refill(&mut h.max_delay_to_leaf, n, 0);
    let step = |h: &mut HeuristicSet, f: usize, t: usize, lat: u32| {
        h.max_path_to_leaf[f] = h.max_path_to_leaf[f].max(h.max_path_to_leaf[t] + 1);
        h.max_delay_to_leaf[f] = h.max_delay_to_leaf[f].max(h.max_delay_to_leaf[t] + lat as u64);
    };
    let (froms, tos, lats) = (dag.arc_froms(), dag.arc_tos(), dag.arc_latencies());
    match backward_sweep_dir(dag, order) {
        Some(SweepDir::Stored) => {
            for k in 0..froms.len() {
                step(h, froms[k].index(), tos[k].index(), lats[k]);
            }
        }
        Some(SweepDir::Reversed) => {
            for k in (0..froms.len()).rev() {
                step(h, froms[k].index(), tos[k].index(), lats[k]);
            }
        }
        None => {
            for i in backward_visit_order(dag, order) {
                for arc in dag.out_arcs(NodeId::new(i)) {
                    step(h, i, arc.to.index(), arc.latency);
                }
            }
        }
    }
}

/// Which direction (if any) the arc columns can be swept for a backward
/// pass. An update for arc `f -> t` needs the values at `t` final, i.e.
/// every arc *out of* `t` already processed. Arcs point forward
/// (`from < to`), so descending-`from` order works (arcs out of `t` have
/// `from = t > f`), as does descending-`to` order (arcs out of `t` have
/// `to > t`). The level-list ablation deliberately keeps the node walk.
fn backward_sweep_dir(dag: &Dag, order: BackwardOrder) -> Option<SweepDir> {
    match order {
        BackwardOrder::ReverseWalk if dag.arcs_from_rev_sorted() => Some(SweepDir::Stored),
        BackwardOrder::ReverseWalk if dag.arcs_to_sorted() => Some(SweepDir::Reversed),
        _ => None,
    }
}

#[derive(Clone, Copy)]
enum SweepDir {
    /// The stored column order is already the sweep order.
    Stored,
    /// Sweep the columns back-to-front.
    Reversed,
}

/// Node visit order for the backward fallback paths.
fn backward_visit_order(dag: &Dag, order: BackwardOrder) -> Vec<usize> {
    let n = dag.node_count();
    match order {
        BackwardOrder::ReverseWalk => (0..n).rev().collect(),
        BackwardOrder::LevelLists => {
            let levels = compute_levels(dag);
            let max_level = levels.iter().copied().max().unwrap_or(0);
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_level as usize + 1];
            for (i, &l) in levels.iter().enumerate() {
                buckets[l as usize].push(i);
            }
            buckets.into_iter().flatten().collect()
        }
    }
}

/// Annotate the backward-pass heuristics (Table 1 class `b`): max path
/// length / total delay to a leaf, latest start time and slack (requires
/// [`annotate_forward`] to have run, for EST), and — when
/// `with_descendants` is set — `#descendants` and the sum of descendant
/// execution times via reachability bitmaps.
///
/// # Panics
///
/// Panics if the forward pass has not run (EST missing) or construction
/// annotations are missing (exec_time needed for LST and descendant sums).
pub fn annotate_backward(
    h: &mut HeuristicSet,
    dag: &Dag,
    order: BackwardOrder,
    with_descendants: bool,
) {
    let n = dag.node_count();
    assert_eq!(
        h.est.len(),
        n,
        "run annotate_forward first (EST required for LST)"
    );
    assert_eq!(h.exec_time.len(), n, "run annotate_construction first");
    // Completion time of the block: the EST of the paper's dummy
    // block-terminating node, "the maximum of earliest_start(p) +
    // latency(p) over all parents p" — the dummy's parents are the
    // *leaves*. (Using leaves only also guarantees a slack-zero critical
    // path from some root to some leaf.)
    let total: u64 = (0..n)
        .filter(|&i| dag.num_children(NodeId::new(i)) == 0)
        .map(|i| h.est[i] + h.exec_time[i] as u64)
        .max()
        .unwrap_or(0);

    refill(&mut h.max_path_to_leaf, n, 0);
    refill(&mut h.max_delay_to_leaf, n, 0);
    refill(&mut h.slack, n, 0);

    match backward_sweep_dir(dag, order) {
        Some(dir) => {
            // Column sweep: leaves get their final LST up front; every
            // non-leaf starts at `u64::MAX` and is min'd down by its out
            // arcs (a non-leaf has at least one, so the sentinel never
            // survives). The sweep order guarantees `lst[t]` is final
            // before any arc `f -> t` reads it.
            h.lst.clear();
            h.lst.extend((0..n).map(|i| {
                if dag.num_children(NodeId::new(i)) == 0 {
                    total - h.exec_time[i] as u64
                } else {
                    u64::MAX
                }
            }));
            let step = |h: &mut HeuristicSet, f: usize, t: usize, lat: u32| {
                h.max_path_to_leaf[f] = h.max_path_to_leaf[f].max(h.max_path_to_leaf[t] + 1);
                h.max_delay_to_leaf[f] =
                    h.max_delay_to_leaf[f].max(h.max_delay_to_leaf[t] + lat as u64);
                h.lst[f] = h.lst[f].min(h.lst[t].saturating_sub(lat as u64));
            };
            let (froms, tos, lats) = (dag.arc_froms(), dag.arc_tos(), dag.arc_latencies());
            match dir {
                SweepDir::Stored => {
                    for k in 0..froms.len() {
                        step(h, froms[k].index(), tos[k].index(), lats[k]);
                    }
                }
                SweepDir::Reversed => {
                    for k in (0..froms.len()).rev() {
                        step(h, froms[k].index(), tos[k].index(), lats[k]);
                    }
                }
            }
        }
        None => {
            refill(&mut h.lst, n, 0);
            for i in backward_visit_order(dag, order) {
                let node = NodeId::new(i);
                if dag.num_children(node) == 0 {
                    h.lst[i] = total - h.exec_time[i] as u64;
                    continue;
                }
                let mut lst = u64::MAX;
                for arc in dag.out_arcs(node) {
                    let c = arc.to.index();
                    h.max_path_to_leaf[i] = h.max_path_to_leaf[i].max(h.max_path_to_leaf[c] + 1);
                    h.max_delay_to_leaf[i] =
                        h.max_delay_to_leaf[i].max(h.max_delay_to_leaf[c] + arc.latency as u64);
                    lst = lst.min(h.lst[c].saturating_sub(arc.latency as u64));
                }
                h.lst[i] = lst;
            }
        }
    }
    for i in 0..n {
        h.slack[i] = h.lst[i].saturating_sub(h.est[i]);
    }

    if with_descendants {
        annotate_descendants(h, dag);
    } else {
        h.num_descendants.clear();
        h.sum_exec_descendants.clear();
    }
}

/// `#descendants` and the sum of descendant execution times (requires
/// the execution times). "#descendants ... can be found by counting the
/// bits set in the node's reachability map" (§3): one row popcount per
/// node over the flat descendant matrix.
pub(super) fn annotate_descendants(h: &mut HeuristicSet, dag: &Dag) {
    let n = dag.node_count();
    assert_eq!(h.exec_time.len(), n, "execution times required");
    let maps = dag.descendants();
    h.num_descendants.clear();
    h.num_descendants
        .extend((0..n).map(|i| (maps.row_count_ones(i) - 1) as u32));
    h.sum_exec_descendants.clear();
    h.sum_exec_descendants.extend((0..n).map(|i| {
        maps.row_iter(i)
            .filter(|&d| d != i)
            .map(|d| h.exec_time[d] as u64)
            .sum::<u64>()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_dag, ConstructionAlgorithm};
    use crate::memdep::MemDepPolicy;
    use dagsched_isa::Instruction;
    use dagsched_isa::Reg;
    use dagsched_isa::{MachineModel, Opcode};

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

    fn full_set(insns: &[Instruction], model: &MachineModel) -> (crate::dag::Dag, HeuristicSet) {
        let dag = build_dag(
            insns,
            model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let h = HeuristicSet::compute(&dag, insns, model, true);
        (dag, h)
    }

    #[test]
    fn figure1_est_uses_transitive_arc() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        // Node 2 must wait for the 20-cycle divide, not just the 1+4 path.
        assert_eq!(h.est[0], 0);
        assert_eq!(h.est[1], 1); // WAR delay
        assert_eq!(h.est[2], 20);
    }

    #[test]
    fn figure1_delays_and_paths() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        assert_eq!(h.max_delay_to_leaf[0], 20);
        assert_eq!(h.max_delay_to_leaf[1], 4);
        assert_eq!(h.max_delay_to_leaf[2], 0);
        assert_eq!(h.max_path_to_leaf[0], 2); // via 0->1->2
        assert_eq!(h.max_path_from_root[2], 2);
        assert_eq!(h.max_delay_from_root[2], 20);
    }

    #[test]
    fn slack_is_zero_on_critical_path() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        // total = est[2] + exec[2] = 20 + 4 = 24.
        assert_eq!(h.lst[2], 20);
        assert_eq!(h.slack[2], 0);
        assert_eq!(h.slack[0], 0, "the divide is critical");
        // Node 1 can start anywhere in [1, 16]: lst = lst[2] - 4 = 16.
        assert_eq!(h.lst[1], 16);
        assert_eq!(h.slack[1], 15);
    }

    #[test]
    fn est_never_exceeds_lst() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        for i in 0..insns.len() {
            assert!(h.est[i] <= h.lst[i], "node {i}: est > lst");
        }
    }

    #[test]
    fn construction_annotations_count_arcs() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        assert_eq!(h.num_children[0], 2);
        assert_eq!(h.num_parents[2], 2);
        assert_eq!(h.sum_delays_to_children[0], 21); // WAR 1 + RAW 20
        assert_eq!(h.max_delay_to_child[0], 20);
        assert_eq!(h.sum_delays_from_parents[2], 24); // 20 + 4
        assert!(h.interlock_with_child[0]);
        assert!(h.interlock_with_child[1]); // 4-cycle RAW
        assert!(!h.interlock_with_child[2]);
        assert_eq!(h.exec_time[0], 20);
    }

    #[test]
    fn descendant_counts_avoid_double_counting() {
        let (insns, model) = fig1();
        let (_dag, h) = full_set(&insns, &model);
        // Node 0 reaches 1 and 2 (2 is reachable two ways, counted once).
        assert_eq!(h.num_descendants[0], 2);
        assert_eq!(h.num_descendants[1], 1);
        assert_eq!(h.num_descendants[2], 0);
        assert_eq!(h.sum_exec_descendants[0], 8); // two 4-cycle adds
    }

    #[test]
    fn reverse_walk_equals_level_lists() {
        let (insns, model) = fig1();
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let mut a = HeuristicSet::default();
        annotate_construction(&mut a, &dag, &insns, &model);
        annotate_forward(&mut a, &dag);
        annotate_backward(&mut a, &dag, BackwardOrder::ReverseWalk, true);
        let mut b = HeuristicSet::default();
        annotate_construction(&mut b, &dag, &insns, &model);
        annotate_forward(&mut b, &dag);
        annotate_backward(&mut b, &dag, BackwardOrder::LevelLists, true);
        assert_eq!(a.max_path_to_leaf, b.max_path_to_leaf);
        assert_eq!(a.max_delay_to_leaf, b.max_delay_to_leaf);
        assert_eq!(a.lst, b.lst);
        assert_eq!(a.slack, b.slack);
        assert_eq!(a.num_descendants, b.num_descendants);
    }

    #[test]
    fn levels_assign_leaves_zero() {
        let (insns, model) = fig1();
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let levels = compute_levels(&dag);
        assert_eq!(levels, vec![2, 1, 0]);
    }

    #[test]
    fn register_pressure_heuristics() {
        let insns = vec![
            // %o1 born here, %o0 used again later (not killed).
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            // kills %o0 and %o1, births %o2.
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
        ];
        let model = MachineModel::sparc2();
        let (_dag, h) = full_set(&insns, &model);
        assert_eq!(h.regs_born, vec![1, 1]);
        assert_eq!(h.regs_killed, vec![0, 2]);
        assert_eq!(h.liveness, vec![1, -1]);
    }

    #[test]
    fn independent_nodes_have_zero_est_and_full_slack_shape() {
        let insns = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
        ];
        let model = MachineModel::sparc2();
        let (_dag, h) = full_set(&insns, &model);
        assert_eq!(h.est, vec![0, 0]);
        // total = 20 (the divide); the add may start as late as 19.
        assert_eq!(h.lst[0], 19);
        assert_eq!(h.lst[1], 0);
        assert_eq!(h.slack[1], 0);
    }
}
