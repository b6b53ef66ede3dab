//! Table-building DAG construction (forward and backward).
//!
//! These algorithms keep, per resource, "a record of the last definition
//! ... and the set of current uses" (paper §2) and touch only those
//! entries, omitting most transitive arcs while retaining the important
//! ones (Figure 1). Register resources live in a fixed dense table;
//! memory resources live in a growing table keyed by symbolic expression
//! and scanned linearly — deliberately mirroring the paper's
//! "variable-length bit map ... its length is increased whenever a new
//! memory address expression is encountered", which is what made backward
//! construction marginally slower on fpppp (§6).

use dagsched_isa::{DepKind, MachineModel, Resource};

use crate::bitset::BitMatrix;
use crate::dag::{Dag, NodeId};
use crate::memdep::{MemDepPolicy, MemKey};
use crate::prepare::{reg_resource_id, PreparedBlock, REG_RESOURCE_COUNT};
use crate::scratch::{reset_matrix, PhaseStats, Scratch};

#[derive(Debug, Clone, Default)]
struct RegEntry {
    last_def: Option<u32>,
    uses: Vec<u32>,
}

#[derive(Debug, Clone)]
struct MemEntry {
    key: MemKey,
    last_def: Option<u32>,
    uses: Vec<u32>,
}

/// The definition/use tables of the table-building algorithms.
///
/// Owned by the per-worker [`Scratch`] arena so the register table (67
/// dense entries, each with a use-list allocation) survives from block to
/// block; [`DepTables::reset`] restores the empty state without touching
/// the allocations.
#[derive(Debug)]
pub(crate) struct DepTables {
    regs: Vec<RegEntry>,
    mem: Vec<MemEntry>,
}

impl DepTables {
    pub(crate) fn new() -> DepTables {
        DepTables {
            regs: vec![RegEntry::default(); REG_RESOURCE_COUNT],
            mem: Vec::new(),
        }
    }

    /// Restore the freshly-constructed state, keeping the register-table
    /// allocation and each entry's use-list capacity.
    pub(crate) fn reset(&mut self) {
        for e in &mut self.regs {
            e.last_def = None;
            e.uses.clear();
        }
        self.mem.clear();
    }
}

/// An arc sink lets the bitmap variant intercept arc insertion to
/// suppress transitive arcs; the plain variants insert unconditionally.
/// `batch_start` is the arc count when the current instruction's
/// processing began — all arcs of one instruction are emitted
/// consecutively, so a duplicate pair can only sit in that column tail
/// (see [`Dag::merge_or_push_batch`]).
type ArcSink<'s> = dyn FnMut(&mut Dag, usize, NodeId, NodeId, DepKind, u32) + 's;

/// Backward-pass table building (the paper's §2 pseudocode, after
/// Hunnicutt): instructions are processed last-to-first; for each resource
/// *defined*, an RAW arc is added to every recorded use (or a WAW arc to
/// the recorded definition if no uses remain) and the entry is superseded;
/// for each resource *used*, a WAR arc is added to the recorded definition
/// and the node joins the use list. Definitions are processed before uses.
pub fn table_backward(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
) -> Dag {
    let mut dag = Dag::new(0);
    table_backward_in(block, model, policy, &mut dag, &mut Scratch::new());
    dag
}

/// [`table_backward`] into `dag` (reset to the block's nodes first)
/// against a reusable [`Scratch`] arena: the definition/use tables come
/// from (and are reset in) `scratch`, and `scratch.stats.table_probes`
/// counts the table entries consulted.
pub(crate) fn table_backward_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    scratch: &mut Scratch,
) {
    dag.reset(block.len());
    let Scratch { tables, stats, .. } = scratch;
    let mut add =
        |dag: &mut Dag, batch: usize, from: NodeId, to: NodeId, kind: DepKind, lat: u32| {
            dag.merge_or_push_batch(batch, from, to, kind, lat);
        };
    backward_core(block, model, policy, tables, stats, dag, &mut add);
    dag.build_adjacency();
}

/// Backward table building with reachability-bitmap suppression of
/// transitive arcs (paper §2): each node keeps a descendant bitmap; an arc
/// `a → b` is skipped when `b` is already a descendant of `a`, otherwise
/// `b`'s map is folded into `a`'s.
///
/// The paper recommends **against** unconditional use of this suppression
/// (finding 3); it is provided for the ablation experiments.
pub fn table_backward_bitmap(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
) -> Dag {
    let mut dag = Dag::new(0);
    table_backward_bitmap_in(block, model, policy, &mut dag, &mut Scratch::new());
    dag
}

/// [`table_backward_bitmap`] into `dag` (reset to the block's nodes
/// first) against a reusable [`Scratch`] arena: both the definition/use
/// tables and the reachability-bitmap pool are reused, and
/// `scratch.stats.arcs_suppressed` counts the transitive arcs the bitmaps
/// absorbed.
pub(crate) fn table_backward_bitmap_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    scratch: &mut Scratch,
) {
    let n = block.len();
    dag.reset(n);
    let Scratch {
        tables,
        matrix,
        stats,
        ..
    } = scratch;
    // "each node's map is initialized to indicate that a node can reach itself"
    let desc = reset_matrix(matrix, n, true);
    let mut suppressed = 0u64;
    let mut add =
        |dag: &mut Dag, _batch: usize, from: NodeId, to: NodeId, kind: DepKind, lat: u32| {
            let (f, t) = (from.index(), to.index());
            // `backward_core` walks last-to-first and only ever emits arcs
            // toward already-visited (later) nodes.
            debug_assert!(
                f < t,
                "backward table building must emit forward arcs only ({f} -> {t})"
            );
            if bitmap_absorb(desc, f, t) {
                // A pair that already carries an arc is a descendant pair, so
                // `bitmap_absorb` suppresses it — the insert path never sees
                // a duplicate and needs no merge scan.
                dag.push_arc_distinct(from, to, kind, lat);
            } else {
                suppressed += 1;
            }
        };
    backward_core(block, model, policy, tables, stats, dag, &mut add);
    dag.build_adjacency();
    stats.arcs_suppressed += suppressed;
}

/// Fold node `t`'s descendant row into node `f`'s and report whether the
/// arc `f -> t` must be materialized; it is suppressed when `t` is already
/// reachable from `f`.
///
/// Robust to degenerate inputs: a self arc (`f == t`) is never
/// materialized, and either orientation of `f` vs `t` is handled by the
/// matrix row union — the historical sink did `split_at_mut(t)` + `lo[f]`
/// unconditionally, which panics (or, one element off, silently merges
/// the wrong map) whenever `f >= t`.
fn bitmap_absorb(desc: &mut BitMatrix, f: usize, t: usize) -> bool {
    if f == t || desc.contains(f, t) {
        return false;
    }
    desc.or_row_into(t, f);
    true
}

fn backward_core(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    t: &mut DepTables,
    stats: &mut PhaseStats,
    dag: &mut Dag,
    add: &mut ArcSink<'_>,
) {
    let n = block.len();
    t.reset();
    let mut probes = 0u64;
    for i in (0..n).rev() {
        let node = NodeId::new(i);
        // All arcs of this instruction lead out of `node`; they start at
        // this column index, and no later instruction adds to the pair
        // set again.
        let batch = dag.arc_count();
        // --- process resources defined (before uses: paper order) ---
        for &r in &block.reg_defs[i] {
            probes += 1;
            let e = &mut t.regs[reg_resource_id(r)];
            if e.uses.is_empty() {
                if let Some(d) = e.last_def {
                    let lat = block.waw_latency(model, i, d as usize, Resource::Reg(r));
                    add(dag, batch, node, NodeId::new(d as usize), DepKind::Waw, lat);
                }
            } else {
                // "in ascending order" (paper §2): uses were recorded in
                // descending program order by the backward pass, so walk
                // them reversed. The order matters for the bitmap variant,
                // which can only suppress an arc whose covering path was
                // inserted first.
                for &u in e.uses.iter().rev() {
                    let lat = block.raw_reg_latency(model, i, u as usize, r);
                    add(dag, batch, node, NodeId::new(u as usize), DepKind::Raw, lat);
                }
                e.uses.clear();
            }
            e.last_def = Some(i as u32);
        }
        if let Some(key) = block.store_key(i) {
            let mut found_same = false;
            for entry in &mut t.mem {
                probes += 1;
                if !policy.alias(&key, &entry.key) {
                    continue;
                }
                let same = policy.same_location(&key, &entry.key);
                if entry.uses.is_empty() {
                    if let Some(d) = entry.last_def {
                        let lat =
                            block.waw_latency(model, i, d as usize, Resource::Mem(entry.key.expr));
                        add(dag, batch, node, NodeId::new(d as usize), DepKind::Waw, lat);
                    }
                } else {
                    for &u in entry.uses.iter().rev() {
                        let lat = block.raw_mem_latency(model, i, u as usize);
                        add(dag, batch, node, NodeId::new(u as usize), DepKind::Raw, lat);
                    }
                    if same {
                        entry.uses.clear();
                    }
                }
                if same {
                    entry.last_def = Some(i as u32);
                    found_same = true;
                }
            }
            if !found_same {
                t.mem.push(MemEntry {
                    key,
                    last_def: Some(i as u32),
                    uses: Vec::new(),
                });
            }
        }
        // --- process resources used ---
        for &r in &block.reg_uses[i] {
            probes += 1;
            let e = &mut t.regs[reg_resource_id(r)];
            if let Some(d) = e.last_def {
                if d as usize != i {
                    let lat = block.war_latency(model, i, d as usize, Resource::Reg(r));
                    add(dag, batch, node, NodeId::new(d as usize), DepKind::War, lat);
                }
            }
            e.uses.push(i as u32);
        }
        if let Some(key) = block.load_key(i) {
            let mut found_same = false;
            for entry in &mut t.mem {
                probes += 1;
                if !policy.alias(&key, &entry.key) {
                    continue;
                }
                if let Some(d) = entry.last_def {
                    if d as usize != i {
                        let lat =
                            block.war_latency(model, i, d as usize, Resource::Mem(entry.key.expr));
                        add(dag, batch, node, NodeId::new(d as usize), DepKind::War, lat);
                    }
                }
                if policy.same_location(&key, &entry.key) {
                    entry.uses.push(i as u32);
                    found_same = true;
                }
            }
            if !found_same {
                t.mem.push(MemEntry {
                    key,
                    last_def: None,
                    uses: vec![i as u32],
                });
            }
        }
    }
    stats.table_probes += probes;
}

/// Forward-pass table building (Krishnamurthy-like): "similar, but with
/// resource uses processed before definitions" (paper §2). Instructions
/// are processed first-to-last; a use takes an RAW arc from the recorded
/// definition; a definition takes WAR arcs from the recorded uses (or a
/// WAW arc from the recorded definition if there are none) and supersedes
/// the entry.
pub fn table_forward(block: &PreparedBlock<'_>, model: &MachineModel, policy: MemDepPolicy) -> Dag {
    let mut dag = Dag::new(0);
    table_forward_in(block, model, policy, &mut dag, &mut Scratch::new());
    dag
}

/// [`table_forward`] into `dag` (reset to the block's nodes first)
/// against a reusable [`Scratch`] arena.
pub(crate) fn table_forward_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    scratch: &mut Scratch,
) {
    let n = block.len();
    dag.reset(n);
    let t = &mut scratch.tables;
    t.reset();
    let mut probes = 0u64;
    for i in 0..n {
        let node = NodeId::new(i);
        // All arcs of this instruction point at `node`; they start at
        // this column index, and no later instruction adds to the pair
        // set again.
        let batch = dag.arc_count();
        // --- process resources used (before definitions: paper order) ---
        for &r in &block.reg_uses[i] {
            probes += 1;
            let e = &mut t.regs[reg_resource_id(r)];
            if let Some(d) = e.last_def {
                let lat = block.raw_reg_latency(model, d as usize, i, r);
                dag.merge_or_push_batch(batch, NodeId::new(d as usize), node, DepKind::Raw, lat);
            }
            e.uses.push(i as u32);
        }
        if let Some(key) = block.load_key(i) {
            let mut found_same = false;
            for entry in &mut t.mem {
                probes += 1;
                if !policy.alias(&key, &entry.key) {
                    continue;
                }
                if let Some(d) = entry.last_def {
                    let lat = block.raw_mem_latency(model, d as usize, i);
                    dag.merge_or_push_batch(
                        batch,
                        NodeId::new(d as usize),
                        node,
                        DepKind::Raw,
                        lat,
                    );
                }
                if policy.same_location(&key, &entry.key) {
                    entry.uses.push(i as u32);
                    found_same = true;
                }
            }
            if !found_same {
                t.mem.push(MemEntry {
                    key,
                    last_def: None,
                    uses: vec![i as u32],
                });
            }
        }
        // --- process resources defined ---
        for &r in &block.reg_defs[i] {
            probes += 1;
            let e = &mut t.regs[reg_resource_id(r)];
            if e.uses.iter().all(|&u| u as usize == i) {
                if let Some(d) = e.last_def {
                    if d as usize != i {
                        let lat = block.waw_latency(model, d as usize, i, Resource::Reg(r));
                        dag.merge_or_push_batch(
                            batch,
                            NodeId::new(d as usize),
                            node,
                            DepKind::Waw,
                            lat,
                        );
                    }
                }
            } else {
                for &u in &e.uses {
                    if u as usize != i {
                        let lat = block.war_latency(model, u as usize, i, Resource::Reg(r));
                        dag.merge_or_push_batch(
                            batch,
                            NodeId::new(u as usize),
                            node,
                            DepKind::War,
                            lat,
                        );
                    }
                }
            }
            e.uses.clear();
            e.last_def = Some(i as u32);
        }
        if let Some(key) = block.store_key(i) {
            let mut found_same = false;
            for entry in &mut t.mem {
                probes += 1;
                if !policy.alias(&key, &entry.key) {
                    continue;
                }
                let same = policy.same_location(&key, &entry.key);
                if entry.uses.iter().all(|&u| u as usize == i) {
                    if let Some(d) = entry.last_def {
                        if d as usize != i {
                            let lat = block.waw_latency(
                                model,
                                d as usize,
                                i,
                                Resource::Mem(entry.key.expr),
                            );
                            dag.merge_or_push_batch(
                                batch,
                                NodeId::new(d as usize),
                                node,
                                DepKind::Waw,
                                lat,
                            );
                        }
                    }
                } else {
                    for &u in &entry.uses {
                        if u as usize != i {
                            let lat = block.war_latency(
                                model,
                                u as usize,
                                i,
                                Resource::Mem(entry.key.expr),
                            );
                            dag.merge_or_push_batch(
                                batch,
                                NodeId::new(u as usize),
                                node,
                                DepKind::War,
                                lat,
                            );
                        }
                    }
                }
                if same {
                    entry.uses.clear();
                    entry.last_def = Some(i as u32);
                    found_same = true;
                }
            }
            if !found_same {
                t.mem.push(MemEntry {
                    key,
                    last_def: Some(i as u32),
                    uses: Vec::new(),
                });
            }
        }
    }
    dag.build_adjacency();
    scratch.stats.table_probes += probes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{Instruction, MemExprPool, MemRef, Opcode, Reg};

    fn model() -> MachineModel {
        MachineModel::sparc2()
    }

    fn fig1() -> Vec<Instruction> {
        vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
        ]
    }

    #[test]
    fn backward_retains_figure1_transitive_arc() {
        let insns = fig1();
        let block = PreparedBlock::new(&insns);
        let dag = table_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(dag.arc_count(), 3);
        let a = dag.arc_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!((a.kind, a.latency), (DepKind::Raw, 20));
    }

    #[test]
    fn forward_retains_figure1_transitive_arc() {
        let insns = fig1();
        let block = PreparedBlock::new(&insns);
        let dag = table_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(dag.arc_count(), 3);
        let a = dag.arc_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!((a.kind, a.latency), (DepKind::Raw, 20));
    }

    #[test]
    fn tables_omit_redundant_transitive_arc() {
        // 0 defs %o1; 1 uses %o1, defs %o2; 2 uses %o2 only — and then a
        // direct use of %o1 at node 3. Backward table building erases the
        // use-list when 1 redefines nothing, so check the classic chain:
        // 0 -> 1 -> 2 with no 0 -> 2 arc (n**2 would add it via... nothing
        // here; use a chain where 2 also uses %o1 so n**2 adds 0 -> 2).
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
        ];
        let block = PreparedBlock::new(&insns);
        // Node 1 redefines %o1, so node 2's RAW parent is node 1 only; the
        // n**2 method would still compare 0 vs 2 and find nothing direct
        // (o1 was redefined) — instead craft WAW chain: 0 defs o1, 1 defs
        // o1 (WAW), 2 defs o1 (WAW with both under n**2, one under table).
        let dag_t = table_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert!(dag_t.arc_between(NodeId::new(0), NodeId::new(1)).is_some());
        assert!(dag_t.arc_between(NodeId::new(1), NodeId::new(2)).is_some());

        let waw = vec![
            Instruction::mov_imm(1, Reg::o(1)),
            Instruction::mov_imm(2, Reg::o(1)),
            Instruction::mov_imm(3, Reg::o(1)),
        ];
        let block = PreparedBlock::new(&waw);
        let n2 = crate::construct::n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let tb = table_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let tf = table_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(n2.arc_count(), 3, "n**2 keeps the transitive WAW arc");
        assert_eq!(tb.arc_count(), 2, "backward table building omits it");
        assert_eq!(tf.arc_count(), 2, "forward table building omits it");
    }

    #[test]
    fn forward_and_backward_have_same_reachability() {
        let mut pool = MemExprPool::new();
        let e1 = pool.intern("[%fp-8]");
        let e2 = pool.intern("[%fp-16]");
        let insns = vec![
            Instruction::load(
                Opcode::Ld,
                MemRef::base_offset(Reg::fp(), -8, e1),
                Reg::o(1),
            ),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::store(
                Opcode::St,
                Reg::o(2),
                MemRef::base_offset(Reg::fp(), -16, e2),
            ),
            Instruction::load(
                Opcode::Ld,
                MemRef::base_offset(Reg::fp(), -16, e2),
                Reg::o(3),
            ),
            Instruction::int3(Opcode::Add, Reg::o(3), Reg::o(1), Reg::o(4)),
            Instruction::store(
                Opcode::St,
                Reg::o(4),
                MemRef::base_offset(Reg::fp(), -8, e1),
            ),
        ];
        let block = PreparedBlock::new(&insns);
        let f = table_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let b = table_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        for i in 0..insns.len() {
            for j in i + 1..insns.len() {
                assert_eq!(
                    f.longest_path(NodeId::new(i), NodeId::new(j)).is_some(),
                    b.longest_path(NodeId::new(i), NodeId::new(j)).is_some(),
                    "reachability differs for {i}->{j}"
                );
            }
        }
    }

    #[test]
    fn same_register_def_and_use_makes_no_self_arc() {
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(0)),
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(0)),
        ];
        let block = PreparedBlock::new(&insns);
        for dag in [
            table_forward(&block, &model(), MemDepPolicy::SymbolicExpr),
            table_backward(&block, &model(), MemDepPolicy::SymbolicExpr),
        ] {
            assert!(dag.check_invariants().is_ok());
            // Single RAW arc 0 -> 1 (accumulator chain).
            assert_eq!(dag.arc_count(), 1);
            assert_eq!(
                dag.arc_between(NodeId::new(0), NodeId::new(1))
                    .unwrap()
                    .kind,
                DepKind::Raw
            );
        }
    }

    #[test]
    fn store_load_store_chain_through_memory() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = vec![
            Instruction::store(Opcode::St, Reg::o(0), MemRef::base_offset(Reg::fp(), -8, e)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::o(1)),
            Instruction::store(Opcode::St, Reg::o(2), MemRef::base_offset(Reg::fp(), -8, e)),
        ];
        let block = PreparedBlock::new(&insns);
        for dag in [
            table_forward(&block, &model(), MemDepPolicy::SymbolicExpr),
            table_backward(&block, &model(), MemDepPolicy::SymbolicExpr),
        ] {
            let a01 = dag.arc_between(NodeId::new(0), NodeId::new(1)).unwrap();
            assert_eq!(a01.kind, DepKind::Raw);
            let a12 = dag.arc_between(NodeId::new(1), NodeId::new(2)).unwrap();
            assert_eq!(a12.kind, DepKind::War);
            // WAW 0 -> 2 is omitted: it is covered through the load.
            assert!(dag.arc_between(NodeId::new(0), NodeId::new(2)).is_none());
        }
    }

    #[test]
    fn waw_arc_added_when_no_intervening_use() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = vec![
            Instruction::store(Opcode::St, Reg::o(0), MemRef::base_offset(Reg::fp(), -8, e)),
            Instruction::store(Opcode::St, Reg::o(1), MemRef::base_offset(Reg::fp(), -8, e)),
        ];
        let block = PreparedBlock::new(&insns);
        for dag in [
            table_forward(&block, &model(), MemDepPolicy::SymbolicExpr),
            table_backward(&block, &model(), MemDepPolicy::SymbolicExpr),
        ] {
            assert_eq!(
                dag.arc_between(NodeId::new(0), NodeId::new(1))
                    .unwrap()
                    .kind,
                DepKind::Waw
            );
        }
    }

    #[test]
    fn bitmap_variant_suppresses_covered_arcs() {
        // Use chain: 0 defs %o1; uses at 1 and 2 with 1 -> 2 dependence.
        // Backward table building adds 0->1 and 0->2 (both uses recorded);
        // the bitmap variant suppresses 0->2 when 0->1->2 already covers it
        // and the covering arcs are inserted first.
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(1), Reg::o(2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let plain = table_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let bitmap = table_backward_bitmap(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(plain.arc_count(), 3);
        assert_eq!(bitmap.arc_count(), 2);
        assert!(bitmap.arc_between(NodeId::new(0), NodeId::new(2)).is_none());
        // Reachability is still intact.
        assert!(bitmap
            .longest_path(NodeId::new(0), NodeId::new(2))
            .is_some());
    }

    /// Regression: the bitmap sink used to `split_at_mut(t)` and index
    /// `lo[f]` unconditionally, panicking on a self arc or any `f > t`
    /// call. The factored helper must tolerate both orientations.
    #[test]
    fn bitmap_absorb_handles_degenerate_and_reversed_arcs() {
        let mk = |n: usize| -> BitMatrix {
            let mut m = BitMatrix::new(n, n);
            for i in 0..n {
                m.set(i, i);
            }
            m
        };

        // Self arc: suppressed, no panic, map untouched.
        let mut desc = mk(3);
        assert!(!bitmap_absorb(&mut desc, 1, 1));
        assert_eq!(desc.row_count_ones(1), 1);

        // Reversed orientation (f > t): folds t's row into f's.
        let mut desc = mk(3);
        desc.set(0, 2); // 0 reaches 2
        assert!(bitmap_absorb(&mut desc, 1, 0));
        assert!(desc.contains(1, 0) && desc.contains(1, 2));

        // Second insertion of a now-covered arc is suppressed.
        assert!(!bitmap_absorb(&mut desc, 1, 2));

        // Forward orientation still works as before.
        let mut desc = mk(3);
        assert!(bitmap_absorb(&mut desc, 0, 2));
        assert!(desc.contains(0, 2));
        assert!(!bitmap_absorb(&mut desc, 0, 2));
    }

    /// Regression (seed suite): an all-`%f0` double-word block — pair
    /// defs and uses overlapping on the same architectural registers —
    /// must give the bitmap variant identical reachability to the plain
    /// backward pass, with no panic in the arc sink.
    #[test]
    fn bitmap_variant_survives_double_word_register_pairs() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = vec![
            Instruction::fp3(Opcode::FMulD, Reg::f(0), Reg::f(0), Reg::f(0)),
            Instruction::load(
                Opcode::LdDf,
                MemRef::base_offset(Reg::fp(), -8, e),
                Reg::f(0),
            ),
            Instruction::store(
                Opcode::StDf,
                Reg::f(0),
                MemRef::base_offset(Reg::fp(), -8, e),
            ),
        ];
        let block = PreparedBlock::new(&insns);
        for policy in MemDepPolicy::ALL {
            let plain = table_backward(&block, &model(), *policy);
            let bitmap = table_backward_bitmap(&block, &model(), *policy);
            assert!(bitmap.check_invariants().is_ok());
            assert!(bitmap.arc_count() <= plain.arc_count());
            let a = plain.descendant_maps();
            let b = bitmap.descendant_maps();
            for i in 0..insns.len() {
                assert!(
                    a[i].iter().eq(b[i].iter()),
                    "{}: reachability differs at node {i}",
                    policy.name()
                );
            }
        }
    }

    /// A warm (reused) [`Scratch`] arena must be observationally
    /// identical to fresh allocation: interleave blocks of different
    /// sizes and shapes through one arena and compare every arc against
    /// the fresh-run output. This is the property the parallel pipeline's
    /// bit-identity guarantee rests on.
    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let blocks: Vec<Vec<Instruction>> = vec![
            fig1(),
            vec![
                Instruction::store(Opcode::St, Reg::o(0), MemRef::base_offset(Reg::fp(), -8, e)),
                Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::o(1)),
                Instruction::store(Opcode::St, Reg::o(2), MemRef::base_offset(Reg::fp(), -8, e)),
                Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            ],
            vec![Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(0))],
            fig1(),
        ];
        let arcs = |d: &Dag| -> Vec<(usize, usize, DepKind, u32)> {
            d.arcs()
                .map(|a| (a.from.index(), a.to.index(), a.kind, a.latency))
                .collect()
        };
        let mut scratch = Scratch::new();
        // One DAG recycled through every call, as a worker's arena does.
        let mut dag = Dag::new(0);
        for round in 0..2 {
            for (bi, insns) in blocks.iter().enumerate() {
                let block = PreparedBlock::new(insns);
                for policy in MemDepPolicy::ALL {
                    table_forward_in(&block, &model(), *policy, &mut dag, &mut scratch);
                    assert_eq!(
                        arcs(&dag),
                        arcs(&table_forward(&block, &model(), *policy)),
                        "forward r{round} b{bi} {}",
                        policy.name()
                    );
                    table_backward_in(&block, &model(), *policy, &mut dag, &mut scratch);
                    assert_eq!(
                        arcs(&dag),
                        arcs(&table_backward(&block, &model(), *policy)),
                        "backward r{round} b{bi} {}",
                        policy.name()
                    );
                    table_backward_bitmap_in(&block, &model(), *policy, &mut dag, &mut scratch);
                    assert_eq!(
                        arcs(&dag),
                        arcs(&table_backward_bitmap(&block, &model(), *policy)),
                        "bitmap r{round} b{bi} {}",
                        policy.name()
                    );
                }
            }
        }
        assert!(
            scratch.stats.table_probes > 0,
            "probe counter must accumulate"
        );
    }

    #[test]
    fn single_resource_policy_serializes_distinct_expressions() {
        let mut pool = MemExprPool::new();
        let e1 = pool.intern("[%o0]");
        let e2 = pool.intern("[%o1]");
        let insns = vec![
            Instruction::store(Opcode::St, Reg::o(2), MemRef::base_offset(Reg::o(0), 0, e1)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(1), 0, e2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        for dag in [
            table_forward(&block, &model(), MemDepPolicy::SingleResource),
            table_backward(&block, &model(), MemDepPolicy::SingleResource),
        ] {
            assert_eq!(dag.arc_count(), 1);
            assert_eq!(
                dag.arc_between(NodeId::new(0), NodeId::new(1))
                    .unwrap()
                    .kind,
                DepKind::Raw
            );
        }
    }
}
