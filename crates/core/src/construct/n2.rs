//! Compare-against-all (`n**2`) forward DAG construction.

use dagsched_isa::{DepKind, MachineModel, MemAccessKind, Resource};

use crate::dag::{Dag, NodeId};
use crate::memdep::MemDepPolicy;
use crate::prepare::{mask_regs, PreparedBlock, REG_MASK_BITS};
use crate::scratch::PhaseStats;

/// The strongest dependence (if any) from instruction `j` to a later
/// instruction `i` of the prepared block: maximum arc latency over all
/// register and memory dependencies between the pair, ties broken
/// RAW > WAW > WAR.
///
/// The registers the pair shares come from the block's
/// [`ResourceMasks`](crate::ResourceMasks): the set bits of
/// `defs(j) ∩ uses(i)` (RAW), `defs(j) ∩ defs(i)` (WAW) and
/// `uses(j) ∩ defs(i)` (WAR). The result does not depend on the order
/// they are visited in: the maximum latency wins and equal latencies go
/// to the stronger kind.
///
/// This is the pairwise kernel shared by [`n2_forward`] and the Landskov
/// variant, which call it only for pairs whose masks intersect; it is
/// also the ground-truth dependence test used by the verification
/// utilities, which call it for every pair.
pub fn strongest_dep(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    j: usize,
    i: usize,
) -> Option<(DepKind, u32)> {
    debug_assert!(j < i);
    let mut best: Option<(DepKind, u32)> = None;
    let mut consider = |kind: DepKind, lat: u32| {
        let better = match best {
            None => true,
            Some((bk, bl)) => lat > bl || (lat == bl && rank(kind) > rank(bk)),
        };
        if better {
            best = Some((kind, lat));
        }
    };

    let (mj, mi) = (block.masks[j], block.masks[i]);
    // RAW: j defines a register that i uses.
    for r in mask_regs(mj.defs & mi.uses & REG_MASK_BITS) {
        consider(DepKind::Raw, block.raw_reg_latency(model, j, i, r));
    }
    // WAW: j and i define the same register.
    for r in mask_regs(mj.defs & mi.defs & REG_MASK_BITS) {
        consider(
            DepKind::Waw,
            block.waw_latency(model, j, i, Resource::Reg(r)),
        );
    }
    // WAR: j uses a register that i defines.
    for r in mask_regs(mj.uses & mi.defs & REG_MASK_BITS) {
        consider(
            DepKind::War,
            block.war_latency(model, j, i, Resource::Reg(r)),
        );
    }
    // Memory dependence under the disambiguation policy.
    if let (Some(a), Some(b)) = (block.mem_ops[j], block.mem_ops[i]) {
        if policy.alias(&a.key, &b.key) {
            match (a.kind, b.kind) {
                (MemAccessKind::Store, MemAccessKind::Load) => {
                    consider(DepKind::Raw, block.raw_mem_latency(model, j, i));
                }
                (MemAccessKind::Store, MemAccessKind::Store) => {
                    consider(
                        DepKind::Waw,
                        block.waw_latency(model, j, i, Resource::Mem(a.key.expr)),
                    );
                }
                (MemAccessKind::Load, MemAccessKind::Store) => {
                    consider(
                        DepKind::War,
                        block.war_latency(model, j, i, Resource::Mem(a.key.expr)),
                    );
                }
                (MemAccessKind::Load, MemAccessKind::Load) => {}
            }
        }
    }
    best
}

fn rank(kind: DepKind) -> u8 {
    match kind {
        DepKind::Raw => 2,
        DepKind::Waw => 1,
        DepKind::War => 0,
    }
}

/// Compare-against-all forward DAG construction (Warren-like).
///
/// Each new node is compared against *all* previous nodes, producing an
/// arc for every dependent pair — including every transitive arc. This is
/// the `O(n**2)` baseline of the paper's Table 4; its arc counts blow up
/// on large basic blocks (the paper recommends an instruction window of
/// 300–400 instructions to keep it practical).
pub fn n2_forward(block: &PreparedBlock<'_>, model: &MachineModel, policy: MemDepPolicy) -> Dag {
    let mut dag = Dag::new(0);
    n2_forward_in(block, model, policy, &mut dag, &mut PhaseStats::default());
    dag
}

/// Every ordered pair of an `n`-instruction block: what the
/// compare-against-all constructors count as comparisons. A pair whose
/// [`ResourceMasks`](crate::ResourceMasks) rule a dependence out is
/// still a comparison — the mask test is how the comparison is made —
/// so the paper's Table 4 counts do not depend on it.
pub(super) fn all_pairs(n: usize) -> u64 {
    (n as u64) * (n.saturating_sub(1) as u64) / 2
}

/// [`n2_forward`] into `dag` (reset to the block's nodes first), with
/// pairwise-comparison counting into `stats`.
pub(crate) fn n2_forward_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    stats: &mut PhaseStats,
) {
    let n = block.len();
    dag.reset(n);
    for i in 0..n {
        let later = block.masks[i];
        for j in 0..i {
            if !block.masks[j].may_depend(later) {
                continue;
            }
            if let Some((kind, lat)) = strongest_dep(block, model, policy, j, i) {
                // Each ordered pair is compared exactly once, so the arc
                // cannot duplicate an existing one.
                dag.push_arc_distinct(NodeId::new(j), NodeId::new(i), kind, lat);
            }
        }
    }
    dag.build_adjacency();
    stats.comparisons += all_pairs(n);
}

/// Compare-against-all DAG construction as a backward pass (Gibbons &
/// Muchnick). The pairwise comparison is symmetric, so this produces the
/// same arc set as [`n2_forward`]; only the scan order differs (each node
/// is compared against all *later* nodes while walking the block
/// last-to-first).
pub fn n2_backward(block: &PreparedBlock<'_>, model: &MachineModel, policy: MemDepPolicy) -> Dag {
    let mut dag = Dag::new(0);
    n2_backward_in(block, model, policy, &mut dag, &mut PhaseStats::default());
    dag
}

/// [`n2_backward`] into `dag` (reset to the block's nodes first), with
/// pairwise-comparison counting into `stats`.
pub(crate) fn n2_backward_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    stats: &mut PhaseStats,
) {
    let n = block.len();
    dag.reset(n);
    for i in (0..n).rev() {
        let earlier = block.masks[i];
        for j in i + 1..n {
            if !earlier.may_depend(block.masks[j]) {
                continue;
            }
            if let Some((kind, lat)) = strongest_dep(block, model, policy, i, j) {
                dag.push_arc_distinct(NodeId::new(i), NodeId::new(j), kind, lat);
            }
        }
    }
    dag.build_adjacency();
    stats.comparisons += all_pairs(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{Instruction, MemExprPool, MemRef, Opcode, Reg};

    fn model() -> MachineModel {
        MachineModel::sparc2()
    }

    #[test]
    fn raw_chain_gets_all_transitive_arcs() {
        // 0 defs %o1; 1 uses %o1 defs %o2; 2 uses %o2 and %o1.
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(1), Reg::o(2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let dag = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(dag.arc_count(), 3);
        assert!(dag.arc_between(NodeId::new(0), NodeId::new(2)).is_some());
    }

    #[test]
    fn figure1_block() {
        // 1: DIVF R1,R2,R3  2: ADDF R4,R5,R1  3: ADDF R1,R3,R6
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
        ];
        let block = PreparedBlock::new(&insns);
        let dag = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let a01 = dag.arc_between(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!((a01.kind, a01.latency), (DepKind::War, 1));
        let a12 = dag.arc_between(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!((a12.kind, a12.latency), (DepKind::Raw, 4));
        let a02 = dag.arc_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!((a02.kind, a02.latency), (DepKind::Raw, 20));
    }

    #[test]
    fn strongest_dep_prefers_higher_latency() {
        // j defines %f3 (20-cycle RAW to i) and also WAR through %f1:
        // strongest must be the RAW.
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(3), Reg::f(4), Reg::f(1)),
        ];
        let block = PreparedBlock::new(&insns);
        let dep = strongest_dep(&block, &model(), MemDepPolicy::SymbolicExpr, 0, 1).unwrap();
        assert_eq!(dep, (DepKind::Raw, 20));
    }

    #[test]
    fn backward_n2_produces_identical_arcs() {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
        ];
        let block = PreparedBlock::new(&insns);
        let fwd = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let bwd = n2_backward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(fwd.arc_count(), bwd.arc_count());
        for arc in fwd.arcs() {
            let other = bwd.arc_between(arc.from, arc.to).expect("missing arc");
            assert_eq!((other.kind, other.latency), (arc.kind, arc.latency));
        }
    }

    #[test]
    fn independent_instructions_have_no_arc() {
        let insns = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::int3(Opcode::Sub, Reg::o(3), Reg::o(4), Reg::o(5)),
        ];
        let block = PreparedBlock::new(&insns);
        let dag = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(dag.arc_count(), 0);
        assert_eq!(dag.roots().len(), 2);
    }

    #[test]
    fn loads_do_not_conflict_with_loads() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let insns = vec![
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(0), 0, e), Reg::o(1)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(0), 0, e), Reg::o(2)),
        ];
        let block = PreparedBlock::new(&insns);
        let dag = n2_forward(&block, &model(), MemDepPolicy::SingleResource);
        assert_eq!(dag.arc_count(), 0);
    }

    #[test]
    fn store_load_raw_under_single_resource() {
        let mut pool = MemExprPool::new();
        let e1 = pool.intern("[%o0]");
        let e2 = pool.intern("[%o1]");
        let insns = vec![
            Instruction::store(Opcode::St, Reg::o(2), MemRef::base_offset(Reg::o(0), 0, e1)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(1), 0, e2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let serialized = n2_forward(&block, &model(), MemDepPolicy::SingleResource);
        assert_eq!(
            serialized
                .arc_between(NodeId::new(0), NodeId::new(1))
                .unwrap()
                .kind,
            DepKind::Raw
        );
        // Under the optimistic symbolic-expression policy they are disjoint.
        let optimistic = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(optimistic.arc_count(), 0);
    }
}
