//! Landskov et al. transitive-arc-avoiding `n**2` construction.

use dagsched_isa::MachineModel;

use crate::construct::n2::{all_pairs, strongest_dep};
use crate::dag::{Dag, NodeId};
use crate::memdep::MemDepPolicy;
use crate::prepare::PreparedBlock;
use crate::scratch::{reset_matrix, Scratch};

/// Forward `n**2` construction with the Landskov et al. modification:
/// "examines leaves first and prunes away any ancestors whenever a
/// dependency is observed" (paper §2), preventing **all** transitive arcs.
///
/// For each new node the previous nodes are scanned *most-recent-first*
/// (the most recent dependent nodes are leaves of the partial DAG). A
/// per-node ancestor bitmap is maintained; once a dependence to `j` is
/// recorded, `j` and all of `j`'s ancestors are covered and any direct
/// dependence on them is pruned.
///
/// The paper recommends **against** this variant (finding 3): some
/// transitive arcs carry timing information that the remaining short-delay
/// path (e.g. a 1-cycle WAR arc) does not, so heuristics such as earliest
/// execution time become inaccurate. See `tests/figure1.rs` for the
/// demonstration.
pub fn n2_forward_landskov(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
) -> Dag {
    let mut dag = Dag::new(0);
    n2_forward_landskov_in(block, model, policy, &mut dag, &mut Scratch::new());
    dag
}

/// [`n2_forward_landskov`] into `dag` (reset to the block's nodes
/// first) against a reusable [`Scratch`] arena: the ancestor bitmaps are
/// rows of the arena's bit matrix; `stats.comparisons` counts the
/// pairwise comparisons actually made (a mask test that rules the pair
/// out included) and `stats.arcs_suppressed` the pair comparisons pruned
/// away (an upper bound on suppressed arcs — a pruned pair is never
/// examined, so whether it would have carried a dependence is unknown by
/// design).
pub(crate) fn n2_forward_landskov_in(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    dag: &mut Dag,
    scratch: &mut Scratch,
) {
    let n = block.len();
    dag.reset(n);
    let ancestors = reset_matrix(&mut scratch.matrix, n, false);
    let mut comparisons = 0u64;
    // Keeping the pairwise kernel out-of-line keeps the candidate scan
    // below a tight word loop; inlining it there measurably pessimizes
    // the scan for a call that only runs on the unpruned minority of
    // pairs.
    #[inline(never)]
    fn dep_kernel(
        block: &PreparedBlock<'_>,
        model: &MachineModel,
        policy: MemDepPolicy,
        j: usize,
        i: usize,
    ) -> Option<(dagsched_isa::DepKind, u32)> {
        strongest_dep(block, model, policy, j, i)
    }
    for i in 0..n {
        let later = block.masks[i];
        // Walk the *zero* bits of ancestor row `i` — the candidate
        // pairs — one word at a time, highest j first. Pruned pairs are
        // skipped 64 per word load instead of one probe each, which is
        // what keeps the scan sub-quadratic in practice: on the
        // 11 750-instruction fpppp block ~96% of the 69M ordered pairs
        // are pruned and never individually touched. A found dependence
        // updates row `i` (union of j's ancestors plus j itself), so
        // the remaining candidates of the current word are re-masked
        // against the refreshed word before the scan continues.
        let row_words = i.div_ceil(64);
        for wi in (0..row_words).rev() {
            let mut zeros = !ancestors.row_word(i, wi);
            if wi == row_words - 1 {
                let top = i - wi * 64;
                if top < 64 {
                    zeros &= (1u64 << top) - 1; // mask off bits >= i
                }
            }
            while zeros != 0 {
                let b = 63 - zeros.leading_zeros() as usize;
                zeros &= !(1u64 << b);
                let j = wi * 64 + b;
                comparisons += 1;
                if !block.masks[j].may_depend(later) {
                    continue;
                }
                if let Some((kind, lat)) = dep_kernel(block, model, policy, j, i) {
                    // Each (j, i) pair is examined at most once per block.
                    dag.push_arc_distinct(NodeId::new(j), NodeId::new(i), kind, lat);
                    ancestors.or_row_into(j, i);
                    ancestors.set(i, j);
                    zeros &= !ancestors.row_word(i, wi);
                }
            }
        }
    }
    dag.build_adjacency();
    // A pair is either examined (a comparison) or pruned; counting only
    // the examined ones keeps the hot scan free of a second counter.
    scratch.stats.comparisons += comparisons;
    scratch.stats.arcs_suppressed += all_pairs(n) - comparisons;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::n2::n2_forward;
    use dagsched_isa::{DepKind, Instruction, Opcode, Reg};

    fn model() -> MachineModel {
        MachineModel::sparc2()
    }

    #[test]
    fn prunes_transitive_raw_chain() {
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(1), Reg::o(2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let full = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let pruned = n2_forward_landskov(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(full.arc_count(), 3);
        assert_eq!(pruned.arc_count(), 2);
        assert!(pruned.arc_between(NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn drops_figure1_timing_arc() {
        // The paper's Figure 1: the pruned DAG loses the 20-cycle RAW arc
        // because the WAR(1)+RAW(4) path already orders the pair — this is
        // exactly why the paper recommends against the variant.
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
        ];
        let block = PreparedBlock::new(&insns);
        let pruned = n2_forward_landskov(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert!(pruned.arc_between(NodeId::new(0), NodeId::new(2)).is_none());
        // The ordering is still covered transitively…
        assert!(pruned
            .longest_path(NodeId::new(0), NodeId::new(2))
            .is_some());
        // …but the path latency (1 + 4) understates the true 20-cycle delay.
        assert_eq!(pruned.longest_path(NodeId::new(0), NodeId::new(2)), Some(5));
    }

    #[test]
    fn reachability_is_preserved() {
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::int_imm(Opcode::Add, Reg::o(2), 1, Reg::o(1)),
            Instruction::int3(Opcode::Add, Reg::o(1), Reg::o(2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let full = n2_forward(&block, &model(), MemDepPolicy::SymbolicExpr);
        let pruned = n2_forward_landskov(&block, &model(), MemDepPolicy::SymbolicExpr);
        for i in 0..insns.len() {
            for j in i + 1..insns.len() {
                let a = full.longest_path(NodeId::new(i), NodeId::new(j)).is_some();
                let b = pruned
                    .longest_path(NodeId::new(i), NodeId::new(j))
                    .is_some();
                assert_eq!(a, b, "reachability differs for {i}->{j}");
            }
        }
        assert!(pruned.arc_count() <= full.arc_count());
    }

    #[test]
    fn diamond_keeps_both_parents() {
        // 0 defs %o1, 1 defs %o2 (independent), 2 uses both: both arcs stay.
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(0), 2, Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(1), Reg::o(2), Reg::o(3)),
        ];
        let block = PreparedBlock::new(&insns);
        let pruned = n2_forward_landskov(&block, &model(), MemDepPolicy::SymbolicExpr);
        assert_eq!(pruned.arc_count(), 2);
        assert_eq!(
            pruned
                .arc_between(NodeId::new(0), NodeId::new(2))
                .unwrap()
                .kind,
            DepKind::Raw
        );
        assert_eq!(
            pruned
                .arc_between(NodeId::new(1), NodeId::new(2))
                .unwrap()
                .kind,
            DepKind::Raw
        );
    }
}
