//! Operand commutation for asymmetric bypass paths.
//!
//! The paper (§2) describes machines where "an RAW delay for a given
//! destination register to an instruction using that register as its
//! first source operand will differ from the RAW delay to another
//! instruction using that same register but as its second source operand"
//! (the IBM RS/6000). On such machines a scheduler-adjacent peephole pays
//! off: for *commutative* operations, place the late-arriving value in
//! the operand slot with the cheaper bypass.

use dagsched_core::{Dag, NodeId};
use dagsched_isa::{Instruction, MachineModel, Opcode, Resource, Sources};

/// Whether `op` computes the same result with its register source
/// operands swapped.
pub fn is_commutative(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Add
            | Opcode::AddCc
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Umul
            | Opcode::Smul
            | Opcode::FAddS
            | Opcode::FAddD
            | Opcode::FMulS
            | Opcode::FMulD
    )
}

/// Swap commutative operands wherever that lowers the RAW delay from the
/// operand's *latest* producer in the block. Returns the rewritten stream
/// and how many instructions were commuted.
///
/// Only instructions with exactly two register sources and no immediate
/// are considered, and a swap is applied only when it strictly lowers the
/// maximum producer-constrained ready time of the instruction.
pub fn commute_for_bypass(
    insns: &[Instruction],
    dag: &Dag,
    model: &MachineModel,
) -> (Vec<Instruction>, usize) {
    let mut out: Vec<Instruction> = insns.to_vec();
    let mut swapped = 0usize;
    // The index doubles as the DAG node id, and the body both reads and
    // mutates `out[i]`.
    #[allow(clippy::needless_range_loop)]
    for i in 0..out.len() {
        let insn = &out[i];
        if !is_commutative(insn.opcode) || insn.rs.len() != 2 || insn.imm.is_some() {
            continue;
        }
        if insn.rs[0] == insn.rs[1] {
            continue;
        }
        // Ready-time contribution of each operand under both orderings,
        // using each operand's latest producer among the DAG parents.
        let producer_of = |reg: dagsched_isa::Reg| -> Option<usize> {
            dag.in_arcs(NodeId::new(i))
                .filter(|arc| insns[arc.from.index()].defs().contains(&Resource::Reg(reg)))
                .map(|arc| arc.from.index())
                .max()
        };
        let (a, b) = (insn.rs[0], insn.rs[1]);
        let cost = |first: dagsched_isa::Reg, second: dagsched_isa::Reg| -> u64 {
            let mut trial = out[i];
            trial.rs = Sources::from_slice(&[first, second]);
            let mut worst = 0u64;
            for (reg, _slot) in [(first, 0usize), (second, 1usize)] {
                if let Some(p) = producer_of(reg) {
                    // Producer depth proxy: its own position; what matters
                    // for the comparison is only the latency delta.
                    let lat = model.raw_latency(&insns[p], &trial, Resource::Reg(reg)) as u64;
                    worst = worst.max(p as u64 + lat);
                }
            }
            worst
        };
        if cost(b, a) < cost(a, b) {
            out[i].rs.swap(0, 1);
            swapped += 1;
        }
    }
    (out, swapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy};
    use dagsched_isa::Reg;

    #[test]
    fn commutative_classification() {
        assert!(is_commutative(Opcode::Add));
        assert!(is_commutative(Opcode::FMulD));
        assert!(!is_commutative(Opcode::Sub));
        assert!(!is_commutative(Opcode::FDivD));
        assert!(!is_commutative(Opcode::Sll));
    }

    #[test]
    fn late_value_moves_to_the_cheap_slot() {
        let model = MachineModel::rs6000_like(); // +1 cycle on second operand
                                                 // %f4 arrives late (divide); it sits in the penalized second slot.
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(4), Reg::f(8)),
        ];
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let before = dag
            .arc_between(dagsched_core::NodeId::new(0), dagsched_core::NodeId::new(1))
            .unwrap()
            .latency;
        assert_eq!(before, 21, "second-operand penalty applies");
        let (rewritten, n) = commute_for_bypass(&insns, &dag, &model);
        assert_eq!(n, 1);
        assert_eq!(rewritten[1].rs, vec![Reg::f(4), Reg::f(6)]);
        // Rebuilding the DAG on the rewritten stream drops the penalty.
        let dag2 = build_dag(
            &rewritten,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let after = dag2
            .arc_between(dagsched_core::NodeId::new(0), dagsched_core::NodeId::new(1))
            .unwrap()
            .latency;
        assert_eq!(after, 20);
    }

    #[test]
    fn already_optimal_operands_stay_put() {
        let model = MachineModel::rs6000_like();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
        ];
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let (rewritten, n) = commute_for_bypass(&insns, &dag, &model);
        assert_eq!(n, 0);
        assert_eq!(rewritten[1].rs, vec![Reg::f(4), Reg::f(6)]);
    }

    #[test]
    fn non_commutative_and_symmetric_machines_untouched() {
        // On sparc2 there is no second-operand penalty: nothing to gain.
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(4), Reg::f(8)),
            Instruction::fp3(Opcode::FSubD, Reg::f(6), Reg::f(4), Reg::f(10)),
        ];
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let (rewritten, n) = commute_for_bypass(&insns, &dag, &model);
        assert_eq!(n, 0);
        assert_eq!(rewritten, insns);
    }

    #[test]
    fn semantics_are_preserved_by_commutation() {
        use dagsched_isa::MachineModel;
        let model = MachineModel::rs6000_like();
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(4), Reg::f(8)),
            Instruction::fp3(Opcode::FMulD, Reg::f(8), Reg::f(4), Reg::f(10)),
        ];
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let (rewritten, _) = commute_for_bypass(&insns, &dag, &model);
        // FP addition/multiplication commute exactly in IEEE semantics
        // (same two operands, same rounding), so results are bit-equal.
        // Verified via the interpreter in the workspace semantic tests;
        // here check structure: same opcode and operand *sets*.
        for (a, b) in insns.iter().zip(&rewritten) {
            assert_eq!(a.opcode, b.opcode);
            let mut sa = a.rs;
            let mut sb = b.rs;
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb);
        }
    }
}
