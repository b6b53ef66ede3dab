//! Branch delay slot filling.
//!
//! The paper's §1: control hazards "can also be handled in a special
//! manner, possibly by a delay slot scheduler". On a delayed-branch
//! machine (SPARC), the instruction after a control transfer executes
//! regardless; a delay slot scheduler moves a useful instruction from
//! above the branch into that slot instead of a `nop`.

use dagsched_core::{Dag, NodeId};
use dagsched_isa::{Instruction, Opcode};

use crate::schedule::Schedule;

/// Outcome of a delay-slot fill attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotFill {
    /// The instruction at this position of the schedule was moved into
    /// the slot (it now follows the branch in the emitted stream).
    Moved(NodeId),
    /// No legal candidate: emit a `nop` in the slot.
    Nop,
    /// The block does not end in a delayed control transfer.
    NoSlot,
}

/// The slot of an emitted order that stands for the delay-slot `nop`:
/// every other slot is an index into the block. Block indices stay far
/// below it (`dagsched_core::MAX_NODES`).
pub const NOP_SLOT: u32 = u32::MAX;

/// The instructions an emitted order stands for: `insns[slot]` for each
/// slot, and the delay-slot `nop` for [`NOP_SLOT`].
///
/// # Panics
///
/// Panics if a slot other than [`NOP_SLOT`] is out of range for `insns`.
pub fn emit_order<'a>(
    order: &'a [u32],
    insns: &'a [Instruction],
) -> impl Iterator<Item = Instruction> + 'a {
    order.iter().map(move |&slot| match slot {
        NOP_SLOT => Instruction::nop(),
        i => insns[i as usize],
    })
}

/// The emitted order of a scheduled block on a delayed-branch machine,
/// as slots ([`emit_order`]): the scheduled order with the delay slot
/// after the terminator filled — by hoisting a legal instruction from
/// the body when possible, by a `nop` ([`NOP_SLOT`]) otherwise.
///
/// A body instruction may occupy the slot when:
///
/// * it is not itself a control transfer or window instruction,
/// * the branch does not depend on it (no DAG path from it to the
///   terminator) — the condition and target must be computed before the
///   branch issues,
/// * nothing after it in the schedule depends on it; since the slot
///   executes *after* the branch issues, only an instruction that is a
///   DAG leaf can move without violating arcs. (Arcs out of the slot
///   instruction into the next block are the *next* block's inherited
///   latencies — see the carry analysis.)
pub fn fill_branch_delay_slot(
    schedule: &Schedule,
    dag: &Dag,
    insns: &[Instruction],
) -> (Vec<u32>, SlotFill) {
    let slot = |n: &NodeId| n.index() as u32;
    let Some(&term) = schedule.order.last() else {
        return (Vec::new(), SlotFill::NoSlot);
    };
    if !insns[term.index()].opcode.has_delay_slot() {
        return (schedule.order.iter().map(slot).collect(), SlotFill::NoSlot);
    }
    // Search the body bottom-up for the last legal candidate: a leaf in
    // the DAG (nothing depends on it inside the block) that is not a
    // control transfer.
    let mut candidate: Option<usize> = None;
    for pos in (0..schedule.order.len() - 1).rev() {
        let node = schedule.order[pos];
        let insn = &insns[node.index()];
        if insn.opcode.ends_block() || insn.opcode == Opcode::Nop {
            continue;
        }
        if dag.num_children(node) == 0 {
            candidate = Some(pos);
            break;
        }
    }
    let mut order: Vec<u32> = Vec::with_capacity(schedule.order.len() + 1);
    match candidate {
        Some(pos) => {
            let node = schedule.order[pos];
            order.extend(schedule.order[..pos].iter().map(slot));
            order.extend(schedule.order[pos + 1..].iter().map(slot));
            order.push(slot(&node));
            (order, SlotFill::Moved(node))
        }
        None => {
            order.extend(schedule.order.iter().map(slot));
            order.push(NOP_SLOT);
            (order, SlotFill::Nop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy};
    use dagsched_isa::{MachineModel, Reg};

    fn schedule_of(insns: &[Instruction], model: &MachineModel) -> (Dag, Schedule) {
        let dag = build_dag(
            insns,
            model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, insns, model, false);
        let sched = crate::framework::ListScheduler {
            direction: crate::framework::SchedDirection::Forward,
            gating: crate::framework::Gating::AllReady,
            strategy: crate::selector::SelectStrategy::Winnowing(vec![
                crate::selector::Criterion::max(crate::selector::HeurKey::MaxDelayToLeaf),
            ]),
            pin_terminator: true,
            birthing_boost: 0,
        }
        .run(&dag, insns, model, &heur);
        (dag, sched)
    }

    #[test]
    fn fills_with_independent_leaf() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::cmp(Reg::o(0), Reg::o(1)),
            // Independent leaf: nothing reads %o5.
            Instruction::int3(Opcode::Add, Reg::o(2), Reg::o(3), Reg::o(5)),
            Instruction::branch(Opcode::Bicc),
        ];
        let (dag, sched) = schedule_of(&insns, &model);
        let (order, fill) = fill_branch_delay_slot(&sched, &dag, &insns);
        let stream: Vec<Instruction> = emit_order(&order, &insns).collect();
        assert_eq!(fill, SlotFill::Moved(NodeId::new(1)));
        assert_eq!(order, [0, 2, 1]);
        assert_eq!(stream.len(), 3, "no nop inserted");
        assert_eq!(stream[1].opcode, Opcode::Bicc);
        assert_eq!(stream[2].opcode, Opcode::Add, "the add rides the slot");
    }

    #[test]
    fn branch_dependence_cannot_ride_the_slot() {
        let model = MachineModel::sparc2();
        // The cmp feeds the branch: it must stay above; no other body
        // instruction exists, so a nop fills the slot.
        let insns = vec![
            Instruction::cmp(Reg::o(0), Reg::o(1)),
            Instruction::branch(Opcode::Bicc),
        ];
        let (dag, sched) = schedule_of(&insns, &model);
        let (order, fill) = fill_branch_delay_slot(&sched, &dag, &insns);
        let stream: Vec<Instruction> = emit_order(&order, &insns).collect();
        assert_eq!(fill, SlotFill::Nop);
        assert_eq!(order, [0, 1, NOP_SLOT]);
        assert_eq!(stream.len(), 3);
        assert_eq!(stream[2].opcode, Opcode::Nop);
    }

    #[test]
    fn value_producers_stay_above_their_consumers() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::cmp(Reg::o(0), Reg::o(1)),
            // Producer of %o5 …
            Instruction::int3(Opcode::Add, Reg::o(2), Reg::o(3), Reg::o(5)),
            // … consumed here, so the producer is not a leaf; the consumer
            // is, and rides the slot instead.
            Instruction::int_imm(Opcode::Add, Reg::o(5), 1, Reg::o(4)),
            Instruction::branch(Opcode::Bicc),
        ];
        let (dag, sched) = schedule_of(&insns, &model);
        let (order, fill) = fill_branch_delay_slot(&sched, &dag, &insns);
        let stream: Vec<Instruction> = emit_order(&order, &insns).collect();
        assert_eq!(fill, SlotFill::Moved(NodeId::new(2)));
        let last = stream.last().unwrap();
        assert_eq!(last.rs, vec![Reg::o(5)]);
    }

    #[test]
    fn non_delayed_terminator_has_no_slot() {
        let model = MachineModel::sparc2();
        let insns = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::new(Opcode::Save),
        ];
        let (dag, sched) = schedule_of(&insns, &model);
        let (order, fill) = fill_branch_delay_slot(&sched, &dag, &insns);
        let stream: Vec<Instruction> = emit_order(&order, &insns).collect();
        assert_eq!(fill, SlotFill::NoSlot);
        assert_eq!(stream.len(), 2);
    }
}
