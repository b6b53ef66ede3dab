//! Per-block preparation shared by all construction algorithms.

use dagsched_isa::{
    InlineList, Instruction, MachineModel, MemAccessKind, Reg, Resource, MAX_DEFS, MAX_USES,
};

use crate::dag::{ConstructError, MAX_NODES};
use crate::memdep::{MemKey, MemOp};

/// Dense index of a register resource (`0..REG_RESOURCE_COUNT`), used by
/// the table-building algorithms' definition/use tables.
pub const REG_RESOURCE_COUNT: usize = 67;

/// Map a register to its dense resource index.
pub fn reg_resource_id(r: Reg) -> usize {
    match r {
        Reg::Int(n) => n as usize,
        Reg::Fp(n) => 32 + n as usize,
        Reg::Icc => 64,
        Reg::Fcc => 65,
        Reg::Y => 66,
    }
}

/// The register with dense resource index `id`: the inverse of
/// [`reg_resource_id`].
///
/// # Panics
///
/// Panics if `id >= REG_RESOURCE_COUNT`.
pub(crate) fn reg_of_resource_id(id: usize) -> Reg {
    match id {
        0..=31 => Reg::Int(id as u8),
        32..=63 => Reg::Fp((id - 32) as u8),
        64 => Reg::Icc,
        65 => Reg::Fcc,
        66 => Reg::Y,
        _ => panic!("resource id {id} names no register"),
    }
}

/// The register bits of a [`ResourceMasks`] mask: every bit below
/// [`REG_RESOURCE_COUNT`], memory excluded.
pub(crate) const REG_MASK_BITS: u128 = (1 << REG_RESOURCE_COUNT) - 1;

/// The integer and floating point register bits of a [`ResourceMasks`]
/// mask (resource ids 0–63): the registers that count toward register
/// pressure.
pub(crate) const PRESSURE_MASK_BITS: u128 = (1 << 64) - 1;

/// The registers whose bits are set in `mask`, in resource-id order.
/// Bits at or above [`REG_RESOURCE_COUNT`] must be clear (mask with
/// [`REG_MASK_BITS`] first).
pub(crate) fn mask_regs(mut mask: u128) -> impl Iterator<Item = Reg> {
    debug_assert_eq!(mask & !REG_MASK_BITS, 0, "a non-register bit is set");
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let id = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(reg_of_resource_id(id))
    })
}

/// An instruction's register definitions, deduplicated.
pub type RegDefs = InlineList<Reg, MAX_DEFS>;

/// An instruction's register uses, deduplicated, operand order kept.
pub type RegUses = InlineList<Reg, MAX_USES>;

/// The bit of a [`ResourceMasks`] that stands for memory, above the
/// [`REG_RESOURCE_COUNT`] register bits.
pub const MEM_MASK_BIT: u32 = 127;

/// An instruction's definitions and uses as bit masks: bit
/// [`reg_resource_id`]`(r)` for each register in its deduplicated
/// definition or use list, and [`MEM_MASK_BIT`] for memory — a store
/// defines it, a load uses it.
///
/// The compare-against-all constructors test a pair with
/// [`ResourceMasks::may_depend`] before they run the full pairwise
/// dependence test, which walks the set bits of the masks'
/// intersections; the register-pressure heuristics are popcounts over
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceMasks {
    /// Resources defined.
    pub defs: u128,
    /// Resources used.
    pub uses: u128,
}

impl ResourceMasks {
    /// Whether an instruction with these masks can carry a dependence to
    /// a *later* instruction with masks `later`: a resource defined by
    /// the first and used or defined by the second (RAW, WAW), or used by
    /// the first and defined by the second (WAR).
    ///
    /// A necessary condition for `strongest_dep` to find a dependence,
    /// never a sufficient one: memory is a single bit, so two stores or a
    /// store and a load intersect whatever the disambiguation policy
    /// decides about their addresses. Two loads never intersect, and
    /// `strongest_dep` never links them either.
    #[inline]
    pub fn may_depend(self, later: ResourceMasks) -> bool {
        (self.defs & (later.uses | later.defs)) | (self.uses & later.defs) != 0
    }

    /// The masks of one instruction, exactly as [`PreparedBlock`]
    /// records them for a well-formed instruction (the memory bit follows
    /// the opcode's access kind).
    pub fn of(insn: &Instruction) -> ResourceMasks {
        let (_, _, mut mask) = register_operands(insn);
        match insn.opcode.mem_access() {
            Some(MemAccessKind::Store) => mask.defs |= 1 << MEM_MASK_BIT,
            Some(MemAccessKind::Load) => mask.uses |= 1 << MEM_MASK_BIT,
            None => {}
        }
        mask
    }
}

/// An instruction's register definitions and uses, deduplicated, and
/// their register bits.
fn register_operands(insn: &Instruction) -> (RegDefs, RegUses, ResourceMasks) {
    let mut mask = ResourceMasks::default();
    let mut defs = RegDefs::new();
    for res in insn.defs() {
        if let Resource::Reg(r) = res {
            if !defs.contains(&r) {
                defs.push(r);
                mask.defs |= 1 << reg_resource_id(r);
            }
        }
    }
    let mut uses = RegUses::new();
    for res in insn.uses() {
        if let Resource::Reg(r) = res {
            if !uses.contains(&r) {
                uses.push(r);
                mask.uses |= 1 << reg_resource_id(r);
            }
        }
    }
    (defs, uses, mask)
}

/// A basic block preprocessed for DAG construction: per-instruction
/// register definition/use lists (deduplicated, `%g0` writes removed),
/// the memory operation, if any, and the definition/use masks.
///
/// Both the compare-against-all and the table-building algorithms consume
/// this; building it is the common "first pass over the instructions".
/// Each per-instruction list is stored inline, so preparing a block
/// fills four vectors, not two per instruction — and none at all once a
/// [`Scratch`](crate::Scratch) recycles them ([`PreparedBlock::try_new_in`]).
#[derive(Debug)]
pub struct PreparedBlock<'a> {
    /// The block's instructions.
    pub insns: &'a [Instruction],
    /// Register definitions per instruction (deduplicated).
    pub reg_defs: Vec<RegDefs>,
    /// Register uses per instruction (deduplicated, operand order kept).
    pub reg_uses: Vec<RegUses>,
    /// Memory operation per instruction.
    pub mem_ops: Vec<Option<MemOp>>,
    /// Definition/use masks per instruction.
    pub masks: Vec<ResourceMasks>,
}

/// The per-instruction vectors of a [`PreparedBlock`], detached from the
/// block they described: storage a [`Scratch`](crate::Scratch) keeps
/// from one block to the next.
#[derive(Debug, Default)]
pub struct PreparedLists {
    reg_defs: Vec<RegDefs>,
    reg_uses: Vec<RegUses>,
    mem_ops: Vec<Option<MemOp>>,
    masks: Vec<ResourceMasks>,
}

impl PreparedLists {
    /// Bytes of vector storage held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.reg_defs.capacity() * size_of::<RegDefs>()
            + self.reg_uses.capacity() * size_of::<RegUses>()
            + self.mem_ops.capacity() * size_of::<Option<MemOp>>()
            + self.masks.capacity() * size_of::<ResourceMasks>()
    }
}

impl<'a> PreparedBlock<'a> {
    /// Preprocess a block.
    ///
    /// # Panics
    ///
    /// Panics on input [`PreparedBlock::try_new`] rejects: a block above
    /// [`MAX_NODES`] instructions, or a memory-class opcode without a
    /// parsed memory operand. Use `try_new` on untrusted input (the
    /// driver does); this constructor is for blocks that came out of the
    /// parser or a generator and are well-formed by construction.
    pub fn new(insns: &'a [Instruction]) -> PreparedBlock<'a> {
        match PreparedBlock::try_new(insns) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Preprocess a block, returning a typed [`ConstructError`] instead
    /// of panicking on malformed input. This is the checked front door
    /// for everything reachable from a service request: an oversized
    /// block or a memory opcode missing its operand becomes a
    /// `bad-request` reply rather than a worker panic masked as
    /// `internal`.
    pub fn try_new(insns: &'a [Instruction]) -> Result<PreparedBlock<'a>, ConstructError> {
        PreparedBlock::try_new_in(insns, PreparedLists::default())
    }

    /// [`PreparedBlock::try_new`] into `lists`, storage an earlier block
    /// handed back with [`PreparedBlock::into_lists`]. The lists are
    /// emptied and refilled, so the result is identical to `try_new`'s;
    /// once the lists have grown to the largest block, preparing
    /// allocates nothing.
    pub fn try_new_in(
        insns: &'a [Instruction],
        lists: PreparedLists,
    ) -> Result<PreparedBlock<'a>, ConstructError> {
        if insns.len() > MAX_NODES {
            return Err(ConstructError::TooManyNodes { nodes: insns.len() });
        }
        let PreparedLists {
            mut reg_defs,
            mut reg_uses,
            mut mem_ops,
            mut masks,
        } = lists;
        reg_defs.clear();
        reg_uses.clear();
        mem_ops.clear();
        masks.clear();
        reg_defs.reserve(insns.len());
        reg_uses.reserve(insns.len());
        mem_ops.reserve(insns.len());
        masks.reserve(insns.len());
        for (i, insn) in insns.iter().enumerate() {
            let (defs, uses, mut mask) = register_operands(insn);
            reg_defs.push(defs);
            reg_uses.push(uses);
            mem_ops.push(match insn.opcode.mem_access() {
                Some(kind) => {
                    let mem = insn.mem.as_ref().ok_or(ConstructError::MissingMemOperand {
                        index: i,
                        opcode: insn.opcode,
                    })?;
                    match kind {
                        MemAccessKind::Store => mask.defs |= 1 << MEM_MASK_BIT,
                        MemAccessKind::Load => mask.uses |= 1 << MEM_MASK_BIT,
                    }
                    Some(MemOp {
                        kind,
                        key: MemKey::of(mem),
                    })
                }
                None => None,
            });
            masks.push(mask);
        }
        Ok(PreparedBlock {
            insns,
            reg_defs,
            reg_uses,
            mem_ops,
            masks,
        })
    }

    /// Detach the per-instruction vectors for the next block's
    /// [`PreparedBlock::try_new_in`].
    pub fn into_lists(self) -> PreparedLists {
        PreparedLists {
            reg_defs: self.reg_defs,
            reg_uses: self.reg_uses,
            mem_ops: self.mem_ops,
            masks: self.masks,
        }
    }

    /// The memory operation of instruction `i`, if it is one. The single
    /// checked accessor the construction algorithms and closure checks
    /// go through instead of indexing `mem_ops[i].unwrap()` — callers
    /// pattern-match and skip, so a hole can never panic a worker even
    /// if a `PreparedBlock` is assembled by hand.
    pub fn mem_op(&self, i: usize) -> Option<MemOp> {
        self.mem_ops.get(i).copied().flatten()
    }

    /// The memory dependence key of instruction `i`, if it is a memory
    /// operation (see [`PreparedBlock::mem_op`]).
    pub fn mem_key(&self, i: usize) -> Option<MemKey> {
        self.mem_op(i).map(|op| op.key)
    }

    /// The memory key of instruction `i` if it is a store, fusing the
    /// [`PreparedBlock::is_store`] guard with the checked key lookup so
    /// callers cannot pair the guard with an unchecked `unwrap`.
    pub fn store_key(&self, i: usize) -> Option<MemKey> {
        match self.mem_op(i) {
            Some(MemOp {
                kind: MemAccessKind::Store,
                key,
            }) => Some(key),
            _ => None,
        }
    }

    /// The memory key of instruction `i` if it is a load (see
    /// [`PreparedBlock::store_key`]).
    pub fn load_key(&self, i: usize) -> Option<MemKey> {
        match self.mem_op(i) {
            Some(MemOp {
                kind: MemAccessKind::Load,
                key,
            }) => Some(key),
            _ => None,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// RAW arc latency from instruction `parent` to `child` through
    /// register `r`.
    pub fn raw_reg_latency(
        &self,
        model: &MachineModel,
        parent: usize,
        child: usize,
        r: Reg,
    ) -> u32 {
        model.raw_latency(&self.insns[parent], &self.insns[child], Resource::Reg(r))
    }

    /// RAW arc latency for a memory (store→load) dependence.
    pub fn raw_mem_latency(&self, model: &MachineModel, parent: usize, child: usize) -> u32 {
        let expr = self
            .mem_op(parent)
            .expect("parent is not a memory op")
            .key
            .expr;
        model.raw_latency(&self.insns[parent], &self.insns[child], Resource::Mem(expr))
    }

    /// WAR arc latency from `parent` to `child` (register or memory).
    pub fn war_latency(
        &self,
        model: &MachineModel,
        parent: usize,
        child: usize,
        res: Resource,
    ) -> u32 {
        model.war_latency(&self.insns[parent], &self.insns[child], res)
    }

    /// WAW arc latency from `parent` to `child` (register or memory).
    pub fn waw_latency(
        &self,
        model: &MachineModel,
        parent: usize,
        child: usize,
        res: Resource,
    ) -> u32 {
        model.waw_latency(&self.insns[parent], &self.insns[child], res)
    }

    /// Whether instruction `i` is a store.
    pub fn is_store(&self, i: usize) -> bool {
        self.store_key(i).is_some()
    }

    /// Whether instruction `i` is a load.
    pub fn is_load(&self, i: usize) -> bool {
        self.load_key(i).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{MemExprPool, MemRef, Opcode};

    #[test]
    fn duplicate_register_uses_are_collapsed() {
        // add %o0, %o0, %o1 uses %o0 once for dependence purposes.
        let insns = [Instruction::int3(
            Opcode::Add,
            Reg::o(0),
            Reg::o(0),
            Reg::o(1),
        )];
        let p = PreparedBlock::new(&insns);
        assert_eq!(p.reg_uses[0], vec![Reg::o(0)]);
        assert_eq!(p.reg_defs[0], vec![Reg::o(1)]);
        assert!(p.mem_ops[0].is_none());
    }

    #[test]
    fn g0_defs_are_dropped() {
        let insns = [Instruction::int3(
            Opcode::Add,
            Reg::o(0),
            Reg::o(1),
            Reg::g(0),
        )];
        let p = PreparedBlock::new(&insns);
        assert!(p.reg_defs[0].is_empty());
    }

    #[test]
    fn memory_ops_are_extracted() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = [
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::l(0)),
            Instruction::store(Opcode::St, Reg::l(0), MemRef::base_offset(Reg::fp(), -8, e)),
        ];
        let p = PreparedBlock::new(&insns);
        assert!(p.is_load(0));
        assert!(p.is_store(1));
        assert_eq!(p.mem_ops[0].unwrap().key.expr, e);
    }

    #[test]
    fn missing_mem_operand_is_a_typed_error() {
        // `Instruction::new` leaves `mem` empty; a mem-class opcode built
        // that way is exactly the malformed shape that used to panic
        // inside construction.
        let insns = [
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::new(Opcode::Ld),
        ];
        let err = PreparedBlock::try_new(&insns).unwrap_err();
        assert_eq!(
            err,
            crate::dag::ConstructError::MissingMemOperand {
                index: 1,
                opcode: Opcode::Ld,
            }
        );
        assert!(err.to_string().contains("memory operand"), "{err}");
    }

    #[test]
    fn oversized_block_is_a_typed_error() {
        let insns = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
            crate::dag::MAX_NODES + 1
        ];
        let err = PreparedBlock::try_new(&insns).unwrap_err();
        assert_eq!(
            err,
            crate::dag::ConstructError::TooManyNodes {
                nodes: crate::dag::MAX_NODES + 1
            }
        );
    }

    #[test]
    fn mem_accessor_is_none_for_non_memory_and_out_of_range() {
        let insns = [Instruction::int3(
            Opcode::Add,
            Reg::o(0),
            Reg::o(1),
            Reg::o(2),
        )];
        let p = PreparedBlock::new(&insns);
        assert!(p.mem_op(0).is_none());
        assert!(p.mem_key(0).is_none());
        assert!(p.mem_op(99).is_none());
    }

    #[test]
    fn masks_mirror_the_lists_and_the_memory_kind() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = [
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(0), Reg::o(1)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::l(0)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::l(1)),
            Instruction::store(Opcode::St, Reg::l(0), MemRef::base_offset(Reg::fp(), -8, e)),
        ];
        let p = PreparedBlock::new(&insns);
        let bits = |regs: &[Reg]| regs.iter().fold(0u128, |m, &r| m | 1 << reg_resource_id(r));
        let mem = 1u128 << MEM_MASK_BIT;
        for (i, m) in p.masks.iter().enumerate() {
            let (defs, uses) = (bits(&p.reg_defs[i]), bits(&p.reg_uses[i]));
            let expected = match p.mem_op(i).map(|op| op.kind) {
                Some(MemAccessKind::Store) => (defs | mem, uses),
                Some(MemAccessKind::Load) => (defs, uses | mem),
                None => (defs, uses),
            };
            assert_eq!((m.defs, m.uses), expected, "instruction {i}");
        }
        // The add feeds nothing below; two loads into different
        // registers off one address cannot depend; the store depends on
        // the first load (RAW on %l0, WAR on memory).
        assert!(!p.masks[0].may_depend(p.masks[1]));
        assert!(!p.masks[1].may_depend(p.masks[2]));
        assert!(p.masks[1].may_depend(p.masks[3]));
        assert!(p.masks[2].may_depend(p.masks[3]), "load -> store on memory");
    }

    #[test]
    fn recycled_lists_prepare_like_fresh_ones() {
        let long: Vec<Instruction> = (0..40)
            .map(|i| Instruction::int3(Opcode::Add, Reg::o(i % 8), Reg::o(1), Reg::l(i % 8)))
            .collect();
        let short = [Instruction::int3(
            Opcode::Sub,
            Reg::i(0),
            Reg::i(1),
            Reg::i(2),
        )];
        let lists = PreparedBlock::new(&long).into_lists();
        let reused = PreparedBlock::try_new_in(&short, lists).unwrap();
        let fresh = PreparedBlock::new(&short);
        assert_eq!(reused.reg_defs, fresh.reg_defs);
        assert_eq!(reused.reg_uses, fresh.reg_uses);
        assert_eq!(reused.mem_ops, fresh.mem_ops);
        assert_eq!(reused.masks, fresh.masks);
    }

    #[test]
    fn masks_of_an_instruction_are_the_prepared_masks() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = [
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(0), Reg::g(0)),
            Instruction::load(
                Opcode::Ldd,
                MemRef::base_offset(Reg::fp(), -8, e),
                Reg::l(0),
            ),
            Instruction::store(
                Opcode::StDf,
                Reg::f(2),
                MemRef::base_offset(Reg::fp(), -8, e),
            ),
            Instruction::cmp(Reg::g(0), Reg::o(1)),
        ];
        let p = PreparedBlock::new(&insns);
        for (i, insn) in insns.iter().enumerate() {
            assert_eq!(ResourceMasks::of(insn), p.masks[i], "instruction {i}");
        }
    }

    #[test]
    fn mask_regs_inverts_the_resource_ids() {
        let regs = [Reg::g(0), Reg::o(7), Reg::f(31), Reg::Icc, Reg::Y];
        let mask = regs.iter().fold(0u128, |m, &r| m | 1 << reg_resource_id(r));
        assert_eq!(mask_regs(mask).collect::<Vec<_>>(), regs);
        for id in 0..REG_RESOURCE_COUNT {
            assert_eq!(reg_resource_id(reg_of_resource_id(id)), id);
        }
        assert_eq!(REG_MASK_BITS.count_ones() as usize, REG_RESOURCE_COUNT);
    }

    #[test]
    fn resource_ids_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..32 {
            assert!(seen.insert(reg_resource_id(Reg::Int(n))));
            assert!(seen.insert(reg_resource_id(Reg::Fp(n))));
        }
        assert!(seen.insert(reg_resource_id(Reg::Icc)));
        assert!(seen.insert(reg_resource_id(Reg::Fcc)));
        assert!(seen.insert(reg_resource_id(Reg::Y)));
        assert_eq!(seen.len(), REG_RESOURCE_COUNT);
        assert!(seen.iter().all(|&id| id < REG_RESOURCE_COUNT));
    }
}
