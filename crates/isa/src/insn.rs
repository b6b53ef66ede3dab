//! Instructions: operands, definitions and uses.

use std::fmt;

use crate::inline::InlineList;
use crate::memexpr::MemExprId;
use crate::opcode::{InsnClass, MemAccessKind, Opcode};
use crate::reg::{Reg, Resource};
use crate::text::{Name, Text};

/// The most register source operands an instruction carries (`rs`).
pub const MAX_SOURCES: usize = 2;

/// The most resources any instruction can use: two sources and their
/// double-word partners, a memory operand's base and index, the integer
/// and FP condition codes, `%y`, and a loaded memory expression.
pub const MAX_USES: usize = 2 * MAX_SOURCES + 2 + 3 + 1;

/// The most resources any instruction can define: a destination and its
/// double-word partner, the integer and FP condition codes, `%y`, and a
/// stored memory expression.
pub const MAX_DEFS: usize = 2 + 3 + 1;

/// An instruction's register source operands.
pub type Sources = InlineList<Reg, MAX_SOURCES>;

/// The resources an instruction uses ([`Instruction::uses`]).
pub type Uses = InlineList<Resource, MAX_USES>;

/// The resources an instruction defines ([`Instruction::defs`]).
pub type Defs = InlineList<Resource, MAX_DEFS>;

/// A memory operand: `[base + index + offset]`, plus the interned symbolic
/// address expression used for dependence analysis and the paper's "unique
/// memory expressions" statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: Reg,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Constant displacement.
    pub offset: i32,
    /// Interned symbolic address expression.
    pub expr: MemExprId,
}

impl MemRef {
    /// A `[base + offset]` reference.
    pub fn base_offset(base: Reg, offset: i32, expr: MemExprId) -> MemRef {
        MemRef {
            base,
            index: None,
            offset,
            expr,
        }
    }

    /// A `[base + index]` reference.
    pub fn base_index(base: Reg, index: Reg, expr: MemExprId) -> MemRef {
        MemRef {
            base,
            index: Some(index),
            offset: 0,
            expr,
        }
    }

    /// Append `[base+index±offset]` to `text`; a zero offset is left out.
    fn render(&self, text: &mut Text) {
        text.push_byte(b'[');
        self.base.render(text);
        if let Some(ix) = self.index {
            text.push_byte(b'+');
            ix.render(text);
        }
        if self.offset != 0 {
            if self.offset > 0 {
                text.push_byte(b'+');
            }
            text.push_i64(i64::from(self.offset));
        }
        text.push_byte(b']');
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        self.render(&mut text);
        f.write_str(text.as_str())
    }
}

/// One machine instruction.
///
/// An instruction is an [`Opcode`] plus operands. Definitions and uses —
/// the inputs to DAG construction — are derived from the opcode's static
/// properties and the operands by [`Instruction::defs`] and
/// [`Instruction::uses`]. Every operand is stored inline, so an
/// instruction is `Copy` and owns no heap memory.
///
/// ```
/// use dagsched_isa::{Instruction, Opcode, Reg, Resource};
/// // %f6 = %f8 + %f0
/// let add = Instruction::fp3(Opcode::FAddD, Reg::f(8), Reg::f(0), Reg::f(6));
/// assert_eq!(add.defs(), vec![Resource::Reg(Reg::f(6))]);
/// assert!(add.uses().contains(&Resource::Reg(Reg::f(0))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Destination register, if any.
    pub rd: Option<Reg>,
    /// Register source operands, in operand order. Hashes and prints as
    /// the slice of its values, exactly as a `Vec<Reg>` would.
    pub rs: Sources,
    /// Memory operand for loads and stores.
    pub mem: Option<MemRef>,
    /// Immediate operand, if any.
    pub imm: Option<i64>,
    /// Index of this instruction in the original program order. Assigned by
    /// [`Program::push`](crate::Program::push); used by the "original
    /// order" tie-break heuristic and by delay-slot bookkeeping.
    pub orig_index: u32,
}

impl Instruction {
    /// A bare instruction with no operands.
    pub fn new(opcode: Opcode) -> Instruction {
        Instruction {
            opcode,
            rd: None,
            rs: Sources::new(),
            mem: None,
            imm: None,
            orig_index: u32::MAX,
        }
    }

    /// Three-address integer operation `rd = rs1 op rs2`.
    pub fn int3(opcode: Opcode, rs1: Reg, rs2: Reg, rd: Reg) -> Instruction {
        debug_assert!(matches!(
            opcode.class(),
            InsnClass::IntAlu | InsnClass::IntMulDiv
        ));
        Instruction {
            rd: Some(rd),
            rs: Sources::from_slice(&[rs1, rs2]),
            ..Instruction::new(opcode)
        }
    }

    /// Integer operation with immediate: `rd = rs1 op imm`.
    pub fn int_imm(opcode: Opcode, rs1: Reg, imm: i64, rd: Reg) -> Instruction {
        Instruction {
            rd: Some(rd),
            rs: Sources::from_slice(&[rs1]),
            imm: Some(imm),
            ..Instruction::new(opcode)
        }
    }

    /// Three-address floating point operation `rd = rs1 op rs2`.
    pub fn fp3(opcode: Opcode, rs1: Reg, rs2: Reg, rd: Reg) -> Instruction {
        Instruction {
            rd: Some(rd),
            rs: Sources::from_slice(&[rs1, rs2]),
            ..Instruction::new(opcode)
        }
    }

    /// Two-address floating point operation `rd = op rs` (moves,
    /// conversions, square root).
    pub fn fp2(opcode: Opcode, rs: Reg, rd: Reg) -> Instruction {
        Instruction {
            rd: Some(rd),
            rs: Sources::from_slice(&[rs]),
            ..Instruction::new(opcode)
        }
    }

    /// Floating point compare (defines the FP condition codes only).
    pub fn fcmp(opcode: Opcode, rs1: Reg, rs2: Reg) -> Instruction {
        debug_assert!(opcode.sets_fcc());
        Instruction {
            rs: Sources::from_slice(&[rs1, rs2]),
            ..Instruction::new(opcode)
        }
    }

    /// Integer compare `cmp rs1, rs2` (a `subcc` discarding its result).
    pub fn cmp(rs1: Reg, rs2: Reg) -> Instruction {
        Instruction {
            rs: Sources::from_slice(&[rs1, rs2]),
            ..Instruction::new(Opcode::SubCc)
        }
    }

    /// Load `rd = [mem]`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `opcode` is not a load.
    pub fn load(opcode: Opcode, mem: MemRef, rd: Reg) -> Instruction {
        debug_assert_eq!(opcode.mem_access(), Some(MemAccessKind::Load));
        Instruction {
            rd: Some(rd),
            mem: Some(mem),
            ..Instruction::new(opcode)
        }
    }

    /// Store `[mem] = src`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `opcode` is not a store.
    pub fn store(opcode: Opcode, src: Reg, mem: MemRef) -> Instruction {
        debug_assert_eq!(opcode.mem_access(), Some(MemAccessKind::Store));
        Instruction {
            rs: Sources::from_slice(&[src]),
            mem: Some(mem),
            ..Instruction::new(opcode)
        }
    }

    /// `sethi imm, rd`.
    pub fn sethi(imm: i64, rd: Reg) -> Instruction {
        Instruction {
            rd: Some(rd),
            imm: Some(imm),
            ..Instruction::new(Opcode::Sethi)
        }
    }

    /// `mov imm, rd`.
    pub fn mov_imm(imm: i64, rd: Reg) -> Instruction {
        Instruction {
            rd: Some(rd),
            imm: Some(imm),
            ..Instruction::new(Opcode::Mov)
        }
    }

    /// A control transfer with no register operands (`ba`, `bicc`, `fbcc`,
    /// `call`, `jmpl`).
    pub fn branch(opcode: Opcode) -> Instruction {
        debug_assert!(matches!(
            opcode.class(),
            InsnClass::Branch | InsnClass::Call
        ));
        Instruction::new(opcode)
    }

    /// `nop`.
    pub fn nop() -> Instruction {
        Instruction::new(Opcode::Nop)
    }

    /// The functional class (delegates to the opcode).
    pub fn class(&self) -> InsnClass {
        self.opcode.class()
    }

    /// All resources *defined* (written) by this instruction, in a fixed
    /// order: destination register (then its double-word partner), condition
    /// codes, `%y`, then the memory expression for stores.
    ///
    /// Writes to the hardwired zero register `%g0` are discarded.
    pub fn defs(&self) -> Defs {
        let mut out = Defs::new();
        if let Some(rd) = self.rd {
            if rd.is_writable() {
                out.push(Resource::Reg(rd));
            }
            if self.opcode.is_dword() && self.opcode.mem_access() == Some(MemAccessKind::Load) {
                if let Some(hi) = rd.pair_partner() {
                    out.push(Resource::Reg(hi));
                }
            }
        }
        if self.opcode.sets_icc() {
            out.push(Resource::Reg(Reg::Icc));
        }
        if self.opcode.sets_fcc() {
            out.push(Resource::Reg(Reg::Fcc));
        }
        if self.opcode.sets_y() {
            out.push(Resource::Reg(Reg::Y));
        }
        if self.opcode.mem_access() == Some(MemAccessKind::Store) {
            if let Some(m) = &self.mem {
                out.push(Resource::Mem(m.expr));
            }
        }
        out
    }

    /// All resources *used* (read) by this instruction, in a fixed order:
    /// register sources (then double-word partners for dword stores),
    /// memory base/index registers, condition codes, `%y`, then the memory
    /// expression for loads.
    ///
    /// Reads of `%g0` are kept (they are harmless: `%g0` is never defined,
    /// so no arcs result).
    pub fn uses(&self) -> Uses {
        let mut out = Uses::new();
        for &r in &self.rs {
            out.push(Resource::Reg(r));
            if self.opcode.is_dword() && self.opcode.mem_access() == Some(MemAccessKind::Store) {
                if let Some(hi) = r.pair_partner() {
                    out.push(Resource::Reg(hi));
                }
            }
        }
        if let Some(m) = &self.mem {
            out.push(Resource::Reg(m.base));
            if let Some(ix) = m.index {
                out.push(Resource::Reg(ix));
            }
        }
        if self.opcode.reads_icc() {
            out.push(Resource::Reg(Reg::Icc));
        }
        if self.opcode.reads_fcc() {
            out.push(Resource::Reg(Reg::Fcc));
        }
        if self.opcode.reads_y() {
            out.push(Resource::Reg(Reg::Y));
        }
        if self.opcode.mem_access() == Some(MemAccessKind::Load) {
            if let Some(m) = &self.mem {
                out.push(Resource::Mem(m.expr));
            }
        }
        out
    }

    /// Position of `res` among this instruction's *register source
    /// operands* (`rs`), used by asymmetric-bypass latency rules (a value
    /// consumed as the second source operand may see a different RAW delay
    /// than one consumed as the first — cf. the paper's RS/6000 example).
    pub fn src_position(&self, res: Resource) -> Option<usize> {
        match res {
            Resource::Reg(r) => self.rs.iter().position(|&s| s == r),
            _ => None,
        }
    }

    /// Whether this instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        self.opcode.mem_access().is_some()
    }

    /// Whether this instruction is a load.
    pub fn is_load(&self) -> bool {
        self.opcode.mem_access() == Some(MemAccessKind::Load)
    }

    /// Whether this instruction is a store.
    pub fn is_store(&self) -> bool {
        self.opcode.mem_access() == Some(MemAccessKind::Store)
    }
}

/// Every mnemonic, by [`Opcode::index`], padded for [`Text`].
const MNEMONIC_TEXT: [Name; Opcode::COUNT] = {
    let mut out = [Name::new(""); Opcode::COUNT];
    let mut i = 0;
    while i < Opcode::COUNT {
        out[i] = Name::new(Opcode::ALL[i].mnemonic());
        i += 1;
    }
    out
};

/// The assembly text: the mnemonic, then the memory operand of a load,
/// the sources, the immediate, the memory operand of a store and the
/// destination, comma-separated (`ld [%i6-8], %l0`). It is assembled
/// in a stack buffer from table names and handed to the sink whole.
impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        text.push_name(&MNEMONIC_TEXT[self.opcode.index()]);
        let mut sep = Name::new(" ");
        let mut next = |text: &mut Text| {
            text.push_name(&sep);
            sep = Name::new(", ");
        };
        let (load, store) = match self.mem {
            Some(m) if self.is_load() => (Some(m), None),
            Some(m) if self.is_store() => (None, Some(m)),
            _ => (None, None),
        };
        if let Some(m) = load {
            next(&mut text);
            m.render(&mut text);
        }
        for r in &self.rs {
            next(&mut text);
            r.render(&mut text);
        }
        if let Some(imm) = self.imm {
            next(&mut text);
            text.push_i64(imm);
        }
        if let Some(m) = store {
            next(&mut text);
            m.render(&mut text);
        }
        if let Some(rd) = self.rd {
            next(&mut text);
            rd.render(&mut text);
        }
        f.write_str(text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memexpr::MemExprPool;

    fn expr(pool: &mut MemExprPool, t: &str) -> MemExprId {
        pool.intern(t)
    }

    #[test]
    fn int3_defs_and_uses() {
        let i = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
        assert_eq!(i.defs(), vec![Resource::Reg(Reg::o(2))]);
        assert_eq!(
            i.uses(),
            vec![Resource::Reg(Reg::o(0)), Resource::Reg(Reg::o(1))]
        );
    }

    #[test]
    fn g0_writes_are_discarded() {
        let i = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::g(0));
        assert!(i.defs().is_empty());
    }

    #[test]
    fn cmp_defines_only_icc() {
        let i = Instruction::cmp(Reg::o(0), Reg::o(1));
        assert_eq!(i.defs(), vec![Resource::Reg(Reg::Icc)]);
    }

    #[test]
    fn branch_uses_icc() {
        let i = Instruction::branch(Opcode::Bicc);
        assert_eq!(i.uses(), vec![Resource::Reg(Reg::Icc)]);
        assert!(i.defs().is_empty());
    }

    #[test]
    fn load_uses_base_and_memory_defines_rd() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%fp-8]");
        let i = Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::l(0));
        assert_eq!(i.defs(), vec![Resource::Reg(Reg::l(0))]);
        assert_eq!(i.uses(), vec![Resource::Reg(Reg::fp()), Resource::Mem(e)]);
    }

    #[test]
    fn store_defines_memory_uses_value_and_base() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%fp-8]");
        let i = Instruction::store(Opcode::St, Reg::l(1), MemRef::base_offset(Reg::fp(), -8, e));
        assert_eq!(i.defs(), vec![Resource::Mem(e)]);
        assert_eq!(
            i.uses(),
            vec![Resource::Reg(Reg::l(1)), Resource::Reg(Reg::fp())]
        );
    }

    #[test]
    fn dword_load_defines_register_pair() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%o0]");
        let i = Instruction::load(
            Opcode::LdDf,
            MemRef::base_offset(Reg::o(0), 0, e),
            Reg::f(2),
        );
        assert_eq!(
            i.defs(),
            vec![Resource::Reg(Reg::f(2)), Resource::Reg(Reg::f(3))]
        );
    }

    #[test]
    fn dword_store_uses_register_pair() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%o0]");
        let i = Instruction::store(
            Opcode::StDf,
            Reg::f(4),
            MemRef::base_offset(Reg::o(0), 0, e),
        );
        assert!(i.uses().contains(&Resource::Reg(Reg::f(4))));
        assert!(i.uses().contains(&Resource::Reg(Reg::f(5))));
    }

    #[test]
    fn mul_defines_y() {
        let i = Instruction::int3(Opcode::Umul, Reg::o(0), Reg::o(1), Reg::o(2));
        assert!(i.defs().contains(&Resource::Reg(Reg::Y)));
    }

    #[test]
    fn base_index_mem_uses_both_registers() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%o0+%o1]");
        let i = Instruction::load(
            Opcode::LdF,
            MemRef::base_index(Reg::o(0), Reg::o(1), e),
            Reg::f(0),
        );
        assert!(i.uses().contains(&Resource::Reg(Reg::o(0))));
        assert!(i.uses().contains(&Resource::Reg(Reg::o(1))));
    }

    #[test]
    fn src_position_reports_operand_slot() {
        let i = Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(2), Reg::f(4));
        assert_eq!(i.src_position(Resource::Reg(Reg::f(0))), Some(0));
        assert_eq!(i.src_position(Resource::Reg(Reg::f(2))), Some(1));
        assert_eq!(i.src_position(Resource::Reg(Reg::f(4))), None);
    }

    #[test]
    fn display_formats_assembly() {
        let mut pool = MemExprPool::new();
        let e = expr(&mut pool, "[%fp-8]");
        let i = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
        assert_eq!(i.to_string(), "add %o0, %o1, %o2");
        let l = Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::l(0));
        assert_eq!(l.to_string(), "ld [%i6-8], %l0");
        let s = Instruction::store(Opcode::St, Reg::l(0), MemRef::base_offset(Reg::fp(), -8, e));
        assert_eq!(s.to_string(), "st %l0, [%i6-8]");
    }
}
