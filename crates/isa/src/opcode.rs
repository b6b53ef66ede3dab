//! The modelled operation set.

use std::fmt;

/// Kind of memory access performed by an opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// The instruction reads memory (a load: memory is a *use*).
    Load,
    /// The instruction writes memory (a store: memory is a *definition*).
    Store,
}

/// Functional class of an instruction, used by block partitioning, the
/// "alternate type" heuristic and the superscalar issue model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InsnClass {
    /// Integer ALU operation.
    IntAlu,
    /// Integer multiply/divide (long-latency, uses `%y`).
    IntMulDiv,
    /// Memory access (load or store, integer or FP).
    Mem,
    /// Floating point add/subtract/compare/convert/move.
    FpAdd,
    /// Floating point multiply.
    FpMul,
    /// Floating point divide/square root (long latency, often unpipelined).
    FpDiv,
    /// Control transfer (branches).
    Branch,
    /// Procedure call / return.
    Call,
    /// Register window manipulation (`save`/`restore`).
    Window,
    /// No-operation.
    Nop,
}

/// A SPARC-flavoured opcode.
///
/// The set covers what late-1980s `cc -O4` / `f77 -O4` output actually
/// exercises: integer ALU and multiply/divide, single/double loads and
/// stores (integer and FP), the floating point pipeline, compares,
/// branches, calls and register-window instructions.
///
/// Static properties (class, default latency, condition-code effects,
/// double-word behaviour, block-ending behaviour) are centralized here;
/// *timing* beyond the per-opcode default latency lives in
/// [`MachineModel`](crate::MachineModel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants are standard SPARC mnemonics, documented as a group
pub enum Opcode {
    // -- integer ALU --------------------------------------------------
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    AddCc,
    SubCc,
    Sethi,
    /// Register/immediate move (synthesized from `or %g0, x, rd`).
    Mov,
    // -- integer multiply / divide ------------------------------------
    Umul,
    Smul,
    Udiv,
    Sdiv,
    /// Read the `%y` register.
    RdY,
    // -- memory --------------------------------------------------------
    Ld,
    Ldd,
    LdF,
    LdDf,
    St,
    Std,
    StF,
    StDf,
    // -- floating point -------------------------------------------------
    FAddS,
    FAddD,
    FSubS,
    FSubD,
    FMulS,
    FMulD,
    FDivS,
    FDivD,
    FSqrtD,
    FMovS,
    FNegS,
    FAbsS,
    FCmpS,
    FCmpD,
    FiToS,
    FiToD,
    FsToD,
    FdToS,
    FsToI,
    FdToI,
    // -- control --------------------------------------------------------
    /// Unconditional branch (`ba`), with a delay slot.
    Ba,
    /// Conditional branch on integer condition codes.
    Bicc,
    /// Conditional branch on FP condition codes.
    Fbcc,
    /// Procedure call.
    Call,
    /// Indirect jump / return (`jmpl`, `ret`).
    Jmpl,
    /// Register window save.
    Save,
    /// Register window restore.
    Restore,
    // -- other ----------------------------------------------------------
    Nop,
}

impl Opcode {
    /// Every opcode, in declaration order.
    pub const ALL: &'static [Opcode] = &[
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Sra,
        Opcode::AddCc,
        Opcode::SubCc,
        Opcode::Sethi,
        Opcode::Mov,
        Opcode::Umul,
        Opcode::Smul,
        Opcode::Udiv,
        Opcode::Sdiv,
        Opcode::RdY,
        Opcode::Ld,
        Opcode::Ldd,
        Opcode::LdF,
        Opcode::LdDf,
        Opcode::St,
        Opcode::Std,
        Opcode::StF,
        Opcode::StDf,
        Opcode::FAddS,
        Opcode::FAddD,
        Opcode::FSubS,
        Opcode::FSubD,
        Opcode::FMulS,
        Opcode::FMulD,
        Opcode::FDivS,
        Opcode::FDivD,
        Opcode::FSqrtD,
        Opcode::FMovS,
        Opcode::FNegS,
        Opcode::FAbsS,
        Opcode::FCmpS,
        Opcode::FCmpD,
        Opcode::FiToS,
        Opcode::FiToD,
        Opcode::FsToD,
        Opcode::FdToS,
        Opcode::FsToI,
        Opcode::FdToI,
        Opcode::Ba,
        Opcode::Bicc,
        Opcode::Fbcc,
        Opcode::Call,
        Opcode::Jmpl,
        Opcode::Save,
        Opcode::Restore,
        Opcode::Nop,
    ];

    /// Number of opcodes: the length of a table indexed by
    /// [`Opcode::index`].
    pub const COUNT: usize = Opcode::ALL.len();

    /// Dense index of this opcode (`0..COUNT`, in [`Opcode::ALL`]
    /// order), for per-opcode tables such as a model's latencies.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The functional class of this opcode.
    pub fn class(&self) -> InsnClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | AddCc | SubCc | Sethi | Mov | RdY => {
                InsnClass::IntAlu
            }
            Umul | Smul | Udiv | Sdiv => InsnClass::IntMulDiv,
            Ld | Ldd | LdF | LdDf | St | Std | StF | StDf => InsnClass::Mem,
            FAddS | FAddD | FSubS | FSubD | FMovS | FNegS | FAbsS | FCmpS | FCmpD | FiToS
            | FiToD | FsToD | FdToS | FsToI | FdToI => InsnClass::FpAdd,
            FMulS | FMulD => InsnClass::FpMul,
            FDivS | FDivD | FSqrtD => InsnClass::FpDiv,
            Ba | Bicc | Fbcc => InsnClass::Branch,
            Call | Jmpl => InsnClass::Call,
            Save | Restore => InsnClass::Window,
            Nop => InsnClass::Nop,
        }
    }

    /// Default result latency in cycles, before any
    /// [`MachineModel`](crate::MachineModel) override. These values follow
    /// the paper's Figure 1 conventions for the FP pipeline (`fdivd` 20
    /// cycles, double-precision add 4 cycles) and a one-delay-slot load.
    pub fn default_latency(&self) -> u32 {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | AddCc | SubCc | Sethi | Mov | RdY => 1,
            Umul | Smul => 19,
            Udiv | Sdiv => 39,
            Ld | LdF => 2,
            Ldd | LdDf => 3,
            St | Std | StF | StDf => 1,
            FAddS | FSubS => 3,
            FAddD | FSubD => 4,
            FMovS | FNegS | FAbsS => 1,
            FCmpS | FCmpD => 2,
            FiToS | FiToD | FsToD | FdToS | FsToI | FdToI => 3,
            FMulS => 5,
            FMulD => 7,
            FDivS => 13,
            FDivD => 20,
            FSqrtD => 30,
            Ba | Bicc | Fbcc | Call | Jmpl | Save | Restore | Nop => 1,
        }
    }

    /// Whether this opcode writes the integer condition codes.
    pub fn sets_icc(&self) -> bool {
        matches!(self, Opcode::AddCc | Opcode::SubCc)
    }

    /// Whether this opcode writes the floating point condition codes.
    pub fn sets_fcc(&self) -> bool {
        matches!(self, Opcode::FCmpS | Opcode::FCmpD)
    }

    /// Whether this opcode reads the integer condition codes.
    pub fn reads_icc(&self) -> bool {
        matches!(self, Opcode::Bicc)
    }

    /// Whether this opcode reads the floating point condition codes.
    pub fn reads_fcc(&self) -> bool {
        matches!(self, Opcode::Fbcc)
    }

    /// Whether this opcode writes the `%y` register.
    pub fn sets_y(&self) -> bool {
        matches!(
            self,
            Opcode::Umul | Opcode::Smul | Opcode::Udiv | Opcode::Sdiv
        )
    }

    /// Whether this opcode reads the `%y` register.
    pub fn reads_y(&self) -> bool {
        matches!(self, Opcode::RdY | Opcode::Udiv | Opcode::Sdiv)
    }

    /// Whether this opcode transfers a double word and therefore defines or
    /// uses an even/odd register *pair*.
    pub fn is_dword(&self) -> bool {
        matches!(
            self,
            Opcode::Ldd | Opcode::LdDf | Opcode::Std | Opcode::StDf
        )
    }

    /// The kind of memory access, if any.
    pub fn mem_access(&self) -> Option<MemAccessKind> {
        use Opcode::*;
        match self {
            Ld | Ldd | LdF | LdDf => Some(MemAccessKind::Load),
            St | Std | StF | StDf => Some(MemAccessKind::Store),
            _ => None,
        }
    }

    /// Whether this instruction terminates a basic block.
    ///
    /// Branches always do. Per the paper, procedure calls and register
    /// window instructions (`save`/`restore`) also end blocks: window
    /// instructions rename physical resources, and calls are treated as
    /// barriers unless interprocedural def/use information is available.
    pub fn ends_block(&self) -> bool {
        matches!(
            self.class(),
            InsnClass::Branch | InsnClass::Call | InsnClass::Window
        )
    }

    /// Whether this control transfer has an architectural delay slot.
    pub fn has_delay_slot(&self) -> bool {
        matches!(
            self,
            Opcode::Ba | Opcode::Bicc | Opcode::Fbcc | Opcode::Call | Opcode::Jmpl
        )
    }

    /// Whether this opcode operates on floating point registers.
    pub fn is_fp(&self) -> bool {
        matches!(
            self.class(),
            InsnClass::FpAdd | InsnClass::FpMul | InsnClass::FpDiv
        ) || matches!(
            self,
            Opcode::LdF | Opcode::LdDf | Opcode::StF | Opcode::StDf
        )
    }

    /// The assembly mnemonic.
    pub const fn mnemonic(&self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            AddCc => "addcc",
            SubCc => "subcc",
            Sethi => "sethi",
            Mov => "mov",
            Umul => "umul",
            Smul => "smul",
            Udiv => "udiv",
            Sdiv => "sdiv",
            RdY => "rd",
            Ld => "ld",
            Ldd => "ldd",
            LdF => "ldf",
            LdDf => "lddf",
            St => "st",
            Std => "std",
            StF => "stf",
            StDf => "stdf",
            FAddS => "fadds",
            FAddD => "faddd",
            FSubS => "fsubs",
            FSubD => "fsubd",
            FMulS => "fmuls",
            FMulD => "fmuld",
            FDivS => "fdivs",
            FDivD => "fdivd",
            FSqrtD => "fsqrtd",
            FMovS => "fmovs",
            FNegS => "fnegs",
            FAbsS => "fabss",
            FCmpS => "fcmps",
            FCmpD => "fcmpd",
            FiToS => "fitos",
            FiToD => "fitod",
            FsToD => "fstod",
            FdToS => "fdtos",
            FsToI => "fstoi",
            FdToI => "fdtoi",
            Ba => "ba",
            Bicc => "bicc",
            Fbcc => "fbcc",
            Call => "call",
            Jmpl => "jmpl",
            Save => "save",
            Restore => "restore",
            Nop => "nop",
        }
    }

    /// Look up an opcode by mnemonic (case-insensitive). Common SPARC
    /// branch spellings (`be`, `bne`, `bg`, …) map to [`Opcode::Bicc`], FP
    /// branch spellings (`fbe`, `fbne`, …) to [`Opcode::Fbcc`], and `ret`
    /// to [`Opcode::Jmpl`].
    ///
    /// One binary search over the mnemonics and aliases, each packed
    /// into a `u64` with its length; only ASCII letters are folded, so
    /// non-ASCII text never matches, and a name longer than any in the
    /// table is refused before the search.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        let key = pack_name(s.as_bytes())?;
        NAMES
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| NAMES[i].1)
    }
}

/// Spellings [`Opcode::from_mnemonic`] accepts besides the mnemonics.
const ALIASES: [(&str, Opcode); 28] = {
    use Opcode::{Bicc, FCmpD, FCmpS, Fbcc, Jmpl, SubCc};
    [
        ("be", Bicc),
        ("bne", Bicc),
        ("bg", Bicc),
        ("bge", Bicc),
        ("bl", Bicc),
        ("ble", Bicc),
        ("bgu", Bicc),
        ("bleu", Bicc),
        ("bcs", Bicc),
        ("bcc", Bicc),
        ("bneg", Bicc),
        ("bpos", Bicc),
        ("bvs", Bicc),
        ("bvc", Bicc),
        ("b", Bicc),
        ("fbe", Fbcc),
        ("fbne", Fbcc),
        ("fbg", Fbcc),
        ("fbge", Fbcc),
        ("fbl", Fbcc),
        ("fble", Fbcc),
        ("fbu", Fbcc),
        ("fbo", Fbcc),
        ("ret", Jmpl),
        ("retl", Jmpl),
        ("cmp", SubCc),
        ("fcmped", FCmpD),
        ("fcmpes", FCmpS),
    ]
};

/// The longest name in [`NAMES`] (`restore`): a packed key holds this
/// many bytes and the length.
const MAX_NAME: usize = 7;

/// `name` packed for [`NAMES`], ASCII letters lowered: its bytes from
/// the top of the key down, and its length in the lowest byte, so names
/// that differ only by trailing NULs pack apart. `None` past
/// [`MAX_NAME`] bytes.
const fn pack_name(name: &[u8]) -> Option<u64> {
    if name.len() > MAX_NAME {
        return None;
    }
    let mut key = name.len() as u64;
    let mut i = 0;
    while i < name.len() {
        key |= (name[i].to_ascii_lowercase() as u64) << (56 - 8 * i);
        i += 1;
    }
    Some(key)
}

/// Every mnemonic and every alias, packed by [`pack_name`] and sorted
/// by key. Built at compile time; building fails if a name is too long
/// or two names collide, so a mnemonic can never be shadowed by an
/// alias (or the other way round).
const NAMES: [(u64, Opcode); Opcode::COUNT + ALIASES.len()] = {
    let mut table = [(0, Opcode::Nop); Opcode::COUNT + ALIASES.len()];
    let mut n = 0;
    while n < table.len() {
        let (name, op) = if n < Opcode::COUNT {
            (Opcode::ALL[n].mnemonic(), Opcode::ALL[n])
        } else {
            ALIASES[n - Opcode::COUNT]
        };
        let Some(key) = pack_name(name.as_bytes()) else {
            panic!("an opcode name is longer than MAX_NAME");
        };
        // Insertion sort: shift larger keys up, then place this one.
        let mut at = n;
        while at > 0 && table[at - 1].0 > key {
            table[at] = table[at - 1];
            at -= 1;
        }
        assert!(
            at == 0 || table[at - 1].0 != key,
            "two opcode names collide"
        );
        table[at] = (key, op);
        n += 1;
    }
    table
};

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_opcode_once() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(*op), "duplicate in ALL: {op:?}");
        }
        assert_eq!(Opcode::ALL.len(), 53);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
        }
        assert_eq!(Opcode::COUNT, Opcode::ALL.len());
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in Opcode::ALL {
            let parsed = Opcode::from_mnemonic(op.mnemonic());
            assert_eq!(parsed, Some(*op), "mnemonic {}", op.mnemonic());
        }
    }

    #[test]
    fn branch_aliases_parse() {
        assert_eq!(Opcode::from_mnemonic("bne"), Some(Opcode::Bicc));
        assert_eq!(Opcode::from_mnemonic("FBE"), Some(Opcode::Fbcc));
        assert_eq!(Opcode::from_mnemonic("ret"), Some(Opcode::Jmpl));
        assert_eq!(Opcode::from_mnemonic("cmp"), Some(Opcode::SubCc));
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn figure1_latencies() {
        // The paper's Figure 1 uses a 20-cycle FP divide and 4-cycle FP add.
        assert_eq!(Opcode::FDivD.default_latency(), 20);
        assert_eq!(Opcode::FAddD.default_latency(), 4);
    }

    #[test]
    fn block_ending_opcodes() {
        assert!(Opcode::Bicc.ends_block());
        assert!(Opcode::Call.ends_block());
        assert!(Opcode::Save.ends_block());
        assert!(Opcode::Restore.ends_block());
        assert!(!Opcode::Add.ends_block());
        assert!(!Opcode::Ld.ends_block());
    }

    #[test]
    fn delay_slots() {
        assert!(Opcode::Ba.has_delay_slot());
        assert!(Opcode::Call.has_delay_slot());
        assert!(!Opcode::Save.has_delay_slot());
        assert!(!Opcode::Add.has_delay_slot());
    }

    #[test]
    fn cc_effects() {
        assert!(Opcode::SubCc.sets_icc());
        assert!(Opcode::FCmpD.sets_fcc());
        assert!(Opcode::Bicc.reads_icc());
        assert!(Opcode::Fbcc.reads_fcc());
        assert!(!Opcode::Add.sets_icc());
    }

    #[test]
    fn dword_and_mem_kinds() {
        assert!(Opcode::LdDf.is_dword());
        assert_eq!(Opcode::LdDf.mem_access(), Some(MemAccessKind::Load));
        assert_eq!(Opcode::StDf.mem_access(), Some(MemAccessKind::Store));
        assert_eq!(Opcode::FAddD.mem_access(), None);
    }

    #[test]
    fn class_partition() {
        assert_eq!(Opcode::Umul.class(), InsnClass::IntMulDiv);
        assert_eq!(Opcode::FDivD.class(), InsnClass::FpDiv);
        assert_eq!(Opcode::FMulD.class(), InsnClass::FpMul);
        assert_eq!(Opcode::FCmpD.class(), InsnClass::FpAdd);
        assert_eq!(Opcode::Ld.class(), InsnClass::Mem);
    }

    #[test]
    fn y_register_effects() {
        assert!(Opcode::Umul.sets_y());
        assert!(Opcode::Sdiv.reads_y());
        assert!(Opcode::RdY.reads_y());
        assert!(!Opcode::Add.sets_y());
    }
}
