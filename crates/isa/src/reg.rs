//! Architectural registers and schedulable resources.

use std::fmt;

use crate::memexpr::MemExprId;
use crate::text::{Name, Text};

/// An architectural register of the modelled SPARC-like machine.
///
/// Integer registers are numbered 0–31 and displayed with the SPARC window
/// naming convention (`%g0`–`%g7`, `%o0`–`%o7`, `%l0`–`%l7`, `%i0`–`%i7`).
/// Floating point registers are `%f0`–`%f31`. The integer and floating
/// point condition codes and the `%y` multiply/divide register are modelled
/// as dedicated resources so that compare/branch and `mul`/`div` chains are
/// properly serialized.
///
/// ```
/// use dagsched_isa::Reg;
/// assert_eq!(Reg::int(9).to_string(), "%o1");
/// assert_eq!(Reg::f(2).to_string(), "%f2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// Integer register `0..32` (`%g`, `%o`, `%l`, `%i` banks).
    Int(u8),
    /// Floating point register `0..32`.
    Fp(u8),
    /// Integer condition codes (set by `subcc`/`addcc`, read by `bicc`).
    Icc,
    /// Floating point condition codes (set by `fcmp*`, read by `fbcc`).
    Fcc,
    /// The `%y` register used by integer multiply/divide.
    Y,
}

impl Reg {
    /// Integer register `n` (0–31).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register out of range: {n}");
        Reg::Int(n)
    }

    /// Floating point register `n` (0–31).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn f(n: u8) -> Reg {
        assert!(n < 32, "fp register out of range: {n}");
        Reg::Fp(n)
    }

    /// Global integer register `%gN`.
    pub fn g(n: u8) -> Reg {
        assert!(n < 8);
        Reg::Int(n)
    }

    /// Output integer register `%oN`.
    pub fn o(n: u8) -> Reg {
        assert!(n < 8);
        Reg::Int(8 + n)
    }

    /// Local integer register `%lN`.
    pub fn l(n: u8) -> Reg {
        assert!(n < 8);
        Reg::Int(16 + n)
    }

    /// Input integer register `%iN`.
    pub fn i(n: u8) -> Reg {
        assert!(n < 8);
        Reg::Int(24 + n)
    }

    /// The frame pointer `%fp` (alias of `%i6`).
    pub fn fp() -> Reg {
        Reg::Int(30)
    }

    /// The stack pointer `%sp` (alias of `%o6`).
    pub fn sp() -> Reg {
        Reg::Int(14)
    }

    /// The register class this register belongs to.
    pub fn class(&self) -> RegClass {
        match self {
            Reg::Int(_) => RegClass::Int,
            Reg::Fp(_) => RegClass::Fp,
            Reg::Icc | Reg::Fcc => RegClass::CondCode,
            Reg::Y => RegClass::Special,
        }
    }

    /// Whether writes to this register create a value (`%g0` is hardwired
    /// to zero on SPARC, so defining it is a no-op and births no register).
    pub fn is_writable(&self) -> bool {
        !matches!(self, Reg::Int(0))
    }

    /// The next consecutive register of the same bank, used for double-word
    /// register pairs (`ldd`/`std`/`lddf`). Returns `None` at bank ends or
    /// for non-numbered registers.
    pub fn pair_partner(&self) -> Option<Reg> {
        match *self {
            Reg::Int(n) if n + 1 < 32 => Some(Reg::Int(n + 1)),
            Reg::Fp(n) if n + 1 < 32 => Some(Reg::Fp(n + 1)),
            _ => None,
        }
    }

    /// The assembly name of every register the constructors build:
    /// `%g0`–`%i7`, `%f0`–`%f31`, `%icc`, `%fcc` and `%y`, read from a
    /// table. `None` for an `Int` or `Fp` number of 32 or more, which
    /// only the variants themselves can hold; `Display` renders those
    /// as `%i{n - 24}` and `%f{n}`.
    ///
    /// ```
    /// use dagsched_isa::Reg;
    /// assert_eq!(Reg::o(1).name(), Some("%o1"));
    /// assert_eq!(Reg::Fcc.name(), Some("%fcc"));
    /// assert_eq!(Reg::Int(40).name(), None);
    /// assert_eq!(Reg::Int(40).to_string(), "%i16");
    /// ```
    pub fn name(&self) -> Option<&'static str> {
        match *self {
            Reg::Int(n) => INT_NAMES.get(usize::from(n)).copied(),
            Reg::Fp(n) => FP_NAMES.get(usize::from(n)).copied(),
            Reg::Icc => Some("%icc"),
            Reg::Fcc => Some("%fcc"),
            Reg::Y => Some("%y"),
        }
    }

    /// Append this register's text to `text`.
    pub(crate) fn render(&self, text: &mut Text) {
        match *self {
            Reg::Int(n) if n < 32 => text.push_name(&INT_TEXT[usize::from(n)]),
            Reg::Fp(n) if n < 32 => text.push_name(&FP_TEXT[usize::from(n)]),
            // Past `%i7` the input bank's numbering runs on.
            Reg::Int(n) => {
                text.push_name(&Name::new("%i"));
                text.push_u64(u64::from(n - 24));
            }
            Reg::Fp(n) => {
                text.push_name(&Name::new("%f"));
                text.push_u64(u64::from(n));
            }
            Reg::Icc => text.push_name(&Name::new("%icc")),
            Reg::Fcc => text.push_name(&Name::new("%fcc")),
            Reg::Y => text.push_name(&Name::new("%y")),
        }
    }
}

/// The hardwired zero register `%g0`: the placeholder that fills the
/// unused slots of an [`InlineList`](crate::InlineList) of registers.
impl Default for Reg {
    fn default() -> Reg {
        Reg::Int(0)
    }
}

/// The names of `Int(0)` to `Int(31)`: the SPARC window banks, a row
/// each.
#[rustfmt::skip]
const INT_NAMES: [&str; 32] = [
    "%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
    "%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%o6", "%o7",
    "%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
    "%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%i6", "%i7",
];

/// The names of `Fp(0)` to `Fp(31)`.
#[rustfmt::skip]
const FP_NAMES: [&str; 32] = [
    "%f0", "%f1", "%f2", "%f3", "%f4", "%f5", "%f6", "%f7",
    "%f8", "%f9", "%f10", "%f11", "%f12", "%f13", "%f14", "%f15",
    "%f16", "%f17", "%f18", "%f19", "%f20", "%f21", "%f22", "%f23",
    "%f24", "%f25", "%f26", "%f27", "%f28", "%f29", "%f30", "%f31",
];

/// [`INT_NAMES`] and [`FP_NAMES`] padded for [`Text`].
const INT_TEXT: [Name; 32] = Name::table(INT_NAMES);
const FP_TEXT: [Name; 32] = Name::table(FP_NAMES);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        self.render(&mut text);
        f.write_str(text.as_str())
    }
}

/// Broad register classes, used by register-pressure heuristics and by the
/// workload generator's operand selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General purpose integer registers.
    Int,
    /// Floating point registers.
    Fp,
    /// Condition code registers.
    CondCode,
    /// Special registers (`%y`).
    Special,
}

/// A schedulable resource: the unit on which RAW/WAR/WAW dependencies are
/// computed during DAG construction.
///
/// Memory is represented by interned symbolic address expressions
/// ([`MemExprId`]), matching the paper's Table 3 statistic "unique memory
/// expressions". How expressions are mapped to dependence-relevant
/// resources (one resource per expression, a single serialized memory
/// resource, base+offset disambiguation, …) is a *policy* decision made by
/// the DAG construction crate; `Resource::MemAll` exists so that the
/// fully-serialized policy can be expressed in resource terms too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// An architectural register.
    Reg(Reg),
    /// One interned symbolic memory expression.
    Mem(MemExprId),
    /// All of memory as a single resource (strict load/store serialization).
    MemAll,
}

/// The register `%g0` (see [`Reg`]'s `Default`).
impl Default for Resource {
    fn default() -> Resource {
        Resource::Reg(Reg::default())
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Reg(r) => write!(f, "{r}"),
            Resource::Mem(id) => write!(f, "[mem#{}]", id.index()),
            Resource::MemAll => write!(f, "[mem]"),
        }
    }
}

impl From<Reg> for Resource {
    fn from(r: Reg) -> Resource {
        Resource::Reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_window_banks() {
        assert_eq!(Reg::int(0).to_string(), "%g0");
        assert_eq!(Reg::int(8).to_string(), "%o0");
        assert_eq!(Reg::int(17).to_string(), "%l1");
        assert_eq!(Reg::int(31).to_string(), "%i7");
        assert_eq!(Reg::Y.to_string(), "%y");
    }

    #[test]
    fn bank_constructors_agree_with_flat_numbering() {
        assert_eq!(Reg::g(3), Reg::int(3));
        assert_eq!(Reg::o(3), Reg::int(11));
        assert_eq!(Reg::l(3), Reg::int(19));
        assert_eq!(Reg::i(3), Reg::int(27));
        assert_eq!(Reg::fp(), Reg::i(6));
        assert_eq!(Reg::sp(), Reg::o(6));
    }

    #[test]
    fn g0_is_not_writable() {
        assert!(!Reg::int(0).is_writable());
        assert!(Reg::int(1).is_writable());
        assert!(Reg::f(0).is_writable());
    }

    #[test]
    fn pair_partner_is_next_register() {
        assert_eq!(Reg::f(0).pair_partner(), Some(Reg::f(1)));
        assert_eq!(Reg::int(5).pair_partner(), Some(Reg::int(6)));
        assert_eq!(Reg::f(31).pair_partner(), None);
        assert_eq!(Reg::Icc.pair_partner(), None);
    }

    #[test]
    fn classes() {
        assert_eq!(Reg::int(4).class(), RegClass::Int);
        assert_eq!(Reg::f(4).class(), RegClass::Fp);
        assert_eq!(Reg::Icc.class(), RegClass::CondCode);
        assert_eq!(Reg::Fcc.class(), RegClass::CondCode);
        assert_eq!(Reg::Y.class(), RegClass::Special);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_register_bounds_checked() {
        let _ = Reg::int(32);
    }
}
