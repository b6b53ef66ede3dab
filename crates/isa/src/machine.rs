//! Machine timing model: arc latency rules and function units.

use std::fmt;

use crate::insn::Instruction;
use crate::opcode::{InsnClass, Opcode};
use crate::reg::Resource;

/// Data dependence kinds, as classified in the paper's introduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Read-after-write: true dependence.
    Raw,
    /// Write-after-read: anti-dependence.
    War,
    /// Write-after-write: output dependence.
    Waw,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DepKind::Raw => "RAW",
            DepKind::War => "WAR",
            DepKind::Waw => "WAW",
        })
    }
}

/// Function units available for structural-hazard modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuncUnit {
    /// Integer ALU (also executes branches, window ops and nops here).
    IntAlu,
    /// Load/store unit.
    LoadStore,
    /// Floating point adder (add/sub/compare/convert/move).
    FpAdd,
    /// Floating point multiplier.
    FpMul,
    /// Floating point divide/sqrt unit (typically unpipelined).
    FpDiv,
}

impl FuncUnit {
    /// All function units.
    pub const ALL: &'static [FuncUnit] = &[
        FuncUnit::IntAlu,
        FuncUnit::LoadStore,
        FuncUnit::FpAdd,
        FuncUnit::FpMul,
        FuncUnit::FpDiv,
    ];

    /// Number of function units: the length of a table indexed by
    /// [`FuncUnit::index`].
    pub const COUNT: usize = 5;

    /// Dense index of this unit (`0..COUNT`, in [`FuncUnit::ALL`]
    /// order), for per-unit tables such as busy-until times.
    pub fn index(self) -> usize {
        match self {
            FuncUnit::IntAlu => 0,
            FuncUnit::LoadStore => 1,
            FuncUnit::FpAdd => 2,
            FuncUnit::FpMul => 3,
            FuncUnit::FpDiv => 4,
        }
    }

    /// The unit an instruction class executes on.
    pub fn for_class(class: InsnClass) -> FuncUnit {
        match class {
            InsnClass::Mem => FuncUnit::LoadStore,
            InsnClass::FpAdd => FuncUnit::FpAdd,
            InsnClass::FpMul => FuncUnit::FpMul,
            InsnClass::FpDiv => FuncUnit::FpDiv,
            _ => FuncUnit::IntAlu,
        }
    }
}

impl fmt::Display for FuncUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FuncUnit::IntAlu => "ialu",
            FuncUnit::LoadStore => "ldst",
            FuncUnit::FpAdd => "fadd",
            FuncUnit::FpMul => "fmul",
            FuncUnit::FpDiv => "fdiv",
        })
    }
}

/// Description of one function unit in a [`MachineModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitDesc {
    /// Which unit.
    pub unit: FuncUnit,
    /// Whether the unit accepts a new operation every cycle. An unpipelined
    /// unit is busy for the full execution latency of each operation —
    /// the structural hazard behind the paper's "busy times for floating
    /// point function units" heuristic.
    pub pipelined: bool,
}

/// The timing model used to weight DAG arcs and to simulate schedules.
///
/// Arc latencies follow the paper's discussion in §2:
///
/// * **RAW** delay is the producer's result latency, with optional
///   machine-specific adjustments — a discount when the consumer is a
///   store (operand bypass directly into the store pipeline), a penalty
///   when the value is consumed as the *second* source operand (asymmetric
///   bypass paths, the paper's RS/6000 example), and a skew for the second
///   register of a double-word load pair.
/// * **WAR** delays are short (default 1): the parent reads its operand in
///   an early pipe stage, so the child may overwrite it almost immediately.
///   Figure 1's correctness argument for retaining transitive arcs depends
///   on exactly this.
/// * **WAW** delays default to 1 (writes must merely stay ordered).
///
/// Construct a preset with [`MachineModel::sparc2`],
/// [`MachineModel::rs6000_like`] or [`MachineModel::deep_fpu`], then
/// customize via the builder-style setters.
///
/// ```
/// use dagsched_isa::{Instruction, MachineModel, Opcode, Reg, Resource};
/// let m = MachineModel::sparc2();
/// let div = Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4));
/// let add = Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8));
/// let lat = m.raw_latency(&div, &add, Resource::Reg(Reg::f(4)));
/// assert_eq!(lat, 20);
/// ```
#[derive(Debug, Clone)]
pub struct MachineModel {
    name: String,
    /// Result latency per opcode ([`Opcode::index`]): the opcode's
    /// default, or the override set for it.
    latency: [u32; Opcode::COUNT],
    /// Which opcodes' latencies were overridden. The fingerprint covers
    /// the overrides, not the whole table, so an override equal to the
    /// default still changes it.
    overridden: [bool; Opcode::COUNT],
    war_delay: u32,
    waw_delay: u32,
    store_forward_discount: u32,
    second_src_penalty: u32,
    dword_pair_skew: u32,
    units: Vec<UnitDesc>,
    /// Whether each unit ([`FuncUnit::index`]) is pipelined, as `units`
    /// says.
    pipelined: [bool; FuncUnit::COUNT],
    issue_width: u32,
}

impl MachineModel {
    /// A model with the given name, default opcode latencies, WAR/WAW
    /// delays of 1, no bypass asymmetries, fully pipelined units except the
    /// FP divider, and single issue.
    pub fn new(name: impl Into<String>) -> MachineModel {
        let units = vec![
            UnitDesc {
                unit: FuncUnit::IntAlu,
                pipelined: true,
            },
            UnitDesc {
                unit: FuncUnit::LoadStore,
                pipelined: true,
            },
            UnitDesc {
                unit: FuncUnit::FpAdd,
                pipelined: true,
            },
            UnitDesc {
                unit: FuncUnit::FpMul,
                pipelined: true,
            },
            UnitDesc {
                unit: FuncUnit::FpDiv,
                pipelined: false,
            },
        ];
        let mut pipelined = [true; FuncUnit::COUNT];
        for u in &units {
            pipelined[u.unit.index()] = u.pipelined;
        }
        MachineModel {
            name: name.into(),
            latency: std::array::from_fn(|i| Opcode::ALL[i].default_latency()),
            overridden: [false; Opcode::COUNT],
            war_delay: 1,
            waw_delay: 1,
            store_forward_discount: 0,
            second_src_penalty: 0,
            dword_pair_skew: 0,
            units,
            pipelined,
            issue_width: 1,
        }
    }

    /// SPARCstation-2-flavoured preset: the default latencies of
    /// [`Opcode::default_latency`] (20-cycle `fdivd`, 4-cycle `faddd`,
    /// one-delay-slot loads — the numbers of the paper's Figure 1), a
    /// double-word load pair skew of 1 cycle, and an unpipelined FP
    /// divider.
    pub fn sparc2() -> MachineModel {
        let mut m = MachineModel::new("sparc2");
        m.dword_pair_skew = 1;
        m
    }

    /// RS/6000-flavoured preset exhibiting the asymmetric bypass paths the
    /// paper describes: +1 cycle when a value is consumed as the second
    /// source operand, and a 1-cycle discount when the consumer is a store.
    pub fn rs6000_like() -> MachineModel {
        let mut m = MachineModel::new("rs6000-like");
        m.second_src_penalty = 1;
        m.store_forward_discount = 1;
        m.dword_pair_skew = 1;
        m
    }

    /// A model with a deeper floating point pipeline (longer latencies),
    /// useful for stressing critical-path heuristics in ablations.
    pub fn deep_fpu() -> MachineModel {
        let mut m = MachineModel::new("deep-fpu")
            .with_latency(Opcode::FAddS, 6)
            .with_latency(Opcode::FAddD, 6)
            .with_latency(Opcode::FSubS, 6)
            .with_latency(Opcode::FSubD, 6)
            .with_latency(Opcode::FMulS, 10)
            .with_latency(Opcode::FMulD, 12)
            .with_latency(Opcode::FDivS, 26)
            .with_latency(Opcode::FDivD, 40)
            .with_latency(Opcode::Ld, 3)
            .with_latency(Opcode::LdF, 3)
            .with_latency(Opcode::Ldd, 4)
            .with_latency(Opcode::LdDf, 4);
        m.dword_pair_skew = 1;
        m
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A deterministic 64-bit fingerprint of every timing-relevant field.
    ///
    /// Two models with equal fingerprints weight DAG arcs identically, so
    /// the scheduling service may share cached schedules between them;
    /// any builder-setter change (latency override, WAR/WAW delay, issue
    /// width, unit pipelining) changes the fingerprint. The latency
    /// overrides are hashed sorted by opcode name, so the value does not
    /// depend on the order they were set in or on the opcodes' order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        h.write_str(&self.name);
        h.write_u32(self.war_delay);
        h.write_u32(self.waw_delay);
        h.write_u32(self.store_forward_discount);
        h.write_u32(self.second_src_penalty);
        h.write_u32(self.dword_pair_skew);
        h.write_u32(self.issue_width);
        let mut overrides: Vec<(String, u32)> = Opcode::ALL
            .iter()
            .filter(|op| self.overridden[op.index()])
            .map(|op| (format!("{op:?}"), self.latency[op.index()]))
            .collect();
        overrides.sort();
        h.write_u64(overrides.len() as u64);
        for (op, cycles) in &overrides {
            h.write_str(op);
            h.write_u32(*cycles);
        }
        h.write_u64(self.units.len() as u64);
        for u in &self.units {
            h.write_str(&format!("{:?}", u.unit));
            h.write_u32(u.pipelined as u32);
        }
        h.finish()
    }

    /// Override the result latency of `op`.
    pub fn with_latency(mut self, op: Opcode, cycles: u32) -> MachineModel {
        self.latency[op.index()] = cycles;
        self.overridden[op.index()] = true;
        self
    }

    /// Set the WAR arc delay.
    pub fn with_war_delay(mut self, cycles: u32) -> MachineModel {
        self.war_delay = cycles;
        self
    }

    /// Set the WAW arc delay.
    pub fn with_waw_delay(mut self, cycles: u32) -> MachineModel {
        self.waw_delay = cycles;
        self
    }

    /// Set the superscalar issue width (used by the pipeline simulator and
    /// the "alternate type" heuristic's rationale).
    pub fn with_issue_width(mut self, width: u32) -> MachineModel {
        assert!(width >= 1);
        self.issue_width = width;
        self
    }

    /// Mark a function unit pipelined or not.
    pub fn with_unit_pipelined(mut self, unit: FuncUnit, pipelined: bool) -> MachineModel {
        for u in &mut self.units {
            if u.unit == unit {
                u.pipelined = pipelined;
                self.pipelined[unit.index()] = pipelined;
            }
        }
        self
    }

    /// Execution (result) latency of an instruction.
    #[inline]
    pub fn exec_latency(&self, insn: &Instruction) -> u32 {
        self.latency[insn.opcode.index()]
    }

    /// The function unit an instruction executes on.
    pub fn unit_of(&self, insn: &Instruction) -> FuncUnit {
        FuncUnit::for_class(insn.class())
    }

    /// Whether the unit executing `insn` is pipelined.
    #[inline]
    pub fn unit_pipelined(&self, insn: &Instruction) -> bool {
        self.pipelined[self.unit_of(insn).index()]
    }

    /// Function unit descriptions.
    pub fn units(&self) -> &[UnitDesc] {
        &self.units
    }

    /// Superscalar issue width.
    pub fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// RAW arc delay from `parent` to `child` through `res`.
    ///
    /// Starts from the parent's result latency, then applies:
    /// * the double-word pair skew if `res` is the *second* register of a
    ///   double-word load pair,
    /// * the store-forwarding discount if `child` is a store consuming the
    ///   value as its stored operand,
    /// * the second-source-operand penalty if `child` consumes `res` as its
    ///   second register source.
    ///
    /// The result is never less than 1.
    pub fn raw_latency(&self, parent: &Instruction, child: &Instruction, res: Resource) -> u32 {
        let mut lat = self.exec_latency(parent) as i64;
        if self.dword_pair_skew > 0 && parent.opcode.is_dword() && parent.is_load() {
            if let (Some(rd), Resource::Reg(r)) = (parent.rd, res) {
                if rd.pair_partner() == Some(r) {
                    lat += self.dword_pair_skew as i64;
                }
            }
        }
        match child.src_position(res) {
            Some(pos) => {
                if child.is_store() && pos == 0 {
                    lat -= self.store_forward_discount as i64;
                } else if pos == 1 {
                    lat += self.second_src_penalty as i64;
                }
            }
            None => {
                // Consumed as an address register or condition code: no
                // operand-slot adjustment applies.
            }
        }
        lat.max(1) as u32
    }

    /// WAR arc delay (short: the parent reads early in the pipe).
    pub fn war_latency(&self, _parent: &Instruction, _child: &Instruction, _res: Resource) -> u32 {
        self.war_delay
    }

    /// WAW arc delay.
    pub fn waw_latency(&self, _parent: &Instruction, _child: &Instruction, _res: Resource) -> u32 {
        self.waw_delay
    }

    /// Arc delay for an arbitrary dependence kind.
    pub fn dep_latency(
        &self,
        kind: DepKind,
        parent: &Instruction,
        child: &Instruction,
        res: Resource,
    ) -> u32 {
        match kind {
            DepKind::Raw => self.raw_latency(parent, child, res),
            DepKind::War => self.war_latency(parent, child, res),
            DepKind::Waw => self.waw_latency(parent, child, res),
        }
    }

    /// Whether an RAW arc from `parent` would interlock a child issued in
    /// the very next cycle — i.e. the producer has at least one delay slot.
    pub fn has_delay_slots(&self, parent: &Instruction) -> bool {
        self.exec_latency(parent) > 1
    }
}

impl Default for MachineModel {
    fn default() -> MachineModel {
        MachineModel::sparc2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::MemRef;
    use crate::memexpr::MemExprPool;
    use crate::reg::Reg;

    #[test]
    fn default_latency_is_opcode_default() {
        let m = MachineModel::sparc2();
        let i = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
        assert_eq!(m.exec_latency(&i), 1);
        let d = Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4));
        assert_eq!(m.exec_latency(&d), 20);
    }

    #[test]
    fn latency_override_applies() {
        let m = MachineModel::sparc2().with_latency(Opcode::FDivD, 25);
        let d = Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4));
        assert_eq!(m.exec_latency(&d), 25);
    }

    #[test]
    fn war_and_waw_delays() {
        let m = MachineModel::sparc2();
        let a = Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(2), Reg::f(4));
        let b = Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(8), Reg::f(0));
        assert_eq!(m.war_latency(&a, &b, Resource::Reg(Reg::f(0))), 1);
        assert_eq!(m.waw_latency(&a, &b, Resource::Reg(Reg::f(4))), 1);
    }

    #[test]
    fn dword_pair_skew_applies_to_second_register_only() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let m = MachineModel::sparc2();
        let ld = Instruction::load(
            Opcode::LdDf,
            MemRef::base_offset(Reg::o(0), 0, e),
            Reg::f(2),
        );
        let use_lo = Instruction::fp3(Opcode::FAddD, Reg::f(2), Reg::f(6), Reg::f(8));
        let use_hi = Instruction::fp3(Opcode::FAddD, Reg::f(3), Reg::f(6), Reg::f(8));
        assert_eq!(m.raw_latency(&ld, &use_lo, Resource::Reg(Reg::f(2))), 3);
        assert_eq!(m.raw_latency(&ld, &use_hi, Resource::Reg(Reg::f(3))), 4);
    }

    #[test]
    fn rs6000_asymmetric_bypass() {
        let m = MachineModel::rs6000_like();
        let mul = Instruction::fp3(Opcode::FMulD, Reg::f(0), Reg::f(2), Reg::f(4));
        let as_first = Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8));
        let as_second = Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(4), Reg::f(8));
        let base = m.exec_latency(&mul);
        assert_eq!(
            m.raw_latency(&mul, &as_first, Resource::Reg(Reg::f(4))),
            base
        );
        assert_eq!(
            m.raw_latency(&mul, &as_second, Resource::Reg(Reg::f(4))),
            base + 1
        );
    }

    #[test]
    fn store_forwarding_discount() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let m = MachineModel::rs6000_like();
        let mul = Instruction::fp3(Opcode::FMulD, Reg::f(0), Reg::f(2), Reg::f(4));
        let st = Instruction::store(
            Opcode::StDf,
            Reg::f(4),
            MemRef::base_offset(Reg::o(0), 0, e),
        );
        let base = m.exec_latency(&mul);
        assert_eq!(m.raw_latency(&mul, &st, Resource::Reg(Reg::f(4))), base - 1);
    }

    #[test]
    fn raw_latency_never_below_one() {
        let m = MachineModel::rs6000_like();
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let mov = Instruction::mov_imm(1, Reg::o(1));
        let st = Instruction::store(Opcode::St, Reg::o(1), MemRef::base_offset(Reg::o(0), 0, e));
        // exec latency 1, discount 1 would give 0 — must clamp to 1.
        assert_eq!(m.raw_latency(&mov, &st, Resource::Reg(Reg::o(1))), 1);
    }

    #[test]
    fn fp_divider_is_unpipelined_by_default() {
        let m = MachineModel::sparc2();
        let d = Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4));
        let a = Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(2), Reg::f(4));
        assert!(!m.unit_pipelined(&d));
        assert!(m.unit_pipelined(&a));
        let m2 = MachineModel::sparc2().with_unit_pipelined(FuncUnit::FpDiv, true);
        assert!(m2.unit_pipelined(&d));
    }

    #[test]
    fn address_register_consumption_has_no_slot_adjustment() {
        // A value consumed as a load's *base register* is not a register
        // source operand; no second-operand penalty applies.
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o2]");
        let m = MachineModel::rs6000_like();
        let add = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
        let ld = Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(2), 0, e), Reg::o(3));
        assert_eq!(m.raw_latency(&add, &ld, Resource::Reg(Reg::o(2))), 1);
    }

    #[test]
    fn delay_slot_detection() {
        let m = MachineModel::sparc2();
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let ld = Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::o(0), 0, e), Reg::o(1));
        let add = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
        assert!(m.has_delay_slots(&ld));
        assert!(!m.has_delay_slots(&add));
    }

    /// Cache keys hash the fingerprint, and persisted cache entries
    /// outlive a build: these values must not change when the model's
    /// storage does.
    #[test]
    fn fingerprints_are_pinned() {
        let pinned = [
            (MachineModel::sparc2(), 0xe8fe_9ec8_64e2_fa19_u64),
            (MachineModel::rs6000_like(), 0xf3ba_852d_6a42_b94e),
            (MachineModel::deep_fpu(), 0x4fc0_77e8_10e4_808a),
            (
                MachineModel::sparc2()
                    .with_latency(Opcode::Add, 1)
                    .with_latency(Opcode::FDivD, 25),
                0x0aea_4c22_aedf_9ed7,
            ),
            (
                MachineModel::new("custom")
                    .with_unit_pipelined(FuncUnit::FpDiv, true)
                    .with_war_delay(2)
                    .with_waw_delay(3)
                    .with_issue_width(2),
                0x18df_2bf6_a49d_d539,
            ),
        ];
        for (model, fingerprint) in pinned {
            assert_eq!(model.fingerprint(), fingerprint, "{}", model.name());
        }
    }

    #[test]
    fn dense_tables_follow_the_setters() {
        let m = MachineModel::deep_fpu()
            .with_latency(Opcode::Add, 3)
            .with_unit_pipelined(FuncUnit::FpDiv, true)
            .with_unit_pipelined(FuncUnit::IntAlu, false);
        for &op in Opcode::ALL {
            let insn = Instruction::new(op);
            let expected = match op {
                Opcode::Add => 3,
                Opcode::FAddS | Opcode::FAddD | Opcode::FSubS | Opcode::FSubD => 6,
                Opcode::FMulS => 10,
                Opcode::FMulD => 12,
                Opcode::FDivS => 26,
                Opcode::FDivD => 40,
                Opcode::Ld | Opcode::LdF => 3,
                Opcode::Ldd | Opcode::LdDf => 4,
                _ => op.default_latency(),
            };
            assert_eq!(m.exec_latency(&insn), expected, "{op:?}");
            let unit = m.unit_of(&insn);
            let listed = m.units().iter().find(|u| u.unit == unit).unwrap();
            assert_eq!(m.unit_pipelined(&insn), listed.pipelined, "{op:?}");
            assert_eq!(m.unit_pipelined(&insn), unit != FuncUnit::IntAlu, "{op:?}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = MachineModel::sparc2();
        let b = MachineModel::sparc2();
        // Deterministic across construction (HashMap order must not leak).
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Every preset is distinct.
        assert_ne!(
            MachineModel::sparc2().fingerprint(),
            MachineModel::rs6000_like().fingerprint()
        );
        assert_ne!(
            MachineModel::sparc2().fingerprint(),
            MachineModel::deep_fpu().fingerprint()
        );
        // Any builder tweak changes the fingerprint.
        assert_ne!(
            a.fingerprint(),
            MachineModel::sparc2()
                .with_latency(Opcode::Add, 9)
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            MachineModel::sparc2().with_war_delay(3).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            MachineModel::sparc2().with_issue_width(2).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            MachineModel::sparc2()
                .with_unit_pipelined(FuncUnit::FpAdd, false)
                .fingerprint()
        );
    }
}
