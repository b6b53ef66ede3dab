//! An architectural interpreter for semantic-equivalence checking.
//!
//! Instruction scheduling must preserve program meaning; so must the
//! register allocator's renaming and spill code. This module executes
//! straight-line instruction sequences over concrete machine state so
//! tests can assert the strongest property available: *running the
//! transformed code produces the same memory image and live-out values as
//! the original*, for arbitrary initial states.
//!
//! Modelling notes:
//!
//! * Memory is addressed by symbolic-expression identity ([`MemExprId`]),
//!   mirroring the dependence analysis: expressions the analysis treats
//!   as distinct locations are distinct cells here, so any reordering the
//!   analysis allows is semantically harmless exactly when this
//!   interpreter says so.
//! * Floating point is IEEE `f64`; schedulers never reassociate, so
//!   results of reordered independent operations are bit-identical.
//! * Division by zero is total (defined results) to keep random testing
//!   crash-free.
//! * Control transfers and window instructions are executed as no-ops
//!   (the executor is for straight-line block bodies).

use std::collections::HashMap;

use dagsched_isa::{splitmix64, Instruction, MemExprId, Opcode, Reg};

/// Concrete machine state.
///
/// Equality is **bit-exact**: floating point registers compare by bit
/// pattern, so two identical executions compare equal even when an
/// operation produced NaN (IEEE `==` would say otherwise).
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Integer registers (`%g0` is forced to zero on read).
    pub int_regs: [i64; 32],
    /// Floating point registers.
    pub fp_regs: [f64; 32],
    /// Integer condition codes (sign of last compare).
    pub icc: i8,
    /// FP condition codes.
    pub fcc: i8,
    /// The `%y` register.
    pub y: i64,
    /// Memory cells by symbolic expression identity. Integer and FP
    /// traffic share cells via bit patterns.
    pub mem: HashMap<MemExprId, u64>,
}

impl PartialEq for MachineState {
    fn eq(&self, other: &MachineState) -> bool {
        self.int_regs == other.int_regs
            && self
                .fp_regs
                .iter()
                .zip(&other.fp_regs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.icc == other.icc
            && self.fcc == other.fcc
            && self.y == other.y
            && self.mem == other.mem
    }
}

impl Eq for MachineState {}

impl MachineState {
    /// All-zero state.
    pub fn zeroed() -> MachineState {
        MachineState {
            int_regs: [0; 32],
            fp_regs: [0.0; 32],
            icc: 0,
            fcc: 0,
            y: 0,
            mem: HashMap::new(),
        }
    }

    /// A deterministic pseudo-random state: every register and the given
    /// memory cells populated from `seed` (splitmix64).
    pub fn random(seed: u64, mem_cells: impl IntoIterator<Item = MemExprId>) -> MachineState {
        let mut x = seed;
        let mut next = move || splitmix64(&mut x);
        let mut st = MachineState::zeroed();
        for r in st.int_regs.iter_mut().skip(1) {
            *r = next() as i64;
        }
        for f in st.fp_regs.iter_mut() {
            // Map into a tame range to avoid NaN/inf noise in comparisons.
            *f = (next() % 10_000) as f64 / 16.0;
        }
        st.y = next() as i64;
        for cell in mem_cells {
            st.mem.insert(cell, next());
        }
        st
    }

    fn read_int(&self, r: Reg) -> i64 {
        match r {
            Reg::Int(0) => 0,
            Reg::Int(n) => self.int_regs[n as usize],
            Reg::Y => self.y,
            _ => 0,
        }
    }

    fn write_int(&mut self, r: Reg, v: i64) {
        match r {
            Reg::Int(0) => {}
            Reg::Int(n) => self.int_regs[n as usize] = v,
            Reg::Y => self.y = v,
            _ => {}
        }
    }

    fn read_fp(&self, r: Reg) -> f64 {
        match r {
            Reg::Fp(n) => self.fp_regs[n as usize],
            _ => 0.0,
        }
    }

    fn write_fp(&mut self, r: Reg, v: f64) {
        if let Reg::Fp(n) = r {
            self.fp_regs[n as usize] = v;
        }
    }
}

fn total_sdiv(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else {
        a.wrapping_div(b)
    }
}

fn total_udiv(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else {
        ((a as u64) / (b as u64)) as i64
    }
}

/// Execute one instruction.
pub fn step(state: &mut MachineState, insn: &Instruction) {
    use Opcode::*;
    let rs = |k: usize| insn.rs.get(k).copied();
    let src2_int = |st: &MachineState| -> i64 {
        match (rs(1), insn.imm) {
            (Some(r), _) => st.read_int(r),
            (None, Some(imm)) => imm,
            _ => 0,
        }
    };
    match insn.opcode {
        Add | AddCc => {
            let v = state.read_int(rs(0).unwrap()).wrapping_add(src2_int(state));
            if insn.opcode == AddCc {
                state.icc = v.signum() as i8;
            }
            if let Some(rd) = insn.rd {
                state.write_int(rd, v);
            }
        }
        Sub | SubCc => {
            let v = state.read_int(rs(0).unwrap()).wrapping_sub(src2_int(state));
            if insn.opcode == SubCc {
                state.icc = v.signum() as i8;
            }
            if let Some(rd) = insn.rd {
                state.write_int(rd, v);
            }
        }
        And => bin_int(state, insn, |a, b| a & b),
        Or => bin_int(state, insn, |a, b| a | b),
        Xor => bin_int(state, insn, |a, b| a ^ b),
        Sll => bin_int(state, insn, |a, b| a.wrapping_shl((b & 63) as u32)),
        Srl => bin_int(state, insn, |a, b| ((a as u64) >> ((b & 63) as u64)) as i64),
        Sra => bin_int(state, insn, |a, b| a.wrapping_shr((b & 63) as u32)),
        Sethi => {
            if let (Some(rd), Some(imm)) = (insn.rd, insn.imm) {
                state.write_int(rd, imm.wrapping_shl(10));
            }
        }
        Mov => {
            if let Some(rd) = insn.rd {
                let v = match (rs(0), insn.imm) {
                    (Some(r), _) => state.read_int(r),
                    (None, Some(imm)) => imm,
                    _ => 0,
                };
                state.write_int(rd, v);
            }
        }
        Umul | Smul => {
            let (a, b) = (state.read_int(rs(0).unwrap()), src2_int(state));
            let wide = (a as i128).wrapping_mul(b as i128);
            state.y = (wide >> 64) as i64;
            if let Some(rd) = insn.rd {
                state.write_int(rd, wide as i64);
            }
        }
        Udiv => {
            let v = total_udiv(state.read_int(rs(0).unwrap()), src2_int(state));
            state.y = 0;
            if let Some(rd) = insn.rd {
                state.write_int(rd, v);
            }
        }
        Sdiv => {
            let v = total_sdiv(state.read_int(rs(0).unwrap()), src2_int(state));
            state.y = 0;
            if let Some(rd) = insn.rd {
                state.write_int(rd, v);
            }
        }
        RdY => {
            if let Some(rd) = insn.rd {
                let v = state.y;
                state.write_int(rd, v);
            }
        }
        Ld => {
            let cell = mem_cell(state, insn);
            if let Some(rd) = insn.rd {
                state.write_int(rd, cell as i64);
            }
        }
        Ldd => {
            let cell = mem_cell(state, insn);
            if let Some(rd) = insn.rd {
                state.write_int(rd, cell as i64);
                if let Some(hi) = rd.pair_partner() {
                    state.write_int(hi, (cell as i64).rotate_left(32));
                }
            }
        }
        LdF => {
            // Exact inverse of `StF` for finite values (so spill/reload
            // round-trips are lossless); random cells that decode to
            // NaN/inf are sanitized deterministically.
            let cell = mem_cell(state, insn);
            if let Some(rd) = insn.rd {
                let v = f64::from_bits(cell);
                let v = if v.is_finite() {
                    v
                } else {
                    (cell % 100_000) as f64 / 16.0
                };
                state.write_fp(rd, v);
            }
        }
        LdDf => {
            let cell = mem_cell(state, insn);
            if let Some(rd) = insn.rd {
                let v = (cell % 100_000) as f64 / 8.0;
                state.write_fp(rd, v);
                if let Some(hi) = rd.pair_partner() {
                    state.write_fp(hi, v + 0.5);
                }
            }
        }
        St => {
            let v = state.read_int(insn.rs[0]) as u64;
            store(state, insn, v);
        }
        Std => {
            let lo = state.read_int(insn.rs[0]) as u64;
            let hi = insn.rs[0]
                .pair_partner()
                .map(|p| state.read_int(p) as u64)
                .unwrap_or(0);
            store(state, insn, lo ^ hi.rotate_left(17));
        }
        StF => {
            let v = state.read_fp(insn.rs[0]).to_bits();
            store(state, insn, v);
        }
        StDf => {
            let lo = state.read_fp(insn.rs[0]).to_bits();
            let hi = insn.rs[0]
                .pair_partner()
                .map(|p| state.read_fp(p).to_bits())
                .unwrap_or(0);
            store(state, insn, lo ^ hi.rotate_left(21));
        }
        FAddS | FAddD => bin_fp(state, insn, |a, b| a + b),
        FSubS | FSubD => bin_fp(state, insn, |a, b| a - b),
        FMulS | FMulD => bin_fp(state, insn, |a, b| a * b),
        FDivS | FDivD => bin_fp(state, insn, |a, b| if b == 0.0 { 0.0 } else { a / b }),
        FSqrtD => un_fp(state, insn, |a| a.abs().sqrt()),
        FMovS => un_fp(state, insn, |a| a),
        FNegS => un_fp(state, insn, |a| -a),
        FAbsS => un_fp(state, insn, |a| a.abs()),
        FCmpS | FCmpD => {
            let a = state.read_fp(insn.rs[0]);
            let b = state.read_fp(insn.rs[1]);
            state.fcc = if a < b { -1 } else { i8::from(a > b) };
        }
        FiToS | FiToD => {
            // Modelled over the FP file (conversion of a staged value).
            un_fp(state, insn, |a| a.trunc())
        }
        FsToD | FdToS => un_fp(state, insn, |a| a),
        FsToI | FdToI => un_fp(state, insn, |a| a.trunc()),
        Ba | Bicc | Fbcc | Call | Jmpl | Save | Restore | Nop => {}
    }
}

fn bin_int(state: &mut MachineState, insn: &Instruction, f: impl Fn(i64, i64) -> i64) {
    let a = state.read_int(insn.rs[0]);
    let b = match (insn.rs.get(1), insn.imm) {
        (Some(&r), _) => state.read_int(r),
        (None, Some(imm)) => imm,
        _ => 0,
    };
    if let Some(rd) = insn.rd {
        state.write_int(rd, f(a, b));
    }
}

fn bin_fp(state: &mut MachineState, insn: &Instruction, f: impl Fn(f64, f64) -> f64) {
    let a = state.read_fp(insn.rs[0]);
    let b = state.read_fp(insn.rs[1]);
    if let Some(rd) = insn.rd {
        state.write_fp(rd, f(a, b));
    }
}

fn un_fp(state: &mut MachineState, insn: &Instruction, f: impl Fn(f64) -> f64) {
    let a = state.read_fp(insn.rs[0]);
    if let Some(rd) = insn.rd {
        state.write_fp(rd, f(a));
    }
}

fn mem_cell(state: &MachineState, insn: &Instruction) -> u64 {
    let expr = insn.mem.as_ref().expect("memory op").expr;
    state.mem.get(&expr).copied().unwrap_or(0)
}

fn store(state: &mut MachineState, insn: &Instruction, v: u64) {
    let expr = insn.mem.as_ref().expect("memory op").expr;
    state.mem.insert(expr, v);
}

/// Execute a straight-line sequence.
pub fn execute(insns: &[Instruction], state: &mut MachineState) {
    for insn in insns {
        step(state, insn);
    }
}

/// Run `insns` from `initial` and return the final state.
pub fn run(insns: &[Instruction], initial: &MachineState) -> MachineState {
    let mut st = initial.clone();
    execute(insns, &mut st);
    st
}

/// Compare two final states on their *memory images* (excluding the given
/// scratch cells, e.g. register-allocator spill slots) and, optionally,
/// on a set of live-out registers. Returns a description of the first
/// difference.
pub fn equivalent_observable(
    a: &MachineState,
    b: &MachineState,
    ignore_cells: &[MemExprId],
    live_out_int: &[Reg],
    live_out_fp: &[Reg],
) -> Result<(), String> {
    let keys: std::collections::BTreeSet<MemExprId> = a
        .mem
        .keys()
        .chain(b.mem.keys())
        .copied()
        .filter(|k| !ignore_cells.contains(k))
        .collect();
    for k in keys {
        let va = a.mem.get(&k).copied().unwrap_or(0);
        let vb = b.mem.get(&k).copied().unwrap_or(0);
        if va != vb {
            return Err(format!("memory cell {k} differs: {va:#x} vs {vb:#x}"));
        }
    }
    for &r in live_out_int {
        if a.read_int(r) != b.read_int(r) {
            return Err(format!(
                "{r} differs: {} vs {}",
                a.read_int(r),
                b.read_int(r)
            ));
        }
    }
    for &r in live_out_fp {
        if a.read_fp(r).to_bits() != b.read_fp(r).to_bits() {
            return Err(format!("{r} differs: {} vs {}", a.read_fp(r), b.read_fp(r)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{MemExprPool, MemRef};

    #[test]
    fn integer_arithmetic_and_flags() {
        let mut st = MachineState::zeroed();
        st.int_regs[8] = 7; // %o0
        st.int_regs[9] = 5; // %o1
        execute(
            &[
                Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
                Instruction::int_imm(Opcode::Sub, Reg::o(2), 2, Reg::o(3)),
                Instruction::cmp(Reg::o(3), Reg::o(0)),
            ],
            &mut st,
        );
        assert_eq!(st.int_regs[10], 12);
        assert_eq!(st.int_regs[11], 10);
        assert_eq!(st.icc, 1, "10 > 7");
    }

    #[test]
    fn g0_reads_zero_and_ignores_writes() {
        let mut st = MachineState::zeroed();
        st.int_regs[8] = 42;
        execute(
            &[Instruction::int3(
                Opcode::Add,
                Reg::o(0),
                Reg::g(0),
                Reg::g(0),
            )],
            &mut st,
        );
        assert_eq!(st.int_regs[0], 0);
        assert_eq!(st.read_int(Reg::g(0)), 0);
    }

    #[test]
    fn memory_round_trip() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let mut st = MachineState::zeroed();
        st.int_regs[8] = 1234;
        execute(
            &[
                Instruction::store(Opcode::St, Reg::o(0), MemRef::base_offset(Reg::fp(), -8, e)),
                Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::o(1)),
            ],
            &mut st,
        );
        assert_eq!(st.int_regs[9], 1234);
        assert_eq!(st.mem[&e], 1234);
    }

    #[test]
    fn fp_pipeline_and_compare() {
        let mut st = MachineState::zeroed();
        st.fp_regs[0] = 6.0;
        st.fp_regs[2] = 3.0;
        execute(
            &[
                Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
                Instruction::fp3(Opcode::FMulD, Reg::f(4), Reg::f(2), Reg::f(6)),
                Instruction::fcmp(Opcode::FCmpD, Reg::f(6), Reg::f(0)),
            ],
            &mut st,
        );
        assert_eq!(st.fp_regs[4], 2.0);
        assert_eq!(st.fp_regs[6], 6.0);
        assert_eq!(st.fcc, 0, "equal");
    }

    #[test]
    fn division_is_total() {
        let mut st = MachineState::zeroed();
        st.int_regs[8] = 10;
        execute(
            &[
                Instruction::int3(Opcode::Sdiv, Reg::o(0), Reg::g(0), Reg::o(1)),
                Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            ],
            &mut st,
        );
        assert_eq!(st.int_regs[9], -1);
        assert_eq!(st.fp_regs[4], 0.0);
    }

    #[test]
    fn random_state_is_deterministic() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("x");
        let a = MachineState::random(7, [e]);
        let b = MachineState::random(7, [e]);
        assert_eq!(a, b);
        let c = MachineState::random(8, [e]);
        assert_ne!(a, c);
        assert_eq!(a.int_regs[0], 0, "g0 stays zero");
    }

    #[test]
    fn observable_equivalence_ignores_scratch_cells() {
        let mut pool = MemExprPool::new();
        let real = pool.intern("[%fp-8]");
        let spill = pool.intern("[%fp-spill0]");
        let mut a = MachineState::zeroed();
        a.mem.insert(real, 5);
        let mut b = a.clone();
        b.mem.insert(spill, 99);
        assert!(equivalent_observable(&a, &b, &[spill], &[], &[]).is_ok());
        assert!(equivalent_observable(&a, &b, &[], &[], &[]).is_err());
        b.mem.insert(real, 6);
        assert!(equivalent_observable(&a, &b, &[spill], &[], &[]).is_err());
    }

    #[test]
    fn dword_pairs_are_deterministic_functions_of_the_cell() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%o0]");
        let mut st = MachineState::zeroed();
        st.mem.insert(e, 0xdeadbeef);
        let ld = Instruction::load(
            Opcode::LdDf,
            MemRef::base_offset(Reg::o(0), 0, e),
            Reg::f(2),
        );
        step(&mut st, &ld);
        assert_eq!(st.fp_regs[3], st.fp_regs[2] + 0.5);
        let mut st2 = MachineState::zeroed();
        st2.mem.insert(e, 0xdeadbeef);
        step(&mut st2, &ld);
        assert_eq!(st.fp_regs[2].to_bits(), st2.fp_regs[2].to_bits());
    }
}
