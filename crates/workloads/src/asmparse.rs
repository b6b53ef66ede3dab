//! A small assembly parser for tests, examples and hand-written blocks.
//!
//! Two syntaxes are accepted, line by line:
//!
//! * SPARC-flavoured: `add %o0, %o1, %o2`, `ld [%fp-8], %l0`,
//!   `st %l0, [%fp-8]`, `fdivd %f0, %f2, %f4`, `cmp %o0, %o1`, `bne L1`,
//!   `call f`, `nop`, `save`, `restore`.
//! * The paper's Figure 1 notation: `DIVF R1,R2,R3` (meaning
//!   `R3 = R1 / R2` — destination **last**), `ADDF R4,R5,R1`,
//!   `SUBF`/`MULF` likewise, with `Rn` mapping to `%fn`.
//!
//! Comments start with `!`, `;` or `#`; labels (`name:`) are skipped.

use dagsched_isa::{Instruction, MemRef, Opcode, Program, Reg};

/// A parse failure, with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Parse an assembly listing into a [`Program`].
///
/// # Errors
///
/// Returns the first line that fails to parse.
///
/// ```
/// use dagsched_workloads::parse_asm;
/// let prog = parse_asm("
///     ! the paper's Figure 1
///     DIVF R1,R2,R3
///     ADDF R4,R5,R1
///     ADDF R1,R3,R6
/// ").unwrap();
/// assert_eq!(prog.len(), 3);
/// ```
pub fn parse_asm(text: &str) -> Result<Program, ParseAsmError> {
    let mut prog = Program::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.ends_with(':') {
            continue;
        }
        let insn = parse_line(line, &mut prog).map_err(|message| ParseAsmError {
            line: lineno + 1,
            message,
        })?;
        prog.push(insn);
    }
    Ok(prog)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find(['!', ';', '#']).unwrap_or(line.len());
    &line[..cut]
}

fn parse_line(line: &str, prog: &mut Program) -> Result<Instruction, String> {
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let (ops, n) = split_operands(rest);
    // Figure 1 notation: dst-last FP three-address ops on Rn registers.
    if let Some(op) = fig1_opcode(mnemonic) {
        if n != 3 {
            return Err(format!("{mnemonic} expects 3 operands"));
        }
        let a = parse_fig1_reg(ops[0])?;
        let b = parse_fig1_reg(ops[1])?;
        let d = parse_fig1_reg(ops[2])?;
        return Ok(Instruction::fp3(op, a, b, d));
    }

    let op =
        Opcode::from_mnemonic(mnemonic).ok_or_else(|| format!("unknown mnemonic `{mnemonic}`"))?;
    match op {
        Opcode::Nop | Opcode::Save | Opcode::Restore => Ok(Instruction::new(op)),
        Opcode::Ba | Opcode::Bicc | Opcode::Fbcc | Opcode::Call | Opcode::Jmpl => {
            Ok(Instruction::branch(op))
        }
        _ if op.mem_access() == Some(dagsched_isa::MemAccessKind::Load) => {
            if n != 2 {
                return Err(format!("{mnemonic} expects `[addr], reg`"));
            }
            let mem = parse_mem(ops[0], prog)?;
            let rd = parse_reg(ops[1])?;
            Ok(Instruction::load(op, mem, rd))
        }
        _ if op.mem_access() == Some(dagsched_isa::MemAccessKind::Store) => {
            if n != 2 {
                return Err(format!("{mnemonic} expects `reg, [addr]`"));
            }
            let rs = parse_reg(ops[0])?;
            let mem = parse_mem(ops[1], prog)?;
            Ok(Instruction::store(op, rs, mem))
        }
        Opcode::RdY => {
            // SPARC's `rd %y, reg`, or `rd reg` as `Display` prints it.
            let rd = match (n, ops[0]) {
                (1, _) => ops[0],
                (2, "%y") => ops[1],
                _ => return Err("rd expects `%y, reg` or `reg`".into()),
            };
            Ok(Instruction {
                rd: Some(parse_reg(rd)?),
                ..Instruction::new(op)
            })
        }
        Opcode::SubCc if n == 2 => {
            // `cmp a, b`
            Ok(Instruction::cmp(parse_reg(ops[0])?, parse_reg(ops[1])?))
        }
        Opcode::Sethi => {
            if n != 2 {
                return Err("sethi expects `imm, reg`".into());
            }
            Ok(Instruction::sethi(parse_imm(ops[0])?, parse_reg(ops[1])?))
        }
        Opcode::Mov => {
            if n != 2 {
                return Err("mov expects `imm|reg, reg`".into());
            }
            let rd = parse_reg(ops[1])?;
            match try_reg(ops[0]) {
                Ok(rs) => Ok(Instruction::fp2(Opcode::Mov, rs, rd)),
                Err(_) => Ok(Instruction::mov_imm(parse_imm(ops[0])?, rd)),
            }
        }
        Opcode::FCmpS | Opcode::FCmpD => {
            if n != 2 {
                return Err(format!("{mnemonic} expects 2 operands"));
            }
            Ok(Instruction::fcmp(
                op,
                parse_reg(ops[0])?,
                parse_reg(ops[1])?,
            ))
        }
        Opcode::FMovS
        | Opcode::FNegS
        | Opcode::FAbsS
        | Opcode::FSqrtD
        | Opcode::FiToS
        | Opcode::FiToD
        | Opcode::FsToD
        | Opcode::FdToS
        | Opcode::FsToI
        | Opcode::FdToI => {
            if n != 2 {
                return Err(format!("{mnemonic} expects 2 operands"));
            }
            Ok(Instruction::fp2(op, parse_reg(ops[0])?, parse_reg(ops[1])?))
        }
        _ => {
            // Three-address integer/FP: `op a, b, d` or `op a, imm, d`.
            if n != 3 {
                return Err(format!("{mnemonic} expects 3 operands"));
            }
            let a = parse_reg(ops[0])?;
            let d = parse_reg(ops[2])?;
            match try_reg(ops[1]) {
                Ok(b) if op.is_fp() => Ok(Instruction::fp3(op, a, b, d)),
                Ok(b) => Ok(Instruction::int3(op, a, b, d)),
                Err(_) => Ok(Instruction::int_imm(op, a, parse_imm(ops[1])?, d)),
            }
        }
    }
}

fn fig1_opcode(mnemonic: &str) -> Option<Opcode> {
    [
        ("DIVF", Opcode::FDivD),
        ("ADDF", Opcode::FAddD),
        ("SUBF", Opcode::FSubD),
        ("MULF", Opcode::FMulD),
    ]
    .into_iter()
    .find(|(name, _)| name.eq_ignore_ascii_case(mnemonic))
    .map(|(_, op)| op)
}

/// Split an operand list on the commas that are not inside a bracketed
/// address. Returns the first three operands, trimmed, and the count of
/// all of them: no form takes more than three, so a longer list is only
/// ever an arity error. An empty trailing operand is dropped.
fn split_operands(rest: &str) -> ([&str; 3], usize) {
    let mut ops = [""; 3];
    let mut n = 0;
    let mut push = |op| {
        if let Some(slot) = ops.get_mut(n) {
            *slot = op;
        }
        n += 1;
    };
    let mut depth = 0usize;
    let mut start = 0;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                push(rest[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = rest[start..].trim();
    if !last.is_empty() {
        push(last);
    }
    (ops, n)
}

fn parse_fig1_reg(s: &str) -> Result<Reg, String> {
    let rest = s
        .strip_prefix(['R', 'r'])
        .ok_or_else(|| format!("expected Rn register, got `{s}`"))?;
    let n: u8 = rest.parse().map_err(|_| format!("bad register `{s}`"))?;
    if n >= 32 {
        return Err(format!("register number out of range: `{s}`"));
    }
    Ok(Reg::f(n))
}

/// Why a register operand failed to parse; [`RegError::message`]
/// renders it only when the error is reported.
#[derive(Debug, Clone, Copy)]
enum RegError {
    NotARegister,
    Unknown,
    Bad,
    OutOfRange,
    FpOutOfRange,
}

impl RegError {
    fn message(self, s: &str) -> String {
        match self {
            RegError::NotARegister => format!("expected register, got `{s}`"),
            RegError::Unknown => format!("unknown register `{s}`"),
            RegError::Bad => format!("bad register `{s}`"),
            RegError::OutOfRange => format!("register out of range `{s}`"),
            RegError::FpOutOfRange => format!("fp register out of range `{s}`"),
        }
    }
}

fn parse_reg(s: &str) -> Result<Reg, String> {
    try_reg(s).map_err(|e| e.message(s))
}

/// [`parse_reg`] without building the message, for operands that may
/// also be an immediate.
fn try_reg(s: &str) -> Result<Reg, RegError> {
    let body = s.strip_prefix('%').ok_or(RegError::NotARegister)?;
    // Named registers first: `%fp` must not be read as the fp bank.
    match body {
        "fp" => return Ok(Reg::fp()),
        "sp" => return Ok(Reg::sp()),
        "y" => return Ok(Reg::Y),
        "icc" => return Ok(Reg::Icc),
        "fcc" => return Ok(Reg::Fcc),
        _ => {}
    }
    // `split_at(1)` would panic on an empty body (a bare `%`) or when the
    // first character is multi-byte (index 1 is not a char boundary) —
    // both reachable from user input, so they must be parse errors.
    if body.len() < 2 || !body.is_char_boundary(1) {
        return Err(RegError::Unknown);
    }
    let (bank, num) = body.split_at(1);
    match (bank, num) {
        ("g", n) => ok_bank(n, 0),
        ("o", n) => ok_bank(n, 8),
        ("l", n) => ok_bank(n, 16),
        ("i", n) => ok_bank(n, 24),
        ("f", n) => {
            let k: u8 = n.parse().map_err(|_| RegError::Bad)?;
            if k >= 32 {
                return Err(RegError::FpOutOfRange);
            }
            Ok(Reg::f(k))
        }
        _ => Err(RegError::Unknown),
    }
}

fn ok_bank(n: &str, base: u8) -> Result<Reg, RegError> {
    let k: u8 = n.parse().map_err(|_| RegError::Bad)?;
    if k >= 8 {
        return Err(RegError::OutOfRange);
    }
    Ok(Reg::Int(base + k))
}

fn parse_imm(s: &str) -> Result<i64, String> {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).map_err(|_| format!("bad immediate `{s}`"))
    } else {
        t.parse().map_err(|_| format!("bad immediate `{s}`"))
    }
}

/// Parse `[%base]`, `[%base+off]`, `[%base-off]` or `[%base+%index]`;
/// the bracketed text itself is interned as the symbolic expression.
fn parse_mem(s: &str, prog: &mut Program) -> Result<MemRef, String> {
    let padded = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| format!("expected `[address]`, got `{s}`"))?;
    let inner = padded.trim();
    // `s` is already the canonical `[inner]` unless whitespace pads the
    // brackets.
    let expr = if inner.len() == padded.len() {
        prog.mem_exprs.intern(s)
    } else {
        prog.mem_exprs.intern(&format!("[{inner}]"))
    };
    // %base ± rest
    let (base_txt, sign, rest) = match inner.find(['+', '-']) {
        Some(pos) => (
            inner[..pos].trim(),
            if inner.as_bytes()[pos] == b'+' {
                1i64
            } else {
                -1
            },
            inner[pos + 1..].trim(),
        ),
        None => (inner, 1, ""),
    };
    let base = parse_reg(base_txt)?;
    if rest.is_empty() {
        return Ok(MemRef::base_offset(base, 0, expr));
    }
    if rest.starts_with('%') {
        if sign < 0 {
            return Err(format!("negative index register in `{s}`"));
        }
        let index = parse_reg(rest)?;
        return Ok(MemRef::base_index(base, index, expr));
    }
    // The sign is applied before the range check, so `-2147483648`
    // (`i32::MIN`, as `Display` prints it) parses.
    let off = rest
        .parse::<i64>()
        .ok()
        .and_then(|off| off.checked_mul(sign))
        .and_then(|off| i32::try_from(off).ok())
        .ok_or_else(|| format!("bad offset in `{s}`"))?;
    Ok(MemRef::base_offset(base, off, expr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::Resource;

    #[test]
    fn parses_figure1_notation() {
        let p = parse_asm("DIVF R1,R2,R3\nADDF R4,R5,R1\nADDF R1,R3,R6").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.insns[0].opcode, Opcode::FDivD);
        assert_eq!(p.insns[0].rd, Some(Reg::f(3)));
        assert_eq!(p.insns[0].rs, vec![Reg::f(1), Reg::f(2)]);
        assert_eq!(p.insns[2].rd, Some(Reg::f(6)));
    }

    #[test]
    fn parses_sparc_three_address() {
        let p = parse_asm("add %o0, %o1, %o2\nsub %o2, 4, %o3").unwrap();
        assert_eq!(p.insns[0].rs, vec![Reg::o(0), Reg::o(1)]);
        assert_eq!(p.insns[1].imm, Some(4));
    }

    #[test]
    fn parses_memory_operands() {
        let p = parse_asm("ld [%fp-8], %l0\nst %l0, [%fp-8]\nlddf [%o0+%o1], %f2").unwrap();
        let m0 = p.insns[0].mem.unwrap();
        assert_eq!(m0.base, Reg::fp());
        assert_eq!(m0.offset, -8);
        let m1 = p.insns[1].mem.unwrap();
        assert_eq!(m0.expr, m1.expr, "same text interns to the same expression");
        let m2 = p.insns[2].mem.unwrap();
        assert_eq!(m2.index, Some(Reg::o(1)));
    }

    #[test]
    fn parses_control_flow_and_blocks() {
        let p =
            parse_asm("cmp %o0, %o1\n bne loop\n nop\n add %o0, 1, %o0\n ba exit\n nop").unwrap();
        assert_eq!(p.insns[0].defs(), vec![Resource::Reg(Reg::Icc)]);
        // cmp+bne | nop+add+ba | nop (delay slots count with the next block)
        assert_eq!(p.basic_blocks().len(), 3);
    }

    #[test]
    fn comments_and_labels_are_skipped() {
        let p = parse_asm("! header\nstart:\n  add %o0, %o1, %o2  ; trailing\n# done").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_asm("add %o0, %o1, %o2\nbogus %o0").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
        let err = parse_asm("add %q0, %o1, %o2").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn malformed_registers_are_errors_not_panics() {
        // A bare `%` used to panic in `split_at(1)` on the empty body.
        assert!(parse_asm("add %, %o1, %o2")
            .unwrap_err()
            .message
            .contains('%'));
        // A multi-byte first character used to panic on the char boundary.
        assert!(parse_asm("add %é0, %o1, %o2").is_err());
        assert!(parse_asm("ld [%é0-8], %l0").is_err());
        // One-character bank without a number stays an error.
        assert!(parse_asm("add %g, %o1, %o2").is_err());
    }

    #[test]
    fn save_restore_and_calls() {
        let p = parse_asm("save\ncall f\nnop\nrestore").unwrap();
        assert_eq!(p.insns[0].opcode, Opcode::Save);
        assert_eq!(p.insns[1].opcode, Opcode::Call);
        assert_eq!(p.basic_blocks().len(), 3);
    }

    #[test]
    fn display_parse_round_trip_over_generated_benchmarks() {
        // Every instruction the generator emits must print as parseable
        // assembly that reconstructs the same operation (memory expression
        // identity aside — the printed form is `[base+offset]`, not the
        // generator's synthetic name).
        for name in ["grep", "linpack", "tomcatv"] {
            let profile = crate::BenchmarkProfile::by_name(name).unwrap();
            let bench = crate::generate(profile, 1991);
            let text: String = bench
                .program
                .insns
                .iter()
                .map(|i| format!("{i}\n"))
                .collect();
            let reparsed = parse_asm(&text)
                .unwrap_or_else(|e| panic!("{name}: generated asm must reparse: {e}"));
            assert_eq!(reparsed.len(), bench.program.len(), "{name}");
            for (a, b) in bench.program.insns.iter().zip(&reparsed.insns) {
                assert_eq!(a.opcode, b.opcode, "{name}: {a}");
                assert_eq!(a.rd, b.rd, "{name}: {a}");
                assert_eq!(a.rs, b.rs, "{name}: {a}");
                assert_eq!(a.imm, b.imm, "{name}: {a}");
                match (&a.mem, &b.mem) {
                    (Some(ma), Some(mb)) => {
                        assert_eq!(ma.base, mb.base, "{name}: {a}");
                        assert_eq!(ma.offset, mb.offset, "{name}: {a}");
                        assert_eq!(ma.index, mb.index, "{name}: {a}");
                    }
                    (None, None) => {}
                    _ => panic!("{name}: memory operand mismatch on {a}"),
                }
            }
        }
    }

    #[test]
    fn mov_and_sethi_forms() {
        let p = parse_asm("mov 42, %o0\nsethi 0x1000, %o1\nfsqrtd %f0, %f2").unwrap();
        assert_eq!(p.insns[0].imm, Some(42));
        assert_eq!(p.insns[1].imm, Some(0x1000));
        assert_eq!(p.insns[2].opcode, Opcode::FSqrtD);
    }

    #[test]
    fn mnemonics_and_aliases_match_in_any_case() {
        let p = parse_asm("LD [%fp-8], %l0\nBne loop\nRETL\nfcmpED %f0, %f2\nFaddD %f0, %f2, %f4")
            .unwrap();
        let opcodes: Vec<Opcode> = p.insns.iter().map(|i| i.opcode).collect();
        assert_eq!(
            opcodes,
            [
                Opcode::Ld,
                Opcode::Bicc,
                Opcode::Jmpl,
                Opcode::FCmpD,
                Opcode::FAddD
            ]
        );
        // Figure 1 notation in lower case, destination last.
        let p = parse_asm("addf r4, r5, r1").unwrap();
        assert_eq!(p.insns[0].opcode, Opcode::FAddD);
        assert_eq!(p.insns[0].rs, vec![Reg::f(4), Reg::f(5)]);
        assert_eq!(p.insns[0].rd, Some(Reg::f(1)));
    }

    #[test]
    fn unknown_mnemonics_are_reported_as_written() {
        for (line, mnemonic) in [
            ("restores %o0", "restores"),
            ("faddddddddddddddd %f0, %f2, %f4", "faddddddddddddddd"),
            ("fädd %f0, %f2, %f4", "fädd"),
            ("ＬＤ [%fp-8], %l0", "ＬＤ"),
        ] {
            let err = parse_asm(line).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("line 1: unknown mnemonic `{mnemonic}`")
            );
        }
    }

    #[test]
    fn padded_memory_operands_intern_in_canonical_form() {
        let p = parse_asm("ld [ %fp - 8 ], %l0\nst %l0, [%fp - 8]").unwrap();
        let (load, store) = (p.insns[0].mem.unwrap(), p.insns[1].mem.unwrap());
        assert_eq!(p.mem_exprs.text(load.expr), "[%fp - 8]");
        assert_eq!(load.expr, store.expr);
        assert_eq!((load.base, load.offset), (Reg::fp(), -8));
    }

    #[test]
    fn empty_operands_between_commas_are_counted() {
        // An empty operand is still an operand: here a register or an
        // immediate, then a register.
        let err = parse_asm("add %o0,, %o2").unwrap_err();
        assert_eq!(err.message, "bad immediate ``");
        let err = parse_asm("add ,, %o1, %o2").unwrap_err();
        assert_eq!(err.message, "add expects 3 operands");
        let err = parse_asm("st %o0,, [%fp-8]").unwrap_err();
        assert_eq!(err.message, "st expects `reg, [addr]`");
        let err = parse_asm("sub ,%o1, %o2").unwrap_err();
        assert_eq!(err.message, "expected register, got ``");
        let err = parse_asm("add %o0, %o1,, %o2").unwrap_err();
        assert_eq!(err.message, "add expects 3 operands");
        // A trailing empty operand is dropped.
        let p = parse_asm("add %o0, %o1, %o2,").unwrap();
        assert_eq!(p.insns[0].rd, Some(Reg::o(2)));
        let err = parse_asm("ld [%fp-8],, %l0").unwrap_err();
        assert_eq!(err.message, "ld expects `[addr], reg`");
    }
}
