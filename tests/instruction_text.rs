//! Pins instruction text: the table-driven renderer and mnemonic lookup
//! must produce exactly what the `fmt` renderer and the linear lookup
//! they replaced did, because block keys hash this text and persisted
//! cache entries are keyed on it.
//!
//! * `Display` for `Instruction`, `MemRef` and `Reg` equals the `write!`
//!   reference bodies kept below, format flags included: on every
//!   instruction of every Table 3 and canon profile at three seeds, at
//!   the integer edges of offsets and immediates, and on every `Int` and
//!   `Fp` register number a `u8` holds.
//! * `Opcode::from_mnemonic` equals the two linear scans kept below, on
//!   every mnemonic and alias in any case and on seeded random ASCII and
//!   non-ASCII strings.
//! * `block_key` of a fixed block set equals the values recorded before
//!   the renderer changed.
//! * Rendered text re-parses at its edges (the `i32` offsets, `rd`) and
//!   renders to the same text again.

use std::fmt;

use dagsched::driver::DriverConfig;
use dagsched::isa::{
    splitmix64, Instruction, MachineModel, MemExprPool, MemRef, Opcode, Reg, Sources,
};
use dagsched::service::cache::block_key;
use dagsched::workloads::{
    canon_mix, generate, generate_canon, parse_asm, BenchmarkProfile, ALL_PROFILES, PAPER_SEED,
};

const SEEDS: [u64; 3] = [PAPER_SEED, 7, 0xDA65_C4ED];

/// The `write!` renderer, kept as the reference the table-driven one
/// must match byte for byte.
struct Reference<'a, T>(&'a T);

impl fmt::Display for Reference<'_, Reg> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.0 {
            Reg::Int(n) => {
                let (bank, idx) = match n {
                    0..=7 => ('g', n),
                    8..=15 => ('o', n - 8),
                    16..=23 => ('l', n - 16),
                    _ => ('i', n - 24),
                };
                write!(f, "%{bank}{idx}")
            }
            Reg::Fp(n) => write!(f, "%f{n}"),
            Reg::Icc => write!(f, "%icc"),
            Reg::Fcc => write!(f, "%fcc"),
            Reg::Y => write!(f, "%y"),
        }
    }
}

impl fmt::Display for Reference<'_, MemRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(f, "[{}", Reference(&m.base))?;
        if let Some(ix) = m.index {
            write!(f, "+{}", Reference(&ix))?;
        }
        if m.offset != 0 {
            write!(f, "{:+}", m.offset)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Reference<'_, Instruction> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let insn = self.0;
        write!(f, "{}", insn.opcode)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        if insn.is_load() {
            if let Some(m) = &insn.mem {
                sep(f)?;
                write!(f, "{}", Reference(m))?;
            }
        }
        for r in &insn.rs {
            sep(f)?;
            write!(f, "{}", Reference(r))?;
        }
        if let Some(imm) = insn.imm {
            sep(f)?;
            write!(f, "{imm}")?;
        }
        if insn.is_store() {
            if let Some(m) = &insn.mem {
                sep(f)?;
                write!(f, "{}", Reference(m))?;
            }
        }
        if let Some(rd) = insn.rd {
            sep(f)?;
            write!(f, "{}", Reference(&rd))?;
        }
        Ok(())
    }
}

/// `value` renders as the reference does, bare and under format flags
/// (which both renderers ignore).
fn assert_renders_as_reference<T>(value: &T)
where
    T: fmt::Display + fmt::Debug,
    for<'a> Reference<'a, T>: fmt::Display,
{
    let reference = Reference(value);
    assert_eq!(value.to_string(), reference.to_string(), "{value:?}");
    assert_eq!(
        format!("{value:>90}|{value:<3}|{value:^7}"),
        format!("{reference:>90}|{reference:<3}|{reference:^7}"),
        "{value:?}"
    );
}

/// `insn`, its memory operand and its registers render as the
/// reference does.
fn assert_all_render_as_reference(insn: &Instruction) {
    assert_renders_as_reference(insn);
    if let Some(m) = &insn.mem {
        assert_renders_as_reference(m);
    }
    for r in insn.rs.iter().chain(&insn.rd) {
        assert_renders_as_reference(r);
    }
}

/// Every instruction of every Table 3 and canon profile at [`SEEDS`].
fn corpus() -> Vec<Instruction> {
    let mut out = Vec::new();
    for &seed in &SEEDS {
        for profile in ALL_PROFILES {
            out.extend_from_slice(&generate(profile, seed).program.insns);
        }
        for name in canon_mix() {
            let bench = generate_canon(&name, seed).expect("canon_mix names canon profiles");
            out.extend_from_slice(&bench.program.insns);
        }
    }
    out
}

#[test]
fn every_profile_instruction_renders_as_the_reference() {
    let insns = corpus();
    assert!(insns.len() > 100_000, "corpus too small: {}", insns.len());
    for insn in &insns {
        assert_all_render_as_reference(insn);
    }
}

/// Offsets 0, ±1 and the `i32` ends; immediates 0, ±1 and the `i64`
/// ends; index registers; every register name and every `Int` / `Fp`
/// number a `u8` holds, past 31 included, in each operand position.
#[test]
fn integer_and_register_edges_render_as_the_reference() {
    let mut pool = MemExprPool::new();
    let expr = pool.intern("[%o0]");
    let named = [Reg::g(0), Reg::Icc, Reg::Fcc, Reg::Y, Reg::fp(), Reg::sp()];
    let numbered = (0..=u8::MAX).flat_map(|n| [Reg::Int(n), Reg::Fp(n)]);
    let regs: Vec<Reg> = named.into_iter().chain(numbered).collect();
    let offsets = [0, 1, -1, 8, -8, i32::MIN, i32::MAX];
    let imms = [0, 1, -1, 4096, -4096, i64::MIN, i64::MAX];

    let mut cases = Vec::new();
    for (i, &reg) in regs.iter().enumerate() {
        let other = regs[(i * 7 + 3) % regs.len()];
        let offset = offsets[i % offsets.len()];
        let imm = imms[i % imms.len()];
        for mem in [
            MemRef::base_offset(reg, offset, expr),
            MemRef::base_index(reg, other, expr),
            MemRef {
                base: other,
                index: Some(reg),
                offset,
                expr,
            },
        ] {
            cases.push(Instruction::load(Opcode::LdDf, mem, reg));
            cases.push(Instruction::store(Opcode::St, reg, mem));
        }
        cases.push(Instruction::int3(Opcode::SubCc, reg, other, reg));
        cases.push(Instruction::int_imm(Opcode::Sra, reg, imm, other));
        cases.push(Instruction::fp2(Opcode::FSqrtD, reg, other));
        cases.push(Instruction::fcmp(Opcode::FCmpD, other, reg));
        cases.push(Instruction::sethi(imm, reg));
        cases.push(Instruction::mov_imm(imm, reg));
    }
    for &offset in &offsets {
        for &imm in &imms {
            // Every field the renderer reads set at once, on a load and
            // on a store: the longest texts the public fields can build.
            let mem = MemRef {
                base: Reg::Int(u8::MAX),
                index: Some(Reg::Fp(u8::MAX)),
                offset,
                expr,
            };
            for opcode in Opcode::ALL.iter().copied() {
                cases.push(Instruction {
                    opcode,
                    rd: Some(Reg::Int(200)),
                    rs: Sources::from_slice(&[Reg::Int(u8::MAX), Reg::Fp(100)]),
                    mem: Some(mem),
                    imm: Some(imm),
                    orig_index: 0,
                });
            }
        }
    }
    for opcode in Opcode::ALL.iter().copied() {
        cases.push(Instruction::new(opcode));
    }
    for insn in &cases {
        assert_all_render_as_reference(insn);
    }
    for reg in &regs {
        assert_renders_as_reference(reg);
    }
}

/// Rendered text re-parses at its edges: memory offsets at the `i32`
/// ends, and `rd` into every register bank in both its forms (`rd reg`
/// as `Display` prints it, SPARC's `rd %y, reg`). Each parsed
/// instruction renders to the same text again.
#[test]
fn edge_instructions_reparse_to_the_same_text() {
    let mut pool = MemExprPool::new();
    let expr = pool.intern("[%i6]");
    let mut cases = Vec::new();
    for offset in [i32::MIN, i32::MIN + 1, -1, 1, i32::MAX] {
        let mem = MemRef::base_offset(Reg::fp(), offset, expr);
        cases.push(Instruction::load(Opcode::Ld, mem, Reg::o(0)));
        cases.push(Instruction::store(Opcode::St, Reg::o(1), mem));
    }
    let banks = [
        Reg::g(1),
        Reg::o(1),
        Reg::l(7),
        Reg::i(0),
        Reg::f(31),
        Reg::Y,
    ];
    for rd in banks {
        cases.push(Instruction {
            rd: Some(rd),
            ..Instruction::new(Opcode::RdY)
        });
    }
    for insn in &cases {
        let text = insn.to_string();
        let parsed = parse_asm(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        assert_eq!(parsed.insns.len(), 1, "{text}");
        let again = parsed.insns[0];
        assert_eq!(
            (again.opcode, again.rd, again.rs),
            (insn.opcode, insn.rd, insn.rs)
        );
        assert_eq!(
            again.mem.map(|m| m.offset),
            insn.mem.map(|m| m.offset),
            "{text}"
        );
        assert_eq!(again.to_string(), text);
    }
    for rd in banks {
        let sparc = format!("rd %y, {rd}");
        let parsed = parse_asm(&sparc).unwrap_or_else(|e| panic!("`{sparc}`: {e}"));
        assert_eq!(parsed.insns[0].opcode, Opcode::RdY, "{sparc}");
        assert_eq!(parsed.insns[0].rd, Some(rd), "{sparc}");
        assert_eq!(parsed.insns[0].to_string(), format!("rd {rd}"));
    }
    // Past the `i32` ends, and `rd` with the wrong operands, still fail.
    for bad in [
        "ld [%i6-2147483649], %o0",
        "ld [%i6+2147483648], %o0",
        "ld [%i6--9223372036854775808], %o0",
        "rd %o1, %o2",
        "rd %y, %o1, %o2",
        "rd",
    ] {
        assert!(parse_asm(bad).is_err(), "`{bad}` parsed");
    }
}

/// The linear lookup the table replaced: every mnemonic, then every
/// alias, compared case-folded in turn.
fn reference_from_mnemonic(s: &str) -> Option<Opcode> {
    use Opcode::{Bicc, FCmpD, FCmpS, Fbcc, Jmpl, SubCc};
    const ALIASES: &[(&str, Opcode)] = &[
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
    ];
    Opcode::ALL
        .iter()
        .copied()
        .find(|op| op.mnemonic().eq_ignore_ascii_case(s))
        .or_else(|| {
            ALIASES
                .iter()
                .find(|(alias, _)| alias.eq_ignore_ascii_case(s))
                .map(|&(_, op)| op)
        })
}

/// Every name the reference accepts, in lower case.
fn known_names() -> Vec<&'static str> {
    let aliases = [
        "be", "bne", "bg", "bge", "bl", "ble", "bgu", "bleu", "bcs", "bcc", "bneg", "bpos", "bvs",
        "bvc", "b", "fbe", "fbne", "fbg", "fbge", "fbl", "fble", "fbu", "fbo", "ret", "retl",
        "cmp", "fcmped", "fcmpes",
    ];
    let mnemonics = Opcode::ALL.iter().map(|op| op.mnemonic());
    mnemonics.chain(aliases).collect()
}

#[test]
fn every_name_resolves_as_the_linear_lookup_in_any_case() {
    let names = known_names();
    assert_eq!(names.len(), 53 + 28);
    let mut state = 0x4E4D_0A1C;
    for name in names {
        assert!(reference_from_mnemonic(name).is_some(), "{name}");
        let alternating: String = name
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        let mut spellings = vec![
            name.to_string(),
            name.to_ascii_uppercase(),
            alternating.clone(),
            alternating.swapcase(),
        ];
        for _ in 0..8 {
            let bits = splitmix64(&mut state);
            spellings.push(
                name.chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if bits >> i & 1 == 1 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect(),
            );
        }
        // Near misses: padded, extended, truncated, NUL-terminated.
        spellings.extend([
            format!(" {name}"),
            format!("{name} "),
            format!("{name}x"),
            format!("{name}\0"),
            format!("{name}.a"),
            name[..name.len() - 1].to_string(),
        ]);
        for s in &spellings {
            assert_eq!(
                Opcode::from_mnemonic(s),
                reference_from_mnemonic(s),
                "{s:?}"
            );
        }
    }
}

trait SwapCase {
    fn swapcase(&self) -> String;
}

impl SwapCase for String {
    fn swapcase(&self) -> String {
        self.chars()
            .map(|c| {
                if c.is_ascii_uppercase() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect()
    }
}

#[test]
fn random_strings_resolve_as_the_linear_lookup() {
    // Letters the names use (so that many strings come close to a
    // name), other ASCII including NUL and DEL, and multi-byte
    // characters, among them full-width letters and letters whose
    // Unicode case folding differs from ASCII's.
    const NEAR: &[u8] = b"abcdefgilmnopqrstuvxyABCDEFGILMNOPQRSTUVXY";
    const WIDE: [char; 8] = ['ä', 'é', 'ß', 'İ', 'ı', 'Ｌ', 'Ｄ', 'ſ'];
    let mut state = 0x005E_ED0F_A5C1;
    let mut matched = 0;
    for round in 0..200_000 {
        let len = (splitmix64(&mut state) % 13) as usize;
        let mut s = String::new();
        while s.len() < len {
            let r = splitmix64(&mut state);
            let c = match (r % 16, round % 4) {
                (0, _) => WIDE[(r >> 8) as usize % WIDE.len()],
                (1..=2, _) => char::from((r >> 8) as u8 % 0x80),
                _ => char::from(NEAR[(r >> 8) as usize % NEAR.len()]),
            };
            if s.len() + c.len_utf8() > len {
                break;
            }
            s.push(c);
        }
        let expected = reference_from_mnemonic(&s);
        matched += usize::from(expected.is_some());
        assert_eq!(Opcode::from_mnemonic(&s), expected, "{s:?}");
    }
    assert!(matched > 0, "no random string hit a name");
    for s in ["", "ＬＤ", "fädd", "ld\0", "LD\u{0}", "restore1", "ſt", "İ"] {
        assert_eq!(
            Opcode::from_mnemonic(s),
            reference_from_mnemonic(s),
            "{s:?}"
        );
    }
}

/// Blocks whose keys are pinned below: hand-written blocks over every
/// operand form, integer edges, registers past 31 and a block with more
/// distinct memory expressions than the key's inline ordinal scan holds,
/// then the first blocks of three or more instructions of a Table 3 and
/// a canon profile.
fn pinned_blocks() -> Vec<Vec<Instruction>> {
    let texts = [
        "ld [%fp-8], %l0\nadd %l0, %o1, %o2\nst %o2, [%fp-8]",
        "lddf [%o0+%o1], %f2\nfaddd %f2, %f4, %f6\nstdf %f6, [%o0+%o1]",
        "sethi 4096, %o1\nmov -1, %o2\nsub %o2, 2147483647, %o3\ncmp %o3, %g0\nbne L1",
        "fdivd %f0, %f2, %f4\nfcmped %f4, %f6\nfbe L2",
        "ld [%i6-2147483647], %l1\nst %l1, [%sp+2147483647]\nsmul %l1, %l1, %o0\nudiv %o0, 3, %o1",
        "DIVF R1,R2,R3\nADDF R4,R5,R1\nADDF R1,R3,R6",
    ];
    let mut blocks: Vec<Vec<Instruction>> = texts
        .iter()
        .map(|t| parse_asm(t).expect("pinned blocks parse").insns)
        .collect();

    let mut pool = MemExprPool::new();
    let wide: Vec<Instruction> = (0..40)
        .map(|i| {
            let slot = (i * 7) % 23;
            let expr = pool.intern(&format!("[%o0+{}]", slot * 4));
            let mem = MemRef::base_offset(Reg::o(0), slot * 4, expr);
            if i % 3 == 0 {
                Instruction::store(Opcode::St, Reg::l(i as u8 % 8), mem)
            } else {
                Instruction::load(Opcode::Ld, mem, Reg::l(i as u8 % 8))
            }
        })
        .collect();
    blocks.push(wide);

    let expr = pool.intern("[%i200+%f99]");
    blocks.push(vec![
        Instruction::int_imm(Opcode::Add, Reg::Int(40), i64::MIN, Reg::Int(u8::MAX)),
        Instruction::int_imm(Opcode::Or, Reg::Int(32), i64::MAX, Reg::Int(33)),
        Instruction::fp3(Opcode::FMulD, Reg::Fp(32), Reg::Fp(200), Reg::Fp(u8::MAX)),
        Instruction::load(
            Opcode::LdF,
            MemRef {
                base: Reg::Int(224),
                index: Some(Reg::Fp(99)),
                offset: -1,
                expr,
            },
            Reg::Fp(64),
        ),
    ]);

    for program in [
        generate(BenchmarkProfile::by_name("grep").expect("grep"), PAPER_SEED).program,
        generate_canon("canon-layers-64", 7)
            .expect("a canon profile")
            .program,
    ] {
        blocks.extend(
            program
                .basic_blocks()
                .iter()
                .map(|b| program.block_insns(b).to_vec())
                .filter(|insns| insns.len() >= 3)
                .take(6),
        );
    }
    blocks
}

/// Block keys are persisted: the renderer may not move one bit of them.
/// These values were recorded with the `write!` renderer and the
/// map-based ordinals.
#[test]
fn block_keys_are_pinned() {
    let pinned = [
        (0xbca1808169164497, 0x48a28ca0b757241c),
        (0xb09d48dc600c2235, 0xe6ad67d4d3a381ee),
        (0x8c9269544da576de, 0xbfb1063541b6075b),
        (0x3510f56465deb468, 0x7789d3842a6143a3),
        (0xeedd96960508939a, 0xfb5d7dfe2cf5ce0d),
        (0xa934359faade6ae0, 0x9397300fd3e8f237),
        (0xb57f13012a03f05d, 0x1fc55b48b3008ae0),
        (0xe2abebc3e1051024, 0x85782baa4e58a8f5),
        (0x005cf7370a5ebfa0, 0x38fd720261d673ff),
        (0x524cbd4405b4b977, 0x5eedbfd5bd809da0),
        (0x9aa22b6dc7d6a3d7, 0x700f23e13183c318),
        (0xda3a0cb275a2a02a, 0x90ac4605ae72ecb5),
        (0xd4e0841d28fb70b6, 0xc1b7a7b6171b8d19),
        (0x0117b3b4365b4d0b, 0x9bd71eb0ba69848c),
        (0xaf1c55c3bf5cfb51, 0x3304112e827ebc4a),
        (0xc51b0d2dc05c1abb, 0xcf9c543f4a64432c),
        (0xf5b7ba3aa703fca1, 0x0fad0d9f8f0cd816),
    ];
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    let keys: Vec<(u64, u64)> = pinned_blocks()
        .iter()
        .map(|block| block_key(block, &model, &config).to_parts())
        .collect();
    let listing: String = keys
        .iter()
        .map(|(a, b)| format!("        ({a:#018x}, {b:#018x}),\n"))
        .collect();
    assert_eq!(keys, pinned, "keys now:\n{listing}");
}
