//! Pins the inline representation of [`Instruction`]: operand, use and
//! definition lists are fixed-capacity arrays, and they must behave
//! exactly like the heap vectors they replaced.
//!
//! * `uses()` / `defs()` equal the vector-building reference bodies kept
//!   below, element for element, on every instruction of every Table 3
//!   and canon profile at three seeds, and on hand-built worst cases that
//!   reach the `MAX_USES` / `MAX_DEFS` bounds.
//! * `Hash` and `Debug` see `rs` as the slice a `Vec<Reg>` was, so
//!   instruction-stream hashes and debug text are unchanged.

use std::hash::{Hash, Hasher};

use dagsched::isa::{
    Instruction, MemAccessKind, MemExprPool, MemRef, Opcode, Reg, Resource, MAX_DEFS, MAX_USES,
};
use dagsched::workloads::{canon_mix, generate, generate_canon, ALL_PROFILES, PAPER_SEED};

const SEEDS: [u64; 3] = [PAPER_SEED, 7, 0xDA65_C4ED];

/// The definitions of `insn`, built into a `Vec` exactly as
/// `Instruction::defs` did before its result moved inline.
fn reference_defs(insn: &Instruction) -> Vec<Resource> {
    let mut out = Vec::with_capacity(2);
    if let Some(rd) = insn.rd {
        if rd.is_writable() {
            out.push(Resource::Reg(rd));
        }
        if insn.opcode.is_dword() && insn.opcode.mem_access() == Some(MemAccessKind::Load) {
            if let Some(hi) = rd.pair_partner() {
                out.push(Resource::Reg(hi));
            }
        }
    }
    if insn.opcode.sets_icc() {
        out.push(Resource::Reg(Reg::Icc));
    }
    if insn.opcode.sets_fcc() {
        out.push(Resource::Reg(Reg::Fcc));
    }
    if insn.opcode.sets_y() {
        out.push(Resource::Reg(Reg::Y));
    }
    if insn.opcode.mem_access() == Some(MemAccessKind::Store) {
        if let Some(m) = &insn.mem {
            out.push(Resource::Mem(m.expr));
        }
    }
    out
}

/// The uses of `insn`, built into a `Vec` exactly as
/// `Instruction::uses` did before its result moved inline.
fn reference_uses(insn: &Instruction) -> Vec<Resource> {
    let mut out = Vec::with_capacity(4);
    for &r in insn.rs.iter() {
        out.push(Resource::Reg(r));
        if insn.opcode.is_dword() && insn.opcode.mem_access() == Some(MemAccessKind::Store) {
            if let Some(hi) = r.pair_partner() {
                out.push(Resource::Reg(hi));
            }
        }
    }
    if let Some(m) = &insn.mem {
        out.push(Resource::Reg(m.base));
        if let Some(ix) = m.index {
            out.push(Resource::Reg(ix));
        }
    }
    if insn.opcode.reads_icc() {
        out.push(Resource::Reg(Reg::Icc));
    }
    if insn.opcode.reads_fcc() {
        out.push(Resource::Reg(Reg::Fcc));
    }
    if insn.opcode.reads_y() {
        out.push(Resource::Reg(Reg::Y));
    }
    if insn.opcode.mem_access() == Some(MemAccessKind::Load) {
        if let Some(m) = &insn.mem {
            out.push(Resource::Mem(m.expr));
        }
    }
    out
}

/// `Instruction` as it was declared with a heap operand vector: the same
/// name, fields and field order, so its derived `Hash` and `Debug` are
/// what the real type's must reproduce.
mod vec_backed {
    use dagsched::isa::{MemRef, Opcode, Reg};

    #[derive(Debug, Hash)]
    pub struct Instruction {
        pub opcode: Opcode,
        pub rd: Option<Reg>,
        pub rs: Vec<Reg>,
        pub mem: Option<MemRef>,
        pub imm: Option<i64>,
        pub orig_index: u32,
    }

    impl From<&dagsched::isa::Instruction> for Instruction {
        fn from(i: &dagsched::isa::Instruction) -> Instruction {
            Instruction {
                opcode: i.opcode,
                rd: i.rd,
                rs: i.rs.to_vec(),
                mem: i.mem,
                imm: i.imm,
                orig_index: i.orig_index,
            }
        }
    }
}

/// FNV-1a over every byte a `Hash` impl writes (the hasher the benchmark
/// fingerprints instruction streams with).
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut h);
    h.finish()
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

/// For every opcode, the instruction with the most operands the public
/// fields can express: `rd`, two sources, and a `[base+index]` memory
/// operand. Double-word stores then use both sources' pair partners, and
/// every opcode that reads or sets `%icc`, `%fcc` or `%y` adds those.
fn worst_cases() -> Vec<Instruction> {
    let mut pool = MemExprPool::new();
    let expr = pool.intern("[%o0+%o1]");
    let mem = MemRef::base_index(Reg::o(0), Reg::o(1), expr);
    Opcode::ALL
        .iter()
        .map(|&opcode| {
            let mut insn = Instruction::fp3(opcode, Reg::f(2), Reg::f(4), Reg::f(6));
            insn.mem = Some(mem);
            insn
        })
        .collect()
}

#[test]
fn uses_and_defs_match_the_vec_reference_on_every_profile() {
    let insns = corpus();
    assert!(insns.len() > 100_000, "corpus too small: {}", insns.len());
    for insn in &insns {
        assert_eq!(insn.uses(), reference_uses(insn), "{insn}");
        assert_eq!(insn.defs(), reference_defs(insn), "{insn}");
    }
}

#[test]
fn worst_case_instructions_fit_the_inline_bounds() {
    let cases = worst_cases();
    let (mut most_uses, mut most_defs) = (0, 0);
    for insn in &cases {
        assert_eq!(insn.uses(), reference_uses(insn), "{:?}", insn.opcode);
        assert_eq!(insn.defs(), reference_defs(insn), "{:?}", insn.opcode);
        most_uses = most_uses.max(insn.uses().len());
        most_defs = most_defs.max(insn.defs().len());
    }
    assert!(most_uses <= MAX_USES && most_defs <= MAX_DEFS);

    // The cases the bounds are made of really occur: a double-word store
    // through `[base+index]` uses both sources with their partners plus
    // base and index, and `%icc` / `%fcc` / `%y` are all read somewhere.
    let std = cases.iter().find(|i| i.opcode == Opcode::StDf).unwrap();
    assert_eq!(std.uses().len(), 6, "{:?}", std.uses());
    for cc in [Reg::Icc, Reg::Fcc, Reg::Y] {
        assert!(
            cases.iter().any(|i| i.uses().contains(&Resource::Reg(cc))),
            "no opcode reads {cc}"
        );
    }
}

#[test]
fn hash_and_debug_see_the_operands_as_a_vec() {
    let mut insns = corpus();
    insns.extend(worst_cases());
    insns.push(Instruction::nop());
    for insn in &insns {
        let reference = vec_backed::Instruction::from(insn);
        assert_eq!(fnv(insn), fnv(&reference), "{insn}");
        assert_eq!(format!("{insn:?}"), format!("{reference:?}"));
    }
    // A whole stream, as the benchmark's `hash_insns` hashes one.
    let references: Vec<_> = insns.iter().map(vec_backed::Instruction::from).collect();
    assert_eq!(fnv(&insns[..]), fnv(&references[..]));
    let add = Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2));
    assert!(
        format!("{add:?}").contains("rs: [Int(8), Int(9)]"),
        "{add:?}"
    );
}

#[test]
fn instructions_are_small_and_copy() {
    // Copy: no heap buffer to clone. 40 bytes, down from 64 with a Vec.
    fn assert_copy<T: Copy>() {}
    assert_copy::<Instruction>();
    assert!(std::mem::size_of::<Instruction>() <= 40);
}
