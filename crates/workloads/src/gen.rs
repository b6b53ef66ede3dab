//! The synthetic benchmark generator.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dagsched_isa::{fnv64, BasicBlock, Instruction, MemExprId, MemRef, Opcode, Program, Reg};

use crate::profile::{BenchmarkProfile, HubSpec, OpMix, Placement};
use crate::window::clamp_blocks;

/// A generated benchmark: the instruction stream plus the block structure
/// the experiments analyze (which, for the fpppp window variants, is the
/// base stream's blocks clamped to the window size).
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Profile name.
    pub name: String,
    /// The instruction stream.
    pub program: Program,
    /// Basic blocks to analyze (windowed for the fpppp variants).
    pub blocks: Vec<BasicBlock>,
}

impl Benchmark {
    /// The instructions of block `b`.
    pub fn block_insns(&self, b: usize) -> &[Instruction] {
        self.program.block_insns(&self.blocks[b])
    }
}

/// Generate a benchmark from its profile, deterministically in `seed`.
///
/// The same `(profile, seed)` pair always yields an identical program;
/// window variants generate their base benchmark with the same seed and
/// therefore share its instruction stream byte-for-byte.
pub fn generate(profile: &BenchmarkProfile, seed: u64) -> Benchmark {
    if let Some((base_name, window)) = profile.window {
        let base = BenchmarkProfile::by_name(base_name)
            .unwrap_or_else(|| panic!("window base profile {base_name} missing"));
        let mut bench = generate(base, seed);
        bench.name = profile.name.to_string();
        bench.blocks = clamp_blocks(&bench.blocks, window);
        return bench;
    }
    // FNV-1a of the name: stable across runs, unlike `DefaultHasher`.
    let mut rng = SmallRng::seed_from_u64(seed ^ fnv64(profile.name.as_bytes()));
    let sizes = block_sizes(profile, &mut rng);
    debug_assert_eq!(sizes.iter().sum::<usize>(), profile.insts);
    debug_assert_eq!(sizes.len(), profile.blocks);

    let gamma = mem_gamma(profile);
    // Calibrate the power-law constant against the *drawn* sizes so the
    // per-block average of unique expressions lands on the Table 3 target
    // (fitting against the mean block size alone underestimates: the
    // pinned giant blocks hog instructions without proportional blocks).
    let target_total = (profile.mem_avg * profile.blocks as f64 - profile.mem_max as f64).max(0.0);
    // All drawn sizes except one instance of the pinned maximum block
    // (which is assigned exactly `mem_max` expressions).
    let body: Vec<usize> = {
        let mut out = sizes.clone();
        if let Some(pos) = out.iter().position(|&s| s == profile.max_block) {
            out.remove(pos);
        }
        out
    };
    // Fixed-point solve for c: the per-block unique count is clamped to
    // `min(block size - 1, mem_max)`, which bites hard on the tiny blocks
    // of the system benchmarks; fitting c against the unclamped power law
    // alone would undershoot the Table 3 average.
    let clamped_mass = |c: f64| -> f64 {
        body.iter()
            .map(|&s| {
                (c * (s as f64).powf(gamma))
                    .min(s.saturating_sub(1) as f64)
                    .min(profile.mem_max as f64)
            })
            .sum()
    };
    let unclamped: f64 = body
        .iter()
        .map(|&s| (s as f64).powf(gamma))
        .sum::<f64>()
        .max(1e-9);
    let mut c = target_total / unclamped;
    for _ in 0..8 {
        let mass = clamped_mass(c);
        if mass <= 1e-9 {
            break;
        }
        c *= target_total / mass;
    }
    let mut program = Program::new();
    let mut gen = BlockGen::new(profile);
    for (bi, &size) in sizes.iter().enumerate() {
        let is_max_block = size == profile.max_block;
        let unique = if is_max_block {
            profile.mem_max
        } else {
            sample_unique(&mut rng, c, gamma, size, profile.mem_max)
        };
        let hub = if is_max_block { profile.hub } else { None };
        gen.emit_block(&mut rng, &mut program, bi, size, unique, hub);
    }
    let blocks = program.basic_blocks();
    Benchmark {
        name: profile.name.to_string(),
        program,
        blocks,
    }
}

/// Exponent of the power law `unique(s) ∝ s^gamma` fitted through the
/// profile's `(avg block size, avg unique)` and `(max block size,
/// max unique)` targets — larger blocks reuse expressions more.
fn mem_gamma(profile: &BenchmarkProfile) -> f64 {
    let avg_size = profile.insts as f64 / profile.blocks as f64;
    (profile.mem_max as f64 / profile.mem_avg.max(0.01)).ln()
        / (profile.max_block as f64 / avg_size).ln()
}

fn sample_unique(rng: &mut SmallRng, c: f64, gamma: f64, size: usize, cap: usize) -> usize {
    let jitter = 0.7 + rng.gen::<f64>() * 0.6;
    let x = (c * (size as f64).powf(gamma) * jitter).max(0.0);
    // Probabilistic rounding keeps the expectation on target.
    let base = x.floor();
    let u = base as usize + usize::from(rng.gen::<f64>() < x - base);
    u.min(cap).min(size.saturating_sub(1))
}

/// Standard normal via Box–Muller (rand's `StandardNormal` lives in
/// `rand_distr`, which this workspace does not depend on).
fn normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Block sizes: the pinned maximum block, any pinned extra blocks, and a
/// lognormal body adjusted to hit the exact instruction total.
fn block_sizes(profile: &BenchmarkProfile, rng: &mut SmallRng) -> Vec<usize> {
    let n_body = profile.blocks - 1 - profile.extra_blocks.len();
    let pinned: usize = profile.max_block + profile.extra_blocks.iter().sum::<usize>();
    let budget = profile.insts - pinned;
    let cap = profile
        .body_cap
        .min(profile.max_block.saturating_sub(1))
        .max(1);

    // Sample relative lognormal weights, scale to the budget.
    let sigma = 0.9;
    let weights: Vec<f64> = (0..n_body).map(|_| (sigma * normal(rng)).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total * budget as f64).round() as usize).clamp(1, cap))
        .collect();

    // Deterministic residual fix-up within [1, cap].
    let mut sum: usize = sizes.iter().sum();
    let mut i = 0;
    while sum != budget {
        if sum < budget && sizes[i] < cap {
            sizes[i] += 1;
            sum += 1;
        } else if sum > budget && sizes[i] > 1 {
            sizes[i] -= 1;
            sum -= 1;
        }
        i = (i + 1) % sizes.len();
    }

    // Interleave pinned blocks into the body at deterministic positions.
    let mut all = sizes;
    let mid = all.len() / 2;
    all.insert(mid, profile.max_block);
    for (k, &extra) in profile.extra_blocks.iter().enumerate() {
        let pos = (all.len() * (k + 1)) / (profile.extra_blocks.len() + 2);
        all.insert(pos, extra);
    }
    all
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    IntAlu,
    IntMulDiv,
    Load,
    Store,
    FpAdd,
    FpMul,
    FpDiv,
    Cmp,
    Terminator(Opcode),
}

/// Per-benchmark instruction emission state (register recency pools).
struct BlockGen {
    mix: OpMix,
    reuse: f64,
    placement: Placement,
    fp_heavy: bool,
    name: &'static str,
    recent_int: Vec<Reg>,
    recent_fp: Vec<Reg>,
    /// Hub state for the current block: `(region start, region end,
    /// probability that an FP operation consumes the hub)`.
    hub_region: Option<(usize, usize, f64)>,
    /// Position of the instruction being emitted (for hub gating).
    cur_pos: usize,
}

/// The hub register: outside the generator's normal (even-numbered) FP
/// destination range, so the hub value is never clobbered.
const HUB_REG: Reg = Reg::Fp(25);

const RECENT_CAP: usize = 8;

impl BlockGen {
    fn new(profile: &BenchmarkProfile) -> BlockGen {
        BlockGen {
            mix: profile.mix,
            reuse: profile.reuse,
            placement: profile.mem_placement,
            fp_heavy: profile.mix.fp_add > 0.1,
            name: profile.name,
            recent_int: Vec::new(),
            recent_fp: Vec::new(),
            hub_region: None,
            cur_pos: 0,
        }
    }

    fn emit_block(
        &mut self,
        rng: &mut SmallRng,
        program: &mut Program,
        block_idx: usize,
        size: usize,
        unique_mem: usize,
        hub: Option<HubSpec>,
    ) {
        // Value locality is per-block: blocks start from live-in registers.
        self.recent_int.clear();
        self.recent_fp.clear();
        self.hub_region = None;

        // Hub value (fpppp's giant block): one definition whose uses
        // spread over a bounded region, producing the paper's huge
        // maximum children/instruction.
        let hub_def_pos = hub.map(|h| {
            let def = ((size as f64 * h.def_at_frac) as usize).min(size.saturating_sub(2));
            let end = (def + h.span).min(size.saturating_sub(1));
            // Expected FP three-address operations in the region, from the mix.
            let fp_share = (self.mix.fp_add * 0.9 + self.mix.fp_mul + self.mix.fp_div)
                / (self.mix.int_alu
                    + self.mix.int_muldiv
                    + self.mix.load
                    + self.mix.store
                    + self.mix.fp_add
                    + self.mix.fp_mul
                    + self.mix.fp_div);
            let expected_fp = ((end - def) as f64 * fp_share).max(1.0);
            // Per-instruction hit probability, corrected for the two
            // independent source draws of a three-address FP operation.
            let p = (h.uses as f64 / expected_fp).min(1.0);
            let q = 1.0 - (1.0 - p).sqrt();
            self.hub_region = Some((def + 1, end, q));
            def
        });

        let mut slots = self.plan_slots(rng, size, unique_mem);
        let mem_positions: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Load | Slot::Store))
            .map(|(i, _)| i)
            .collect();
        let intro = introduction_points(&mem_positions, unique_mem, self.placement);

        // Per-block memory expression templates: one MemRef per expression
        // so repeated references stay consistent for base+offset policies.
        let mut exprs: Vec<(MemExprId, MemRef)> = Vec::with_capacity(unique_mem);
        let mut next_expr = 0usize;
        let mut intro_set: HashMap<usize, ()> = intro.iter().map(|&p| (p, ())).collect();

        for (pos, slot) in slots.drain(..).enumerate() {
            self.cur_pos = pos;
            if Some(pos) == hub_def_pos {
                // Define the hub from a freshly computed value.
                let src = self.fp_src(rng);
                program.push(Instruction::fp2(Opcode::FMovS, src, HUB_REG));
                continue;
            }
            let insn = match slot {
                Slot::IntAlu => self.gen_int_alu(rng),
                Slot::IntMulDiv => self.gen_int_muldiv(rng),
                Slot::Load | Slot::Store => {
                    let is_new = intro_set.remove(&pos).is_some() || exprs.is_empty();
                    let (expr, mem) = if is_new && next_expr < unique_mem.max(1) {
                        let id = next_expr;
                        next_expr += 1;
                        let (eid, mem) = self.new_expr(rng, program, block_idx, id);
                        exprs.push((eid, mem));
                        exprs[exprs.len() - 1]
                    } else {
                        // Reuse, strongly biased toward recently introduced
                        // expressions: references cluster near their
                        // introduction, which keeps the *windowed* unique
                        // counts (fpppp-1000/2000/4000) from ballooning.
                        let k = exprs.len();
                        let ix = if rng.gen::<f64>() < 0.8 {
                            k - 1 - rng.gen_range(0..k.min(4))
                        } else {
                            rng.gen_range(0..k)
                        };
                        exprs[ix]
                    };
                    let _ = expr;
                    if slot == Slot::Load {
                        self.gen_load(rng, mem)
                    } else {
                        self.gen_store(rng, mem)
                    }
                }
                Slot::FpAdd => self.gen_fp_add(rng),
                Slot::FpMul => self.gen_fp3(rng, Opcode::FMulD),
                Slot::FpDiv => self.gen_fp3(rng, Opcode::FDivD),
                Slot::Cmp => Instruction::cmp(self.int_src(rng), self.int_src(rng)),
                Slot::Terminator(op) => match op {
                    Opcode::Save | Opcode::Restore => Instruction::new(op),
                    _ => Instruction::branch(op),
                },
            };
            program.push(insn);
        }
    }

    /// Decide each position's instruction category.
    fn plan_slots(&self, rng: &mut SmallRng, size: usize, unique_mem: usize) -> Vec<Slot> {
        let terminator = self.pick_terminator(rng);
        let needs_cmp = matches!(terminator, Opcode::Bicc) && size >= 2;
        let body = size - 1 - usize::from(needs_cmp);
        let mut slots = Vec::with_capacity(size);
        for _ in 0..body {
            slots.push(self.pick_category(rng));
        }
        // Blocks that must show no unique memory expressions carry no
        // memory traffic; blocks with a target must carry at least that
        // many memory operations.
        if unique_mem == 0 {
            for s in &mut slots {
                if matches!(s, Slot::Load | Slot::Store) {
                    *s = Slot::IntAlu;
                }
            }
        } else {
            let mut mem_count = slots
                .iter()
                .filter(|s| matches!(s, Slot::Load | Slot::Store))
                .count();
            let mut i = 0;
            while mem_count < unique_mem && i < slots.len() {
                if matches!(slots[i], Slot::IntAlu | Slot::FpAdd) {
                    slots[i] = Slot::Load;
                    mem_count += 1;
                }
                i += 1;
            }
        }
        if needs_cmp {
            slots.push(Slot::Cmp);
        }
        slots.push(Slot::Terminator(terminator));
        slots
    }

    fn pick_category(&self, rng: &mut SmallRng) -> Slot {
        let m = &self.mix;
        let total = m.int_alu + m.int_muldiv + m.load + m.store + m.fp_add + m.fp_mul + m.fp_div;
        let mut x = rng.gen::<f64>() * total;
        for (w, s) in [
            (m.int_alu, Slot::IntAlu),
            (m.int_muldiv, Slot::IntMulDiv),
            (m.load, Slot::Load),
            (m.store, Slot::Store),
            (m.fp_add, Slot::FpAdd),
            (m.fp_mul, Slot::FpMul),
            (m.fp_div, Slot::FpDiv),
        ] {
            if x < w {
                return s;
            }
            x -= w;
        }
        Slot::IntAlu
    }

    fn pick_terminator(&self, rng: &mut SmallRng) -> Opcode {
        let x = rng.gen::<f64>();
        if x < 0.55 {
            Opcode::Bicc
        } else if x < 0.70 {
            Opcode::Ba
        } else if x < 0.85 {
            Opcode::Call
        } else if x < 0.90 {
            Opcode::Jmpl
        } else if x < 0.95 {
            Opcode::Save
        } else {
            Opcode::Restore
        }
    }

    // ---- operand selection -----------------------------------------------

    fn int_src(&self, rng: &mut SmallRng) -> Reg {
        if !self.recent_int.is_empty() && rng.gen::<f64>() < self.reuse {
            self.recent_int[rng.gen_range(0..self.recent_int.len())]
        } else {
            INT_POOL[rng.gen_range(0..INT_POOL.len())]
        }
    }

    fn int_dst(&mut self, rng: &mut SmallRng) -> Reg {
        let r = INT_POOL[rng.gen_range(0..INT_POOL.len())];
        push_recent(&mut self.recent_int, r);
        r
    }

    fn fp_src(&self, rng: &mut SmallRng) -> Reg {
        if let Some((start, end, q)) = self.hub_region {
            if self.cur_pos >= start && self.cur_pos < end && rng.gen::<f64>() < q {
                return HUB_REG;
            }
        }
        if !self.recent_fp.is_empty() && rng.gen::<f64>() < self.reuse {
            self.recent_fp[rng.gen_range(0..self.recent_fp.len())]
        } else {
            Reg::f(2 * rng.gen_range(0..16))
        }
    }

    fn fp_dst(&mut self, rng: &mut SmallRng) -> Reg {
        let r = Reg::f(2 * rng.gen_range(0..16));
        push_recent(&mut self.recent_fp, r);
        r
    }

    // ---- instruction emitters ----------------------------------------------

    fn gen_int_alu(&mut self, rng: &mut SmallRng) -> Instruction {
        let ops = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Sll,
        ];
        let op = ops[rng.gen_range(0..ops.len())];
        if rng.gen::<f64>() < 0.35 {
            let (s, imm) = (self.int_src(rng), rng.gen_range(-64..64));
            let d = self.int_dst(rng);
            Instruction::int_imm(op, s, imm, d)
        } else {
            let (a, b) = (self.int_src(rng), self.int_src(rng));
            let d = self.int_dst(rng);
            Instruction::int3(op, a, b, d)
        }
    }

    fn gen_int_muldiv(&mut self, rng: &mut SmallRng) -> Instruction {
        let ops = [Opcode::Umul, Opcode::Smul, Opcode::Udiv, Opcode::Sdiv];
        let op = ops[rng.gen_range(0..ops.len())];
        let (a, b) = (self.int_src(rng), self.int_src(rng));
        let d = self.int_dst(rng);
        Instruction::int3(op, a, b, d)
    }

    fn gen_fp3(&mut self, rng: &mut SmallRng, op: Opcode) -> Instruction {
        let (a, b) = (self.fp_src(rng), self.fp_src(rng));
        let d = self.fp_dst(rng);
        Instruction::fp3(op, a, b, d)
    }

    fn gen_fp_add(&mut self, rng: &mut SmallRng) -> Instruction {
        match rng.gen_range(0..10) {
            0..=5 => self.gen_fp3(rng, Opcode::FAddD),
            6..=8 => self.gen_fp3(rng, Opcode::FSubD),
            _ => {
                let s = self.fp_src(rng);
                let d = self.fp_dst(rng);
                Instruction::fp2(Opcode::FMovS, s, d)
            }
        }
    }

    fn gen_load(&mut self, rng: &mut SmallRng, mem: MemRef) -> Instruction {
        if self.fp_heavy && rng.gen::<f64>() < 0.7 {
            let op = if rng.gen::<f64>() < 0.6 {
                Opcode::LdDf
            } else {
                Opcode::LdF
            };
            let mut d = self.fp_dst(rng);
            // A double-word load defines the register *pair*: keep it off
            // the hub register's partner or the hub would be clobbered.
            if op == Opcode::LdDf {
                while d.pair_partner() == Some(HUB_REG) {
                    d = self.fp_dst(rng);
                }
            }
            Instruction::load(op, mem, d)
        } else {
            let d = self.int_dst(rng);
            Instruction::load(Opcode::Ld, mem, d)
        }
    }

    fn gen_store(&mut self, rng: &mut SmallRng, mem: MemRef) -> Instruction {
        if self.fp_heavy && rng.gen::<f64>() < 0.7 {
            let op = if rng.gen::<f64>() < 0.6 {
                Opcode::StDf
            } else {
                Opcode::StF
            };
            Instruction::store(op, self.fp_src(rng), mem)
        } else {
            Instruction::store(Opcode::St, self.int_src(rng), mem)
        }
    }

    /// Intern a fresh symbolic expression for this block and fix its
    /// addressing template (base register + offset).
    fn new_expr(
        &self,
        rng: &mut SmallRng,
        program: &mut Program,
        block_idx: usize,
        k: usize,
    ) -> (MemExprId, MemRef) {
        let base = if rng.gen::<f64>() < 0.4 {
            Reg::fp()
        } else {
            BASE_POOL[rng.gen_range(0..BASE_POOL.len())]
        };
        let offset = 8 * k as i32;
        let text = format!("{}.b{block_idx}.e{k}", self.name);
        let id = program.mem_exprs.intern(&text);
        (id, MemRef::base_offset(base, offset, id))
    }
}

fn push_recent(pool: &mut Vec<Reg>, r: Reg) {
    pool.push(r);
    if pool.len() > RECENT_CAP {
        pool.remove(0);
    }
}

/// Destination-safe integer registers (`%o0-%o5`, `%l0-%l7`, `%i0-%i5`,
/// `%g1-%g3`).
static INT_POOL: &[Reg] = &[
    Reg::Int(8),
    Reg::Int(9),
    Reg::Int(10),
    Reg::Int(11),
    Reg::Int(12),
    Reg::Int(13),
    Reg::Int(16),
    Reg::Int(17),
    Reg::Int(18),
    Reg::Int(19),
    Reg::Int(20),
    Reg::Int(21),
    Reg::Int(22),
    Reg::Int(23),
    Reg::Int(24),
    Reg::Int(25),
    Reg::Int(26),
    Reg::Int(27),
    Reg::Int(28),
    Reg::Int(29),
    Reg::Int(1),
    Reg::Int(2),
    Reg::Int(3),
];

/// Base registers for non-stack memory references.
static BASE_POOL: &[Reg] = &[
    Reg::Int(24),
    Reg::Int(25),
    Reg::Int(26),
    Reg::Int(27),
    Reg::Int(1),
    Reg::Int(2),
];

/// Positions (indices into `mem_positions`) at which new expressions are
/// introduced, following the placement's quantiles.
fn introduction_points(mem_positions: &[usize], unique: usize, placement: Placement) -> Vec<usize> {
    let m = mem_positions.len();
    if m == 0 || unique == 0 {
        return Vec::new();
    }
    let u = unique.min(m);
    let mut taken = vec![false; m];
    let mut out = Vec::with_capacity(u);
    for k in 0..u {
        let q = (k as f64 + 0.5) / u as f64;
        let x = match placement {
            Placement::Uniform => q,
            // Density ∝ x (CDF x²): first occurrences skew toward the end
            // of the block — the fpppp property of §6, with the exponent
            // calibrated so the windowed unique-expression maxima of
            // fpppp-1000/2000/4000 track Table 3.
            Placement::EndHeavy => q.sqrt(),
        };
        let mut ix = ((x * m as f64) as usize).min(m - 1);
        // Find the nearest free slot.
        while taken[ix] {
            ix = if ix + 1 < m { ix + 1 } else { 0 };
        }
        taken[ix] = true;
        out.push(mem_positions[ix]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ALL_PROFILES;

    #[test]
    fn generation_is_deterministic() {
        let p = BenchmarkProfile::by_name("grep").unwrap();
        let a = generate(p, 1991);
        let b = generate(p, 1991);
        assert_eq!(a.program.insns, b.program.insns);
        let c = generate(p, 42);
        assert_ne!(a.program.insns, c.program.insns, "different seed differs");
    }

    #[test]
    fn block_structure_round_trips_through_the_partitioner() {
        for name in ["grep", "linpack", "tomcatv"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            let bench = generate(p, 1991);
            assert_eq!(bench.blocks, bench.program.basic_blocks(), "{name}");
        }
    }

    #[test]
    fn totals_match_profile_exactly() {
        for p in ALL_PROFILES.iter().filter(|p| p.window.is_none()) {
            if p.insts > 12000 {
                continue; // fpppp covered by its own test below
            }
            let bench = generate(p, 1991);
            assert_eq!(bench.program.len(), p.insts, "{} insts", p.name);
            assert_eq!(bench.blocks.len(), p.blocks, "{} blocks", p.name);
            let max = bench.blocks.iter().map(|b| b.len()).max().unwrap();
            assert_eq!(max, p.max_block, "{} max block", p.name);
        }
    }

    #[test]
    fn fpppp_and_window_variants_have_paper_block_counts() {
        for name in ["fpppp", "fpppp-1000", "fpppp-2000", "fpppp-4000"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            let bench = generate(p, 1991);
            assert_eq!(bench.program.len(), 25545, "{name} insts");
            assert_eq!(bench.blocks.len(), p.blocks, "{name} blocks");
            let max = bench.blocks.iter().map(|b| b.len()).max().unwrap();
            assert_eq!(max, p.max_block, "{name} max block");
        }
    }

    #[test]
    fn unique_mem_expr_stats_track_table3() {
        for name in ["grep", "linpack", "tomcatv", "nasa7"] {
            let p = BenchmarkProfile::by_name(name).unwrap();
            let bench = generate(p, 1991);
            let uniques: Vec<usize> = bench
                .blocks
                .iter()
                .map(|b| {
                    let mut set = std::collections::HashSet::new();
                    for insn in bench.program.block_insns(b) {
                        if let Some(m) = &insn.mem {
                            set.insert(m.expr);
                        }
                    }
                    set.len()
                })
                .collect();
            let max = *uniques.iter().max().unwrap();
            let avg = uniques.iter().sum::<usize>() as f64 / uniques.len() as f64;
            assert_eq!(max, p.mem_max, "{name}: max unique mem exprs");
            assert!(
                (avg - p.mem_avg).abs() / p.mem_avg < 0.35,
                "{name}: avg unique {avg:.2} vs target {}",
                p.mem_avg
            );
        }
    }

    #[test]
    fn endheavy_placement_concentrates_new_exprs_late() {
        let p = BenchmarkProfile::by_name("fpppp").unwrap();
        let bench = generate(p, 1991);
        let big = bench
            .blocks
            .iter()
            .find(|b| b.len() == 11750)
            .expect("the 11750 block");
        let insns = bench.program.block_insns(big);
        let mut seen = std::collections::HashSet::new();
        let mut first_positions = Vec::new();
        for (i, insn) in insns.iter().enumerate() {
            if let Some(m) = &insn.mem {
                if seen.insert(m.expr) {
                    first_positions.push(i);
                }
            }
        }
        let late = first_positions
            .iter()
            .filter(|&&i| i > insns.len() * 2 / 3)
            .count();
        assert!(
            late as f64 > 0.5 * first_positions.len() as f64,
            "end-heavy: most first occurrences in the last third ({late}/{})",
            first_positions.len()
        );
    }

    #[test]
    fn window_variants_share_the_base_stream() {
        let base = generate(BenchmarkProfile::by_name("fpppp").unwrap(), 7);
        let w = generate(BenchmarkProfile::by_name("fpppp-1000").unwrap(), 7);
        assert_eq!(base.program.insns, w.program.insns);
        assert!(w.blocks.len() > base.blocks.len());
    }

    #[test]
    fn zero_unique_blocks_have_no_memory_traffic() {
        let p = BenchmarkProfile::by_name("grep").unwrap();
        let bench = generate(p, 1991);
        for b in &bench.blocks {
            let insns = bench.program.block_insns(b);
            let uniques: std::collections::HashSet<_> =
                insns.iter().filter_map(|i| i.mem.map(|m| m.expr)).collect();
            let mems = insns.iter().filter(|i| i.is_mem()).count();
            if uniques.is_empty() {
                assert_eq!(mems, 0, "no-expr block must carry no mem ops");
            }
        }
    }
}
