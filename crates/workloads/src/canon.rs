//! Canon-style DAG-shape generators for the overload workload mix.
//!
//! The Table 3 profiles reproduce the *statistics* of the paper's
//! benchmarks; they do not let an experiment dial in a dependence
//! *shape*. The overload audit wants exactly that: a heavy mix of
//! blocks whose DAGs stress the scheduler differently — dense random
//! graphs, layered pipelines, reductions, broadcasts — at varied
//! sizes, so a saturated daemon sees heterogeneous service times
//! rather than one comfortable distribution.
//!
//! Profiles here are *parametric names*, resolved dynamically rather
//! than listed in [`crate::ALL_PROFILES`]: `canon-<shape>-<n>` builds
//! one benchmark whose main block is an `n`-node DAG of the given
//! shape (plus two smaller echo blocks of the same shape, so every
//! request still exercises multi-block batching):
//!
//! * `canon-gnp-<n>` — Erdős–Rényi-style `G(n, p)` precedence: each
//!   node depends on each earlier node with probability `p ≈ 4/n`
//!   (expected in-degree ~2, independent of size).
//! * `canon-layers-<n>` — layer-by-layer: `√n`-wide ranks where every
//!   node reads one or two nodes of the previous rank.
//! * `canon-fanin-<n>` — a reduction tree: leaves first, every
//!   interior node folds the two oldest unconsumed values.
//! * `canon-fanout-<n>` — a broadcast: one root, every later node
//!   reads it (and sometimes one other earlier node).
//!
//! Dependencies are realized through registers (each node writes one
//! register from a rotating pool and reads its predecessors'), with
//! loads/stores against per-block unique memory expressions mixed in
//! the same way [`crate::generate`] does. Register reuse adds the
//! anti/output edges any real allocator would; the requested shape is
//! the true-dependence skeleton. Deterministic in `(name, seed)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dagsched_isa::{fnv64, Instruction, MemRef, Opcode, Program, Reg};

use crate::gen::Benchmark;

/// The dependence skeleton a canon profile asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Gnp,
    Layers,
    FanIn,
    FanOut,
}

/// The heavy mix the overload harness cycles over: every shape at
/// varied sizes, from quick fills to compile-bound giants.
pub fn canon_mix() -> Vec<String> {
    [
        "canon-gnp-64",
        "canon-gnp-192",
        "canon-gnp-384",
        "canon-layers-96",
        "canon-layers-256",
        "canon-fanin-128",
        "canon-fanin-320",
        "canon-fanout-128",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Parse `canon-<shape>-<n>`; `None` when the name is not a canon
/// profile (the caller falls back to the Table 3 lookup).
fn parse_name(name: &str) -> Option<(Shape, usize)> {
    let rest = name.strip_prefix("canon-")?;
    let (shape, n) = rest.split_once('-')?;
    let n: usize = n.parse().ok()?;
    if !(8..=4096).contains(&n) {
        return None;
    }
    let shape = match shape {
        "gnp" => Shape::Gnp,
        "layers" => Shape::Layers,
        "fanin" => Shape::FanIn,
        "fanout" => Shape::FanOut,
        _ => return None,
    };
    Some((shape, n))
}

/// Whether `name` names a canon profile [`generate_canon`] can build.
pub fn is_canon_profile(name: &str) -> bool {
    parse_name(name).is_some()
}

/// Generate the benchmark for a `canon-<shape>-<n>` profile name, or
/// `None` if the name does not parse as one.
pub fn generate_canon(name: &str, seed: u64) -> Option<Benchmark> {
    let (shape, n) = parse_name(name)?;
    // The same name-mixing `crate::generate` uses, so equal seeds across
    // different canon profiles still draw distinct streams.
    let mut rng = SmallRng::seed_from_u64(seed ^ fnv64(name.as_bytes()));
    let mut program = Program::new();
    // The headline block plus two smaller echoes of the same shape:
    // multi-block requests keep the daemon's batching machinery honest
    // while the big block dominates service time.
    for (block_idx, m) in [n, (n / 2).max(8), (n / 3).max(8)].into_iter().enumerate() {
        emit_dag_block(&mut rng, &mut program, name, block_idx, shape, m);
    }
    let blocks = program.basic_blocks();
    Some(Benchmark {
        name: name.to_string(),
        program,
        blocks,
    })
}

/// The rotating destination pool: every allocatable integer register
/// the Table 3 generator also treats as fair game.
const POOL: [Reg; 25] = [
    Reg::Int(16),
    Reg::Int(17),
    Reg::Int(18),
    Reg::Int(19),
    Reg::Int(20),
    Reg::Int(21),
    Reg::Int(22),
    Reg::Int(23), // %l0-%l7
    Reg::Int(8),
    Reg::Int(9),
    Reg::Int(10),
    Reg::Int(11),
    Reg::Int(12),
    Reg::Int(13), // %o0-%o5
    Reg::Int(24),
    Reg::Int(25),
    Reg::Int(26),
    Reg::Int(27),
    Reg::Int(28),
    Reg::Int(29), // %i0-%i5
    Reg::Int(1),
    Reg::Int(2),
    Reg::Int(3),
    Reg::Int(4),
    Reg::Int(5), // %g1-%g5
];

/// The register node `v` writes (and successors read).
fn reg_of(v: usize) -> Reg {
    POOL[v % POOL.len()]
}

/// Sample each node's true-dependence predecessors for `shape`. Every
/// returned index is strictly smaller than the node's own, so emitting
/// nodes in order realizes the DAG.
fn sample_preds(rng: &mut SmallRng, shape: Shape, m: usize) -> Vec<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); m];
    match shape {
        Shape::Gnp => {
            // Expected in-degree ~2 regardless of size: p = 4/m over
            // v earlier candidates averages 2 across the block.
            let p = (4.0 / m as f64).min(1.0);
            for (v, pv) in preds.iter_mut().enumerate().skip(1) {
                for u in 0..v {
                    if rng.gen::<f64>() < p {
                        pv.push(u);
                    }
                }
            }
        }
        Shape::Layers => {
            let width = (m as f64).sqrt().round().max(1.0) as usize;
            for (v, pv) in preds.iter_mut().enumerate().skip(width) {
                let layer_start = v / width * width;
                let prev_start = layer_start - width;
                let a = prev_start + rng.gen_range(0..width).min(layer_start - prev_start - 1);
                pv.push(a.min(layer_start - 1));
                if rng.gen::<f64>() < 0.5 {
                    let b = prev_start + rng.gen_range(0..width);
                    pv.push(b.min(layer_start - 1));
                }
            }
        }
        Shape::FanIn => {
            // Reduction: leaves are the first ~half, then every node
            // folds the two oldest values not yet consumed.
            let leaves = m.div_ceil(2).max(1);
            let mut next = 0usize;
            for (v, pv) in preds.iter_mut().enumerate().skip(leaves) {
                if next + 1 < v {
                    pv.push(next);
                    pv.push(next + 1);
                    next += 2;
                } else if next < v {
                    pv.push(next);
                    next += 1;
                }
            }
        }
        Shape::FanOut => {
            for (v, p) in preds.iter_mut().enumerate().skip(1) {
                p.push(0);
                if rng.gen::<f64>() < 0.3 {
                    p.push(rng.gen_range(0..v));
                }
            }
        }
    }
    preds
}

/// Emit one block realizing an `m`-node DAG of `shape`, terminated the
/// way the Table 3 generator terminates blocks (`cmp` + `bicc`).
fn emit_dag_block(
    rng: &mut SmallRng,
    program: &mut Program,
    name: &str,
    block_idx: usize,
    shape: Shape,
    m: usize,
) {
    let preds = sample_preds(rng, shape, m);
    let mut mem_serial = 0usize;
    let new_mem = |program: &mut Program, k: usize| -> MemRef {
        let text = format!("{name}.b{block_idx}.e{k}");
        let id = program.mem_exprs.intern(&text);
        MemRef::base_offset(Reg::fp(), 8 * k as i32, id)
    };
    for (v, pv) in preds.iter().enumerate() {
        let rd = reg_of(v);
        // Registers carry at most two predecessors; denser G(n,p)
        // in-degrees keep the two most recent (the rest still shape
        // the block through the transitive closure).
        let take = &pv[pv.len().saturating_sub(2)..];
        let insn = match *take {
            [] => Instruction::mov_imm(i64::try_from(v).unwrap_or(0), rd),
            [a] => {
                if rng.gen::<f64>() < 0.25 {
                    // A load whose address depends on the predecessor.
                    let k = mem_serial;
                    mem_serial += 1;
                    let mem = new_mem(program, k);
                    let mem = MemRef::base_offset(reg_of(a), mem.offset, mem.expr);
                    Instruction::load(Opcode::Ld, mem, rd)
                } else {
                    Instruction::int_imm(Opcode::Add, reg_of(a), 8, rd)
                }
            }
            [a, b] => {
                let op = match rng.gen_range(0..8u32) {
                    0..=2 => Opcode::Add,
                    3 | 4 => Opcode::Sub,
                    5 => Opcode::Xor,
                    6 => Opcode::Umul,
                    _ => Opcode::And,
                };
                Instruction::int3(op, reg_of(a), reg_of(b), rd)
            }
            _ => unreachable!("take is at most two predecessors"),
        };
        program.push(insn);
        // Spill roughly every eighth value to its own unique memory
        // expression: stores make the sink frontier visible to the
        // DAG builder's memory ledger, as the Table 3 blocks do.
        if v % 8 == 7 {
            let k = mem_serial;
            mem_serial += 1;
            let mem = new_mem(program, k);
            program.push(Instruction::store(Opcode::St, rd, mem));
        }
    }
    program.push(Instruction::cmp(reg_of(m.saturating_sub(1)), Reg::g(0)));
    program.push(Instruction::branch(Opcode::Bicc));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_names_parse_and_foreign_names_do_not() {
        assert!(is_canon_profile("canon-gnp-64"));
        assert!(is_canon_profile("canon-layers-96"));
        assert!(is_canon_profile("canon-fanin-128"));
        assert!(is_canon_profile("canon-fanout-320"));
        for bad in [
            "grep",
            "canon-gnp",
            "canon-gnp-0",
            "canon-gnp-9999",
            "canon-ring-64",
            "canon-gnp-64-extra",
        ] {
            assert!(!is_canon_profile(bad), "{bad} must not parse");
        }
        for name in canon_mix() {
            assert!(is_canon_profile(&name), "{name} from the mix must parse");
        }
    }

    #[test]
    fn generation_is_deterministic_in_name_and_seed() {
        let a = generate_canon("canon-gnp-64", 1991).unwrap();
        let b = generate_canon("canon-gnp-64", 1991).unwrap();
        assert_eq!(a.program.insns.len(), b.program.insns.len());
        let render = |bench: &Benchmark| {
            bench
                .program
                .insns
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b), "same (name, seed) → same bytes");
        let c = generate_canon("canon-gnp-64", 7).unwrap();
        assert_ne!(render(&a), render(&c), "a different seed must differ");
    }

    #[test]
    fn every_mix_entry_builds_a_multi_block_benchmark() {
        for name in canon_mix() {
            let bench = generate_canon(&name, 1991).unwrap();
            assert!(
                bench.blocks.len() >= 3,
                "{name}: headline block plus echoes"
            );
            assert!(!bench.program.insns.is_empty(), "{name}: non-empty program");
            // The headline block dominates: it holds at least as many
            // instructions as either echo.
            let sizes: Vec<usize> = bench
                .blocks
                .iter()
                .map(|b| bench.program.block_insns(b).len())
                .collect();
            assert!(sizes[0] >= sizes[1] && sizes[0] >= sizes[2], "{sizes:?}");
        }
    }

    #[test]
    fn shapes_produce_the_advertised_dependence_skeletons() {
        let mut rng = SmallRng::seed_from_u64(42);
        // Fan-out: every non-root node reads the root.
        let preds = sample_preds(&mut rng, Shape::FanOut, 64);
        assert!(preds.iter().skip(1).all(|p| p.contains(&0)));
        // Fan-in: interior nodes fold exactly two older values, and no
        // value is folded twice.
        let preds = sample_preds(&mut rng, Shape::FanIn, 64);
        let mut consumed = std::collections::HashSet::new();
        for (v, pv) in preds.iter().enumerate() {
            for &u in pv {
                assert!(u < v, "edges point backwards");
                assert!(consumed.insert(u), "value {u} folded twice");
            }
        }
        // Layers: every predecessor sits in the immediately previous
        // rank.
        let m = 100; // width 10
        let preds = sample_preds(&mut rng, Shape::Layers, m);
        for (v, pv) in preds.iter().enumerate().skip(10) {
            for &u in pv {
                assert_eq!(u / 10, v / 10 - 1, "node {v} must read rank {}", v / 10 - 1);
            }
        }
        // G(n,p): mean in-degree lands near 2.
        let preds = sample_preds(&mut rng, Shape::Gnp, 256);
        let edges: usize = preds.iter().map(Vec::len).sum();
        let mean = edges as f64 / 256.0;
        assert!((0.5..=4.0).contains(&mean), "mean in-degree {mean}");
    }
}
