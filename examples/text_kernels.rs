//! The per-instruction text kernels of a cache hit, timed one at a
//! time: what `hit_path`'s parse, warm batch and response write stages
//! spend per instruction or per block.
//!
//! The input is the four `serve-hit` programs (grep, regex, dfa,
//! tomcatv) at the given seed. Each kernel runs over all of it `ROUNDS`
//! times; the table gives the median and the fastest round in
//! nanoseconds per item:
//!
//! * `from_mnemonic`: one lookup per line, on the mnemonic as written;
//! * `Display`: one instruction rendered into a reused `String`;
//! * `parse_asm`: one line parsed, the lookup and operands included;
//! * `cache lookup`: one block keyed, looked up and replayed under one
//!   `CacheScope`, as the batch loop does on a hit.
//!
//! ```text
//! cargo run --release --example text_kernels [SEED] [ROUNDS]
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dagsched::batch::{schedule_program_batch_scratch, BlockCache, Limits};
use dagsched::core::Scratch;
use dagsched::driver::DriverConfig;
use dagsched::isa::{MachineModel, Opcode, Program};
use dagsched::key::CacheScope;
use dagsched::service::{CacheConfig, ScheduleCache};
use dagsched::workloads::{generate, parse_asm, BenchmarkProfile};

/// Run `kernel` `rounds` times; the median and fastest round, in ns per
/// item.
fn time(rounds: usize, items: usize, mut kernel: impl FnMut()) -> (f64, f64) {
    let mut per_item: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_secs_f64() * 1e9 / items as f64
        })
        .collect();
    per_item.sort_by(f64::total_cmp);
    (per_item[rounds / 2], per_item[0])
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a number"));
    let seed = args.next().unwrap_or(7);
    let rounds = args.next().unwrap_or(30) as usize;
    let programs: Vec<Program> = ["grep", "regex", "dfa", "tomcatv"]
        .iter()
        .map(|name| generate(BenchmarkProfile::by_name(name).unwrap(), seed).program)
        .collect();
    let text: String = programs
        .iter()
        .flat_map(|p| &p.insns)
        .map(|insn| format!("{insn}\n"))
        .collect();
    let lines: Vec<&str> = text.lines().collect();
    let mnemonics: Vec<&str> = lines
        .iter()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let insns: Vec<_> = programs
        .iter()
        .flat_map(|p| p.insns.iter().copied())
        .collect();

    // A cache holding every block, and the blocks to look up in it.
    let (model, config) = (MachineModel::sparc2(), DriverConfig::default());
    let cache = ScheduleCache::new(CacheConfig::default());
    let mut scratch = Scratch::new();
    let mut blocks = Vec::new();
    for p in &programs {
        schedule_program_batch_scratch(p, &model, &config, &Limits::none(), &cache, &mut scratch)
            .expect("the serve-hit programs compile");
        for b in p.basic_blocks() {
            if !p.block_insns(&b).is_empty() {
                blocks.push(p.block_insns(&b));
            }
        }
    }
    let scope = CacheScope::new(&model, &config);

    let mut out = String::new();
    let rows = [
        (
            "from_mnemonic",
            "line",
            time(rounds, mnemonics.len(), || {
                for m in &mnemonics {
                    black_box(Opcode::from_mnemonic(black_box(m)));
                }
            }),
        ),
        (
            "Display",
            "insn",
            time(rounds, insns.len(), || {
                for insn in &insns {
                    out.clear();
                    let _ = write!(out, "{insn}");
                    black_box(&out);
                }
            }),
        ),
        (
            "parse_asm",
            "line",
            time(rounds, lines.len(), || {
                black_box(parse_asm(black_box(&text)).expect("rendered text parses"));
            }),
        ),
        (
            "cache lookup",
            "block",
            time(rounds, blocks.len(), || {
                for (i, block) in blocks.iter().enumerate() {
                    let key = scope.key_in(block, &mut scratch.key_ordinals);
                    black_box(cache.lookup(i, block.len(), key).expect("every block hits"));
                }
            }),
        ),
    ];
    println!(
        "seed {seed}: {} lines, {} blocks, {rounds} rounds",
        lines.len(),
        blocks.len()
    );
    println!(
        "{:>14} {:>6} {:>10} {:>10}",
        "kernel", "per", "median ns", "best ns"
    );
    for (kernel, per, (median, best)) in rows {
        println!("{kernel:>14} {per:>6} {median:>10.1} {best:>10.1}");
    }
}
