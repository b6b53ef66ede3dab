//! Where a cache miss's time goes: every stage a served request crosses
//! when none of its blocks is in the daemon's schedule cache, timed in
//! one thread with the transport left out.
//!
//! The requests are the `canon_mix` programs (the Canon DAG shapes the
//! `serve-churn` workload draws from) at the given seed, rendered as
//! assembly. Each round sends every request against a fresh cache, so
//! every block misses: it is keyed, looked up, compiled and stored. The
//! block stages are timed around the calls the batch loop makes for a
//! missed block (`CacheScope::key_in` and `BlockCache::lookup`,
//! `compile_block`, `BlockCache::store`); the paper's three phases come
//! from the compile's `PhaseStats`, and "compile (rest)" is the compile
//! outside them plus writing the emitted stream. The last row is a
//! worker's whole share, decode to reply payload, through the daemon's
//! own `compile_at`, which runs the batch loop itself. The table gives
//! the median and mean microseconds per request, and the median in
//! nanoseconds per instruction (the median over the mean request
//! length). The example panics if a block hits, so a cache that is not
//! fresh fails it.
//!
//! ```text
//! cargo run --release --example miss_path [SEED] [ROUNDS]
//! ```

use std::time::{Duration, Instant};

use dagsched::batch::BlockCache;
use dagsched::core::{PhaseStats, Scratch};
use dagsched::driver::compile_block;
use dagsched::key::CacheScope;
use dagsched::proto::{
    build_driver_config, write_response_json, BlockSummary, RequestInput, ScheduleRequest,
};
use dagsched::service::engine::compile_at;
use dagsched::service::{CacheConfig, EngineLimits, ScheduleCache};
use dagsched::workloads::{canon_mix, generate_canon, parse_asm};

const STAGES: [&str; 11] = [
    "decode",
    "canonical key",
    "parse",
    "keys + lookups",
    "construction",
    "heuristics",
    "scheduling",
    "compile (rest)",
    "store",
    "reply write",
    "worker (total)",
];

/// Microseconds in `d`.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a number"));
    let seed = args.next().unwrap_or(7);
    let rounds = args.next().unwrap_or(30) as usize;
    let texts: Vec<String> = canon_mix()
        .iter()
        .map(|name| {
            let program = generate_canon(name, seed).expect("a canon profile").program;
            program
                .insns
                .iter()
                .map(|insn| format!("{insn}\n"))
                .collect()
        })
        .collect();
    let reqs: Vec<ScheduleRequest> = texts.iter().cloned().map(ScheduleRequest::asm).collect();
    let payloads: Vec<String> = reqs
        .iter()
        .map(|req| {
            let mut payload = String::new();
            req.write_json(req.attempt, &mut payload);
            payload
        })
        .collect();
    let (config, model) = build_driver_config(&reqs[0]).expect("default configuration");
    let limits = EngineLimits::default();
    let mut scratch = Scratch::new();
    let fresh = || ScheduleCache::new(CacheConfig::default());

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    // The worker's reply buffer, reused across requests as a worker's is.
    let mut body = String::new();
    // One round to warm the arena, then the timed rounds.
    for round in 0..=rounds {
        for payload in &payloads {
            let (cache, worker_cache) = (fresh(), fresh());
            let mut row = [0.0; STAGES.len()];
            let mut last = Instant::now();
            let mut lap = |row: &mut [f64], stage: usize| {
                let now = Instant::now();
                row[stage] += us(now - last);
                last = now;
            };
            let decoded = ScheduleRequest::decode(payload.as_bytes()).unwrap();
            lap(&mut row, 0);
            // The daemon's single-flight and quarantine key.
            let key = decoded.canonical_json();
            lap(&mut row, 1);
            let RequestInput::Asm(text) = &decoded.input else {
                unreachable!("asm requests only")
            };
            let program = parse_asm(text).unwrap();
            lap(&mut row, 2);

            // The batch loop's work for each missed block, timed per call.
            scratch.stats = PhaseStats::default();
            let mut insns_out = Vec::with_capacity(program.len());
            let mut reports = Vec::new();
            let t = Instant::now();
            let scope = CacheScope::new(&model, &config);
            let mut keyed = t.elapsed();
            for (bi, b) in program.basic_blocks().iter().enumerate() {
                let insns = program.block_insns(b);
                if insns.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                let block_key = scope.key_in(insns, &mut scratch.key_ordinals);
                let hit = cache.lookup(bi, insns.len(), block_key);
                let t1 = Instant::now();
                assert!(hit.is_none(), "every block misses");
                let outcome =
                    compile_block(bi, insns, &model, &config, None, &mut scratch).unwrap();
                let t2 = Instant::now();
                scratch.stats.cache_misses += 1;
                cache.store(block_key, &outcome);
                let t3 = Instant::now();
                insns_out.extend(outcome.emitted(insns));
                reports.push(outcome.report);
                let t4 = Instant::now();
                keyed += t1 - t0;
                row[7] += us((t2 - t1) + (t4 - t3));
                row[8] += us(t3 - t2);
            }
            let stats = scratch.stats;
            let phases = |ns: u64| ns as f64 / 1e3;
            row[3] = us(keyed);
            row[4] = phases(stats.construct_ns);
            row[5] = phases(stats.heur_ns);
            row[6] = phases(stats.sched_ns);
            row[7] -= phases(stats.construct_ns + stats.heur_ns + stats.sched_ns);
            last = Instant::now();
            body.clear();
            write_response_json(
                &mut body,
                &insns_out,
                reports.iter().map(|b| BlockSummary {
                    block: b.block,
                    len: b.len,
                    original_makespan: b.original_makespan,
                    scheduled_makespan: b.scheduled_makespan,
                }),
                &stats,
                None,
                false,
            );
            row[9] = us(last.elapsed());

            // Decode to reply payload, as the reactor and a compile
            // worker run it between them.
            let start = Instant::now();
            let decoded = ScheduleRequest::decode(payload.as_bytes()).unwrap();
            let key_again = decoded.canonical_json();
            let compiled = compile_at(
                &decoded,
                &limits,
                &worker_cache,
                &mut scratch,
                Instant::now(),
            )
            .expect("a canon request compiles");
            body.clear();
            compiled.write_json(&mut body);
            row[10] = us(start.elapsed());
            assert_eq!(worker_cache.stats().hits, 0, "every block misses");
            std::hint::black_box((key, key_again));
            if round > 0 {
                for (stage, &v) in row.iter().enumerate() {
                    samples[stage].push(v);
                }
            }
        }
    }

    let insns: usize = texts.iter().map(|t| t.lines().count()).sum();
    let per_request = insns as f64 / reqs.len() as f64;
    println!(
        "seed {seed}: {} requests, {per_request:.1} insns per request, {rounds} rounds",
        reqs.len(),
    );
    println!(
        "{:>16} {:>10} {:>10} {:>14}",
        "stage", "median µs", "mean µs", "median ns/insn"
    );
    for (stage, mut s) in STAGES.iter().zip(samples) {
        s.sort_by(f64::total_cmp);
        let median = s[s.len() / 2];
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let per_insn = median * 1e3 / per_request;
        println!("{stage:>16} {median:>10.1} {mean:>10.1} {per_insn:>14.0}");
    }
}
