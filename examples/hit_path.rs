//! Where a cache hit's time goes: every stage a served request crosses
//! when all of its blocks hit the daemon's schedule cache, timed in one
//! thread with the transport left out.
//!
//! The requests are the four `serve-hit` programs (grep, regex, dfa,
//! tomcatv) at the given seed, rendered as assembly and cut at block
//! boundaries into functions of 32–128 blocks. After one warm pass,
//! each request goes through the stages below `ROUNDS` times; the table
//! gives the median and mean microseconds per request, and the median
//! in nanoseconds per instruction (the median over the mean request
//! length), the unit the per-instruction text kernels cost in.
//!
//! Each stage runs the code the product path runs: the client writes
//! and reads payloads with the direct codec, the daemon decodes and
//! keys the request as its reactor does, and the response is written
//! straight from the schedule, as a compile worker writes it. The last
//! row is a worker's whole share, decode to reply payload. The example
//! panics if a block misses the cache, so a broken hit path fails it.
//!
//! ```text
//! cargo run --release --example hit_path [SEED] [ROUNDS]
//! ```

use std::time::Instant;

use dagsched::batch::{schedule_program_batch_scratch, Limits};
use dagsched::core::Scratch;
use dagsched::isa::splitmix64;
use dagsched::proto::{
    build_driver_config, write_response_json, BlockSummary, RequestInput, ScheduleRequest,
    ScheduleResponse,
};
use dagsched::service::engine::compile_at;
use dagsched::service::{execute, CacheConfig, EngineLimits, ScheduleCache};
use dagsched::workloads::{generate, parse_asm, BenchmarkProfile};

const STAGES: [&str; 8] = [
    "client encode",
    "decode",
    "canonical key",
    "parse",
    "warm batch",
    "response write",
    "client decode",
    "worker (total)",
];

/// The request texts: each program cut into 32–128-block functions.
fn requests(seed: u64) -> Vec<String> {
    let mut state = seed;
    let mut out = Vec::new();
    for name in ["grep", "regex", "dfa", "tomcatv"] {
        let program = generate(BenchmarkProfile::by_name(name).unwrap(), seed).program;
        let blocks = program.basic_blocks();
        let mut start = 0;
        while start < blocks.len() {
            let end = (start + 32 + (splitmix64(&mut state) % 97) as usize).min(blocks.len());
            out.push(
                blocks[start..end]
                    .iter()
                    .flat_map(|b| program.block_insns(b))
                    .map(|insn| format!("{insn}\n"))
                    .collect(),
            );
            start = end;
        }
    }
    out
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a number"));
    let seed = args.next().unwrap_or(7);
    let rounds = args.next().unwrap_or(30) as usize;
    let texts = requests(seed);
    let reqs: Vec<ScheduleRequest> = texts.iter().cloned().map(ScheduleRequest::asm).collect();
    let (config, model) = build_driver_config(&reqs[0]).expect("default configuration");
    let cache = ScheduleCache::new(CacheConfig::default());
    let limits = EngineLimits::default();
    let mut scratch = Scratch::new();
    for req in &reqs {
        execute(req, &limits, &cache, &mut scratch).expect("warm pass");
    }

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    // The client's and the worker's buffers, reused across requests as
    // theirs are.
    let (mut payload, mut body) = (String::new(), String::new());
    for _ in 0..rounds {
        for req in &reqs {
            let mut last = Instant::now();
            let mut lap = |stage: usize| {
                let now = Instant::now();
                samples[stage].push((now - last).as_secs_f64() * 1e6);
                last = now;
            };
            payload.clear();
            req.write_json(req.attempt, &mut payload);
            lap(0);
            let decoded = ScheduleRequest::decode(payload.as_bytes()).unwrap();
            lap(1);
            // The daemon's single-flight and quarantine key.
            let key = decoded.canonical_json();
            lap(2);
            let RequestInput::Asm(text) = &decoded.input else {
                unreachable!("asm requests only")
            };
            let program = parse_asm(text).unwrap();
            lap(3);
            let (scheduled, stats) = schedule_program_batch_scratch(
                &program,
                &model,
                &config,
                &Limits::none(),
                &cache,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(stats.cache_misses, 0, "every block hits");
            lap(4);
            body.clear();
            write_response_json(
                &mut body,
                &scheduled.insns,
                scheduled.blocks.iter().map(|b| BlockSummary {
                    block: b.block,
                    len: b.len,
                    original_makespan: b.original_makespan,
                    scheduled_makespan: b.scheduled_makespan,
                }),
                &stats,
                None,
                false,
            );
            lap(5);
            let back = ScheduleResponse::parse(&body).unwrap().unwrap();
            lap(6);
            // Decode to reply payload, as the reactor and a compile
            // worker run it between them.
            let decoded = ScheduleRequest::decode(payload.as_bytes()).unwrap();
            let key_again = decoded.canonical_json();
            let compiled = compile_at(&decoded, &limits, &cache, &mut scratch, Instant::now())
                .expect("warm request");
            body.clear();
            compiled.write_json(&mut body);
            lap(7);
            std::hint::black_box((key, key_again, back));
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
