//! Where a cache hit's time goes: every stage a served request crosses
//! when all of its blocks hit the daemon's schedule cache, timed in one
//! thread with the transport left out.
//!
//! The requests are the four `serve-hit` programs (grep, regex, dfa,
//! tomcatv) at the given seed, rendered as assembly and cut at block
//! boundaries into functions of 32–128 blocks. After one warm pass,
//! each request goes through the stages below `ROUNDS` times; the table
//! gives the median and mean microseconds per request.
//!
//! ```text
//! cargo run --release --example hit_path [SEED] [ROUNDS]
//! ```

use std::time::Instant;

use dagsched::batch::{schedule_program_batch_scratch, Limits};
use dagsched::core::Scratch;
use dagsched::isa::splitmix64;
use dagsched::proto::json::Json;
use dagsched::proto::{
    build_driver_config, BlockSummary, RequestInput, ScheduleRequest, ScheduleResponse,
};
use dagsched::service::{execute, CacheConfig, EngineLimits, ScheduleCache};
use dagsched::workloads::{generate, parse_asm, BenchmarkProfile};

const STAGES: [&str; 9] = [
    "client encode",
    "decode",
    "canonical key",
    "parse",
    "warm batch",
    "response render",
    "response encode",
    "client decode",
    "execute (total)",
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
    for _ in 0..rounds {
        for req in &reqs {
            let mut last = Instant::now();
            let mut lap = |stage: usize| {
                let now = Instant::now();
                samples[stage].push((now - last).as_secs_f64() * 1e6);
                last = now;
            };
            let payload = req.to_json().to_string();
            lap(0);
            let decoded = ScheduleRequest::from_json(&Json::parse(&payload).unwrap()).unwrap();
            lap(1);
            // The daemon's single-flight and quarantine key.
            let mut canonical = decoded.clone();
            canonical.attempt = 0;
            let key = canonical.to_json().to_string();
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
            let resp = ScheduleResponse {
                insns: scheduled.insns.iter().map(|i| i.to_string()).collect(),
                blocks: scheduled
                    .blocks
                    .iter()
                    .map(|b| BlockSummary {
                        block: b.block,
                        len: b.len,
                        original_makespan: b.original_makespan,
                        scheduled_makespan: b.scheduled_makespan,
                    })
                    .collect(),
                degraded: false,
                stats,
                cycles: None,
            };
            lap(5);
            let body = resp.to_json().to_string();
            lap(6);
            let back = ScheduleResponse::from_json(&Json::parse(&body).unwrap()).unwrap();
            lap(7);
            // Decode-to-response in one call, as a daemon worker runs it.
            let whole = execute(&decoded, &limits, &cache, &mut scratch).unwrap();
            lap(8);
            std::hint::black_box((key, back, whole));
        }
    }

    let insns: usize = texts.iter().map(|t| t.lines().count()).sum();
    println!(
        "seed {seed}: {} requests, {:.1} insns per request, {rounds} rounds",
        reqs.len(),
        insns as f64 / reqs.len() as f64
    );
    println!("{:>16} {:>10} {:>10}", "stage", "median µs", "mean µs");
    for (stage, mut s) in STAGES.iter().zip(samples) {
        s.sort_by(f64::total_cmp);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        println!("{stage:>16} {:>10.1} {mean:>10.1}", s[s.len() / 2]);
    }
}
