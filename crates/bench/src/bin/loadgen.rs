//! `loadgen` — closed-plus-paced load harness for `dagsched-service`.
//!
//! Replays the paper's workload profiles against a scheduling daemon at
//! a target request rate and reports client-observed latency
//! percentiles plus the server's cache hit rate:
//!
//! ```text
//! loadgen --qps 200 --requests 400 --clients 4 --out service-load.json
//! loadgen --connect unix:/tmp/dagsched.sock --profiles grep,yacc
//! ```
//!
//! Without `--connect` the harness starts an in-process server on an
//! ephemeral TCP port, so a single binary produces the whole
//! measurement. Requests cycle over `profiles x seeds`; with the
//! default `--seeds 8` and hundreds of requests, the steady state is
//! dominated by cache hits — exactly the regime the daemon exists for.
//! The run is summarized into a JSON artifact (default
//! `service-load.json`).
//!
//! # Chaos mode
//!
//! Built with `--features chaos`, the harness gains a `--chaos` flag
//! that turns the run into a fault-tolerance audit: the in-process
//! server is configured with deterministic fault injection (10% worker
//! panics, 10% slow replies, plus truncated/corrupted/reset response
//! frames), every request goes through the retrying client, and the
//! run *fails* unless all of the following hold:
//!
//! 1. the daemon survives — it still answers a ping after the last
//!    request and drains cleanly;
//! 2. every request reaches a terminal outcome — a response or a typed
//!    error — rather than hanging;
//! 3. every `degraded: false` response is bit-identical to a fresh
//!    serial compile of the same program;
//! 4. every `degraded: true` response passes the standalone validity
//!    oracle (`dagsched_verify::check_reordering_text`).
//!
//! ```text
//! loadgen --chaos --seed 1991 --deadline-ms 200 --out service-chaos.json
//! ```
//!
//! The same `--seed` replays the same fault stream bit-for-bit, so a
//! chaos run that found a bug is a reproducer, not an anecdote.
//!
//! # Crash-loop mode
//!
//! Also behind `--features chaos`, `--crash-loop N` audits the *other*
//! failure axis: process death. The harness spawns the daemon as a
//! child process (this same binary, re-executed in a hidden serve-only
//! mode) with a persistent `--state-dir`, then runs N kill cycles:
//! pump requests, `SIGKILL` the daemon mid-load, corrupt the surviving
//! store files with the seeded storage-fault injector (torn final
//! record, WAL bit flip, truncated snapshot, duplicated WAL tail),
//! restart, repeat. The run *fails* unless:
//!
//! 1. no corrupt reply is ever served — every successful response is
//!    bit-identical to a fresh serial compile of the same program;
//! 2. the final restart recovers a warm cache — post-restart hit rate
//!    is at least half the pre-crash hit rate, and the server reports
//!    `recovered_entries > 0`;
//! 3. after a graceful final drain, `fsck` finds the store clean.
//!
//! ```text
//! loadgen --crash-loop 5 --seed 7 --out service-crash-loop.json
//! ```
//!
//! # Cluster mode
//!
//! `--cluster N` audits the router tier: the harness spawns N shard
//! daemons as child processes (this binary re-executed in the hidden
//! serve-only mode), stands up an in-process `dagsched-router` over
//! them, and drives the whole load through the router. Every reply is
//! verified bit-identical to a fresh serial compile — routed and
//! direct answers must be the same bytes. With `--kill-shard`, one
//! shard is `SIGKILL`ed mid-run; the run *fails* unless:
//!
//! 1. zero invariant violations — every reply (before, during, and
//!    after the kill) matches the serial compile, and no request ends
//!    in an error despite the retry budget;
//! 2. the post-failover hit rate is at least half the pre-kill rate
//!    (the ring's stable placement plus replication keeps the
//!    surviving caches useful).
//!
//! ```text
//! loadgen --cluster 3 --kill-shard --requests 300 --out service-cluster.json
//! ```
//!
//! # Netchaos mode
//!
//! `--netchaos` (composes with `--cluster N`) audits the *gray*-failure
//! axis: instead of killing a shard, every router→shard link runs
//! through a seeded `dagsched-netchaos` wire proxy injecting latency,
//! bandwidth caps, mid-frame stalls, one-way partitions, resets, and
//! byte corruption on at least 10% of connections (`--faults`, in ‰).
//! On top of the seeded background faults, one scripted episode fires
//! mid-run: link 0's request direction is blackholed (the nastiest
//! gray failure — replies flow, requests vanish), held until the
//! victim's circuit breaker opens on probe evidence, exercised with an
//! open-breaker pass, then healed so the breaker must walk back
//! through half-open trials. The run *fails* unless:
//!
//! 1. zero crashes — the router still answers a ping and every shard
//!    drains gracefully after the run;
//! 2. every request reaches a terminal outcome — a verified response
//!    or a typed error — rather than hanging;
//! 3. every reply is bit-identical to a fresh serial compile (the
//!    frame checksum turns in-flight corruption into retries, never
//!    silently-wrong schedules);
//! 4. the gray-failure machinery demonstrably engaged: at least one
//!    failover, one breaker-open, one hedged request, and one hedge
//!    win.
//!
//! ```text
//! loadgen --cluster 3 --netchaos --seed 1991 --out service-netchaos.json
//! ```
//!
//! # Overload mode
//!
//! `--overload` audits the *load* axis: metastable failure under a
//! demand spike. The harness first measures the in-process daemon's
//! capacity closed-loop, then steps offered load 1× → 3× → 1× of that
//! capacity over a Canon-style heavy DAG-shape mix (`canon-*`
//! profiles: G(n,p), layered, fan-in, fan-out at varied sizes), with
//! every request carrying a deadline and every client retrying through
//! one shared token-bucket [`RetryBudget`]. The run *fails* unless:
//!
//! 1. goodput during the 3× spike stays at ≥70% of measured capacity —
//!    the daemon sheds excess instead of collapsing;
//! 2. p99 latency of *admitted* requests stays bounded by the deadline
//!    plus a fixed slack — queueing is controlled, not unbounded;
//! 3. retry amplification (wire requests ÷ logical requests) stays
//!    under 1.3× — the budget prevents a retry storm;
//! 4. goodput recovers to ≥95% of baseline within 10 s of the spike
//!    ending — no metastable sustained collapse;
//! 5. the daemon sheds some work by deadline (`shed_expired > 0`),
//!    answers a ping afterwards, and every request reaches a terminal
//!    outcome.
//!
//! ```text
//! loadgen --overload --out service-overload.json
//! ```

use std::collections::HashMap;
use std::io;
use std::path::Path;
#[cfg(feature = "chaos")]
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dagsched_driver::{schedule_program_batch, DriverConfig, Limits, NoCache};
use dagsched_isa::MachineModel;
use dagsched_netchaos::{serve_proxy, ChaosConfig, Direction, ProxyHandle};
use dagsched_router::{serve_router, RouterConfig};
use dagsched_sched::{Scheduler, SchedulerKind};
use dagsched_service::json::Json;
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{Client, RetryBudget, RetryPolicy, ScheduleRequest};
use dagsched_stats::percentile;
use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

struct Options {
    /// Endpoint to dial; `None` starts an in-process server.
    connect: Option<String>,
    /// Bind the in-process server to this Unix socket path instead of
    /// an ephemeral TCP port.
    unix: Option<String>,
    /// Target aggregate request rate (requests/second).
    qps: f64,
    /// Total requests to issue.
    requests: usize,
    /// Concurrent client connections.
    clients: usize,
    /// Workload profiles to cycle over.
    profiles: Vec<String>,
    /// Distinct generator seeds per profile (controls the hit rate:
    /// the working set is `profiles x seeds` distinct programs).
    seeds: u64,
    /// Worker threads for the in-process server.
    workers: usize,
    /// Entry bound for the in-process server's schedule cache.
    cache_entries: usize,
    /// Output artifact path (`None` = mode-dependent default).
    out: Option<String>,
    /// Chaos mode: inject faults, retry, audit invariants.
    chaos: bool,
    /// Seed for the injected-fault stream (chaos mode).
    chaos_seed: u64,
    /// Base injection rate in ‰ (chaos mode): applied to panics and
    /// slow replies; frame faults run at 40% of it.
    fault_per_mille: u16,
    /// Injected delay for slow replies, in milliseconds (chaos mode).
    slow_ms: u64,
    /// Retry budget per request (chaos mode).
    retries: u32,
    /// Per-request deadline tagged on every request, if any.
    deadline_ms: Option<u64>,
    /// Crash-loop mode: SIGKILL the daemon this many times.
    crash_loop: Option<u32>,
    /// Crash-loop: where the daemon persists its state (default: a
    /// fresh temp directory).
    state_dir: Option<String>,
    /// Hidden: run as the crash-loop's serve-only child process.
    serve_child: bool,
    /// Cluster mode: spawn this many shard daemons behind a router.
    cluster: Option<usize>,
    /// Cluster mode: SIGKILL shard 0 once a third of the load is in.
    kill_shard: bool,
    /// Netchaos mode: run every router→shard link through a seeded
    /// fault-injecting wire proxy and audit gray-failure tolerance.
    netchaos: bool,
    /// Exit nonzero unless the achieved QPS reaches this floor
    /// (standard mode only: a self-asserting soak gate for CI).
    min_qps: Option<f64>,
    /// Exit nonzero unless the server coalesced at least one request
    /// (standard mode only; requires reaching the server's metrics).
    expect_coalesced: bool,
    /// Overload mode: measure capacity, then step offered load
    /// 1x -> 3x -> 1x of it and audit the overload-control machinery.
    overload: bool,
    /// Byte-accounted admission budget for the in-process server
    /// (`ServerConfig::mem_budget`).
    mem_budget: Option<u64>,
    /// Whether `--profiles` / `--clients` / `--workers` were given
    /// explicitly: overload mode picks heavier defaults otherwise.
    profiles_explicit: bool,
    clients_explicit: bool,
    workers_explicit: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            connect: None,
            unix: None,
            qps: 200.0,
            requests: 400,
            clients: 4,
            profiles: vec![
                "grep".to_string(),
                "cccp".to_string(),
                "linpack".to_string(),
            ],
            seeds: 8,
            workers: 4,
            cache_entries: dagsched_service::CacheConfig::default().max_entries,
            out: None,
            chaos: false,
            chaos_seed: 1991,
            fault_per_mille: 100,
            slow_ms: 20,
            retries: 4,
            deadline_ms: None,
            crash_loop: None,
            state_dir: None,
            serve_child: false,
            cluster: None,
            kill_shard: false,
            netchaos: false,
            min_qps: None,
            expect_coalesced: false,
            overload: false,
            mem_budget: None,
            profiles_explicit: false,
            clients_explicit: false,
            workers_explicit: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => opts.connect = Some(args.next().ok_or("--connect needs an endpoint")?),
            "--unix" => opts.unix = Some(args.next().ok_or("--unix needs a socket path")?),
            "--qps" => {
                opts.qps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&q: &f64| q > 0.0)
                    .ok_or("--qps needs a positive rate")?;
            }
            "--requests" => {
                opts.requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--requests needs a positive count")?;
            }
            "--clients" => {
                opts.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--clients needs a positive count")?;
                opts.clients_explicit = true;
            }
            "--profiles" => {
                let v = args
                    .next()
                    .ok_or("--profiles needs a comma-separated list")?;
                opts.profiles = v.split(',').map(|s| s.trim().to_string()).collect();
                if opts.profiles.iter().any(|p| p.is_empty()) {
                    return Err("--profiles has an empty entry".to_string());
                }
                opts.profiles_explicit = true;
            }
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or("--seeds needs a positive count")?;
            }
            "--workers" => {
                opts.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--workers needs a positive count")?;
                opts.workers_explicit = true;
            }
            "--cache-entries" => {
                opts.cache_entries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--cache-entries needs a positive count")?;
            }
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?),
            "--chaos" => opts.chaos = true,
            "--seed" => {
                opts.chaos_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--faults" => {
                opts.fault_per_mille = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u16| n <= 1000)
                    .ok_or("--faults needs a per-mille rate (0..=1000)")?;
            }
            "--slow-ms" => {
                opts.slow_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-ms needs a millisecond count")?;
            }
            "--retries" => {
                opts.retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retries needs a count")?;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--deadline-ms needs a millisecond count")?,
                );
            }
            "--crash-loop" => {
                opts.crash_loop = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .ok_or("--crash-loop needs a positive kill count")?,
                );
            }
            "--state-dir" => {
                opts.state_dir = Some(args.next().ok_or("--state-dir needs a directory")?);
            }
            "--serve-child" => opts.serve_child = true,
            "--cluster" => {
                opts.cluster = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--cluster needs a positive shard count")?,
                );
            }
            "--kill-shard" => opts.kill_shard = true,
            "--netchaos" => opts.netchaos = true,
            "--min-qps" => {
                opts.min_qps = Some(
                    args.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|q| *q > 0.0)
                        .ok_or("--min-qps needs a positive rate")?,
                );
            }
            "--expect-coalesced" => opts.expect_coalesced = true,
            "--overload" => opts.overload = true,
            "--mem-budget" => {
                opts.mem_budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--mem-budget needs a positive byte count")?,
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--connect EP | --unix PATH] [--qps N] [--requests N] [--clients N]\n\
                     \x20              [--profiles a,b,c] [--seeds N] [--workers N]\n\
                     \x20              [--cache-entries N] [--deadline-ms N] [--out FILE]\n\
                     \x20              [--chaos] [--seed N] [--faults PERMILLE] [--slow-ms N]\n\
                     \x20              [--retries N]\n\
                     \x20              [--crash-loop N] [--state-dir DIR]\n\
                     \x20              [--cluster N] [--kill-shard | --netchaos]\n\
                     \x20              [--min-qps N] [--expect-coalesced]\n\
                     \x20              [--overload] [--mem-budget BYTES]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.chaos && opts.connect.is_some() {
        return Err(
            "--chaos installs fault injection on the in-process server; \
                    it cannot target a remote daemon (omit --connect)"
                .to_string(),
        );
    }
    if opts.unix.is_some() && opts.connect.is_some() {
        return Err("--unix binds the in-process server; it conflicts with --connect".to_string());
    }
    if opts.crash_loop.is_some() && opts.connect.is_some() {
        return Err(
            "--crash-loop spawns its own child daemon; it cannot target a \
                    remote one (omit --connect)"
                .to_string(),
        );
    }
    if opts.crash_loop.is_some() && opts.chaos {
        return Err(
            "--crash-loop and --chaos are separate audits; run them separately".to_string(),
        );
    }
    if opts.serve_child && opts.unix.is_none() {
        return Err("--serve-child needs --unix".to_string());
    }
    if opts.cluster.is_some() {
        if opts.connect.is_some() || opts.unix.is_some() {
            return Err(
                "--cluster spawns its own shards and router; it conflicts with \
                        --connect / --unix"
                    .to_string(),
            );
        }
        if opts.chaos || opts.crash_loop.is_some() {
            return Err(
                "--cluster, --chaos and --crash-loop are separate audits; run \
                        them separately"
                    .to_string(),
            );
        }
        if opts.deadline_ms.is_some() {
            return Err(
                "--cluster verifies replies against undegraded serial compiles; \
                        it runs without --deadline-ms"
                    .to_string(),
            );
        }
    }
    if opts.kill_shard && opts.cluster.is_none_or(|n| n < 2) {
        return Err("--kill-shard needs --cluster with at least 2 shards".to_string());
    }
    if opts.netchaos {
        if opts.cluster.is_none_or(|n| n < 2) {
            return Err("--netchaos needs --cluster with at least 2 shards".to_string());
        }
        if opts.kill_shard {
            return Err(
                "--netchaos and --kill-shard are separate audits; a SIGKILLed \
                        shard would hide which machinery absorbed the fault"
                    .to_string(),
            );
        }
        if opts.fault_per_mille < 100 {
            return Err(
                "--netchaos audits gray-failure tolerance at >=10% link faults; \
                        --faults must be at least 100"
                    .to_string(),
            );
        }
    }
    if (opts.min_qps.is_some() || opts.expect_coalesced)
        && (opts.chaos || opts.crash_loop.is_some() || opts.cluster.is_some() || opts.overload)
    {
        return Err(
            "--min-qps / --expect-coalesced are standard-mode gates; the chaos, \
                    crash-loop, cluster and overload audits assert their own invariants"
                .to_string(),
        );
    }
    if opts.overload {
        if opts.connect.is_some() {
            return Err(
                "--overload calibrates against the in-process server's measured \
                        capacity; it cannot target a remote daemon (omit --connect)"
                    .to_string(),
            );
        }
        if opts.chaos || opts.crash_loop.is_some() || opts.cluster.is_some() {
            return Err(
                "--overload, --chaos, --crash-loop and --cluster are separate \
                        audits; run them separately"
                    .to_string(),
            );
        }
    }
    if opts.mem_budget.is_some() && opts.connect.is_some() {
        return Err(
            "--mem-budget configures the in-process server; it conflicts with \
                    --connect"
                .to_string(),
        );
    }
    Ok(opts)
}

/// Where the in-process server listens: an ephemeral TCP port, or the
/// `--unix` socket path.
fn listen_for(opts: &Options) -> Listen {
    match &opts.unix {
        Some(path) => Listen::Unix(std::path::PathBuf::from(path)),
        None => Listen::Tcp("127.0.0.1:0".to_string()),
    }
}

/// `(profile, generator seed)` for request number `k`: profile
/// `k % profiles` with seed `PAPER_SEED + (k / profiles) % seeds`.
/// Deterministic, so reruns replay the same stream.
fn mix_key(opts: &Options, k: usize) -> (String, u64) {
    let profile = opts.profiles[k % opts.profiles.len()].clone();
    let seed = PAPER_SEED + (k / opts.profiles.len()) as u64 % opts.seeds;
    (profile, seed)
}

fn request_for(opts: &Options, k: usize) -> ScheduleRequest {
    let (profile, seed) = mix_key(opts, k);
    let mut req = ScheduleRequest::profile(profile, seed);
    req.deadline_ms = opts.deadline_ms;
    req
}

struct ClientTally {
    latencies_ns: Vec<u64>,
    cache_hits: u64,
    cache_misses: u64,
    errors: u64,
}

fn run_client(
    endpoint: &str,
    opts: &Options,
    next: &AtomicUsize,
    start: Instant,
) -> Result<ClientTally, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let mut tally = ClientTally {
        latencies_ns: Vec::new(),
        cache_hits: 0,
        cache_misses: 0,
        errors: 0,
    };
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= opts.requests {
            return Ok(tally);
        }
        // Open-loop pacing: request `k` is due at `start + k/qps`;
        // sleeping until its slot keeps the aggregate rate at the
        // target regardless of how the clients interleave.
        let due = start + Duration::from_secs_f64(k as f64 / opts.qps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = request_for(opts, k);
        let t = Instant::now();
        match client.request(&req) {
            Ok(resp) => {
                tally.latencies_ns.push(t.elapsed().as_nanos() as u64);
                tally.cache_hits += resp.stats.cache_hits;
                tally.cache_misses += resp.stats.cache_misses;
            }
            Err(e) => {
                tally.errors += 1;
                eprintln!("loadgen: request {k}: {e}");
                // A transport error poisons the connection; redial.
                if matches!(
                    e,
                    dagsched_service::ClientError::Io(_) | dagsched_service::ClientError::Frame(_)
                ) {
                    client = Client::connect(endpoint).map_err(|e| format!("redial: {e}"))?;
                }
            }
        }
    }
}

/// Ground truth for one `(profile, seed)` in the working set.
struct Reference {
    /// The generated program, rendered one instruction per line.
    /// Consumed by the chaos audit's validity oracle.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    original: String,
    /// The serial, uncached driver's schedule under the server's
    /// default configuration.
    scheduled: Vec<String>,
}

/// Serially compile every program the run will request, before any
/// daemon (or fault) is involved, so the audits compare against ground
/// truth produced outside the blast radius.
fn references(opts: &Options) -> Result<HashMap<(String, u64), Reference>, String> {
    let model = MachineModel::sparc2();
    let config = DriverConfig {
        scheduler: Scheduler::new(SchedulerKind::Warren),
        ..DriverConfig::default()
    };
    let mut refs = HashMap::new();
    let keys = opts.profiles.len() * opts.seeds as usize;
    for k in 0..keys.min(opts.requests) {
        let (profile, seed) = mix_key(opts, k);
        if refs.contains_key(&(profile.clone(), seed)) {
            continue;
        }
        let bp = BenchmarkProfile::by_name(&profile)
            .ok_or_else(|| format!("unknown profile `{profile}`"))?;
        let bench = generate(bp, seed);
        let (result, _) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &Limits::none(),
            &NoCache,
        )
        .map_err(|e| format!("serial reference for {profile}/{seed}: {e:?}"))?;
        let original = bench
            .program
            .insns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        let scheduled = result.insns.iter().map(|i| i.to_string()).collect();
        refs.insert(
            (profile, seed),
            Reference {
                original,
                scheduled,
            },
        );
    }
    Ok(refs)
}

/// The chaos audit. Gated behind the `chaos` feature because it
/// installs [`dagsched_service::FaultConfig`] on the in-process server,
/// which only exists when the service is built with `fault-injection`.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;

    use dagsched_service::{ClientError, FaultConfig};
    use dagsched_verify::check_reordering_text;

    /// The injected mix at the default `--faults 100`: 10% panics, 10%
    /// slow replies, and 4% each of truncated / corrupted / reset
    /// response frames — every failure class the retry + supervision
    /// machinery claims to absorb. `--faults N` scales the whole mix.
    pub fn fault_config(opts: &Options) -> FaultConfig {
        let base = opts.fault_per_mille;
        let frame = base * 2 / 5;
        FaultConfig {
            seed: opts.chaos_seed,
            panic_per_mille: base,
            slow_per_mille: base,
            slow_ms: opts.slow_ms,
            truncate_per_mille: frame,
            corrupt_per_mille: frame,
            reset_per_mille: frame,
        }
    }

    #[derive(Default)]
    pub struct ChaosTally {
        pub latencies_ns: Vec<u64>,
        /// `degraded: false` responses, checked bit-identical.
        pub ok_exact: u64,
        /// `degraded: true` responses, checked semantically valid.
        pub ok_degraded: u64,
        /// Typed server errors by wire code (all terminal).
        pub server_errors: HashMap<String, u64>,
        /// Requests whose retry budget ran out on transport errors.
        pub transport_failures: u64,
        /// Client-side retry/redial work (successful requests only).
        pub retries: u64,
        pub redials: u64,
        pub server_hints_honoured: u64,
        /// Invariant violations; any entry fails the run.
        pub violations: Vec<String>,
    }

    pub fn run_chaos_client(
        endpoint: &str,
        opts: &Options,
        refs: &HashMap<(String, u64), Reference>,
        next: &AtomicUsize,
        start: Instant,
        client_idx: usize,
    ) -> Result<ChaosTally, String> {
        let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
        let policy = RetryPolicy {
            max_retries: opts.retries,
            per_attempt_timeout: Some(Duration::from_secs(5)),
            jitter_seed: opts.chaos_seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9),
            ..RetryPolicy::default()
        };
        let mut tally = ChaosTally::default();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= opts.requests {
                return Ok(tally);
            }
            let due = start + Duration::from_secs_f64(k as f64 / opts.qps);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = request_for(opts, k);
            let key = mix_key(opts, k);
            let t = Instant::now();
            match client.request_with_retry(&req, &policy) {
                Ok((resp, stats)) => {
                    tally.latencies_ns.push(t.elapsed().as_nanos() as u64);
                    tally.retries += u64::from(stats.retries);
                    tally.redials += u64::from(stats.redials);
                    tally.server_hints_honoured += u64::from(stats.server_hints_honoured);
                    let reference = refs.get(&key).expect("precomputed reference");
                    if resp.degraded {
                        tally.ok_degraded += 1;
                        // Invariant 4: a degraded schedule is still a
                        // *correct* schedule.
                        if let Err(e) = check_reordering_text(
                            &reference.original,
                            &resp.insns.join("\n"),
                            3,
                            opts.chaos_seed,
                        ) {
                            tally.violations.push(format!(
                                "request {k} ({}/{}): degraded reply fails validity: {e}",
                                key.0, key.1
                            ));
                        }
                    } else {
                        tally.ok_exact += 1;
                        // Invariant 3: no silent degradation — an
                        // undegraded reply is the serial compile.
                        if resp.insns != reference.scheduled {
                            tally.violations.push(format!(
                                "request {k} ({}/{}): degraded=false reply differs from \
                                 the serial compile",
                                key.0, key.1
                            ));
                        }
                    }
                }
                Err(ClientError::Server(reply)) => {
                    // Terminal typed error: Internal after retries ran
                    // out, Quarantined, DeadlineExpired, ... — a valid
                    // end state under invariant 2.
                    tally.latencies_ns.push(t.elapsed().as_nanos() as u64);
                    *tally
                        .server_errors
                        .entry(format!("{:?}", reply.code))
                        .or_insert(0) += 1;
                }
                Err(e) => {
                    // The retry budget ran out on transport errors.
                    // Still terminal; redial before the next request.
                    tally.transport_failures += 1;
                    eprintln!("loadgen: request {k}: retries exhausted: {e}");
                    client = Client::connect(endpoint).map_err(|e| format!("redial: {e}"))?;
                }
            }
        }
    }
}

/// The crash-loop audit. Gated behind the `chaos` feature because the
/// storage-fault injector only exists when `dagsched-store` is built
/// with `fault-injection`.
#[cfg(feature = "chaos")]
mod crash_loop {
    use super::*;

    use dagsched_service::{RetryPolicy, ScheduleResponse};

    pub fn endpoint(sock: &Path) -> String {
        format!("unix:{}", sock.display())
    }

    /// Dial policy that rides out the restart window: the child was
    /// just spawned (or just respawned over recovered state), so the
    /// socket appears some milliseconds from now.
    pub fn connect_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2000,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            per_attempt_timeout: Some(Duration::from_secs(10)),
            overall_timeout: Some(Duration::from_secs(30)),
            ..RetryPolicy::default()
        }
    }

    /// Re-execute this binary as a serve-only child the parent can
    /// `SIGKILL`.
    pub fn spawn_daemon(sock: &Path, state: &Path, opts: &Options) -> io::Result<Child> {
        Command::new(std::env::current_exe()?)
            .arg("--serve-child")
            .arg("--unix")
            .arg(sock)
            .arg("--state-dir")
            .arg(state)
            .arg("--workers")
            .arg(opts.workers.to_string())
            .arg("--cache-entries")
            .arg(opts.cache_entries.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }

    /// Invariant: every successful reply is bit-identical to the
    /// serial, uncached compile. Crash-loop requests never carry a
    /// deadline, so a degraded reply is also a violation.
    fn verify_reply(
        k: usize,
        key: &(String, u64),
        resp: &ScheduleResponse,
        refs: &HashMap<(String, u64), Reference>,
    ) -> Option<String> {
        let reference = refs.get(key).expect("precomputed reference");
        if resp.degraded {
            return Some(format!(
                "request {k} ({}/{}): unexpected degraded reply (no deadline was set)",
                key.0, key.1
            ));
        }
        if resp.insns != reference.scheduled {
            return Some(format!(
                "request {k} ({}/{}): reply differs from the serial compile \
                 (corrupt recovered entry?)",
                key.0, key.1
            ));
        }
        None
    }

    #[derive(Default)]
    pub struct SessionTally {
        /// Successful (and verified) responses.
        pub ok: u64,
        /// Requests that died with the daemon (expected once the kill
        /// fires; a violation otherwise).
        pub failed: u64,
        pub hits: u64,
        pub misses: u64,
        pub violations: Vec<String>,
    }

    impl SessionTally {
        pub fn hit_rate(&self) -> f64 {
            if self.hits + self.misses == 0 {
                0.0
            } else {
                self.hits as f64 / (self.hits + self.misses) as f64
            }
        }
    }

    /// Pump `budget` requests from the deterministic working-set mix.
    /// With `kill_at = Some(n)`, a side thread SIGKILLs the daemon once
    /// `n` requests have completed — while the pump is still
    /// mid-request, so the WAL is cut off at an arbitrary byte, not at
    /// a polite boundary.
    pub fn pump_session(
        child: &Mutex<Child>,
        sock: &Path,
        opts: &Options,
        refs: &HashMap<(String, u64), Reference>,
        budget: usize,
        kill_at: Option<usize>,
    ) -> Result<SessionTally, String> {
        let (mut client, _) = Client::connect_with_retry(&endpoint(sock), &connect_policy())
            .map_err(|e| format!("daemon did not come up: {e}"))?;
        let progress = AtomicUsize::new(0);
        let mut tally = SessionTally::default();
        std::thread::scope(|scope| {
            let progress = &progress;
            if let Some(at) = kill_at {
                scope.spawn(move || {
                    while progress.load(Ordering::Relaxed) < at {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let _ = child.lock().unwrap().kill();
                });
            }
            for k in 0..budget {
                let req = request_for(opts, k);
                let key = mix_key(opts, k);
                match client.request(&req) {
                    Ok(resp) => {
                        tally.ok += 1;
                        tally.hits += resp.stats.cache_hits;
                        tally.misses += resp.stats.cache_misses;
                        if let Some(v) = verify_reply(k, &key, &resp, refs) {
                            tally.violations.push(v);
                        }
                    }
                    Err(e) => {
                        tally.failed += 1;
                        if kill_at.is_none() {
                            tally
                                .violations
                                .push(format!("request {k}: failed with no kill pending: {e}"));
                        }
                    }
                }
                // Count *completed* requests so the kill lands while
                // request `at` (or a later one) is on the wire.
                progress.store(k + 1, Ordering::Relaxed);
            }
        });
        Ok(tally)
    }
}

/// The hidden serve-only child mode backing `--crash-loop`: a real
/// daemon process the parent can `SIGKILL`, persisting to
/// `--state-dir`. Compiled unconditionally (it needs nothing from the
/// chaos feature) so the flag always behaves the same.
fn serve_child_main(opts: &Options) -> ! {
    let sock = opts.unix.as_ref().expect("checked in parse_args");
    let config = ServerConfig {
        workers: opts.workers,
        cache: dagsched_service::CacheConfig {
            max_entries: opts.cache_entries,
            ..dagsched_service::CacheConfig::default()
        },
        state_dir: opts.state_dir.as_ref().map(std::path::PathBuf::from),
        // Snapshot early and often: crash-loop runs are small, and a
        // low threshold exercises compaction + snapshot recovery too.
        wal_snapshot_threshold: 256 << 10,
        fsync_every: 4,
        ..ServerConfig::default()
    };
    let handle = serve(Listen::Unix(std::path::PathBuf::from(sock)), config).unwrap_or_else(|e| {
        eprintln!("loadgen[child]: serve: {e}");
        std::process::exit(1);
    });
    handle.join(); // until SIGKILL, or a client-driven drain
    std::process::exit(0);
}

/// Re-execute this binary as a RAM-only shard child for `--cluster`.
/// No `--state-dir`: the cluster audit grades the *ring* (placement,
/// replication, failover), so a killed shard's cache is genuinely
/// gone — surviving it is the router's job, not the store's.
fn spawn_shard_child(sock: &Path, opts: &Options) -> io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .arg("--serve-child")
        .arg("--unix")
        .arg(sock)
        .arg("--workers")
        .arg(opts.workers.to_string())
        .arg("--cache-entries")
        .arg(opts.cache_entries.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// Retry policy for requests routed through the cluster front-end.
/// Generous on purpose: the audit's invariant is that the *client*
/// never sees an error, so the budget must ride out a shard death plus
/// the router's down-marking window.
fn cluster_retry_policy(opts: &Options, client_idx: usize) -> RetryPolicy {
    // Netchaos rungs can each burn a couple of seconds against a
    // blackholed link before the router's ladder moves on, so the
    // client's patience per attempt is doubled there.
    let (per_attempt, overall) = if opts.netchaos { (20, 60) } else { (10, 30) };
    RetryPolicy {
        max_retries: opts.retries.max(8),
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(250),
        per_attempt_timeout: Some(Duration::from_secs(per_attempt)),
        overall_timeout: Some(Duration::from_secs(overall)),
        jitter_seed: 0x0C1A_57E2 ^ (client_idx as u64).wrapping_mul(0x9E37_79B9),
    }
}

#[derive(Default)]
struct ClusterTally {
    latencies_ns: Vec<u64>,
    ok: u64,
    hits: u64,
    misses: u64,
    retries: u64,
    redials: u64,
    /// Terminal typed server errors by wire code. Only populated under
    /// `--netchaos`, where a typed error after the retry budget is a
    /// legal end state; the plain cluster audit treats any error as a
    /// violation.
    typed_errors: HashMap<String, u64>,
    violations: Vec<String>,
}

fn run_cluster_client(
    endpoint: &str,
    opts: &Options,
    refs: &HashMap<(String, u64), Reference>,
    next: &AtomicUsize,
    start: Instant,
    client_idx: usize,
) -> Result<ClusterTally, String> {
    let policy = cluster_retry_policy(opts, client_idx);
    let (mut client, _) =
        Client::connect_with_retry(endpoint, &policy).map_err(|e| format!("connect: {e}"))?;
    let mut tally = ClusterTally::default();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= opts.requests {
            return Ok(tally);
        }
        let due = start + Duration::from_secs_f64(k as f64 / opts.qps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = request_for(opts, k);
        let key = mix_key(opts, k);
        let t = Instant::now();
        match client.request_with_retry(&req, &policy) {
            Ok((resp, stats)) => {
                tally.latencies_ns.push(t.elapsed().as_nanos() as u64);
                tally.ok += 1;
                tally.hits += resp.stats.cache_hits;
                tally.misses += resp.stats.cache_misses;
                tally.retries += u64::from(stats.retries);
                tally.redials += u64::from(stats.redials);
                let reference = refs.get(&key).expect("precomputed reference");
                if resp.degraded {
                    tally.violations.push(format!(
                        "request {k} ({}/{}): degraded reply with no deadline set",
                        key.0, key.1
                    ));
                } else if resp.insns != reference.scheduled {
                    tally.violations.push(format!(
                        "request {k} ({}/{}): routed reply differs from the serial compile",
                        key.0, key.1
                    ));
                }
            }
            Err(dagsched_service::ClientError::Server(reply)) if opts.netchaos => {
                // Netchaos tolerates a typed error as a terminal
                // outcome: the invariant is terminality and
                // bit-identity, not zero errors under a 10%+ fault
                // rate. Still counted, so a pathological run is
                // visible in the artifact.
                tally.latencies_ns.push(t.elapsed().as_nanos() as u64);
                *tally
                    .typed_errors
                    .entry(format!("{:?}", reply.code))
                    .or_insert(0) += 1;
            }
            Err(e) => {
                // Invariant: failover + retries absorb a shard death.
                // Anything terminal here is client-visible, so it fails
                // the audit. (Under netchaos the client↔router link is
                // clean, so a transport error still means the router
                // itself misbehaved.) Redial for the next request.
                tally.violations.push(format!(
                    "request {k} ({}/{}): client-visible error despite failover: {e}",
                    key.0, key.1
                ));
                if let Ok((c, _)) = Client::connect_with_retry(endpoint, &policy) {
                    client = c;
                }
            }
        }
    }
}

/// One sequential pass over the whole working set through the router,
/// verifying every reply and returning `(hits, misses)` — used to fill
/// the shard caches and to measure hit rates before/after the kill.
fn cluster_pass(
    endpoint: &str,
    opts: &Options,
    refs: &HashMap<(String, u64), Reference>,
    working: usize,
    label: &str,
    violations: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let policy = cluster_retry_policy(opts, 97);
    let (mut client, _) =
        Client::connect_with_retry(endpoint, &policy).map_err(|e| format!("{label}: {e}"))?;
    let (mut hits, mut misses) = (0u64, 0u64);
    for k in 0..working {
        let req = request_for(opts, k);
        let key = mix_key(opts, k);
        match client.request_with_retry(&req, &policy) {
            Ok((resp, _)) => {
                hits += resp.stats.cache_hits;
                misses += resp.stats.cache_misses;
                let reference = refs.get(&key).expect("precomputed reference");
                if resp.degraded || resp.insns != reference.scheduled {
                    violations.push(format!(
                        "{label}, request {k} ({}/{}): reply differs from the serial compile",
                        key.0, key.1
                    ));
                }
            }
            Err(dagsched_service::ClientError::Server(reply)) if opts.netchaos => {
                // Terminal typed error: tolerated under netchaos (see
                // the paced clients), logged so the pass stays honest.
                eprintln!(
                    "loadgen: {label}, request {k}: typed error {:?} (terminal)",
                    reply.code
                );
            }
            Err(e) => violations.push(format!("{label}, request {k}: {e}")),
        }
    }
    Ok((hits, misses))
}

fn cluster_main(opts: Options) {
    let fatal = |msg: String| -> ! {
        eprintln!("loadgen: {msg}");
        std::process::exit(1);
    };
    let shards_wanted = opts.cluster.expect("dispatched on cluster");
    let root = std::env::temp_dir().join(format!("dagsched-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&root)
        .unwrap_or_else(|e| fatal(format!("creating {}: {e}", root.display())));
    let working = opts.profiles.len() * opts.seeds as usize;
    eprintln!(
        "loadgen: {} audit: {shards_wanted} shards, {} requests at {} qps over {} clients, \
         working set {working} programs, kill-shard {}",
        if opts.netchaos { "netchaos" } else { "cluster" },
        opts.requests,
        opts.qps,
        opts.clients,
        opts.kill_shard
    );
    let refs = references(&opts).unwrap_or_else(|e| fatal(format!("serial references: {e}")));

    // Spawn the shard children and wait until each one answers a dial.
    let mut children = Vec::new();
    let mut shard_eps = Vec::new();
    let dial = RetryPolicy {
        max_retries: 2000,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        per_attempt_timeout: Some(Duration::from_secs(10)),
        overall_timeout: Some(Duration::from_secs(30)),
        ..RetryPolicy::default()
    };
    for i in 0..shards_wanted {
        let sock = root.join(format!("shard-{i}.sock"));
        children
            .push(Mutex::new(spawn_shard_child(&sock, &opts).unwrap_or_else(
                |e| fatal(format!("spawning shard {i}: {e}")),
            )));
        shard_eps.push(format!("unix:{}", sock.display()));
    }
    for (i, ep) in shard_eps.iter().enumerate() {
        Client::connect_with_retry(ep, &dial)
            .unwrap_or_else(|e| fatal(format!("shard {i} did not come up: {e}")));
    }

    // Netchaos: interpose a seeded fault-injecting wire proxy on every
    // router→shard link. The router only ever sees the proxy
    // endpoints; the real shard sockets stay clean for teardown.
    let mut proxies: Vec<ProxyHandle> = Vec::new();
    let router_shards: Vec<String> = if opts.netchaos {
        eprintln!(
            "loadgen: netchaos: seed {}, {}‰ of link connections faulted \
             (latency/bandwidth/stall/partition/reset/corrupt)",
            opts.chaos_seed, opts.fault_per_mille
        );
        shard_eps
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                let listen = format!("unix:{}", root.join(format!("link-{i}.sock")).display());
                let chaos = ChaosConfig::standard(
                    opts.chaos_seed.wrapping_add(i as u64),
                    opts.fault_per_mille,
                );
                let proxy = serve_proxy(&listen, ep, chaos)
                    .unwrap_or_else(|e| fatal(format!("netchaos proxy {i}: {e}")));
                let endpoint = proxy.endpoint().to_string();
                proxies.push(proxy);
                endpoint
            })
            .collect()
    } else {
        shard_eps.clone()
    };

    // The router runs in-process so the harness can read its metrics
    // directly; the shards are real killable processes.
    let mut router_config = RouterConfig {
        shards: router_shards.clone(),
        health_check_ms: 100,
        ..RouterConfig::default()
    };
    if opts.netchaos {
        // Snappy forwards: a blackholed write must be abandoned fast
        // enough that the hedge race and the failover ladder both fit
        // inside the paced clients' patience.
        router_config.shard_retry = RetryPolicy {
            max_retries: 1,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            per_attempt_timeout: Some(Duration::from_secs(2)),
            overall_timeout: Some(Duration::from_secs(8)),
            jitter_seed: opts.chaos_seed,
        };
    }
    let router = serve_router(Listen::Unix(root.join("router.sock")), router_config)
        .unwrap_or_else(|e| fatal(format!("router: {e}")));
    let endpoint = router.endpoint();

    // Two warm passes: fill the shard caches cold, then measure the
    // steady-state hit rate the post-kill measurement must defend.
    let mut violations: Vec<String> = Vec::new();
    cluster_pass(
        &endpoint,
        &opts,
        &refs,
        working,
        "fill pass",
        &mut violations,
    )
    .unwrap_or_else(|e| fatal(e));
    let (warm_hits, warm_misses) = cluster_pass(
        &endpoint,
        &opts,
        &refs,
        working,
        "warm pass",
        &mut violations,
    )
    .unwrap_or_else(|e| fatal(e));
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let pre_kill_hit_rate = rate(warm_hits, warm_misses);

    // The main paced pass. With --kill-shard, a side thread SIGKILLs
    // shard 0 once a third of the load is in flight.
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut merged = ClusterTally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for idx in 0..opts.clients {
            let endpoint = &endpoint;
            let opts = &opts;
            let refs = &refs;
            let next = &next;
            handles.push(
                scope.spawn(move || run_cluster_client(endpoint, opts, refs, next, start, idx)),
            );
        }
        if opts.kill_shard {
            let next = &next;
            let children = &children;
            let at = (opts.requests / 3).max(1);
            scope.spawn(move || {
                while next.load(Ordering::Relaxed) < at {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let _ = children[0].lock().unwrap().kill();
                eprintln!("loadgen: SIGKILLed shard 0 after ~{at} requests");
            });
        }
        if opts.netchaos {
            // The scripted gray-failure episode, on top of the seeded
            // background faults: blackhole link 0's request direction
            // once a third of the load is in. Replies still flow, so
            // the link "looks" half alive — the case binary health
            // checks cannot see. Healed only after the breaker walk
            // below.
            let next = &next;
            let proxies = &proxies;
            let at = (opts.requests / 3).max(1);
            scope.spawn(move || {
                while next.load(Ordering::Relaxed) < at {
                    std::thread::sleep(Duration::from_millis(1));
                }
                proxies[0].set_partition(Direction::ClientToUpstream, true);
                eprintln!(
                    "loadgen: netchaos: partitioned link 0 router→shard after ~{at} requests"
                );
            });
        }
        for h in handles {
            match h.join().expect("cluster client panicked") {
                Ok(tally) => {
                    merged.latencies_ns.extend(tally.latencies_ns);
                    merged.ok += tally.ok;
                    merged.hits += tally.hits;
                    merged.misses += tally.misses;
                    merged.retries += tally.retries;
                    merged.redials += tally.redials;
                    for (code, n) in tally.typed_errors {
                        *merged.typed_errors.entry(code).or_insert(0) += n;
                    }
                    merged.violations.extend(tally.violations);
                }
                Err(e) => merged
                    .violations
                    .push(format!("cluster client aborted: {e}")),
            }
        }
    });
    let elapsed = start.elapsed();
    violations.append(&mut merged.violations);
    if opts.kill_shard {
        let _ = children[0].lock().unwrap().wait();
    }

    if opts.netchaos {
        // Walk the breaker state machine end to end: the partition
        // stays up until probe evidence opens the victim's breaker, a
        // sequential pass then exercises the open-breaker ladder (the
        // failover rung — the primary is skipped outright), and only
        // then does the link heal, forcing revival through half-open
        // trial probes.
        let breaker_of = |ep: &str| -> String {
            router
                .metrics()
                .get("shards")
                .and_then(Json::as_arr)
                .and_then(|arr| {
                    arr.iter()
                        .find(|s| s.get("endpoint").and_then(Json::as_str) == Some(ep))
                        .and_then(|s| s.get("breaker"))
                        .and_then(Json::as_str)
                        .map(str::to_string)
                })
                .unwrap_or_default()
        };
        let wait_for = |cond: &dyn Fn() -> bool, what: &str, violations: &mut Vec<String>| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !cond() {
                if Instant::now() >= deadline {
                    violations.push(format!("netchaos: timed out waiting for {what}"));
                    return false;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            true
        };
        let victim = router_shards[0].as_str();
        if wait_for(
            &|| breaker_of(victim) == "open",
            "the partitioned link's breaker to open",
            &mut violations,
        ) {
            eprintln!("loadgen: netchaos: breaker open on link 0; driving the failover ladder");
            cluster_pass(
                &endpoint,
                &opts,
                &refs,
                working,
                "breaker-open pass",
                &mut violations,
            )
            .unwrap_or_else(|e| fatal(e));
        }
        proxies[0].set_partition(Direction::ClientToUpstream, false);
        eprintln!("loadgen: netchaos: healed link 0; waiting for half-open revival");
        wait_for(
            &|| breaker_of(victim) == "closed",
            "the healed link's breaker to close through half-open trials",
            &mut violations,
        );
    }

    // Post-failover pass: the surviving replicas must keep the working
    // set at least half as warm as before the kill.
    let (post_hits, post_misses) = cluster_pass(
        &endpoint,
        &opts,
        &refs,
        working,
        "post-failover pass",
        &mut violations,
    )
    .unwrap_or_else(|e| fatal(e));
    let post_kill_hit_rate = rate(post_hits, post_misses);
    if opts.kill_shard && pre_kill_hit_rate > 0.0 && post_kill_hit_rate < 0.5 * pre_kill_hit_rate {
        violations.push(format!(
            "post-failover hit rate {:.1}% is below half the pre-kill {:.1}%",
            100.0 * post_kill_hit_rate,
            100.0 * pre_kill_hit_rate
        ));
    }

    let router_metrics = router.metrics();

    if opts.netchaos {
        // Gate 1: zero crashes — the router must still answer through
        // the front door after everything above.
        match Client::connect(&endpoint) {
            Ok(mut c) => {
                if let Err(e) = c.ping() {
                    violations.push(format!("router did not answer a ping after the run: {e}"));
                }
            }
            Err(e) => violations.push(format!("router unreachable after the run: {e}")),
        }
        // Gate 2: every request terminal. Each request index draws
        // exactly one outcome per client (verified response, typed
        // error, or a violation-recording failure), so with no
        // violations the arithmetic must close; a shortfall means the
        // harness silently dropped requests.
        let typed_total: u64 = merged.typed_errors.values().sum();
        if violations.is_empty() && merged.ok + typed_total < opts.requests as u64 {
            violations.push(format!(
                "{} terminal outcomes for {} requests",
                merged.ok + typed_total,
                opts.requests
            ));
        }
        // Gate 4: the gray-failure machinery demonstrably engaged.
        let counter = |name: &str| router_metrics.get(name).and_then(Json::as_u64).unwrap_or(0);
        for (name, what) in [
            ("failovers", "failover (open-breaker ladder)"),
            ("shards_marked_down", "breaker-open event"),
            ("hedged_requests", "hedged request"),
            ("hedge_wins", "hedge win"),
        ] {
            if counter(name) == 0 {
                violations.push(format!("netchaos gate: no {what} recorded ({name} = 0)"));
            }
        }
    }

    // Clean teardown: drain the router first (it drops its shard
    // connections), then the netchaos proxies, then gracefully shut
    // down the surviving shards over their real (clean) sockets.
    router.begin_drain();
    router.join();
    let proxy_snapshots: Vec<(String, dagsched_netchaos::ProxySnapshot)> = proxies
        .iter()
        .map(|p| (p.endpoint().to_string(), p.metrics()))
        .collect();
    for p in proxies {
        p.shutdown();
    }
    for (i, ep) in shard_eps.iter().enumerate() {
        if opts.kill_shard && i == 0 {
            continue; // already SIGKILLed and reaped
        }
        match Client::connect(ep) {
            Ok(mut client) => {
                if let Err(e) = client.shutdown_server() {
                    violations.push(format!("shard {i} graceful shutdown: {e}"));
                }
            }
            Err(e) => violations.push(format!("shard {i} unreachable at teardown: {e}")),
        }
        let _ = children[i].lock().unwrap().wait();
    }
    let _ = std::fs::remove_dir_all(&root);

    merged.latencies_ns.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = percentile(&merged.latencies_ns, 50.0);
    let p95 = percentile(&merged.latencies_ns, 95.0);
    let p99 = percentile(&merged.latencies_ns, 99.0);

    let mut report = vec![
        (
            "mode",
            Json::from(if opts.netchaos { "netchaos" } else { "cluster" }),
        ),
        ("shards", Json::from(shards_wanted)),
        ("kill_shard", Json::from(opts.kill_shard)),
        ("requests", Json::from(opts.requests)),
        ("clients", Json::from(opts.clients)),
        ("target_qps", Json::from(opts.qps)),
        ("working_set", Json::from(working)),
        ("completed", Json::from(merged.ok)),
        ("elapsed_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        (
            "achieved_qps",
            Json::from(merged.ok as f64 / elapsed.as_secs_f64().max(1e-9)),
        ),
        ("latency_ms_p50", Json::from(ms(p50))),
        ("latency_ms_p95", Json::from(ms(p95))),
        ("latency_ms_p99", Json::from(ms(p99))),
        ("cache_hits", Json::from(merged.hits)),
        ("cache_misses", Json::from(merged.misses)),
        (
            "cache_hit_rate",
            Json::from(rate(merged.hits, merged.misses)),
        ),
        ("pre_kill_hit_rate", Json::from(pre_kill_hit_rate)),
        ("post_failover_hit_rate", Json::from(post_kill_hit_rate)),
        ("client_retries", Json::from(merged.retries)),
        ("client_redials", Json::from(merged.redials)),
        ("router", router_metrics),
        ("violations", Json::from(violations.len() as u64)),
    ];
    if opts.netchaos {
        let typed_total: u64 = merged.typed_errors.values().sum();
        report.push(("typed_errors", Json::from(typed_total)));
        report.push((
            "typed_errors_by_code",
            Json::Obj(
                merged
                    .typed_errors
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ));
        report.push((
            "netchaos",
            Json::Obj(vec![
                ("seed".to_string(), Json::from(opts.chaos_seed)),
                (
                    "fault_per_mille".to_string(),
                    Json::from(u64::from(opts.fault_per_mille)),
                ),
                (
                    "links".to_string(),
                    Json::Arr(
                        proxy_snapshots
                            .iter()
                            .map(|(ep, s)| {
                                Json::Obj(vec![
                                    ("endpoint".to_string(), Json::from(ep.as_str())),
                                    ("connections".to_string(), Json::from(s.connections)),
                                    ("latency_conns".to_string(), Json::from(s.latency_conns)),
                                    ("bandwidth_conns".to_string(), Json::from(s.bandwidth_conns)),
                                    ("stalls".to_string(), Json::from(s.stalls)),
                                    ("partitions".to_string(), Json::from(s.partitions)),
                                    ("resets".to_string(), Json::from(s.resets)),
                                    ("corrupted_bytes".to_string(), Json::from(s.corrupted_bytes)),
                                    (
                                        "blackholed_bytes".to_string(),
                                        Json::from(s.blackholed_bytes),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let artifact = Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let out = opts.out.clone().unwrap_or_else(|| {
        if opts.netchaos {
            "service-netchaos.json".to_string()
        } else {
            "service-cluster.json".to_string()
        }
    });
    std::fs::write(&out, format!("{artifact}\n"))
        .unwrap_or_else(|e| fatal(format!("writing {out}: {e}")));

    eprintln!(
        "loadgen: {}: {} ok over {shards_wanted} shards; p50 {:.2} ms, p99 {:.2} ms; \
         hit rate {:.1}% pre-kill -> {:.1}% post-failover -> {out}",
        if opts.netchaos { "netchaos" } else { "cluster" },
        merged.ok,
        ms(p50),
        ms(p99),
        100.0 * pre_kill_hit_rate,
        100.0 * post_kill_hit_rate
    );
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("loadgen: VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    if opts.netchaos {
        eprintln!(
            "loadgen: netchaos audit passed: zero crashes, every request terminal, every \
             reply bit-identical; failover, breaker-open, and hedge-win all recorded"
        );
    } else {
        eprintln!(
            "loadgen: cluster audit passed: every routed reply bit-identical, zero \
             client-visible errors, failover kept the caches warm"
        );
    }
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    if opts.serve_child {
        serve_child_main(&opts);
    }
    if opts.overload {
        overload_main(opts);
        return;
    }
    if opts.cluster.is_some() {
        cluster_main(opts);
        return;
    }
    if opts.crash_loop.is_some() {
        #[cfg(feature = "chaos")]
        {
            crash_loop_main(opts);
            return;
        }
        #[cfg(not(feature = "chaos"))]
        {
            eprintln!(
                "loadgen: --crash-loop requires the storage-fault injector; rebuild with \
                 `cargo build -p dagsched-bench --features chaos`"
            );
            std::process::exit(2);
        }
    }
    if opts.chaos {
        #[cfg(feature = "chaos")]
        {
            chaos_main(opts);
            return;
        }
        #[cfg(not(feature = "chaos"))]
        {
            eprintln!(
                "loadgen: --chaos requires fault injection; rebuild with \
                 `cargo build -p dagsched-bench --features chaos`"
            );
            std::process::exit(2);
        }
    }

    // Dial a remote daemon, or stand one up in-process.
    let (endpoint, handle) = match &opts.connect {
        Some(ep) => (ep.clone(), None),
        None => {
            let config = ServerConfig {
                workers: opts.workers,
                cache: dagsched_service::CacheConfig {
                    max_entries: opts.cache_entries,
                    ..dagsched_service::CacheConfig::default()
                },
                mem_budget: opts.mem_budget,
                ..ServerConfig::default()
            };
            let handle = serve(listen_for(&opts), config).unwrap_or_else(|e| {
                eprintln!("loadgen: in-process server: {e}");
                std::process::exit(1);
            });
            (handle.endpoint(), Some(handle))
        }
    };
    eprintln!(
        "loadgen: {} requests at {} qps over {} clients -> {} ({} profiles x {} seeds)",
        opts.requests,
        opts.qps,
        opts.clients,
        endpoint,
        opts.profiles.len(),
        opts.seeds
    );

    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let opts = Arc::new(opts);
    let mut threads = Vec::new();
    for _ in 0..opts.clients {
        let endpoint = endpoint.clone();
        let next = Arc::clone(&next);
        let opts = Arc::clone(&opts);
        threads.push(std::thread::spawn(move || {
            run_client(&endpoint, &opts, &next, start)
        }));
    }
    let mut latencies = Vec::with_capacity(opts.requests);
    let (mut hits, mut misses, mut errors) = (0u64, 0u64, 0u64);
    for t in threads {
        match t.join().expect("client thread panicked") {
            Ok(tally) => {
                latencies.extend(tally.latencies_ns);
                hits += tally.cache_hits;
                misses += tally.cache_misses;
                errors += tally.errors;
            }
            Err(e) => {
                eprintln!("loadgen: client failed: {e}");
                errors += 1;
            }
        }
    }
    let elapsed = start.elapsed();

    // Pull the server's own counters when we can reach it.
    let server_metrics = Client::connect(&endpoint)
        .ok()
        .and_then(|mut c| c.metrics().ok());
    if let Some(handle) = handle {
        handle.begin_drain();
        handle.join();
    }

    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let mean_ns = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / total
    };
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let p99 = percentile(&latencies, 99.0);
    let achieved_qps = total as f64 / elapsed.as_secs_f64().max(1e-9);
    let coalesced = server_metrics
        .as_ref()
        .and_then(|m| m.get("coalesced_requests"))
        .and_then(|v| v.as_u64());

    let mut report = vec![
        ("endpoint", Json::from(endpoint.as_str())),
        (
            "profiles",
            Json::Arr(
                opts.profiles
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
        ("seeds", Json::from(opts.seeds)),
        ("clients", Json::from(opts.clients)),
        ("target_qps", Json::from(opts.qps)),
        ("requests", Json::from(opts.requests)),
        ("completed", Json::from(total)),
        ("errors", Json::from(errors)),
        ("elapsed_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        ("achieved_qps", Json::from(achieved_qps)),
        ("latency_ms_p50", Json::from(ms(p50))),
        ("latency_ms_p95", Json::from(ms(p95))),
        ("latency_ms_p99", Json::from(ms(p99))),
        ("latency_ms_mean", Json::from(ms(mean_ns))),
        (
            "latency_ms_max",
            Json::from(ms(latencies.last().copied().unwrap_or(0))),
        ),
        ("cache_hits", Json::from(hits)),
        ("cache_misses", Json::from(misses)),
        ("cache_hit_rate", Json::from(hit_rate)),
    ];
    if let Some(m) = server_metrics {
        report.push(("server", m));
    }
    let artifact = Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "service-load.json".to_string());
    std::fs::write(&out, format!("{artifact}\n")).unwrap_or_else(|e| {
        eprintln!("loadgen: writing {out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "loadgen: {total} ok, {errors} errors in {:.1} ms; p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms; hit rate {:.1}% -> {}",
        elapsed.as_secs_f64() * 1e3,
        ms(p50),
        ms(p95),
        ms(p99),
        100.0 * hit_rate,
        out
    );
    // Self-asserting gates for CI soaks.
    let mut gate_failures = Vec::new();
    if let Some(floor) = opts.min_qps {
        if achieved_qps < floor {
            gate_failures.push(format!(
                "achieved {achieved_qps:.1} qps is below the --min-qps floor {floor:.1}"
            ));
        }
    }
    if opts.expect_coalesced {
        match coalesced {
            Some(n) if n > 0 => {}
            Some(_) => gate_failures
                .push("server coalesced zero requests (--expect-coalesced)".to_string()),
            None => gate_failures.push(
                "server metrics carry no coalesced_requests; cannot verify --expect-coalesced"
                    .to_string(),
            ),
        }
    }
    for g in &gate_failures {
        eprintln!("loadgen: GATE FAILED: {g}");
    }
    if errors > 0 || !gate_failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(feature = "chaos")]
fn chaos_main(opts: Options) {
    // Injected panics are caught by the worker supervision boundary,
    // but the default hook would still print a backtrace per injection
    // and drown the report. Silence exactly those; real panics keep
    // the default treatment.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let faults = chaos::fault_config(&opts);
    eprintln!(
        "loadgen: chaos audit: seed {}, {} requests at {} qps over {} clients, \
         retries {}, deadline {:?} ms",
        opts.chaos_seed, opts.requests, opts.qps, opts.clients, opts.retries, opts.deadline_ms
    );
    let refs = references(&opts).unwrap_or_else(|e| {
        eprintln!("loadgen: serial references: {e}");
        std::process::exit(1);
    });
    let config = ServerConfig {
        workers: opts.workers,
        cache: dagsched_service::CacheConfig {
            max_entries: opts.cache_entries,
            ..dagsched_service::CacheConfig::default()
        },
        faults: Some(faults),
        ..ServerConfig::default()
    };
    let handle = serve(listen_for(&opts), config).unwrap_or_else(|e| {
        eprintln!("loadgen: in-process server: {e}");
        std::process::exit(1);
    });
    let endpoint = handle.endpoint();

    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let opts = Arc::new(opts);
    let refs = Arc::new(refs);
    let mut threads = Vec::new();
    for idx in 0..opts.clients {
        let endpoint = endpoint.clone();
        let next = Arc::clone(&next);
        let opts = Arc::clone(&opts);
        let refs = Arc::clone(&refs);
        threads.push(std::thread::spawn(move || {
            chaos::run_chaos_client(&endpoint, &opts, &refs, &next, start, idx)
        }));
    }

    let mut latencies = Vec::with_capacity(opts.requests);
    let mut merged = chaos::ChaosTally::default();
    for t in threads {
        match t.join().expect("chaos client thread panicked") {
            Ok(tally) => {
                latencies.extend(tally.latencies_ns);
                merged.ok_exact += tally.ok_exact;
                merged.ok_degraded += tally.ok_degraded;
                merged.transport_failures += tally.transport_failures;
                merged.retries += tally.retries;
                merged.redials += tally.redials;
                merged.server_hints_honoured += tally.server_hints_honoured;
                for (code, n) in tally.server_errors {
                    *merged.server_errors.entry(code).or_insert(0) += n;
                }
                merged.violations.extend(tally.violations);
            }
            Err(e) => merged.violations.push(format!("chaos client aborted: {e}")),
        }
    }
    let elapsed = start.elapsed();

    // Invariant 1: the daemon survived the whole run.
    let alive = Client::connect(&endpoint)
        .and_then(|mut c| c.ping())
        .is_ok();
    if !alive {
        merged
            .violations
            .push("daemon did not answer a ping after the run".to_string());
    }
    let server_metrics = Client::connect(&endpoint)
        .ok()
        .and_then(|mut c| c.metrics().ok());
    handle.begin_drain();
    handle.join();

    // Invariant 2: every request reached a terminal outcome.
    let typed_errors: u64 = merged.server_errors.values().sum();
    let terminal = merged.ok_exact + merged.ok_degraded + typed_errors + merged.transport_failures;
    if terminal != opts.requests as u64 {
        merged.violations.push(format!(
            "{terminal} terminal outcomes for {} requests",
            opts.requests
        ));
    }

    latencies.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let p99 = percentile(&latencies, 99.0);
    let ok_total = merged.ok_exact + merged.ok_degraded;
    let degraded_fraction = if ok_total > 0 {
        merged.ok_degraded as f64 / ok_total as f64
    } else {
        0.0
    };

    let mut report = vec![
        ("mode", Json::from("chaos")),
        ("chaos_seed", Json::from(opts.chaos_seed)),
        (
            "fault_per_mille",
            Json::Obj(vec![
                (
                    "panic".to_string(),
                    Json::from(u64::from(faults.panic_per_mille)),
                ),
                (
                    "slow".to_string(),
                    Json::from(u64::from(faults.slow_per_mille)),
                ),
                (
                    "truncate".to_string(),
                    Json::from(u64::from(faults.truncate_per_mille)),
                ),
                (
                    "corrupt".to_string(),
                    Json::from(u64::from(faults.corrupt_per_mille)),
                ),
                (
                    "reset".to_string(),
                    Json::from(u64::from(faults.reset_per_mille)),
                ),
            ]),
        ),
        ("slow_ms", Json::from(opts.slow_ms)),
        (
            "deadline_ms",
            match opts.deadline_ms {
                Some(ms) => Json::from(ms),
                None => Json::Null,
            },
        ),
        ("retries_budget", Json::from(u64::from(opts.retries))),
        ("requests", Json::from(opts.requests)),
        ("clients", Json::from(opts.clients)),
        ("elapsed_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        ("ok_exact", Json::from(merged.ok_exact)),
        ("ok_degraded", Json::from(merged.ok_degraded)),
        ("degraded_fraction", Json::from(degraded_fraction)),
        ("typed_errors", Json::from(typed_errors)),
        (
            "typed_errors_by_code",
            Json::Obj(
                merged
                    .server_errors
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        ("transport_failures", Json::from(merged.transport_failures)),
        ("retries", Json::from(merged.retries)),
        ("redials", Json::from(merged.redials)),
        (
            "server_hints_honoured",
            Json::from(merged.server_hints_honoured),
        ),
        ("latency_ms_p50", Json::from(ms(p50))),
        ("latency_ms_p95", Json::from(ms(p95))),
        ("latency_ms_p99", Json::from(ms(p99))),
        ("daemon_alive_after_run", Json::from(alive)),
        ("violations", Json::from(merged.violations.len() as u64)),
    ];
    if let Some(m) = server_metrics {
        report.push(("server", m));
    }
    let artifact = Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "service-chaos.json".to_string());
    std::fs::write(&out, format!("{artifact}\n")).unwrap_or_else(|e| {
        eprintln!("loadgen: writing {out}: {e}");
        std::process::exit(1);
    });

    eprintln!(
        "loadgen: chaos: {} exact, {} degraded ({:.1}%), {} typed errors, {} transport \
         failures, {} retries, {} redials; p50 {:.2} ms, p99 {:.2} ms -> {}",
        merged.ok_exact,
        merged.ok_degraded,
        100.0 * degraded_fraction,
        typed_errors,
        merged.transport_failures,
        merged.retries,
        merged.redials,
        ms(p50),
        ms(p99),
        out
    );
    if !merged.violations.is_empty() {
        for v in &merged.violations {
            eprintln!("loadgen: VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: chaos audit passed: daemon alive, all requests terminal, all replies verified"
    );
}

#[cfg(feature = "chaos")]
fn crash_loop_main(opts: Options) {
    use crash_loop::{connect_policy, endpoint, pump_session, spawn_daemon};

    let fatal = |msg: String| -> ! {
        eprintln!("loadgen: {msg}");
        std::process::exit(1);
    };
    let kills_wanted = opts.crash_loop.expect("dispatched on crash_loop");
    let root = opts
        .state_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dagsched-crash-loop-{}", std::process::id()))
        });
    let state = root.join("state");
    std::fs::create_dir_all(&state)
        .unwrap_or_else(|e| fatal(format!("creating {}: {e}", state.display())));
    let sock = root.join("daemon.sock");
    let fingerprint = dagsched_service::store_fingerprint();
    let working = opts.profiles.len() * opts.seeds as usize;

    eprintln!(
        "loadgen: crash-loop audit: {kills_wanted} SIGKILLs, seed {}, working set {} programs, \
         state {}",
        opts.chaos_seed,
        working,
        state.display()
    );
    let refs = references(&opts).unwrap_or_else(|e| fatal(format!("serial references: {e}")));

    let mut violations: Vec<String> = Vec::new();
    let mut injected = Vec::new();
    let mut cycles_json = Vec::new();
    let mut pre_crash_hit_rate = 0.0;
    let mut kills = 0u32;
    let started = Instant::now();

    for cycle in 0..kills_wanted {
        let child = Mutex::new(
            spawn_daemon(&sock, &state, &opts)
                .unwrap_or_else(|e| fatal(format!("spawning the daemon: {e}"))),
        );
        // First session: two clean passes — fill the cache cold, then
        // measure the warm (pre-crash) hit rate recovery must defend.
        if cycle == 0 {
            match pump_session(&child, &sock, &opts, &refs, working, None) {
                Ok(fill) => violations.extend(fill.violations),
                Err(e) => {
                    violations.push(format!("cycle 0 fill pass: {e}"));
                    break;
                }
            }
            match pump_session(&child, &sock, &opts, &refs, working, None) {
                Ok(warm) => {
                    pre_crash_hit_rate = warm.hit_rate();
                    violations.extend(warm.violations);
                }
                Err(e) => {
                    violations.push(format!("cycle 0 warm pass: {e}"));
                    break;
                }
            }
        }
        // Kill at ~3/4 of a pass: genuinely mid-load (the WAL is cut at
        // an arbitrary byte), while re-touching enough of the working
        // set that entries lost to the previous cycle's injected
        // corruption get recompiled and re-persisted.
        let kill_at = (working * 3 / 4).max(1);
        let tally = match pump_session(&child, &sock, &opts, &refs, working, Some(kill_at)) {
            Ok(t) => t,
            Err(e) => {
                violations.push(format!("cycle {cycle}: daemon did not recover: {e}"));
                let _ = child.lock().unwrap().kill();
                let _ = child.lock().unwrap().wait();
                break;
            }
        };
        kills += 1;
        let _ = child.lock().unwrap().wait();
        violations.extend(tally.violations.iter().cloned());
        cycles_json.push(Json::Obj(vec![
            ("cycle".to_string(), Json::from(u64::from(cycle))),
            ("ok".to_string(), Json::from(tally.ok)),
            ("failed_after_kill".to_string(), Json::from(tally.failed)),
            ("hit_rate".to_string(), Json::from(tally.hit_rate())),
        ]));
        // Corrupt the survivor between cycles — but never after the
        // last kill: the final measurement grades recovery of the
        // crashed state itself, and the next session's pump is what
        // heals injected losses.
        if cycle + 1 < kills_wanted {
            match dagsched_store::faultinject::inject(&state, opts.chaos_seed, u64::from(cycle)) {
                Ok(Some(f)) => {
                    eprintln!(
                        "loadgen: cycle {cycle}: injected {} into {} (detail {})",
                        f.fault, f.file, f.detail
                    );
                    injected.push(Json::Obj(vec![
                        ("cycle".to_string(), Json::from(u64::from(cycle))),
                        (
                            "fault".to_string(),
                            Json::from(f.fault.to_string().as_str()),
                        ),
                        ("file".to_string(), Json::from(f.file.as_str())),
                        ("detail".to_string(), Json::from(f.detail)),
                    ]));
                }
                Ok(None) => {}
                Err(e) => violations.push(format!("cycle {cycle}: storage injection: {e}")),
            }
        }
        eprintln!(
            "loadgen: cycle {cycle}: {} ok, {} failed after SIGKILL, hit rate {:.1}%",
            tally.ok,
            tally.failed,
            100.0 * tally.hit_rate()
        );
    }

    // Final restart over the kill -9 survivor: the cache must come back
    // warm, the replies must still be bit-identical, and the server
    // must report what it recovered.
    let mut post_restart_hit_rate = 0.0;
    let mut recovered_entries = 0u64;
    let mut recovery_truncated = 0u64;
    let mut server_metrics = None;
    let mut fsck_issues: Vec<String> = Vec::new();
    if violations.is_empty() {
        let child = Mutex::new(
            spawn_daemon(&sock, &state, &opts)
                .unwrap_or_else(|e| fatal(format!("spawning the final daemon: {e}"))),
        );
        match pump_session(&child, &sock, &opts, &refs, working, None) {
            Ok(post) => {
                post_restart_hit_rate = post.hit_rate();
                violations.extend(post.violations);
            }
            Err(e) => violations.push(format!("final restart: {e}")),
        }
        match Client::connect_with_retry(&endpoint(&sock), &connect_policy()) {
            Ok((mut client, _)) => {
                if let Ok(m) = client.metrics() {
                    recovered_entries = m
                        .get("recovered_entries")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    recovery_truncated = m
                        .get("recovery_truncated_records")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    server_metrics = Some(m);
                }
                // Graceful drain: the server snapshots on the way out,
                // so the surviving store should check completely clean.
                if let Err(e) = client.shutdown_server() {
                    violations.push(format!("graceful shutdown: {e}"));
                }
            }
            Err(e) => violations.push(format!("final metrics connection: {e}")),
        }
        let _ = child.lock().unwrap().wait();

        if recovered_entries == 0 {
            violations
                .push("final restart recovered zero cache entries from the survivor".to_string());
        }
        if pre_crash_hit_rate > 0.0 && post_restart_hit_rate < 0.5 * pre_crash_hit_rate {
            violations.push(format!(
                "post-restart hit rate {:.1}% is below half the pre-crash {:.1}%",
                100.0 * post_restart_hit_rate,
                100.0 * pre_crash_hit_rate
            ));
        }
        match dagsched_store::fsck::check(&state, Some(fingerprint)) {
            Ok(report) if report.clean() => {}
            Ok(report) => {
                fsck_issues = report.issues.clone();
                for issue in &report.issues {
                    violations.push(format!("fsck after graceful drain: {issue}"));
                }
            }
            Err(e) => violations.push(format!("fsck after graceful drain: {e}")),
        }
    }

    let elapsed = started.elapsed();
    let mut report = vec![
        ("mode", Json::from("crash-loop")),
        ("seed", Json::from(opts.chaos_seed)),
        ("kills_requested", Json::from(u64::from(kills_wanted))),
        ("kills_delivered", Json::from(u64::from(kills))),
        ("working_set", Json::from(working)),
        (
            "state_dir",
            Json::from(state.display().to_string().as_str()),
        ),
        ("elapsed_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        ("pre_crash_hit_rate", Json::from(pre_crash_hit_rate)),
        ("post_restart_hit_rate", Json::from(post_restart_hit_rate)),
        ("recovered_entries", Json::from(recovered_entries)),
        ("recovery_truncated_records", Json::from(recovery_truncated)),
        ("injected_faults", Json::Arr(injected)),
        ("cycles", Json::Arr(cycles_json)),
        (
            "fsck_issues",
            Json::Arr(fsck_issues.iter().map(|i| Json::from(i.as_str())).collect()),
        ),
        ("violations", Json::from(violations.len() as u64)),
    ];
    if let Some(m) = server_metrics {
        report.push(("server", m));
    }
    let artifact = Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "service-crash-loop.json".to_string());
    std::fs::write(&out, format!("{artifact}\n"))
        .unwrap_or_else(|e| fatal(format!("writing {out}: {e}")));

    eprintln!(
        "loadgen: crash-loop: {kills} SIGKILLs; hit rate {:.1}% pre-crash -> {:.1}% after the \
         final restart; {} entries recovered -> {out}",
        100.0 * pre_crash_hit_rate,
        100.0 * post_restart_hit_rate,
        recovered_entries
    );
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("loadgen: VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: crash-loop audit passed: no corrupt replies, warm recovery, store fsck-clean"
    );
}

// ---------------------------------------------------------------------------
// Overload mode
// ---------------------------------------------------------------------------

/// Helpers for the `--overload` audit: capacity probing, the stepped
/// 1× → 3× → 1× open-loop schedule, and the budgeted-retry client.
mod overload {
    use super::*;
    use dagsched_service::ClientError;

    /// Bounded queue depth for the overload server: deep enough that an
    /// unshedded spike would buffer-bloat far past any plausible
    /// deadline, so deadline shedding — not the queue bound — has to do
    /// the shedding.
    pub const QUEUE: usize = 1024;
    /// Closed-loop capacity probe duration.
    pub const PROBE_MS: u64 = 1500;
    /// Phase durations: 1× baseline, 3× spike, 1× recovery.
    pub const BASELINE_SECS: u64 = 4;
    pub const SPIKE_SECS: u64 = 4;
    pub const RECOVERY_SECS: u64 = 10;
    /// Spike multiplier over measured capacity.
    pub const SPIKE_FACTOR: f64 = 3.0;
    /// Gate: spike goodput must stay at this fraction of capacity.
    pub const SPIKE_GOODPUT_FLOOR: f64 = 0.70;
    /// Gate: wire ÷ logical requests must stay under this.
    pub const AMPLIFICATION_CEILING: f64 = 1.3;
    /// Gate: post-spike goodput must return to this fraction of the
    /// baseline rate…
    pub const RECOVERY_FRACTION: f64 = 0.95;
    /// …within this many seconds of the spike ending.
    pub const RECOVERY_WITHIN_SECS: u64 = 10;
    /// Gate: p99 of admitted requests is bounded by deadline + slack
    /// (transport, scheduling jitter, and the final compile slot).
    pub const P99_SLACK_MS: u64 = 250;
    /// Seed space for the capacity probe, disjoint from the run's
    /// `PAPER_SEED + k` space so the probe cannot warm the run's cache.
    pub const PROBE_SEED_BASE: u64 = PAPER_SEED + 1_000_000;
    /// Concurrency cap for the capacity probe: enough to saturate the
    /// workers, small enough that the probe's own standing queue stays
    /// under the deadline (a probe that sheds itself under-measures).
    pub const PROBE_CLIENTS_MAX: usize = 32;

    pub const PHASES: [&str; 3] = ["baseline", "spike", "recovery"];

    /// Precomputed open-loop schedule for the stepped-load run.
    pub struct Plan {
        pub mix: Vec<String>,
        /// Due time of request `k`, relative to the run start.
        pub due: Vec<Duration>,
        /// Phase index of request `k` (0 baseline, 1 spike, 2 recovery).
        pub phase: Vec<u8>,
        /// Client deadline tagged on every request.
        pub deadline_ms: u64,
        /// Offered rate per phase (requests/second).
        pub offered_qps: [f64; 3],
    }

    impl Plan {
        pub fn build(capacity: f64, mix: Vec<String>, deadline_ms: u64) -> Plan {
            let rates = [capacity, SPIKE_FACTOR * capacity, capacity];
            let secs = [BASELINE_SECS, SPIKE_SECS, RECOVERY_SECS];
            let mut due = Vec::new();
            let mut phase = Vec::new();
            let mut t0 = 0.0f64;
            for (p, (&rate, &len)) in rates.iter().zip(secs.iter()).enumerate() {
                let n = ((rate * len as f64).round() as usize).max(1);
                for i in 0..n {
                    due.push(Duration::from_secs_f64(t0 + i as f64 / rate));
                    phase.push(p as u8);
                }
                t0 += len as f64;
            }
            Plan {
                mix,
                due,
                phase,
                deadline_ms,
                offered_qps: rates,
            }
        }

        /// `(profile, seed)` for request `k`: the mix cycles; the seed
        /// is unique per request, so every compile is a genuine miss
        /// and goodput measures compute capacity, not hit-rate luck.
        pub fn key(&self, k: usize) -> (String, u64) {
            (self.mix[k % self.mix.len()].clone(), PAPER_SEED + k as u64)
        }
    }

    /// One logical request's terminal outcome.
    pub struct Record {
        pub phase: u8,
        /// Completion time relative to the run start, in ms.
        pub done_ms: u64,
        pub latency_ns: u64,
        pub ok: bool,
    }

    #[derive(Default)]
    pub struct Tally {
        pub records: Vec<Record>,
        pub wire_requests: u64,
        pub retries: u64,
        pub budget_denied: u64,
        pub redials: u64,
        pub transport_failures: u64,
        pub server_errors: HashMap<String, u64>,
    }

    /// Closed-loop capacity probe: `clients` threads hammer the daemon
    /// with unique-seed requests (no pacing) for [`PROBE_MS`];
    /// capacity is completions per second, and the saturated p50
    /// request latency rides along. Probe requests carry a deadline —
    /// deadline pressure changes how hard the engine degrades, so
    /// capacity must be measured under run conditions or the "3×"
    /// spike may not actually overload.
    pub fn probe_capacity(
        endpoint: &str,
        mix: &[String],
        clients: usize,
        deadline_ms: u64,
    ) -> Result<(f64, u64), String> {
        let next = Arc::new(AtomicUsize::new(0));
        let start = Instant::now();
        let end = start + Duration::from_millis(PROBE_MS);
        let mut threads = Vec::new();
        for _ in 0..clients {
            let endpoint = endpoint.to_string();
            let mix = mix.to_vec();
            let next = Arc::clone(&next);
            threads.push(std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut client =
                    Client::connect(&endpoint).map_err(|e| format!("probe connect: {e}"))?;
                let mut lat_us = Vec::new();
                while Instant::now() < end {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let mut req = ScheduleRequest::profile(
                        mix[k % mix.len()].clone(),
                        PROBE_SEED_BASE + k as u64,
                    );
                    req.deadline_ms = Some(deadline_ms);
                    let issued = Instant::now();
                    match client.request(&req) {
                        Ok(_) => {
                            lat_us.push(
                                u64::try_from(issued.elapsed().as_micros()).unwrap_or(u64::MAX),
                            );
                        }
                        // A typed shed during the probe still measures
                        // capacity honestly: it just isn't goodput.
                        Err(ClientError::Server(_)) => {}
                        Err(e) => return Err(format!("probe request: {e}")),
                    }
                }
                Ok(lat_us)
            }));
        }
        let mut lat_us: Vec<u64> = Vec::new();
        for t in threads {
            lat_us.extend(t.join().expect("probe thread panicked")?);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if lat_us.is_empty() {
            return Err("capacity probe completed zero requests".to_string());
        }
        lat_us.sort_unstable();
        let p50_ms = (lat_us[lat_us.len() / 2] / 1_000).max(1);
        Ok((lat_us.len() as f64 / elapsed, p50_ms))
    }

    /// One stepped-load client: grabs globally-ordered slots, paces
    /// open-loop to each slot's due time, and drives every logical
    /// request to a terminal outcome — retries spend tokens from the
    /// shared [`RetryBudget`] and give up when denied one.
    pub fn run_client(
        endpoint: &str,
        plan: &Plan,
        budget: &RetryBudget,
        next: &AtomicUsize,
        start: Instant,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut client = Client::connect(endpoint).ok();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= plan.due.len() {
                return tally;
            }
            let due = start + plan.due[k];
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (profile, seed) = plan.key(k);
            let mut req = ScheduleRequest::profile(profile, seed);
            req.deadline_ms = Some(plan.deadline_ms);
            let issued = Instant::now();
            let mut attempt: u64 = 0;
            let ok = loop {
                if client.is_none() {
                    match Client::connect(endpoint) {
                        Ok(c) => {
                            tally.redials += 1;
                            client = Some(c);
                        }
                        Err(_) => {
                            tally.transport_failures += 1;
                            break false;
                        }
                    }
                }
                let conn = client.as_mut().expect("connected above");
                req.attempt = attempt;
                attempt += 1;
                tally.wire_requests += 1;
                match conn.request(&req) {
                    Ok(_) => {
                        budget.record_success();
                        break true;
                    }
                    Err(e) => {
                        let (retryable, hint_ms) = match &e {
                            ClientError::Server(err) => {
                                (err.code.is_retryable(), err.retry_after_ms)
                            }
                            // Transport breakage: the bytes may have been
                            // lost in flight; redial before retrying.
                            _ => {
                                client = None;
                                (true, None)
                            }
                        };
                        let spent = issued.elapsed().as_millis() as u64;
                        let remaining = plan.deadline_ms.saturating_sub(spent);
                        if !retryable || remaining < 2 {
                            terminal_error(&mut tally, &e);
                            break false;
                        }
                        if !budget.try_spend() {
                            tally.budget_denied += 1;
                            terminal_error(&mut tally, &e);
                            break false;
                        }
                        tally.retries += 1;
                        std::thread::sleep(Duration::from_millis(
                            hint_ms.unwrap_or(2).clamp(1, remaining),
                        ));
                    }
                }
            };
            tally.records.push(Record {
                phase: plan.phase[k],
                done_ms: start.elapsed().as_millis() as u64,
                latency_ns: issued.elapsed().as_nanos() as u64,
                ok,
            });
        }
    }

    fn terminal_error(tally: &mut Tally, e: &ClientError) {
        match e {
            ClientError::Server(err) => {
                *tally
                    .server_errors
                    .entry(err.code.as_str().to_string())
                    .or_insert(0) += 1;
            }
            _ => tally.transport_failures += 1,
        }
    }
}

/// The overload audit: measure capacity closed-loop, then step offered
/// load 1× → 3× → 1× of it with budgeted-retry clients and gate on the
/// overload-control invariants (goodput floor, bounded p99, retry
/// amplification, prompt recovery, deadline shedding).
fn overload_main(opts: Options) {
    // Heavier defaults than the steady-state soak: a Canon-style DAG
    // shape mix, fewer workers (so the spike saturates compile
    // capacity, not the client machine), and enough client threads
    // that the 3× phase is genuinely open-loop — with too few clients,
    // their own blocking throttles the offered load back down to
    // capacity and the daemon is never actually overloaded.
    let mix = if opts.profiles_explicit {
        opts.profiles.clone()
    } else {
        dagsched_workloads::canon_mix()
    };
    let workers = if opts.workers_explicit {
        opts.workers
    } else {
        2
    };
    let clients = if opts.clients_explicit {
        opts.clients
    } else {
        256
    };

    let config = ServerConfig {
        workers,
        queue: overload::QUEUE,
        cache: dagsched_service::CacheConfig {
            max_entries: opts.cache_entries,
            ..dagsched_service::CacheConfig::default()
        },
        mem_budget: opts.mem_budget,
        ..ServerConfig::default()
    };
    let handle = serve(listen_for(&opts), config).unwrap_or_else(|e| {
        eprintln!("loadgen: in-process server: {e}");
        std::process::exit(1);
    });
    let endpoint = handle.endpoint();

    eprintln!(
        "loadgen: overload: probing capacity ({clients} clients, {workers} workers, {} profiles)",
        mix.len()
    );
    let probe_deadline_ms = opts.deadline_ms.unwrap_or(250);
    let probe_clients = clients.min(overload::PROBE_CLIENTS_MAX);
    let (capacity, probe_p50_ms) =
        overload::probe_capacity(&endpoint, &mix, probe_clients, probe_deadline_ms).unwrap_or_else(
            |e| {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            },
        );

    // Client deadline: pinned to a small multiple of the *saturated*
    // p50 the probe just measured, far below the queueing delay a 3×
    // spike builds in the deep queue. A deadline that queueing alone
    // could absorb would prove nothing about deadline shedding. An
    // explicit --deadline-ms still caps it from above.
    let deadline_ms = probe_deadline_ms
        .min(probe_p50_ms.saturating_mul(2))
        .max(25);

    let plan = Arc::new(overload::Plan::build(capacity, mix, deadline_ms));
    eprintln!(
        "loadgen: overload: capacity {capacity:.0} qps (saturated p50 {probe_p50_ms} ms); \
         deadline {deadline_ms} ms; phases \
         {}s@1x / {}s@3x / {}s@1x ({} requests)",
        overload::BASELINE_SECS,
        overload::SPIKE_SECS,
        overload::RECOVERY_SECS,
        plan.due.len()
    );

    let budget = Arc::new(RetryBudget::default());
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..clients {
        let endpoint = endpoint.clone();
        let plan = Arc::clone(&plan);
        let budget = Arc::clone(&budget);
        let next = Arc::clone(&next);
        threads.push(std::thread::spawn(move || {
            overload::run_client(&endpoint, &plan, &budget, &next, start)
        }));
    }
    let mut merged = overload::Tally::default();
    for t in threads {
        let tally = t.join().expect("overload client thread panicked");
        merged.records.extend(tally.records);
        merged.wire_requests += tally.wire_requests;
        merged.retries += tally.retries;
        merged.budget_denied += tally.budget_denied;
        merged.redials += tally.redials;
        merged.transport_failures += tally.transport_failures;
        for (code, n) in tally.server_errors {
            *merged.server_errors.entry(code).or_insert(0) += n;
        }
    }
    let elapsed = start.elapsed();

    // Crash gate: the daemon answers a ping after the storm.
    let alive = Client::connect(&endpoint)
        .and_then(|mut c| c.ping())
        .is_ok();
    let server_metrics = Client::connect(&endpoint)
        .ok()
        .and_then(|mut c| c.metrics().ok());
    handle.begin_drain();
    handle.join();

    let logical = plan.due.len() as u64;
    let phase_secs = [
        overload::BASELINE_SECS,
        overload::SPIKE_SECS,
        overload::RECOVERY_SECS,
    ];
    let mut phase_issued = [0u64; 3];
    let mut phase_ok = [0u64; 3];
    // Goodput is measured over *wall-clock completion windows*, not
    // over which phase a request was scheduled in: if the clients fall
    // behind the schedule, labelling late completions with their
    // intended phase would overstate goodput by exactly the slip.
    let mut window_ok = [0u64; 3];
    let window_end_ms = {
        let b = overload::BASELINE_SECS * 1000;
        let s = b + overload::SPIKE_SECS * 1000;
        [b, s, s + overload::RECOVERY_SECS * 1000]
    };
    let mut admitted_ns: Vec<u64> = Vec::new();
    let horizon_s =
        (overload::BASELINE_SECS + overload::SPIKE_SECS + overload::RECOVERY_SECS) as usize + 30;
    let mut ok_per_sec = vec![0u64; horizon_s + 1];
    for r in &merged.records {
        phase_issued[r.phase as usize] += 1;
        if r.ok {
            phase_ok[r.phase as usize] += 1;
            admitted_ns.push(r.latency_ns);
            if let Some(w) = window_end_ms.iter().position(|&end| r.done_ms < end) {
                window_ok[w] += 1;
            }
            let s = (r.done_ms / 1000) as usize;
            if s < ok_per_sec.len() {
                ok_per_sec[s] += 1;
            }
        }
    }
    admitted_ns.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = percentile(&admitted_ns, 50.0);
    let p95 = percentile(&admitted_ns, 95.0);
    let p99 = percentile(&admitted_ns, 99.0);

    let goodput = |p: usize| window_ok[p] as f64 / phase_secs[p] as f64;
    let baseline_goodput = goodput(0);
    let spike_goodput = goodput(1);
    let recovery_goodput = goodput(2);

    // Recovery time: the first whole second after the spike ends whose
    // goodput is back to the required fraction of baseline.
    let spike_end_s = (overload::BASELINE_SECS + overload::SPIKE_SECS) as usize;
    let bar = overload::RECOVERY_FRACTION * baseline_goodput;
    let recovered_after_s = (spike_end_s..ok_per_sec.len())
        .find(|&s| ok_per_sec[s] as f64 >= bar)
        .map(|s| (s - spike_end_s + 1) as u64);

    let amplification = merged.wire_requests as f64 / logical.max(1) as f64;
    let typed_errors: u64 = merged.server_errors.values().sum();
    let ok_total: u64 = phase_ok.iter().sum();
    let terminal = ok_total + typed_errors + merged.transport_failures;

    let metric = |key: &str| {
        server_metrics
            .as_ref()
            .and_then(|m| m.get(key))
            .and_then(Json::as_u64)
    };
    let shed_expired = metric("shed_expired").unwrap_or(0);
    let shed_mem_budget = metric("shed_mem_budget").unwrap_or(0);

    let mut gate_failures = Vec::new();
    if spike_goodput < overload::SPIKE_GOODPUT_FLOOR * capacity {
        gate_failures.push(format!(
            "spike goodput {spike_goodput:.1} qps is below {:.0}% of the {capacity:.1} qps capacity",
            100.0 * overload::SPIKE_GOODPUT_FLOOR
        ));
    }
    let p99_bound_ms = deadline_ms + overload::P99_SLACK_MS;
    if ms(p99) > p99_bound_ms as f64 {
        gate_failures.push(format!(
            "p99 of admitted requests {:.1} ms exceeds the {p99_bound_ms} ms bound \
             (deadline + slack)",
            ms(p99)
        ));
    }
    if amplification >= overload::AMPLIFICATION_CEILING {
        gate_failures.push(format!(
            "retry amplification {amplification:.3}x (wire {} / logical {logical}) reached \
             the {:.1}x ceiling",
            merged.wire_requests,
            overload::AMPLIFICATION_CEILING
        ));
    }
    match recovered_after_s {
        Some(s) if s <= overload::RECOVERY_WITHIN_SECS => {}
        Some(s) => gate_failures.push(format!(
            "goodput took {s} s after the spike to recover to 95% of baseline (allowed {} s)",
            overload::RECOVERY_WITHIN_SECS
        )),
        None => gate_failures
            .push("goodput never recovered to 95% of baseline after the spike".to_string()),
    }
    if shed_expired == 0 {
        gate_failures.push(
            "server shed nothing by deadline (shed_expired == 0); the overload never engaged \
             the control layer"
                .to_string(),
        );
    }
    if terminal != logical {
        gate_failures.push(format!(
            "{terminal} terminal outcomes for {logical} requests"
        ));
    }
    if !alive {
        gate_failures.push("daemon did not answer a ping after the run".to_string());
    }

    let phase_json = |p: usize| {
        Json::Obj(vec![
            ("offered_qps".to_string(), Json::from(plan.offered_qps[p])),
            ("duration_s".to_string(), Json::from(phase_secs[p])),
            ("requests".to_string(), Json::from(phase_issued[p])),
            ("ok".to_string(), Json::from(phase_ok[p])),
            ("ok_in_window".to_string(), Json::from(window_ok[p])),
            ("goodput_qps".to_string(), Json::from(goodput(p))),
        ])
    };
    let mut report = vec![
        ("mode", Json::from("overload")),
        ("capacity_qps", Json::from(capacity)),
        ("deadline_ms", Json::from(deadline_ms)),
        ("queue", Json::from(overload::QUEUE as u64)),
        ("workers", Json::from(workers as u64)),
        ("clients", Json::from(clients as u64)),
        (
            "profiles",
            Json::Arr(plan.mix.iter().map(|p| Json::from(p.as_str())).collect()),
        ),
        ("elapsed_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        (
            "phases",
            Json::Obj(
                overload::PHASES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| ((*name).to_string(), phase_json(i)))
                    .collect(),
            ),
        ),
        ("logical_requests", Json::from(logical)),
        ("wire_requests", Json::from(merged.wire_requests)),
        ("amplification", Json::from(amplification)),
        ("retries", Json::from(merged.retries)),
        ("budget_denied", Json::from(merged.budget_denied)),
        ("redials", Json::from(merged.redials)),
        ("ok", Json::from(ok_total)),
        ("typed_errors", Json::from(typed_errors)),
        (
            "typed_errors_by_code",
            Json::Obj(
                merged
                    .server_errors
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        ("transport_failures", Json::from(merged.transport_failures)),
        ("latency_ms_p50_admitted", Json::from(ms(p50))),
        ("latency_ms_p95_admitted", Json::from(ms(p95))),
        ("latency_ms_p99_admitted", Json::from(ms(p99))),
        ("p99_bound_ms", Json::from(p99_bound_ms)),
        (
            "recovered_after_s",
            match recovered_after_s {
                Some(s) => Json::from(s),
                None => Json::Null,
            },
        ),
        ("shed_expired", Json::from(shed_expired)),
        ("shed_mem_budget", Json::from(shed_mem_budget)),
        ("daemon_alive_after_run", Json::from(alive)),
        (
            "gate_failures",
            Json::Arr(
                gate_failures
                    .iter()
                    .map(|g| Json::from(g.as_str()))
                    .collect(),
            ),
        ),
    ];
    if let Some(m) = server_metrics {
        report.push(("server", m));
    }
    let artifact = Json::Obj(
        report
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "service-overload.json".to_string());
    std::fs::write(&out, format!("{artifact}\n")).unwrap_or_else(|e| {
        eprintln!("loadgen: writing {out}: {e}");
        std::process::exit(1);
    });

    eprintln!(
        "loadgen: overload: goodput {baseline_goodput:.0}/{spike_goodput:.0}/{recovery_goodput:.0} \
         qps (baseline/spike/recovery) vs {capacity:.0} qps capacity; p99 admitted {:.1} ms; \
         amplification {amplification:.3}x; shed_expired {shed_expired}; recovered in {} -> {out}",
        ms(p99),
        recovered_after_s.map_or("never".to_string(), |s| format!("{s} s")),
    );
    for g in &gate_failures {
        eprintln!("loadgen: GATE FAILED: {g}");
    }
    if !gate_failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: overload audit passed: goodput held, deadlines bounded, retries budgeted, \
         recovery prompt"
    );
}
