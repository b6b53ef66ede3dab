//! `loadgen` — one scenario driver for auditing `dagsched-service`.
//!
//! Every scenario replays a deterministic request stream against a
//! daemon (or a router over shards) and ends by writing one JSON
//! artifact. All scenarios share the same pieces:
//!
//! - one paced client loop: request `k` is due at a fixed offset from
//!   the start, and clients take slots from a shared counter, so the
//!   offered rate holds however they interleave;
//! - one sequential pass over the working set (cluster fill, warm,
//!   breaker-open and post-failover passes; crash-loop sessions);
//! - one [`Tally`] per client, merged at the end;
//! - one reply check: an undegraded reply must be bit-identical to a
//!   serial, uncached compile made before any daemon started; a
//!   degraded reply goes through the validity oracle
//!   (`dagsched_verify::check_reordering_text`) where the scenario
//!   allows degradation, and is a violation where it does not;
//! - one child-daemon spawner, and one dial policy that waits for a
//!   spawned daemon to come up;
//! - one artifact writer.
//!
//! Every artifact records its `mode`, `seed` and `requests`, the
//! tally's figures, the scenario's own fields, and a `gates` list. A
//! gate has a name, a kind, a threshold, the number of cases it
//! checked, and whether it passed. An **outcome** gate measures what a
//! client or operator sees; a **firing** gate only shows that a
//! mechanism engaged. A gate that an earlier failure kept from running
//! checks 0 cases and passes, so only the gate that broke fails. The
//! process exits 1 exactly when a gate failed (or the harness itself
//! could not run), 2 on a usage error, and 0 otherwise.
//!
//! # Soak (the default)
//!
//! Paced single-attempt requests over `profiles x seeds` against an
//! in-process daemon (an ephemeral TCP port, or `--unix PATH`) or a
//! remote one (`--connect`). Replies are not checked. Gates:
//!
//! - `no_errors` (outcome): no request ends in an error;
//! - `all_terminal` (outcome): every request reaches an outcome;
//! - `min_qps` (outcome, with `--min-qps`): achieved QPS reaches the
//!   floor;
//! - `coalesced` (firing, with `--expect-coalesced`): the daemon's
//!   single-flight table coalesced at least one request.
//!
//! ```text
//! loadgen --qps 200 --requests 400 --clients 4 --out service-load.json
//! ```
//!
//! # Chaos (`--chaos`, chaos build)
//!
//! The in-process daemon injects seeded faults: 10% worker panics, 10%
//! slow replies, 4% each of truncated, corrupted and reset reply frames
//! at the default `--faults 100`. Clients dial once and retry each
//! request under a fixed policy. Gates, all outcome: `daemon_alive` (it
//! answers a ping after the run), `all_terminal` (every request ends in
//! a reply, a typed error, or a transport failure once its retries ran
//! out), `no_dial_failures` (no client fails to dial or redial),
//! `bit_identical`, and `degraded_valid`. The same `--seed` replays the
//! same fault stream.
//!
//! ```text
//! loadgen --chaos --seed 1991 --deadline-ms 200 --requests 300 --qps 300 \
//!     --out service-chaos.json
//! ```
//!
//! # Crash-loop (`--crash-loop N`, chaos build)
//!
//! A child daemon persists to a state directory and is SIGKILLed N
//! times at ¾ of a working-set pass. Between lives the seeded storage
//! injector corrupts the survivor (torn record, bit flip, truncated
//! snapshot, duplicated WAL tail). A final life is measured and
//! drained. Gates:
//!
//! - `daemon_restarts` (outcome): every life comes up;
//! - `bit_identical` (outcome): no reply differs from the serial
//!   compile, and none is degraded (no request carries a deadline);
//! - `errors_only_after_kill` (outcome): passes without a kill see no
//!   error;
//! - `storage_injection` (firing): the injector ran between lives;
//! - `recovered_entries` (firing): the final life recovered at least
//!   one cache entry;
//! - `warm_recovery` (outcome): its hit rate is at least half the
//!   pre-crash rate;
//! - `graceful_shutdown` and `fsck_clean` (outcome): it drains, and
//!   `fsck` finds the state directory clean.
//!
//! ```text
//! loadgen --crash-loop 5 --profiles grep,cccp --seeds 4 --seed 7 \
//!     --out service-crash-loop.json
//! ```
//!
//! # Cluster (`--cluster N [--kill-shard]`)
//!
//! N child shards (RAM only) behind an in-process router. Two passes
//! fill and warm the caches, the paced load runs (with `--kill-shard`,
//! shard 0 is SIGKILLed once a third of it is in), and a final pass
//! measures the post-failover hit rate. Gates, all outcome:
//! `bit_identical`, `no_client_errors`, `all_terminal`,
//! `graceful_shutdown`, and with `--kill-shard` `warm_failover` (the
//! post-failover hit rate is at least half the pre-kill rate).
//!
//! ```text
//! loadgen --cluster 3 --kill-shard --profiles grep,cccp --seeds 4 \
//!     --requests 200 --qps 300 --out service-cluster.json
//! ```
//!
//! # Netchaos (`--cluster N --netchaos`)
//!
//! Every router-to-shard link runs through a seeded netchaos proxy that
//! faults at least 10% of connections. Once a third of the load is in,
//! link 0's request direction is cut; the cut holds until the link's
//! breaker opens, a pass then runs through the open breaker, and the
//! link is healed so the breaker must close again through half-open
//! trials. Typed errors are terminal outcomes here. Gates:
//!
//! - outcome: `router_alive`, `all_terminal`, `bit_identical`,
//!   `no_transport_errors`, `graceful_shutdown`;
//! - firing: `breaker_opened_on_cut`, `breaker_closed_after_heal`, and
//!   at least one each of the router's `failovers`,
//!   `shards_marked_down`, `hedged_requests` and `hedge_wins`.
//!
//! ```text
//! loadgen --cluster 3 --netchaos --seed 1991 --out service-netchaos.json
//! ```
//!
//! # Overload (`--overload`)
//!
//! The in-process daemon's capacity is probed closed-loop, request
//! deadlines are pinned to twice the saturated p50, and the offered
//! load steps 1× → 3× → 1× of capacity over a Canon-style DAG-shape
//! mix, with 256 open-loop clients sharing one token-bucket
//! [`RetryBudget`]. Gates:
//!
//! - outcome: `spike_goodput` (≥ 70% of capacity), `admitted_p99_ms`
//!   (≤ deadline + 250 ms), `amplification` (wire ÷ logical requests <
//!   1.3), `recovery_s` (goodput back to 95% of baseline within 10 s),
//!   `all_terminal`, `daemon_alive`;
//! - firing: `shed_expired` (the daemon shed at least one request by
//!   deadline).
//!
//! ```text
//! loadgen --overload --out service-overload.json
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dagsched_driver::{schedule_program_batch, DriverConfig, Limits, NoCache};
use dagsched_isa::MachineModel;
use dagsched_netchaos::{serve_proxy, ChaosConfig, Direction, ProxyHandle};
use dagsched_router::{serve_router, RouterConfig};
use dagsched_sched::{Scheduler, SchedulerKind};
use dagsched_service::json::Json;
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{
    CacheConfig, Client, ClientError, RetryBudget, RetryPolicy, ScheduleRequest, ScheduleResponse,
};
use dagsched_stats::percentile;
use dagsched_verify::check_reordering_text;
use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

/// Delay of an injected slow reply (chaos).
const SLOW_MS: u64 = 20;
/// Retries per request for chaos clients.
const CHAOS_RETRIES: u32 = 4;
/// Retries per request for cluster and netchaos clients: enough to ride
/// out a shard death plus the router's down-marking window.
const CLUSTER_RETRIES: u32 = 8;

/// How the harness waits for a daemon it spawned: a child just
/// spawned, or respawned over recovered state, binds its socket some
/// milliseconds from now.
const DIAL: RetryPolicy = RetryPolicy {
    max_retries: 2000,
    base_delay: Duration::from_millis(5),
    max_delay: Duration::from_millis(40),
    per_attempt_timeout: Some(Duration::from_secs(10)),
    overall_timeout: Some(Duration::from_secs(30)),
    jitter_seed: 0x5EED_1991,
};

/// One attempt, no socket timeout: how the soak, chaos, crash-loop and
/// overload clients dial, and how the soak and crash-loop send.
const ONE_SHOT: RetryPolicy = RetryPolicy {
    max_retries: 0,
    per_attempt_timeout: None,
    ..DIAL
};

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
    /// Output artifact path (`None` = `service-<mode>.json`).
    out: Option<String>,
    chaos: bool,
    /// Seed for the injected faults (chaos, crash-loop, netchaos) and
    /// the chaos clients' retry jitter.
    chaos_seed: u64,
    /// Base injection rate in ‰: chaos panics and slow replies (frame
    /// faults run at 40% of it), or netchaos link faults.
    fault_per_mille: u16,
    /// Per-request deadline tagged on every request, if any.
    deadline_ms: Option<u64>,
    /// Crash-loop: SIGKILL the daemon this many times.
    crash_loop: Option<u32>,
    /// Crash-loop: where the daemon persists its state (default: a
    /// fresh temp directory).
    state_dir: Option<String>,
    /// Hidden: run as a serve-only child process.
    serve_child: bool,
    /// Cluster: spawn this many shard daemons behind a router.
    cluster: Option<usize>,
    /// Cluster: SIGKILL shard 0 once a third of the load is in.
    kill_shard: bool,
    netchaos: bool,
    /// Soak gate: achieved QPS must reach this floor.
    min_qps: Option<f64>,
    /// Soak gate: the server must coalesce at least one request.
    expect_coalesced: bool,
    overload: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            connect: None,
            unix: None,
            qps: 200.0,
            requests: 400,
            clients: 4,
            profiles: vec!["grep".into(), "cccp".into(), "linpack".into()],
            seeds: 8,
            workers: 4,
            cache_entries: CacheConfig::default().max_entries,
            out: None,
            chaos: false,
            chaos_seed: 1991,
            fault_per_mille: 100,
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
        }
    }
}

/// The value after `flag`, parsed and accepted by `ok`.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|v| ok(v))
        .ok_or_else(|| format!("{flag} needs {what}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let any = |_: &String| true;
    let (mut profiles_set, mut clients_set, mut workers_set) = (false, false, false);
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--connect" => o.connect = Some(value(&mut args, flag, "an endpoint", any)?),
            "--unix" => o.unix = Some(value(&mut args, flag, "a socket path", any)?),
            "--qps" => o.qps = value(&mut args, flag, "a positive rate", |&q: &f64| q > 0.0)?,
            "--requests" => {
                o.requests = value(&mut args, flag, "a positive count", |&n: &usize| n > 0)?;
            }
            "--clients" => {
                o.clients = value(&mut args, flag, "a positive count", |&n: &usize| n > 0)?;
                clients_set = true;
            }
            "--profiles" => {
                let v: String = value(&mut args, flag, "a comma-separated list", any)?;
                o.profiles = v.split(',').map(|s| s.trim().to_string()).collect();
                if o.profiles.iter().any(|p| p.is_empty()) {
                    return Err("--profiles has an empty entry".to_string());
                }
                profiles_set = true;
            }
            "--seeds" => o.seeds = value(&mut args, flag, "a positive count", |&n: &u64| n > 0)?,
            "--workers" => {
                o.workers = value(&mut args, flag, "a positive count", |&n: &usize| n > 0)?;
                workers_set = true;
            }
            "--cache-entries" => {
                o.cache_entries = value(&mut args, flag, "a positive count", |&n: &usize| n > 0)?;
            }
            "--out" => o.out = Some(value(&mut args, flag, "a path", any)?),
            "--chaos" => o.chaos = true,
            "--seed" => o.chaos_seed = value(&mut args, flag, "an integer", |_: &u64| true)?,
            "--faults" => {
                let what = "a per-mille rate (0..=1000)";
                o.fault_per_mille = value(&mut args, flag, what, |&n: &u16| n <= 1000)?;
            }
            "--deadline-ms" => {
                o.deadline_ms = Some(value(&mut args, flag, "a millisecond count", |_: &u64| {
                    true
                })?);
            }
            "--crash-loop" => {
                let what = "a positive kill count";
                o.crash_loop = Some(value(&mut args, flag, what, |&n: &u32| n > 0)?);
            }
            "--state-dir" => o.state_dir = Some(value(&mut args, flag, "a directory", any)?),
            "--serve-child" => o.serve_child = true,
            "--cluster" => {
                let what = "a positive shard count";
                o.cluster = Some(value(&mut args, flag, what, |&n: &usize| n > 0)?);
            }
            "--kill-shard" => o.kill_shard = true,
            "--netchaos" => o.netchaos = true,
            "--min-qps" => {
                o.min_qps = Some(value(&mut args, flag, "a positive rate", |&q: &f64| {
                    q > 0.0
                })?);
            }
            "--expect-coalesced" => o.expect_coalesced = true,
            "--overload" => o.overload = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--connect EP | --unix PATH] [--qps N] [--requests N] [--clients N]\n\
                     \x20              [--profiles a,b,c] [--seeds N] [--workers N]\n\
                     \x20              [--cache-entries N] [--deadline-ms N] [--out FILE]\n\
                     \x20              [--chaos] [--seed N] [--faults PERMILLE]\n\
                     \x20              [--crash-loop N] [--state-dir DIR]\n\
                     \x20              [--cluster N] [--kill-shard | --netchaos]\n\
                     \x20              [--min-qps N] [--expect-coalesced] [--overload]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    // Overload's heavier defaults: a Canon-style DAG-shape mix, fewer
    // workers (so the spike saturates compile capacity, not the client
    // machine), and enough clients that the 3× phase is genuinely
    // open-loop: with too few, their own blocking throttles the offered
    // load back down to capacity.
    if o.overload && !profiles_set {
        o.profiles = dagsched_workloads::canon_mix();
    }
    if o.overload && !workers_set {
        o.workers = 2;
    }
    if o.overload && !clients_set {
        o.clients = 256;
    }
    validate(&o)?;
    Ok(o)
}

/// Refuse flag combinations no scenario can honour.
fn validate(o: &Options) -> Result<(), String> {
    let audits = [
        o.chaos,
        o.crash_loop.is_some(),
        o.cluster.is_some(),
        o.overload,
    ];
    let audit = audits.contains(&true);
    let own_daemon = o.chaos || o.crash_loop.is_some() || o.overload;
    let one_shard = o.cluster.is_none_or(|n| n < 2);
    let rules = [
        (
            audits.iter().filter(|&&on| on).count() > 1,
            "--chaos, --crash-loop, --cluster and --overload are separate audits; run them \
             separately",
        ),
        (
            (o.chaos || o.crash_loop.is_some()) && !cfg!(feature = "chaos"),
            "--chaos and --crash-loop need the fault injectors; rebuild with \
             `cargo build -p dagsched-bench --features chaos`",
        ),
        (
            o.connect.is_some() && own_daemon,
            "--chaos, --crash-loop and --overload run their own daemon; they cannot target \
             a remote one (omit --connect)",
        ),
        (
            o.unix.is_some() && o.connect.is_some(),
            "--unix binds the in-process server; it conflicts with --connect",
        ),
        (
            o.serve_child && o.unix.is_none(),
            "--serve-child needs --unix",
        ),
        (
            o.cluster.is_some() && (o.connect.is_some() || o.unix.is_some()),
            "--cluster spawns its own shards and router; it conflicts with --connect / --unix",
        ),
        (
            o.cluster.is_some() && o.deadline_ms.is_some(),
            "--cluster verifies replies against undegraded serial compiles; it runs without \
             --deadline-ms",
        ),
        (
            o.kill_shard && one_shard,
            "--kill-shard needs --cluster with at least 2 shards",
        ),
        (
            o.netchaos && one_shard,
            "--netchaos needs --cluster with at least 2 shards",
        ),
        (
            o.netchaos && o.kill_shard,
            "--netchaos and --kill-shard are separate audits; a SIGKILLed shard would hide \
             which machinery absorbed the fault",
        ),
        (
            o.netchaos && o.fault_per_mille < 100,
            "--netchaos audits gray-failure tolerance at >=10% link faults; --faults must be \
             at least 100",
        ),
        (
            (o.min_qps.is_some() || o.expect_coalesced) && audit,
            "--min-qps / --expect-coalesced are soak gates; the chaos, crash-loop, cluster \
             and overload audits assert their own",
        ),
    ];
    match rules.iter().find(|(broken, _)| *broken) {
        Some((_, why)) => Err(why.to_string()),
        None => Ok(()),
    }
}

fn fatal(msg: impl Display) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1);
}

// ---------------------------------------------------------------------------
// The request stream and its ground truth
// ---------------------------------------------------------------------------

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

/// Ground truth for one `(profile, seed)` in the working set.
struct Reference {
    /// The generated program, one instruction per line: the validity
    /// oracle's input.
    original: String,
    /// The serial, uncached driver's schedule under the server's
    /// default configuration.
    scheduled: Vec<String>,
}

type References = HashMap<(String, u64), Reference>;

/// Serially compile every program the run will request, before any
/// daemon (or fault) is involved, so the audits compare against ground
/// truth produced outside the blast radius.
fn references(opts: &Options) -> Result<References, String> {
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
        let original = bench.program.insns.iter().map(ToString::to_string);
        let reference = Reference {
            original: original.collect::<Vec<_>>().join("\n"),
            scheduled: result.insns.iter().map(ToString::to_string).collect(),
        };
        refs.insert((profile, seed), reference);
    }
    Ok(refs)
}

// ---------------------------------------------------------------------------
// The reply check
// ---------------------------------------------------------------------------

/// How a scenario checks replies: against which references (`None`:
/// not at all), whether degradation is allowed, the oracle's seed, and
/// the label its failures carry.
struct Check<'a> {
    refs: Option<&'a References>,
    degraded_ok: bool,
    seed: u64,
    label: &'a str,
}

const UNCHECKED: Check<'static> = Check {
    refs: None,
    degraded_ok: true,
    seed: 0,
    label: "",
};

impl<'a> Check<'a> {
    fn against(refs: &'a References, degraded_ok: bool, seed: u64) -> Check<'a> {
        let refs = Some(refs);
        Check {
            refs,
            degraded_ok,
            seed,
            label: "",
        }
    }
}

// ---------------------------------------------------------------------------
// The tally
// ---------------------------------------------------------------------------

/// What one client (or a merge of clients) saw.
#[derive(Default)]
struct Tally {
    /// Latency of every request the service answered: a reply or a
    /// typed error.
    latencies_ns: Vec<u64>,
    replies: u64,
    /// Replies marked degraded.
    degraded: u64,
    hits: u64,
    misses: u64,
    /// Typed server errors by wire code.
    typed: BTreeMap<String, u64>,
    /// Requests that ended in a transport failure, or whose dial
    /// failed, with one line each.
    failed: u64,
    failures: Vec<String>,
    /// The failures that were a client's dial or redial.
    dial_failures: Vec<String>,
    retries: u64,
    redials: u64,
    server_hints_honoured: u64,
    /// Replies compared with the serial reference, and those that
    /// failed (mismatches, or degraded where forbidden).
    identical_checked: u64,
    not_identical: Vec<String>,
    /// Degraded replies run through the validity oracle, and those it
    /// rejected.
    oracle_checked: u64,
    invalid: Vec<String>,
    /// Overload's budgeted send: wire attempts, retries the budget
    /// denied, and one record per logical request.
    wire: u64,
    budget_denied: u64,
    records: Vec<overload::Record>,
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.latencies_ns.extend(o.latencies_ns);
        self.replies += o.replies;
        self.degraded += o.degraded;
        self.hits += o.hits;
        self.misses += o.misses;
        for (code, n) in o.typed {
            *self.typed.entry(code).or_insert(0) += n;
        }
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.dial_failures.extend(o.dial_failures);
        self.retries += o.retries;
        self.redials += o.redials;
        self.server_hints_honoured += o.server_hints_honoured;
        self.identical_checked += o.identical_checked;
        self.not_identical.extend(o.not_identical);
        self.oracle_checked += o.oracle_checked;
        self.invalid.extend(o.invalid);
        self.wire += o.wire;
        self.budget_denied += o.budget_denied;
        self.records.extend(o.records);
    }

    fn typed_total(&self) -> u64 {
        self.typed.values().sum()
    }

    /// Requests that reached an outcome: a reply, a typed error, or a
    /// transport failure.
    fn terminal(&self) -> u64 {
        self.replies + self.typed_total() + self.failed
    }

    fn hit_rate(&self) -> f64 {
        rate(self.hits, self.misses)
    }

    /// One line per error outcome: each transport failure, and each
    /// typed error code with its count.
    fn error_lines(&self) -> Vec<String> {
        let typed = self
            .typed
            .iter()
            .map(|(c, n)| format!("{n} typed `{c}` errors"));
        self.failures.iter().cloned().chain(typed).collect()
    }

    fn answered(&mut self, since: Instant) {
        self.latencies_ns.push(since.elapsed().as_nanos() as u64);
    }

    fn typed_error(&mut self, since: Instant, code: &str) {
        self.answered(since);
        *self.typed.entry(code.to_string()).or_insert(0) += 1;
    }

    fn fail(&mut self, line: String) {
        self.failed += 1;
        self.failures.push(line);
    }

    fn dial_failed(&mut self, line: String) {
        self.dial_failures.push(line.clone());
        self.fail(line);
    }

    fn reply(&mut self, since: Instant, resp: &ScheduleResponse) {
        self.answered(since);
        self.replies += 1;
        self.degraded += u64::from(resp.degraded);
        self.hits += resp.stats.cache_hits;
        self.misses += resp.stats.cache_misses;
    }

    /// The one reply check. An undegraded reply must be the serial
    /// reference, bit for bit. A degraded reply must pass the validity
    /// oracle where the scenario allows degradation, and is a violation
    /// where it does not.
    fn check(&mut self, k: usize, key: &(String, u64), resp: &ScheduleResponse, check: &Check) {
        let Some(refs) = check.refs else { return };
        let reference = refs.get(key).expect("every requested key has a reference");
        let at = format!("{}request {k} ({}/{})", check.label, key.0, key.1);
        if !resp.degraded || !check.degraded_ok {
            self.identical_checked += 1;
            if resp.degraded {
                self.not_identical
                    .push(format!("{at}: degraded reply with no deadline set"));
            } else if resp.insns != reference.scheduled {
                self.not_identical
                    .push(format!("{at}: reply differs from the serial compile"));
            }
            return;
        }
        self.oracle_checked += 1;
        let scheduled = resp.insns.join("\n");
        if let Err(e) = check_reordering_text(&reference.original, &scheduled, 3, check.seed) {
            self.invalid
                .push(format!("{at}: degraded reply fails validity: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
}

impl Bound {
    fn holds(self, v: f64) -> bool {
        match self {
            Bound::AtLeast(b) => v >= b,
            Bound::AtMost(b) => v <= b,
            Bound::Below(b) => v < b,
        }
    }
}

impl Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Bound::AtLeast(b) => write!(f, ">= {b:.3}"),
            Bound::AtMost(b) => write!(f, "<= {b:.3}"),
            Bound::Below(b) => write!(f, "< {b:.3}"),
        }
    }
}

#[derive(Debug)]
struct Gate {
    name: &'static str,
    /// Whether the gate only shows that a mechanism engaged, rather
    /// than measuring an outcome a client or operator sees.
    firing: bool,
    threshold: String,
    /// Cases the gate checked (1 for a single measured figure, 0 for a
    /// gate an earlier failure kept from running).
    checked: u64,
    failures: Vec<String>,
}

impl Gate {
    /// An outcome gate over counted cases: it passes when none failed.
    fn outcome(name: &'static str, threshold: &str, checked: u64, failures: Vec<String>) -> Gate {
        Gate {
            name,
            firing: false,
            threshold: threshold.to_string(),
            checked,
            failures,
        }
    }

    /// A firing gate over counted cases.
    fn firing(name: &'static str, threshold: &str, checked: u64, failures: Vec<String>) -> Gate {
        let gate = Gate::outcome(name, threshold, checked, failures);
        Gate {
            firing: true,
            ..gate
        }
    }

    /// An outcome gate over one measured figure; a figure never
    /// measured fails.
    fn bound(name: &'static str, observed: Option<f64>, bound: Bound) -> Gate {
        let failures = match observed {
            Some(v) if bound.holds(v) => vec![],
            Some(v) => vec![format!("{name} = {v:.3}, needs {bound}")],
            None => vec![format!("{name} was never measured, needs {bound}")],
        };
        Gate::outcome(name, &bound.to_string(), 1, failures)
    }

    /// The gate as it reads when an earlier failure kept it from
    /// running: nothing checked, nothing failed.
    fn skip(self) -> Gate {
        Gate {
            checked: 0,
            failures: Vec::new(),
            ..self
        }
    }

    fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn to_json(&self) -> Json {
        let kind = if self.firing { "firing" } else { "outcome" };
        let failures = self
            .failures
            .iter()
            .take(10)
            .map(|f| Json::from(f.as_str()));
        Json::obj(vec![
            ("name", Json::from(self.name)),
            ("kind", Json::from(kind)),
            ("threshold", Json::from(self.threshold.as_str())),
            ("checked", Json::from(self.checked)),
            ("passed", Json::from(self.passed())),
            ("failures", Json::Arr(failures.collect())),
        ])
    }
}

fn identical_gate(tallies: &[&Tally]) -> Gate {
    Gate::outcome(
        "bit_identical",
        "0 replies differ from the serial compile",
        tallies.iter().map(|t| t.identical_checked).sum(),
        tallies
            .iter()
            .flat_map(|t| t.not_identical.clone())
            .collect(),
    )
}

/// The failure list of a one-case gate: empty when `ok`.
fn unless(ok: bool, failure: impl FnOnce() -> String) -> Vec<String> {
    if ok {
        vec![]
    } else {
        vec![failure()]
    }
}

fn terminal_gate(t: &Tally, requests: usize) -> Gate {
    let terminal = t.terminal();
    let failures = unless(terminal == requests as u64, || {
        format!("{terminal} terminal outcomes for {requests} requests")
    });
    let threshold = "every request ends in a reply, a typed error or a failure";
    Gate::outcome("all_terminal", threshold, requests as u64, failures)
}

fn alive_gate(name: &'static str, alive: bool) -> Gate {
    let failures = unless(alive, || {
        format!("{name}: no answer to a ping after the run")
    });
    Gate::outcome(name, "answers a ping after the run", 1, failures)
}

/// A hit rate after a kill must hold at least half the rate before it.
fn warm_gate(name: &'static str, before: f64, after: f64) -> Gate {
    Gate::bound(name, Some(after), Bound::AtLeast(0.5 * before))
}

/// No client may lose a request to a failed dial or redial.
fn dial_gate(t: &Tally) -> Gate {
    let failures = t.dial_failures.clone();
    Gate::outcome("no_dial_failures", "0 failed dials", t.terminal(), failures)
}

/// A counter that must show its mechanism fired at least once.
fn fired(name: &'static str, count: Option<u64>) -> Gate {
    let gate = Gate::bound(name, count.map(|c| c as f64), Bound::AtLeast(1.0));
    Gate {
        firing: true,
        ..gate
    }
}

// ---------------------------------------------------------------------------
// The client loops
// ---------------------------------------------------------------------------

/// One client connection, dialed under `dial` on first use and again
/// after a transport failure dropped it. Requests go out under
/// `policy`.
struct Link<'a> {
    endpoint: &'a str,
    dial: RetryPolicy,
    policy: RetryPolicy,
    client: Option<Client>,
    dials: u64,
}

impl<'a> Link<'a> {
    fn new(endpoint: &'a str, dial: RetryPolicy, policy: RetryPolicy) -> Link<'a> {
        Link {
            endpoint,
            dial,
            policy,
            client: None,
            dials: 0,
        }
    }

    fn client(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with_retry(self.endpoint, &self.dial)?.0);
            self.dials += 1;
        }
        Ok(self.client.as_mut().expect("dialed above"))
    }
}

/// The send step of every scenario but overload: request `k` of the
/// mix under the link's retry policy, tallied and checked. A transport
/// failure drops the connection. Returns `false` when the link could
/// not be dialed; the request is then failed.
fn send_retrying(
    link: &mut Link,
    opts: &Options,
    k: usize,
    check: &Check,
    tally: &mut Tally,
) -> bool {
    let (key, policy) = (mix_key(opts, k), link.policy.clone());
    let client = match link.client() {
        Ok(client) => client,
        Err(e) => {
            tally.dial_failed(format!("{}request {k}: dial: {e}", check.label));
            return false;
        }
    };
    let t = Instant::now();
    match client.request_with_retry(&request_for(opts, k), &policy) {
        Ok((resp, stats)) => {
            tally.reply(t, &resp);
            tally.retries += u64::from(stats.retries);
            tally.redials += u64::from(stats.redials);
            tally.server_hints_honoured += u64::from(stats.server_hints_honoured);
            tally.check(k, &key, &resp, check);
        }
        Err(ClientError::Server(e)) => tally.typed_error(t, e.code.as_str()),
        Err(e) => {
            tally.fail(format!(
                "{}request {k} ({}/{}): {e}",
                check.label, key.0, key.1
            ));
            link.client = None;
        }
    }
    true
}

/// An action fired once a progress counter reaches `at`: the SIGKILL
/// of a daemon or shard, or the cut of a link, landing while requests
/// are on the wire.
struct Trigger<'a> {
    at: usize,
    fire: Box<dyn FnOnce() + Send + 'a>,
}

impl<'a> Trigger<'a> {
    fn new(at: usize, fire: impl FnOnce() + Send + 'a) -> Trigger<'a> {
        Trigger {
            at,
            fire: Box::new(fire),
        }
    }

    /// Poll `progress` every millisecond; give up if the load is
    /// `done` first.
    fn watch(self, progress: &AtomicUsize, done: &AtomicBool) {
        while progress.load(Ordering::Relaxed) < self.at {
            if done.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (self.fire)();
    }
}

/// The one paced client loop. `clients` threads share the slot
/// counter: client `idx` opens `link(idx)`, takes the next slot `k`,
/// sleeps until `start + due[k]` and hands the slot to `send`. Request
/// `k`'s due time is fixed, so the offered rate holds however the
/// clients interleave. A client stops when `send` returns `false` (its
/// dial failed, and that request is failed); the others take its
/// remaining slots. `trigger` fires once its count of slots has been
/// taken.
fn paced<'e, L, S>(
    clients: usize,
    link: L,
    due: &[Duration],
    start: Instant,
    trigger: Option<Trigger>,
    send: S,
) -> Tally
where
    L: Fn(usize) -> Link<'e> + Sync,
    S: Fn(&mut Link<'e>, usize, &mut Tally) -> bool + Sync,
{
    let (next, done) = (AtomicUsize::new(0), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let (next, done, link, send) = (&next, &done, &link, &send);
        if let Some(t) = trigger {
            scope.spawn(move || t.watch(next, done));
        }
        let workers: Vec<_> = (0..clients)
            .map(|idx| {
                scope.spawn(move || {
                    let mut link = link(idx);
                    let mut tally = Tally::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = due.get(k) else { break };
                        let now = Instant::now();
                        if start + offset > now {
                            std::thread::sleep(start + offset - now);
                        }
                        if !send(&mut link, k, &mut tally) {
                            break;
                        }
                    }
                    tally.redials += link.dials.saturating_sub(1);
                    tally
                })
            })
            .collect();
        let mut total = Tally::default();
        for w in workers {
            total.merge(w.join().expect("client thread panicked"));
        }
        done.store(true, Ordering::Relaxed);
        total
    })
}

/// The paced load of the soak, chaos and cluster scenarios:
/// `--requests` requests of the mix at `--qps` over `--clients`
/// clients, each sent by [`send_retrying`] and checked.
fn paced_mix<'e, L>(
    opts: &Options,
    link: L,
    check: &Check,
    trigger: Option<Trigger>,
) -> (Tally, Duration)
where
    L: Fn(usize) -> Link<'e> + Sync,
{
    let due: Vec<_> = (0..opts.requests)
        .map(|k| Duration::from_secs_f64(k as f64 / opts.qps))
        .collect();
    let start = Instant::now();
    let send = |l: &mut Link, k, t: &mut Tally| send_retrying(l, opts, k, check, t);
    let tally = paced(opts.clients, link, &due, start, trigger, send);
    (tally, start.elapsed())
}

/// The one sequential pass: requests `0..n` of the mix in order on
/// `link`, each checked. `Err` when the first dial fails; a later
/// failed dial fails its request only. `kill` fires once its count of
/// requests has completed.
fn sequential(
    mut link: Link,
    opts: &Options,
    n: usize,
    check: &Check,
    kill: Option<Trigger>,
) -> Result<Tally, String> {
    link.client()
        .map_err(|e| format!("{}dial: {e}", check.label))?;
    let (progress, done) = (AtomicUsize::new(0), AtomicBool::new(false));
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let (progress, done) = (&progress, &done);
        if let Some(t) = kill {
            scope.spawn(move || t.watch(progress, done));
        }
        for k in 0..n {
            send_retrying(&mut link, opts, k, check, &mut tally);
            progress.store(k + 1, Ordering::Relaxed);
        }
        done.store(true, Ordering::Relaxed);
    });
    tally.redials += link.dials - 1;
    Ok(tally)
}

// ---------------------------------------------------------------------------
// Daemons
// ---------------------------------------------------------------------------

fn server_config(opts: &Options) -> ServerConfig {
    ServerConfig {
        workers: opts.workers,
        cache: CacheConfig {
            max_entries: opts.cache_entries,
            ..CacheConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Where the in-process server listens: an ephemeral TCP port, or the
/// `--unix` socket path.
fn listen_for(opts: &Options) -> Listen {
    match &opts.unix {
        Some(path) => Listen::Unix(PathBuf::from(path)),
        None => Listen::Tcp("127.0.0.1:0".to_string()),
    }
}

/// The hidden `--serve-child` mode: a real daemon process the harness
/// can SIGKILL, persisting to `--state-dir` when one is given.
fn serve_child_main(opts: &Options) -> ! {
    let sock = opts.unix.as_ref().expect("checked in validate");
    let config = ServerConfig {
        state_dir: opts.state_dir.as_ref().map(PathBuf::from),
        // Snapshot early and often: crash-loop runs are small, and a
        // low threshold exercises compaction + snapshot recovery too.
        wal_snapshot_threshold: 256 << 10,
        fsync_every: 4,
        ..server_config(opts)
    };
    let handle = serve(Listen::Unix(PathBuf::from(sock)), config)
        .unwrap_or_else(|e| fatal(format!("[child] serve: {e}")));
    handle.join(); // until SIGKILL, or a client-driven drain
    std::process::exit(0);
}

/// The one child-daemon spawner: this binary re-executed in
/// `--serve-child` mode on `sock`. A crash-loop daemon persists to
/// `state`; a cluster shard has none, so a killed shard's cache is
/// gone and surviving that is the router's job, not the store's.
fn spawn_child(sock: &Path, state: Option<&Path>, opts: &Options) -> io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--serve-child").arg("--unix").arg(sock);
    cmd.args(["--workers", &opts.workers.to_string()]);
    cmd.args(["--cache-entries", &opts.cache_entries.to_string()]);
    if let Some(dir) = state {
        cmd.arg("--state-dir").arg(dir);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn()
}

/// Wait under [`DIAL`] until a daemon just spawned answers a dial.
fn await_up(endpoint: &str) -> Result<(), ClientError> {
    Client::connect_with_retry(endpoint, &DIAL).map(drop)
}

fn answers_ping(endpoint: &str) -> bool {
    Client::connect(endpoint).and_then(|mut c| c.ping()).is_ok()
}

fn server_metrics(endpoint: &str) -> Option<Json> {
    Client::connect(endpoint)
        .ok()
        .and_then(|mut c| c.metrics().ok())
}

fn counter(metrics: Option<&Json>, key: &str) -> Option<u64> {
    metrics.and_then(|m| m.get(key)).and_then(Json::as_u64)
}

/// Corrupt the crash-loop's state directory between lives with the
/// seeded storage-fault injector: the cycle and the fault, file and
/// detail it chose, or `None` when it found nothing to corrupt.
#[cfg(feature = "chaos")]
fn inject_storage_fault(state: &Path, seed: u64, cycle: u32) -> io::Result<Option<Json>> {
    let fault = dagsched_store::faultinject::inject(state, seed, u64::from(cycle))?;
    Ok(fault.map(|f| {
        Json::obj(vec![
            ("cycle", Json::from(u64::from(cycle))),
            ("fault", Json::from(f.fault.to_string().as_str())),
            ("file", Json::from(f.file.as_str())),
            ("detail", Json::from(f.detail)),
        ])
    }))
}

#[cfg(not(feature = "chaos"))]
fn inject_storage_fault(_: &Path, _: u64, _: u32) -> io::Result<Option<Json>> {
    unreachable!("validate refuses --crash-loop without the chaos feature")
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

/// What every artifact records ahead of its tally.
struct Run {
    mode: &'static str,
    /// The seed the scenario draws from: the fault seed where it
    /// injects faults, `PAPER_SEED` (the request mix's) otherwise.
    seed: u64,
    requests: usize,
    clients: usize,
}

impl Run {
    /// A run of `--requests` requests over `--clients` clients.
    fn new(mode: &'static str, seed: u64, opts: &Options) -> Run {
        Run {
            mode,
            seed,
            requests: opts.requests,
            clients: opts.clients,
        }
    }
}

/// The one artifact writer: the run's header and tally, the scenario's
/// own fields, `violations` (failed cases over all gates) and `gates`,
/// written to `--out` (default `service-<mode>.json`, the soak's
/// `service-load.json`). Exits 0 when every gate passed, 1 otherwise.
fn finish(
    opts: &Options,
    run: Run,
    t: &Tally,
    elapsed: Duration,
    extra: Vec<(&str, Json)>,
    gates: Vec<Gate>,
) -> ! {
    let mut lat = t.latencies_ns.clone();
    lat.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean = lat.iter().sum::<u64>().checked_div(lat.len() as u64);
    let secs = elapsed.as_secs_f64();
    let pct = |p| Json::from(ms(percentile(&lat, p)));
    let by_code = t.typed.iter().map(|(c, n)| (c.clone(), Json::from(*n)));
    let mut fields = vec![
        ("mode", Json::from(run.mode)),
        ("seed", Json::from(run.seed)),
        ("requests", Json::from(run.requests)),
        ("clients", Json::from(run.clients)),
        ("elapsed_ms", Json::from(secs * 1e3)),
        ("completed", Json::from(t.replies)),
        (
            "achieved_qps",
            Json::from(t.replies as f64 / secs.max(1e-9)),
        ),
        ("typed_errors", Json::from(t.typed_total())),
        ("typed_errors_by_code", Json::Obj(by_code.collect())),
        ("transport_failures", Json::from(t.failed)),
        ("retries", Json::from(t.retries)),
        ("redials", Json::from(t.redials)),
        ("latency_ms_p50", pct(50.0)),
        ("latency_ms_p95", pct(95.0)),
        ("latency_ms_p99", pct(99.0)),
        ("latency_ms_mean", Json::from(ms(mean.unwrap_or(0)))),
        (
            "latency_ms_max",
            Json::from(ms(lat.last().copied().unwrap_or(0))),
        ),
        ("cache_hits", Json::from(t.hits)),
        ("cache_misses", Json::from(t.misses)),
        ("cache_hit_rate", Json::from(t.hit_rate())),
    ];
    fields.extend(extra);
    let violations: usize = gates.iter().map(|g| g.failures.len()).sum();
    fields.push(("violations", Json::from(violations)));
    fields.push((
        "gates",
        Json::Arr(gates.iter().map(Gate::to_json).collect()),
    ));
    let out = opts.out.clone().unwrap_or_else(|| match run.mode {
        "soak" => "service-load.json".to_string(),
        mode => format!("service-{mode}.json"),
    });
    std::fs::write(&out, format!("{}\n", Json::obj(fields)))
        .unwrap_or_else(|e| fatal(format!("writing {out}: {e}")));
    eprintln!(
        "loadgen: {}: {} of {} completed, {} typed errors, {} transport failures; \
         p50 {:.2} ms, p99 {:.2} ms -> {out}",
        run.mode,
        t.replies,
        run.requests,
        t.typed_total(),
        t.failed,
        ms(percentile(&lat, 50.0)),
        ms(percentile(&lat, 99.0)),
    );
    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.passed()).collect();
    for g in &failed {
        eprintln!(
            "loadgen: GATE FAILED: {} ({}, {} checked)",
            g.name, g.threshold, g.checked
        );
        for f in g.failures.iter().take(10) {
            eprintln!("loadgen:   {f}");
        }
    }
    let passed = gates.len() - failed.len();
    eprintln!(
        "loadgen: {}: {passed} of {} gates passed",
        run.mode,
        gates.len()
    );
    std::process::exit(i32::from(!failed.is_empty()));
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

fn soak(opts: Options) -> ! {
    // Dial a remote daemon, or stand one up in-process.
    let (endpoint, handle) = match &opts.connect {
        Some(ep) => (ep.clone(), None),
        None => {
            let handle = serve(listen_for(&opts), server_config(&opts))
                .unwrap_or_else(|e| fatal(format!("in-process server: {e}")));
            (handle.endpoint(), Some(handle))
        }
    };
    eprintln!(
        "loadgen: {} requests at {} qps over {} clients -> {endpoint} ({} profiles x {} seeds)",
        opts.requests,
        opts.qps,
        opts.clients,
        opts.profiles.len(),
        opts.seeds
    );
    let link = |_| Link::new(&endpoint, ONE_SHOT, ONE_SHOT);
    let (tally, elapsed) = paced_mix(&opts, link, &UNCHECKED, None);
    let server = server_metrics(&endpoint);
    if let Some(handle) = handle {
        handle.begin_drain();
        handle.join();
    }

    let achieved = tally.replies as f64 / elapsed.as_secs_f64().max(1e-9);
    let (issued, errors) = (tally.terminal(), tally.error_lines());
    let mut gates = vec![
        Gate::outcome("no_errors", "errors == 0", issued, errors),
        terminal_gate(&tally, opts.requests),
    ];
    if let Some(floor) = opts.min_qps {
        gates.push(Gate::bound(
            "min_qps",
            Some(achieved),
            Bound::AtLeast(floor),
        ));
    }
    if opts.expect_coalesced {
        gates.push(fired(
            "coalesced",
            counter(server.as_ref(), "coalesced_requests"),
        ));
    }
    let profiles = opts.profiles.iter().map(|p| Json::from(p.as_str()));
    let mut extra = vec![
        ("endpoint", Json::from(endpoint.as_str())),
        ("profiles", Json::Arr(profiles.collect())),
        ("seeds", Json::from(opts.seeds)),
        ("target_qps", Json::from(opts.qps)),
        ("errors", Json::from(tally.typed_total() + tally.failed)),
    ];
    extra.extend(server.map(|m| ("server", m)));
    let run = Run::new("soak", PAPER_SEED, &opts);
    finish(&opts, run, &tally, elapsed, extra, gates)
}

fn chaos(opts: Options) -> ! {
    // Injected panics are caught by the worker supervision boundary,
    // but the default hook would still print a backtrace per injection
    // and drown the report. Silence exactly those.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let seed = opts.chaos_seed;
    eprintln!(
        "loadgen: chaos audit: seed {seed}, {} requests at {} qps over {} clients, \
         deadline {:?} ms",
        opts.requests, opts.qps, opts.clients, opts.deadline_ms
    );
    let refs = references(&opts).unwrap_or_else(|e| fatal(format!("serial references: {e}")));
    // Panics and slow replies at the base rate, each frame fault at
    // 40% of it.
    let (base, frame) = (opts.fault_per_mille, opts.fault_per_mille * 2 / 5);
    let config = ServerConfig {
        #[cfg(feature = "chaos")]
        faults: Some(dagsched_service::FaultConfig {
            seed,
            panic_per_mille: base,
            slow_per_mille: base,
            slow_ms: SLOW_MS,
            truncate_per_mille: frame,
            corrupt_per_mille: frame,
            reset_per_mille: frame,
        }),
        ..server_config(&opts)
    };
    let handle = serve(listen_for(&opts), config)
        .unwrap_or_else(|e| fatal(format!("in-process server: {e}")));
    let endpoint = handle.endpoint();
    let check = Check::against(&refs, true, seed);
    let link = |idx: usize| {
        let policy = RetryPolicy {
            max_retries: CHAOS_RETRIES,
            per_attempt_timeout: Some(Duration::from_secs(5)),
            jitter_seed: seed ^ (idx as u64).wrapping_mul(0x9E37_79B9),
            ..RetryPolicy::default()
        };
        Link::new(&endpoint, ONE_SHOT, policy)
    };
    let (tally, elapsed) = paced_mix(&opts, link, &check, None);
    let alive = answers_ping(&endpoint);
    let server = server_metrics(&endpoint);
    handle.begin_drain();
    handle.join();

    let oracle = "0 degraded replies fail the validity oracle";
    let gates = vec![
        alive_gate("daemon_alive", alive),
        terminal_gate(&tally, opts.requests),
        dial_gate(&tally),
        identical_gate(&[&tally]),
        Gate::outcome(
            "degraded_valid",
            oracle,
            tally.oracle_checked,
            tally.invalid.clone(),
        ),
    ];
    let per_mille = |n: u16| Json::from(u64::from(n));
    let mut extra = vec![
        (
            "fault_per_mille",
            Json::obj(vec![
                ("panic", per_mille(base)),
                ("slow", per_mille(base)),
                ("truncate", per_mille(frame)),
                ("corrupt", per_mille(frame)),
                ("reset", per_mille(frame)),
            ]),
        ),
        ("slow_ms", Json::from(SLOW_MS)),
        (
            "deadline_ms",
            opts.deadline_ms.map_or(Json::Null, Json::from),
        ),
        ("retries_budget", Json::from(u64::from(CHAOS_RETRIES))),
        ("ok_exact", Json::from(tally.replies - tally.degraded)),
        ("ok_degraded", Json::from(tally.degraded)),
        (
            "degraded_fraction",
            Json::from(rate(tally.degraded, tally.replies - tally.degraded)),
        ),
        (
            "server_hints_honoured",
            Json::from(tally.server_hints_honoured),
        ),
        ("daemon_alive_after_run", Json::from(alive)),
    ];
    extra.extend(server.map(|m| ("server", m)));
    let run = Run::new("chaos", seed, &opts);
    finish(&opts, run, &tally, elapsed, extra, gates)
}

fn crash_loop(opts: Options) -> ! {
    let kills_wanted = opts.crash_loop.expect("dispatched on --crash-loop");
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
    let endpoint = format!("unix:{}", sock.display());
    let working = opts.profiles.len() * opts.seeds as usize;
    eprintln!(
        "loadgen: crash-loop audit: {kills_wanted} SIGKILLs, seed {}, working set {working} \
         programs, state {}",
        opts.chaos_seed,
        state.display()
    );
    let refs = references(&opts).unwrap_or_else(|e| fatal(format!("serial references: {e}")));
    let check = Check::against(&refs, false, opts.chaos_seed);
    // Kill at ~3/4 of a pass: genuinely mid-load (the WAL is cut at an
    // arbitrary byte), while re-touching enough of the working set that
    // entries lost to the previous cycle's injected corruption get
    // recompiled and re-persisted.
    let kill_at = (working * 3 / 4).max(1);
    let spawn = || {
        Mutex::new(
            spawn_child(&sock, Some(&state), &opts)
                .unwrap_or_else(|e| fatal(format!("spawning the daemon: {e}"))),
        )
    };
    let session = |child: &Mutex<Child>, kill: bool| {
        await_up(&endpoint).map_err(|e| format!("daemon did not come up: {e}"))?;
        let kill = kill.then(|| {
            Trigger::new(kill_at, move || {
                let _ = child.lock().expect("child lock").kill();
            })
        });
        let link = Link::new(&endpoint, ONE_SHOT, ONE_SHOT);
        sequential(link, &opts, working, &check, kill)
    };
    let reap = |child: Mutex<Child>, kill: bool| {
        let mut child = child.into_inner().expect("child lock");
        if kill {
            let _ = child.kill();
        }
        let _ = child.wait();
    };

    let start = Instant::now();
    // Passes without a kill, where any error is a violation, and
    // passes with one.
    let (mut calm, mut killed) = (Tally::default(), Tally::default());
    let (mut lives, mut down) = (0u64, Vec::new());
    let (mut injections, mut injection_errors, mut injected) = (0u64, Vec::new(), Vec::new());
    let mut cycles = Vec::new();
    let (mut pre, mut kills) = (0.0, 0u32);
    'cycles: for cycle in 0..kills_wanted {
        let child = spawn();
        lives += 1;
        if cycle == 0 {
            // Fill the cache cold, then measure the warm (pre-crash)
            // hit rate recovery must defend.
            for pass in ["fill", "warm"] {
                match session(&child, false) {
                    Ok(t) => {
                        pre = t.hit_rate();
                        calm.merge(t);
                    }
                    Err(e) => {
                        down.push(format!("cycle 0 {pass} pass: {e}"));
                        reap(child, true);
                        break 'cycles;
                    }
                }
            }
        }
        let t = match session(&child, true) {
            Ok(t) => t,
            Err(e) => {
                down.push(format!("cycle {cycle}: daemon did not recover: {e}"));
                reap(child, true);
                break;
            }
        };
        kills += 1;
        reap(child, false);
        let failed = t.typed_total() + t.failed;
        eprintln!(
            "loadgen: cycle {cycle}: {} ok, {failed} failed after SIGKILL, hit rate {:.1}%",
            t.replies,
            100.0 * t.hit_rate()
        );
        cycles.push(Json::obj(vec![
            ("cycle", Json::from(u64::from(cycle))),
            ("ok", Json::from(t.replies)),
            ("failed_after_kill", Json::from(failed)),
            ("hit_rate", Json::from(t.hit_rate())),
        ]));
        killed.merge(t);
        // Corrupt the survivor between cycles, but never after the last
        // kill: the final life grades recovery of the crashed state
        // itself.
        if cycle + 1 < kills_wanted {
            injections += 1;
            match inject_storage_fault(&state, opts.chaos_seed, cycle) {
                Ok(Some(f)) => {
                    eprintln!("loadgen: injected {f}");
                    injected.push(f);
                }
                Ok(None) => {}
                Err(e) => injection_errors.push(format!("cycle {cycle}: storage injection: {e}")),
            }
        }
    }

    // The final life over the kill -9 survivor: the cache must come
    // back warm and the replies bit-identical, the server must report
    // what it recovered, and a graceful drain must leave a clean store.
    let earlier_ok = down.is_empty()
        && calm.error_lines().is_empty()
        && injection_errors.is_empty()
        && calm.not_identical.is_empty()
        && killed.not_identical.is_empty();
    let mut post = None;
    let (mut recovered, mut truncated, mut server) = (None, 0, None);
    let (mut shutdown, mut fsck) = (Vec::new(), Vec::new());
    if earlier_ok {
        let child = spawn();
        lives += 1;
        match session(&child, false) {
            Ok(t) => {
                post = Some(t.hit_rate());
                calm.merge(t);
            }
            Err(e) => down.push(format!("final restart: {e}")),
        }
        match Client::connect_with_retry(&endpoint, &DIAL) {
            Ok((mut client, _)) => {
                if let Ok(m) = client.metrics() {
                    recovered = Some(counter(Some(&m), "recovered_entries").unwrap_or(0));
                    truncated = counter(Some(&m), "recovery_truncated_records").unwrap_or(0);
                    server = Some(m);
                }
                // The server snapshots on the way out, so the
                // surviving store should check completely clean.
                if let Err(e) = client.shutdown_server() {
                    shutdown.push(format!("graceful shutdown: {e}"));
                }
            }
            Err(e) => shutdown.push(format!("final metrics connection: {e}")),
        }
        reap(child, false);
        let fingerprint = dagsched_service::store_fingerprint();
        match dagsched_store::fsck::check(&state, Some(fingerprint)) {
            Ok(report) => fsck = report.issues.clone(),
            Err(e) => fsck.push(format!("fsck: {e}")),
        }
    }

    let fsck_issues = fsck.iter().map(|i| Json::from(i.as_str())).collect();
    // A gate on the final life that an earlier failure kept from
    // running checks nothing: only the gate that broke fails the run.
    let measured = |reached: bool, gate: Gate| if reached { gate } else { gate.skip() };
    let warm = warm_gate("warm_recovery", pre, post.unwrap_or(0.0));
    let gates = vec![
        Gate::outcome("daemon_restarts", "every life comes up", lives, down),
        identical_gate(&[&calm, &killed]),
        Gate::outcome(
            "errors_only_after_kill",
            "0 errors in passes without a kill",
            calm.terminal(),
            calm.error_lines(),
        ),
        Gate::firing(
            "storage_injection",
            "the injector runs between lives",
            injections,
            injection_errors,
        ),
        measured(earlier_ok, fired("recovered_entries", recovered)),
        measured(post.is_some(), warm),
        measured(
            earlier_ok,
            Gate::outcome("graceful_shutdown", "the final life drains", 1, shutdown),
        ),
        measured(
            earlier_ok,
            Gate::outcome("fsck_clean", "0 fsck issues", 1, fsck),
        ),
    ];
    let mut extra = vec![
        ("kills_requested", Json::from(u64::from(kills_wanted))),
        ("kills_delivered", Json::from(u64::from(kills))),
        ("working_set", Json::from(working)),
        (
            "state_dir",
            Json::from(state.display().to_string().as_str()),
        ),
        ("pre_crash_hit_rate", Json::from(pre)),
        ("post_restart_hit_rate", Json::from(post.unwrap_or(0.0))),
        ("recovered_entries", Json::from(recovered.unwrap_or(0))),
        ("recovery_truncated_records", Json::from(truncated)),
        ("injected_faults", Json::Arr(injected)),
        ("cycles", Json::Arr(cycles)),
        ("fsck_issues", Json::Arr(fsck_issues)),
    ];
    extra.extend(server.map(|m| ("server", m)));
    let mut all = calm;
    all.merge(killed);
    let run = Run {
        requests: all.terminal() as usize,
        clients: 1,
        ..Run::new("crash-loop", opts.chaos_seed, &opts)
    };
    finish(&opts, run, &all, start.elapsed(), extra, gates)
}

/// Retry policy for requests through the cluster's router. Generous on
/// purpose: a kill must not surface to the client, so the budget must
/// ride out a shard death plus the router's down-marking window.
fn cluster_policy(netchaos: bool, client_idx: usize) -> RetryPolicy {
    // Netchaos rungs can each burn a couple of seconds against a
    // blackholed link before the router's ladder moves on, so the
    // client's patience per attempt is doubled there.
    let (per_attempt, overall) = if netchaos { (20, 60) } else { (10, 30) };
    RetryPolicy {
        max_retries: CLUSTER_RETRIES,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(250),
        per_attempt_timeout: Some(Duration::from_secs(per_attempt)),
        overall_timeout: Some(Duration::from_secs(overall)),
        jitter_seed: 0x0C1A_57E2 ^ (client_idx as u64).wrapping_mul(0x9E37_79B9),
    }
}

/// Router counters the netchaos audit needs to see fire at least once.
const ROUTER_FIRING: [&str; 4] = [
    "failovers",
    "shards_marked_down",
    "hedged_requests",
    "hedge_wins",
];

/// `cond` within 20 s, polled every 25 ms.
fn wait_for(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    true
}

/// The breaker state the router reports for shard `ep`.
fn breaker_of(metrics: &Json, ep: &str) -> String {
    let shards = metrics
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let shard = shards
        .iter()
        .find(|s| s.get("endpoint").and_then(Json::as_str) == Some(ep));
    let breaker = shard.and_then(|s| s.get("breaker")).and_then(Json::as_str);
    breaker.unwrap_or_default().to_string()
}

fn cluster(opts: Options) -> ! {
    let shards = opts.cluster.expect("dispatched on --cluster");
    let (mode, seed) = if opts.netchaos {
        ("netchaos", opts.chaos_seed)
    } else {
        ("cluster", PAPER_SEED)
    };
    let root = std::env::temp_dir().join(format!("dagsched-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&root)
        .unwrap_or_else(|e| fatal(format!("creating {}: {e}", root.display())));
    let working = opts.profiles.len() * opts.seeds as usize;
    eprintln!(
        "loadgen: {mode} audit: {shards} shards, {} requests at {} qps over {} clients, \
         working set {working} programs, kill-shard {}",
        opts.requests, opts.qps, opts.clients, opts.kill_shard
    );
    let refs = references(&opts).unwrap_or_else(|e| fatal(format!("serial references: {e}")));

    // Spawn the shard children and wait until each one answers a dial.
    let mut children = Vec::new();
    let mut shard_eps = Vec::new();
    for i in 0..shards {
        let sock = root.join(format!("shard-{i}.sock"));
        let child = spawn_child(&sock, None, &opts)
            .unwrap_or_else(|e| fatal(format!("spawning shard {i}: {e}")));
        children.push(Mutex::new(child));
        shard_eps.push(format!("unix:{}", sock.display()));
    }
    for (i, ep) in shard_eps.iter().enumerate() {
        await_up(ep).unwrap_or_else(|e| fatal(format!("shard {i} did not come up: {e}")));
    }

    // Netchaos: a seeded fault-injecting proxy on every router→shard
    // link. The router only sees the proxies; the real shard sockets
    // stay clean for teardown.
    let mut proxies: Vec<ProxyHandle> = Vec::new();
    let router_shards: Vec<String> = if opts.netchaos {
        eprintln!(
            "loadgen: netchaos: seed {}, {}‰ of link connections faulted",
            opts.chaos_seed, opts.fault_per_mille
        );
        for (i, ep) in shard_eps.iter().enumerate() {
            let listen = format!("unix:{}", root.join(format!("link-{i}.sock")).display());
            let seed = opts.chaos_seed.wrapping_add(i as u64);
            let proxy = serve_proxy(
                &listen,
                ep,
                ChaosConfig::standard(seed, opts.fault_per_mille),
            )
            .unwrap_or_else(|e| fatal(format!("netchaos proxy {i}: {e}")));
            proxies.push(proxy);
        }
        proxies.iter().map(|p| p.endpoint().to_string()).collect()
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

    let check = Check::against(&refs, false, opts.chaos_seed);
    let pass_policy = cluster_policy(opts.netchaos, 97);
    let pass = |label: &str| {
        let check = Check { label, ..check };
        let link = Link::new(&endpoint, pass_policy.clone(), pass_policy.clone());
        sequential(link, &opts, working, &check, None).unwrap_or_else(|e| fatal(e))
    };
    // Fill the shard caches cold, then measure the steady-state hit
    // rate the post-kill measurement must defend.
    let mut passes = pass("fill pass, ");
    let warm = pass("warm pass, ");
    let pre = warm.hit_rate();
    passes.merge(warm);

    // The paced load. Once a third of it is in, shard 0 is SIGKILLed
    // (--kill-shard), or link 0's request direction is blackholed
    // (--netchaos): replies still flow, so the link looks half alive,
    // the case binary health checks cannot see.
    let at = (opts.requests / 3).max(1);
    let trigger = if opts.kill_shard {
        Some(Trigger::new(at, || {
            let _ = children[0].lock().expect("child lock").kill();
            eprintln!("loadgen: SIGKILLed shard 0 after ~{at} requests");
        }))
    } else if opts.netchaos {
        Some(Trigger::new(at, || {
            proxies[0].set_partition(Direction::ClientToUpstream, true);
            eprintln!("loadgen: netchaos: partitioned link 0 router→shard after ~{at} requests");
        }))
    } else {
        None
    };
    let link = |idx| {
        let policy = cluster_policy(opts.netchaos, idx);
        Link::new(&endpoint, policy.clone(), policy)
    };
    let (tally, elapsed) = paced_mix(&opts, link, &check, trigger);
    if opts.kill_shard {
        let _ = children[0].lock().expect("child lock").wait();
    }

    let mut gates = Vec::new();
    let timed_out = || "timed out".to_string();
    if opts.netchaos {
        // Walk the breaker end to end: the cut holds until probe
        // evidence opens the victim's breaker, a pass then runs the
        // open-breaker ladder (the primary is skipped outright), and
        // only then does the link heal, forcing revival through
        // half-open trials.
        let victim = router_shards[0].as_str();
        let opened = wait_for(|| breaker_of(&router.metrics(), victim) == "open");
        if opened {
            eprintln!("loadgen: netchaos: breaker open on link 0; driving the failover ladder");
            passes.merge(pass("breaker-open pass, "));
        }
        proxies[0].set_partition(Direction::ClientToUpstream, false);
        eprintln!("loadgen: netchaos: healed link 0; waiting for half-open revival");
        let closed = wait_for(|| breaker_of(&router.metrics(), victim) == "closed");
        let open_in_time = "the cut link's breaker opens within 20 s";
        let close_in_time = "the healed link's breaker closes within 20 s";
        gates.extend([
            Gate::firing(
                "breaker_opened_on_cut",
                open_in_time,
                1,
                unless(opened, timed_out),
            ),
            Gate::firing(
                "breaker_closed_after_heal",
                close_in_time,
                1,
                unless(closed, timed_out),
            ),
        ]);
    }

    // The surviving replicas must keep the working set at least half as
    // warm as before the kill.
    let post = pass("post-failover pass, ");
    let post_rate = post.hit_rate();
    passes.merge(post);
    let router_metrics = router.metrics();
    let router_alive = opts.netchaos && answers_ping(&endpoint);

    // Teardown: drain the router first (it drops its shard
    // connections), then the proxies, then shut the surviving shards
    // down over their real (clean) sockets.
    router.begin_drain();
    router.join();
    let links: Vec<Json> = proxies
        .iter()
        .map(|p| {
            let s = p.metrics();
            Json::obj(vec![
                ("endpoint", Json::from(p.endpoint())),
                ("connections", Json::from(s.connections)),
                ("latency_conns", Json::from(s.latency_conns)),
                ("bandwidth_conns", Json::from(s.bandwidth_conns)),
                ("stalls", Json::from(s.stalls)),
                ("partitions", Json::from(s.partitions)),
                ("resets", Json::from(s.resets)),
                ("corrupted_bytes", Json::from(s.corrupted_bytes)),
                ("blackholed_bytes", Json::from(s.blackholed_bytes)),
            ])
        })
        .collect();
    for p in proxies {
        p.shutdown();
    }
    let mut shutdown = Vec::new();
    for (i, ep) in shard_eps.iter().enumerate() {
        if opts.kill_shard && i == 0 {
            continue; // already SIGKILLed and reaped
        }
        match Client::connect(ep).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => {}
            Err(e) => shutdown.push(format!("shard {i} graceful shutdown: {e}")),
        }
        let _ = children[i].lock().expect("child lock").wait();
    }
    let _ = std::fs::remove_dir_all(&root);

    // Under netchaos a typed error after the retries is a terminal
    // outcome at a 10%+ link fault rate; the client↔router link is
    // clean, so a transport error still means the router misbehaved.
    let (errors, error_gate, error_threshold) = if opts.netchaos {
        let transport = [tally.failures.clone(), passes.failures.clone()].concat();
        (transport, "no_transport_errors", "0 transport errors")
    } else {
        let errors = [tally.error_lines(), passes.error_lines()].concat();
        (errors, "no_client_errors", "0 client-visible errors")
    };
    let issued = tally.terminal() + passes.terminal();
    let survivors = (shards - usize::from(opts.kill_shard)) as u64;
    let drains = "every surviving shard drains";
    gates.extend([
        Gate::outcome(error_gate, error_threshold, issued, errors),
        identical_gate(&[&tally, &passes]),
        terminal_gate(&tally, opts.requests),
        Gate::outcome("graceful_shutdown", drains, survivors, shutdown),
    ]);
    if opts.netchaos {
        gates.push(alive_gate("router_alive", router_alive));
        for name in ROUTER_FIRING {
            gates.push(fired(name, counter(Some(&router_metrics), name)));
        }
    }
    if opts.kill_shard {
        gates.push(warm_gate("warm_failover", pre, post_rate));
    }

    let mut extra = vec![
        ("shards", Json::from(shards)),
        ("kill_shard", Json::from(opts.kill_shard)),
        ("target_qps", Json::from(opts.qps)),
        ("working_set", Json::from(working)),
        ("pre_kill_hit_rate", Json::from(pre)),
        ("post_failover_hit_rate", Json::from(post_rate)),
        ("router", router_metrics),
    ];
    if opts.netchaos {
        let netchaos = Json::obj(vec![
            ("seed", Json::from(opts.chaos_seed)),
            (
                "fault_per_mille",
                Json::from(u64::from(opts.fault_per_mille)),
            ),
            ("links", Json::Arr(links)),
        ]);
        extra.push(("netchaos", netchaos));
    }
    let run = Run::new(mode, seed, &opts);
    finish(&opts, run, &tally, elapsed, extra, gates)
}

/// The `--overload` audit's schedule, budgeted send and analysis.
mod overload {
    use super::*;

    /// Bounded queue depth for the overload server: deep enough that an
    /// unshedded spike would buffer-bloat far past any plausible
    /// deadline, so deadline shedding, not the queue bound, has to do
    /// the shedding.
    pub const QUEUE: usize = 1024;
    /// Closed-loop capacity probe duration.
    pub const PROBE_MS: u64 = 1500;
    pub const PHASES: [&str; 3] = ["baseline", "spike", "recovery"];
    /// Phase durations: 1× baseline, 3× spike, 1× recovery.
    pub const PHASE_SECS: [u64; 3] = [4, 4, 10];
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
            let (mut due, mut phase) = (Vec::new(), Vec::new());
            let mut t0 = 0.0f64;
            for (p, (&rate, &len)) in rates.iter().zip(PHASE_SECS.iter()).enumerate() {
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

        /// Request `k`: the mix cycles; the seed is unique per request,
        /// so every compile is a genuine miss and goodput measures
        /// compute capacity, not hit-rate luck.
        pub fn request(&self, k: usize) -> ScheduleRequest {
            let profile = self.mix[k % self.mix.len()].clone();
            let mut req = ScheduleRequest::profile(profile, PAPER_SEED + k as u64);
            req.deadline_ms = Some(self.deadline_ms);
            req
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

    /// Closed-loop capacity probe: `clients` threads hammer the daemon
    /// with unique-seed requests (no pacing) for [`PROBE_MS`];
    /// capacity is completions per second, and the saturated p50
    /// request latency rides along. Probe requests carry a deadline:
    /// deadline pressure changes how hard the engine degrades, so
    /// capacity must be measured under run conditions or the "3×"
    /// spike may not actually overload.
    pub fn probe_capacity(
        endpoint: &str,
        mix: &[String],
        clients: usize,
        deadline_ms: u64,
    ) -> Result<(f64, u64), String> {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let end = start + Duration::from_millis(PROBE_MS);
        let probe = || -> Result<Vec<u64>, String> {
            let mut client =
                Client::connect(endpoint).map_err(|e| format!("probe connect: {e}"))?;
            let mut lat_us = Vec::new();
            while Instant::now() < end {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let seed = PROBE_SEED_BASE + k as u64;
                let mut req = ScheduleRequest::profile(mix[k % mix.len()].clone(), seed);
                req.deadline_ms = Some(deadline_ms);
                let issued = Instant::now();
                match client.request(&req) {
                    Ok(_) => lat_us.push(issued.elapsed().as_micros() as u64),
                    // A typed shed during the probe still measures
                    // capacity honestly: it just isn't goodput.
                    Err(ClientError::Server(_)) => {}
                    Err(e) => return Err(format!("probe request: {e}")),
                }
            }
            Ok(lat_us)
        };
        let mut lat_us: Vec<u64> = Vec::new();
        std::thread::scope(|scope| -> Result<(), String> {
            let threads: Vec<_> = (0..clients).map(|_| scope.spawn(probe)).collect();
            for t in threads {
                lat_us.extend(t.join().expect("probe thread panicked")?);
            }
            Ok(())
        })?;
        let elapsed = start.elapsed().as_secs_f64();
        if lat_us.is_empty() {
            return Err("capacity probe completed zero requests".to_string());
        }
        lat_us.sort_unstable();
        let p50_ms = (lat_us[lat_us.len() / 2] / 1_000).max(1);
        Ok((lat_us.len() as f64 / elapsed, p50_ms))
    }

    /// Overload's send step: drive logical request `k` to a terminal
    /// outcome. Every wire attempt is counted; each retry must first
    /// win a token from the shared [`RetryBudget`] and the request
    /// gives up when denied one or when its deadline is nearly spent.
    /// A failed dial fails this request only: the client keeps going,
    /// so every slot leaves a [`Record`].
    pub fn send(
        link: &mut Link,
        plan: &Plan,
        budget: &RetryBudget,
        k: usize,
        start: Instant,
        tally: &mut Tally,
    ) -> bool {
        let mut req = plan.request(k);
        let issued = Instant::now();
        let ok = loop {
            let client = match link.client() {
                Ok(c) => c,
                Err(e) => {
                    tally.dial_failed(format!("request {k}: dial: {e}"));
                    break false;
                }
            };
            tally.wire += 1;
            let e = match client.request(&req) {
                Ok(resp) => {
                    budget.record_success();
                    tally.reply(issued, &resp);
                    break true;
                }
                Err(e) => e,
            };
            let (retryable, hint_ms) = match &e {
                ClientError::Server(err) => (err.code.is_retryable(), err.retry_after_ms),
                // Transport breakage: the bytes may have been lost in
                // flight; redial before retrying.
                _ => {
                    link.client = None;
                    (true, None)
                }
            };
            let remaining = plan
                .deadline_ms
                .saturating_sub(issued.elapsed().as_millis() as u64);
            let denied = retryable && remaining >= 2 && !budget.try_spend();
            tally.budget_denied += u64::from(denied);
            if !retryable || remaining < 2 || denied {
                match e {
                    ClientError::Server(err) => tally.typed_error(issued, err.code.as_str()),
                    e => tally.fail(format!("request {k}: {e}")),
                }
                break false;
            }
            tally.retries += 1;
            req.attempt += 1;
            std::thread::sleep(Duration::from_millis(
                hint_ms.unwrap_or(2).clamp(1, remaining),
            ));
        };
        tally.records.push(Record {
            phase: plan.phase[k],
            done_ms: start.elapsed().as_millis() as u64,
            latency_ns: issued.elapsed().as_nanos() as u64,
            ok,
        });
        true
    }

    /// The run's figures, computed from its records.
    pub struct Analysis {
        pub phase_issued: [u64; 3],
        pub phase_ok: [u64; 3],
        /// Completions inside each phase's wall-clock window.
        pub window_ok: [u64; 3],
        /// Latencies of admitted (successful) requests, sorted.
        pub admitted_ns: Vec<u64>,
        /// Seconds after the spike until a whole second's goodput was
        /// back to [`RECOVERY_FRACTION`] of baseline.
        pub recovered_after_s: Option<u64>,
    }

    impl Analysis {
        pub fn goodput(&self, p: usize) -> f64 {
            self.window_ok[p] as f64 / PHASE_SECS[p] as f64
        }
    }

    pub fn analyse(records: &[Record]) -> Analysis {
        let mut a = Analysis {
            phase_issued: [0; 3],
            phase_ok: [0; 3],
            window_ok: [0; 3],
            admitted_ns: Vec::new(),
            recovered_after_s: None,
        };
        // Goodput is measured over wall-clock completion windows, not
        // over the phase a request was scheduled in: if the clients
        // fall behind the schedule, labelling late completions with
        // their intended phase would overstate goodput by the slip.
        let mut window_end_ms = [0u64; 3];
        let mut end = 0;
        for (p, secs) in PHASE_SECS.iter().enumerate() {
            end += secs * 1000;
            window_end_ms[p] = end;
        }
        let horizon_s = PHASE_SECS.iter().sum::<u64>() as usize + 30;
        let mut ok_per_sec = vec![0u64; horizon_s + 1];
        for r in records {
            a.phase_issued[r.phase as usize] += 1;
            if !r.ok {
                continue;
            }
            a.phase_ok[r.phase as usize] += 1;
            a.admitted_ns.push(r.latency_ns);
            if let Some(w) = window_end_ms.iter().position(|&end| r.done_ms < end) {
                a.window_ok[w] += 1;
            }
            if let Some(n) = ok_per_sec.get_mut((r.done_ms / 1000) as usize) {
                *n += 1;
            }
        }
        a.admitted_ns.sort_unstable();
        let spike_end_s = (PHASE_SECS[0] + PHASE_SECS[1]) as usize;
        let bar = RECOVERY_FRACTION * a.goodput(0);
        a.recovered_after_s = (spike_end_s..ok_per_sec.len())
            .find(|&s| ok_per_sec[s] as f64 >= bar)
            .map(|s| (s - spike_end_s + 1) as u64);
        a
    }

    /// The overload-specific gates.
    pub fn gates(
        a: &Analysis,
        capacity: f64,
        deadline_ms: u64,
        amplification: f64,
        shed_expired: u64,
    ) -> Vec<Gate> {
        let p99_ms = percentile(&a.admitted_ns, 99.0) as f64 / 1e6;
        let p99_bound = (deadline_ms + P99_SLACK_MS) as f64;
        let recovery = a.recovered_after_s.map(|s| s as f64);
        vec![
            Gate::bound(
                "spike_goodput",
                Some(a.goodput(1)),
                Bound::AtLeast(SPIKE_GOODPUT_FLOOR * capacity),
            ),
            Gate::bound("admitted_p99_ms", Some(p99_ms), Bound::AtMost(p99_bound)),
            Gate::bound(
                "amplification",
                Some(amplification),
                Bound::Below(AMPLIFICATION_CEILING),
            ),
            Gate::bound(
                "recovery_s",
                recovery,
                Bound::AtMost(RECOVERY_WITHIN_SECS as f64),
            ),
            fired("shed_expired", Some(shed_expired)),
        ]
    }
}

/// The overload audit: measure capacity closed-loop, then step offered
/// load 1× → 3× → 1× of it with budgeted-retry clients.
fn overload_main(opts: Options) -> ! {
    let (mix, workers, clients) = (opts.profiles.clone(), opts.workers, opts.clients);
    let config = ServerConfig {
        queue: overload::QUEUE,
        ..server_config(&opts)
    };
    let handle = serve(listen_for(&opts), config)
        .unwrap_or_else(|e| fatal(format!("in-process server: {e}")));
    let ep = handle.endpoint();

    eprintln!(
        "loadgen: overload: probing capacity ({clients} clients, {workers} workers, {} profiles)",
        mix.len()
    );
    let probe_deadline_ms = opts.deadline_ms.unwrap_or(250);
    let probe_clients = clients.min(overload::PROBE_CLIENTS_MAX);
    let (capacity, probe_p50_ms) =
        overload::probe_capacity(&ep, &mix, probe_clients, probe_deadline_ms)
            .unwrap_or_else(|e| fatal(e));
    // Client deadline: a small multiple of the *saturated* p50, far
    // below the queueing delay a 3× spike builds in the deep queue. A
    // deadline that queueing alone could absorb would prove nothing
    // about deadline shedding. An explicit --deadline-ms caps it.
    let deadline_ms = probe_deadline_ms
        .min(probe_p50_ms.saturating_mul(2))
        .max(25);
    let plan = overload::Plan::build(capacity, mix, deadline_ms);
    let [base_s, spike_s, recovery_s] = overload::PHASE_SECS;
    eprintln!(
        "loadgen: overload: capacity {capacity:.0} qps (saturated p50 {probe_p50_ms} ms); \
         deadline {deadline_ms} ms; phases {base_s}s@1x / {spike_s}s@3x / {recovery_s}s@1x \
         ({} requests)",
        plan.due.len()
    );

    let budget = RetryBudget::default();
    let start = Instant::now();
    let send = |l: &mut Link, k, t: &mut Tally| overload::send(l, &plan, &budget, k, start, t);
    let link = |_| Link::new(&ep, ONE_SHOT, ONE_SHOT);
    let tally = paced(clients, link, &plan.due, start, None, send);
    let elapsed = start.elapsed();
    let alive = answers_ping(&ep);
    let server = server_metrics(&ep);
    handle.begin_drain();
    handle.join();

    let logical = plan.due.len();
    let a = overload::analyse(&tally.records);
    let amplification = tally.wire as f64 / logical.max(1) as f64;
    let shed_expired = counter(server.as_ref(), "shed_expired").unwrap_or(0);
    let mut gates = overload::gates(&a, capacity, deadline_ms, amplification, shed_expired);
    gates.push(terminal_gate(&tally, logical));
    gates.push(alive_gate("daemon_alive", alive));

    let phase = |p: usize| {
        Json::obj(vec![
            ("offered_qps", Json::from(plan.offered_qps[p])),
            ("duration_s", Json::from(overload::PHASE_SECS[p])),
            ("requests", Json::from(a.phase_issued[p])),
            ("ok", Json::from(a.phase_ok[p])),
            ("ok_in_window", Json::from(a.window_ok[p])),
            ("goodput_qps", Json::from(a.goodput(p))),
        ])
    };
    let phases = overload::PHASES.iter().enumerate();
    let admitted = |p| Json::from(percentile(&a.admitted_ns, p) as f64 / 1e6);
    let p99_bound_ms = deadline_ms + overload::P99_SLACK_MS;
    let recovered = a.recovered_after_s.map_or(Json::Null, Json::from);
    let shed_mem_budget = counter(server.as_ref(), "shed_mem_budget").unwrap_or(0);
    let profiles = plan.mix.iter().map(|p| Json::from(p.as_str()));
    let mut extra = vec![
        ("capacity_qps", Json::from(capacity)),
        ("deadline_ms", Json::from(deadline_ms)),
        ("queue", Json::from(overload::QUEUE)),
        ("workers", Json::from(workers)),
        ("profiles", Json::Arr(profiles.collect())),
        (
            "phases",
            Json::Obj(phases.map(|(i, n)| (n.to_string(), phase(i))).collect()),
        ),
        ("logical_requests", Json::from(logical)),
        ("wire_requests", Json::from(tally.wire)),
        ("amplification", Json::from(amplification)),
        ("budget_denied", Json::from(tally.budget_denied)),
        ("latency_ms_p50_admitted", admitted(50.0)),
        ("latency_ms_p95_admitted", admitted(95.0)),
        ("latency_ms_p99_admitted", admitted(99.0)),
        ("p99_bound_ms", Json::from(p99_bound_ms)),
        ("recovered_after_s", recovered),
        ("shed_expired", Json::from(shed_expired)),
        ("shed_mem_budget", Json::from(shed_mem_budget)),
        ("daemon_alive_after_run", Json::from(alive)),
    ];

    eprintln!(
        "loadgen: overload: goodput {:.0}/{:.0}/{:.0} qps (baseline/spike/recovery) vs \
         {capacity:.0} qps capacity; amplification {amplification:.3}x; shed_expired \
         {shed_expired}",
        a.goodput(0),
        a.goodput(1),
        a.goodput(2)
    );
    extra.extend(server.map(|m| ("server", m)));
    let run = Run {
        requests: logical,
        ..Run::new("overload", PAPER_SEED, &opts)
    };
    finish(&opts, run, &tally, elapsed, extra, gates)
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    if opts.serve_child {
        serve_child_main(&opts);
    } else if opts.overload {
        overload_main(opts);
    } else if opts.cluster.is_some() {
        cluster(opts);
    } else if opts.crash_loop.is_some() {
        crash_loop(opts);
    } else if opts.chaos {
        chaos(opts);
    } else {
        soak(opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORIGINAL: &str = "ld [%o0], %l0\nadd %l0, %o1, %o2\nxor %o3, %o4, %o5";
    /// `xor` hoisted above the dependent pair: a valid reordering.
    const HOISTED: [&str; 3] = ["xor %o3, %o4, %o5", "ld [%o0], %l0", "add %l0, %o1, %o2"];
    /// `add` reads `%l0` before the load writes it: invalid.
    const BROKEN: [&str; 3] = ["add %l0, %o1, %o2", "ld [%o0], %l0", "xor %o3, %o4, %o5"];

    fn reference() -> Reference {
        Reference {
            original: ORIGINAL.to_string(),
            scheduled: vec![
                "ld [%o0], %l0".into(),
                "xor %o3, %o4, %o5".into(),
                "add %l0, %o1, %o2".into(),
            ],
        }
    }

    fn reply(insns: &[&str], degraded: bool) -> ScheduleResponse {
        ScheduleResponse {
            insns: insns.iter().map(|i| i.to_string()).collect(),
            blocks: Vec::new(),
            stats: Default::default(),
            cycles: None,
            degraded,
        }
    }

    #[test]
    fn reply_check_files_each_case_under_its_gate() {
        let key = ("grep".to_string(), 7);
        let refs: References = [(key.clone(), reference())].into_iter().collect();
        let scheduled = reference().scheduled;
        let scheduled: Vec<&str> = scheduled.iter().map(String::as_str).collect();
        let original: Vec<&str> = ORIGINAL.lines().collect();
        let allow = Check::against(&refs, true, 1);
        let forbid = Check::against(&refs, false, 1);
        let mut t = Tally::default();
        // Identical, then mismatched: both undegraded.
        t.check(0, &key, &reply(&scheduled, false), &allow);
        assert_eq!((t.identical_checked, t.not_identical.len()), (1, 0));
        assert!(identical_gate(&[&t]).passed());
        t.check(1, &key, &reply(&original, false), &allow);
        // Degraded and valid, degraded and invalid.
        t.check(2, &key, &reply(&HOISTED, true), &allow);
        t.check(3, &key, &reply(&BROKEN, true), &allow);
        // Degraded where the scenario forbids it; unchecked.
        t.check(4, &key, &reply(&HOISTED, true), &forbid);
        t.check(5, &key, &reply(&HOISTED, true), &UNCHECKED);
        assert_eq!((t.identical_checked, t.not_identical.len()), (3, 2));
        assert_eq!((t.oracle_checked, t.invalid.len()), (2, 1));
        assert!(t.invalid[0].starts_with("request 3 "));
        let identical = identical_gate(&[&t]);
        assert!(!identical.passed());
        assert_eq!(identical.checked, 3);
    }

    #[test]
    fn a_failed_dial_fails_its_request_and_the_dial_gate() {
        let sock = format!("loadgen-test-no-daemon-{}.sock", std::process::id());
        let endpoint = format!("unix:{}", std::env::temp_dir().join(sock).display());
        let opts = Options::default();
        let due = [Duration::ZERO; 3];
        let link = |_| Link::new(&endpoint, ONE_SHOT, ONE_SHOT);
        // A mix client records the request its dial failed and stops;
        // its tally survives, and the unsent slots fail `all_terminal`.
        let send = |l: &mut Link, k, t: &mut Tally| send_retrying(l, &opts, k, &UNCHECKED, t);
        let t = paced(1, link, &due, Instant::now(), None, send);
        assert_eq!((t.failed, t.dial_failures.len()), (1, 1));
        assert_eq!(failing(&[dial_gate(&t)]), ["no_dial_failures"]);
        assert!(!terminal_gate(&t, due.len()).passed());
        assert!(dial_gate(&Tally::default()).passed());
        // An overload client fails each request whose dial failed and
        // keeps going, so every slot leaves a record.
        let plan = overload::Plan::build(10.0, vec!["grep".into()], 100);
        let budget = RetryBudget::default();
        let start = Instant::now();
        let send = |l: &mut Link, k, t: &mut Tally| overload::send(l, &plan, &budget, k, start, t);
        let t = paced(1, link, &due, start, None, send);
        assert_eq!((t.failed, t.wire, t.records.len()), (3, 0, 3));
        assert!(t.records.iter().all(|r| !r.ok));
        assert!(terminal_gate(&t, due.len()).passed());
    }

    #[test]
    fn merged_tallies_count_every_terminal_outcome_once() {
        let since = Instant::now();
        let mut a = Tally::default();
        a.reply(since, &reply(&HOISTED, true));
        a.typed_error(since, "busy");
        let mut b = Tally::default();
        b.fail("request 2: i/o error".to_string());
        b.reply(since, &reply(&HOISTED, false));
        b.typed_error(since, "busy");
        b.typed_error(since, "quarantined");
        a.merge(b);
        assert_eq!((a.replies, a.degraded, a.failed), (2, 1, 1));
        assert_eq!(a.typed.get("busy"), Some(&2));
        assert_eq!(a.typed_total(), 3);
        assert_eq!(a.terminal(), 6);
        // Replies and typed errors were answered; the failure was not.
        assert_eq!(a.latencies_ns.len(), 5);
        assert_eq!(a.error_lines().len(), 3);
        assert!(terminal_gate(&a, 6).passed());
        assert!(!terminal_gate(&a, 7).passed());
    }

    fn record(phase: u8, done_ms: u64, ok: bool) -> overload::Record {
        let latency_ns = 1_000_000;
        overload::Record {
            phase,
            done_ms,
            latency_ns,
            ok,
        }
    }

    #[test]
    fn overload_windows_count_completions_by_wall_clock() {
        // Baseline: 40 completions in its 4 s window, 10/s. Two
        // baseline requests complete late, inside the spike window,
        // and one spike request fails.
        let mut records: Vec<_> = (0..40).map(|i| record(0, i * 100, true)).collect();
        records.extend([record(0, 4_100, true), record(0, 4_200, true)]);
        records.extend((0..18).map(|i| record(1, 4_300 + i * 200, true)));
        records.push(record(1, 7_000, false));
        // Recovery: seconds 8 and 9 hold 5 completions (below the 9.5/s
        // bar), second 10 holds 10.
        records.extend((0..5).map(|i| record(2, 8_000 + i * 150, true)));
        records.extend((0..5).map(|i| record(2, 9_000 + i * 150, true)));
        records.extend((0..10).map(|i| record(2, 10_000 + i * 90, true)));
        let a = overload::analyse(&records);
        assert_eq!(a.phase_issued, [42, 19, 20]);
        assert_eq!(a.phase_ok, [42, 18, 20]);
        assert_eq!(a.window_ok, [40, 20, 20]);
        assert_eq!(a.goodput(0), 10.0);
        assert_eq!(a.goodput(1), 5.0);
        assert_eq!(a.admitted_ns.len(), 80);
        assert_eq!(a.recovered_after_s, Some(3));
        // Without the third second, goodput never recovers.
        let a = overload::analyse(&records[..records.len() - 10]);
        assert_eq!(a.recovered_after_s, None);
    }

    /// An analysis exactly at every overload threshold for a 100 qps
    /// capacity and a 100 ms deadline.
    fn at_thresholds() -> overload::Analysis {
        overload::Analysis {
            phase_issued: [0; 3],
            phase_ok: [0; 3],
            window_ok: [0, 280, 0],
            admitted_ns: vec![350_000_000],
            recovered_after_s: Some(10),
        }
    }

    fn failing(gates: &[Gate]) -> Vec<&'static str> {
        gates
            .iter()
            .filter(|g| !g.passed())
            .map(|g| g.name)
            .collect()
    }

    #[test]
    fn overload_gates_fail_just_past_their_thresholds() {
        let gates = |a: &overload::Analysis, amp: f64, shed: u64| {
            failing(&overload::gates(a, 100.0, 100, amp, shed))
        };
        let a = at_thresholds();
        assert!(gates(&a, 1.299, 1).is_empty());
        let a = overload::Analysis {
            window_ok: [0, 279, 0],
            ..at_thresholds()
        };
        assert_eq!(gates(&a, 1.299, 1), ["spike_goodput"]);
        let a = overload::Analysis {
            admitted_ns: vec![350_000_001],
            ..at_thresholds()
        };
        assert_eq!(gates(&a, 1.299, 1), ["admitted_p99_ms"]);
        assert_eq!(gates(&at_thresholds(), 1.3, 1), ["amplification"]);
        let a = overload::Analysis {
            recovered_after_s: Some(11),
            ..at_thresholds()
        };
        assert_eq!(gates(&a, 1.299, 1), ["recovery_s"]);
        let a = overload::Analysis {
            recovered_after_s: None,
            ..at_thresholds()
        };
        assert_eq!(gates(&a, 1.299, 1), ["recovery_s"]);
        assert_eq!(gates(&at_thresholds(), 1.299, 0), ["shed_expired"]);
        let firing: Vec<_> = overload::gates(&at_thresholds(), 100.0, 100, 1.0, 1)
            .into_iter()
            .filter(|g| g.firing)
            .map(|g| g.name)
            .collect();
        assert_eq!(firing, ["shed_expired"]);
    }

    #[test]
    fn shared_gates_fail_just_past_their_thresholds() {
        // Hit rate after a kill: at least half the rate before it.
        assert!(warm_gate("warm", 0.8, 0.4).passed());
        assert!(!warm_gate("warm", 0.8, 0.3999).passed());
        assert!(warm_gate("warm", 0.0, 0.0).passed());
        // A gate that never ran checks nothing and fails nothing.
        let skipped = warm_gate("warm", 0.8, 0.0).skip();
        assert!(skipped.passed());
        assert_eq!(skipped.checked, 0);
        // Firing counters: at least one.
        assert!(fired("hedge_wins", Some(1)).passed());
        assert!(!fired("hedge_wins", Some(0)).passed());
        assert!(!fired("hedge_wins", None).passed());
        assert!(fired("hedge_wins", Some(1)).firing);
        // The soak's QPS floor.
        assert!(Gate::bound("min_qps", Some(35.7), Bound::AtLeast(35.7)).passed());
        assert!(!Gate::bound("min_qps", Some(35.69), Bound::AtLeast(35.7)).passed());
        // One-case and counted-case gates.
        assert!(alive_gate("daemon_alive", true).passed());
        assert!(!alive_gate("daemon_alive", false).passed());
        assert!(!Gate::outcome("no_errors", "errors == 0", 9, vec!["x".into()]).passed());
        let json = fired("shed_expired", Some(0)).to_json();
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("firing"));
        assert_eq!(json.get("passed"), Some(&Json::Bool(false)));
    }

    #[test]
    fn flags_nobody_set_are_gone_and_conflicts_are_refused() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        for gone in ["--slow-ms", "--retries", "--mem-budget"] {
            assert!(parse(&[gone, "1"]).is_err(), "{gone} should be refused");
        }
        assert!(parse(&["--cluster", "3", "--netchaos", "--kill-shard"]).is_err());
        assert!(parse(&["--cluster", "3", "--deadline-ms", "5"]).is_err());
        assert!(parse(&["--overload", "--min-qps", "1"]).is_err());
        let o = parse(&["--overload"]).expect("overload parses");
        assert_eq!((o.workers, o.clients), (2, 256));
        assert_eq!(o.profiles, dagsched_workloads::canon_mix());
        let o = parse(&["--overload", "--clients", "8"]).expect("overload parses");
        assert_eq!(o.clients, 8);
    }
}
