//! `dagsched` — command-line front end for the library.
//!
//! ```text
//! dagsched dag      block.s            # dependence arcs per basic block
//! dagsched dot      block.s --block 0  # Graphviz DOT of one block's DAG
//! dagsched heur     block.s            # heuristic annotation tables
//! dagsched schedule block.s --scheduler warren --fill-slots
//! dagsched sim      block.s            # pipeline cycles before/after
//! dagsched serve    --listen unix:/tmp/dagsched.sock --state-dir /var/lib/dagsched
//! dagsched route    --listen tcp:0.0.0.0:4590 --shard unix:/run/shard-0.sock --shard unix:/run/shard-1.sock
//! dagsched netchaos --listen unix:/tmp/link.sock --upstream unix:/run/shard-0.sock --seed 7 --fault-rate 100
//! dagsched cluster  status --connect tcp:127.0.0.1:4590
//! dagsched cluster  add-shard --connect tcp:127.0.0.1:4590 --shard unix:/run/shard-2.sock
//! dagsched request  block.s --connect unix:/tmp/dagsched.sock
//! dagsched fsck     /var/lib/dagsched           # validate the store; --repair fixes it
//! dagsched fuzz     --seed 0xDA65C4ED --minutes 2
//! dagsched diff     block.s            # run the full cross-check matrix
//! dagsched diff     --corpus tests/corpus
//! ```
//!
//! Input is SPARC-flavoured assembly (or the paper's Figure 1 `DIVF
//! R1,R2,R3` notation); `-` or no file reads stdin.
//!
//! `schedule` and `sim` honour the same `--timeout-ms` / `--max-block`
//! guards as the daemon — both front ends funnel through
//! [`dagsched::batch::Limits`], so a block the service would reject is
//! rejected identically here.

use std::io::Read;
use std::time::Duration;

use dagsched::batch::{schedule_program_batch, Limits, NoCache};
use dagsched::core::{
    build_dag, dump_annotations, to_dot, ConstructionAlgorithm, HeuristicSet, MemDepPolicy,
    PhaseStats,
};
use dagsched::driver::DriverConfig;
use dagsched::isa::{MachineModel, Program};
use dagsched::netchaos::{serve_proxy, ChaosConfig};
use dagsched::pipesim::{render_timeline, simulate, SimOptions};
use dagsched::proto::AdminCommand;
use dagsched::router::{serve_router, RouterConfig};
use dagsched::sched::{Scheduler, SchedulerKind};
use dagsched::service::proto::{parse_algo, parse_model, parse_policy, parse_scheduler_kind};
use dagsched::service::server::{serve, ServerConfig};
use dagsched::service::{CacheConfig, Client, ScheduleRequest};
use dagsched::verify::{check_text, replay_dir, run_fuzz, FuzzConfig, MatrixConfig};
use dagsched::workloads::parse_asm;

struct Options {
    command: String,
    file: Option<String>,
    algo: ConstructionAlgorithm,
    policy: MemDepPolicy,
    scheduler: SchedulerKind,
    model: MachineModel,
    /// The raw flag values, kept for wire requests.
    algo_name: String,
    policy_name: String,
    scheduler_name: String,
    model_name: String,
    block: Option<usize>,
    inherit: bool,
    fill_slots: bool,
    timeline: bool,
    /// Worker threads for block compilation (0 = machine parallelism).
    jobs: usize,
    /// Print the per-phase counters after scheduling.
    stats: bool,
    /// Abandon scheduling after this many milliseconds.
    timeout_ms: Option<u64>,
    /// Reject blocks larger than this many instructions.
    max_block: Option<usize>,
    /// `serve`: endpoint to listen on; `request`: endpoint to dial.
    endpoint: String,
    /// `serve`: worker threads.
    workers: usize,
    /// `serve`: bounded connection-queue depth.
    queue: usize,
    /// `serve`: slow-loris bound — typed `idle-timeout` close for a
    /// connection that never completes a frame within this window.
    first_frame_timeout_ms: Option<u64>,
    /// `serve`: schedule-cache byte budget in MiB.
    cache_mb: usize,
    /// `serve`: persist the schedule cache and quarantine ring here
    /// (snapshot + WAL); recover from it on startup.
    state_dir: Option<String>,
    /// `serve`: snapshot the cache once the WAL exceeds this many MiB.
    wal_threshold_mb: Option<u64>,
    /// `serve`: fsync the WAL every N appended cache entries.
    fsync_every: Option<u64>,
    /// `fsck`: repair the store instead of only reporting.
    repair: bool,
    /// `route`: shard endpoints (repeatable `--shard`); `cluster`: the
    /// shard an `add-shard`/`remove-shard` targets.
    shards: Vec<String>,
    /// `route`: replica-set size R (primary + R−1 ring successors).
    replicas: usize,
    /// `route`: consecutive failures before a shard's breaker opens.
    fail_threshold: Option<u32>,
    /// `route`: consecutive half-open probe successes before an open
    /// breaker closes and the shard rejoins the ring.
    revive_threshold: Option<u32>,
    /// `netchaos`: the endpoint the proxy relays to.
    upstream: Option<String>,
    /// `netchaos`: per-mille fraction of connections drawing a fault.
    fault_rate: u16,
    /// `request`: generated workload instead of an input file.
    profile: Option<String>,
    /// `request`: workload generator seed.
    seed: u64,
    /// `request`: ask the server for before/after cycle counts.
    sim: bool,
    /// `request`: retry budget for transient failures (`None` = one
    /// attempt, fail fast).
    retries: Option<u32>,
    /// `request`: forbid degraded (cheap-rung) scheduling under
    /// deadline pressure — expire instead.
    no_degrade: bool,
    /// `fuzz`: wall-clock budget in minutes.
    minutes: f64,
    /// `fuzz`: iteration bound (`None` = time budget only).
    iters: Option<u64>,
    /// `fuzz`/`diff`: reproducer corpus directory.
    corpus: Option<String>,
    /// `fuzz`: skip shrinking (report the raw failing program).
    no_shrink: bool,
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| usage(&e));
    match opts.command.as_str() {
        "serve" => return cmd_serve(&opts),
        "route" => return cmd_route(&opts),
        "netchaos" => return cmd_netchaos(&opts),
        "cluster" => return cmd_cluster(&opts),
        "request" => return cmd_request(&opts),
        "fuzz" => return cmd_fuzz(&opts),
        "diff" => return cmd_diff(&opts),
        "fsck" => return cmd_fsck(&opts),
        _ => {}
    }
    let text = read_input(&opts.file).unwrap_or_else(|e| die(&format!("reading input: {e}")));
    let program = parse_asm(&text).unwrap_or_else(|e| die(&format!("parse error: {e}")));
    if program.is_empty() {
        die("no instructions in input");
    }
    match opts.command.as_str() {
        "dag" => cmd_dag(&program, &opts),
        "dot" => cmd_dot(&program, &opts),
        "heur" => cmd_heur(&program, &opts),
        "schedule" => cmd_schedule(&program, &opts),
        "sim" => cmd_sim(&program, &opts),
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// The shared guard set for one-shot runs: the same [`Limits`] the
/// daemon enforces per request.
fn limits(opts: &Options) -> Limits {
    let mut l = Limits::none();
    if let Some(max) = opts.max_block {
        l = l.with_max_block(max);
    }
    if let Some(ms) = opts.timeout_ms {
        l = l.with_deadline_in(Duration::from_millis(ms));
    }
    l
}

fn driver_config(opts: &Options) -> DriverConfig {
    DriverConfig {
        scheduler: Scheduler::new(opts.scheduler)
            .with_construction(opts.algo)
            .with_policy(opts.policy),
        inherit_latencies: opts.inherit,
        fill_delay_slots: opts.fill_slots,
    }
}

fn blocks_to_show<'p>(
    program: &'p Program,
    opts: &Options,
) -> Vec<(usize, &'p [dagsched::isa::Instruction])> {
    let blocks = program.basic_blocks();
    if let Some(want) = opts.block {
        if want >= blocks.len() {
            die(&format!(
                "--block {want} out of range (program has {} blocks)",
                blocks.len()
            ));
        }
    }
    blocks
        .iter()
        .enumerate()
        .filter(|(i, _)| opts.block.is_none_or(|want| want == *i))
        .map(|(i, b)| (i, program.block_insns(b)))
        .collect()
}

fn report_stats(opts: &Options, stats: &PhaseStats) {
    if opts.stats {
        eprintln!("! stats: {stats}");
    }
}

fn cmd_dag(program: &Program, opts: &Options) {
    for (bi, insns) in blocks_to_show(program, opts) {
        let dag = build_dag(insns, &opts.model, opts.algo, opts.policy);
        println!(
            "block {bi}: {} instructions, {} arcs ({})",
            insns.len(),
            dag.arc_count(),
            opts.algo.name()
        );
        for arc in dag.arcs() {
            println!(
                "  [{:>2}] {:<26} -({} {})-> [{:>2}] {}",
                arc.from.index(),
                insns[arc.from.index()].to_string(),
                arc.kind,
                arc.latency,
                arc.to.index(),
                insns[arc.to.index()],
            );
        }
    }
}

fn cmd_dot(program: &Program, opts: &Options) {
    for (bi, insns) in blocks_to_show(program, opts) {
        let dag = build_dag(insns, &opts.model, opts.algo, opts.policy);
        println!("// block {bi}");
        print!("{}", to_dot(&dag, insns));
    }
}

fn cmd_heur(program: &Program, opts: &Options) {
    for (bi, insns) in blocks_to_show(program, opts) {
        let dag = build_dag(insns, &opts.model, opts.algo, opts.policy);
        let heur = HeuristicSet::compute(&dag, insns, &opts.model, false);
        println!("block {bi}:");
        print!("{}", dump_annotations(&dag, insns, &heur));
    }
}

fn cmd_schedule(program: &Program, opts: &Options) {
    let cfg = driver_config(opts);
    let (result, stats) = schedule_program_batch(
        program,
        &opts.model,
        &cfg,
        opts.jobs,
        &limits(opts),
        &NoCache,
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    for insn in &result.insns {
        println!("    {insn}");
    }
    let (before, after) = result.speedup(program, &opts.model);
    eprintln!(
        "! {}: {} blocks, {} -> {} cycles ({:+.1}%)",
        opts.scheduler,
        result.blocks.len(),
        before,
        after,
        100.0 * (after as f64 - before as f64) / before as f64,
    );
    report_stats(opts, &stats);
}

fn cmd_sim(program: &Program, opts: &Options) {
    let r = simulate(&program.insns, &opts.model, SimOptions::default());
    if opts.timeline {
        print!("{}", render_timeline(&program.insns, &opts.model, &r, 72));
    }
    println!(
        "{} instructions: {} cycles, {} data stalls, {} structural stalls, IPC {:.3}",
        program.len(),
        r.cycles,
        r.data_stalls,
        r.struct_stalls,
        r.ipc()
    );
    let cfg = DriverConfig {
        fill_delay_slots: false,
        ..driver_config(opts)
    };
    let (result, stats) = schedule_program_batch(
        program,
        &opts.model,
        &cfg,
        opts.jobs,
        &limits(opts),
        &NoCache,
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    let after = simulate(&result.insns, &opts.model, SimOptions::default());
    if opts.timeline {
        print!(
            "{}",
            render_timeline(&result.insns, &opts.model, &after, 72)
        );
    }
    println!(
        "after {}: {} cycles, {} data stalls, {} structural stalls, IPC {:.3}",
        opts.scheduler,
        after.cycles,
        after.data_stalls,
        after.struct_stalls,
        after.ipc()
    );
    report_stats(opts, &stats);
}

fn cmd_serve(opts: &Options) {
    let listen = match dagsched::service::parse_endpoint(&opts.endpoint) {
        Ok(l) => l,
        Err(e) => die(&format!("--listen: {e}")),
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: opts.workers,
        queue: opts.queue,
        cache: CacheConfig {
            max_bytes: opts.cache_mb << 20,
            ..CacheConfig::default()
        },
        max_block: opts.max_block,
        default_deadline_ms: opts.timeout_ms,
        handle_sigterm: true,
        state_dir: opts.state_dir.as_ref().map(std::path::PathBuf::from),
        wal_snapshot_threshold: opts
            .wal_threshold_mb
            .map_or(defaults.wal_snapshot_threshold, |mb| mb << 20),
        fsync_every: opts.fsync_every.unwrap_or(defaults.fsync_every),
        first_frame_timeout_ms: opts
            .first_frame_timeout_ms
            .unwrap_or(defaults.first_frame_timeout_ms),
        ..defaults
    };
    let handle = serve(listen, config).unwrap_or_else(|e| die(&format!("serve: {e}")));
    eprintln!(
        "dagsched: serving on {} ({} workers, queue {}, cache {} MiB{})",
        handle.endpoint(),
        opts.workers,
        opts.queue,
        opts.cache_mb,
        match &opts.state_dir {
            Some(dir) => format!(", state {dir}"),
            None => String::new(),
        }
    );
    handle.join();
    eprintln!("dagsched: drained, exiting");
}

fn cmd_route(opts: &Options) {
    if opts.shards.is_empty() {
        die("route needs at least one --shard endpoint");
    }
    let listen = match dagsched::service::parse_endpoint(&opts.endpoint) {
        Ok(l) => l,
        Err(e) => die(&format!("--listen: {e}")),
    };
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        shards: opts.shards.clone(),
        replicas: opts.replicas,
        handle_sigterm: true,
        fail_threshold: opts.fail_threshold.unwrap_or(defaults.fail_threshold),
        revive_threshold: opts.revive_threshold.unwrap_or(defaults.revive_threshold),
        ..defaults
    };
    let handle = serve_router(listen, config).unwrap_or_else(|e| die(&format!("route: {e}")));
    eprintln!(
        "dagsched: routing on {} over {} shard(s), R={}",
        handle.endpoint(),
        opts.shards.len(),
        opts.replicas,
    );
    for shard in &opts.shards {
        eprintln!("dagsched:   shard {shard}");
    }
    handle.join();
    eprintln!("dagsched: router drained, exiting");
}

fn cmd_netchaos(opts: &Options) {
    let upstream = opts
        .upstream
        .as_deref()
        .unwrap_or_else(|| die("netchaos needs an --upstream endpoint to relay to"));
    // Rate 0 is a transparent relay — handy for measuring the proxy's
    // own overhead before turning faults on.
    let config = if opts.fault_rate == 0 {
        ChaosConfig::quiet(opts.seed)
    } else {
        ChaosConfig::standard(opts.seed, opts.fault_rate)
    };
    let total = config.total_per_mille();
    let proxy = serve_proxy(&opts.endpoint, upstream, config)
        .unwrap_or_else(|e| die(&format!("netchaos: {e}")));
    eprintln!(
        "dagsched: netchaos proxy on {} -> {} (seed {:#x}, {}\u{2030} of connections faulted)",
        proxy.endpoint(),
        upstream,
        opts.seed,
        total
    );
    eprintln!("dagsched: faults are deterministic in (seed, connection, byte offset)");
    // The proxy serves until the process is killed; there is no drain
    // protocol for a fault injector — dropping connections *is* its job.
    loop {
        std::thread::park();
    }
}

fn cmd_cluster(opts: &Options) {
    let action = opts
        .file
        .as_deref()
        .unwrap_or_else(|| usage("cluster needs an action: status | add-shard | remove-shard"));
    let target = || -> String {
        match opts.shards.as_slice() {
            [one] => one.clone(),
            [] => usage(&format!("cluster {action} needs a --shard endpoint")),
            _ => usage(&format!("cluster {action} takes exactly one --shard")),
        }
    };
    let cmd = match action {
        "status" => AdminCommand::Status,
        "add-shard" => AdminCommand::AddShard { endpoint: target() },
        "remove-shard" => AdminCommand::RemoveShard { endpoint: target() },
        other => usage(&format!(
            "unknown cluster action `{other}` (status | add-shard | remove-shard)"
        )),
    };
    let mut client =
        Client::connect(&opts.endpoint).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let reply = client
        .admin(&cmd)
        .unwrap_or_else(|e| die(&format!("cluster {action}: {e}")));
    println!("{reply}");
}

fn cmd_request(opts: &Options) {
    let mut req = match &opts.profile {
        Some(name) => ScheduleRequest::profile(name.clone(), opts.seed),
        None => {
            let text =
                read_input(&opts.file).unwrap_or_else(|e| die(&format!("reading input: {e}")));
            if text.trim().is_empty() {
                die("no instructions in input");
            }
            ScheduleRequest::asm(text)
        }
    };
    req.machine = opts.model_name.clone();
    req.scheduler = opts.scheduler_name.clone();
    req.algo = opts.algo_name.clone();
    req.policy = opts.policy_name.clone();
    req.inherit = opts.inherit;
    req.fill_slots = opts.fill_slots;
    req.jobs = opts.jobs;
    req.deadline_ms = opts.timeout_ms;
    req.sim = opts.sim;
    req.degrade = !opts.no_degrade;
    let mut client =
        Client::connect(&opts.endpoint).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let resp = match opts.retries {
        // A retry budget: transient failures (busy, draining, caught
        // panics, dropped connections) are retried with jittered
        // backoff; typed permanent errors still fail fast.
        Some(budget) => {
            let policy = dagsched::service::RetryPolicy {
                max_retries: budget,
                ..dagsched::service::RetryPolicy::default()
            };
            let (resp, stats) = client
                .request_with_retry(&req, &policy)
                .unwrap_or_else(|e| die(&format!("request: {e}")));
            if opts.stats && stats.retries > 0 {
                eprintln!(
                    "! retried {} time(s) ({} redials, {:.0} ms backing off)",
                    stats.retries,
                    stats.redials,
                    stats.backoff_total.as_secs_f64() * 1e3
                );
            }
            resp
        }
        None => client
            .request(&req)
            .unwrap_or_else(|e| die(&format!("request: {e}"))),
    };
    for insn in &resp.insns {
        println!("    {insn}");
    }
    if resp.degraded {
        eprintln!(
            "! degraded: {} block(s) compiled on a cheaper rung to meet the deadline",
            resp.stats.degraded_blocks
        );
    }
    let (before, after): (u64, u64) = resp.blocks.iter().fold((0, 0), |(b, a), s| {
        (b + s.original_makespan, a + s.scheduled_makespan)
    });
    eprintln!(
        "! {}: {} blocks, {} -> {} cycles",
        req.scheduler,
        resp.blocks.len(),
        before,
        after
    );
    if let Some((sim_before, sim_after)) = resp.cycles {
        eprintln!("! sim: {sim_before} -> {sim_after} cycles");
    }
    report_stats(opts, &resp.stats);
    if opts.stats {
        eprintln!(
            "! cache: {} hits, {} misses",
            resp.stats.cache_hits, resp.stats.cache_misses
        );
    }
}

fn cmd_fuzz(opts: &Options) {
    let cfg = FuzzConfig {
        seed: opts.seed,
        minutes: opts.minutes,
        iters: opts.iters,
        corpus_dir: opts.corpus.as_ref().map(std::path::PathBuf::from),
        shrink: !opts.no_shrink,
        matrix: MatrixConfig {
            model: opts.model.clone(),
            ..MatrixConfig::default()
        },
        progress_every: 25,
    };
    eprintln!(
        "dagsched: fuzzing with seed {:#x} ({})",
        cfg.seed,
        match (cfg.minutes > 0.0, cfg.iters) {
            (true, Some(n)) => format!("{} min budget, at most {n} programs", cfg.minutes),
            (true, None) => format!("{} min budget", cfg.minutes),
            (false, Some(n)) => format!("{n} programs"),
            (false, None) => "unbounded — interrupt to stop".to_string(),
        }
    );
    let outcome = run_fuzz(&cfg);
    eprintln!(
        "dagsched: fuzz done: {} programs, {} blocks ({} insns), {} proven optima, {:.1}s",
        outcome.iterations,
        outcome.summary.blocks,
        outcome.summary.insns,
        outcome.summary.optimal_proven,
        outcome.elapsed.as_secs_f64()
    );
    if !outcome.summary.opt_gaps.is_empty() {
        let gaps: Vec<String> = outcome
            .summary
            .opt_gaps
            .iter()
            .map(|(n, g)| format!("{n}: {g}"))
            .collect();
        eprintln!("dagsched: max cycles over optimum: {}", gaps.join(", "));
    }
    if outcome.is_clean() {
        eprintln!("dagsched: zero disagreements across the cross-check matrix");
        return;
    }
    for f in &outcome.failures {
        eprintln!(
            "\ndagsched: DISAGREEMENT [{}] {}",
            f.disagreement.kind, f.disagreement.pair
        );
        eprintln!("  detail: {}", f.disagreement.detail);
        eprintln!("  found by: {}", f.provenance);
        if let Some(p) = &f.path {
            eprintln!("  reproducer: {}", p.display());
        }
        eprintln!("  shrunk block:");
        for line in f.text.lines() {
            eprintln!("  | {line}");
        }
    }
    std::process::exit(1);
}

fn cmd_diff(opts: &Options) {
    let matrix = MatrixConfig {
        model: opts.model.clone(),
        ..MatrixConfig::default()
    };
    if let Some(dir) = &opts.corpus {
        let failures = replay_dir(std::path::Path::new(dir), &matrix)
            .unwrap_or_else(|e| die(&format!("replaying {dir}: {e}")));
        if failures.is_empty() {
            eprintln!("dagsched: corpus {dir} replays clean");
            return;
        }
        for f in &failures {
            eprintln!(
                "\ndagsched: DISAGREEMENT [{}] {} in {}",
                f.disagreement.kind,
                f.disagreement.pair,
                f.path.display()
            );
            eprintln!("  detail: {}", f.disagreement.detail);
            for line in f.text.lines() {
                eprintln!("  | {line}");
            }
        }
        std::process::exit(1);
    }
    let text = read_input(&opts.file).unwrap_or_else(|e| die(&format!("reading input: {e}")));
    match check_text(&text, &matrix) {
        Ok(summary) => eprintln!(
            "dagsched: matrix clean: {} blocks, {} insns, {} proven optima",
            summary.blocks, summary.insns, summary.optimal_proven
        ),
        Err(d) => {
            eprintln!("dagsched: DISAGREEMENT [{}] {}", d.kind, d.pair);
            eprintln!("  detail: {}", d.detail);
            std::process::exit(1);
        }
    }
}

fn cmd_fsck(opts: &Options) {
    let dir = opts
        .file
        .as_ref()
        .unwrap_or_else(|| usage("fsck needs a store directory"));
    let dir = std::path::Path::new(dir);
    let fingerprint = dagsched::service::store_fingerprint();
    let report = if opts.repair {
        dagsched::store::fsck::repair(dir, fingerprint)
            .unwrap_or_else(|e| die(&format!("fsck --repair {}: {e}", dir.display())))
    } else {
        dagsched::store::fsck::check(dir, Some(fingerprint))
            .unwrap_or_else(|e| die(&format!("fsck {}: {e}", dir.display())))
    };
    println!(
        "{}: {} live record(s) ({} from the newest snapshot, {} from the WAL tail)",
        dir.display(),
        report.live_records,
        report.snapshot_records,
        report.wal_records,
    );
    for issue in &report.issues {
        println!("  issue: {issue}");
    }
    if report.clean() {
        println!("{}: clean", dir.display());
        return;
    }
    if opts.repair {
        // repair() re-checks after mutating; surviving issues mean the
        // store is beyond what recovery-equivalent repair can fix.
        die(&format!(
            "{}: {} issue(s) remain after repair",
            dir.display(),
            report.issues.len()
        ));
    }
    die(&format!(
        "{}: {} issue(s); run `dagsched fsck {} --repair` to fix",
        dir.display(),
        report.issues.len(),
        dir.display()
    ));
}

/// Parse a `u64` accepting both decimal and `0x` hexadecimal.
fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    if command == "--help" || command == "-h" {
        usage("");
    }
    let mut opts = Options {
        command,
        file: None,
        algo: ConstructionAlgorithm::TableBackward,
        policy: MemDepPolicy::SymbolicExpr,
        scheduler: SchedulerKind::Warren,
        model: MachineModel::sparc2(),
        algo_name: String::new(),
        policy_name: String::new(),
        scheduler_name: "warren".to_string(),
        model_name: "sparc2".to_string(),
        block: None,
        inherit: false,
        fill_slots: false,
        timeline: false,
        jobs: 1,
        stats: false,
        timeout_ms: None,
        max_block: None,
        endpoint: "tcp:127.0.0.1:4591".to_string(),
        workers: 4,
        queue: 64,
        first_frame_timeout_ms: None,
        cache_mb: 64,
        profile: None,
        seed: dagsched::workloads::PAPER_SEED,
        sim: false,
        retries: None,
        no_degrade: false,
        state_dir: None,
        wal_threshold_mb: None,
        fsync_every: None,
        repair: false,
        shards: Vec::new(),
        replicas: 2,
        fail_threshold: None,
        revive_threshold: None,
        upstream: None,
        fault_rate: 100,
        minutes: 2.0,
        iters: None,
        corpus: None,
        no_shrink: false,
    };
    if opts.command == "fuzz" {
        opts.seed = 0xDA65_C4ED;
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--algo" => {
                let v = args.next().ok_or("--algo needs a value")?;
                opts.algo = parse_algo(&v)?;
                opts.algo_name = v;
            }
            "--policy" => {
                let v = args.next().ok_or("--policy needs a value")?;
                opts.policy = parse_policy(&v)?;
                opts.policy_name = v;
            }
            "--scheduler" => {
                let v = args.next().ok_or("--scheduler needs a value")?;
                opts.scheduler = parse_scheduler_kind(&v)?;
                opts.scheduler_name = v;
            }
            "--model" => {
                let v = args.next().ok_or("--model needs a value")?;
                opts.model = parse_model(&v)?;
                opts.model_name = v;
            }
            "--block" => {
                opts.block = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--block needs an index")?,
                );
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a thread count (0 = all cores)")?;
            }
            "--timeout-ms" => {
                opts.timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--timeout-ms needs a millisecond count")?,
                );
            }
            "--max-block" => {
                opts.max_block = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-block needs an instruction count")?,
                );
            }
            "--listen" | "--connect" => {
                opts.endpoint = args.next().ok_or("--listen/--connect need an endpoint")?;
            }
            "--workers" => {
                opts.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--workers needs a positive thread count")?;
            }
            "--queue" => {
                opts.queue = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--queue needs a positive depth")?;
            }
            "--cache-mb" => {
                opts.cache_mb = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cache-mb needs a byte budget in MiB")?;
            }
            "--first-frame-timeout-ms" => {
                opts.first_frame_timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--first-frame-timeout-ms needs a positive millisecond count")?,
                );
            }
            "--profile" => {
                opts.profile = Some(args.next().ok_or("--profile needs a workload name")?);
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| parse_u64(&v))
                    .ok_or("--seed needs an integer (decimal or 0x hex)")?;
            }
            "--minutes" => {
                opts.minutes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&m: &f64| m >= 0.0)
                    .ok_or("--minutes needs a non-negative number")?;
            }
            "--iters" => {
                opts.iters = Some(
                    args.next()
                        .and_then(|v| parse_u64(&v))
                        .ok_or("--iters needs a count")?,
                );
            }
            "--corpus" => {
                opts.corpus = Some(args.next().ok_or("--corpus needs a directory")?);
            }
            "--retries" => {
                opts.retries = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--retries needs a count")?,
                );
            }
            "--state-dir" => {
                opts.state_dir = Some(args.next().ok_or("--state-dir needs a directory")?);
            }
            "--wal-threshold-mb" => {
                opts.wal_threshold_mb = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or("--wal-threshold-mb needs a positive MiB count")?,
                );
            }
            "--fsync-every" => {
                opts.fsync_every = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fsync-every needs an append count (0 = only at snapshots)")?,
                );
            }
            "--shard" => {
                opts.shards
                    .push(args.next().ok_or("--shard needs an endpoint")?);
            }
            "--replicas" => {
                opts.replicas = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--replicas needs a positive count")?;
            }
            "--fail-threshold" => {
                opts.fail_threshold = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .ok_or("--fail-threshold needs a positive failure count")?,
                );
            }
            "--revive-threshold" => {
                opts.revive_threshold = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .ok_or("--revive-threshold needs a positive success count")?,
                );
            }
            "--upstream" => {
                opts.upstream = Some(args.next().ok_or("--upstream needs an endpoint")?);
            }
            "--fault-rate" => {
                opts.fault_rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u16| n <= 1000)
                    .ok_or("--fault-rate needs a per-mille rate (0..=1000)")?;
            }
            "--repair" => opts.repair = true,
            "--no-degrade" => opts.no_degrade = true,
            "--no-shrink" => opts.no_shrink = true,
            "--sim" => opts.sim = true,
            "--stats" => opts.stats = true,
            "--inherit" => opts.inherit = true,
            "--timeline" => opts.timeline = true,
            "--fill-slots" => opts.fill_slots = true,
            "-" => opts.file = None,
            f if !f.starts_with('-') && opts.file.is_none() => opts.file = Some(f.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

fn read_input(file: &Option<String>) -> std::io::Result<String> {
    match file {
        Some(path) => std::fs::read_to_string(path),
        None => {
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s)?;
            Ok(s)
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("dagsched: {msg}");
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("dagsched: {err}\n");
    }
    eprintln!(
        "usage: dagsched <dag|dot|heur|schedule|sim|serve|route|netchaos|cluster|request|fuzz|diff|fsck> [file|-]\n\
         \n\
         options:\n\
         \x20 --algo       n2 | n2-backward | landskov | table-forward | table-backward | bitmap\n\
         \x20 --policy     single | base-offset | storage-class | symbolic\n\
         \x20 --scheduler  gm | krishnamurthy | schlansker | shieh | tiemann | warren\n\
         \x20 --model      sparc2 | rs6000 | deep-fpu\n\
         \x20 --block N    restrict to one basic block\n\
         \x20 --jobs N     compile blocks on N threads (0 = all cores; default 1)\n\
         \x20 --timeout-ms N  abandon scheduling after N milliseconds\n\
         \x20 --max-block N   reject blocks larger than N instructions\n\
         \x20 --stats      print per-phase counters after scheduling\n\
         \x20 --inherit    carry latencies across blocks\n\
         \x20 --timeline   draw the pipeline timeline under `sim`\n\
         \x20 --fill-slots fill branch delay slots\n\
         \n\
         serve options:\n\
         \x20 --listen EP  tcp:HOST:PORT or unix:/path (default tcp:127.0.0.1:4591)\n\
         \x20 --workers N  compile worker threads (default 4)\n\
         \x20 --queue N    compile-queue depth before `busy` (default 64)\n\
         \x20 --cache-mb N schedule-cache byte budget in MiB (default 64): 4 bytes\n\
         \x20                    per cached instruction plus 136 per entry, so the\n\
         \x20                    default holds about 16M instructions and the\n\
         \x20                    4,096-entry cap binds first\n\
         \x20 --first-frame-timeout-ms N  typed idle-timeout close for connections\n\
         \x20                    that never complete a frame (default 2000)\n\
         \x20 --state-dir DIR    persist the cache + quarantine (snapshot + WAL) in DIR\n\
         \x20 --wal-threshold-mb N  snapshot once the WAL exceeds N MiB (default 4)\n\
         \x20 --fsync-every N    fsync the WAL every N cache entries (default 8)\n\
         \n\
         route options (a cluster front-end speaking the same protocol):\n\
         \x20 --listen EP  endpoint to listen on (default tcp:127.0.0.1:4591)\n\
         \x20 --shard EP   shard daemon endpoint; repeat for every shard\n\
         \x20 --replicas N replica-set size per key (default 2)\n\
         \x20 --fail-threshold N    consecutive failures before a shard's breaker opens (default 3)\n\
         \x20 --revive-threshold N  consecutive half-open probe successes before it closes (default 3)\n\
         \x20 A forward to a key's primary that outlives the shard's 95th-percentile\n\
         \x20 forward latency (clamped to 10-400 ms) is hedged to the next replica.\n\
         \n\
         netchaos options (a fault-injecting wire proxy for drills):\n\
         \x20 --listen EP    endpoint to listen on\n\
         \x20 --upstream EP  endpoint to relay to (required)\n\
         \x20 --seed N       fault-plan seed; same seed, same faults (decimal or 0x hex)\n\
         \x20 --fault-rate N per-mille of connections drawing a fault (default 100; 0 = clean relay)\n\
         \n\
         cluster options (dagsched cluster <status|add-shard|remove-shard>):\n\
         \x20 --connect EP router endpoint\n\
         \x20 --shard EP   the shard to add or remove (warm-spare join ships a snapshot)\n\
         \n\
         fsck options (dagsched fsck DIR):\n\
         \x20 --repair     truncate torn WAL tails and delete corrupt snapshots\n\
         \n\
         request options:\n\
         \x20 --connect EP server endpoint (default tcp:127.0.0.1:4591)\n\
         \x20 --profile P  schedule a generated workload instead of a file\n\
         \x20 --seed N     workload generator seed\n\
         \x20 --sim        ask the server for before/after cycle counts\n\
         \x20 --retries N  retry transient failures up to N times with jittered backoff\n\
         \x20 --no-degrade fail on deadline pressure instead of degrading heuristics\n\
         \n\
         fuzz / diff options:\n\
         \x20 --seed N     master fuzz seed, decimal or 0x hex (default 0xDA65C4ED)\n\
         \x20 --minutes F  wall-clock fuzz budget (default 2; 0 = no time budget)\n\
         \x20 --iters N    stop after N generated programs\n\
         \x20 --corpus DIR write shrunk reproducers to DIR (fuzz) / replay DIR (diff)\n\
         \x20 --no-shrink  report raw failing programs without minimizing"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
