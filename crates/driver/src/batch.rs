//! The unified batch-compilation loop, with limits and a cache hook.
//!
//! Every whole-program entry point in the workspace — the serial driver
//! ([`crate::driver::schedule_program_stats`]), the parallel pipeline
//! ([`crate::parallel::schedule_program_jobs`]), the CLI's guarded
//! one-shot path, and the `dagsched-service` daemon — delegates to
//! [`schedule_program_batch`]. One loop, several entry points: the limit
//! enforcement and the per-block compile path cannot drift apart between
//! the CLI and the service.
//!
//! Two hooks distinguish a served deployment from a one-shot run:
//!
//! * [`Limits`] — a per-request deadline and a maximum block size. Both
//!   are enforced *before* work is wasted: block sizes are checked up
//!   front for the whole program, and the deadline is re-checked before
//!   every block. Violations surface as typed [`LimitError`]s, never as
//!   panics, so a daemon can turn them into protocol error replies.
//! * [`BlockCache`] — a content-addressed schedule cache consulted per
//!   block. On a hit the construction / heuristic / scheduling passes are
//!   skipped entirely (the `PhaseStats` work counters for that block stay
//!   zero and `cache_hits` increments); on a miss the block is compiled by
//!   the ordinary [`compile_block`](crate::driver::compile_block) path
//!   and offered back to the cache.
//!   The configuration half of the key is hashed once per batch and
//!   rung into a [`CacheScope`], and each block is keyed once: a miss is
//!   stored under the key its lookup computed.
//!   [`NoCache`] is the no-op implementation used by the CLI driver; a
//!   batch against it builds no scope and keys nothing.
//!
//! Blocks scheduled under latency inheritance (forward schedulers with
//! `inherit_latencies`) bypass the cache: their output depends on the
//! predecessor block's carried latencies, which are not part of any
//! per-block cache key.

use std::time::{Duration, Instant};

use dagsched_core::{default_jobs, map_blocks_with_scratch, PhaseStats, Scratch};
use dagsched_core::{ConstructError, ConstructionAlgorithm, HeuristicPasses};
use dagsched_isa::{Instruction, MachineModel, Program};
use dagsched_sched::{CarryOut, Scheduler};

use crate::driver::{
    compile_block_with, needs_sequential_carry, BlockOutcome, DriverConfig, ScheduledProgram,
};
use crate::key::{CacheScope, Key};

/// A rung of the cost ladder, from full fidelity down. The paper's core
/// finding — scheduling cost is dominated by *which* pipeline you pick
/// (`n**2` vs table-building construction, full vs critical-path-only
/// heuristics) — gives a deadline-pressed server a principled order in
/// which to shed work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Full fidelity: compile exactly what was asked for.
    #[default]
    None,
    /// Swap any `n**2`-family construction algorithm for its
    /// table-building equivalent (same direction); keep the full
    /// heuristic stack and the requested selection strategy.
    CheapConstruction,
    /// Bottom rung: table-building construction and the critical-path
    /// fallback scheduler, whose criteria need only the backward
    /// critical-path heuristics.
    CriticalPathOnly,
}

/// When to fall down the cost ladder, expressed as remaining-budget
/// thresholds. Calibrated from the paper's cost structure: construction
/// dominates the pipeline, the table-building family runs in a fraction
/// of the `n**2` family's time, and the backward critical-path pass is
/// the cheapest heuristic pass measured in Tables 4 and 5 — so the soft
/// rung buys roughly a 2–4x construction speedup and the hard rung
/// additionally drops ~2/3 of heuristic time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Below this remaining budget, degrade construction
    /// ([`DegradeLevel::CheapConstruction`]).
    pub soft: Duration,
    /// Below this remaining budget, fall to the bottom rung
    /// ([`DegradeLevel::CriticalPathOnly`]).
    pub hard: Duration,
}

impl DegradePolicy {
    /// The calibrated default for a request granted `budget` in total:
    /// soft rung below a quarter of the budget remaining, hard rung
    /// below a sixteenth.
    pub fn for_budget(budget: Duration) -> DegradePolicy {
        DegradePolicy {
            soft: budget / 4,
            hard: budget / 16,
        }
    }

    /// The rung to compile the *next* block on, given the remaining
    /// deadline budget.
    pub fn level_at(&self, remaining: Duration) -> DegradeLevel {
        if remaining < self.hard {
            DegradeLevel::CriticalPathOnly
        } else if remaining < self.soft {
            DegradeLevel::CheapConstruction
        } else {
            DegradeLevel::None
        }
    }
}

/// Per-request resource limits, shared by the CLI (`--timeout-ms`,
/// `--max-block`) and the service (request deadlines, `max_block`
/// server config).
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Reject programs containing a block with more instructions than
    /// this (the `n**2` construction algorithms are quadratic in block
    /// size — one adversarial megablock can stall a worker for minutes).
    pub max_block: Option<usize>,
    /// Abandon the batch once this instant passes. Checked before every
    /// block, so the overshoot is bounded by one block's compile time.
    pub deadline: Option<Instant>,
    /// Graceful-degradation thresholds. With both a `deadline` and a
    /// policy set, each block is compiled on the cheapest rung the
    /// remaining budget still calls for instead of timing out at full
    /// fidelity (blocks compiled on a cheaper rung are counted in
    /// [`PhaseStats::degraded_blocks`]). `None` (the default) never
    /// degrades — output stays bit-identical to the serial driver.
    pub degrade: Option<DegradePolicy>,
}

impl Limits {
    /// No limits: never rejects, never expires.
    pub fn none() -> Limits {
        Limits::default()
    }

    /// Cap the largest schedulable block.
    pub fn with_max_block(mut self, max: usize) -> Limits {
        self.max_block = Some(max);
        self
    }

    /// Set the deadline `timeout` from now.
    pub fn with_deadline_in(mut self, timeout: Duration) -> Limits {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Set the deadline at an explicit instant. A pipelined server
    /// anchors a request's deadline at its *arrival*, not at the moment
    /// a worker finally picks it up — time spent queued must count
    /// against the budget, or a saturated server would happily compile
    /// work whose client gave up long ago.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Limits {
        self.deadline = Some(deadline);
        self
    }

    /// Enable deadline-aware graceful degradation under `policy`.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Limits {
        self.degrade = Some(policy);
        self
    }

    /// The rung the next block should compile on, given the wall clock.
    /// [`DegradeLevel::None`] unless both a deadline and a degradation
    /// policy are set.
    pub fn degrade_level(&self) -> DegradeLevel {
        match (self.degrade, self.deadline) {
            (Some(policy), Some(deadline)) => {
                policy.level_at(deadline.saturating_duration_since(Instant::now()))
            }
            _ => DegradeLevel::None,
        }
    }

    /// Check one block's size against `max_block`.
    pub fn check_block(&self, block: usize, len: usize) -> Result<(), LimitError> {
        match self.max_block {
            Some(max) if len > max => Err(LimitError::BlockTooLarge { block, len, max }),
            _ => Ok(()),
        }
    }

    /// Check whether the deadline has passed.
    pub fn check_deadline(&self) -> Result<(), LimitError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(LimitError::DeadlineExpired),
            _ => Ok(()),
        }
    }
}

/// A typed limit violation — the batch loop's only error channel, so a
/// served request can always be answered with a structured error reply
/// instead of a worker panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitError {
    /// A block exceeds the configured maximum size.
    BlockTooLarge {
        /// Offending block index.
        block: usize,
        /// Its instruction count.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The request deadline passed before the batch completed.
    DeadlineExpired,
    /// A block was rejected by DAG construction: malformed input (a
    /// memory opcode without an operand) or a block above the hard
    /// [`dagsched_core::MAX_NODES`] cap. A bad *request*, not a server
    /// fault — the service answers `bad-request`, never `internal`.
    Construct {
        /// Offending block index.
        block: usize,
        /// The underlying construction error.
        error: ConstructError,
    },
}

impl std::fmt::Display for LimitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitError::BlockTooLarge { block, len, max } => write!(
                f,
                "block {block} has {len} instructions, exceeding the limit of {max}"
            ),
            LimitError::DeadlineExpired => write!(f, "deadline expired before scheduling finished"),
            LimitError::Construct { block, error } => write!(f, "block {block}: {error}"),
        }
    }
}

impl std::error::Error for LimitError {}

/// A per-block schedule cache consulted by [`schedule_program_batch`].
///
/// Implementations key on *content*: the batch loop computes each
/// block's [`Key`] once ([`CacheScope::key`]) and passes it to both the
/// lookup and, on a miss, the store. A `lookup` hit must return a
/// [`BlockOutcome`] bit-identical to what
/// [`compile_block`](crate::driver::compile_block) would produce for the
/// block under the scope's model and configuration. Outcomes hold the
/// emitted order as indices into the block, so a replay re-materializes
/// the stream from the *requesting* block's instructions and even
/// interned memory-expression identities match a fresh compile.
pub trait BlockCache: Sync {
    /// Whether this cache is real. The batch loop builds no scope and
    /// skips keys, lookups and hit/miss accounting entirely when `false`
    /// (see [`NoCache`]).
    fn enabled(&self) -> bool {
        true
    }

    /// Look up block `block`, `len` instructions long, under `key`.
    fn lookup(&self, block: usize, len: usize, key: Key) -> Option<BlockOutcome>;

    /// Offer a freshly compiled outcome for caching under `key`, the key
    /// its lookup missed on.
    fn store(&self, key: Key, outcome: &BlockOutcome);
}

/// The no-op cache: every lookup misses, nothing is stored, and the
/// batch loop's hit/miss counters stay zero.
pub struct NoCache;

impl BlockCache for NoCache {
    fn enabled(&self) -> bool {
        false
    }

    fn lookup(&self, _block: usize, _len: usize, _key: Key) -> Option<BlockOutcome> {
        None
    }

    fn store(&self, _key: Key, _outcome: &BlockOutcome) {}
}

/// The derived configurations of the cost ladder, precomputed once per
/// batch so the per-block hot path only selects a reference.
struct Ladder {
    /// Rung 1: cheap construction. `None` when the requested
    /// construction is already a table builder — there is nothing
    /// cheaper to swap in, so the rung compiles at full fidelity and is
    /// *not* counted as degraded.
    cheap: Option<DriverConfig>,
    /// Rung 2: the critical-path-only pipeline floor.
    floor: DriverConfig,
}

impl Ladder {
    fn derive(config: &DriverConfig) -> Ladder {
        let cheap = cheap_construction(config.scheduler.construction).map(|algo| {
            let mut c = config.clone();
            c.scheduler.construction = algo;
            c
        });
        let floor = DriverConfig {
            scheduler: Scheduler::critical_path_fallback(config.scheduler.policy),
            inherit_latencies: config.inherit_latencies,
            fill_delay_slots: config.fill_delay_slots,
        };
        Ladder { cheap, floor }
    }
}

/// One configuration a batch compiles blocks on, with its scheduler's
/// heuristic passes and its cache scope.
struct Rung<'a> {
    config: &'a DriverConfig,
    passes: HeuristicPasses,
    /// `None` when the batch does not consult the cache: the cache is
    /// disabled, or latency inheritance bypasses it.
    scope: Option<CacheScope>,
}

impl<'a> Rung<'a> {
    fn new(model: &'a MachineModel, config: &'a DriverConfig, cached: bool) -> Rung<'a> {
        Rung {
            config,
            passes: config.scheduler.heuristic_passes(),
            scope: cached.then(|| CacheScope::new(model, config)),
        }
    }
}

/// Every rung a batch may compile on, each with its scope built once.
///
/// Degraded rungs have scopes of their own, so the content-addressed
/// cache keys them apart from full-fidelity compiles: a schedule
/// produced on a cheap rung can never be replayed for a full-fidelity
/// request, and vice versa.
struct Rungs<'a> {
    full: Rung<'a>,
    /// The cheap rung (when it changes anything) and the floor; `None`
    /// when the batch never degrades.
    degraded: Option<(Option<Rung<'a>>, Rung<'a>)>,
}

impl<'a> Rungs<'a> {
    fn new(
        model: &'a MachineModel,
        config: &'a DriverConfig,
        ladder: Option<&'a Ladder>,
        cached: bool,
    ) -> Rungs<'a> {
        Rungs {
            full: Rung::new(model, config, cached),
            degraded: ladder.map(|l| {
                (
                    l.cheap.as_ref().map(|c| Rung::new(model, c, cached)),
                    Rung::new(model, &l.floor, cached),
                )
            }),
        }
    }

    /// The rung the next block compiles on, given the wall clock; a
    /// degraded pick is counted in `stats`.
    fn pick(&self, limits: &Limits, stats: &mut PhaseStats) -> &Rung<'a> {
        let degraded =
            self.degraded
                .as_ref()
                .and_then(|(cheap, floor)| match limits.degrade_level() {
                    DegradeLevel::None => None,
                    DegradeLevel::CheapConstruction => cheap.as_ref(),
                    DegradeLevel::CriticalPathOnly => Some(floor),
                });
        match degraded {
            Some(rung) => {
                stats.degraded_blocks += 1;
                rung
            }
            None => &self.full,
        }
    }
}

/// The table-building equivalent (same direction) of an `n**2`-family
/// construction algorithm; `None` if `algo` already builds tables.
fn cheap_construction(algo: ConstructionAlgorithm) -> Option<ConstructionAlgorithm> {
    match algo {
        ConstructionAlgorithm::N2Forward | ConstructionAlgorithm::N2ForwardLandskov => {
            Some(ConstructionAlgorithm::TableForward)
        }
        ConstructionAlgorithm::N2Backward => Some(ConstructionAlgorithm::TableBackward),
        ConstructionAlgorithm::TableForward
        | ConstructionAlgorithm::TableBackward
        | ConstructionAlgorithm::TableBackwardBitmap => None,
    }
}

/// Compile one block through the cache, falling back to
/// [`compile_block`](crate::driver::compile_block).
fn compile_one(
    bi: usize,
    insns: &[Instruction],
    model: &MachineModel,
    rung: &Rung<'_>,
    carry_in: Option<&CarryOut>,
    scratch: &mut Scratch,
    cache: &dyn BlockCache,
) -> Result<BlockOutcome, LimitError> {
    let key = rung
        .scope
        .as_ref()
        .map(|scope| scope.key_in(insns, &mut scratch.key_ordinals));
    if let Some(key) = key {
        if let Some(outcome) = cache.lookup(bi, insns.len(), key) {
            scratch.stats.cache_hits += 1;
            return Ok(outcome);
        }
    }
    let outcome = compile_block_with(
        bi,
        insns,
        model,
        rung.config,
        rung.passes,
        carry_in,
        scratch,
    )
    .map_err(|error| LimitError::Construct { block: bi, error })?;
    if let Some(key) = key {
        scratch.stats.cache_misses += 1;
        cache.store(key, &outcome);
    }
    Ok(outcome)
}

/// The serial batch loop over pre-partitioned `items`, drawing working
/// storage from a caller-provided `scratch`.
fn serial_batch(
    items: &[(usize, &[Instruction])],
    total_len: usize,
    model: &MachineModel,
    config: &DriverConfig,
    limits: &Limits,
    cache: &dyn BlockCache,
    scratch: &mut Scratch,
) -> Result<ScheduledProgram, LimitError> {
    let sequential = needs_sequential_carry(config);
    // Latency inheritance cannot degrade: block i+1's entry constraints
    // depend on block i's exact schedule, so switching rungs mid-stream
    // would change semantics, not just quality. It bypasses the cache
    // for the same reason.
    let ladder = match limits.degrade {
        Some(_) if !sequential => Some(Ladder::derive(config)),
        _ => None,
    };
    let rungs = Rungs::new(
        model,
        config,
        ladder.as_ref(),
        cache.enabled() && !sequential,
    );
    let mut out: Vec<Instruction> = Vec::with_capacity(total_len);
    let mut reports = Vec::with_capacity(items.len());
    let mut carry = CarryOut::default();
    for &(bi, insns) in items {
        limits.check_deadline()?;
        let carry_in = if sequential { Some(&carry) } else { None };
        let rung = rungs.pick(limits, &mut scratch.stats);
        let outcome = compile_one(bi, insns, model, rung, carry_in, scratch, cache)?;
        out.extend(outcome.emitted(insns));
        carry = outcome.carry;
        reports.push(outcome.report);
    }
    Ok(ScheduledProgram {
        insns: out,
        blocks: reports,
    })
}

/// [`schedule_program_batch`] with `jobs == 1`, drawing working storage
/// from a caller-owned arena instead of allocating a fresh one.
///
/// This is the entry point a long-running worker thread wants: the
/// `dagsched-service` daemon gives each pool worker one [`Scratch`] that
/// it reuses across every request it serves, so the per-block hot path
/// stops allocating once the arena is warm. The per-request counters are
/// taken by resetting `scratch.stats` on entry and returning the
/// accumulated value, so `scratch.stats` afterwards reflects only the
/// *last* call.
pub fn schedule_program_batch_scratch(
    program: &Program,
    model: &MachineModel,
    config: &DriverConfig,
    limits: &Limits,
    cache: &dyn BlockCache,
    scratch: &mut Scratch,
) -> Result<(ScheduledProgram, PhaseStats), LimitError> {
    scratch.stats = PhaseStats::default();
    let blocks = program.basic_blocks();
    let items: Vec<(usize, &[Instruction])> = blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| (bi, program.block_insns(b)))
        .filter(|(_, insns)| !insns.is_empty())
        .collect();
    for &(bi, insns) in &items {
        limits.check_block(bi, insns.len())?;
    }
    limits.check_deadline()?;
    let result = serial_batch(&items, program.len(), model, config, limits, cache, scratch)?;
    Ok((result, scratch.stats))
}

/// Schedule every basic block of `program` under `config` with `jobs`
/// workers, enforcing `limits` and consulting `cache` per block.
///
/// This is the single batch loop behind every entry point; see the
/// module docs. `jobs == 0` selects [`default_jobs`]; latency-inheriting
/// forward configurations run serially regardless of `jobs` (block
/// `i + 1` consumes block `i`'s carry) and bypass the cache.
///
/// The result is bit-identical to
/// [`crate::driver::schedule_program_stats`] for every `jobs` value and
/// every cache state — caches replay exact prior outcomes — and the
/// deterministic `PhaseStats` work counters are jobs-invariant
/// (`cache_hits` / `cache_misses` excepted; see
/// [`PhaseStats::same_counts`]).
pub fn schedule_program_batch(
    program: &Program,
    model: &MachineModel,
    config: &DriverConfig,
    jobs: usize,
    limits: &Limits,
    cache: &dyn BlockCache,
) -> Result<(ScheduledProgram, PhaseStats), LimitError> {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let blocks = program.basic_blocks();
    let items: Vec<(usize, &[Instruction])> = blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| (bi, program.block_insns(b)))
        .filter(|(_, insns)| !insns.is_empty())
        .collect();
    // Size limits are checked for the whole program up front: a
    // rejection must not waste compilation work on the other blocks.
    for &(bi, insns) in &items {
        limits.check_block(bi, insns.len())?;
    }
    limits.check_deadline()?;

    let sequential = needs_sequential_carry(config);
    if jobs <= 1 || sequential {
        let mut scratch = Scratch::new();
        let result = serial_batch(
            &items,
            program.len(),
            model,
            config,
            limits,
            cache,
            &mut scratch,
        )?;
        return Ok((result, scratch.stats));
    }

    let ladder = limits.degrade.map(|_| Ladder::derive(config));
    let rungs = Rungs::new(model, config, ladder.as_ref(), cache.enabled());
    let (results, stats) = map_blocks_with_scratch(&items, jobs, |_, &(bi, insns), scratch| {
        limits.check_deadline().and_then(|()| {
            let rung = rungs.pick(limits, &mut scratch.stats);
            compile_one(bi, insns, model, rung, None, scratch, cache)
        })
    });
    let mut out: Vec<Instruction> = Vec::with_capacity(program.len());
    let mut reports = Vec::with_capacity(results.len());
    for (result, &(_, insns)) in results.into_iter().zip(&items) {
        let outcome = result?;
        out.extend(outcome.emitted(insns));
        reports.push(outcome.report);
    }
    Ok((
        ScheduledProgram {
            insns: out,
            blocks: reports,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

    /// An exact-replay test cache: stores outcomes under the batch
    /// loop's key.
    #[derive(Default)]
    struct MapCache {
        map: Mutex<std::collections::HashMap<Key, BlockOutcome>>,
    }

    impl BlockCache for MapCache {
        fn lookup(&self, block: usize, _len: usize, key: Key) -> Option<BlockOutcome> {
            self.map.lock().unwrap().get(&key).map(|o| {
                let mut o = o.clone();
                o.report.block = block;
                o
            })
        }

        fn store(&self, key: Key, outcome: &BlockOutcome) {
            self.map.lock().unwrap().insert(key, outcome.clone());
        }
    }

    /// Records the keys the batch loop hands to each call.
    #[derive(Default)]
    struct KeyLog {
        lookups: Mutex<Vec<Key>>,
        stores: Mutex<Vec<Key>>,
    }

    impl BlockCache for KeyLog {
        fn lookup(&self, _block: usize, _len: usize, key: Key) -> Option<BlockOutcome> {
            self.lookups.lock().unwrap().push(key);
            None
        }

        fn store(&self, key: Key, _outcome: &BlockOutcome) {
            self.stores.lock().unwrap().push(key);
        }
    }

    /// Each block is keyed once: a missed block is stored under the key
    /// its lookup computed, which is the block's `block_key`.
    #[test]
    fn a_missed_block_is_stored_under_its_lookup_key() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let log = KeyLog::default();
        let (_, stats) =
            schedule_program_batch(&bench.program, &model, &config, 1, &Limits::none(), &log)
                .unwrap();
        let lookups = log.lookups.into_inner().unwrap();
        let expected: Vec<Key> = bench
            .program
            .basic_blocks()
            .iter()
            .map(|b| bench.program.block_insns(b))
            .filter(|insns| !insns.is_empty())
            .map(|insns| crate::key::block_key(insns, &model, &config))
            .collect();
        assert_eq!(lookups, expected);
        assert_eq!(log.stores.into_inner().unwrap(), lookups);
        assert_eq!(stats.cache_misses, lookups.len() as u64);
    }

    /// Regression: a memory-class opcode with no memory operand used to
    /// panic inside `PreparedBlock` (`.unwrap()` on `mem_ops`), killing
    /// the worker. It must now surface as a typed construct error that
    /// the service can answer with `bad-request`.
    #[test]
    fn malformed_memory_instruction_is_a_typed_construct_error() {
        use dagsched_core::ConstructError;
        use dagsched_isa::{Instruction, Opcode, Reg};
        let mut program = Program::new();
        program.push(Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)));
        // `Instruction::new` leaves the memory operand empty.
        program.push(Instruction::new(Opcode::Ld));
        let model = MachineModel::sparc2();
        for jobs in [1, 4] {
            let err = schedule_program_batch(
                &program,
                &model,
                &DriverConfig::default(),
                jobs,
                &Limits::none(),
                &NoCache,
            )
            .unwrap_err();
            assert_eq!(
                err,
                LimitError::Construct {
                    block: 0,
                    error: ConstructError::MissingMemOperand {
                        index: 1,
                        opcode: Opcode::Ld,
                    },
                },
                "jobs={jobs}"
            );
            assert!(err.to_string().contains("memory operand"), "{err}");
        }
    }

    /// A block above the hard DAG node cap is rejected with a typed
    /// error even when the caller set no `max_block` limit of its own.
    #[test]
    fn oversized_block_is_a_typed_construct_error() {
        use dagsched_core::{ConstructError, MAX_NODES};
        use dagsched_isa::{Instruction, Opcode, Reg};
        let mut program = Program::new();
        for _ in 0..MAX_NODES + 1 {
            program.push(Instruction::int_imm(Opcode::Add, Reg::o(0), 1, Reg::o(1)));
        }
        let model = MachineModel::sparc2();
        let err = schedule_program_batch(
            &program,
            &model,
            &DriverConfig::default(),
            1,
            &Limits::none(),
            &NoCache,
        )
        .unwrap_err();
        assert_eq!(
            err,
            LimitError::Construct {
                block: 0,
                error: ConstructError::TooManyNodes {
                    nodes: MAX_NODES + 1
                },
            }
        );
    }

    #[test]
    fn max_block_limit_rejects_before_compiling() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let limits = Limits::none().with_max_block(4);
        let err = schedule_program_batch(
            &bench.program,
            &model,
            &DriverConfig::default(),
            1,
            &limits,
            &NoCache,
        )
        .unwrap_err();
        assert!(
            matches!(err, LimitError::BlockTooLarge { max: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn expired_deadline_is_a_typed_error_for_any_job_count() {
        let bench = generate(BenchmarkProfile::by_name("dfa").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let limits = Limits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Limits::none()
        };
        for jobs in [1, 4] {
            let err = schedule_program_batch(
                &bench.program,
                &model,
                &DriverConfig::default(),
                jobs,
                &limits,
                &NoCache,
            )
            .unwrap_err();
            assert_eq!(err, LimitError::DeadlineExpired, "jobs={jobs}");
        }
    }

    #[test]
    fn warm_cache_replays_bit_identical_output_and_skips_construction() {
        let bench = generate(BenchmarkProfile::by_name("regex").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = MapCache::default();
        let (cold, cold_stats) =
            schedule_program_batch(&bench.program, &model, &config, 1, &Limits::none(), &cache)
                .unwrap();
        // Only missed blocks were actually constructed (repeated blocks
        // within the program already hit on the cold pass).
        assert!(cold_stats.cache_misses > 0);
        assert_eq!(cold_stats.blocks, cold_stats.cache_misses);
        let total = cold_stats.cache_hits + cold_stats.cache_misses;
        let (warm, warm_stats) =
            schedule_program_batch(&bench.program, &model, &config, 1, &Limits::none(), &cache)
                .unwrap();
        assert_eq!(cold.insns, warm.insns);
        assert_eq!(cold.blocks.len(), warm.blocks.len());
        // Every block hit: no construction work was performed at all.
        assert_eq!(warm_stats.cache_hits, total);
        assert_eq!(warm_stats.cache_misses, 0);
        assert_eq!(warm_stats.blocks, 0, "construction ran on the hit path");
        assert_eq!(warm_stats.nodes, 0);
        assert_eq!(warm_stats.arcs_added, 0);
        assert_eq!(warm_stats.table_probes, 0);
        assert_eq!(warm_stats.construct_ns, 0);
    }

    #[test]
    fn scratch_reuse_matches_the_one_shot_path_and_resets_stats() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let (fresh, fresh_stats) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &Limits::none(),
            &NoCache,
        )
        .unwrap();
        let mut scratch = Scratch::new();
        for round in 0..3 {
            let (reused, stats) = schedule_program_batch_scratch(
                &bench.program,
                &model,
                &config,
                &Limits::none(),
                &NoCache,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(fresh.insns, reused.insns, "round {round}");
            // Stats are per-request, not cumulative across requests.
            assert!(stats.same_counts(&fresh_stats), "round {round}: {stats}");
        }
    }

    #[test]
    fn degrade_policy_levels_are_monotone_in_remaining_budget() {
        let p = DegradePolicy::for_budget(Duration::from_millis(1600));
        assert_eq!(p.soft, Duration::from_millis(400));
        assert_eq!(p.hard, Duration::from_millis(100));
        assert_eq!(p.level_at(Duration::from_millis(1600)), DegradeLevel::None);
        assert_eq!(p.level_at(Duration::from_millis(400)), DegradeLevel::None);
        assert_eq!(
            p.level_at(Duration::from_millis(399)),
            DegradeLevel::CheapConstruction
        );
        assert_eq!(
            p.level_at(Duration::from_millis(100)),
            DegradeLevel::CheapConstruction
        );
        assert_eq!(
            p.level_at(Duration::from_millis(99)),
            DegradeLevel::CriticalPathOnly
        );
        assert_eq!(p.level_at(Duration::ZERO), DegradeLevel::CriticalPathOnly);
        // Rung order is total: ladder comparisons rely on it.
        assert!(DegradeLevel::None < DegradeLevel::CheapConstruction);
        assert!(DegradeLevel::CheapConstruction < DegradeLevel::CriticalPathOnly);
    }

    /// Thresholds that deterministically pin the ladder to one rung for
    /// an hour-away deadline, regardless of test-machine timing.
    fn pinned(soft_secs: u64, hard_secs: u64) -> Limits {
        Limits {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            degrade: Some(DegradePolicy {
                soft: Duration::from_secs(soft_secs),
                hard: Duration::from_secs(hard_secs),
            }),
            ..Limits::none()
        }
    }

    #[test]
    fn level_none_stays_bit_identical_to_the_undegraded_batch() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let (baseline, _) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &Limits::none(),
            &NoCache,
        )
        .unwrap();
        // Remaining budget (1h) is far above both thresholds (1s/0s):
        // the ladder is armed but never fires.
        let (full, stats) =
            schedule_program_batch(&bench.program, &model, &config, 1, &pinned(1, 0), &NoCache)
                .unwrap();
        assert_eq!(stats.degraded_blocks, 0);
        assert_eq!(full.insns, baseline.insns);
    }

    #[test]
    fn soft_rung_swaps_n2_construction_for_table_building() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        // Warren's default construction is n**2 forward.
        let config = DriverConfig::default();
        // soft = 2h > remaining (1h) > hard = 0: every block on rung 1.
        let (out, stats) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &pinned(7200, 0),
            &NoCache,
        )
        .unwrap();
        assert_eq!(out.insns.len(), bench.program.len());
        assert_eq!(stats.degraded_blocks, stats.blocks);
        assert!(stats.degraded_blocks > 0);
        // The n**2 family's pairwise comparisons disappear; the table
        // builders' probes appear — the paper's cost ladder, observed.
        assert_eq!(stats.comparisons, 0, "{stats}");
        assert!(stats.table_probes > 0, "{stats}");
    }

    #[test]
    fn hard_rung_compiles_every_block_on_the_critical_path_floor() {
        let bench = generate(BenchmarkProfile::by_name("cccp").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        // remaining (1h) < hard (2h): every block on the floor.
        let (out, stats) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &pinned(7200, 7200),
            &NoCache,
        )
        .unwrap();
        assert_eq!(out.insns.len(), bench.program.len());
        assert_eq!(stats.degraded_blocks, stats.blocks);
        // Degraded schedules are still valid (compile_block debug-asserts
        // verification) and still bounded in quality: the critical-path
        // floor is a forward stall-aware scheduler.
        // Degraded schedules are bounded in quality: the critical-path
        // floor is still a forward stall-aware scheduler. Per block it
        // may lose a few cycles to program order (it dropped the
        // tie-breaking refinements), but in aggregate it must still win.
        let orig: u64 = out.blocks.iter().map(|r| r.original_makespan).sum();
        let sched: u64 = out.blocks.iter().map(|r| r.scheduled_makespan).sum();
        assert!(
            sched <= orig,
            "floor aggregate {sched} worse than original {orig}"
        );
        for r in &out.blocks {
            assert!(
                r.scheduled_makespan <= r.original_makespan + 8,
                "block {}: floor schedule {} much worse than original {}",
                r.block,
                r.scheduled_makespan,
                r.original_makespan
            );
        }
    }

    #[test]
    fn already_cheap_construction_does_not_count_as_degraded_on_the_soft_rung() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        // Krishnamurthy already builds tables: rung 1 changes nothing.
        let config = DriverConfig {
            scheduler: dagsched_sched::Scheduler::new(dagsched_sched::SchedulerKind::Krishnamurthy),
            ..DriverConfig::default()
        };
        let (cheap, stats) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &pinned(7200, 0),
            &NoCache,
        )
        .unwrap();
        assert_eq!(stats.degraded_blocks, 0);
        let (baseline, _) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &Limits::none(),
            &NoCache,
        )
        .unwrap();
        assert_eq!(cheap.insns, baseline.insns);
    }

    #[test]
    fn latency_inheritance_never_degrades() {
        let bench = generate(BenchmarkProfile::by_name("linpack").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig {
            inherit_latencies: true,
            ..DriverConfig::default()
        };
        let (out, stats) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &pinned(7200, 7200),
            &NoCache,
        )
        .unwrap();
        assert_eq!(stats.degraded_blocks, 0, "carry chains must not degrade");
        let (baseline, _) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &Limits::none(),
            &NoCache,
        )
        .unwrap();
        assert_eq!(out.insns, baseline.insns);
    }

    #[test]
    fn degraded_and_full_compiles_never_share_cache_entries() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = MapCache::default();
        // A key of the block text alone would be shared by both runs.
        // Run full fidelity first, then the floor rung against no
        // cache; here we assert the outputs differ at all, which is
        // what makes shared keys dangerous (the service cache's tests
        // check that the rungs key apart).
        let (full, _) =
            schedule_program_batch(&bench.program, &model, &config, 1, &Limits::none(), &cache)
                .unwrap();
        let (floor, _) = schedule_program_batch(
            &bench.program,
            &model,
            &config,
            1,
            &pinned(7200, 7200),
            &NoCache,
        )
        .unwrap();
        // The floor pipeline legitimately emits different (still valid)
        // orders for at least one block of this profile.
        assert_ne!(full.insns, floor.insns);
    }

    #[test]
    fn inheritance_bypasses_the_cache() {
        let bench = generate(BenchmarkProfile::by_name("linpack").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let config = DriverConfig {
            inherit_latencies: true,
            ..DriverConfig::default()
        };
        let cache = MapCache::default();
        let (_, stats) =
            schedule_program_batch(&bench.program, &model, &config, 1, &Limits::none(), &cache)
                .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        assert!(cache.map.lock().unwrap().is_empty());
    }
}
