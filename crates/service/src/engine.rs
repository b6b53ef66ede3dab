//! Request execution: turn a [`ScheduleRequest`] into a
//! [`ScheduleResponse`] (or a typed [`ErrorReply`]).
//!
//! The daemon's compile workers stop one step short of that: they take
//! the [`Compiled`] schedule and write the reply payload straight from
//! it (`Compiled::write_json`), so no `Vec<String>` of rendered
//! instructions, and no JSON tree, is built for a reply.
//!
//! This is the only place where a request's strings become programs,
//! configurations and limits, so the daemon and any embedded caller
//! (the load generator drives this directly when measuring the
//! no-network ceiling) behave identically. Every failure path returns
//! an [`ErrorReply`]; nothing here panics on user input.

use std::time::{Duration, Instant};

use dagsched_core::{PhaseStats, Scratch};
use dagsched_driver::{
    schedule_program_batch, schedule_program_batch_scratch, BlockReport, DegradePolicy, Limits,
    ScheduledProgram,
};
use dagsched_isa::Program;
use dagsched_pipesim::{simulate, SimOptions};
use dagsched_workloads::{generate, parse_asm, BenchmarkProfile};

use crate::cache::ScheduleCache;
use crate::proto::{
    build_driver_config, write_response_json, BlockSummary, ErrorCode, ErrorReply, RequestInput,
    ScheduleRequest, ScheduleResponse,
};

/// Cap on the debug `linger_ms` knob, so a hostile request cannot park
/// a worker for minutes.
pub const MAX_LINGER_MS: u64 = 10_000;

/// Engine-level limits inherited from the server configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLimits {
    /// Largest schedulable block (`None` = unlimited).
    pub max_block: Option<usize>,
    /// Deadline applied when the request does not carry its own.
    pub default_deadline_ms: Option<u64>,
    /// Cap on per-request `jobs` (`0` = force serial).
    pub max_jobs: usize,
}

/// Materialize the request's program.
fn build_program(input: &RequestInput) -> Result<Program, ErrorReply> {
    let program = match input {
        RequestInput::Asm(text) => parse_asm(text)
            .map_err(|e| ErrorReply::new(ErrorCode::ParseError, format!("parse error: {e}")))?,
        RequestInput::Profile { name, seed } => {
            // The parametric canon DAG-shape profiles resolve first;
            // everything else is a Table 3 lookup.
            if let Some(bench) = dagsched_workloads::generate_canon(name, *seed) {
                bench.program
            } else {
                let profile = BenchmarkProfile::by_name(name).ok_or_else(|| {
                    ErrorReply::new(ErrorCode::BadRequest, format!("unknown profile `{name}`"))
                })?;
                generate(profile, *seed).program
            }
        }
    };
    if program.is_empty() {
        return Err(ErrorReply::new(
            ErrorCode::BadRequest,
            "program contains no instructions",
        ));
    }
    Ok(program)
}

/// Execute one request against `cache`, drawing working storage from
/// the caller's `scratch` for the serial path. The deadline is
/// anchored at the moment of the call — use [`execute_at`] when the
/// request spent time queued first.
pub fn execute(
    req: &ScheduleRequest,
    limits: &EngineLimits,
    cache: &ScheduleCache,
    scratch: &mut Scratch,
) -> Result<ScheduleResponse, ErrorReply> {
    execute_at(req, limits, cache, scratch, Instant::now())
}

/// [`execute`] with the deadline anchored at `arrival` instead of now:
/// a pipelined server counts queue wait against the request's budget,
/// so a reply never arrives later than `arrival + deadline_ms` just
/// because the compile stage was backed up.
pub fn execute_at(
    req: &ScheduleRequest,
    limits: &EngineLimits,
    cache: &ScheduleCache,
    scratch: &mut Scratch,
    arrival: Instant,
) -> Result<ScheduleResponse, ErrorReply> {
    compile_at(req, limits, cache, scratch, arrival).map(Compiled::into_response)
}

/// A request's schedule before it is rendered for the wire: what a
/// daemon compile worker holds between compiling and replying.
pub struct Compiled {
    scheduled: ScheduledProgram,
    stats: PhaseStats,
    cycles: Option<(u64, u64)>,
}

fn summary(b: &BlockReport) -> BlockSummary {
    BlockSummary {
        block: b.block,
        len: b.len,
        original_makespan: b.original_makespan,
        scheduled_makespan: b.scheduled_makespan,
    }
}

impl Compiled {
    /// Whether any block was compiled on a degraded rung.
    pub fn degraded(&self) -> bool {
        self.stats.degraded_blocks > 0
    }

    /// Write the `Response` payload, rendering each emitted instruction
    /// straight into `out`: the bytes of
    /// `self.into_response().to_json().to_string()`.
    pub fn write_json(&self, out: &mut String) {
        write_response_json(
            out,
            &self.scheduled.insns,
            self.scheduled.blocks.iter().map(summary),
            &self.stats,
            self.cycles,
            self.degraded(),
        );
    }

    /// The response [`execute_at`] returns for this schedule.
    pub fn into_response(self) -> ScheduleResponse {
        ScheduleResponse {
            insns: self.scheduled.insns.iter().map(|i| i.to_string()).collect(),
            blocks: self.scheduled.blocks.iter().map(summary).collect(),
            degraded: self.degraded(),
            stats: self.stats,
            cycles: self.cycles,
        }
    }
}

/// Compile `req` with the deadline anchored at `arrival`: everything
/// [`execute_at`] does except building the [`ScheduleResponse`].
pub fn compile_at(
    req: &ScheduleRequest,
    limits: &EngineLimits,
    cache: &ScheduleCache,
    scratch: &mut Scratch,
    arrival: Instant,
) -> Result<Compiled, ErrorReply> {
    if req.debug_panic {
        // Test-only chaos knob: blow up inside the worker so integration
        // tests can watch the supervisor catch the panic, reply with a
        // typed `internal` error, and respawn the worker's state.
        panic!("debug_panic requested by client");
    }

    let program = build_program(&req.input)?;
    let (config, model) = build_driver_config(req)?;

    let mut batch_limits = Limits::none();
    if let Some(max) = limits.max_block {
        batch_limits = batch_limits.with_max_block(max);
    }
    let deadline_ms = req.deadline_ms.or(limits.default_deadline_ms);
    if let Some(ms) = deadline_ms {
        batch_limits = batch_limits.with_deadline_at(arrival + Duration::from_millis(ms));
        if req.degrade {
            // Deadline-aware degradation: as the remaining budget
            // shrinks below policy thresholds, later blocks fall down
            // the cost ladder instead of blowing the deadline outright.
            batch_limits =
                batch_limits.with_degrade(DegradePolicy::for_budget(Duration::from_millis(ms)));
        }
    }

    let jobs = req.jobs.min(limits.max_jobs.max(1));
    let result = if jobs <= 1 {
        schedule_program_batch_scratch(&program, &model, &config, &batch_limits, cache, scratch)
    } else {
        schedule_program_batch(&program, &model, &config, jobs, &batch_limits, cache)
    };
    let (scheduled, stats) = result.map_err(ErrorReply::from)?;

    let cycles = if req.sim {
        let before = simulate(&program.insns, &model, SimOptions::default());
        let after = simulate(&scheduled.insns, &model, SimOptions::default());
        Some((before.cycles, after.cycles))
    } else {
        None
    };

    if req.linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(req.linger_ms.min(MAX_LINGER_MS)));
    }

    Ok(Compiled {
        scheduled,
        stats,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ScheduleCache};

    fn run(req: &ScheduleRequest, cache: &ScheduleCache) -> Result<ScheduleResponse, ErrorReply> {
        let mut scratch = Scratch::new();
        execute(req, &EngineLimits::default(), cache, &mut scratch)
    }

    #[test]
    fn schedules_literal_assembly() {
        let req = ScheduleRequest::asm("ld [%o0], %l0\n add %l0, %o1, %o2\n xor %o3, %o4, %o5");
        let cache = ScheduleCache::default();
        let resp = run(&req, &cache).unwrap();
        assert_eq!(resp.insns.len(), 3);
        assert_eq!(resp.blocks.len(), 1);
        assert!(resp.stats.blocks > 0);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let req = ScheduleRequest::profile("grep", 1991);
        let cache = ScheduleCache::default();
        let cold = run(&req, &cache).unwrap();
        let warm = run(&req, &cache).unwrap();
        assert_eq!(cold.insns, warm.insns, "cache hits must be bit-identical");
        assert_eq!(warm.stats.cache_misses, 0);
        assert!(warm.stats.cache_hits > 0);
        assert_eq!(warm.stats.blocks, 0, "no construction ran on the hit path");
    }

    #[test]
    fn sim_reports_before_after_cycles() {
        let mut req = ScheduleRequest::profile("regex", 1);
        req.sim = true;
        let cache = ScheduleCache::new(CacheConfig::default());
        let resp = run(&req, &cache).unwrap();
        let (before, after) = resp.cycles.unwrap();
        assert!(after <= before);
    }

    #[test]
    fn each_failure_mode_maps_to_its_code() {
        let cache = ScheduleCache::default();
        let cases: Vec<(ScheduleRequest, ErrorCode)> = vec![
            (
                ScheduleRequest::asm("not an instruction"),
                ErrorCode::ParseError,
            ),
            (ScheduleRequest::asm(""), ErrorCode::BadRequest),
            (
                ScheduleRequest::profile("no-such-profile", 1),
                ErrorCode::BadRequest,
            ),
            (
                {
                    let mut r = ScheduleRequest::asm("nop");
                    r.machine = "vax".to_string();
                    r
                },
                ErrorCode::BadRequest,
            ),
        ];
        for (req, want) in cases {
            let err = run(&req, &cache).unwrap_err();
            assert_eq!(err.code, want, "{req:?}: {err}");
        }
    }

    /// Regression: a single block above the DAG core's hard node cap
    /// must come back over the request path as `bad-request` (the DAG
    /// core's typed `TooManyNodes` rejection), not as a worker panic
    /// masquerading as `internal`.
    #[test]
    fn block_above_the_dag_node_cap_is_bad_request() {
        let line = "add %o0, 1, %o1\n";
        let asm = line.repeat(dagsched_core::MAX_NODES + 1);
        let cache = ScheduleCache::default();
        let err = run(&ScheduleRequest::asm(&asm), &cache).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest, "{err}");
        assert!(err.message.contains("16384"), "{err}");
        assert!(!err.code.is_retryable(), "client fault must not be retried");
    }

    #[test]
    fn undegraded_requests_report_degraded_false() {
        let mut req = ScheduleRequest::profile("grep", 7);
        // A generous deadline never crosses the soft threshold, so the
        // full-fidelity pipeline runs and the flag stays off.
        req.deadline_ms = Some(3_600_000);
        let cache = ScheduleCache::default();
        let resp = run(&req, &cache).unwrap();
        assert!(!resp.degraded);
        assert_eq!(resp.stats.degraded_blocks, 0);
    }

    #[test]
    fn tight_deadlines_degrade_or_expire_but_never_fail_otherwise() {
        // With a 1 ms budget the outcome depends on machine speed, but
        // the contract doesn't: either the ladder saved the request
        // (every compiled block is real output) or it expired cleanly.
        let mut req = ScheduleRequest::profile("linpack", 1991);
        req.deadline_ms = Some(1);
        let cache = ScheduleCache::default();
        match run(&req, &cache) {
            Ok(resp) => {
                assert!(!resp.insns.is_empty());
                assert_eq!(resp.degraded, resp.stats.degraded_blocks > 0);
            }
            Err(err) => assert_eq!(err.code, ErrorCode::DeadlineExpired, "{err}"),
        }
    }

    #[test]
    fn degrade_opt_out_is_honoured() {
        let mut req = ScheduleRequest::profile("grep", 7);
        req.deadline_ms = Some(3_600_000);
        req.degrade = false;
        let cache = ScheduleCache::default();
        let resp = run(&req, &cache).unwrap();
        assert!(!resp.degraded);
    }

    #[test]
    fn debug_panic_panics_inside_execute() {
        let req = {
            let mut r = ScheduleRequest::asm("nop");
            r.debug_panic = true;
            r
        };
        let cache = ScheduleCache::default();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = Scratch::new();
            let _ = execute(&req, &EngineLimits::default(), &cache, &mut scratch);
        }));
        assert!(res.is_err(), "debug_panic must actually panic");
    }

    /// Queue wait counts against the budget: a request that *arrived*
    /// longer ago than its deadline expires even though the worker
    /// only just picked it up.
    #[test]
    fn queue_time_counts_against_the_deadline() {
        let mut req = ScheduleRequest::profile("grep", 7);
        req.deadline_ms = Some(50);
        req.degrade = false;
        let cache = ScheduleCache::default();
        let mut scratch = Scratch::new();
        let Some(arrival) = Instant::now().checked_sub(Duration::from_millis(200)) else {
            return; // clock too young to back-date; nothing to assert
        };
        let err = execute_at(
            &req,
            &EngineLimits::default(),
            &cache,
            &mut scratch,
            arrival,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExpired, "{err}");
    }

    #[test]
    fn server_limits_apply_when_the_request_has_none() {
        let req = ScheduleRequest::profile("linpack", 1991);
        let cache = ScheduleCache::default();
        let mut scratch = Scratch::new();
        let limits = EngineLimits {
            max_block: Some(2),
            ..EngineLimits::default()
        };
        let err = execute(&req, &limits, &cache, &mut scratch).unwrap_err();
        assert_eq!(err.code, ErrorCode::BlockTooLarge);

        let limits = EngineLimits {
            default_deadline_ms: Some(0),
            ..EngineLimits::default()
        };
        let err = execute(&req, &limits, &cache, &mut scratch).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExpired);
    }
}
