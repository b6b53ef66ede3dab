//! The daemon: a readiness-driven front end feeding a staged compile
//! pipeline.
//!
//! One [`Reactor`] thread owns every socket: it accepts, assembles
//! frames incrementally, answers cheap frames (ping, metrics, admin,
//! shutdown) inline, and hands each `Request` to the *decode* stage.
//! Decode workers parse and screen the payload (UTF-8 → JSON →
//! [`ScheduleRequest`] → quarantine check), then either attach the
//! request to an identical in-flight compile (single-flight
//! coalescing) or enqueue a new [`CompileJob`]. Compile workers pop
//! *batches* — sized adaptively from queue depth — execute under panic
//! containment with the deadline anchored at arrival time, encode the
//! reply once, and fan it out to the leader plus every coalesced
//! follower through the reactor's completion queue.
//!
//! Backpressure is request-shaped: when the bounded compile queue is
//! full the *request* gets a `busy` + retry hint and the connection
//! stays open — under the old thread-per-connection core a full
//! *connection* queue burned the whole connection. A stalled client no
//! longer pins a worker either way: connections are reactor state, not
//! threads, and a peer that never completes a frame is closed with a
//! typed `idle-timeout` error (the slow-loris bound).
//!
//! # Single-flight coalescing
//!
//! Identical concurrent requests (same content-addressed key the cache
//! and quarantine use: the canonical JSON with `attempt` zeroed) are
//! compiled once. The first becomes the flight's leader; the rest
//! attach as followers and receive a bit-identical copy of the
//! leader's reply (`coalesced_requests` counts them). A request that
//! arrives after the flight finished opens a new one and is served
//! from the now-warm cache.
//!
//! # Panic isolation
//!
//! Unchanged from the blocking core: the compile runs under
//! `catch_unwind`, a panic becomes a typed `internal` reply, the
//! worker's scratch arena is rebuilt, and after
//! [`QUARANTINE_THRESHOLD`] contained panics the payload is refused
//! with `quarantined` up front. One contained crash costs one reply,
//! never the server — shared locks (cache, quarantine, completions,
//! stage queues) all recover from poisoning.
//!
//! # Drain
//!
//! [`ServerHandle::begin_drain`], a `Shutdown` frame, or SIGTERM (when
//! [`ServerConfig::handle_sigterm`] is set) flip one flag. The reactor
//! answers backlog and freshly accepted connections with `draining` +
//! retry hint, lets every in-flight request finish and flush, then
//! exits; the stage queues close, workers join, and a final snapshot
//! folds the WAL before a Unix socket path is unlinked. A served
//! request is never dropped on shutdown, and no accepted connection is
//! left hanging without a reply.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dagsched_core::Scratch;
use dagsched_isa::fnv64;

#[cfg(feature = "fault-injection")]
use crate::faultinject::{Fault, FaultConfig};

use crate::cache::{CacheConfig, ScheduleCache};
use crate::engine::{execute_at, EngineLimits};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::persist::{
    decode_quarantine, encode_quarantine, store_fingerprint, Persistence, DEFAULT_FSYNC_EVERY,
    DEFAULT_WAL_SNAPSHOT_THRESHOLD, KIND_CACHE_ENTRY, KIND_QUARANTINE,
};
use crate::pipeline::{FlightOutcome, PushError, SingleFlight, StageQueue, BUSY_RETRY_MS};
use crate::proto::{
    hex_encode, write_frame, AdminCommand, ErrorCode, ErrorReply, FrameKind, ScheduleRequest,
    ScheduleResponse, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
use crate::reactor::{
    install_sigterm_handler, Completion, Completions, ConnId, Ctx, Handler, Listener, Reactor,
    ReactorConfig,
};
use dagsched_store::Shipment;

/// Contained panics from one payload before it is quarantined.
pub const QUARANTINE_THRESHOLD: u32 = 2;

/// Bound on distinct payloads the quarantine tracks (oldest evicted).
const QUARANTINE_CAPACITY: usize = 64;

/// Retry hint attached to `draining` rejections (a replacement server
/// is typically seconds away in a rolling restart).
const DRAIN_RETRY_MS: u64 = 500;

/// Crash bookkeeping for poison-payload detection. Bounded: a hostile
/// client cannot grow it without also crashing workers, and even then
/// the oldest entry is evicted past [`QUARANTINE_CAPACITY`].
#[derive(Debug, Default)]
struct Quarantine {
    /// `(payload key, contained panics)` in insertion order.
    entries: Mutex<VecDeque<(u64, u32)>>,
}

impl Quarantine {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(u64, u32)>> {
        // A panic while holding this lock is impossible (the critical
        // sections below are panic-free), but recover anyway: the data
        // is monotone counters, always safe to read.
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Contained panics recorded against `key`.
    fn strikes(&self, key: u64) -> u32 {
        self.lock()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Snapshot every `(key, strikes)` fact, insertion order (for
    /// persistence).
    fn export(&self) -> Vec<(u64, u32)> {
        self.lock().iter().copied().collect()
    }

    /// Restore persisted facts, keeping the max strike count per key
    /// and respecting the capacity bound. A payload that earned its
    /// quarantine before a crash is refused by the restarted process
    /// without burning another worker.
    fn restore(&self, facts: &[(u64, u32)]) {
        let mut entries = self.lock();
        for &(key, strikes) in facts {
            if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = slot.1.max(strikes);
                continue;
            }
            if entries.len() >= QUARANTINE_CAPACITY {
                entries.pop_front();
            }
            entries.push_back((key, strikes));
        }
    }

    /// Record one more contained panic against `key`; returns the new
    /// strike count.
    fn record_crash(&self, key: u64) -> u32 {
        let mut entries = self.lock();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = slot.1.saturating_add(1);
            return slot.1;
        }
        if entries.len() >= QUARANTINE_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, 1));
        1
    }
}

/// Where to listen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7117` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Parse an endpoint string: `tcp:HOST:PORT`, `unix:/path`, or a bare
/// `HOST:PORT` (TCP).
pub fn parse_endpoint(s: &str) -> Result<Listen, String> {
    if let Some(rest) = s.strip_prefix("unix:") {
        if rest.is_empty() {
            return Err("unix endpoint needs a path".to_string());
        }
        Ok(Listen::Unix(PathBuf::from(rest)))
    } else if let Some(rest) = s.strip_prefix("tcp:") {
        Ok(Listen::Tcp(rest.to_string()))
    } else if s.contains(':') {
        Ok(Listen::Tcp(s.to_string()))
    } else {
        Err(format!(
            "cannot parse endpoint `{s}` (use tcp:HOST:PORT or unix:/path)"
        ))
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compile-stage worker threads (the decode stage gets half as
    /// many, at least one).
    pub workers: usize,
    /// Bounded request-queue depth per stage; beyond this, `busy`.
    pub queue: usize,
    /// Schedule-cache bounds.
    pub cache: CacheConfig,
    /// Largest accepted frame payload.
    pub max_frame: usize,
    /// Largest schedulable block (`None` = unlimited).
    pub max_block: Option<usize>,
    /// Deadline applied to requests that carry none.
    pub default_deadline_ms: Option<u64>,
    /// Cap on per-request `jobs`.
    pub max_jobs: usize,
    /// Idle timeout between frames (an idle keep-alive client is
    /// disconnected silently, as under the old blocking read timeout).
    pub read_timeout_ms: u64,
    /// Slow-loris bound: a connection that has never completed a frame
    /// (or stalls mid-frame) is answered with a typed `idle-timeout`
    /// error and closed after this long.
    pub first_frame_timeout_ms: u64,
    /// Install a SIGTERM handler that triggers a graceful drain.
    pub handle_sigterm: bool,
    /// Directory for the crash-safe snapshot+WAL store (`None` = the
    /// cache and quarantine are RAM-only and die with the process).
    pub state_dir: Option<PathBuf>,
    /// WAL size (bytes) past which the server compacts into a snapshot.
    pub wal_snapshot_threshold: u64,
    /// Fsync batching for the WAL: one fsync per this many appends
    /// (`0` = only on quarantine facts, compaction and drain).
    pub fsync_every: u64,
    /// Byte-accounted admission budget: when in-flight request
    /// payloads plus cache bytes would exceed this, new requests are
    /// shed with `busy` *before* their payload is admitted to the
    /// pipeline (`None` = unbounded).
    pub mem_budget: Option<u64>,
    /// Deterministic fault injection (chaos testing only).
    #[cfg(feature = "fault-injection")]
    pub faults: Option<FaultConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue: 64,
            cache: CacheConfig::default(),
            max_frame: DEFAULT_MAX_FRAME,
            max_block: None,
            default_deadline_ms: None,
            max_jobs: 8,
            read_timeout_ms: 10_000,
            first_frame_timeout_ms: 2_000,
            handle_sigterm: false,
            state_dir: None,
            wal_snapshot_threshold: DEFAULT_WAL_SNAPSHOT_THRESHOLD,
            fsync_every: DEFAULT_FSYNC_EVERY,
            mem_budget: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// State shared by the reactor and every stage worker.
struct Shared {
    cache: ScheduleCache,
    metrics: Metrics,
    drain: Arc<AtomicBool>,
    limits: EngineLimits,
    max_frame: usize,
    quarantine: Quarantine,
    /// The crash-safe store (present when `state_dir` was configured).
    persist: Option<Arc<Persistence>>,
    /// Admission budget for in-flight payload + cache bytes.
    mem_budget: Option<u64>,
    /// Bytes of request payloads admitted but not yet answered.
    inflight_bytes: AtomicU64,
    #[cfg(feature = "fault-injection")]
    faults: Option<FaultConfig>,
    #[cfg(feature = "fault-injection")]
    fault_seq: AtomicU64,
}

#[cfg(feature = "fault-injection")]
impl Shared {
    /// Draw the next deterministic fault decision.
    fn next_fault(&self) -> Fault {
        match &self.faults {
            Some(cfg) => cfg.decide(self.fault_seq.fetch_add(1, Ordering::Relaxed)),
            None => Fault::None,
        }
    }
}

impl Shared {
    /// Return an admitted payload's bytes to the admission gate.
    fn release_bytes(&self, charge: u64) {
        if charge > 0 {
            self.inflight_bytes.fetch_sub(charge, Ordering::Relaxed);
        }
    }

    /// Metrics snapshot including (when persistent) store health.
    fn metrics_snapshot(&self) -> Json {
        self.metrics.snapshot(
            &self.cache.stats(),
            self.persist.as_ref().map(|p| p.health()).as_ref(),
        )
    }

    /// Compact the store if the WAL has outgrown its threshold.
    fn maybe_compact(&self) {
        if let Some(persist) = &self.persist {
            let _ = persist
                .maybe_compact_with(|| (self.cache.export_entries(), self.quarantine.export()));
        }
    }

    /// Final snapshot on drain: fold everything into a fresh
    /// generation so a clean restart replays the snapshot alone.
    fn final_snapshot(&self) {
        if let Some(persist) = &self.persist {
            let _ = persist.compact(self.cache.export_entries(), &self.quarantine.export());
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline stages
// ---------------------------------------------------------------------

/// A raw `Request` payload headed for the decode stage.
struct DecodeJob {
    conn: ConnId,
    payload: Vec<u8>,
    /// When the frame completed on the wire; the deadline anchors here.
    arrival: Instant,
    /// Bytes charged against the admission gate on entry; released
    /// exactly once, when this request's reply is finished.
    charge: u64,
    #[cfg(feature = "fault-injection")]
    fault: Fault,
}

/// A screened request headed for the compile stage (the flight leader).
struct CompileJob {
    conn: ConnId,
    request: ScheduleRequest,
    /// Canonical request JSON with `attempt` zeroed: the single-flight,
    /// cache, and quarantine identity.
    key: String,
    key_hash: u64,
    arrival: Instant,
    /// Admission-gate bytes carried over from the decode job.
    charge: u64,
    #[cfg(feature = "fault-injection")]
    fault: Fault,
}

/// A coalesced follower awaiting the leader's reply.
struct Recipient {
    conn: ConnId,
    /// Admission-gate bytes for this follower's own payload.
    charge: u64,
    /// Followers still draw their own *frame* fault (reset / truncate /
    /// corrupt applies per recipient); a follower's panic/slow draw is
    /// intentionally unused — the leader's compile is the only compile.
    #[cfg(feature = "fault-injection")]
    fault: Fault,
}

/// Everything a stage worker needs, cheap to clone (all `Arc`s).
#[derive(Clone)]
struct Pipeline {
    shared: Arc<Shared>,
    decode_q: Arc<StageQueue<DecodeJob>>,
    compile_q: Arc<StageQueue<CompileJob>>,
    flights: Arc<SingleFlight<Recipient>>,
    completions: Arc<Completions>,
    /// Requests accepted into the pipeline whose reply has not yet been
    /// pushed as a completion; the drain waits for zero.
    inflight: Arc<AtomicU64>,
}

/// Encode one frame into a byte vector (for completions).
fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len().saturating_add(FRAME_HEADER_LEN));
    let _ = write_frame(&mut frame, kind, payload);
    frame
}

/// Finish one pipeline request with an error reply.
fn finish_error(pipe: &Pipeline, conn: ConnId, reply: &ErrorReply) {
    Metrics::bump(&pipe.shared.metrics.errors);
    if reply.code == ErrorCode::DeadlineExpired {
        Metrics::bump(&pipe.shared.metrics.deadline_expirations);
    }
    let payload = reply.to_json().to_string();
    pipe.completions.push(Completion {
        conn,
        bytes: encode_frame(FrameKind::Error, payload.as_bytes()),
        close: false,
    });
    // Decrement only after the completion is queued: the drain may not
    // observe "idle" while a reply exists nowhere but this stack frame.
    pipe.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Finish one pipeline request with (a copy of) a successful response
/// body, applying any injected frame fault for this recipient.
fn finish_response(
    pipe: &Pipeline,
    conn: ConnId,
    body: &str,
    degraded: bool,
    #[cfg(feature = "fault-injection")] fault: Fault,
) {
    Metrics::bump(&pipe.shared.metrics.responses);
    if degraded {
        Metrics::bump(&pipe.shared.metrics.degraded_replies);
    }
    #[cfg(feature = "fault-injection")]
    let (bytes, close) = apply_response_fault(fault, body);
    #[cfg(not(feature = "fault-injection"))]
    let (bytes, close) = (encode_frame(FrameKind::Response, body.as_bytes()), false);
    pipe.completions.push(Completion { conn, bytes, close });
    pipe.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Decode-stage worker: parse, screen, coalesce or enqueue.
fn decode_loop(pipe: Pipeline) {
    let mut batch: Vec<DecodeJob> = Vec::new();
    while pipe.decode_q.pop_batch(&mut batch) {
        Metrics::bump(&pipe.shared.metrics.batches_dispatched);
        pipe.shared.metrics.batched_requests.fetch_add(
            u64::try_from(batch.len()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        for job in batch.drain(..) {
            decode_one(&pipe, job);
        }
    }
}

fn decode_one(pipe: &Pipeline, job: DecodeJob) {
    let shared = &pipe.shared;
    let request = match parse_request(shared, &job.payload) {
        Ok(request) => request,
        Err(reply) => {
            shared.release_bytes(job.charge);
            return finish_error(pipe, job.conn, &reply);
        }
    };
    let key = canonical_key(&request);
    let key_hash = fnv64(key.as_bytes());
    if shared.quarantine.strikes(key_hash) >= QUARANTINE_THRESHOLD {
        Metrics::bump(&shared.metrics.requests_quarantined);
        shared.release_bytes(job.charge);
        return finish_error(pipe, job.conn, &quarantined_reply());
    }

    // Single-flight: attach to an identical in-flight compile, or open
    // a new flight by enqueueing the leader. The enqueue runs under the
    // flight-table lock, so the leader cannot finish (and remove the
    // flight) before the table knows the flight exists.
    let follower = Recipient {
        conn: job.conn,
        charge: job.charge,
        #[cfg(feature = "fault-injection")]
        fault: job.fault,
    };
    let compile_q = &pipe.compile_q;
    let leader_conn = job.conn;
    // The refusal path hands the whole `CompileJob` back so nothing is
    // lost on a full queue; that makes the closure's `Err` as big as a
    // job, which is the point, not a problem.
    #[allow(clippy::result_large_err)]
    let outcome = pipe.flights.join_or_open(&key, follower, || {
        compile_q.try_push(CompileJob {
            conn: leader_conn,
            request,
            key: key.clone(),
            key_hash,
            arrival: job.arrival,
            charge: job.charge,
            #[cfg(feature = "fault-injection")]
            fault: job.fault,
        })
    });
    match outcome {
        FlightOutcome::Attached => {
            Metrics::bump(&shared.metrics.coalesced_requests);
        }
        FlightOutcome::Opened => {}
        FlightOutcome::Refused(PushError::Full(_)) => {
            Metrics::bump(&shared.metrics.busy_rejections);
            Metrics::bump(&shared.metrics.shed_with_retry_after);
            shared.release_bytes(job.charge);
            finish_error(
                pipe,
                job.conn,
                &ErrorReply::new(
                    ErrorCode::Busy,
                    "all workers busy and the queue is full; retry later",
                )
                .with_retry_after_ms(BUSY_RETRY_MS),
            );
        }
        FlightOutcome::Refused(PushError::Closed(_)) => {
            Metrics::bump(&shared.metrics.drain_rejections);
            Metrics::bump(&shared.metrics.shed_with_retry_after);
            shared.release_bytes(job.charge);
            finish_error(
                pipe,
                job.conn,
                &ErrorReply::new(ErrorCode::Draining, "server is draining")
                    .with_retry_after_ms(DRAIN_RETRY_MS),
            );
        }
    }
}

/// Compile-stage worker: pop adaptively sized batches, execute each
/// leader under containment, fan the reply out to the whole flight.
fn compile_loop(pipe: Pipeline) {
    let mut scratch = Scratch::new();
    let mut batch: Vec<CompileJob> = Vec::new();
    let default_deadline = pipe.shared.limits.default_deadline_ms;
    // EWMA (α = 1/8) of this worker's recent compile times, in µs. A
    // job whose remaining budget cannot absorb an expected compile is
    // shed instead of started: a compile that expires midway burns
    // worker time and still returns an error, so under overload
    // starting it is strictly worse than shedding it. Starts at zero
    // (a cold worker never predictively sheds) and one outlier decays
    // away within a few compiles.
    let mut svc_ewma_us: u64 = 0;
    while pipe.compile_q.pop_batch(&mut batch) {
        Metrics::bump(&pipe.shared.metrics.batches_dispatched);
        pipe.shared.metrics.batched_requests.fetch_add(
            u64::try_from(batch.len()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        for job in batch.drain(..) {
            // The one queue-side deadline check, made per job rather
            // than per batch because a full batch takes tens of
            // milliseconds to work through. It is predictive — elapsed
            // plus one expected compile against the budget — so it
            // sheds work that already expired in the queue and work
            // certain to expire midway alike.
            let doomed = match job.request.deadline_ms.or(default_deadline) {
                Some(ms) => {
                    let elapsed_us =
                        u64::try_from(job.arrival.elapsed().as_micros()).unwrap_or(u64::MAX);
                    elapsed_us.saturating_add(svc_ewma_us) >= ms.saturating_mul(1_000)
                }
                None => false,
            };
            if doomed {
                shed_expired_job(&pipe, job);
            } else {
                let started = Instant::now();
                compile_one(&pipe, &mut scratch, job);
                let spent_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                svc_ewma_us = svc_ewma_us.saturating_sub(svc_ewma_us / 8) + spent_us / 8;
            }
        }
        // Replies are already queued; folding the WAL into a snapshot
        // here never adds request latency.
        pipe.shared.maybe_compact();
    }
}

/// Shed a queued job whose deadline passed — or provably will pass
/// before a compile could finish — while it waited: a typed
/// `deadline-expired` reply for the leader and every coalesced
/// follower, without running the compile.
fn shed_expired_job(pipe: &Pipeline, job: CompileJob) {
    Metrics::bump(&pipe.shared.metrics.shed_expired);
    let reply = ErrorReply::new(
        ErrorCode::DeadlineExpired,
        "deadline expired, or would expire mid-compile, while the request was queued; \
         it was shed without compiling",
    );
    let followers = pipe.flights.finish(&job.key);
    pipe.shared.release_bytes(job.charge);
    finish_error(pipe, job.conn, &reply);
    for f in followers {
        pipe.shared.release_bytes(f.charge);
        finish_error(pipe, f.conn, &reply);
    }
}

fn compile_one(pipe: &Pipeline, scratch: &mut Scratch, job: CompileJob) {
    let outcome = run_compile(
        &pipe.shared,
        scratch,
        &job.request,
        job.key_hash,
        job.arrival,
        #[cfg(feature = "fault-injection")]
        job.fault,
    );
    // Close the flight only now: followers that attached during the
    // compile are collected here; later arrivals open a fresh flight
    // and hit the now-warm cache.
    let followers = pipe.flights.finish(&job.key);
    // The flight is answered: every member's payload leaves the
    // admission gate.
    let flight_charge = followers
        .iter()
        .fold(job.charge, |sum, f| sum.saturating_add(f.charge));
    pipe.shared.release_bytes(flight_charge);
    match outcome {
        Ok(response) => {
            let degraded = response.degraded;
            let body = response.to_json().to_string();
            finish_response(
                pipe,
                job.conn,
                &body,
                degraded,
                #[cfg(feature = "fault-injection")]
                job.fault,
            );
            for f in followers {
                finish_response(
                    pipe,
                    f.conn,
                    &body,
                    degraded,
                    #[cfg(feature = "fault-injection")]
                    f.fault,
                );
            }
        }
        Err(reply) => {
            finish_error(pipe, job.conn, &reply);
            for f in followers {
                finish_error(pipe, f.conn, &reply);
            }
        }
    }
}

/// Parse and screen a raw request payload (decode-stage half of the
/// old `run_request`).
fn parse_request(shared: &Shared, payload: &[u8]) -> Result<ScheduleRequest, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "request payload is not UTF-8"))?;
    let value = Json::parse(text)
        .map_err(|e| ErrorReply::new(ErrorCode::ParseError, format!("request is not JSON: {e}")))?;
    let request = ScheduleRequest::from_json(&value)?;
    if request.attempt > 0 {
        Metrics::bump(&shared.metrics.retries_attempted);
    }
    Ok(request)
}

/// The canonical request identity: a re-serialization with the
/// `attempt` counter zeroed, so retries coalesce with (and are
/// quarantined alongside) their original.
fn canonical_key(request: &ScheduleRequest) -> String {
    let mut canonical = request.clone();
    canonical.attempt = 0;
    canonical.to_json().to_string()
}

fn quarantined_reply() -> ErrorReply {
    ErrorReply::new(
        ErrorCode::Quarantined,
        format!(
            "this request has crashed {QUARANTINE_THRESHOLD} workers and is quarantined; \
             do not retry it"
        ),
    )
}

/// Execute one screened request under panic containment (compile-stage
/// half of the old `run_request`).
fn run_compile(
    shared: &Shared,
    scratch: &mut Scratch,
    request: &ScheduleRequest,
    key_hash: u64,
    arrival: Instant,
    #[cfg(feature = "fault-injection")] injected: Fault,
) -> Result<ScheduleResponse, ErrorReply> {
    // Panic containment: a crash anywhere in the pipeline becomes a
    // typed reply. The scratch arena may hold half-mutated state after
    // an unwind, so it is rebuilt — the logical equivalent of
    // respawning the worker, without paying for a new OS thread.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Chaos faults that strike *inside* the worker are injected
        // within the containment boundary, so an injected panic walks
        // the same supervision path a real one would.
        #[cfg(feature = "fault-injection")]
        match injected {
            Fault::Panic => panic!("injected fault: worker panic"),
            Fault::Slow(ms) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        execute_at(request, &shared.limits, &shared.cache, scratch, arrival)
    }));
    match outcome {
        Ok(result) => result,
        Err(_panic) => {
            Metrics::bump(&shared.metrics.panics_caught);
            *scratch = Scratch::new();
            Metrics::bump(&shared.metrics.workers_respawned);
            let strikes = shared.quarantine.record_crash(key_hash);
            // Persist the strike immediately (fsynced): a poison
            // payload must not get a fresh set of workers to kill just
            // because the process it crashed was itself restarted.
            if let Some(persist) = &shared.persist {
                persist.append_quarantine(key_hash, strikes);
            }
            Err(ErrorReply::new(
                ErrorCode::Internal,
                format!(
                    "worker panicked while handling this request (strike {strikes}/{QUARANTINE_THRESHOLD}); \
                     the worker was respawned with a fresh arena"
                ),
            ))
        }
    }
}

/// The old single-thread request path: parse, screen, and execute one
/// payload end to end. Kept as the unit-test seam for the decode +
/// compile halves.
#[cfg(test)]
fn run_request(
    shared: &Shared,
    scratch: &mut Scratch,
    payload: &[u8],
    #[cfg(feature = "fault-injection")] injected: Fault,
) -> Result<ScheduleResponse, ErrorReply> {
    let request = parse_request(shared, payload)?;
    let key = canonical_key(&request);
    let key_hash = fnv64(key.as_bytes());
    if shared.quarantine.strikes(key_hash) >= QUARANTINE_THRESHOLD {
        Metrics::bump(&shared.metrics.requests_quarantined);
        return Err(quarantined_reply());
    }
    let result = run_compile(
        shared,
        scratch,
        &request,
        key_hash,
        Instant::now(),
        #[cfg(feature = "fault-injection")]
        injected,
    );
    if matches!(&result, Ok(resp) if resp.degraded) {
        Metrics::bump(&shared.metrics.degraded_replies);
    }
    result
}

/// Build a deliberately damaged response frame, or none at all.
/// Returns the bytes to deliver plus whether the connection must close
/// once they flush.
#[cfg(feature = "fault-injection")]
fn apply_response_fault(fault: Fault, body: &str) -> (Vec<u8>, bool) {
    match fault {
        Fault::ResetConnection => (Vec::new(), true), // close without a byte
        Fault::TruncateFrame => {
            // Encode the whole frame, then deliver only a prefix: the
            // client sees a header promising more bytes than arrive.
            let frame = encode_frame(FrameKind::Response, body.as_bytes());
            let cut = (frame.len() / 2).clamp(1, frame.len());
            (frame[..cut].to_vec(), true)
        }
        Fault::CorruptFrame => {
            // Flip bits in the payload (frame header stays valid): the
            // client reads a well-formed frame of undecodable JSON.
            let mut payload = body.as_bytes().to_vec();
            for b in payload.iter_mut() {
                *b ^= 0x55;
            }
            (encode_frame(FrameKind::Response, &payload), true)
        }
        Fault::None | Fault::Panic | Fault::Slow(_) => {
            (encode_frame(FrameKind::Response, body.as_bytes()), false)
        }
    }
}

// ---------------------------------------------------------------------
// The reactor handler
// ---------------------------------------------------------------------

/// Protocol logic the daemon plugs into the [`Reactor`].
struct ServeHandler {
    pipe: Pipeline,
}

impl ServeHandler {
    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, payload: Vec<u8>) {
        let shared = Arc::clone(&self.pipe.shared);
        Metrics::bump(&shared.metrics.requests);
        if ctx.draining() && ctx.requests_seen(conn) > 0 {
            // In-flight work is completed during a drain, but a
            // connection that already got its answer is asked to go
            // away.
            Metrics::bump(&shared.metrics.drain_rejections);
            Metrics::bump(&shared.metrics.shed_with_retry_after);
            Metrics::bump(&shared.metrics.errors);
            ctx.send_error(
                conn,
                &ErrorReply::new(ErrorCode::Draining, "server is draining")
                    .with_retry_after_ms(DRAIN_RETRY_MS),
            );
            if !ctx.has_pending(conn) {
                ctx.close_after_flush(conn);
            }
            return;
        }
        ctx.note_request(conn);
        // Byte-accounted admission: when a memory budget is configured,
        // the request's payload is only admitted if in-flight payloads
        // plus cache growth still fit — shedding happens *before* the
        // pipeline takes ownership of the bytes, never as an OOM later.
        let charge = u64::try_from(payload.len()).unwrap_or(u64::MAX);
        if let Some(budget) = shared.mem_budget {
            let projected = shared
                .inflight_bytes
                .load(Ordering::Relaxed)
                .saturating_add(charge)
                .saturating_add(u64::try_from(shared.cache.stats().bytes).unwrap_or(u64::MAX));
            if projected > budget {
                Metrics::bump(&shared.metrics.shed_mem_budget);
                Metrics::bump(&shared.metrics.busy_rejections);
                Metrics::bump(&shared.metrics.shed_with_retry_after);
                Metrics::bump(&shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(ErrorCode::Busy, "memory budget exhausted; retry later")
                        .with_retry_after_ms(BUSY_RETRY_MS),
                );
                return;
            }
        }
        shared.inflight_bytes.fetch_add(charge, Ordering::Relaxed);
        let job = DecodeJob {
            conn,
            payload,
            arrival: Instant::now(),
            charge,
            #[cfg(feature = "fault-injection")]
            fault: shared.next_fault(),
        };
        match self.pipe.decode_q.try_push(job) {
            Ok(()) => {
                // Exactly one completion will come back for this job
                // (reply, coalesced reply, or typed rejection).
                self.pipe.inflight.fetch_add(1, Ordering::SeqCst);
                ctx.expect_reply(conn);
            }
            Err(PushError::Full(_)) => {
                shared.release_bytes(charge);
                Metrics::bump(&shared.metrics.busy_rejections);
                Metrics::bump(&shared.metrics.shed_with_retry_after);
                Metrics::bump(&shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(
                        ErrorCode::Busy,
                        "all workers busy and the queue is full; retry later",
                    )
                    .with_retry_after_ms(BUSY_RETRY_MS),
                );
            }
            Err(PushError::Closed(_)) => {
                shared.release_bytes(charge);
                Metrics::bump(&shared.metrics.drain_rejections);
                Metrics::bump(&shared.metrics.shed_with_retry_after);
                Metrics::bump(&shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(ErrorCode::Draining, "server is draining")
                        .with_retry_after_ms(DRAIN_RETRY_MS),
                );
                ctx.close_after_flush(conn);
            }
        }
    }
}

impl Handler for ServeHandler {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: FrameKind, payload: Vec<u8>) {
        match kind {
            FrameKind::Ping => {
                ctx.send(conn, FrameKind::Pong, Json::Null.to_string().as_bytes());
            }
            FrameKind::Metrics => {
                let snap = self.pipe.shared.metrics_snapshot().to_string();
                ctx.send(conn, FrameKind::Metrics, snap.as_bytes());
            }
            FrameKind::Admin => match handle_admin(&self.pipe.shared, &payload) {
                Ok(reply) => {
                    ctx.send(conn, FrameKind::AdminReply, reply.to_string().as_bytes());
                }
                Err(reply) => {
                    Metrics::bump(&self.pipe.shared.metrics.errors);
                    ctx.send_error(conn, &reply);
                }
            },
            FrameKind::Shutdown => {
                ctx.begin_drain();
                self.pipe.completions.wake();
                ctx.send(conn, FrameKind::Pong, Json::Null.to_string().as_bytes());
                ctx.close_after_flush(conn);
            }
            FrameKind::Request => self.on_request(ctx, conn, payload),
            other => {
                Metrics::bump(&self.pipe.shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(
                        ErrorCode::BadRequest,
                        format!("unexpected client frame kind {other:?}"),
                    ),
                );
                ctx.close_after_flush(conn);
            }
        }
    }

    fn on_accept(&mut self) {
        Metrics::bump(&self.pipe.shared.metrics.connections);
    }

    fn on_drain_reject(&mut self) {
        Metrics::bump(&self.pipe.shared.metrics.drain_rejections);
        Metrics::bump(&self.pipe.shared.metrics.shed_with_retry_after);
        Metrics::bump(&self.pipe.shared.metrics.errors);
    }

    fn on_frame_error(&mut self, _reply: &ErrorReply) {
        Metrics::bump(&self.pipe.shared.metrics.errors);
    }

    fn on_idle_timeout(&mut self) {
        Metrics::bump(&self.pipe.shared.metrics.idle_timeouts);
        Metrics::bump(&self.pipe.shared.metrics.errors);
    }

    fn idle(&self) -> bool {
        self.pipe.inflight.load(Ordering::SeqCst) == 0
    }
}

// ---------------------------------------------------------------------
// Handle + serve
// ---------------------------------------------------------------------

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::begin_drain`] then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    thread: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (useful with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The bound Unix socket path, if listening on one.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// An endpoint string a [`crate::client::Client`] can connect to.
    pub fn endpoint(&self) -> String {
        match (&self.local_addr, &self.unix_path) {
            (Some(addr), _) => format!("tcp:{addr}"),
            (None, Some(path)) => format!("unix:{}", path.display()),
            (None, None) => unreachable!("server listens somewhere"),
        }
    }

    /// Stop accepting new work and begin a graceful drain.
    pub fn begin_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        // Interrupt the poll so the drain starts on this tick, not the
        // next timeout.
        self.completions.wake();
    }

    /// Whether a drain has been requested (by any trigger).
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst)
    }

    /// Snapshot the server counters.
    pub fn metrics(&self) -> Json {
        self.shared.metrics_snapshot()
    }

    /// Wait for the reactor and stage workers to finish (after a drain
    /// has been triggered).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawn the decode and compile stage workers; on any spawn failure the
/// queues are closed and already-started workers joined.
fn spawn_stage_workers(compile_workers: usize, pipe: &Pipeline) -> io::Result<Vec<JoinHandle<()>>> {
    let mut workers = Vec::new();
    let decode_workers = (compile_workers / 2).clamp(1, 4);
    let mut spawn_all = || -> io::Result<()> {
        for i in 0..decode_workers {
            let p = pipe.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dagsched-decode-{i}"))
                    .spawn(move || decode_loop(p))?,
            );
        }
        for i in 0..compile_workers {
            let p = pipe.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dagsched-compile-{i}"))
                    .spawn(move || compile_loop(p))?,
            );
        }
        Ok(())
    };
    match spawn_all() {
        Ok(()) => Ok(workers),
        Err(e) => {
            pipe.decode_q.close();
            pipe.compile_q.close();
            for h in workers {
                let _ = h.join();
            }
            Err(e)
        }
    }
}

/// Bind `listen` and start serving under `config`.
pub fn serve(listen: Listen, config: ServerConfig) -> io::Result<ServerHandle> {
    let (listener, local_addr, unix_path) = Listener::bind(listen)?;

    if config.handle_sigterm {
        install_sigterm_handler();
    }

    // Recover persisted state *before* the first connection: the cache
    // starts warm, the quarantine remembers its poison payloads, and
    // only then is the write-through hook installed (so recovery never
    // re-logs what it just read).
    let cache = ScheduleCache::new(config.cache);
    let quarantine = Quarantine::default();
    let metrics = Metrics::default();
    let persist = match &config.state_dir {
        Some(dir) => {
            let (persistence, recovered) =
                Persistence::open(dir, config.wal_snapshot_threshold, config.fsync_every)?;
            let mut admitted = 0u64;
            for bytes in &recovered.cache_entries {
                if cache.import_entry(bytes) {
                    admitted += 1;
                }
            }
            quarantine.restore(&recovered.quarantine);
            metrics.recovered_entries.store(admitted, Ordering::Relaxed);
            metrics.recovery_truncated_records.store(
                recovered.report.truncated_records + recovered.report.snapshots_rejected,
                Ordering::Relaxed,
            );
            let persistence = Arc::new(persistence);
            let sink = Arc::clone(&persistence);
            cache.set_writer(Box::new(move |bytes| sink.append_cache_entry(bytes)));
            Some(persistence)
        }
        None => None,
    };

    let drain = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        cache,
        metrics,
        drain: Arc::clone(&drain),
        limits: EngineLimits {
            max_block: config.max_block,
            default_deadline_ms: config.default_deadline_ms,
            max_jobs: config.max_jobs,
        },
        max_frame: config.max_frame,
        quarantine,
        persist,
        mem_budget: config.mem_budget,
        inflight_bytes: AtomicU64::new(0),
        #[cfg(feature = "fault-injection")]
        faults: config.faults,
        #[cfg(feature = "fault-injection")]
        fault_seq: AtomicU64::new(0),
    });

    let compile_workers = config.workers.max(1);
    let queue_cap = config.queue.max(1);
    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            max_frame: shared.max_frame,
            idle_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            first_frame_timeout: Duration::from_millis(config.first_frame_timeout_ms.max(1)),
            drain_message: "server is draining",
            drain_retry_ms: DRAIN_RETRY_MS,
        },
        Arc::clone(&drain),
    )?;
    let completions = reactor.completions();
    let pipe = Pipeline {
        shared: Arc::clone(&shared),
        decode_q: Arc::new(StageQueue::new(
            queue_cap,
            (compile_workers / 2).clamp(1, 4),
        )),
        compile_q: Arc::new(StageQueue::new(queue_cap, compile_workers)),
        flights: Arc::new(SingleFlight::default()),
        completions: Arc::clone(&completions),
        inflight: Arc::new(AtomicU64::new(0)),
    };
    let workers = spawn_stage_workers(compile_workers, &pipe)?;

    let reactor_pipe = pipe.clone();
    let cleanup_path = reactor.unix_path();
    let thread = match std::thread::Builder::new()
        .name("dagsched-reactor".to_string())
        .spawn(move || {
            let mut handler = ServeHandler { pipe: reactor_pipe };
            reactor.run(&mut handler);
            // Drain finished: no new work can arrive. Close the stage
            // queues so workers exit, join them, then fold the final
            // snapshot and unlink a unix socket path.
            handler.pipe.decode_q.close();
            handler.pipe.compile_q.close();
            for h in workers {
                let _ = h.join();
            }
            handler.pipe.shared.final_snapshot();
            #[cfg(unix)]
            if let Some(path) = &cleanup_path {
                let _ = std::fs::remove_file(path);
            }
            #[cfg(not(unix))]
            let _ = cleanup_path;
        }) {
        Ok(t) => t,
        Err(e) => {
            pipe.decode_q.close();
            pipe.compile_q.close();
            return Err(e);
        }
    };

    Ok(ServerHandle {
        shared,
        completions,
        thread: Some(thread),
        local_addr,
        unix_path,
    })
}

/// Answer one admin command. The daemon implements the snapshot
/// shipping pair (warm-spare promotion); cluster membership commands
/// belong to the router and are refused with a typed error.
fn handle_admin(shared: &Shared, payload: &[u8]) -> Result<Json, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "admin payload is not UTF-8"))?;
    let value = Json::parse(text).map_err(|e| {
        ErrorReply::new(
            ErrorCode::ParseError,
            format!("admin payload is not JSON: {e}"),
        )
    })?;
    match AdminCommand::from_json(&value)? {
        AdminCommand::SnapshotExport => {
            // Export the *live* state, not the on-disk snapshot: the
            // cache holds everything recovery plus fresh compiles
            // produced, which is a superset of any snapshot generation.
            let mut records: Vec<(u8, Vec<u8>)> = shared
                .cache
                .export_entries()
                .into_iter()
                .map(|bytes| (KIND_CACHE_ENTRY, bytes))
                .collect();
            let entries = records.len() as u64;
            for (key, strikes) in shared.quarantine.export() {
                records.push((KIND_QUARANTINE, encode_quarantine(key, strikes).to_vec()));
            }
            let generation = shared
                .persist
                .as_ref()
                .map(|p| p.health().snapshot_generation)
                .unwrap_or(0);
            let shipment = Shipment::new(store_fingerprint(), generation, records);
            Ok(Json::obj(vec![
                ("ok", Json::from(true)),
                ("entries", Json::from(entries)),
                ("generation", Json::from(generation)),
                (
                    "shipment",
                    Json::from(hex_encode(&shipment.encode()).as_str()),
                ),
            ]))
        }
        AdminCommand::SnapshotInstall { shipment } => {
            let ship = Shipment::decode(&shipment).map_err(|e| {
                ErrorReply::new(ErrorCode::BadRequest, format!("undecodable shipment: {e}"))
            })?;
            if ship.fingerprint != store_fingerprint() {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    "shipment fingerprint does not match this server's configuration",
                ));
            }
            let mut installed = 0u64;
            let mut skipped = 0u64;
            for (kind, payload) in &ship.records {
                match *kind {
                    KIND_CACHE_ENTRY => {
                        if shared.cache.import_entry(payload) {
                            installed += 1;
                            // Imports bypass the cache's write-through
                            // hook (recovery must not re-log reads), so
                            // land them in the WAL explicitly: a warm
                            // spare stays warm across its own restarts.
                            if let Some(persist) = &shared.persist {
                                persist.append_cache_entry(payload);
                            }
                        } else {
                            skipped += 1;
                        }
                    }
                    KIND_QUARANTINE => match decode_quarantine(payload) {
                        Some(fact) => {
                            shared.quarantine.restore(&[fact]);
                            if let Some(persist) = &shared.persist {
                                persist.append_quarantine(fact.0, fact.1);
                            }
                        }
                        None => skipped += 1,
                    },
                    _ => skipped += 1,
                }
            }
            if let Some(persist) = &shared.persist {
                let _ = persist.sync();
            }
            Ok(Json::obj(vec![
                ("ok", Json::from(true)),
                ("installed", Json::from(installed)),
                ("skipped", Json::from(skipped)),
                ("donor_generation", Json::from(ship.generation)),
            ]))
        }
        AdminCommand::AddShard { .. } | AdminCommand::RemoveShard { .. } | AdminCommand::Status => {
            Err(ErrorReply::new(
                ErrorCode::BadRequest,
                "cluster membership commands are answered by the router, not a shard",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse() {
        assert_eq!(
            parse_endpoint("tcp:127.0.0.1:7117"),
            Ok(Listen::Tcp("127.0.0.1:7117".to_string()))
        );
        assert_eq!(
            parse_endpoint("127.0.0.1:0"),
            Ok(Listen::Tcp("127.0.0.1:0".to_string()))
        );
        assert_eq!(
            parse_endpoint("unix:/tmp/d.sock"),
            Ok(Listen::Unix(PathBuf::from("/tmp/d.sock")))
        );
        assert!(parse_endpoint("nonsense").is_err());
        assert!(parse_endpoint("unix:").is_err());
    }

    fn test_shared() -> Shared {
        Shared {
            cache: ScheduleCache::default(),
            metrics: Metrics::default(),
            drain: Arc::new(AtomicBool::new(false)),
            limits: EngineLimits::default(),
            max_frame: DEFAULT_MAX_FRAME,
            quarantine: Quarantine::default(),
            persist: None,
            mem_budget: None,
            inflight_bytes: AtomicU64::new(0),
            #[cfg(feature = "fault-injection")]
            faults: None,
            #[cfg(feature = "fault-injection")]
            fault_seq: AtomicU64::new(0),
        }
    }

    /// Feature-agnostic shim over `run_request` for these tests.
    fn run(
        shared: &Shared,
        scratch: &mut Scratch,
        payload: &[u8],
    ) -> Result<ScheduleResponse, ErrorReply> {
        #[cfg(feature = "fault-injection")]
        return run_request(shared, scratch, payload, Fault::None);
        #[cfg(not(feature = "fault-injection"))]
        run_request(shared, scratch, payload)
    }

    #[test]
    fn quarantine_counts_strikes_per_key_and_evicts_the_oldest() {
        let q = Quarantine::default();
        assert_eq!(q.strikes(7), 0);
        assert_eq!(q.record_crash(7), 1);
        assert_eq!(q.record_crash(7), 2);
        assert_eq!(q.record_crash(9), 1);
        assert_eq!(q.strikes(7), 2);
        assert_eq!(q.strikes(9), 1);
        // Flood with fresh keys: the bounded deque evicts key 7 first.
        for k in 100..(100 + QUARANTINE_CAPACITY as u64) {
            q.record_crash(k);
        }
        assert_eq!(q.strikes(7), 0, "oldest entry evicted");
        assert!(q.lock().len() <= QUARANTINE_CAPACITY);
    }

    #[test]
    fn payload_hash_is_stable_and_spreads() {
        let a = fnv64(b"{\"asm\":\"nop\"}");
        assert_eq!(a, fnv64(b"{\"asm\":\"nop\"}"));
        assert_ne!(a, fnv64(b"{\"asm\":\"sub %o0, %o1, %o2\"}"));
    }

    #[test]
    fn canonical_keys_ignore_the_attempt_counter() {
        let first =
            ScheduleRequest::from_json(&Json::parse(r#"{"asm":"nop","attempt":0}"#).unwrap())
                .unwrap();
        let retry =
            ScheduleRequest::from_json(&Json::parse(r#"{"asm":"nop","attempt":3}"#).unwrap())
                .unwrap();
        assert_eq!(canonical_key(&first), canonical_key(&retry));
        let other = ScheduleRequest::from_json(&Json::parse(r#"{"asm":"sethi 42, %g1"}"#).unwrap())
            .unwrap();
        assert_ne!(canonical_key(&first), canonical_key(&other));
    }

    #[test]
    fn a_panicking_request_is_contained_then_quarantined() {
        let shared = test_shared();
        let mut scratch = Scratch::new();
        let poison = br#"{"asm":"nop","debug_panic":true}"#;

        // Strikes 1 and 2: typed internal errors, worker respawned.
        for strike in 1..=QUARANTINE_THRESHOLD {
            let err = run(&shared, &mut scratch, poison).unwrap_err();
            assert_eq!(err.code, ErrorCode::Internal, "strike {strike}");
            assert!(err.code.is_retryable());
        }
        // Strike 3: refused up front without burning another worker.
        let err = run(&shared, &mut scratch, poison).unwrap_err();
        assert_eq!(err.code, ErrorCode::Quarantined);
        assert!(!err.code.is_retryable());

        let m = &shared.metrics;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(load(&m.panics_caught), u64::from(QUARANTINE_THRESHOLD));
        assert_eq!(load(&m.workers_respawned), u64::from(QUARANTINE_THRESHOLD));
        assert_eq!(load(&m.requests_quarantined), 1);

        // A retry of the same payload with a bumped attempt counter
        // maps to the same quarantine entry: no third crash.
        let retry = br#"{"asm":"nop","debug_panic":true,"attempt":3}"#;
        let err = run(&shared, &mut scratch, retry).unwrap_err();
        assert_eq!(err.code, ErrorCode::Quarantined);
        assert_eq!(load(&m.retries_attempted), 1);
        assert_eq!(load(&m.panics_caught), u64::from(QUARANTINE_THRESHOLD));

        // The worker (and its rebuilt arena) still serves healthy work.
        let resp = run(&shared, &mut scratch, br#"{"asm":"nop"}"#).unwrap();
        assert_eq!(resp.insns.len(), 1);
        assert!(!resp.degraded);
    }

    #[test]
    fn shedding_replies_carry_retry_hints() {
        // Both hints are nonzero, or clients would busy-spin.
        const {
            assert!(DRAIN_RETRY_MS > 0);
            assert!(BUSY_RETRY_MS > 0);
        }
        let reply = ErrorReply::new(ErrorCode::Busy, "x").with_retry_after_ms(BUSY_RETRY_MS);
        assert_eq!(reply.retry_after_ms, Some(BUSY_RETRY_MS));
    }

    #[test]
    fn admission_charges_balance_across_release() {
        let shared = test_shared();
        shared.inflight_bytes.fetch_add(4096, Ordering::Relaxed);
        shared.release_bytes(4096);
        assert_eq!(shared.inflight_bytes.load(Ordering::Relaxed), 0);
        // Zero charges are free and never underflow.
        shared.release_bytes(0);
        assert_eq!(shared.inflight_bytes.load(Ordering::Relaxed), 0);
    }
}
