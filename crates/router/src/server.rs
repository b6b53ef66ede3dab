//! The router daemon: a readiness-driven front end (the same
//! [`Reactor`] the shard daemon runs on), request forwarding with the
//! failover ladder, hedged requests, background replication, health
//! probing, and membership administration.
//!
//! # Front end
//!
//! One reactor thread owns every client socket: nonblocking accepts,
//! incremental frame decode, buffered writes, idle and slow-loris
//! timeouts. `Ping`/`Metrics`/`Shutdown` are answered inline; `Request`
//! and `Admin` frames are pushed onto a bounded job queue served by a
//! small pool of forwarding workers (each owning its keep-alive shard
//! connections), so one slow shard dial no longer stalls every other
//! client on the same connection thread. When the queue is full the
//! client gets a retryable `busy` with a hint instead of silence.
//!
//! # Failover ladder
//!
//! A request's key is the FNV-1a hash of its canonical JSON (the
//! `attempt` counter zeroed — the same idempotency identity the
//! shards' cache and quarantine use), so the same request always lands
//! on the same shard and its schedule cache stays hot. The ladder:
//!
//! 1. **Hedged primary**: the first ring replica; once the forward
//!    outlives the shard's recent latency quantile, the same request
//!    is raced against the next replica and the first answer wins (see
//!    below).
//! 2. **Ring successors**: the remaining R−1 replicas, in ring order.
//!    Each hop counts as a `failover`.
//! 3. **Any live shard**, ordered by [`ShardState::health_score`]:
//!    when the whole replica set is down the request is still served —
//!    as a cache miss on a foreign shard, counted `rerouted`, never an
//!    error.
//! 4. **No live shard at all**: a retryable `busy` error with a retry
//!    hint; clients ride it out with their own backoff.
//!
//! Requests the shard *rejected* (bad request, quarantined, deadline
//! expired) are relayed as-is without failover — they would fail
//! identically everywhere, and the rejection proves the shard is
//! healthy. Frame-level complaints (`malformed-frame`,
//! `oversized-frame`, `parse-error`) are the exception: the router
//! always emits well-formed frames, so a shard claiming otherwise read
//! corrupted bytes — those count as link evidence and the ladder moves
//! on.
//!
//! # Gray failures: breakers and hedges
//!
//! Binary health cannot express a shard that is *slow* — wedged disk,
//! half-dead link, asymmetric partition — so liveness is a per-shard
//! circuit breaker (see [`crate::shard`]) plus a latency EWMA. Only
//! `Closed` shards take live traffic; a tripped breaker is revived by
//! the prober through half-open trial pings and must string together
//! `revive_threshold` successes before re-entering the ring.
//!
//! Hedging bounds tail latency the breaker cannot see: when a forward
//! to the primary outlives that shard's observed `hedge_quantile`
//! latency (clamped to `[hedge_min_ms, hedge_max_ms]`), the router
//! launches the same request at the next replica and relays whichever
//! answer lands first, cancelling the loser (`hedged_requests`,
//! `hedge_wins`). Racing a compile is safe: requests are
//! content-addressed and idempotent, and replies are deterministic —
//! both racers return bit-identical bytes, so the client cannot
//! observe which one won.
//!
//! # Overload: deadline propagation and retry budgets
//!
//! A request that carried `deadline_ms` has its remaining budget
//! re-derived at every forward site: the time it spent queued in the
//! router (and burned on earlier rungs) is subtracted before the
//! deadline is re-encoded for the shard hop, so a shard never works a
//! budget the client has already given up on. When less than
//! [`dagsched_proto::MIN_FORWARD_DEADLINE_MS`] remains the router
//! fails fast with `deadline-expired` instead of forwarding
//! (`deadline_expired_in_router`), and when the *primary's* estimated
//! queue delay alone would blow the budget the ladder starts at the
//! healthiest other replica instead (`deadline_reroutes`). Remaining
//! budgets at forward time feed the `deadline_propagated_ms`
//! histogram.
//!
//! Every retry the router originates — client-level redials, failover
//! rungs past the first attempt, hedge launches — draws from one
//! shared token-bucket [`RetryBudget`] refilled by successful
//! forwards. Under a healthy cluster the bucket stays full and the
//! ladder behaves as before; when shards wedge, the bucket drains and
//! the router stops multiplying load (`retry_budget_exhausted`),
//! which is the difference between a recoverable overload and a
//! metastable retry storm.
//!
//! # Replication
//!
//! A fresh compile on the primary (`cache_misses > 0` in the reply)
//! enqueues the same canonical request for the key's second ring
//! replica. A background replicator drains the queue and re-issues the
//! request there, warming the successor's cache so the primary's death
//! does not cold-start its working set. The queue is bounded; when
//! replication cannot keep up, jobs are dropped and counted
//! (`replication_dropped`) rather than backpressuring the serving path.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dagsched_proto::json::Json;
use dagsched_proto::{
    hex_decode, remaining_deadline_ms, write_frame, AdminCommand, ErrorCode, ErrorReply, FrameKind,
    ScheduleRequest, ScheduleResponse, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
use dagsched_service::client::{CancelHandle, Client, ClientError, RetryBudget, RetryPolicy};
use dagsched_service::pipeline::{PushError, StageQueue, BUSY_RETRY_MS};
use dagsched_service::reactor::{
    install_sigterm_handler, lock_recover, Completion, Completions, ConnId, Ctx, Handler, Listener,
    Reactor, ReactorConfig,
};
use dagsched_service::server::Listen;

use crate::ring::{fnv64, Ring};
use crate::shard::{RouterMetrics, ShardConns, ShardState, Transition};

/// Retry hint attached to `busy` rejections when no shard is live.
const NO_SHARD_RETRY_MS: u64 = 200;

/// Retry hint attached to `draining` rejections.
const DRAIN_RETRY_MS: u64 = 500;

/// Socket timeout for health probes (a hung shard must not wedge the
/// prober).
const PROBE_TIMEOUT: Duration = Duration::from_millis(2000);

/// Slack past the per-attempt socket timeout before a hedged race is
/// abandoned outright (both racers cancelled).
const HEDGE_RACE_SLACK: Duration = Duration::from_secs(5);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Initial shard endpoints (`unix:/path` or `host:port`).
    pub shards: Vec<String>,
    /// Replica-set size R: a key's primary plus R−1 ring successors.
    pub replicas: usize,
    /// Consecutive failures (probe or forward) before a shard's
    /// breaker opens.
    pub fail_threshold: u32,
    /// Consecutive successes an open breaker must string together
    /// (half-open trials) before the shard rejoins the ring.
    pub revive_threshold: u32,
    /// Milliseconds between health-probe sweeps.
    pub health_check_ms: u64,
    /// Race a stuck primary forward against the next replica.
    pub hedge: bool,
    /// The latency quantile (per shard, over recent forwards) a
    /// forward must outlive before the hedge launches.
    pub hedge_quantile: f64,
    /// Lower clamp on the hedge delay, milliseconds.
    pub hedge_min_ms: u64,
    /// Upper clamp on the hedge delay (also the delay while a shard
    /// has too few samples), milliseconds.
    pub hedge_max_ms: u64,
    /// Largest accepted frame payload (client side and shard side).
    pub max_frame: usize,
    /// Per-connection read timeout for idle clients (silent close
    /// between frames).
    pub read_timeout_ms: u64,
    /// Slow-loris bound: a connection stalled inside a frame (or that
    /// never completed one) gets a typed `idle-timeout` error.
    pub first_frame_timeout_ms: u64,
    /// Install a SIGTERM handler that triggers a graceful drain.
    pub handle_sigterm: bool,
    /// Retry policy for shard dials and forwarded requests.
    pub shard_retry: RetryPolicy,
    /// Bounded replication-queue depth.
    pub replication_queue: usize,
    /// Forwarding worker threads (each owns its shard connections).
    pub workers: usize,
    /// Bounded forwarding-queue depth; beyond it clients get `busy`.
    pub queue: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: Vec::new(),
            replicas: 2,
            fail_threshold: 3,
            revive_threshold: 3,
            health_check_ms: 500,
            hedge: true,
            hedge_quantile: 0.95,
            hedge_min_ms: 10,
            hedge_max_ms: 400,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout_ms: 10_000,
            first_frame_timeout_ms: 2_000,
            handle_sigterm: false,
            shard_retry: RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
                per_attempt_timeout: Some(Duration::from_secs(10)),
                overall_timeout: Some(Duration::from_secs(30)),
                jitter_seed: 0x0C1A_57E2,
            },
            replication_queue: 256,
            workers: 4,
            queue: 256,
        }
    }
}

/// Ring membership plus per-shard state, guarded as one unit so a
/// membership change can never leave them disagreeing.
struct Cluster {
    ring: Ring,
    shards: Vec<Arc<ShardState>>,
}

impl Cluster {
    fn state_of(&self, endpoint: &str) -> Option<Arc<ShardState>> {
        self.shards.iter().find(|s| s.endpoint == endpoint).cloned()
    }

    fn add(&mut self, endpoint: &str) -> bool {
        if !self.ring.add(endpoint) {
            return false;
        }
        self.shards.push(Arc::new(ShardState::new(endpoint)));
        true
    }

    fn remove(&mut self, endpoint: &str) -> bool {
        if !self.ring.remove(endpoint) {
            return false;
        }
        self.shards.retain(|s| s.endpoint != endpoint);
        true
    }
}

/// One replication job: warm `target` with the canonical request.
struct ReplJob {
    target: String,
    request: ScheduleRequest,
}

/// Hedging knobs, resolved once at startup.
struct HedgeConfig {
    enabled: bool,
    quantile: f64,
    min: Duration,
    max: Duration,
}

/// State shared by every router thread.
struct Shared {
    cluster: Mutex<Cluster>,
    metrics: RouterMetrics,
    /// Shared with the reactor (which also flips it on SIGTERM).
    drain: Arc<AtomicBool>,
    replicas: usize,
    fail_threshold: u32,
    revive_threshold: u32,
    health_check_ms: u64,
    hedge: HedgeConfig,
    shard_retry: RetryPolicy,
    /// One shared token bucket for every retry the router originates
    /// (redials, failover rungs, hedges); refilled by successes.
    retry_budget: RetryBudget,
}

impl Shared {
    fn lock_cluster(&self) -> std::sync::MutexGuard<'_, Cluster> {
        lock_recover(&self.cluster)
    }

    fn metrics_snapshot(&self) -> Json {
        let shards = self.lock_cluster().shards.clone();
        self.metrics.snapshot(&shards)
    }
}

/// Record a success on `shard` and surface any breaker transition in
/// the router counters.
fn note_success(shared: &Shared, shard: &ShardState) {
    match shard.record_success(shared.revive_threshold) {
        Transition::HalfOpened => RouterMetrics::bump(&shared.metrics.breaker_half_open),
        Transition::Closed => RouterMetrics::bump(&shared.metrics.breaker_closed),
        Transition::Opened | Transition::None => {}
    }
}

/// Record a failed interaction on `shard` *iff* the error is health
/// evidence, surfacing a breaker trip in the router counters.
fn note_failure(shared: &Shared, shard: &ShardState, err: &ClientError) {
    if error_is_health_evidence(err)
        && shard.record_failure(shared.fail_threshold) == Transition::Opened
    {
        RouterMetrics::bump(&shared.metrics.shards_marked_down);
    }
}

/// Frame-level rejections from a *shard* are link evidence: the router
/// always emits well-formed frames and re-serialises the request
/// itself, so a shard claiming otherwise read corrupted bytes.
fn reply_is_link_evidence(reply: &ErrorReply) -> bool {
    matches!(
        reply.code,
        ErrorCode::MalformedFrame | ErrorCode::OversizedFrame | ErrorCode::ParseError
    )
}

/// Whether a forwarding error says something about the *shard or link*
/// (as opposed to the request): transport breakage always does, server
/// replies only when they are link evidence.
fn error_is_health_evidence(err: &ClientError) -> bool {
    match err {
        ClientError::Server(reply) => reply_is_link_evidence(reply),
        _ => true,
    }
}

/// The error to remember for the client when a rung fails. Link-level
/// server complaints are rewritten to a retryable `internal` — relaying
/// a corrupted link's `malformed-frame` verbatim would tell the client
/// *its* request was bad.
fn rung_error(shard: &ShardState, err: ClientError) -> ErrorReply {
    match err {
        ClientError::Server(reply) if !reply_is_link_evidence(&reply) => reply,
        other => ErrorReply::new(
            ErrorCode::Internal,
            format!("shard {} unreachable: {other}", shard.endpoint),
        ),
    }
}

/// A running router. Dropping the handle does *not* stop it; call
/// [`RouterHandle::begin_drain`] then [`RouterHandle::join`].
pub struct RouterHandle {
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    thread: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl RouterHandle {
    /// The bound TCP address (useful with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// An endpoint string a client can connect to.
    pub fn endpoint(&self) -> String {
        match (&self.local_addr, &self.unix_path) {
            (Some(addr), _) => format!("tcp:{addr}"),
            (None, Some(path)) => format!("unix:{}", path.display()),
            (None, None) => {
                // `Listener::bind` always records one of the two; an
                // empty endpoint only means the handle was built by
                // hand without either.
                debug_assert!(false, "router handle has no bound endpoint");
                String::new()
            }
        }
    }

    /// Stop accepting connections and begin a graceful drain.
    pub fn begin_drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        // Interrupt the poll so the drain starts on this tick, not the
        // next timeout.
        self.completions.wake();
    }

    /// Snapshot the router counters (including per-shard gauges).
    pub fn metrics(&self) -> Json {
        self.shared.metrics_snapshot()
    }

    /// Wait for the reactor, forwarding workers, replicator and prober
    /// to finish (after a drain was triggered).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One offloaded frame: answered later via a [`Completion`].
struct RouterJob {
    conn: ConnId,
    work: Work,
    /// When the frame was accepted — the anchor the forwarding worker
    /// subtracts from a request's `deadline_ms` so queue time in the
    /// router is not silently billed to the shard.
    arrival: Instant,
}

enum Work {
    Request(Vec<u8>),
    Admin(Vec<u8>),
}

/// Encode one complete wire frame (the worker threads build replies
/// off the reactor thread).
fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len().saturating_add(FRAME_HEADER_LEN));
    let _ = write_frame(&mut frame, kind, payload);
    frame
}

/// Forwarding worker: pops job batches, walks the failover ladder (or
/// runs the admin command) with its own keep-alive shard connections,
/// and pushes the encoded reply back to the reactor.
fn worker_loop(
    shared: Arc<Shared>,
    queue: Arc<StageQueue<RouterJob>>,
    completions: Arc<Completions>,
    inflight: Arc<AtomicU64>,
    repl_tx: SyncSender<ReplJob>,
) {
    let mut conns = ShardConns::default();
    let mut batch = Vec::new();
    while queue.pop_batch(&mut batch) {
        for job in batch.drain(..) {
            let bytes = match job.work {
                Work::Request(payload) => {
                    match forward_request(&shared, &mut conns, &repl_tx, &payload, job.arrival) {
                        Ok(body) => {
                            RouterMetrics::bump(&shared.metrics.responses);
                            encode_frame(FrameKind::Response, body.to_string().as_bytes())
                        }
                        Err(reply) => {
                            RouterMetrics::bump(&shared.metrics.errors);
                            encode_frame(FrameKind::Error, reply.to_json().to_string().as_bytes())
                        }
                    }
                }
                Work::Admin(payload) => match handle_admin(&shared, &mut conns, &payload) {
                    Ok(reply) => encode_frame(FrameKind::AdminReply, reply.to_string().as_bytes()),
                    Err(reply) => {
                        RouterMetrics::bump(&shared.metrics.errors);
                        encode_frame(FrameKind::Error, reply.to_json().to_string().as_bytes())
                    }
                },
            };
            // Push the completion *before* the inflight decrement: the
            // drain must never observe `idle` while a reply exists only
            // on this stack frame.
            completions.push(Completion {
                conn: job.conn,
                bytes,
                close: false,
            });
            inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Protocol logic the router plugs into the [`Reactor`].
struct RouterHandler {
    shared: Arc<Shared>,
    queue: Arc<StageQueue<RouterJob>>,
    completions: Arc<Completions>,
    inflight: Arc<AtomicU64>,
}

impl RouterHandler {
    fn enqueue(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, work: Work) {
        match self.queue.try_push(RouterJob {
            conn,
            work,
            arrival: Instant::now(),
        }) {
            Ok(()) => {
                // Exactly one completion will come back for this job.
                self.inflight.fetch_add(1, Ordering::SeqCst);
                ctx.expect_reply(conn);
            }
            Err(PushError::Full(_)) => {
                RouterMetrics::bump(&self.shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(
                        ErrorCode::Busy,
                        "router workers busy and the queue is full; retry later",
                    )
                    .with_retry_after_ms(BUSY_RETRY_MS),
                );
            }
            Err(PushError::Closed(_)) => {
                RouterMetrics::bump(&self.shared.metrics.errors);
                ctx.send_error(
                    conn,
                    &ErrorReply::new(ErrorCode::Draining, "router is draining")
                        .with_retry_after_ms(DRAIN_RETRY_MS),
                );
                ctx.close_after_flush(conn);
            }
        }
    }
}

impl Handler for RouterHandler {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: FrameKind, payload: Vec<u8>) {
        match kind {
            FrameKind::Ping => {
                ctx.send(conn, FrameKind::Pong, Json::Null.to_string().as_bytes());
            }
            FrameKind::Metrics => {
                let snap = self.shared.metrics_snapshot().to_string();
                ctx.send(conn, FrameKind::Metrics, snap.as_bytes());
            }
            FrameKind::Shutdown => {
                ctx.begin_drain();
                self.completions.wake();
                ctx.send(conn, FrameKind::Pong, Json::Null.to_string().as_bytes());
                ctx.close_after_flush(conn);
            }
            FrameKind::Admin => self.enqueue(ctx, conn, Work::Admin(payload)),
            FrameKind::Request => {
                RouterMetrics::bump(&self.shared.metrics.requests);
                if ctx.draining() && ctx.requests_seen(conn) > 0 {
                    // In-flight work is completed during a drain, but a
                    // connection that already got its answer is asked
                    // to go away.
                    RouterMetrics::bump(&self.shared.metrics.errors);
                    ctx.send_error(
                        conn,
                        &ErrorReply::new(ErrorCode::Draining, "router is draining")
                            .with_retry_after_ms(DRAIN_RETRY_MS),
                    );
                    if !ctx.has_pending(conn) {
                        ctx.close_after_flush(conn);
                    }
                    return;
                }
                ctx.note_request(conn);
                self.enqueue(ctx, conn, Work::Request(payload));
            }
            other => {
                RouterMetrics::bump(&self.shared.metrics.errors);
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
        RouterMetrics::bump(&self.shared.metrics.connections);
    }

    fn on_drain_reject(&mut self) {
        // `on_accept` already counted the connection.
        RouterMetrics::bump(&self.shared.metrics.errors);
    }

    fn on_frame_error(&mut self, _reply: &ErrorReply) {
        RouterMetrics::bump(&self.shared.metrics.errors);
    }

    fn on_idle_timeout(&mut self) {
        RouterMetrics::bump(&self.shared.metrics.errors);
    }

    fn idle(&self) -> bool {
        self.inflight.load(Ordering::SeqCst) == 0
    }
}

/// Bind `listen` and start routing under `config`.
pub fn serve_router(listen: Listen, config: RouterConfig) -> io::Result<RouterHandle> {
    let (listener, local_addr, unix_path) = Listener::bind(listen)?;

    if config.handle_sigterm {
        install_sigterm_handler();
    }

    let mut cluster = Cluster {
        ring: Ring::new(),
        shards: Vec::new(),
    };
    for endpoint in &config.shards {
        cluster.add(endpoint);
    }

    let drain = Arc::new(AtomicBool::new(false));
    let hedge_min = Duration::from_millis(config.hedge_min_ms);
    let shared = Arc::new(Shared {
        cluster: Mutex::new(cluster),
        metrics: RouterMetrics::default(),
        drain: Arc::clone(&drain),
        replicas: config.replicas.max(1),
        fail_threshold: config.fail_threshold.max(1),
        revive_threshold: config.revive_threshold.max(1),
        health_check_ms: config.health_check_ms.max(50),
        hedge: HedgeConfig {
            enabled: config.hedge,
            quantile: config.hedge_quantile.clamp(0.5, 0.999),
            min: hedge_min,
            max: Duration::from_millis(config.hedge_max_ms).max(hedge_min),
        },
        shard_retry: config.shard_retry.clone(),
        retry_budget: RetryBudget::default(),
    });

    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            max_frame: config.max_frame,
            idle_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            first_frame_timeout: Duration::from_millis(config.first_frame_timeout_ms.max(1)),
            drain_message: "router is draining",
            drain_retry_ms: DRAIN_RETRY_MS,
        },
        Arc::clone(&drain),
    )?;
    let completions = reactor.completions();

    let (repl_tx, repl_rx) = sync_channel::<ReplJob>(config.replication_queue.max(1));
    let repl_shared = Arc::clone(&shared);
    let replicator = std::thread::Builder::new()
        .name("dagsched-replicator".to_string())
        .spawn(move || replicate_loop(repl_shared, repl_rx))?;

    let probe_shared = Arc::clone(&shared);
    let prober = std::thread::Builder::new()
        .name("dagsched-prober".to_string())
        .spawn(move || probe_loop(probe_shared))?;

    let worker_count = config.workers.max(1);
    let queue = Arc::new(StageQueue::<RouterJob>::new(
        config.queue.max(1),
        worker_count,
    ));
    let inflight = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    let mut spawn_all = || -> io::Result<()> {
        for i in 0..worker_count {
            let s = Arc::clone(&shared);
            let q = Arc::clone(&queue);
            let c = Arc::clone(&completions);
            let inf = Arc::clone(&inflight);
            let tx = repl_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dagsched-router-{i}"))
                    .spawn(move || worker_loop(s, q, c, inf, tx))?,
            );
        }
        Ok(())
    };
    // The workers hold the only long-lived senders: once they are
    // joined the replicator's receiver disconnects and it exits after
    // draining its queue.
    let spawned = spawn_all();
    drop(repl_tx);
    if let Err(e) = spawned {
        drain.store(true, Ordering::SeqCst);
        queue.close();
        for h in workers {
            let _ = h.join();
        }
        let _ = replicator.join();
        let _ = prober.join();
        return Err(e);
    }

    let handler_shared = Arc::clone(&shared);
    let handler_queue = Arc::clone(&queue);
    let handler_completions = Arc::clone(&completions);
    let handler_inflight = Arc::clone(&inflight);
    let cleanup_path = reactor.unix_path();
    let thread = match std::thread::Builder::new()
        .name("dagsched-router".to_string())
        .spawn(move || {
            let mut handler = RouterHandler {
                shared: handler_shared,
                queue: handler_queue,
                completions: handler_completions,
                inflight: handler_inflight,
            };
            reactor.run(&mut handler);
            // Drain finished: no new jobs can arrive. Close the queue
            // so the workers exit, then let the replicator finish its
            // backlog and the prober notice the drain flag.
            handler.queue.close();
            for h in workers {
                let _ = h.join();
            }
            let _ = replicator.join();
            let _ = prober.join();
            #[cfg(unix)]
            if let Some(path) = &cleanup_path {
                let _ = std::fs::remove_file(path);
            }
            #[cfg(not(unix))]
            let _ = cleanup_path;
        }) {
        Ok(t) => t,
        Err(e) => {
            drain.store(true, Ordering::SeqCst);
            queue.close();
            return Err(e);
        }
    };

    Ok(RouterHandle {
        shared,
        completions,
        thread: Some(thread),
        local_addr,
        unix_path,
    })
}

/// The routing key: FNV-1a of the canonical request JSON with the
/// `attempt` counter zeroed — the same idempotency identity the
/// shards' cache and quarantine key on, so retries and repeats land on
/// the same shard.
pub fn routing_key(req: &ScheduleRequest) -> (ScheduleRequest, u64) {
    let mut canonical = req.clone();
    canonical.attempt = 0;
    let key = fnv64(canonical.to_json().to_string().as_bytes());
    (canonical, key)
}

/// Which rung of the ladder produced a successful answer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// The key's primary replica (hedged or not).
    Primary,
    /// A ring successor after the primary failed.
    Failover,
    /// A shard outside the replica set (whole set down).
    Rerouted,
    /// The hedge secondary beat a slow-but-alive primary. Not a
    /// failover: the primary never failed, it was merely outraced.
    HedgeWin,
}

/// Success bookkeeping shared by the hedge fast path and the ladder:
/// failover/reroute counters and the replication enqueue.
fn finish_success(
    shared: &Shared,
    repl_tx: &SyncSender<ReplJob>,
    replicas: &[Arc<ShardState>],
    rung: Rung,
    canonical: &ScheduleRequest,
    resp: ScheduleResponse,
) -> Json {
    match rung {
        Rung::Primary | Rung::HedgeWin => {}
        Rung::Failover => RouterMetrics::bump(&shared.metrics.failovers),
        Rung::Rerouted => RouterMetrics::bump(&shared.metrics.rerouted),
    }
    // Replicate fresh compiles from the primary to its first ring
    // successor (R ≥ 2 and a successor exists).
    if rung == Rung::Primary && resp.stats.cache_misses > 0 {
        if let Some(successor) = replicas.get(1) {
            let mut repl_req = canonical.clone();
            repl_req.sim = false;
            repl_req.linger_ms = 0;
            repl_req.debug_panic = false;
            match repl_tx.try_send(ReplJob {
                target: successor.endpoint.clone(),
                request: repl_req,
            }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    RouterMetrics::bump(&shared.metrics.replication_dropped);
                }
            }
        }
    }
    resp.to_json()
}

/// Subtract the time since `arrival` from the request's original
/// deadline and re-encode the remainder for the next shard hop, so
/// queue time in the router is never silently billed to the shard.
/// Returns the remaining budget (`None` when the request never had a
/// deadline); fails fast with `deadline-expired` when less than
/// [`dagsched_proto::MIN_FORWARD_DEADLINE_MS`] is left — compiling for
/// a client that has already given up only deepens an overload.
fn propagate_deadline(
    shared: &Shared,
    req: &mut ScheduleRequest,
    orig_deadline: Option<u64>,
    arrival: Instant,
) -> Result<Option<u64>, ErrorReply> {
    let Some(total) = orig_deadline else {
        return Ok(None);
    };
    let elapsed = u64::try_from(arrival.elapsed().as_millis()).unwrap_or(u64::MAX);
    match remaining_deadline_ms(total, elapsed) {
        Some(rem) => {
            shared.metrics.deadline_propagated_ms.observe(rem);
            req.deadline_ms = Some(rem);
            Ok(Some(rem))
        }
        None => {
            RouterMetrics::bump(&shared.metrics.deadline_expired_in_router);
            Err(ErrorReply::new(
                ErrorCode::DeadlineExpired,
                format!(
                    "deadline of {total}ms expired in the router after {elapsed}ms; not forwarded"
                ),
            ))
        }
    }
}

/// A shard's estimated queue delay in milliseconds: its EWMA service
/// latency times the forwards already in flight to it (plus the one
/// being placed). Zero while the shard has no latency observations.
fn estimated_queue_delay_ms(shard: &ShardState) -> u64 {
    let depth = shard.inflight.load(Ordering::Relaxed).saturating_add(1);
    shard.ewma_us().saturating_mul(depth) / 1000
}

/// Walk the failover ladder for one request; returns the response body
/// to relay.
fn forward_request(
    shared: &Shared,
    conns: &mut ShardConns,
    repl_tx: &SyncSender<ReplJob>,
    payload: &[u8],
    arrival: Instant,
) -> Result<Json, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "request payload is not UTF-8"))?;
    let value = Json::parse(text)
        .map_err(|e| ErrorReply::new(ErrorCode::ParseError, format!("request is not JSON: {e}")))?;
    let mut req = ScheduleRequest::from_json(&value)?;
    let (canonical, key) = routing_key(&req);

    // Deadline propagation: bill the queue time this frame already
    // spent in the router against the client's budget before any
    // forward — a request that died waiting is shed, not compiled.
    let orig_deadline = req.deadline_ms;
    let budget = propagate_deadline(shared, &mut req, orig_deadline, arrival)?;

    // Snapshot the ladder under the lock, then forward without it.
    let (mut replicas, others): (Vec<Arc<ShardState>>, Vec<Arc<ShardState>>) = {
        let cluster = shared.lock_cluster();
        let replica_eps: Vec<String> = cluster
            .ring
            .replicas(key, shared.replicas)
            .into_iter()
            .map(str::to_string)
            .collect();
        let replicas = replica_eps
            .iter()
            .filter_map(|e| cluster.state_of(e))
            .collect();
        let others = cluster
            .shards
            .iter()
            .filter(|s| !replica_eps.contains(&s.endpoint))
            .cloned()
            .collect();
        (replicas, others)
    };
    if replicas.is_empty() {
        RouterMetrics::bump(&shared.metrics.no_live_shard);
        return Err(
            ErrorReply::new(ErrorCode::Busy, "router has no shards configured")
                .with_retry_after_ms(NO_SHARD_RETRY_MS),
        );
    }

    // Deadline-aware replica preference: when the primary's estimated
    // queue delay alone would blow the remaining budget, start the
    // ladder at the healthiest other live replica — it may still make
    // the deadline; the primary almost certainly will not.
    if let Some(rem) = budget {
        let est = estimated_queue_delay_ms(&replicas[0]);
        if est > rem {
            let best = (1..replicas.len())
                .filter(|&i| replicas[i].is_up())
                .min_by_key(|&i| replicas[i].health_score());
            if let Some(best) = best.filter(|&i| estimated_queue_delay_ms(&replicas[i]) < est) {
                replicas.swap(0, best);
                RouterMetrics::bump(&shared.metrics.deadline_reroutes);
            }
        }
    }

    let primary = Arc::clone(&replicas[0]);
    let mut last_err: Option<ErrorReply> = None;
    let mut skip_primary = false;

    // Hedged fast path: the primary is believed healthy and a live
    // replica exists to race against.
    if shared.hedge.enabled && primary.is_up() {
        if let Some(secondary) = replicas.get(1).filter(|s| s.is_up()) {
            match hedged_request(shared, conns, &primary, secondary, &req) {
                HedgeOutcome::Answer {
                    shard,
                    resp,
                    latency,
                } => {
                    shard.observe_latency(latency, true);
                    note_success(shared, &shard);
                    // Racer forwards bypass the budgeted client path,
                    // so their successes refill the bucket here.
                    shared.retry_budget.record_success();
                    let rung = if Arc::ptr_eq(&shard, &primary) {
                        Rung::Primary
                    } else {
                        Rung::HedgeWin
                    };
                    return Ok(finish_success(
                        shared, repl_tx, &replicas, rung, &canonical, resp,
                    ));
                }
                HedgeOutcome::Reject(reply) => return Err(reply),
                HedgeOutcome::Failed(reply) => {
                    // Health evidence was already recorded inside the
                    // race; the ladder resumes past the primary.
                    RouterMetrics::bump(&primary.failovers);
                    last_err = Some(reply);
                    skip_primary = true;
                }
            }
        }
    }

    // Rungs 1–2: the replica set in ring order; rung 3: every other
    // live shard, cheapest health score first. Down shards are skipped
    // without burning a dial, but when *nothing* is believed up we
    // still try the replica set once — the belief may be stale, and the
    // prober only revives shards every `health_check_ms`.
    let any_up = replicas.iter().chain(others.iter()).any(|s| s.is_up());
    let mut reroute: Vec<&Arc<ShardState>> = others.iter().filter(|s| s.is_up()).collect();
    reroute.sort_by_key(|s| s.health_score());
    let mut attempted: u32 = u32::from(skip_primary);
    for (tier, shard) in replicas
        .iter()
        .map(|s| (0usize, s))
        .chain(reroute.into_iter().map(|s| (1usize, s)))
    {
        if tier == 0 && skip_primary && Arc::ptr_eq(shard, &primary) {
            continue; // the hedged race already spent this rung
        }
        if tier == 0 && !shard.is_up() && any_up {
            RouterMetrics::bump(&shard.failovers);
            continue;
        }
        // Every rung past the first attempt re-sends the same logical
        // request: it spends from the shared retry budget, and when
        // the bucket is dry the ladder stops rather than multiplying
        // load onto an already-struggling cluster.
        if attempted > 0 && !shared.retry_budget.try_spend() {
            RouterMetrics::bump(&shared.metrics.retry_budget_exhausted);
            break;
        }
        // Earlier rungs burned real time: re-derive the deadline for
        // this hop (and shed if nothing usable is left).
        propagate_deadline(shared, &mut req, orig_deadline, arrival)?;
        attempted += 1;
        RouterMetrics::bump(&shard.requests);
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        let outcome = conns.request_budgeted(
            &shard.endpoint,
            &req,
            &shared.shard_retry,
            Some(&shared.retry_budget),
        );
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok((resp, latency)) => {
                shard.observe_latency(latency, true);
                note_success(shared, shard);
                let rung = if Arc::ptr_eq(shard, &primary) {
                    Rung::Primary
                } else if tier == 0 {
                    Rung::Failover
                } else {
                    Rung::Rerouted
                };
                return Ok(finish_success(
                    shared, repl_tx, &replicas, rung, &canonical, resp,
                ));
            }
            Err(ClientError::Server(reply))
                if !reply.code.is_retryable() && !reply_is_link_evidence(&reply) =>
            {
                // The shard answered: it is healthy, the request is
                // not. Failing over would reproduce the same rejection.
                note_success(shared, shard);
                return Err(reply);
            }
            Err(err) => {
                note_failure(shared, shard, &err);
                RouterMetrics::bump(&shard.failovers);
                last_err = Some(rung_error(shard, err));
            }
        }
    }
    RouterMetrics::bump(&shared.metrics.no_live_shard);
    Err(last_err
        .unwrap_or_else(|| ErrorReply::new(ErrorCode::Busy, "no live shard"))
        // Every rung failed: whatever the last error was, the client
        // should treat the condition as transient and back off.
        .with_retry_after_ms(NO_SHARD_RETRY_MS))
}

/// One racer's report back to the coordinating worker.
struct HedgeMsg {
    from_secondary: bool,
    result: Result<ScheduleResponse, ClientError>,
    /// The racer's connection, riding along so a winner's socket goes
    /// back into the keep-alive map (`None` if the thread never ran).
    client: Option<Client>,
    latency: Duration,
}

/// How a (possibly hedged) primary forward ended.
enum HedgeOutcome {
    /// A racer answered; relay its response.
    Answer {
        shard: Arc<ShardState>,
        resp: ScheduleResponse,
        latency: Duration,
    },
    /// A healthy shard rejected the request itself — terminal, relay
    /// the rejection without failover.
    Reject(ErrorReply),
    /// Every racer failed (health evidence already recorded); the
    /// ladder continues past the primary.
    Failed(ErrorReply),
}

/// Launch one single-attempt forward on its own thread. The per-shard
/// request/inflight counters are kept here so both racers are
/// accounted exactly like ladder forwards.
fn spawn_racer(
    shard: &Arc<ShardState>,
    mut client: Client,
    req: &ScheduleRequest,
    from_secondary: bool,
    tx: &Sender<HedgeMsg>,
) {
    RouterMetrics::bump(&shard.requests);
    shard.inflight.fetch_add(1, Ordering::Relaxed);
    let thread_shard = Arc::clone(shard);
    let req = req.clone();
    let thread_tx = tx.clone();
    let spawned = std::thread::Builder::new()
        .name("dagsched-hedge".to_string())
        .spawn(move || {
            let started = Instant::now();
            let result = client.request(&req);
            thread_shard.inflight.fetch_sub(1, Ordering::Relaxed);
            // The coordinator may already have returned with the other
            // racer's answer; a closed channel is fine.
            let _ = thread_tx.send(HedgeMsg {
                from_secondary,
                result,
                client: Some(client),
                latency: started.elapsed(),
            });
        });
    if let Err(e) = spawned {
        // The closure (and its client) never ran: undo the inflight
        // and report the spawn failure as this racer's result.
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        let _ = tx.send(HedgeMsg {
            from_secondary,
            result: Err(ClientError::Io(e)),
            client: None,
            latency: Duration::ZERO,
        });
    }
}

/// Settle a race that ended with the primary answering before the
/// hedge delay elapsed (the common case: no hedge was launched).
fn settle_primary(
    shared: &Shared,
    conns: &mut ShardConns,
    primary: &Arc<ShardState>,
    msg: HedgeMsg,
) -> HedgeOutcome {
    match msg.result {
        Ok(resp) => {
            if let Some(client) = msg.client {
                conns.put(&primary.endpoint, client);
            }
            HedgeOutcome::Answer {
                shard: Arc::clone(primary),
                resp,
                latency: msg.latency,
            }
        }
        Err(ClientError::Server(reply))
            if !reply.code.is_retryable() && !reply_is_link_evidence(&reply) =>
        {
            note_success(shared, primary);
            HedgeOutcome::Reject(reply)
        }
        Err(err) => {
            note_failure(shared, primary, &err);
            HedgeOutcome::Failed(rung_error(primary, err))
        }
    }
}

/// Forward to the primary with a hedge: if the answer outlives the
/// primary's recent latency quantile, the same request is raced
/// against `secondary` and the first answer wins. The loser is
/// cancelled via its [`CancelHandle`] — a shutdown unblocks its read
/// immediately instead of letting it wait out the socket timeout.
///
/// Racing is safe because requests are content-addressed and
/// idempotent and replies deterministic: both racers produce
/// bit-identical bytes, so relaying either is correct, and a
/// duplicated compile only warms a cache.
fn hedged_request(
    shared: &Shared,
    conns: &mut ShardConns,
    primary: &Arc<ShardState>,
    secondary: &Arc<ShardState>,
    req: &ScheduleRequest,
) -> HedgeOutcome {
    let policy = &shared.shard_retry;
    let delay = primary.hedge_delay(shared.hedge.quantile, shared.hedge.min, shared.hedge.max);

    let pclient = match conns.take_or_dial(&primary.endpoint, policy) {
        Ok(c) => c,
        Err(err) => {
            note_failure(shared, primary, &err);
            return HedgeOutcome::Failed(rung_error(primary, err));
        }
    };
    pclient.set_io_timeout(policy.per_attempt_timeout);
    let pcancel = pclient.cancel_handle();

    let (tx, rx) = channel::<HedgeMsg>();
    spawn_racer(primary, pclient, req, false, &tx);

    // Give the primary its quantile head start.
    match rx.recv_timeout(delay) {
        Ok(msg) => return settle_primary(shared, conns, primary, msg),
        Err(RecvTimeoutError::Timeout) => {}
        Err(RecvTimeoutError::Disconnected) => {
            return HedgeOutcome::Failed(ErrorReply::new(
                ErrorCode::Internal,
                format!("hedge racer for shard {} vanished", primary.endpoint),
            ));
        }
    }

    // The primary is past its quantile: launch the hedge — unless the
    // shared retry budget is dry, in which case the router waits out
    // the primary alone instead of putting a second copy of the
    // request on the wire (a hedge is a speculative retry, and retry
    // amplification is exactly what a drained bucket forbids).
    let mut outstanding = 1usize;
    let scancel: Option<CancelHandle> = if !shared.retry_budget.try_spend() {
        RouterMetrics::bump(&shared.metrics.retry_budget_exhausted);
        None
    } else {
        RouterMetrics::bump(&shared.metrics.hedged_requests);
        RouterMetrics::bump(&primary.hedges);
        match conns.take_or_dial(&secondary.endpoint, policy) {
            Ok(sclient) => {
                sclient.set_io_timeout(policy.per_attempt_timeout);
                let handle = sclient.cancel_handle();
                spawn_racer(secondary, sclient, req, true, &tx);
                outstanding += 1;
                handle
            }
            Err(err) => {
                // The hedge could not even dial: record the evidence
                // and fall back to waiting out the primary alone.
                note_failure(shared, secondary, &err);
                None
            }
        }
    };
    drop(tx);

    let cancel_all = || {
        if let Some(c) = &pcancel {
            c.cancel();
        }
        if let Some(c) = &scancel {
            c.cancel();
        }
    };

    // First terminal answer wins. Each racer is bounded by its
    // per-attempt socket timeout; the slack bounds the race itself.
    let deadline = Instant::now()
        + policy
            .per_attempt_timeout
            .unwrap_or(Duration::from_secs(30))
        + HEDGE_RACE_SLACK;
    let mut race_err: Option<ErrorReply> = None;
    while outstanding > 0 {
        let left = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        let msg = match rx.recv_timeout(left) {
            Ok(m) => m,
            // Timeout (both racers wedged past their socket timeouts)
            // or every sender gone without a message: give up.
            Err(_) => break,
        };
        outstanding -= 1;
        let (shard, other_cancel) = if msg.from_secondary {
            (secondary, &pcancel)
        } else {
            (primary, &scancel)
        };
        match msg.result {
            Ok(resp) => {
                if let Some(c) = other_cancel {
                    c.cancel();
                }
                if msg.from_secondary {
                    RouterMetrics::bump(&shared.metrics.hedge_wins);
                    RouterMetrics::bump(&secondary.hedge_wins);
                }
                if let Some(client) = msg.client {
                    conns.put(&shard.endpoint, client);
                }
                return HedgeOutcome::Answer {
                    shard: Arc::clone(shard),
                    resp,
                    latency: msg.latency,
                };
            }
            Err(ClientError::Server(reply))
                if !reply.code.is_retryable() && !reply_is_link_evidence(&reply) =>
            {
                // A healthy shard rejected the request itself: that is
                // the answer, the race cannot change it.
                note_success(shared, shard);
                cancel_all();
                return HedgeOutcome::Reject(reply);
            }
            Err(err) => {
                // The cancelled-loser path never reaches here: a loser
                // is only cancelled after this function returns with
                // the winner, so any failure seen in this loop is a
                // genuine one.
                note_failure(shared, shard, &err);
                race_err = Some(rung_error(shard, err));
            }
        }
    }
    cancel_all();
    HedgeOutcome::Failed(race_err.unwrap_or_else(|| {
        ErrorReply::new(
            ErrorCode::Internal,
            format!("hedged forward to shard {} timed out", primary.endpoint),
        )
        .with_retry_after_ms(NO_SHARD_RETRY_MS)
    }))
}

/// Answer one router admin command (cluster membership; shard-level
/// snapshot commands are refused with a pointer to the right tier).
fn handle_admin(
    shared: &Shared,
    conns: &mut ShardConns,
    payload: &[u8],
) -> Result<Json, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "admin payload is not UTF-8"))?;
    let value = Json::parse(text).map_err(|e| {
        ErrorReply::new(
            ErrorCode::ParseError,
            format!("admin payload is not JSON: {e}"),
        )
    })?;
    match AdminCommand::from_json(&value)? {
        AdminCommand::AddShard { endpoint } => {
            if shared.lock_cluster().ring.contains(&endpoint) {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    format!("shard {endpoint} is already a ring member"),
                ));
            }
            // Warm-spare promotion: ship a snapshot from a live donor
            // *before* the joiner takes ring ownership, so its first
            // owned requests hit a warm cache.
            let donor = {
                let cluster = shared.lock_cluster();
                cluster
                    .shards
                    .iter()
                    .find(|s| s.is_up() && s.endpoint != endpoint)
                    .map(|s| s.endpoint.clone())
            };
            let mut installed = 0u64;
            let mut donor_generation = 0u64;
            if let Some(donor_ep) = &donor {
                let exported = conns
                    .admin(donor_ep, &AdminCommand::SnapshotExport, &shared.shard_retry)
                    .map_err(|e| {
                        ErrorReply::new(
                            ErrorCode::Internal,
                            format!("snapshot export from donor {donor_ep} failed: {e}"),
                        )
                    })?;
                let shipment = exported
                    .get("shipment")
                    .and_then(Json::as_str)
                    .and_then(hex_decode)
                    .ok_or_else(|| {
                        ErrorReply::new(
                            ErrorCode::Internal,
                            format!("donor {donor_ep} returned an undecodable shipment"),
                        )
                    })?;
                donor_generation = exported
                    .get("generation")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                let installed_reply = conns
                    .admin(
                        &endpoint,
                        &AdminCommand::SnapshotInstall { shipment },
                        &shared.shard_retry,
                    )
                    .map_err(|e| {
                        ErrorReply::new(
                            ErrorCode::Internal,
                            format!("snapshot install on joining shard {endpoint} failed: {e}"),
                        )
                    })?;
                installed = installed_reply
                    .get("installed")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
            // Only now does the joiner take ring ownership.
            shared.lock_cluster().add(&endpoint);
            RouterMetrics::bump(&shared.metrics.shards_added);
            shared
                .metrics
                .warm_spare_entries_shipped
                .fetch_add(installed, Ordering::Relaxed);
            Ok(Json::obj(vec![
                ("ok", Json::from(true)),
                ("endpoint", Json::from(endpoint.as_str())),
                (
                    "donor",
                    donor.map(|d| Json::from(d.as_str())).unwrap_or(Json::Null),
                ),
                ("installed", Json::from(installed)),
                ("donor_generation", Json::from(donor_generation)),
            ]))
        }
        AdminCommand::RemoveShard { endpoint } => {
            if !shared.lock_cluster().remove(&endpoint) {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    format!("shard {endpoint} is not a ring member"),
                ));
            }
            RouterMetrics::bump(&shared.metrics.shards_removed);
            Ok(Json::obj(vec![
                ("ok", Json::from(true)),
                ("endpoint", Json::from(endpoint.as_str())),
            ]))
        }
        AdminCommand::Status => {
            let cluster = shared.lock_cluster();
            Ok(Json::obj(vec![
                ("ok", Json::from(true)),
                (
                    "members",
                    Json::Arr(cluster.ring.members().into_iter().map(Json::from).collect()),
                ),
                (
                    "shards",
                    Json::Arr(cluster.shards.iter().map(|s| s.to_json()).collect()),
                ),
            ]))
        }
        AdminCommand::SnapshotExport | AdminCommand::SnapshotInstall { .. } => {
            Err(ErrorReply::new(
                ErrorCode::BadRequest,
                "snapshot commands target a shard daemon directly, not the router",
            ))
        }
    }
}

/// Drain the replication queue: re-issue each fresh compile on the
/// key's ring successor so a primary death finds a warm replica.
fn replicate_loop(shared: Arc<Shared>, rx: Receiver<ReplJob>) {
    let mut conns = ShardConns::default();
    while let Ok(job) = rx.recv() {
        let Some(shard) = shared.lock_cluster().state_of(&job.target) else {
            continue; // target left the ring while queued
        };
        if !shard.is_up() {
            RouterMetrics::bump(&shared.metrics.replication_dropped);
            continue;
        }
        match conns.request(&job.target, &job.request, &shared.shard_retry) {
            Ok((_, latency)) => {
                // Background writes feed the EWMA but not the hedge
                // window — the quantile must reflect client forwards.
                shard.observe_latency(latency, false);
                note_success(&shared, &shard);
                RouterMetrics::bump(&shard.replication_writes);
                RouterMetrics::bump(&shared.metrics.replication_writes);
            }
            Err(err) => {
                // Link evidence (including frame-level complaints)
                // feeds the breaker; a plain rejection — e.g. draining
                // — does not: replication is best-effort either way.
                note_failure(&shared, &shard, &err);
                RouterMetrics::bump(&shared.metrics.replication_dropped);
            }
        }
    }
}

/// Periodically ping every shard: successes walk open breakers through
/// half-open trials back to closed, failure streaks trip them without
/// waiting for a request to stumble over them, and the measured
/// round-trip feeds the latency EWMA.
fn probe_loop(shared: Arc<Shared>) {
    while !shared.drain.load(Ordering::SeqCst) {
        let shards = shared.lock_cluster().shards.clone();
        for shard in shards {
            RouterMetrics::bump(&shared.metrics.health_probes);
            let started = Instant::now();
            if probe(&shard.endpoint) {
                shard.observe_latency(started.elapsed(), false);
                note_success(&shared, &shard);
            } else if shard.record_failure(shared.fail_threshold) == Transition::Opened {
                RouterMetrics::bump(&shared.metrics.shards_marked_down);
            }
        }
        // Sleep in small steps so a drain is honoured promptly.
        let mut slept = 0u64;
        while slept < shared.health_check_ms && !shared.drain.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
            slept += 25;
        }
    }
}

/// One liveness probe: dial + ping with a bounded socket timeout.
fn probe(endpoint: &str) -> bool {
    match Client::connect(endpoint) {
        Ok(mut client) => {
            client.set_io_timeout(Some(PROBE_TIMEOUT));
            client.ping().is_ok()
        }
        Err(_) => false,
    }
}

/// Re-export for binaries that parse endpoint strings.
pub use dagsched_service::server::parse_endpoint as parse_router_endpoint;

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`Shared`] with the given shard endpoints and fast-failing
    /// retry policy, for exercising `forward_request` directly.
    fn test_shared(shards: &[&str]) -> Shared {
        let mut cluster = Cluster {
            ring: Ring::new(),
            shards: Vec::new(),
        };
        for s in shards {
            cluster.add(s);
        }
        Shared {
            cluster: Mutex::new(cluster),
            metrics: RouterMetrics::default(),
            drain: Arc::new(AtomicBool::new(false)),
            replicas: 2,
            fail_threshold: 3,
            revive_threshold: 3,
            health_check_ms: 500,
            hedge: HedgeConfig {
                enabled: false,
                quantile: 0.95,
                min: Duration::from_millis(10),
                max: Duration::from_millis(400),
            },
            shard_retry: RetryPolicy {
                max_retries: 0,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                per_attempt_timeout: Some(Duration::from_millis(200)),
                overall_timeout: Some(Duration::from_secs(2)),
                jitter_seed: 1,
            },
            retry_budget: RetryBudget::default(),
        }
    }

    fn deadline_req(deadline_ms: u64) -> Vec<u8> {
        let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
        req.deadline_ms = Some(deadline_ms);
        req.to_json().to_string().into_bytes()
    }

    #[test]
    fn a_delayed_forward_subtracts_elapsed_time_and_fails_fast() {
        let shared = test_shared(&[]);
        let mut conns = ShardConns::default();
        let (tx, _rx) = sync_channel::<ReplJob>(1);

        // The frame sat queued for ~100ms against a 50ms deadline: the
        // old behaviour forwarded the original deadline unmodified (or
        // here, fell through to the no-shards busy); the fix sheds it
        // before any shard sees it.
        let arrival = Instant::now()
            .checked_sub(Duration::from_millis(100))
            .expect("monotonic clock is past 100ms");
        let err = forward_request(&shared, &mut conns, &tx, &deadline_req(50), arrival)
            .expect_err("the deadline expired while queued");
        assert_eq!(err.code, ErrorCode::DeadlineExpired);
        assert_eq!(
            shared
                .metrics
                .deadline_expired_in_router
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            shared.metrics.deadline_propagated_ms.count(),
            0,
            "an expired request must not count as propagated"
        );

        // Under the forward floor but not yet past the deadline is
        // shed too: ~2ms of budget cannot survive a shard hop.
        let err = forward_request(&shared, &mut conns, &tx, &deadline_req(102), arrival)
            .expect_err("less than the floor remains");
        assert_eq!(err.code, ErrorCode::DeadlineExpired);

        // With real budget left the deadline propagates and the next
        // failure is the ordinary no-shards busy.
        let err = forward_request(
            &shared,
            &mut conns,
            &tx,
            &deadline_req(5_000),
            Instant::now(),
        )
        .expect_err("no shards are configured");
        assert_eq!(err.code, ErrorCode::Busy);
        assert_eq!(shared.metrics.deadline_propagated_ms.count(), 1);
    }

    #[test]
    fn an_exhausted_retry_budget_stops_the_failover_ladder() {
        let a = "unix:/tmp/dagsched-test-noshard-a.sock";
        let b = "unix:/tmp/dagsched-test-noshard-b.sock";
        let mut shared = test_shared(&[a, b]);
        shared.retry_budget = RetryBudget::new(0, 8, 100);
        let mut conns = ShardConns::default();
        let (tx, _rx) = sync_channel::<ReplJob>(1);
        let payload = ScheduleRequest::asm("add %o0, %o1, %o2")
            .to_json()
            .to_string()
            .into_bytes();
        let err = forward_request(&shared, &mut conns, &tx, &payload, Instant::now())
            .expect_err("neither endpoint exists");
        assert!(err.code.is_retryable(), "{err}");
        assert_eq!(
            shared
                .metrics
                .retry_budget_exhausted
                .load(Ordering::Relaxed),
            1,
            "the second rung was denied"
        );
        let attempts: u64 = {
            let cluster = shared.lock_cluster();
            cluster
                .shards
                .iter()
                .map(|s| s.requests.load(Ordering::Relaxed))
                .sum()
        };
        assert_eq!(attempts, 1, "the first attempt is free, retries are not");
    }

    #[test]
    fn a_blown_primary_budget_starts_the_ladder_at_a_healthier_replica() {
        let a = "unix:/tmp/dagsched-test-slow-a.sock";
        let b = "unix:/tmp/dagsched-test-slow-b.sock";
        let shared = test_shared(&[a, b]);
        let req = {
            let mut r = ScheduleRequest::asm("add %o0, %o1, %o2");
            r.deadline_ms = Some(500);
            r
        };
        // Find the key's ring primary and make it look wedged: a 60s
        // EWMA with queued forwards estimates far past the 500ms
        // budget, while the secondary has no observations (estimate 0).
        let key = routing_key(&req).1;
        let primary_ep = {
            let cluster = shared.lock_cluster();
            cluster.ring.replicas(key, 2)[0].to_string()
        };
        let primary = shared
            .lock_cluster()
            .state_of(&primary_ep)
            .expect("primary state");
        primary.observe_latency(Duration::from_secs(60), false);
        primary.inflight.fetch_add(5, Ordering::Relaxed);

        let mut conns = ShardConns::default();
        let (tx, _rx) = sync_channel::<ReplJob>(1);
        let payload = req.to_json().to_string().into_bytes();
        let _ = forward_request(&shared, &mut conns, &tx, &payload, Instant::now())
            .expect_err("neither endpoint exists");
        assert_eq!(
            shared.metrics.deadline_reroutes.load(Ordering::Relaxed),
            1,
            "the ladder must not start at a primary that cannot make the deadline"
        );
    }

    #[test]
    fn routing_key_ignores_the_attempt_counter() {
        let mut a = ScheduleRequest::asm("add %o0, %o1, %o2");
        let mut b = a.clone();
        a.attempt = 0;
        b.attempt = 5;
        assert_eq!(routing_key(&a).1, routing_key(&b).1);
        let c = ScheduleRequest::asm("sub %o0, %o1, %o2");
        assert_ne!(routing_key(&a).1, routing_key(&c).1);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.replicas, 2);
        assert!(cfg.fail_threshold >= 1);
        assert!(cfg.revive_threshold >= 1, "half-open revive by default");
        assert!(cfg.hedge, "hedging is on by default");
        assert!(cfg.hedge_quantile > 0.5 && cfg.hedge_quantile < 1.0);
        assert!(cfg.hedge_min_ms <= cfg.hedge_max_ms);
        assert!(cfg.shard_retry.max_retries >= 1);
        assert!(cfg.replication_queue > 0);
        assert!(cfg.workers >= 1);
        assert!(cfg.queue >= 1);
    }

    #[test]
    fn link_level_shard_replies_are_health_evidence_not_relays() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::ParseError,
        ] {
            let err = ClientError::Server(ErrorReply::new(code, "x"));
            assert!(
                error_is_health_evidence(&err),
                "{code:?} from a shard means the link corrupted our frame"
            );
        }
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Quarantined,
            ErrorCode::DeadlineExpired,
        ] {
            let err = ClientError::Server(ErrorReply::new(code, "x"));
            assert!(
                !error_is_health_evidence(&err),
                "{code:?} is a verdict on the request, not the shard"
            );
        }
        let io = ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x"));
        assert!(error_is_health_evidence(&io));
    }

    #[test]
    fn rung_errors_rewrite_link_complaints_as_retryable() {
        let shard = ShardState::new("unix:/tmp/s.sock");
        let frame = ClientError::Server(ErrorReply::new(ErrorCode::MalformedFrame, "x"));
        let rewritten = rung_error(&shard, frame);
        assert_eq!(rewritten.code, ErrorCode::Internal);
        let verdict = ClientError::Server(ErrorReply::new(ErrorCode::BadRequest, "x"));
        assert_eq!(rung_error(&shard, verdict).code, ErrorCode::BadRequest);
    }
}
