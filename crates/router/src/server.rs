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
//! # Forwarding
//!
//! A forwarding worker carries each forward itself, on one path
//! (`exchange`): it writes the whole request frame on its kept (or
//! freshly dialed) shard connection, then polls the socket until a
//! complete reply frame has arrived. No thread is spawned per request.
//! A fresh connection is dialed once; a refused dial fails the rung at
//! once. A leg that moves no bytes for `shard_timeout` fails too.
//! The client's payload goes out as it arrived unless a `deadline_ms`
//! must be rewritten, and the shard's `Response` payload comes back to
//! the client byte for byte. The router decodes the request once with
//! the direct reader ([`ScheduleRequest::decode`]), writes any
//! rewritten request with the direct writer, and reads only
//! `stats.cache_misses` out of a reply, for the replication rule
//! ([`dagsched_proto::response_cache_misses`], which builds nothing).
//!
//! # Failover ladder
//!
//! A request's key is the FNV-1a hash of its canonical JSON (the
//! `attempt` counter zeroed — the same idempotency identity the
//! shards' cache and quarantine use), so the same request always lands
//! on the same shard and its schedule cache stays hot. The ladder is
//! the router's only retry: each rung dials once, sends once, and
//! tries a shard the request has not yet reached.
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
//! `oversized-frame`, `parse-error`, `idle-timeout`) are the exception:
//! the router always writes whole, well-formed frames, so a shard
//! claiming otherwise read corrupted bytes or waited on a stalled link —
//! those count as link evidence and the ladder moves on.
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
//! Hedging bounds tail latency the breaker cannot see: when nothing
//! complete has come back from the primary by that shard's observed
//! 95th-percentile forward latency (clamped to 10–400 ms, see
//! [`crate::shard::HEDGE_QUANTILE`]), the worker writes the same frame
//! to the next replica on a second connection, polls both, relays
//! whichever reply completes first and drops the loser's connection
//! (`hedged_requests`, `hedge_wins`). Both frames are written whole
//! before the worker waits, so the loser's shard answers a complete
//! request nobody reads instead of counting a truncated one. Racing a
//! compile is safe: requests are content-addressed and idempotent, and
//! replies are deterministic — both shards return bit-identical bytes,
//! so the client cannot observe which one won.
//!
//! Hedges are not rationed. What bounds them is the shape of a
//! forward: at most one hedge each, launched only after the primary
//! outlived its own p95, and a ladder that reaches each shard at most
//! once per request. Retry budgets belong to the clients, which are
//! the ones that resend.
//!
//! # Overload: deadline propagation
//!
//! A request that carried `deadline_ms` has its remaining budget
//! re-derived at every forward site: the time it spent queued in the
//! router (and burned on earlier rungs) is subtracted before the
//! deadline is re-encoded for the shard hop, so a shard never works a
//! budget the client has already given up on. When less than
//! [`dagsched_proto::MIN_FORWARD_DEADLINE_MS`] remains the router
//! fails fast with `deadline-expired` instead of forwarding
//! (`deadline_expired_in_router`). Remaining budgets at forward time
//! feed the `deadline_propagated_ms` histogram.
//!
//! # Replication
//!
//! A fresh compile on the primary (`cache_misses > 0` in the reply)
//! enqueues the same canonical request for the key's second ring
//! replica. A background replicator drains the queue and re-issues the
//! request there through the same `exchange`, warming the successor's
//! cache so the primary's death does not cold-start its working set.
//! The queue is bounded; when replication cannot keep up, jobs are
//! dropped and counted (`replication_dropped`) rather than
//! backpressuring the serving path.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dagsched_proto::json::Json;
use dagsched_proto::{
    hex_decode, remaining_deadline_ms, response_cache_misses, write_frame, AdminCommand, ErrorCode,
    ErrorReply, FrameKind, ScheduleRequest, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
use dagsched_service::client::{decode_error, Client, ClientError};
use dagsched_service::pipeline::{PushError, StageQueue, BUSY_RETRY_MS};
use dagsched_service::reactor::{
    install_sigterm_handler, lock_recover, Completion, Completions, ConnId, Ctx, Handler, Listener,
    Reactor, ReactorConfig,
};
use dagsched_service::server::Listen;

use crate::ring::{fnv64, Ring};
use crate::shard::{
    admin, wait_ready, Link, RouterMetrics, ShardConns, ShardState, Transition, HEDGE_MAX,
    HEDGE_MIN, HEDGE_QUANTILE,
};

/// Retry hint attached to `busy` rejections when no shard is live.
const NO_SHARD_RETRY_MS: u64 = 200;

/// Retry hint attached to `draining` rejections.
const DRAIN_RETRY_MS: u64 = 500;

/// Socket timeout for health probes (a hung shard must not wedge the
/// prober).
const PROBE_TIMEOUT: Duration = Duration::from_millis(2000);

/// Slow-loris bound: a client stalled inside a frame (or that never
/// completed one) this long gets a typed `idle-timeout` error.
const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(2);

/// Bounded replication-queue depth; past it, jobs are dropped and
/// counted.
const REPLICATION_QUEUE: usize = 256;

/// Forwarding worker threads (each owns its shard connections).
const WORKERS: usize = 4;

/// Bounded forwarding-queue depth; beyond it clients get `busy`.
const QUEUE: usize = 256;

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
    /// Install a SIGTERM handler that triggers a graceful drain.
    pub handle_sigterm: bool,
    /// How long one shard exchange (a forward, a hedge, a replication
    /// write, an admin command) may go without moving a byte.
    pub shard_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: Vec::new(),
            replicas: 2,
            fail_threshold: 3,
            revive_threshold: 3,
            health_check_ms: 500,
            handle_sigterm: false,
            shard_timeout: Duration::from_secs(10),
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

/// One replication job: warm `target` with the canonical request,
/// already framed.
struct ReplJob {
    target: String,
    frame: Vec<u8>,
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
    shard_timeout: Duration,
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
/// writes whole frames and forwards only payloads it parsed itself, so
/// a shard claiming otherwise read corrupted bytes, and a shard that
/// timed out waiting for the rest of a frame saw a stalled or
/// partitioned link.
fn reply_is_link_evidence(reply: &ErrorReply) -> bool {
    matches!(
        reply.code,
        ErrorCode::MalformedFrame
            | ErrorCode::OversizedFrame
            | ErrorCode::ParseError
            | ErrorCode::IdleTimeout
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

/// Forwarding worker: pops one job at a time, walks the failover ladder
/// (or runs the admin command) with its own keep-alive shard
/// connections, and pushes the encoded reply back to the reactor.
fn worker_loop(
    shared: Arc<Shared>,
    queue: Arc<StageQueue<RouterJob>>,
    completions: Arc<Completions>,
    inflight: Arc<AtomicU64>,
    repl_tx: SyncSender<ReplJob>,
) {
    let mut conns = ShardConns::default();
    while let Some(job) = queue.pop() {
        let bytes = match job.work {
            Work::Request(payload) => {
                match forward_request(&shared, &mut conns, &repl_tx, &payload, job.arrival) {
                    Ok(body) => {
                        RouterMetrics::bump(&shared.metrics.responses);
                        encode_frame(FrameKind::Response, &body)
                    }
                    Err(reply) => {
                        RouterMetrics::bump(&shared.metrics.errors);
                        encode_frame(FrameKind::Error, reply.to_json().to_string().as_bytes())
                    }
                }
            }
            Work::Admin(payload) => match handle_admin(&shared, &payload) {
                Ok(reply) => encode_frame(FrameKind::AdminReply, reply.to_string().as_bytes()),
                Err(reply) => {
                    RouterMetrics::bump(&shared.metrics.errors);
                    encode_frame(FrameKind::Error, reply.to_json().to_string().as_bytes())
                }
            },
        };
        // Push the completion *before* the inflight decrement: the
        // drain must never observe `idle` while a reply exists only on
        // this stack frame.
        completions.push(Completion {
            conn: job.conn,
            bytes,
        });
        inflight.fetch_sub(1, Ordering::SeqCst);
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
    let shared = Arc::new(Shared {
        cluster: Mutex::new(cluster),
        metrics: RouterMetrics::default(),
        drain: Arc::clone(&drain),
        replicas: config.replicas.max(1),
        fail_threshold: config.fail_threshold.max(1),
        revive_threshold: config.revive_threshold.max(1),
        health_check_ms: config.health_check_ms.max(50),
        shard_timeout: config.shard_timeout,
    });

    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            max_frame: DEFAULT_MAX_FRAME,
            first_frame_timeout: FIRST_FRAME_TIMEOUT,
            drain_message: "router is draining",
            drain_retry_ms: DRAIN_RETRY_MS,
        },
        Arc::clone(&drain),
    )?;
    let completions = reactor.completions();

    let (repl_tx, repl_rx) = sync_channel::<ReplJob>(REPLICATION_QUEUE);
    let repl_shared = Arc::clone(&shared);
    let replicator = std::thread::Builder::new()
        .name("dagsched-replicator".to_string())
        .spawn(move || replicate_loop(repl_shared, repl_rx))?;

    let probe_shared = Arc::clone(&shared);
    let prober = std::thread::Builder::new()
        .name("dagsched-prober".to_string())
        .spawn(move || probe_loop(probe_shared))?;

    let queue = Arc::new(StageQueue::<RouterJob>::new(QUEUE));
    let inflight = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    let mut spawn_all = || -> io::Result<()> {
        for i in 0..WORKERS {
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

/// A request's ring key: FNV-1a of [`ScheduleRequest::canonical_json`],
/// the same identity the shards' single-flight table and quarantine key
/// on, so retries and repeats land on the same shard.
fn ring_key(req: &ScheduleRequest) -> u64 {
    fnv64(req.canonical_json().as_bytes())
}

/// The canonical request (`attempt` zeroed) and its routing key (see
/// `ring_key`).
pub fn routing_key(req: &ScheduleRequest) -> (ScheduleRequest, u64) {
    let canonical = ScheduleRequest {
        attempt: 0,
        ..req.clone()
    };
    (canonical, ring_key(req))
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
    /// The hedge partner beat a slow-but-alive primary. Not a
    /// failover: the primary never failed, it was merely outraced.
    HedgeWin,
}

/// Queue the canonical form of `req` (attempt zeroed, original
/// deadline, debug knobs off) for `successor`, warming its cache with a
/// fresh compile. A full queue drops the job rather than backpressuring
/// the serving path.
fn replicate(
    shared: &Shared,
    repl_tx: &SyncSender<ReplJob>,
    successor: &ShardState,
    req: ScheduleRequest,
    deadline_ms: Option<u64>,
) {
    let canonical = ScheduleRequest {
        attempt: 0,
        deadline_ms,
        sim: false,
        linger_ms: 0,
        debug_panic: false,
        ..req
    };
    let job = ReplJob {
        target: successor.endpoint.clone(),
        frame: request_frame(&canonical),
    };
    if repl_tx.try_send(job).is_err() {
        RouterMetrics::bump(&shared.metrics.replication_dropped);
    }
}

/// Subtract the time since `arrival` from the request's original
/// deadline and write the remainder into `req` for the next shard hop,
/// so queue time in the router is never silently billed to the shard.
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

/// A `Request` frame for `req`, written by the direct writer with the
/// request's own `attempt`.
fn request_frame(req: &ScheduleRequest) -> Vec<u8> {
    let mut payload = String::new();
    req.write_json(req.attempt, &mut payload);
    encode_frame(FrameKind::Request, payload.as_bytes())
}

/// Walk the failover ladder for one request; returns the shard's
/// `Response` payload to relay as it arrived.
fn forward_request(
    shared: &Shared,
    conns: &mut ShardConns,
    repl_tx: &SyncSender<ReplJob>,
    payload: &[u8],
    arrival: Instant,
) -> Result<Vec<u8>, ErrorReply> {
    let mut req = ScheduleRequest::decode(payload)?;
    let key = ring_key(&req);

    // Deadline propagation: bill the queue time this frame already
    // spent in the router against the client's budget before any
    // forward — a request that died waiting is shed, not compiled.
    let orig_deadline = req.deadline_ms;
    let budget = propagate_deadline(shared, &mut req, orig_deadline, arrival)?;
    // Without a deadline to rewrite, the client's bytes go out as they
    // arrived.
    let mut frame = match budget {
        Some(_) => request_frame(&req),
        None => encode_frame(FrameKind::Request, payload),
    };

    // Snapshot the ladder under the lock, then forward without it.
    let (replicas, others): (Vec<Arc<ShardState>>, Vec<Arc<ShardState>>) = {
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

    // The primary rung races the next replica while both are believed
    // healthy.
    let primary = Arc::clone(&replicas[0]);
    let partner = replicas
        .get(1)
        .filter(|s| primary.is_up() && s.is_up())
        .cloned();

    // Rungs 1–2: the replica set in ring order; rung 3: every other
    // live shard, cheapest health score first. Down shards are skipped
    // without burning a dial, but when *nothing* is believed up we
    // still try the replica set once — the belief may be stale, and the
    // prober only revives shards every `health_check_ms`.
    let any_up = replicas.iter().chain(others.iter()).any(|s| s.is_up());
    let mut reroute: Vec<&Arc<ShardState>> = others.iter().filter(|s| s.is_up()).collect();
    reroute.sort_by_key(|s| s.health_score());
    let mut last_err: Option<ErrorReply> = None;
    let mut attempted = false;
    for (tier, shard) in replicas
        .iter()
        .map(|s| (0usize, s))
        .chain(reroute.into_iter().map(|s| (1usize, s)))
    {
        if tier == 0 && !shard.is_up() && any_up {
            RouterMetrics::bump(&shard.failovers);
            continue;
        }
        // Earlier rungs burned real time: re-derive the deadline for
        // this hop (and shed if nothing usable is left).
        if attempted && propagate_deadline(shared, &mut req, orig_deadline, arrival)?.is_some() {
            frame = request_frame(&req);
        }
        attempted = true;
        let is_primary = Arc::ptr_eq(shard, &primary);
        let hedge = partner.as_ref().filter(|_| is_primary);
        let (outcome, by_partner, latency) = exchange(shared, conns, &frame, shard, hedge);
        let (payload, misses) = match outcome {
            Outcome::Answer { payload, misses } => (payload, misses),
            Outcome::Verdict(reply) => return Err(reply),
            Outcome::Failed(reply) => {
                RouterMetrics::bump(&shard.failovers);
                last_err = Some(reply);
                continue;
            }
        };
        let (answered, rung) = match hedge {
            Some(partner) if by_partner => (partner, Rung::HedgeWin),
            _ if is_primary => (shard, Rung::Primary),
            _ if tier == 0 => (shard, Rung::Failover),
            _ => (shard, Rung::Rerouted),
        };
        answered.observe_latency(latency, true);
        match rung {
            // Replicate fresh compiles from the primary to its first
            // ring successor (R ≥ 2 and a successor exists).
            Rung::Primary if misses > 0 => {
                if let Some(successor) = replicas.get(1) {
                    replicate(shared, repl_tx, successor, req, orig_deadline);
                }
            }
            Rung::Primary => {}
            Rung::HedgeWin => {
                RouterMetrics::bump(&shared.metrics.hedge_wins);
                RouterMetrics::bump(&answered.hedge_wins);
            }
            Rung::Failover => RouterMetrics::bump(&shared.metrics.failovers),
            Rung::Rerouted => RouterMetrics::bump(&shared.metrics.rerouted),
        }
        return Ok(payload);
    }
    RouterMetrics::bump(&shared.metrics.no_live_shard);
    Err(last_err
        .unwrap_or_else(|| ErrorReply::new(ErrorCode::Busy, "no live shard"))
        // Every rung failed: whatever the last error was, the client
        // should treat the condition as transient and back off.
        .with_retry_after_ms(NO_SHARD_RETRY_MS))
}

/// How one shard's part in a rung ended.
enum Outcome {
    /// A `Response`, relayed to the client as it arrived.
    Answer {
        /// The payload, byte for byte.
        payload: Vec<u8>,
        /// Its `stats.cache_misses`: fresh compiles are replicated.
        misses: u64,
    },
    /// A healthy shard rejected the request itself: relayed without
    /// failover, which would reproduce the rejection.
    Verdict(ErrorReply),
    /// The shard or its link failed (evidence already recorded): the
    /// ladder moves on.
    Failed(ErrorReply),
}

/// Classify what one shard sent back, or how its connection failed,
/// and record the health evidence. Forwards, hedges and replication
/// writes all settle here.
fn settle(
    shared: &Shared,
    shard: &ShardState,
    reply: Result<(FrameKind, Vec<u8>), ClientError>,
) -> Outcome {
    let err = match reply {
        Ok((FrameKind::Response, payload)) => match response_cache_misses(&payload) {
            Some(misses) => {
                note_success(shared, shard);
                return Outcome::Answer { payload, misses };
            }
            None => ClientError::Protocol("undecodable response".to_string()),
        },
        Ok((FrameKind::Error, payload)) => match decode_error(&payload) {
            Ok(reply) => ClientError::Server(reply),
            Err(err) => err,
        },
        Ok((kind, _)) => ClientError::Protocol(format!("expected a response frame, got {kind:?}")),
        Err(err) => err,
    };
    match err {
        ClientError::Server(reply)
            if !reply.code.is_retryable() && !reply_is_link_evidence(&reply) =>
        {
            // The shard answered: it is healthy, the request is not.
            note_success(shared, shard);
            Outcome::Verdict(reply)
        }
        err => {
            note_failure(shared, shard, &err);
            Outcome::Failed(rung_error(shard, err))
        }
    }
}

/// One copy of a request on the wire.
struct Leg<'a> {
    shard: &'a Arc<ShardState>,
    link: Link,
    sent: Instant,
}

/// Check out a connection to `shard` and write `frame` on it whole.
/// A failure is settled at once.
fn open_leg<'a>(
    shared: &Shared,
    conns: &mut ShardConns,
    frame: &[u8],
    shard: &'a Arc<ShardState>,
) -> Result<Leg<'a>, Outcome> {
    RouterMetrics::bump(&shard.requests);
    let sent = Instant::now();
    let opened = conns
        .checkout(&shard.endpoint)
        .and_then(|mut link| link.send(frame, shared.shard_timeout).map(|()| link));
    match opened {
        Ok(link) => {
            shard.inflight.fetch_add(1, Ordering::Relaxed);
            Ok(Leg { shard, link, sent })
        }
        Err(err) => Err(settle(shared, shard, Err(err))),
    }
}

/// Send `frame` to `shard` and wait for the first complete reply.
///
/// With a hedge `partner`: if nothing complete has come back by
/// `shard`'s hedge delay, the same bytes go to `partner` on a second
/// connection, and whichever reply completes first settles the
/// exchange; the other connection is dropped. A leg that fails while
/// the other is still out leaves the race to it. A leg times out after
/// `shard_timeout` without progress.
///
/// Returns the outcome, whether `partner` produced it, and that leg's
/// round-trip latency. The answering connection is kept for the next
/// forward.
fn exchange(
    shared: &Shared,
    conns: &mut ShardConns,
    frame: &[u8],
    shard: &Arc<ShardState>,
    partner: Option<&Arc<ShardState>>,
) -> (Outcome, bool, Duration) {
    let timeout = shared.shard_timeout;
    let mut legs = match open_leg(shared, conns, frame, shard) {
        Ok(leg) => vec![leg],
        Err(outcome) => return (outcome, false, Duration::ZERO),
    };
    let mut hedge_at =
        partner.map(|_| legs[0].sent + shard.hedge_delay(HEDGE_QUANTILE, HEDGE_MIN, HEDGE_MAX));
    let mut failed = None;
    loop {
        let until = legs
            .iter()
            .filter_map(|leg| leg.link.deadline(timeout))
            .chain(hedge_at)
            .min();
        wait_ready(legs.iter().map(|leg| &leg.link), false, until);

        let mut i = 0;
        while i < legs.len() {
            let reply = match legs[i].link.read_reply() {
                Ok(Some(reply)) => Ok(reply),
                Ok(None) if !legs[i].link.expired(timeout) => {
                    i += 1;
                    continue;
                }
                Ok(None) => Err(io::Error::from(io::ErrorKind::TimedOut).into()),
                Err(err) => Err(err),
            };
            let leg = legs.swap_remove(i);
            leg.shard.inflight.fetch_sub(1, Ordering::Relaxed);
            match settle(shared, leg.shard, reply) {
                Outcome::Failed(reply) => failed = Some(reply),
                outcome => {
                    for loser in &legs {
                        loser.shard.inflight.fetch_sub(1, Ordering::Relaxed);
                    }
                    let by_partner = !Arc::ptr_eq(leg.shard, shard);
                    let latency = leg.sent.elapsed();
                    conns.checkin(&leg.shard.endpoint, leg.link);
                    return (outcome, by_partner, latency);
                }
            }
        }
        if legs.is_empty() {
            let reply = failed
                .unwrap_or_else(|| ErrorReply::new(ErrorCode::Internal, "every shard leg failed"));
            return (Outcome::Failed(reply), false, Duration::ZERO);
        }

        // The primary outlived its hedge delay: send the same frame to
        // the partner.
        if let (Some(at), Some(partner)) = (hedge_at, partner) {
            if Instant::now() >= at {
                hedge_at = None;
                RouterMetrics::bump(&shared.metrics.hedged_requests);
                RouterMetrics::bump(&shard.hedges);
                // A partner that cannot be reached was settled as
                // evidence; the primary keeps the race.
                if let Ok(leg) = open_leg(shared, conns, frame, partner) {
                    legs.push(leg);
                }
            }
        }
    }
}

/// Answer one router admin command (cluster membership; shard-level
/// snapshot commands are refused with a pointer to the right tier).
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
                let exported = admin(
                    donor_ep,
                    &AdminCommand::SnapshotExport,
                    shared.shard_timeout,
                )
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
                let installed_reply = admin(
                    &endpoint,
                    &AdminCommand::SnapshotInstall { shipment },
                    shared.shard_timeout,
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
        match exchange(&shared, &mut conns, &job.frame, &shard, None) {
            (Outcome::Answer { .. }, _, latency) => {
                // Background writes feed the EWMA but not the hedge
                // window — the quantile must reflect client forwards.
                shard.observe_latency(latency, false);
                RouterMetrics::bump(&shard.replication_writes);
                RouterMetrics::bump(&shared.metrics.replication_writes);
            }
            // `settle` fed link evidence to the breaker; a plain
            // rejection (e.g. draining) did not. Replication is
            // best-effort either way.
            _ => RouterMetrics::bump(&shared.metrics.replication_dropped),
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

    /// A [`Shared`] with the given shard endpoints and a short shard
    /// timeout, for exercising `forward_request` directly.
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
            shard_timeout: Duration::from_millis(200),
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

    /// A malformed request is refused before any shard sees it, with
    /// the code and message the tree decoder produced (the messages are
    /// pinned here as the daemon's test pins them).
    #[test]
    fn malformed_requests_are_refused_with_the_decoders_errors() {
        let shared = test_shared(&[]);
        let mut conns = ShardConns::default();
        let (tx, _rx) = sync_channel::<ReplJob>(1);
        for (payload, code, message) in [
            (
                &b"{\"asm\":"[..],
                ErrorCode::ParseError,
                "request is not JSON: json error at byte 7: unexpected end of input",
            ),
            (
                b"\xff",
                ErrorCode::ParseError,
                "request payload is not UTF-8",
            ),
            (
                b"{\"profile\":1}",
                ErrorCode::BadRequest,
                "request needs an `asm` or `profile` field",
            ),
            (
                b"{\"asm\":\"nop\",\"jobs\":65537}",
                ErrorCode::BadRequest,
                "`jobs` value 65537 is out of range (max 65536)",
            ),
        ] {
            let err = forward_request(&shared, &mut conns, &tx, payload, Instant::now())
                .expect_err("malformed");
            assert_eq!((err.code, err.message.as_str()), (code, message));
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.replicas, 2);
        assert!(cfg.fail_threshold >= 1);
        assert!(cfg.revive_threshold >= 1, "half-open revive by default");
        assert!(cfg.shard_timeout > Duration::ZERO);
        const {
            assert!(REPLICATION_QUEUE > 0);
            assert!(WORKERS >= 1);
            assert!(QUEUE >= 1);
        }
    }

    #[test]
    fn link_level_shard_replies_are_health_evidence_not_relays() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::ParseError,
            ErrorCode::IdleTimeout,
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
