//! Per-shard health state (latency-aware score + circuit breaker),
//! the kept shard connections a forwarding worker drives, and the
//! router's own counters.
//!
//! # Breaker state machine
//!
//! Binary up/down health cannot see gray failures — a shard that
//! answers slowly, or a link that flaps — so each shard carries a
//! three-state circuit breaker:
//!
//! ```text
//!            fail_threshold consecutive failures
//!   CLOSED ──────────────────────────────────────▶ OPEN
//!     ▲                                             │ first probe/forward success
//!     │ revive_threshold consecutive successes      ▼
//!     └───────────────────────────────────────── HALF-OPEN
//!                     (any failure reopens)
//! ```
//!
//! Only `Closed` shards receive live traffic (the forwarding ladder
//! treats everything else as down, with a last-resort exception when
//! *no* shard is closed). `Open` and `HalfOpen` shards are exercised by
//! the prober's trial pings; a flapping shard therefore has to prove
//! itself `revive_threshold` times in a row before it absorbs client
//! requests again — the old single-success instant revive let one lucky
//! probe route real traffic onto a dying shard.
//!
//! # Latency score
//!
//! Every successful probe and forward feeds an EWMA of observed latency
//! (`α = 1/5`); forwards additionally feed a small sliding window from
//! which the hedging delay quantile ([`HEDGE_QUANTILE`], clamped to
//! [`HEDGE_MIN`]..[`HEDGE_MAX`]) is drawn. [`ShardState::health_score`]
//! combines the EWMA with current failure evidence and orders the
//! reroute tier, so overflow traffic prefers fast, unblemished shards.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dagsched_proto::json::Json;
use dagsched_proto::{AdminCommand, FrameAssembler, FrameKind, DEFAULT_MAX_FRAME};
use dagsched_service::client::{Client, ClientError};
#[cfg(not(unix))]
use dagsched_service::reactor::NO_POLL_TICK;
use dagsched_service::reactor::{lock_recover, Stream};

/// Circuit-breaker state for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: receives live traffic.
    Closed,
    /// Tripped: no live traffic, probes only.
    Open,
    /// Reviving: at least one trial success, not yet enough to close.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for metrics.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What a recorded success or failure did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// Tripped: `Closed`/`HalfOpen` → `Open`.
    Opened,
    /// First trial success: `Open` → `HalfOpen`.
    HalfOpened,
    /// Fully revived: `HalfOpen` → `Closed`.
    Closed,
}

/// Breaker state plus the evidence counters it transitions on, guarded
/// as one unit so concurrent probes and forwards cannot tear a
/// transition.
#[derive(Debug)]
struct Health {
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_successes: u32,
}

/// Sliding window of recent *forward* latencies, the sample set the
/// hedge-trigger quantile is computed from. Probe latencies are
/// excluded: a sub-millisecond ping would drag the quantile far below
/// real compile latency and make every forward hedge.
#[derive(Debug)]
struct LatencyWindow {
    samples: [u64; LatencyWindow::CAP],
    len: usize,
    next: usize,
}

impl LatencyWindow {
    const CAP: usize = 64;
    /// Below this many samples the quantile is considered unknown and
    /// the hedge delay falls back to its configured maximum.
    const MIN_SAMPLES: usize = 8;

    fn new() -> LatencyWindow {
        LatencyWindow {
            samples: [0; LatencyWindow::CAP],
            len: 0,
            next: 0,
        }
    }

    fn push(&mut self, micros: u64) {
        self.samples[self.next] = micros;
        self.next = (self.next + 1) % LatencyWindow::CAP;
        self.len = (self.len + 1).min(LatencyWindow::CAP);
    }

    /// The `q`-quantile of the window in microseconds, `None` with too
    /// few samples.
    fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.len < LatencyWindow::MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = self.samples[..self.len].to_vec();
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (self.len - 1) as f64).round() as usize;
        Some(sorted[rank.min(self.len - 1)])
    }
}

/// The forward-latency quantile a primary forward must outlive before
/// the router sends the same request to the next replica.
pub const HEDGE_QUANTILE: f64 = 0.95;

/// Lower clamp on the hedge delay.
pub const HEDGE_MIN: Duration = Duration::from_millis(10);

/// Upper clamp on the hedge delay, and the delay while a shard has too
/// few forward samples for a quantile.
pub const HEDGE_MAX: Duration = Duration::from_millis(400);

/// Health and traffic counters for one shard.
#[derive(Debug)]
pub struct ShardState {
    /// The endpoint this shard was added with (`unix:/path` or
    /// `host:port`); also its ring identity.
    pub endpoint: String,
    /// Breaker state machine (see the module docs).
    health: Mutex<Health>,
    /// EWMA of successful probe + forward latency, microseconds
    /// (`0` = no observation yet).
    ewma_us: AtomicU64,
    /// Recent forward latencies, for the hedge quantile.
    window: Mutex<LatencyWindow>,
    /// Requests currently on their way to or from this shard.
    pub inflight: AtomicU64,
    /// Requests sent to this shard (forwards, hedges and replication
    /// writes; any outcome, a failed dial included).
    pub requests: AtomicU64,
    /// Failed forwards and probes.
    pub failures: AtomicU64,
    /// Requests that failed over *away* from this shard while it was
    /// in the key's replica set.
    pub failovers: AtomicU64,
    /// Replication writes delivered to this shard (as a ring
    /// successor).
    pub replication_writes: AtomicU64,
    /// Hedged forwards launched while this shard was the primary.
    pub hedges: AtomicU64,
    /// Hedge races this shard won as the secondary.
    pub hedge_wins: AtomicU64,
}

impl ShardState {
    /// Fresh state for `endpoint`, assumed up until proven otherwise.
    pub fn new(endpoint: impl Into<String>) -> ShardState {
        ShardState {
            endpoint: endpoint.into(),
            health: Mutex::new(Health {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                consecutive_successes: 0,
            }),
            ewma_us: AtomicU64::new(0),
            window: Mutex::new(LatencyWindow::new()),
            inflight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            replication_writes: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
        }
    }

    /// Whether the shard is routable (breaker closed).
    pub fn is_up(&self) -> bool {
        self.breaker() == BreakerState::Closed
    }

    /// Current breaker state.
    pub fn breaker(&self) -> BreakerState {
        lock_recover(&self.health).state
    }

    /// Current consecutive-failure streak.
    pub fn failure_streak(&self) -> u32 {
        lock_recover(&self.health).consecutive_failures
    }

    /// Current consecutive-success streak (meaningful while reviving).
    pub fn success_streak(&self) -> u32 {
        lock_recover(&self.health).consecutive_successes
    }

    /// Record a successful interaction (probe or forward). A closed
    /// breaker just resets the failure streak; an open one moves to
    /// half-open; a half-open one closes after `revive_threshold`
    /// consecutive successes — one lucky probe no longer revives a
    /// shard instantly.
    pub fn record_success(&self, revive_threshold: u32) -> Transition {
        let mut h = lock_recover(&self.health);
        h.consecutive_failures = 0;
        match h.state {
            BreakerState::Closed => {
                h.consecutive_successes = 0;
                Transition::None
            }
            BreakerState::Open => {
                h.consecutive_successes = 1;
                if h.consecutive_successes >= revive_threshold.max(1) {
                    h.state = BreakerState::Closed;
                    Transition::Closed
                } else {
                    h.state = BreakerState::HalfOpen;
                    Transition::HalfOpened
                }
            }
            BreakerState::HalfOpen => {
                h.consecutive_successes += 1;
                if h.consecutive_successes >= revive_threshold.max(1) {
                    h.state = BreakerState::Closed;
                    h.consecutive_successes = 0;
                    Transition::Closed
                } else {
                    Transition::None
                }
            }
        }
    }

    /// Record a failed interaction; past `threshold` consecutive
    /// failures the breaker trips. A failure while half-open reopens
    /// immediately (the trial failed).
    pub fn record_failure(&self, threshold: u32) -> Transition {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut h = lock_recover(&self.health);
        h.consecutive_successes = 0;
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        match h.state {
            BreakerState::Open => Transition::None,
            BreakerState::HalfOpen => {
                h.state = BreakerState::Open;
                Transition::Opened
            }
            BreakerState::Closed => {
                if h.consecutive_failures >= threshold.max(1) {
                    h.state = BreakerState::Open;
                    Transition::Opened
                } else {
                    Transition::None
                }
            }
        }
    }

    /// Feed one successful-interaction latency into the health score.
    /// Forward latencies additionally feed the hedge-quantile window;
    /// probe latencies only move the EWMA.
    pub fn observe_latency(&self, latency: Duration, forward: bool) {
        let us = u64::try_from(latency.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        // α = 1/5: new = old + (x − old)/5, in integer microseconds.
        let mut old = self.ewma_us.load(Ordering::Relaxed);
        loop {
            let new = if old == 0 {
                us
            } else {
                (old.saturating_mul(4).saturating_add(us)) / 5
            };
            match self
                .ewma_us
                .compare_exchange_weak(old, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => old = seen,
            }
        }
        if forward {
            lock_recover(&self.window).push(us);
        }
    }

    /// EWMA latency in microseconds (`0` = no observation yet).
    pub fn ewma_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }

    /// Latency-aware health score (lower is better): the EWMA latency
    /// scaled up by current failure evidence. Shards with no
    /// observations score as slow-but-clean rather than perfect.
    pub fn health_score(&self) -> u64 {
        let base = match self.ewma_us() {
            0 => 1_000_000, // unknown ≈ one second
            us => us,
        };
        base.saturating_mul(u64::from(self.failure_streak()) + 1)
    }

    /// The hedge-trigger delay for forwards to this shard: the
    /// `quantile` of its recent forward latencies, clamped to
    /// `[min, max]`; `max` until enough samples exist. The router calls
    /// it with [`HEDGE_QUANTILE`], [`HEDGE_MIN`] and [`HEDGE_MAX`].
    pub fn hedge_delay(&self, quantile: f64, min: Duration, max: Duration) -> Duration {
        match lock_recover(&self.window).quantile_us(quantile) {
            Some(us) => Duration::from_micros(us).clamp(min, max),
            None => max,
        }
    }

    /// This shard's gauge object in the metrics snapshot.
    pub fn to_json(&self) -> Json {
        let g = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj(vec![
            ("endpoint", Json::from(self.endpoint.as_str())),
            ("up", Json::from(self.is_up())),
            ("breaker", Json::from(self.breaker().name())),
            (
                "consecutive_failures",
                Json::from(u64::from(self.failure_streak())),
            ),
            (
                "consecutive_successes",
                Json::from(u64::from(self.success_streak())),
            ),
            ("ewma_us", Json::from(self.ewma_us())),
            ("inflight", g(&self.inflight)),
            ("requests", g(&self.requests)),
            ("failures", g(&self.failures)),
            ("failovers", g(&self.failovers)),
            ("replication_writes", g(&self.replication_writes)),
            ("hedges", g(&self.hedges)),
            ("hedge_wins", g(&self.hedge_wins)),
        ])
    }
}

/// One shard connection as a forwarding worker drives it: a
/// nonblocking socket, the assembler its reply bytes collect in, and
/// when bytes last moved on it.
pub(crate) struct Link {
    stream: Stream,
    asm: FrameAssembler,
    progress: Instant,
}

impl Link {
    /// Dial `endpoint` once: a refused dial fails the rung at once.
    fn dial(endpoint: &str) -> Result<Link, ClientError> {
        let stream = Client::connect(endpoint)?.into_stream();
        stream.set_nonblocking(true)?;
        Ok(Link {
            stream,
            asm: FrameAssembler::new(DEFAULT_MAX_FRAME),
            progress: Instant::now(),
        })
    }

    /// Whether a kept connection is still good for a request: no bytes
    /// buffered or waiting, and no hangup. A shard that restarted or
    /// closed the connection as idle shows EOF here, so the request goes
    /// out on a fresh dial instead of into a dead socket.
    fn is_idle(&mut self) -> bool {
        let mut probe = [0u8; 1];
        !self.asm.mid_frame()
            && matches!(self.stream.read(&mut probe), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
    }

    /// The instant this link times out: `timeout` after bytes last
    /// moved on it (`None` when that instant is past the clock's range).
    pub(crate) fn deadline(&self, timeout: Duration) -> Option<Instant> {
        self.progress.checked_add(timeout)
    }

    /// Whether `timeout` has passed since bytes last moved.
    pub(crate) fn expired(&self, timeout: Duration) -> bool {
        self.deadline(timeout).is_some_and(|t| Instant::now() >= t)
    }

    /// Write `frame` whole before returning: the shard never sees a
    /// request cut short by the router. Fails when the socket breaks or
    /// accepts nothing for `timeout`.
    pub(crate) fn send(&mut self, frame: &[u8], timeout: Duration) -> Result<(), ClientError> {
        self.progress = Instant::now();
        let mut pos = 0;
        while pos < frame.len() {
            match self.stream.write(&frame[pos..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => {
                    pos += n;
                    self.progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.expired(timeout) {
                        return Err(io::Error::from(io::ErrorKind::TimedOut).into());
                    }
                    wait_ready([&*self], true, self.deadline(timeout));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Read whatever the socket holds; `Ok(Some(..))` once a whole reply
    /// frame has arrived, `Ok(None)` while it is still on its way.
    pub(crate) fn read_reply(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.asm.next_frame()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut buf) {
                Ok(0) if self.asm.mid_frame() => return Err(self.asm.eof_error().into()),
                Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => {
                    self.asm.extend(&buf[..n]);
                    self.progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Block until one of `links` is readable (or writable) or `until`
/// passes: `poll(2)` on unix, the reactor's timed tick elsewhere.
/// Readiness is only a hint; callers retry their nonblocking operation.
#[cfg(unix)]
pub(crate) fn wait_ready<'a>(
    links: impl IntoIterator<Item = &'a Link>,
    writable: bool,
    until: Option<Instant>,
) {
    use dagsched_service::reactor::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
    use std::os::unix::io::AsRawFd;
    let events = if writable { POLLOUT } else { POLLIN };
    let mut fds: Vec<PollFd> = links
        .into_iter()
        .map(|l| PollFd {
            fd: l.stream.as_raw_fd(),
            events,
            revents: 0,
        })
        .collect();
    // Round up: a sub-millisecond remainder must not spin on poll(0).
    let timeout_ms = until.map_or(-1, |t| {
        let left = t.saturating_duration_since(Instant::now());
        i32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
    });
    let _ = poll_fds(&mut fds, timeout_ms);
}

/// Block until one of `links` is readable (or writable) or `until`
/// passes: `poll(2)` on unix, the reactor's timed tick elsewhere.
#[cfg(not(unix))]
pub(crate) fn wait_ready<'a>(
    _links: impl IntoIterator<Item = &'a Link>,
    _writable: bool,
    until: Option<Instant>,
) {
    let left = until.map_or(NO_POLL_TICK, |t| {
        t.saturating_duration_since(Instant::now())
    });
    std::thread::sleep(left.min(NO_POLL_TICK));
}

/// Kept shard connections, one map per forwarding worker (no sharing
/// across threads: a broken connection only affects its owner).
#[derive(Default)]
pub(crate) struct ShardConns {
    links: HashMap<String, Link>,
}

impl ShardConns {
    /// The kept connection to `endpoint` if it is still idle and open,
    /// otherwise a fresh one. The caller owns it for one exchange and
    /// hands it back with [`ShardConns::checkin`] only if it ended on a
    /// whole reply.
    pub(crate) fn checkout(&mut self, endpoint: &str) -> Result<Link, ClientError> {
        if let Some(mut link) = self.links.remove(endpoint) {
            if link.is_idle() {
                return Ok(link);
            }
        }
        Link::dial(endpoint)
    }

    /// Keep `link` for the next request to `endpoint`.
    pub(crate) fn checkin(&mut self, endpoint: &str, link: Link) {
        self.links.insert(endpoint.to_string(), link);
    }
}

/// Send one admin command to `endpoint` on a fresh connection, dialed
/// once; the reply may take up to `timeout` per socket operation.
pub(crate) fn admin(
    endpoint: &str,
    cmd: &AdminCommand,
    timeout: Duration,
) -> Result<Json, ClientError> {
    let mut client = Client::connect(endpoint)?;
    client.set_io_timeout(Some(timeout));
    client.admin(cmd)
}

/// Fixed-bucket histogram of the deadline budget (milliseconds) still
/// remaining when a request was re-encoded for its shard hop. A mass
/// shift toward the low buckets is the early-warning sign that router
/// queueing is eating the clients' deadlines.
#[derive(Debug, Default)]
pub struct DeadlineHistogram {
    /// One counter per bucket in [`DeadlineHistogram::BOUNDS`], plus a
    /// trailing overflow bucket.
    buckets: [AtomicU64; DeadlineHistogram::BOUNDS.len() + 1],
}

impl DeadlineHistogram {
    /// Upper bounds (inclusive) of the finite buckets, milliseconds.
    pub const BOUNDS: [u64; 7] = [1, 5, 10, 50, 100, 500, 1000];

    /// Record one propagated remaining deadline.
    pub fn observe(&self, ms: u64) {
        let idx = Self::BOUNDS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(Self::BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations across every bucket.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The histogram as a JSON object: one `le_<bound>` field per
    /// finite bucket, `gt_1000` for the overflow, and the total count.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Self::BOUNDS
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    format!("le_{b}"),
                    Json::from(self.buckets[i].load(Ordering::Relaxed)),
                )
            })
            .collect();
        fields.push((
            format!("gt_{}", Self::BOUNDS[Self::BOUNDS.len() - 1]),
            Json::from(self.buckets[Self::BOUNDS.len()].load(Ordering::Relaxed)),
        ));
        fields.push(("count".to_string(), Json::from(self.count())));
        Json::Obj(fields)
    }
}

/// Router-level counters, exported over the `Metrics` frame in the
/// same shape as the daemon's (flat counters plus nested detail).
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Client connections accepted.
    pub connections: AtomicU64,
    /// Schedule requests received from clients.
    pub requests: AtomicU64,
    /// Successful responses relayed back.
    pub responses: AtomicU64,
    /// Error replies sent (any code, any origin).
    pub errors: AtomicU64,
    /// Requests served by a non-primary ring replica after the primary
    /// failed.
    pub failovers: AtomicU64,
    /// Requests routed *outside* the key's replica set because the
    /// whole set was down (served as a cache miss, not an error).
    pub rerouted: AtomicU64,
    /// Replication writes delivered to ring successors.
    pub replication_writes: AtomicU64,
    /// Replication jobs dropped because the queue was full.
    pub replication_dropped: AtomicU64,
    /// Health probes performed.
    pub health_probes: AtomicU64,
    /// Breaker trips: times a shard went `Closed`/`HalfOpen` → `Open`.
    pub shards_marked_down: AtomicU64,
    /// Times an open breaker saw its first trial success (`HalfOpen`).
    pub breaker_half_open: AtomicU64,
    /// Times a breaker fully closed again (shard returned to the ring).
    pub breaker_closed: AtomicU64,
    /// Forwards that launched a hedge after the quantile delay.
    pub hedged_requests: AtomicU64,
    /// Hedge races the secondary won.
    pub hedge_wins: AtomicU64,
    /// Shards added via admin (warm-spare promotions included).
    pub shards_added: AtomicU64,
    /// Shards removed via admin.
    pub shards_removed: AtomicU64,
    /// Cache entries installed on joining shards via snapshot shipping.
    pub warm_spare_entries_shipped: AtomicU64,
    /// Requests rejected because no live shard existed.
    pub no_live_shard: AtomicU64,
    /// Requests failed fast with `deadline-expired` because the time
    /// already spent queued in the router left less than the forward
    /// floor.
    pub deadline_expired_in_router: AtomicU64,
    /// Remaining deadline budget (ms) at the moment requests were
    /// re-encoded for their shard hop.
    pub deadline_propagated_ms: DeadlineHistogram,
}

impl RouterMetrics {
    /// Increment a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every router counter plus the per-shard gauges.
    pub fn snapshot(&self, shards: &[std::sync::Arc<ShardState>]) -> Json {
        let g = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let up = shards.iter().filter(|s| s.is_up()).count() as u64;
        Json::obj(vec![
            ("connections", g(&self.connections)),
            ("requests", g(&self.requests)),
            ("responses", g(&self.responses)),
            ("errors", g(&self.errors)),
            ("failovers", g(&self.failovers)),
            ("rerouted", g(&self.rerouted)),
            ("replication_writes", g(&self.replication_writes)),
            ("replication_dropped", g(&self.replication_dropped)),
            ("health_probes", g(&self.health_probes)),
            ("shards_marked_down", g(&self.shards_marked_down)),
            ("breaker_half_open", g(&self.breaker_half_open)),
            ("breaker_closed", g(&self.breaker_closed)),
            ("hedged_requests", g(&self.hedged_requests)),
            ("hedge_wins", g(&self.hedge_wins)),
            ("shards_added", g(&self.shards_added)),
            ("shards_removed", g(&self.shards_removed)),
            (
                "warm_spare_entries_shipped",
                g(&self.warm_spare_entries_shipped),
            ),
            ("no_live_shard", g(&self.no_live_shard)),
            (
                "deadline_expired_in_router",
                g(&self.deadline_expired_in_router),
            ),
            (
                "deadline_propagated_ms",
                self.deadline_propagated_ms.to_json(),
            ),
            ("shards_up", Json::from(up)),
            ("shards_down", Json::from(shards.len() as u64 - up)),
            (
                "shards",
                Json::Arr(shards.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Fetch a counter from a snapshot without `unwrap` chains.
    fn field(snap: &Json, name: &str) -> u64 {
        match snap.get(name).and_then(Json::as_u64) {
            Some(v) => v,
            None => panic!("snapshot is missing numeric field {name:?}: {snap}"),
        }
    }

    fn field_str(snap: &Json, name: &str) -> String {
        match snap.get(name).and_then(Json::as_str) {
            Some(v) => v.to_string(),
            None => panic!("snapshot is missing string field {name:?}: {snap}"),
        }
    }

    #[test]
    fn breaker_trips_on_a_failure_streak_and_revives_on_a_success_streak() {
        let s = ShardState::new("unix:/tmp/a.sock");
        assert!(s.is_up());
        assert_eq!(s.record_failure(3), Transition::None);
        assert_eq!(s.record_failure(3), Transition::None);
        assert_eq!(
            s.record_failure(3),
            Transition::Opened,
            "third consecutive failure trips the breaker"
        );
        assert!(!s.is_up());
        assert_eq!(s.record_failure(3), Transition::None, "already open");

        // The revive asymmetry fix: one success no longer flips it up.
        assert_eq!(s.record_success(3), Transition::HalfOpened);
        assert!(!s.is_up(), "half-open still takes no live traffic");
        assert_eq!(s.record_success(3), Transition::None);
        assert!(!s.is_up(), "two successes are still not enough");
        assert_eq!(s.record_success(3), Transition::Closed);
        assert!(s.is_up(), "threshold successes close the breaker");

        // The streak was reset: two more failures do not trip it.
        assert_eq!(s.record_failure(3), Transition::None);
        assert_eq!(s.record_failure(3), Transition::None);
        assert!(s.is_up());
    }

    #[test]
    fn a_failure_during_half_open_reopens_immediately() {
        let s = ShardState::new("a");
        for _ in 0..3 {
            s.record_failure(3);
        }
        assert_eq!(s.breaker(), BreakerState::Open);
        assert_eq!(s.record_success(3), Transition::HalfOpened);
        assert_eq!(s.breaker(), BreakerState::HalfOpen);
        assert_eq!(
            s.record_failure(3),
            Transition::Opened,
            "a failed trial reopens without waiting for a fresh streak"
        );
        assert_eq!(s.breaker(), BreakerState::Open);
        assert_eq!(s.success_streak(), 0, "the revival streak restarts");
    }

    #[test]
    fn revive_threshold_one_restores_the_old_instant_revive() {
        let s = ShardState::new("a");
        for _ in 0..3 {
            s.record_failure(3);
        }
        assert_eq!(s.record_success(1), Transition::Closed);
        assert!(s.is_up());
    }

    #[test]
    fn ewma_tracks_latency_and_the_window_feeds_the_hedge_quantile() {
        let s = ShardState::new("a");
        let min = Duration::from_millis(10);
        let max = Duration::from_millis(400);
        assert_eq!(s.ewma_us(), 0);
        assert_eq!(
            s.hedge_delay(0.95, min, max),
            max,
            "no samples: hedge waits the maximum"
        );
        for _ in 0..32 {
            s.observe_latency(Duration::from_millis(20), true);
        }
        let ewma = s.ewma_us();
        assert!(
            (15_000..=25_000).contains(&ewma),
            "EWMA converges to ~20ms, got {ewma}µs"
        );
        let d = s.hedge_delay(0.95, min, max);
        assert!(
            d >= min && d <= Duration::from_millis(30),
            "p95 of a steady 20ms stream clamps near 20ms, got {d:?}"
        );
        // One slow outlier barely moves the p50 but lifts the p95 tail.
        s.observe_latency(Duration::from_millis(500), true);
        let p50 = s.hedge_delay(0.5, min, max);
        assert!(
            p50 <= Duration::from_millis(30),
            "median stays low: {p50:?}"
        );
    }

    #[test]
    fn probe_latency_moves_the_ewma_but_not_the_hedge_window() {
        let s = ShardState::new("a");
        for _ in 0..LatencyWindow::MIN_SAMPLES + 4 {
            s.observe_latency(Duration::from_millis(1), false);
        }
        assert!(s.ewma_us() > 0, "probes feed the EWMA");
        let max = Duration::from_millis(400);
        assert_eq!(
            s.hedge_delay(0.95, Duration::from_millis(10), max),
            max,
            "probe-only samples must not arm the hedge quantile"
        );
    }

    #[test]
    fn health_score_prefers_fast_unblemished_shards() {
        let fast = ShardState::new("fast");
        let slow = ShardState::new("slow");
        let blemished = ShardState::new("blemished");
        fast.observe_latency(Duration::from_millis(5), true);
        slow.observe_latency(Duration::from_millis(50), true);
        blemished.observe_latency(Duration::from_millis(5), true);
        blemished.record_failure(10); // streak of 1, breaker still closed
        assert!(fast.health_score() < slow.health_score());
        assert!(fast.health_score() < blemished.health_score());
        let unknown = ShardState::new("unknown");
        assert!(
            unknown.health_score() > slow.health_score(),
            "no observations score as slow-but-clean, not perfect"
        );
    }

    #[test]
    fn deadline_histogram_buckets_by_upper_bound_and_counts_overflow() {
        let h = DeadlineHistogram::default();
        h.observe(0); // le_1
        h.observe(1); // le_1 (bounds are inclusive)
        h.observe(2); // le_5
        h.observe(75); // le_100
        h.observe(1000); // le_1000
        h.observe(30_000); // gt_1000
        assert_eq!(h.count(), 6);
        let j = h.to_json();
        assert_eq!(j.get("le_1").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("le_5").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("le_10").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("le_100").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("le_1000").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("gt_1000").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(6));

        // The snapshot nests the histogram under its counter name.
        let snap = RouterMetrics::default().snapshot(&[]);
        assert_eq!(
            snap.get("deadline_propagated_ms")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn snapshot_reports_breaker_and_hedge_gauges() {
        let a = Arc::new(ShardState::new("a"));
        let b = Arc::new(ShardState::new("b"));
        b.record_failure(1);
        a.requests.store(7, Ordering::Relaxed);
        a.hedges.store(3, Ordering::Relaxed);
        a.hedge_wins.store(2, Ordering::Relaxed);
        a.observe_latency(Duration::from_millis(10), true);
        let m = RouterMetrics::default();
        RouterMetrics::bump(&m.requests);
        RouterMetrics::bump(&m.hedged_requests);
        RouterMetrics::bump(&m.shards_marked_down);
        let snap = m.snapshot(&[Arc::clone(&a), Arc::clone(&b)]);
        assert_eq!(field(&snap, "requests"), 1);
        assert_eq!(field(&snap, "hedged_requests"), 1);
        assert_eq!(field(&snap, "shards_marked_down"), 1);
        assert_eq!(field(&snap, "shards_up"), 1);
        assert_eq!(field(&snap, "shards_down"), 1);
        let shards = match snap.get("shards").and_then(Json::as_arr) {
            Some(arr) => arr,
            None => panic!("snapshot is missing the shards array: {snap}"),
        };
        assert_eq!(shards.len(), 2);
        assert_eq!(field_str(&shards[0], "endpoint"), "a");
        assert_eq!(field_str(&shards[0], "breaker"), "closed");
        assert_eq!(field(&shards[0], "requests"), 7);
        assert_eq!(field(&shards[0], "hedges"), 3);
        assert_eq!(field(&shards[0], "hedge_wins"), 2);
        assert!(field(&shards[0], "ewma_us") > 0);
        assert_eq!(field_str(&shards[1], "breaker"), "open");
        assert_eq!(field(&shards[1], "consecutive_failures"), 1);
    }
}
