//! A small blocking client for the `dagsched-service` protocol, with
//! optional bounded retries.
//!
//! # Retries
//!
//! [`Client::request_with_retry`] wraps a request in a
//! [`RetryPolicy`]: bounded attempts, jittered exponential backoff
//! (each delay drawn uniformly from `[cap/2, cap]`, `cap` doubling up
//! to `max_delay`), per-attempt socket timeouts, an optional overall
//! deadline, and automatic redial after transport failures. The policy
//! only retries failures the server marked transient
//! ([`crate::proto::ErrorCode::is_retryable`]) or transport-level
//! breakage (reset, truncated/corrupt frame); malformed requests fail
//! identically every time and are returned at once. A server-supplied
//! `retry_after_ms` hint overrides a shorter computed backoff.
//!
//! Retried requests are idempotent by construction: the server's
//! schedule cache and quarantine both key on request *content* (the
//! `attempt` counter is excluded), so a retry can never produce a
//! different schedule than the attempt it replaces — at most it
//! produces a cache hit.
//!
//! # Retry budgets
//!
//! A [`RetryBudget`] is a token bucket shared by a fleet of callers:
//! every *retry* spends one token, every *success* refills a fraction
//! of one (10% by default), and first attempts are never gated. The
//! effect is a hard cap on retry amplification — during a brownout,
//! wire requests cannot exceed roughly `logical × (1 + ratio)` once
//! the initial allowance drains, which is what breaks the retry-storm
//! half of the metastable-failure loop (DESIGN.md §16).
//! [`Client::request_with_retry_budgeted`] consults one; the router's
//! hedges and failovers draw from the same mechanism.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dagsched_isa::splitmix64;

use crate::json::Json;
use crate::proto::{
    read_frame, write_frame, AdminCommand, ErrorReply, FrameKind, FrameReadError, ScheduleRequest,
    ScheduleResponse, DEFAULT_MAX_FRAME,
};
use crate::server::{parse_endpoint, Listen};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's frame could not be read.
    Frame(FrameReadError),
    /// The server answered with an unexpected or undecodable frame.
    Protocol(String),
    /// The server answered with a structured error.
    Server(ErrorReply),
}

impl ClientError {
    /// Whether a retry could plausibly succeed. Transport breakage and
    /// undecodable frames are retryable (the bytes may have been
    /// corrupted in flight; the connection is redialed first); server
    /// errors defer to [`crate::proto::ErrorCode::is_retryable`].
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Frame(_) | ClientError::Protocol(_) => true,
            ClientError::Server(reply) => reply.code.is_retryable(),
        }
    }

    /// Whether the underlying connection can no longer be trusted
    /// (mid-frame failure leaves the stream at an unknown offset).
    fn poisons_connection(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Frame(_) | ClientError::Protocol(_)
        )
    }

    /// The server's suggested retry delay, when it sent one.
    fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Server(reply) => reply.retry_after_ms.map(Duration::from_millis),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> ClientError {
        ClientError::Frame(e)
    }
}

/// How [`Client::request_with_retry`] behaves.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = try exactly once).
    pub max_retries: u32,
    /// Backoff cap before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Upper bound the doubling cap saturates at.
    pub max_delay: Duration,
    /// Socket read/write timeout applied to every attempt.
    pub per_attempt_timeout: Option<Duration>,
    /// Wall-clock budget for the whole call, backoff included. When a
    /// computed backoff would cross it, the last error returns instead.
    pub overall_timeout: Option<Duration>,
    /// Seed for the deterministic jitter stream (reproducible runs).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            per_attempt_timeout: Some(Duration::from_secs(10)),
            overall_timeout: None,
            jitter_seed: 0x5EED_1991,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `retry` (0-based),
    /// advancing `rng`. The value is uniform in `[cap/2, cap]` where
    /// `cap = min(base_delay << retry, max_delay)` — bounded above by
    /// the doubling envelope and below by half of it, so consecutive
    /// delays grow on average but never synchronize across clients.
    pub fn backoff_delay(&self, retry: u32, rng: &mut u64) -> Duration {
        let shift = retry.min(20); // 2^20 × base already dwarfs max_delay
        let cap = self
            .base_delay
            .saturating_mul(1u32 << shift)
            .min(self.max_delay);
        let cap_ns = u64::try_from(cap.as_nanos()).unwrap_or(u64::MAX);
        let half = cap_ns / 2;
        let span = cap_ns - half; // inclusive range [half, cap_ns]
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(rng) % (span + 1)
        };
        Duration::from_nanos(half + jitter)
    }
}

/// What a retried call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Total attempts sent (≥ 1 unless the overall deadline was
    /// already spent).
    pub attempts: u32,
    /// Attempts after the first.
    pub retries: u32,
    /// Reconnections performed after transport failures.
    pub redials: u32,
    /// Backoffs that honoured a server `retry_after_ms` hint.
    pub server_hints_honoured: u32,
    /// Total time spent sleeping between attempts.
    pub backoff_total: Duration,
}

/// Default retry-budget allowance, in whole tokens.
pub const RETRY_BUDGET_DEFAULT_TOKENS: u64 = 10;

/// Default refill per success, in millitokens: 100‰ = one retry earned
/// per ten successes, the ~10% amplification cap.
pub const RETRY_BUDGET_REFILL_PER_MILLE: u64 = 100;

/// A shared token bucket bounding retry amplification (see the module
/// docs). Thread-safe and lock-free: the balance is millitokens in one
/// atomic, CAS-updated, so a fleet of client threads can share one
/// budget without coordination.
///
/// Invariant: total spends can never exceed the initial allowance plus
/// `successes × refill/1000` tokens — the balance saturates at zero
/// and refills are capped, so no interleaving of successes and spends
/// escapes the ratio.
#[derive(Debug)]
pub struct RetryBudget {
    /// Current balance, in millitokens (1 token = 1 retry = 1000).
    millitokens: AtomicU64,
    /// Balance ceiling, in millitokens.
    cap_milli: u64,
    /// Credit per recorded success, in millitokens.
    refill_milli: u64,
}

impl Default for RetryBudget {
    fn default() -> RetryBudget {
        RetryBudget::new(
            RETRY_BUDGET_DEFAULT_TOKENS,
            RETRY_BUDGET_DEFAULT_TOKENS,
            RETRY_BUDGET_REFILL_PER_MILLE,
        )
    }
}

impl RetryBudget {
    /// A budget starting with `initial_tokens`, capped at `cap_tokens`,
    /// earning `refill_per_mille` millitokens per success.
    pub fn new(initial_tokens: u64, cap_tokens: u64, refill_per_mille: u64) -> RetryBudget {
        let cap_milli = cap_tokens.saturating_mul(1000).max(1);
        RetryBudget {
            millitokens: AtomicU64::new(initial_tokens.saturating_mul(1000).min(cap_milli)),
            cap_milli,
            refill_milli: refill_per_mille,
        }
    }

    /// Credit the budget for one successful request.
    pub fn record_success(&self) {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(self.refill_milli).min(self.cap_milli);
            match self.millitokens.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Take one token for a retry/hedge/failover. `false` means the
    /// budget is exhausted and the extra attempt must be skipped.
    pub fn try_spend(&self) -> bool {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < 1000 {
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.millitokens.load(Ordering::Relaxed) / 1000
    }
}

/// The concrete connection (kept as an enum so per-attempt socket
/// timeouts can be applied; trait objects would hide `set_read_timeout`).
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_timeouts(&self, timeout: Option<Duration>) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.set_read_timeout(timeout);
                let _ = s.set_write_timeout(timeout);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.set_read_timeout(timeout);
                let _ = s.set_write_timeout(timeout);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A cancellation handle for one in-flight [`Client`] call, cloned off
/// the live connection with [`Client::cancel_handle`].
///
/// [`CancelHandle::cancel`] shuts the socket down from *another*
/// thread, which makes the blocked read or write on the owning thread
/// return an error immediately — the std-only equivalent of aborting a
/// future. The router's hedged forwards use this to cancel the losing
/// side of a request race: the cancelled `Client` surfaces a transport
/// error and must be discarded (its stream is dead), which is exactly
/// the discipline callers already apply to broken connections.
pub struct CancelHandle {
    stream: Stream,
}

impl CancelHandle {
    /// Abort whatever call is in flight on the owning connection by
    /// shutting the socket down in both directions. Idempotent; a
    /// handle whose connection already finished cleanly just breaks
    /// the (now unused) stream.
    pub fn cancel(&self) {
        match &self.stream {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A blocking connection to a `dagsched-service` daemon.
pub struct Client {
    stream: Stream,
    max_frame: usize,
    /// Remembered dial target, enabling redial after transport errors.
    endpoint: Option<Listen>,
    /// Set when a transport error leaves the stream mid-frame; the
    /// next retried attempt redials before sending anything.
    broken: bool,
}

impl Client {
    /// Connect to an endpoint string (`tcp:HOST:PORT`, `HOST:PORT`, or
    /// `unix:/path`).
    pub fn connect(endpoint: &str) -> Result<Client, ClientError> {
        let listen = parse_endpoint(endpoint).map_err(ClientError::Protocol)?;
        let stream = Client::dial(&listen)?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            endpoint: Some(listen),
            broken: false,
        })
    }

    /// Connect to an endpoint string, retrying the *dial itself* under
    /// `policy`. This is how a client rides out a server restart
    /// window: `connection refused` (the old process is gone, the new
    /// one has not bound yet) and `not found` (a Unix socket path that
    /// is about to be re-created) are transport errors, and transport
    /// errors are always retryable. Backoff is the same jittered
    /// exponential envelope as [`Client::request_with_retry`], and the
    /// `overall_timeout` budget is honoured.
    pub fn connect_with_retry(
        endpoint: &str,
        policy: &RetryPolicy,
    ) -> Result<(Client, RetryStats), ClientError> {
        let listen = parse_endpoint(endpoint).map_err(ClientError::Protocol)?;
        let started = Instant::now();
        let mut rng = policy.jitter_seed;
        let mut stats = RetryStats::default();
        let mut last_err: Option<ClientError> = None;
        for attempt in 0..=policy.max_retries {
            if let Some(overall) = policy.overall_timeout {
                if attempt > 0 && started.elapsed() >= overall {
                    return Err(last_err.expect("attempt > 0 implies a recorded error"));
                }
            }
            stats.attempts += 1;
            if attempt > 0 {
                stats.retries += 1;
                stats.redials += 1;
            }
            match Client::dial(&listen) {
                Ok(stream) => {
                    let client = Client {
                        stream,
                        max_frame: DEFAULT_MAX_FRAME,
                        endpoint: Some(listen),
                        broken: false,
                    };
                    return Ok((client, stats));
                }
                Err(err) => {
                    if attempt == policy.max_retries {
                        return Err(err);
                    }
                    let mut delay = policy.backoff_delay(attempt, &mut rng);
                    if let Some(overall) = policy.overall_timeout {
                        if started.elapsed() + delay >= overall {
                            return Err(err);
                        }
                        // Never sleep past the budget.
                        delay = delay.min(overall.saturating_sub(started.elapsed()));
                    }
                    last_err = Some(err);
                    std::thread::sleep(delay);
                    stats.backoff_total += delay;
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ClientError::Protocol("connect loop ended without an attempt".to_string())
        }))
    }

    fn dial(listen: &Listen) -> Result<Stream, ClientError> {
        match listen {
            Listen::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Frames are written header-then-payload; with Nagle on,
                // that interacts with delayed ACKs into a ~40 ms stall
                // per request-sized write. This is a request/response
                // protocol: always flush segments immediately.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            Listen::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(ClientError::Protocol(
                "unix sockets are not available on this platform".to_string(),
            )),
        }
    }

    /// Wrap an already connected TCP stream. Such a client cannot
    /// redial: transport failures during a retried call are final.
    pub fn from_tcp(stream: TcpStream) -> Client {
        let _ = stream.set_nodelay(true);
        Client {
            stream: Stream::Tcp(stream),
            max_frame: DEFAULT_MAX_FRAME,
            endpoint: None,
            broken: false,
        }
    }

    /// Connect over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<Client, ClientError> {
        Ok(Client {
            stream: Stream::Unix(UnixStream::connect(path)?),
            max_frame: DEFAULT_MAX_FRAME,
            endpoint: Some(Listen::Unix(path.to_path_buf())),
            broken: false,
        })
    }

    fn roundtrip(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        write_frame(&mut self.stream, kind, payload)?;
        let (kind, payload) = read_frame(&mut self.stream, self.max_frame)?;
        if kind == FrameKind::Error {
            let reply = decode_error(&payload)?;
            return Err(ClientError::Server(reply));
        }
        Ok((kind, payload))
    }

    /// Schedule a program (exactly one attempt).
    pub fn request(&mut self, req: &ScheduleRequest) -> Result<ScheduleResponse, ClientError> {
        let payload = req.to_json().to_string();
        let (kind, payload) = self.roundtrip(FrameKind::Request, payload.as_bytes())?;
        if kind != FrameKind::Response {
            return Err(ClientError::Protocol(format!(
                "expected a response frame, got {kind:?}"
            )));
        }
        let value = decode_json(&payload)?;
        ScheduleResponse::from_json(&value)
            .ok_or_else(|| ClientError::Protocol("undecodable response".to_string()))
    }

    /// Schedule a program under `policy`, retrying transient failures
    /// with jittered exponential backoff. Returns the response plus a
    /// record of what the retry loop did.
    pub fn request_with_retry(
        &mut self,
        req: &ScheduleRequest,
        policy: &RetryPolicy,
    ) -> Result<(ScheduleResponse, RetryStats), ClientError> {
        self.request_with_retry_budgeted(req, policy, None)
    }

    /// [`Client::request_with_retry`] under a shared [`RetryBudget`]:
    /// the first attempt always goes out, but every retry must first
    /// win a token — an exhausted budget returns the last error
    /// immediately (recorded as `budget_denied`), and every success
    /// credits the bucket back.
    pub fn request_with_retry_budgeted(
        &mut self,
        req: &ScheduleRequest,
        policy: &RetryPolicy,
        budget: Option<&RetryBudget>,
    ) -> Result<(ScheduleResponse, RetryStats), ClientError> {
        let started = Instant::now();
        let mut rng = policy.jitter_seed;
        let mut stats = RetryStats::default();
        let mut attempt_req = req.clone();
        let mut last_err: Option<ClientError> = None;

        for attempt in 0..=policy.max_retries {
            // Respect the overall budget before doing any work.
            if let Some(overall) = policy.overall_timeout {
                if started.elapsed() >= overall && attempt > 0 {
                    return Err(last_err.expect("attempt > 0 implies a recorded error"));
                }
            }
            // Every attempt past the first must win a retry token;
            // first attempts are never gated by the budget. A denied
            // retry returns the last error as-is.
            if attempt > 0 {
                if let Some(b) = budget {
                    if !b.try_spend() {
                        return Err(last_err.expect("attempt > 0 implies a recorded error"));
                    }
                }
            }
            // A broken stream must be redialed before reuse.
            if self.broken {
                match &self.endpoint {
                    Some(listen) => match Client::dial(listen) {
                        Ok(stream) => {
                            self.stream = stream;
                            self.broken = false;
                            stats.redials += 1;
                        }
                        Err(e) => {
                            last_err = Some(e);
                            // Fall through to backoff-and-retry below.
                            if !self.backoff(policy, attempt, started, &mut rng, &mut stats, None) {
                                return Err(last_err.expect("recorded above"));
                            }
                            continue;
                        }
                    },
                    None => {
                        return Err(last_err.unwrap_or_else(|| {
                            ClientError::Protocol(
                                "connection broken and no endpoint to redial".to_string(),
                            )
                        }))
                    }
                }
            }

            self.stream.set_timeouts(policy.per_attempt_timeout);
            // Tag the wire request with the attempt number: servers
            // count retries, and operators can spot retry storms. The
            // tag is excluded from cache and quarantine keys.
            attempt_req.attempt = u64::from(attempt);
            stats.attempts += 1;
            if attempt > 0 {
                stats.retries += 1;
            }

            match self.request(&attempt_req) {
                Ok(resp) => {
                    if let Some(b) = budget {
                        b.record_success();
                    }
                    return Ok((resp, stats));
                }
                Err(err) => {
                    if err.poisons_connection() {
                        self.broken = true;
                    }
                    if !err.is_retryable() || attempt == policy.max_retries {
                        return Err(err);
                    }
                    let hint = err.retry_after();
                    last_err = Some(err);
                    if !self.backoff(policy, attempt, started, &mut rng, &mut stats, hint) {
                        return Err(last_err.expect("recorded above"));
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ClientError::Protocol("retry loop ended without an attempt".to_string())
        }))
    }

    /// Sleep before the next retry. Returns `false` when the overall
    /// deadline would be crossed (the caller gives up instead).
    fn backoff(
        &self,
        policy: &RetryPolicy,
        attempt: u32,
        started: Instant,
        rng: &mut u64,
        stats: &mut RetryStats,
        server_hint: Option<Duration>,
    ) -> bool {
        let mut delay = policy.backoff_delay(attempt, rng);
        if let Some(hint) = server_hint {
            if hint > delay {
                delay = hint;
                stats.server_hints_honoured += 1;
            }
        }
        if let Some(overall) = policy.overall_timeout {
            if started.elapsed() + delay >= overall {
                return false;
            }
        }
        std::thread::sleep(delay);
        stats.backoff_total += delay;
        true
    }

    /// A [`CancelHandle`] for the current connection, or `None` when
    /// the socket cannot be cloned. Cancellation only covers *this*
    /// stream: a later redial needs a fresh handle.
    pub fn cancel_handle(&self) -> Option<CancelHandle> {
        let stream = match &self.stream {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone().ok()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone().ok()?),
        };
        Some(CancelHandle { stream })
    }

    /// Apply a read/write timeout to the underlying socket. Calls that
    /// go through [`Client::request_with_retry`] get their timeout from
    /// the policy; one-shot calls (`ping`, `metrics`, `admin`) use
    /// whatever was last set here (default: none).
    pub fn set_io_timeout(&self, timeout: Option<Duration>) {
        self.stream.set_timeouts(timeout);
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let (kind, _) = self.roundtrip(FrameKind::Ping, b"")?;
        match kind {
            FrameKind::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Send an admin command (snapshot export/install on a daemon,
    /// membership changes on a router) and return the JSON result.
    pub fn admin(&mut self, cmd: &AdminCommand) -> Result<Json, ClientError> {
        let payload = cmd.to_json().to_string();
        let (kind, payload) = self.roundtrip(FrameKind::Admin, payload.as_bytes())?;
        if kind != FrameKind::AdminReply {
            return Err(ClientError::Protocol(format!(
                "expected an admin reply, got {kind:?}"
            )));
        }
        decode_json(&payload)
    }

    /// Fetch the server's metrics snapshot.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let (kind, payload) = self.roundtrip(FrameKind::Metrics, b"")?;
        if kind != FrameKind::Metrics {
            return Err(ClientError::Protocol(format!(
                "expected metrics, got {kind:?}"
            )));
        }
        decode_json(&payload)
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let (kind, _) = self.roundtrip(FrameKind::Shutdown, b"")?;
        match kind {
            FrameKind::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected shutdown ack, got {other:?}"
            ))),
        }
    }
}

fn decode_json(payload: &[u8]) -> Result<Json, ClientError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ClientError::Protocol("payload is not UTF-8".to_string()))?;
    Json::parse(text).map_err(|e| ClientError::Protocol(format!("payload is not JSON: {e}")))
}

fn decode_error(payload: &[u8]) -> Result<ErrorReply, ClientError> {
    let value = decode_json(payload)?;
    ErrorReply::from_json(&value)
        .ok_or_else(|| ClientError::Protocol("undecodable error reply".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrorCode;

    /// Property: for every retry index and many seeds, the jittered
    /// delay stays inside the `[cap/2, cap]` envelope, and the cap
    /// itself is monotone non-decreasing and bounded by `max_delay`.
    #[test]
    fn backoff_jitter_respects_the_monotone_bounded_envelope() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            ..RetryPolicy::default()
        };
        for seed in 0..200u64 {
            let mut rng = seed;
            let mut prev_cap = Duration::ZERO;
            for retry in 0..12u32 {
                let cap = policy
                    .base_delay
                    .saturating_mul(1 << retry.min(20))
                    .min(policy.max_delay);
                assert!(cap >= prev_cap, "cap is monotone");
                assert!(cap <= policy.max_delay, "cap is bounded");
                prev_cap = cap;
                let d = policy.backoff_delay(retry, &mut rng);
                assert!(
                    d >= cap / 2 && d <= cap,
                    "seed {seed} retry {retry}: {d:?} outside [{:?}, {cap:?}]",
                    cap / 2,
                );
            }
        }
    }

    /// Property: the jitter stream is deterministic per seed (so chaos
    /// runs replay exactly) and differs across seeds (so a fleet of
    /// clients does not thunder in lockstep).
    #[test]
    fn backoff_jitter_is_seeded_and_decorrelated() {
        let policy = RetryPolicy::default();
        let series = |seed: u64| -> Vec<Duration> {
            let mut rng = seed;
            (0..8).map(|r| policy.backoff_delay(r, &mut rng)).collect()
        };
        assert_eq!(series(42), series(42), "same seed, same delays");
        let a = series(1);
        let b = series(2);
        assert_ne!(a, b, "different seeds must decorrelate");
    }

    #[test]
    fn degenerate_policies_never_panic() {
        // Zero base: delay pinned at zero.
        let zero = RetryPolicy {
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut rng = 7;
        assert_eq!(zero.backoff_delay(0, &mut rng), Duration::ZERO);
        assert_eq!(zero.backoff_delay(31, &mut rng), Duration::ZERO);
        // Huge retry index: shift is clamped, cap saturates at max.
        let policy = RetryPolicy::default();
        let d = policy.backoff_delay(u32::MAX, &mut rng);
        assert!(d <= policy.max_delay);
    }

    /// Property: retryability classification — transport errors retry,
    /// server errors follow the code's contract.
    #[test]
    fn non_retryable_errors_are_never_retried() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::ParseError,
            ErrorCode::BlockTooLarge,
            ErrorCode::DeadlineExpired,
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::Quarantined,
            ErrorCode::IdleTimeout,
        ] {
            let err = ClientError::Server(ErrorReply::new(code, "x"));
            assert!(!err.is_retryable(), "{code} must not retry");
        }
        for code in [ErrorCode::Busy, ErrorCode::Draining, ErrorCode::Internal] {
            let err = ClientError::Server(ErrorReply::new(code, "x"));
            assert!(err.is_retryable(), "{code} must retry");
            assert!(!err.poisons_connection(), "server replies keep the stream");
        }
        let io_err = ClientError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "rst"));
        assert!(io_err.is_retryable());
        assert!(io_err.poisons_connection());
    }

    /// A dial that keeps failing gives up after `max_retries` with the
    /// last transport error, quickly (the delays are tiny).
    #[test]
    fn connect_with_retry_gives_up_on_a_dead_endpoint() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            overall_timeout: Some(Duration::from_secs(5)),
            ..RetryPolicy::default()
        };
        let err = Client::connect_with_retry("unix:/nonexistent/dagsched-nowhere.sock", &policy)
            .err()
            .expect("no listener can ever appear at that path");
        assert!(matches!(err, ClientError::Io(_)), "{err}");
    }

    /// The restart-window scenario in miniature: nothing is listening
    /// when the client first dials (connection refused / not found),
    /// a listener appears shortly after, and `connect_with_retry`
    /// rides the gap instead of failing fast.
    #[cfg(unix)]
    #[test]
    fn connect_with_retry_survives_a_late_binding_listener() {
        use std::os::unix::net::UnixListener;
        let path =
            std::env::temp_dir().join(format!("dagsched-late-bind-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let bind_path = path.clone();
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = UnixListener::bind(&bind_path).expect("bind");
            // Hold the accepted connection long enough for connect to
            // return on the client side.
            let (_conn, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(40));
        });
        let policy = RetryPolicy {
            max_retries: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            overall_timeout: Some(Duration::from_secs(10)),
            ..RetryPolicy::default()
        };
        let endpoint = format!("unix:{}", path.display());
        let (client, stats) =
            Client::connect_with_retry(&endpoint, &policy).expect("listener appears eventually");
        assert!(stats.retries > 0, "first dial must have failed: {stats:?}");
        assert_eq!(stats.redials, stats.retries);
        assert!(client.endpoint.is_some(), "redial target is remembered");
        binder.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A cancel handle aborts a request stuck on a server that accepts
    /// but never answers — the hedged-forward scenario: the loser of
    /// the race must return promptly instead of waiting out its socket
    /// timeout.
    #[cfg(unix)]
    #[test]
    fn cancel_handle_unblocks_a_stuck_request() {
        use std::os::unix::net::UnixListener;
        let path =
            std::env::temp_dir().join(format!("dagsched-cancel-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let hold = std::thread::spawn(move || {
            // Accept, read the request, answer nothing.
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            std::thread::sleep(Duration::from_secs(5));
        });
        let mut client = Client::connect_unix(&path).expect("connect");
        let cancel = client.cancel_handle().expect("clonable socket");
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            cancel.cancel();
        });
        let started = Instant::now();
        let err = client
            .request(&ScheduleRequest::asm("add %o0, %o1, %o2"))
            .expect_err("a cancelled request must not succeed");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "cancel must interrupt the blocked read, not wait out a timeout"
        );
        assert!(
            matches!(err, ClientError::Io(_) | ClientError::Frame(_)),
            "cancellation surfaces as transport breakage: {err}"
        );
        canceller.join().unwrap();
        hold.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Property: under *any* interleaving of successes and spend
    /// attempts — sequenced by a seeded splitmix64 stream — the bucket
    /// never grants more than `initial + successes × ratio` retries,
    /// and its balance never exceeds the cap. This is the wire-
    /// amplification bound: retries ≤ allowance + 10% of successes.
    #[test]
    fn retry_budget_never_exceeds_the_cap_ratio_under_any_interleaving() {
        for seed in 0..64u64 {
            let initial = seed % 8;
            let budget = RetryBudget::new(initial, 16, RETRY_BUDGET_REFILL_PER_MILLE);
            let mut rng = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            let (mut successes, mut spent) = (0u64, 0u64);
            for _ in 0..4096 {
                if splitmix64(&mut rng).is_multiple_of(3) {
                    budget.record_success();
                    successes += 1;
                } else if budget.try_spend() {
                    spent += 1;
                }
                assert!(
                    spent * 1000 <= initial * 1000 + successes * RETRY_BUDGET_REFILL_PER_MILLE,
                    "seed {seed}: {spent} spends from {initial} initial + {successes} successes"
                );
                assert!(budget.tokens() <= 16, "balance must respect the cap");
            }
        }
    }

    /// Concurrent spenders cannot overdraw: with N threads racing on
    /// one bucket, total grants still respect the allowance.
    #[test]
    fn retry_budget_is_race_free_across_threads() {
        use std::sync::atomic::AtomicU64 as Counter;
        use std::sync::Arc;
        let budget = Arc::new(RetryBudget::new(20, 20, 0));
        let granted = Arc::new(Counter::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let budget = Arc::clone(&budget);
                let granted = Arc::clone(&granted);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        if budget.try_spend() {
                            granted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::SeqCst), 20, "exactly the allowance");
        assert!(!budget.try_spend(), "and not a token more");
    }

    /// Exhaustion gates *retries*, never first attempts: against a
    /// server that always sheds with `busy`, a client holding an empty
    /// budget still sends its first attempt, then returns the busy
    /// error instead of retrying.
    #[cfg(unix)]
    #[test]
    fn an_exhausted_budget_skips_retries_but_not_first_attempts() {
        use std::os::unix::net::UnixListener;
        let path =
            std::env::temp_dir().join(format!("dagsched-budget-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let server = std::thread::spawn(move || {
            // Answer every request on every connection with `busy`
            // until the client hangs up.
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().expect("accept");
                while read_frame(&mut conn, DEFAULT_MAX_FRAME).is_ok() {
                    let reply = ErrorReply::new(crate::proto::ErrorCode::Busy, "shedding")
                        .with_retry_after_ms(1)
                        .to_json()
                        .to_string();
                    if write_frame(&mut conn, FrameKind::Error, reply.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        let policy = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let req = ScheduleRequest::asm("add %o0, %o1, %o2");

        // Empty budget: one wire attempt, the retry is denied.
        let empty = RetryBudget::new(0, 8, RETRY_BUDGET_REFILL_PER_MILLE);
        let mut client = Client::connect_unix(&path).expect("connect");
        let err = client
            .request_with_retry_budgeted(&req, &policy, Some(&empty))
            .expect_err("the server only ever sheds");
        assert!(matches!(&err, ClientError::Server(r) if r.code == crate::proto::ErrorCode::Busy));
        // Hang up so the server moves on to the next connection.
        drop(client);

        // One token: the retry goes out (second busy consumed by the
        // server thread), then the budget denies the third attempt.
        let one = RetryBudget::new(1, 8, RETRY_BUDGET_REFILL_PER_MILLE);
        let mut client = Client::connect_unix(&path).expect("connect");
        let err = client
            .request_with_retry_budgeted(&req, &policy, Some(&one))
            .expect_err("still shedding");
        assert!(matches!(&err, ClientError::Server(r) if r.code == crate::proto::ErrorCode::Busy));
        assert_eq!(one.tokens(), 0, "the single token was spent");
        // Hang up so the server's read loop ends and the thread exits.
        drop(client);

        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retry_after_hints_surface_through_client_errors() {
        let err =
            ClientError::Server(ErrorReply::new(ErrorCode::Busy, "q full").with_retry_after_ms(75));
        assert_eq!(err.retry_after(), Some(Duration::from_millis(75)));
        let plain = ClientError::Server(ErrorReply::new(ErrorCode::Busy, "q full"));
        assert_eq!(plain.retry_after(), None);
    }
}
