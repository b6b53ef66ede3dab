//! A std-only readiness-driven front end: one thread, `poll(2)` over
//! the listener plus every live connection, incremental frame assembly,
//! and nonblocking writes through per-connection outboxes.
//!
//! Both the daemon ([`crate::server`]) and the cluster router share
//! this loop; they differ only in the [`Handler`] they plug in. The
//! reactor owns *transport* concerns — accepting, reading bytes into a
//! [`FrameAssembler`], mapping framing errors to typed replies,
//! enforcing the slow-loris and idle timeouts, flushing outboxes, and
//! the drain sweep — while the handler owns *protocol* concerns (what a
//! `Request` frame means). Work the handler offloads to worker threads
//! comes back through a [`Completions`] queue paired with a wake pipe,
//! so a compile finishing on another thread interrupts the `poll` and
//! the reply goes out on the same wakeup.
//!
//! # Why not thread-per-connection
//!
//! The previous core parked one pool worker per connection in a
//! blocking `read`. A stalled client pinned a worker for the whole
//! read timeout, and the pool's *connection* queue — not the request
//! load — became the backpressure signal. Here connections are state,
//! not threads: ten thousand idle sockets cost a `pollfd` each, and
//! backpressure moves to the bounded *request* queues where it belongs.
//!
//! # Timeouts
//!
//! Two clocks per connection, both driven from the poll loop:
//!
//! * **First-frame / stalled-frame timeout**: a peer that has bytes
//!   buffered toward an incomplete frame (or has never completed one)
//!   gets a typed `idle-timeout` error and is closed after
//!   [`ReactorConfig::first_frame_timeout`]. This is the slow-loris
//!   defence — under the blocking core such a peer occupied a worker's
//!   blocking read with no first-frame deadline at all.
//! * **Keep-alive idle timeout**: a peer idle *between* frames is
//!   closed silently after `IDLE_TIMEOUT` (10 s), matching the old
//!   read-timeout behaviour. Connections with a reply still in
//!   flight are exempt from both clocks.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{write_frame, ErrorCode, ErrorReply, FrameAssembler, FrameKind, FrameReadError};

/// Poll timeout while idle: the loop re-checks the drain/SIGTERM flags
/// at least this often.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Where there is no `poll(2)`, readiness is found by sleeping this
/// long and retrying nonblocking operations.
pub const NO_POLL_TICK: Duration = Duration::from_millis(5);

/// Keep-alive idle timeout: a peer idle between frames this long is
/// closed silently.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Cap on `read(2)` calls per connection per wakeup, so one firehose
/// peer cannot starve the rest of the loop.
const MAX_READS_PER_WAKEUP: usize = 4;

/// Cap on accepted connections per wakeup (same fairness argument).
const MAX_ACCEPTS_PER_WAKEUP: usize = 64;

/// Read buffer size (stack-allocated per wakeup).
const READ_CHUNK: usize = 16 * 1024;

/// Extra poll cycles granted after the drain flag flips before the
/// loop may exit: bytes a client wrote just before the drain began are
/// still read, parsed, and served rather than dropped.
const DRAIN_GRACE_CYCLES: u32 = 2;

/// The drain's follow-up window, in poll ticks: a drain may finish only
/// after `DRAIN_QUIET_CYCLES x POLL_TICK` (~200 ms) without drain
/// activity — a completion landing, or a read that leaves a frame
/// incomplete. A client that just received its reply gets a real window
/// to send a follow-up request and hear a typed `draining` back — the
/// old blocking core kept its per-connection read loop alive through
/// the drain, and this preserves that contract without threads. Adds
/// ~200 ms to every drain.
///
/// Bytes answered inline (a ping, or a follow-up refused with
/// `draining`) are not activity, so a peer that pings more often than
/// the window (a router's health prober dials every ~100 ms) cannot
/// hold a drain open. The window is wall-clock time, not a count of
/// poll cycles, because every inline answer ends a poll early and a
/// count would shrink the window. Admitted work (`Handler::idle`),
/// unflushed replies and a frame still arriving keep holding the drain.
const DRAIN_QUIET_CYCLES: u32 = 8;

/// Identifies one live connection for the lifetime of the reactor.
/// Monotonically allocated, never reused.
pub type ConnId = u64;

/// SIGTERM flag. Written from the signal handler, so it must be a
/// lock-free atomic and nothing else.
pub static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

/// Install a handler that records SIGTERM in [`SIGTERM_SEEN`]; the
/// reactor converts it into a drain on its next tick.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" fn on_term(_sig: i32) {
        SIGTERM_SEEN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
    }
}

#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

// ---------------------------------------------------------------------
// poll(2) FFI
// ---------------------------------------------------------------------

/// The `poll(2)` binding, exported so the router's forwarding workers
/// wait on their shard connections with the same call.
#[cfg(unix)]
pub mod sys {
    use std::io;

    /// `struct pollfd` — identical layout on every unix libc.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: std::os::unix::io::RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    }

    /// Wait for readiness on `fds`. `Ok(n)` is the number of entries
    /// with nonzero `revents`; EINTR maps to `Ok(0)` (the caller's loop
    /// re-polls). `nfds` goes through `u64::try_from` — a `usize` that
    /// does not fit the FFI type is a bug upstream, surfaced as a typed
    /// error rather than a wrapping cast.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let nfds = std::ffi::c_ulong::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many pollfds"))?;
        let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        usize::try_from(rc).map_err(|_| io::Error::other("poll returned a negative count"))
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// One connection (either transport). The reactor keeps accepted ones
/// nonblocking; the blocking [`crate::client::Client`] dials the same
/// type.
pub enum Stream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix-domain.
    #[cfg(unix)]
    Unix(UnixStream),
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

impl Stream {
    /// Switch the socket between blocking and nonblocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Apply one read and write timeout to a blocking socket.
    pub fn set_timeouts(&self, timeout: Option<Duration>) {
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

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for Stream {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// The bound listener (either transport), nonblocking.
pub enum Listener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix-domain, remembering the path for unlink-on-drain.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a [`crate::server::Listen`] endpoint nonblocking, returning
    /// the listener plus the bound TCP address / unix path.
    pub fn bind(
        listen: crate::server::Listen,
    ) -> io::Result<(Listener, Option<SocketAddr>, Option<PathBuf>)> {
        match listen {
            crate::server::Listen::Tcp(addr) => {
                let l = TcpListener::bind(&addr)?;
                l.set_nonblocking(true)?;
                let bound = l.local_addr()?;
                Ok((Listener::Tcp(l), Some(bound), None))
            }
            #[cfg(unix)]
            crate::server::Listen::Unix(path) => {
                // A stale socket file from a crashed predecessor would
                // make bind fail; remove it only if nobody serves it.
                if path.exists() && UnixStream::connect(&path).is_err() {
                    let _ = std::fs::remove_file(&path);
                }
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Unix(l, path.clone()), None, Some(path)))
            }
            #[cfg(not(unix))]
            crate::server::Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Replies are written header-then-payload; Nagle plus
                // delayed ACKs would stall each response ~40 ms.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// The unix socket path, for unlinking after the drain.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        match self {
            Listener::Tcp(_) => None,
            #[cfg(unix)]
            Listener::Unix(_, path) => Some(path),
        }
    }
}

// ---------------------------------------------------------------------
// Wake pipe + completions
// ---------------------------------------------------------------------

/// The writable end of the wake pipe. Nonblocking: if the pipe buffer
/// is full a byte is already pending and the reactor will wake anyway.
enum WakeTx {
    #[cfg(unix)]
    Unix(UnixStream),
    #[allow(dead_code)]
    Tcp(TcpStream),
}

impl WakeTx {
    fn wake(&self) {
        // `Write` is implemented for `&TcpStream` / `&UnixStream`, so
        // no lock is needed to write from many worker threads at once.
        let _ = match self {
            #[cfg(unix)]
            WakeTx::Unix(s) => (&*s).write(&[1u8]),
            WakeTx::Tcp(s) => (&*s).write(&[1u8]),
        };
    }
}

enum WakeRx {
    #[cfg(unix)]
    Unix(UnixStream),
    #[allow(dead_code)]
    Tcp(TcpStream),
}

impl WakeRx {
    fn drain(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            let n = match self {
                #[cfg(unix)]
                WakeRx::Unix(s) => s.read(&mut sink),
                WakeRx::Tcp(s) => s.read(&mut sink),
            };
            match n {
                Ok(0) => return,
                Ok(_) => continue,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    #[cfg(unix)]
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            WakeRx::Unix(s) => s.as_raw_fd(),
            WakeRx::Tcp(s) => s.as_raw_fd(),
        }
    }
}

fn wake_pair() -> io::Result<(WakeTx, WakeRx)> {
    #[cfg(unix)]
    {
        let (a, b) = UnixStream::pair()?;
        a.set_nonblocking(true)?;
        b.set_nonblocking(true)?;
        Ok((WakeTx::Unix(a), WakeRx::Unix(b)))
    }
    #[cfg(not(unix))]
    {
        // No socketpair(2): fabricate one over loopback.
        let l = TcpListener::bind("127.0.0.1:0")?;
        let addr = l.local_addr()?;
        let a = TcpStream::connect(addr)?;
        a.set_nodelay(true)?;
        let (b, _) = l.accept()?;
        a.set_nonblocking(true)?;
        b.set_nonblocking(true)?;
        Ok((WakeTx::Tcp(a), WakeRx::Tcp(b)))
    }
}

/// A finished piece of offloaded work: a pre-encoded frame headed for
/// one connection.
pub struct Completion {
    /// Which connection the bytes belong to.
    pub conn: ConnId,
    /// The fully encoded frame to enqueue.
    pub bytes: Vec<u8>,
}

/// The channel worker threads use to hand finished replies back to the
/// reactor, and through which anyone (e.g. `ServerHandle::begin_drain`)
/// can interrupt the poll.
pub struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake_tx: WakeTx,
}

impl Completions {
    /// Queue a completion and wake the reactor.
    pub fn push(&self, completion: Completion) {
        lock_recover(&self.queue).push(completion);
        self.wake_tx.wake();
    }

    /// Interrupt the poll without queueing anything (drain triggers).
    pub fn wake(&self) {
        self.wake_tx.wake();
    }

    fn take(&self, into: &mut Vec<Completion>) {
        let mut q = lock_recover(&self.queue);
        into.append(&mut q);
    }

    fn is_empty(&self) -> bool {
        lock_recover(&self.queue).is_empty()
    }
}

/// Lock a mutex, recovering from poisoning: a panic on another thread
/// must cost that request, not wedge the reactor (see the cache's
/// equivalent helper).
pub fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// Handler interface
// ---------------------------------------------------------------------

/// Protocol hooks the reactor calls into. One implementation per
/// daemon: the scheduling server and the router.
pub trait Handler {
    /// A complete frame arrived. Reply via [`Ctx::send`] /
    /// [`Ctx::send_error`], or offload and later push a [`Completion`]
    /// (after calling [`Ctx::expect_reply`] so the connection is
    /// pinned open and exempt from idle timeouts).
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: FrameKind, payload: Vec<u8>);

    /// A connection was accepted (count it).
    fn on_accept(&mut self);

    /// An accepted connection was answered `draining` and closed (the
    /// reactor already queued the error frame).
    fn on_drain_reject(&mut self);

    /// A framing error was answered with the given typed reply (the
    /// reactor already queued the error frame).
    fn on_frame_error(&mut self, reply: &ErrorReply);

    /// A connection was closed for stalling without a complete frame
    /// (the reactor already queued the typed `idle-timeout` error).
    fn on_idle_timeout(&mut self);

    /// Whether all offloaded work has completed; the drain waits for
    /// this before the reactor exits.
    fn idle(&self) -> bool;
}

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

struct ConnState {
    sock: Stream,
    asm: FrameAssembler,
    /// Encoded bytes waiting for the socket to accept them.
    outbox: VecDeque<Vec<u8>>,
    /// Consumed prefix of `outbox.front()`.
    out_pos: usize,
    close_after_flush: bool,
    /// Outstanding offloaded replies; exempts the connection from idle
    /// clocks and holds the drain open.
    pending: u64,
    /// `Request` frames seen (the drain refuses a connection that
    /// already got its answer).
    requests_seen: u64,
    /// Ever completed a frame (first-frame timeout applies until then).
    got_frame: bool,
    /// Peer half-closed its write side; stop reading, flush, drop.
    eof: bool,
    /// A framing error poisoned the stream; ignore buffered bytes.
    dead_read: bool,
    last_progress: Instant,
}

impl ConnState {
    fn new(sock: Stream, max_frame: usize, now: Instant) -> ConnState {
        ConnState {
            sock,
            asm: FrameAssembler::new(max_frame),
            outbox: VecDeque::new(),
            out_pos: 0,
            close_after_flush: false,
            pending: 0,
            requests_seen: 0,
            got_frame: false,
            eof: false,
            dead_read: false,
            last_progress: now,
        }
    }

    fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    fn queue_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        let mut frame = Vec::with_capacity(payload.len().saturating_add(8));
        if write_frame(&mut frame, kind, payload).is_ok() {
            self.outbox.push_back(frame);
        }
    }

    fn queue_error(&mut self, reply: &ErrorReply) {
        let payload = reply.to_json().to_string();
        self.queue_frame(FrameKind::Error, payload.as_bytes());
    }

    /// Write as much of the outbox as the socket will take. Returns
    /// `false` when the connection must be dropped (write error, or
    /// fully flushed with `close_after_flush`).
    fn flush(&mut self, now: Instant) -> bool {
        while let Some(front) = self.outbox.front() {
            debug_assert!(self.out_pos <= front.len());
            match self.sock.write(&front[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.last_progress = now;
                    // `n` is bounded by the slice length, but keep the
                    // offset arithmetic checked anyway.
                    self.out_pos = match self.out_pos.checked_add(n) {
                        Some(p) if p <= front.len() => p,
                        _ => return false,
                    };
                    if self.out_pos == front.len() {
                        self.outbox.pop_front();
                        self.out_pos = 0;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let _ = self.sock.flush();
        !(self.outbox.is_empty() && self.close_after_flush)
    }
}

// ---------------------------------------------------------------------
// Reactor configuration + context
// ---------------------------------------------------------------------

/// Tunables the embedding server passes in.
pub struct ReactorConfig {
    /// Largest accepted frame payload.
    pub max_frame: usize,
    /// Typed `idle-timeout` close for a peer stalled *inside* a frame
    /// (or that never completed one) — the slow-loris bound.
    pub first_frame_timeout: Duration,
    /// Message on `draining` rejections ("server is draining" /
    /// "router is draining").
    pub drain_message: &'static str,
    /// Retry hint attached to `draining` rejections.
    pub drain_retry_ms: u64,
}

/// What a [`Handler`] may do to connections from inside `on_frame`.
pub struct Ctx<'a> {
    conns: &'a mut HashMap<ConnId, ConnState>,
    drain: &'a AtomicBool,
    now: Instant,
}

impl Ctx<'_> {
    /// Queue a frame on a connection.
    pub fn send(&mut self, conn: ConnId, kind: FrameKind, payload: &[u8]) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.queue_frame(kind, payload);
        }
    }

    /// Queue a typed error frame. (Callers bump their own error
    /// counters; the reactor does so only for errors it originates.)
    pub fn send_error(&mut self, conn: ConnId, reply: &ErrorReply) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.queue_error(reply);
        }
    }

    /// Close the connection once everything queued so far has flushed.
    pub fn close_after_flush(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.close_after_flush = true;
        }
    }

    /// Declare that a completion will arrive for this connection: pins
    /// it open (idle clocks paused) and holds the drain until the
    /// completion lands.
    pub fn expect_reply(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.pending = c.pending.saturating_add(1);
            c.last_progress = self.now;
        }
    }

    /// Count a `Request` frame against the connection.
    pub fn note_request(&mut self, conn: ConnId) -> u64 {
        match self.conns.get_mut(&conn) {
            Some(c) => {
                c.requests_seen = c.requests_seen.saturating_add(1);
                c.requests_seen
            }
            None => 0,
        }
    }

    /// `Request` frames previously seen on this connection.
    pub fn requests_seen(&self, conn: ConnId) -> u64 {
        self.conns.get(&conn).map_or(0, |c| c.requests_seen)
    }

    /// Whether this connection is still owed offloaded replies.
    pub fn has_pending(&self, conn: ConnId) -> bool {
        self.conns.get(&conn).is_some_and(|c| c.pending > 0)
    }

    /// Flip the drain flag (a `Shutdown` frame).
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Whether a drain is in progress.
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// The event loop. Build with [`Reactor::new`], share
/// [`Reactor::completions`] with worker threads, then [`Reactor::run`]
/// on a dedicated thread until the drain finishes.
pub struct Reactor {
    listener: Listener,
    config: ReactorConfig,
    drain: Arc<AtomicBool>,
    completions: Arc<Completions>,
    wake_rx: WakeRx,
    conns: HashMap<ConnId, ConnState>,
    next_id: ConnId,
    completion_buf: Vec<Completion>,
    /// Set when the current cycle applied completions or read bytes that
    /// left a frame incomplete; restarts the drain's quiet window.
    activity: bool,
}

impl Reactor {
    /// Wrap a bound listener.
    pub fn new(
        listener: Listener,
        config: ReactorConfig,
        drain: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        let (wake_tx, wake_rx) = wake_pair()?;
        Ok(Reactor {
            listener,
            config,
            drain,
            completions: Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                wake_tx,
            }),
            wake_rx,
            conns: HashMap::new(),
            next_id: 1,
            completion_buf: Vec::new(),
            activity: false,
        })
    }

    /// The completion queue to hand to worker threads (and to whatever
    /// needs to interrupt the poll, e.g. a drain trigger).
    pub fn completions(&self) -> Arc<Completions> {
        Arc::clone(&self.completions)
    }

    /// The listener's unix socket path, if any.
    pub fn unix_path(&self) -> Option<PathBuf> {
        self.listener.unix_path().cloned()
    }

    /// Run until a drain completes: the flag is set, the handler
    /// reports idle, and every queued reply is flushed. Consumes the
    /// reactor; the caller then joins its workers and unlinks the
    /// socket path.
    pub fn run(mut self, handler: &mut dyn Handler) {
        let quiet_window = POLL_TICK * DRAIN_QUIET_CYCLES;
        let mut drain_cycles: u32 = 0;
        let mut quiet_since = Instant::now();
        loop {
            if SIGTERM_SEEN.load(Ordering::SeqCst) {
                self.drain.store(true, Ordering::SeqCst);
            }
            let draining = self.drain.load(Ordering::SeqCst);
            if draining {
                drain_cycles = drain_cycles.saturating_add(1);
            }

            self.activity = false;
            self.poll_once();
            self.wake_rx.drain();
            self.apply_completions();
            self.accept_some(handler, draining);
            self.read_and_dispatch(handler);
            self.enforce_timeouts(handler, draining);
            self.flush_all();
            if self.activity {
                quiet_since = Instant::now();
            }

            if draining
                && drain_cycles > DRAIN_GRACE_CYCLES
                && quiet_since.elapsed() >= quiet_window
                && handler.idle()
                && self.completions.is_empty()
                && self.conns.values().all(|c| !c.has_output())
            {
                // One last backlog sweep: connections that completed
                // their handshake during the final cycle still get a
                // typed `draining` instead of silence.
                self.accept_some(handler, true);
                self.flush_all();
                if self.conns.values().all(|c| !c.has_output()) {
                    return;
                }
            }
        }
    }

    /// Block until something is ready (or the tick elapses).
    #[cfg(unix)]
    fn poll_once(&mut self) {
        use self::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
        use std::os::unix::io::AsRawFd;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len().saturating_add(2));
        let listener_fd = match &self.listener {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        fds.push(PollFd {
            fd: listener_fd,
            events: POLLIN,
            revents: 0,
        });
        fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for c in self.conns.values() {
            let mut events = POLLIN;
            if c.has_output() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.sock.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let timeout = i32::try_from(POLL_TICK.as_millis()).unwrap_or(25);
        // Readiness is only a hint (every socket op below is
        // nonblocking and WouldBlock-safe), so a poll failure degrades
        // to a timed tick rather than a crash.
        let _ = poll_fds(&mut fds, timeout);
        let _ = (POLLERR, POLLHUP, POLLNVAL); // handled via read()/write() results
    }

    /// Non-unix fallback: no poll(2); tick and let the nonblocking ops
    /// below discover readiness. Correct (everything tolerates
    /// WouldBlock) but busier — acceptable on platforms CI never runs.
    #[cfg(not(unix))]
    fn poll_once(&mut self) {
        std::thread::sleep(NO_POLL_TICK);
    }

    fn apply_completions(&mut self) {
        self.completions.take(&mut self.completion_buf);
        if !self.completion_buf.is_empty() {
            self.activity = true;
        }
        for done in self.completion_buf.drain(..) {
            let Some(c) = self.conns.get_mut(&done.conn) else {
                continue; // connection died while the work ran
            };
            c.pending = c.pending.saturating_sub(1);
            c.last_progress = Instant::now();
            c.outbox.push_back(done.bytes);
        }
    }

    /// Accept up to a fairness cap of pending connections. The drain
    /// flag is re-read per accept (not once per cycle): a wake from
    /// `begin_drain` interrupts the poll mid-cycle, and a connection
    /// accepted in that same wakeup must already see the drain.
    fn accept_some(&mut self, handler: &mut dyn Handler, force_drain: bool) {
        for _ in 0..MAX_ACCEPTS_PER_WAKEUP {
            let draining = force_drain || self.drain.load(Ordering::SeqCst);
            match self.listener.accept() {
                Ok(sock) => {
                    let _ = sock.set_nonblocking(true);
                    handler.on_accept();
                    let now = Instant::now();
                    let mut state = ConnState::new(sock, self.config.max_frame, now);
                    if draining {
                        // Drain-race fix: this peer completed its
                        // handshake and believes it is connected; answer
                        // `draining` with a retry hint, never silence.
                        handler.on_drain_reject();
                        state.queue_error(
                            &ErrorReply::new(ErrorCode::Draining, self.config.drain_message)
                                .with_retry_after_ms(self.config.drain_retry_ms),
                        );
                        state.close_after_flush = true;
                    }
                    let id = self.next_id;
                    // Wrapping is unreachable in practice (2^64 accepts)
                    // and, unlike `+ 1`, has no panic path.
                    self.next_id = self.next_id.wrapping_add(1);
                    self.conns.insert(id, state);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Listener failure (fd limit, socket unlinked, …):
                    // stop taking new work and drain what's in flight.
                    self.drain.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    fn read_and_dispatch(&mut self, handler: &mut dyn Handler) {
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        let mut buf = [0u8; READ_CHUNK];
        for id in ids {
            let mut drop_now = false;
            let mut read_any = false;
            if let Some(c) = self.conns.get_mut(&id) {
                if c.dead_read || c.eof {
                    continue;
                }
                for _ in 0..MAX_READS_PER_WAKEUP {
                    match c.sock.read(&mut buf) {
                        Ok(0) => {
                            c.eof = true;
                            break;
                        }
                        Ok(n) => {
                            c.asm.extend(&buf[..n]);
                            c.last_progress = Instant::now();
                            read_any = true;
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            drop_now = true;
                            break;
                        }
                    }
                }
            } else {
                continue;
            }
            if drop_now {
                self.conns.remove(&id);
                continue;
            }
            self.pump_frames(handler, id);
            // Complete frames were answered inline or admitted (and
            // admitted work holds a drain by itself); only a frame
            // still arriving is drain activity.
            if read_any && self.conns.get(&id).is_some_and(|c| c.asm.mid_frame()) {
                self.activity = true;
            }
        }
    }

    /// Hand every complete frame on `id` to the handler, then resolve
    /// EOF / framing-error endgames.
    fn pump_frames(&mut self, handler: &mut dyn Handler, id: ConnId) {
        loop {
            let step = match self.conns.get_mut(&id) {
                Some(c) if c.dead_read => return,
                Some(c) => c.asm.next_frame(),
                None => return,
            };
            match step {
                Ok(Some((kind, payload))) => {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.got_frame = true;
                    }
                    let mut ctx = Ctx {
                        conns: &mut self.conns,
                        drain: &self.drain,
                        now: Instant::now(),
                    };
                    handler.on_frame(&mut ctx, id, kind, payload);
                }
                Ok(None) => break,
                Err(e) => {
                    let reply = frame_error_reply(&e);
                    handler.on_frame_error(&reply);
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.queue_error(&reply);
                        c.dead_read = true;
                        c.close_after_flush = true;
                    }
                    return;
                }
            }
        }
        // EOF after all complete frames were served: a frame cut off
        // mid-stream is answered like the blocking reader answered
        // truncation; an orderly hangup just closes.
        enum EofAction {
            Nothing,
            Truncated(ErrorReply),
            CloseNow,
            CloseAfterFlush,
        }
        let action = match self.conns.get(&id) {
            Some(c) if c.eof && !c.dead_read => {
                if c.asm.mid_frame() {
                    EofAction::Truncated(frame_error_reply(&c.asm.eof_error()))
                } else if c.pending == 0 && !c.has_output() {
                    EofAction::CloseNow
                } else {
                    // Half-close with a reply still owed: deliver it,
                    // then close.
                    EofAction::CloseAfterFlush
                }
            }
            _ => EofAction::Nothing,
        };
        match action {
            EofAction::Truncated(reply) => {
                handler.on_frame_error(&reply);
                if let Some(c) = self.conns.get_mut(&id) {
                    c.queue_error(&reply);
                    c.dead_read = true;
                    c.close_after_flush = true;
                }
            }
            EofAction::CloseNow => {
                self.conns.remove(&id);
            }
            EofAction::CloseAfterFlush => {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.close_after_flush = true;
                }
            }
            EofAction::Nothing => {}
        }
    }

    fn enforce_timeouts(&mut self, handler: &mut dyn Handler, draining: bool) {
        let now = Instant::now();
        let mut expired: Vec<(ConnId, bool)> = Vec::new();
        for (&id, c) in &self.conns {
            if c.pending > 0 {
                continue; // a reply is owed; the clocks pause
            }
            let idle = now.saturating_duration_since(c.last_progress);
            if draining && c.has_output() && idle >= self.config.first_frame_timeout {
                // A swept peer that stopped reading must not hold the
                // drain open forever.
                expired.push((id, false));
            } else if c.has_output() || c.close_after_flush {
                continue; // flush path owns this connection's fate
            } else if (!c.got_frame || c.asm.mid_frame()) && idle >= self.config.first_frame_timeout
            {
                expired.push((id, true)); // slow loris: typed error
            } else if idle >= IDLE_TIMEOUT {
                expired.push((id, false)); // idle keep-alive: silent
            }
        }
        for (id, typed) in expired {
            if typed {
                handler.on_idle_timeout();
                if let Some(c) = self.conns.get_mut(&id) {
                    c.queue_error(&ErrorReply::new(
                        ErrorCode::IdleTimeout,
                        "no complete frame arrived within the read timeout",
                    ));
                    c.dead_read = true;
                    c.close_after_flush = true;
                }
            } else {
                self.conns.remove(&id);
            }
        }
    }

    fn flush_all(&mut self) {
        let now = Instant::now();
        let mut dead: Vec<ConnId> = Vec::new();
        for (&id, c) in self.conns.iter_mut() {
            if (c.has_output() || c.close_after_flush) && !c.flush(now) {
                dead.push(id);
            }
        }
        for id in dead {
            self.conns.remove(&id);
        }
    }
}

/// Map a framing error to the typed reply the old blocking core sent.
fn frame_error_reply(e: &FrameReadError) -> ErrorReply {
    match e {
        FrameReadError::Oversized { len, max } => ErrorReply::new(
            ErrorCode::OversizedFrame,
            format!("frame payload of {len} bytes exceeds the {max}-byte cap"),
        ),
        other => ErrorReply::new(ErrorCode::MalformedFrame, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_errors_map_to_the_same_codes_as_the_blocking_path() {
        let r = frame_error_reply(&FrameReadError::Oversized { len: 99, max: 10 });
        assert_eq!(r.code, ErrorCode::OversizedFrame);
        assert!(
            r.message.contains("99") && r.message.contains("10"),
            "{}",
            r.message
        );

        let r = frame_error_reply(&FrameReadError::BadMagic(*b"GE"));
        assert_eq!(r.code, ErrorCode::MalformedFrame);

        let truncated = FrameReadError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated frame header",
        ));
        let r = frame_error_reply(&truncated);
        assert_eq!(r.code, ErrorCode::MalformedFrame);
        assert!(r.message.contains("truncated"), "{}", r.message);
    }

    #[test]
    fn completions_queue_recovers_from_a_poisoned_lock() {
        let (wake_tx, _wake_rx) = wake_pair().unwrap();
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            wake_tx,
        });
        let c2 = Arc::clone(&completions);
        let _ = std::thread::spawn(move || {
            let _guard = c2.queue.lock().unwrap();
            panic!("poison the completions lock");
        })
        .join();
        // The push after the poisoning must still work.
        completions.push(Completion {
            conn: 1,
            bytes: vec![1, 2, 3],
        });
        let mut out = Vec::new();
        completions.take(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, vec![1, 2, 3]);
    }
}
