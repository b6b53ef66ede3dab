//! The dagsched wire protocol, shared by the daemon
//! (`dagsched-service`), its client, and the cluster router
//! (`dagsched-router`): one framing implementation, no copies.
//!
//! Every message is one *frame*: a 16-byte header followed by a JSON
//! payload.
//!
//! ```text
//! offset  size  field
//!      0     2  magic  "DS"
//!      2     1  protocol version (currently 2)
//!      3     1  frame kind (see FrameKind)
//!      4     4  payload length, little-endian u32
//!      8     8  FNV-1a 64 checksum of the payload, little-endian u64
//!     16     n  payload (UTF-8 JSON)
//! ```
//!
//! The header is validated *before* the payload is read, and the length
//! is checked against a caller-supplied cap, so a hostile peer cannot
//! make the server allocate an arbitrary buffer. Every malformed input —
//! bad magic, unknown kind, oversized or truncated frame, junk JSON —
//! maps to a typed error ([`FrameReadError`] / [`ErrorReply`]), never a
//! panic: the daemon answers garbage with an `Error` frame and closes
//! the connection.
//!
//! The payload checksum (version 2) exists for the link-fault case the
//! header alone cannot catch: a byte corrupted *inside* the JSON
//! payload. A flipped byte in string content still parses — without the
//! checksum a router would dutifully relay a silently-wrong schedule.
//! With it, in-flight corruption anywhere in the payload surfaces as a
//! typed [`FrameReadError::ChecksumMismatch`], which clients treat as
//! retryable transport breakage and the router treats as link evidence.
//!
//! Request/response payloads are plain JSON objects (see
//! [`ScheduleRequest`] / [`ScheduleResponse`]); unknown fields are
//! ignored so old clients keep working against newer servers.

use std::fmt;
use std::io::{self, Read, Write};

use dagsched_core::PhaseStats;
use dagsched_driver::{DriverConfig, LimitError};
use dagsched_isa::MachineModel;
use dagsched_sched::{Scheduler, SchedulerKind};

pub mod json;

use crate::json::Json;

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"DS";
/// Protocol version carried in byte 2. Version 2 added the payload
/// checksum at header bytes 8..16.
pub const VERSION: u8 = 2;
/// Default cap on a frame payload (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;
/// Sanity cap on a request's `jobs` field: more worker threads than
/// this is never a legitimate request, so larger values (including
/// u64s that would truncate in a `as usize` cast on 32-bit hosts) are
/// rejected as `bad-request`.
pub const MAX_REQUEST_JOBS: usize = 1 << 16;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a [`ScheduleRequest`].
    Request = 1,
    /// Server → client: a [`ScheduleResponse`].
    Response = 2,
    /// Server → client: an [`ErrorReply`].
    Error = 3,
    /// Client → server: liveness probe (empty payload).
    Ping = 4,
    /// Server → client: answer to a ping (empty payload).
    Pong = 5,
    /// Client → server: ask the daemon to drain and exit.
    Shutdown = 6,
    /// Both directions: request for / snapshot of server counters.
    Metrics = 7,
    /// Client → server: a JSON admin command ([`AdminCommand`]). The
    /// daemon answers `snapshot-export` / `snapshot-install` (warm-spare
    /// cache shipping); the router additionally answers cluster
    /// membership commands (`add-shard`, `remove-shard`, `status`).
    Admin = 8,
    /// Server → client: the JSON result of an [`FrameKind::Admin`]
    /// command.
    AdminReply = 9,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Error,
            4 => FrameKind::Ping,
            5 => FrameKind::Pong,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Metrics,
            8 => FrameKind::Admin,
            9 => FrameKind::AdminReply,
            _ => return None,
        })
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying read failed (includes truncation:
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The first two bytes were not `"DS"`.
    BadMagic([u8; 2]),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The kind byte named no known [`FrameKind`].
    UnknownKind(u8),
    /// The payload length exceeds the reader's cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload did not hash to the header's checksum: bytes were
    /// corrupted in flight.
    ChecksumMismatch {
        /// The checksum the sender stamped in the header.
        expected: u64,
        /// The checksum of the payload as received.
        actual: u64,
    },
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "i/o error: {e}"),
            FrameReadError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            FrameReadError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameReadError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameReadError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameReadError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (header {expected:#018x}, payload {actual:#018x}): \
                 bytes corrupted in flight"
            ),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> FrameReadError {
        FrameReadError::Io(e)
    }
}

/// A frame payload too large for the 4-byte length field.
///
/// The header stores the payload length as a `u32`; on a 64-bit host a
/// `&[u8]` can be longer, and `len as u32` would silently truncate —
/// the peer would then read a frame whose payload is `len % 2^32` bytes
/// followed by what it parses as billions of garbage "frames". This is
/// surfaced as a typed error *before* the cast instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooLarge {
    /// The actual payload length that did not fit.
    pub len: usize,
}

impl fmt::Display for PayloadTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds the u32 length field (max {})",
            self.len,
            u32::MAX
        )
    }
}

impl std::error::Error for PayloadTooLarge {}

/// Check a payload length against the header's `u32` field.
///
/// Split out of [`write_frame`] so the bound is unit-testable without
/// allocating a 4 GiB buffer.
pub fn encode_payload_len(len: usize) -> Result<u32, PayloadTooLarge> {
    u32::try_from(len).map_err(|_| PayloadTooLarge { len })
}

/// Write one frame.
///
/// Fails with [`PayloadTooLarge`] (wrapped in an
/// [`io::ErrorKind::InvalidInput`] error) when the payload does not fit
/// the header's 4-byte length field, *before* anything is written: the
/// stream is left clean for an error reply rather than desynchronized
/// by a truncated length.
pub fn write_frame(w: &mut dyn Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    let len = encode_payload_len(payload.len())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = kind as u8;
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&frame_checksum(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// The payload checksum stamped in header bytes 8..16: FNV-1a 64.
///
/// Not cryptographic — it defends against *accidental* in-flight
/// corruption (a flipped bit on a faulty link), where any single-byte
/// change is guaranteed to alter the hash.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    dagsched_isa::fnv64(payload)
}

/// Read one frame, validating the header before allocating the payload
/// buffer and rejecting payloads longer than `max_payload`.
pub fn read_frame(
    r: &mut dyn Read,
    max_payload: usize,
) -> Result<(FrameKind, Vec<u8>), FrameReadError> {
    match read_frame_or_eof(r, max_payload)? {
        Some(frame) => Ok(frame),
        None => Err(FrameReadError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a frame",
        ))),
    }
}

/// [`read_frame`], but a clean end-of-stream *before any header byte*
/// reads as `Ok(None)` — the server uses this to tell an orderly client
/// hangup apart from a truncated frame (which is still an error).
pub fn read_frame_or_eof(
    r: &mut dyn Read,
    max_payload: usize,
) -> Result<Option<(FrameKind, Vec<u8>)>, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if header[..2] != MAGIC {
        return Err(FrameReadError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(FrameReadError::BadVersion(header[2]));
    }
    let kind = FrameKind::from_u8(header[3]).ok_or(FrameReadError::UnknownKind(header[3]))?;
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > max_payload {
        return Err(FrameReadError::Oversized {
            len,
            max: max_payload,
        });
    }
    let expected = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let actual = frame_checksum(&payload);
    if actual != expected {
        return Err(FrameReadError::ChecksumMismatch { expected, actual });
    }
    Ok(Some((kind, payload)))
}

/// Incremental frame decoder for nonblocking sockets.
///
/// The blocking readers above own the socket until a whole frame
/// arrives; a readiness-driven server cannot afford that, so the
/// reactor feeds whatever bytes `read(2)` returned into an assembler
/// and pumps out zero or more complete frames per wakeup. The header
/// is validated as soon as its 8 bytes are buffered — bad magic,
/// unknown kinds, and oversized declarations are rejected *before* any
/// payload accumulates, so a hostile peer cannot make the server buffer
/// an arbitrary payload any more than the blocking path would.
///
/// All offset arithmetic is checked (`usize::try_from` on the wire
/// length, `checked_add` on buffer offsets): a malformed length maps to
/// a typed [`FrameReadError`], never a panic or a wrapped index.
#[derive(Debug)]
pub struct FrameAssembler {
    max_payload: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily.
    pos: usize,
}

/// Compact the consumed prefix once it crosses this many bytes, so the
/// buffer does not grow without bound on a long-lived connection.
const ASSEMBLER_COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler enforcing `max_payload` per frame.
    pub fn new(max_payload: usize) -> FrameAssembler {
        FrameAssembler {
            max_payload,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Feed bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= ASSEMBLER_COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (a partial frame, or frames
    /// not yet pumped out).
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether a frame has started arriving but is not yet complete —
    /// after EOF this distinguishes a truncated frame from an orderly
    /// hangup, and after a timeout a stalled writer from an idle one.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// The error an EOF in the current position maps to, mirroring the
    /// blocking reader's messages ("truncated frame header" when the
    /// stream died inside a header, payload truncation otherwise).
    pub fn eof_error(&self) -> FrameReadError {
        let msg = if self.buffered() < FRAME_HEADER_LEN {
            "truncated frame header"
        } else {
            "truncated frame payload"
        };
        FrameReadError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, msg))
    }

    /// Pump out the next complete frame, `Ok(None)` when more bytes are
    /// needed. Errors are sticky in practice: the caller replies with a
    /// typed error and closes the connection, because the stream can no
    /// longer be trusted to be frame-aligned.
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, FrameReadError> {
        if self.buffered() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[self.pos..self.pos + FRAME_HEADER_LEN];
        if header[..2] != MAGIC {
            return Err(FrameReadError::BadMagic([header[0], header[1]]));
        }
        if header[2] != VERSION {
            return Err(FrameReadError::BadVersion(header[2]));
        }
        let kind = FrameKind::from_u8(header[3]).ok_or(FrameReadError::UnknownKind(header[3]))?;
        let wire_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let len = usize::try_from(wire_len).map_err(|_| FrameReadError::Oversized {
            len: self.max_payload.saturating_add(1),
            max: self.max_payload,
        })?;
        if len > self.max_payload {
            return Err(FrameReadError::Oversized {
                len,
                max: self.max_payload,
            });
        }
        let total = FRAME_HEADER_LEN
            .checked_add(len)
            .ok_or(FrameReadError::Oversized {
                len,
                max: self.max_payload,
            })?;
        if self.buffered() < total {
            return Ok(None);
        }
        let start = self.pos + FRAME_HEADER_LEN;
        let payload = self.buf[start..start + len].to_vec();
        let expected = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
        let actual = frame_checksum(&payload);
        if actual != expected {
            return Err(FrameReadError::ChecksumMismatch { expected, actual });
        }
        self.pos += total;
        Ok(Some((kind, payload)))
    }
}

/// Bytes in a frame header.
pub const FRAME_HEADER_LEN: usize = 16;

/// Machine-readable error category carried by an `Error` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame header or framing was invalid.
    MalformedFrame,
    /// The frame payload exceeded the server's cap.
    OversizedFrame,
    /// The request was structurally valid JSON but semantically bad
    /// (unknown scheduler, empty program, …).
    BadRequest,
    /// The payload was not valid JSON / assembly.
    ParseError,
    /// A block exceeded the server's `max_block` limit.
    BlockTooLarge,
    /// The request deadline passed before scheduling finished.
    DeadlineExpired,
    /// The accept queue was full; retry later.
    Busy,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
    /// An unexpected server-side failure. For a panic contained by the
    /// worker supervisor this is the reply the requesting client sees;
    /// the worker itself is respawned and keeps serving.
    Internal,
    /// The request previously crashed too many workers and is
    /// quarantined: the server refuses to run it again. Unlike
    /// [`ErrorCode::Internal`], this is terminal — retrying is useless.
    Quarantined,
    /// The connection sat idle without completing a frame (slow-loris):
    /// the server timed out the read and closed it. Not retryable as a
    /// *request* error — the client never sent a complete request, so
    /// there is nothing to retry; a well-behaved client reconnects and
    /// writes its frame promptly.
    IdleTimeout,
}

impl ErrorCode {
    /// The wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::BlockTooLarge => "block-too-large",
            ErrorCode::DeadlineExpired => "deadline-expired",
            ErrorCode::Busy => "busy",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::IdleTimeout => "idle-timeout",
        }
    }

    /// Whether a client may reasonably retry a request that failed with
    /// this code. Transient conditions (`busy`, `draining`) and
    /// contained worker crashes (`internal` — the worker was respawned)
    /// are retryable; malformed or rejected requests will fail
    /// identically every time and must not be retried.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Draining | ErrorCode::Internal
        )
    }

    /// Parse a wire string back into a code.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed-frame" => ErrorCode::MalformedFrame,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "bad-request" => ErrorCode::BadRequest,
            "parse-error" => ErrorCode::ParseError,
            "block-too-large" => ErrorCode::BlockTooLarge,
            "deadline-expired" => ErrorCode::DeadlineExpired,
            "busy" => ErrorCode::Busy,
            "draining" => ErrorCode::Draining,
            "internal" => ErrorCode::Internal,
            "quarantined" => ErrorCode::Quarantined,
            "idle-timeout" => ErrorCode::IdleTimeout,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Server's suggested wait before retrying, when it sheds load.
    /// Only meaningful on retryable codes; `None` everywhere else.
    pub retry_after_ms: Option<u64>,
}

impl ErrorReply {
    /// Build a reply.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach a suggested retry delay (builder-style).
    pub fn with_retry_after_ms(mut self, ms: u64) -> ErrorReply {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Serialize to the wire payload.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code", Json::from(self.code.as_str())),
            ("message", Json::from(self.message.as_str())),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms", Json::from(ms)));
        }
        Json::obj(fields)
    }

    /// Deserialize from a wire payload.
    pub fn from_json(v: &Json) -> Option<ErrorReply> {
        Some(ErrorReply {
            code: ErrorCode::from_wire(v.get("code")?.as_str()?)?,
            message: v.get("message")?.as_str()?.to_string(),
            retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
        })
    }
}

impl From<LimitError> for ErrorReply {
    fn from(e: LimitError) -> ErrorReply {
        let code = match e {
            LimitError::BlockTooLarge { .. } => ErrorCode::BlockTooLarge,
            LimitError::DeadlineExpired => ErrorCode::DeadlineExpired,
            // Malformed input the DAG core rejected: the client's fault,
            // not a server fault, and not retryable.
            LimitError::Construct { .. } => ErrorCode::BadRequest,
        };
        ErrorReply::new(code, e.to_string())
    }
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Smallest remaining deadline worth forwarding to another hop, in
/// milliseconds. Below this, a forwarder fails fast with
/// `deadline-expired` instead of shipping work the downstream cannot
/// possibly finish in time.
pub const MIN_FORWARD_DEADLINE_MS: u64 = 5;

/// Deadline propagation: the budget left after `elapsed_ms` has been
/// spent queueing and forwarding. Returns `None` when the remainder is
/// below [`MIN_FORWARD_DEADLINE_MS`] — the caller should reply
/// `deadline-expired` rather than forward. Saturating: an elapsed time
/// past the deadline yields `None`, never wraps.
pub fn remaining_deadline_ms(deadline_ms: u64, elapsed_ms: u64) -> Option<u64> {
    let remaining = deadline_ms.saturating_sub(elapsed_ms);
    (remaining >= MIN_FORWARD_DEADLINE_MS).then_some(remaining)
}

/// What a request schedules: literal assembly or a generated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestInput {
    /// SPARC-flavoured assembly text.
    Asm(String),
    /// A synthetic benchmark: profile name + generator seed.
    Profile {
        /// Profile name (see `dagsched_workloads::BenchmarkProfile`).
        name: String,
        /// Generator seed.
        seed: u64,
    },
}

/// A scheduling request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// The program to schedule.
    pub input: RequestInput,
    /// Machine model name (`sparc2`, `rs6000`, `deep-fpu`).
    pub machine: String,
    /// Published algorithm name (`warren`, `gm`, …).
    pub scheduler: String,
    /// DAG construction algorithm override (empty = scheduler default).
    pub algo: String,
    /// Memory disambiguation policy override (empty = scheduler default).
    pub policy: String,
    /// Carry latencies across block boundaries.
    pub inherit: bool,
    /// Fill branch delay slots.
    pub fill_slots: bool,
    /// Worker threads for this request (0 = server default of 1).
    pub jobs: usize,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Also simulate before/after cycle counts.
    pub sim: bool,
    /// Debug knob: hold the worker for this many milliseconds after
    /// scheduling (capped server-side). Lets tests fill the queue and
    /// exercise `busy` / drain paths deterministically.
    pub linger_ms: u64,
    /// Allow deadline-aware degraded scheduling: when the remaining
    /// budget runs low, the server may fall down the cost ladder
    /// (cheaper DAG construction, then critical-path-only heuristics)
    /// instead of expiring. Defaults to `true`; responses produced this
    /// way carry `degraded: true`.
    pub degrade: bool,
    /// Retry attempt number (0 = first try). Purely informational —
    /// the server logs it for quarantine bookkeeping; the content-
    /// addressed cache key ignores it, so retries stay idempotent.
    pub attempt: u64,
    /// Debug knob: deliberately panic inside the worker while handling
    /// this request. Exercises the panic-isolation and respawn path in
    /// integration tests; never set by real clients.
    pub debug_panic: bool,
}

impl ScheduleRequest {
    /// A request with every knob at its default.
    pub fn asm(text: impl Into<String>) -> ScheduleRequest {
        ScheduleRequest {
            input: RequestInput::Asm(text.into()),
            machine: "sparc2".to_string(),
            scheduler: "warren".to_string(),
            algo: String::new(),
            policy: String::new(),
            inherit: false,
            fill_slots: false,
            jobs: 0,
            deadline_ms: None,
            sim: false,
            linger_ms: 0,
            degrade: true,
            attempt: 0,
            debug_panic: false,
        }
    }

    /// A generated-workload request with every knob at its default.
    pub fn profile(name: impl Into<String>, seed: u64) -> ScheduleRequest {
        ScheduleRequest {
            input: RequestInput::Profile {
                name: name.into(),
                seed,
            },
            ..ScheduleRequest::asm("")
        }
    }

    /// Serialize to the wire payload.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![];
        match &self.input {
            RequestInput::Asm(text) => fields.push(("asm", Json::from(text.as_str()))),
            RequestInput::Profile { name, seed } => {
                fields.push(("profile", Json::from(name.as_str())));
                fields.push(("seed", Json::from(*seed)));
            }
        }
        fields.push(("machine", Json::from(self.machine.as_str())));
        fields.push(("scheduler", Json::from(self.scheduler.as_str())));
        if !self.algo.is_empty() {
            fields.push(("algo", Json::from(self.algo.as_str())));
        }
        if !self.policy.is_empty() {
            fields.push(("policy", Json::from(self.policy.as_str())));
        }
        fields.push(("inherit", Json::from(self.inherit)));
        fields.push(("fill_slots", Json::from(self.fill_slots)));
        fields.push(("jobs", Json::from(self.jobs)));
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::from(ms)));
        }
        fields.push(("sim", Json::from(self.sim)));
        if self.linger_ms > 0 {
            fields.push(("linger_ms", Json::from(self.linger_ms)));
        }
        if !self.degrade {
            fields.push(("degrade", Json::from(false)));
        }
        if self.attempt > 0 {
            fields.push(("attempt", Json::from(self.attempt)));
        }
        if self.debug_panic {
            fields.push(("debug_panic", Json::from(true)));
        }
        Json::obj(fields)
    }

    /// Deserialize from a wire payload. Unknown fields are ignored;
    /// missing optional fields take their defaults.
    pub fn from_json(v: &Json) -> Result<ScheduleRequest, ErrorReply> {
        let input = if let Some(asm) = v.get("asm").and_then(Json::as_str) {
            RequestInput::Asm(asm.to_string())
        } else if let Some(name) = v.get("profile").and_then(Json::as_str) {
            RequestInput::Profile {
                name: name.to_string(),
                seed: v.get("seed").and_then(Json::as_u64).unwrap_or(1991),
            }
        } else {
            return Err(ErrorReply::new(
                ErrorCode::BadRequest,
                "request needs an `asm` or `profile` field",
            ));
        };
        let s = |key: &str, default: &str| -> String {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or(default)
                .to_string()
        };
        // `jobs` crosses a u64 → usize boundary: a hostile peer can send
        // any 64-bit value, and `as usize` would silently truncate it on
        // a 32-bit host (e.g. 2^32 + 1 → 1 worker). Reject anything that
        // does not fit, or that exceeds the sanity cap, as a typed
        // bad-request instead of guessing.
        let jobs = match v.get("jobs").and_then(Json::as_u64) {
            None => 0,
            Some(raw) => match usize::try_from(raw) {
                Ok(n) if n <= MAX_REQUEST_JOBS => n,
                _ => {
                    return Err(ErrorReply::new(
                        ErrorCode::BadRequest,
                        format!("`jobs` value {raw} is out of range (max {MAX_REQUEST_JOBS})"),
                    ))
                }
            },
        };
        Ok(ScheduleRequest {
            input,
            machine: s("machine", "sparc2"),
            scheduler: s("scheduler", "warren"),
            algo: s("algo", ""),
            policy: s("policy", ""),
            inherit: v.get("inherit").and_then(Json::as_bool).unwrap_or(false),
            fill_slots: v.get("fill_slots").and_then(Json::as_bool).unwrap_or(false),
            jobs,
            deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            sim: v.get("sim").and_then(Json::as_bool).unwrap_or(false),
            linger_ms: v.get("linger_ms").and_then(Json::as_u64).unwrap_or(0),
            degrade: v.get("degrade").and_then(Json::as_bool).unwrap_or(true),
            attempt: v.get("attempt").and_then(Json::as_u64).unwrap_or(0),
            debug_panic: v
                .get("debug_panic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

/// One block's outcome in a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSummary {
    /// Block index.
    pub block: usize,
    /// Instructions in the block.
    pub len: usize,
    /// Makespan of the original order.
    pub original_makespan: u64,
    /// Makespan of the scheduled order.
    pub scheduled_makespan: u64,
}

/// A scheduling response.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResponse {
    /// The emitted instruction stream, rendered one instruction per
    /// element.
    pub insns: Vec<String>,
    /// Per-block outcomes.
    pub blocks: Vec<BlockSummary>,
    /// The per-phase counters for this request.
    pub stats: PhaseStats,
    /// `(before, after)` simulated cycles, when the request asked.
    pub cycles: Option<(u64, u64)>,
    /// Whether any block was compiled on a degraded rung of the cost
    /// ladder. `false` responses are bit-identical to a full-fidelity
    /// compile; `true` responses are still valid schedules, just
    /// produced with cheaper construction and/or heuristics.
    pub degraded: bool,
}

/// Serialize `stats` for the wire.
pub fn stats_to_json(stats: &PhaseStats) -> Json {
    Json::obj(vec![
        ("blocks", Json::from(stats.blocks)),
        ("nodes", Json::from(stats.nodes)),
        ("arcs_added", Json::from(stats.arcs_added)),
        ("arcs_suppressed", Json::from(stats.arcs_suppressed)),
        ("table_probes", Json::from(stats.table_probes)),
        ("comparisons", Json::from(stats.comparisons)),
        ("construct_ns", Json::from(stats.construct_ns)),
        ("heur_ns", Json::from(stats.heur_ns)),
        ("sched_ns", Json::from(stats.sched_ns)),
        ("cache_hits", Json::from(stats.cache_hits)),
        ("cache_misses", Json::from(stats.cache_misses)),
        ("degraded_blocks", Json::from(stats.degraded_blocks)),
    ])
}

/// Deserialize wire stats (missing fields read as zero).
pub fn stats_from_json(v: &Json) -> PhaseStats {
    let g = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    PhaseStats {
        blocks: g("blocks"),
        nodes: g("nodes"),
        arcs_added: g("arcs_added"),
        arcs_suppressed: g("arcs_suppressed"),
        table_probes: g("table_probes"),
        comparisons: g("comparisons"),
        construct_ns: g("construct_ns"),
        heur_ns: g("heur_ns"),
        sched_ns: g("sched_ns"),
        cache_hits: g("cache_hits"),
        cache_misses: g("cache_misses"),
        degraded_blocks: g("degraded_blocks"),
    }
}

impl ScheduleResponse {
    /// Serialize to the wire payload.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "insns",
                Json::Arr(self.insns.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
            (
                "blocks",
                Json::Arr(
                    self.blocks
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("block", Json::from(b.block)),
                                ("len", Json::from(b.len)),
                                ("original_makespan", Json::from(b.original_makespan)),
                                ("scheduled_makespan", Json::from(b.scheduled_makespan)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats", stats_to_json(&self.stats)),
            ("degraded", Json::from(self.degraded)),
        ];
        if let Some((before, after)) = self.cycles {
            fields.push((
                "cycles",
                Json::obj(vec![
                    ("before", Json::from(before)),
                    ("after", Json::from(after)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Deserialize from a wire payload.
    pub fn from_json(v: &Json) -> Option<ScheduleResponse> {
        let insns = v
            .get("insns")?
            .as_arr()?
            .iter()
            .map(|i| i.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        let blocks = v
            .get("blocks")?
            .as_arr()?
            .iter()
            .map(|b| {
                Some(BlockSummary {
                    // Checked u64 → usize: refuse (rather than truncate)
                    // counters that do not fit the host's word size.
                    block: usize::try_from(b.get("block")?.as_u64()?).ok()?,
                    len: usize::try_from(b.get("len")?.as_u64()?).ok()?,
                    original_makespan: b.get("original_makespan")?.as_u64()?,
                    scheduled_makespan: b.get("scheduled_makespan")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let stats = stats_from_json(v.get("stats")?);
        let cycles = v
            .get("cycles")
            .and_then(|c| Some((c.get("before")?.as_u64()?, c.get("after")?.as_u64()?)));
        Some(ScheduleResponse {
            insns,
            blocks,
            stats,
            cycles,
            degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// Encode bytes as lowercase hex (for binary payloads carried inside
/// JSON frames, e.g. shipped snapshots).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xF) as u32, 16).unwrap());
    }
    out
}

/// Decode a hex string produced by [`hex_encode`]. `None` on odd length
/// or non-hex characters.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// A JSON command carried by an [`FrameKind::Admin`] frame.
///
/// The daemon understands the snapshot-shipping pair; the router
/// additionally understands cluster membership commands. Either peer
/// answers a command it does not implement with a typed `bad-request`
/// error, so a command sent to the wrong tier fails loudly instead of
/// silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminCommand {
    /// Daemon: export the schedule cache (plus the store's generation
    /// and fingerprint) as an opaque shipment for a joining warm spare.
    SnapshotExport,
    /// Daemon: install a shipment previously produced by
    /// [`AdminCommand::SnapshotExport`] on another shard.
    SnapshotInstall {
        /// Encoded `dagsched_store::Shipment` bytes.
        shipment: Vec<u8>,
    },
    /// Router: add a shard endpoint to the ring (after warm-spare
    /// promotion).
    AddShard {
        /// `unix:/path` or `host:port`.
        endpoint: String,
    },
    /// Router: remove a shard endpoint from the ring.
    RemoveShard {
        /// The endpoint string the shard was added with.
        endpoint: String,
    },
    /// Router: report ring membership and per-shard health.
    Status,
}

impl AdminCommand {
    /// Serialize to the wire payload.
    pub fn to_json(&self) -> Json {
        match self {
            AdminCommand::SnapshotExport => Json::obj(vec![("cmd", Json::from("snapshot-export"))]),
            AdminCommand::SnapshotInstall { shipment } => Json::obj(vec![
                ("cmd", Json::from("snapshot-install")),
                ("shipment", Json::from(hex_encode(shipment).as_str())),
            ]),
            AdminCommand::AddShard { endpoint } => Json::obj(vec![
                ("cmd", Json::from("add-shard")),
                ("endpoint", Json::from(endpoint.as_str())),
            ]),
            AdminCommand::RemoveShard { endpoint } => Json::obj(vec![
                ("cmd", Json::from("remove-shard")),
                ("endpoint", Json::from(endpoint.as_str())),
            ]),
            AdminCommand::Status => Json::obj(vec![("cmd", Json::from("status"))]),
        }
    }

    /// Deserialize from a wire payload, with a typed error for unknown
    /// or malformed commands.
    pub fn from_json(v: &Json) -> Result<AdminCommand, ErrorReply> {
        let bad = |m: &str| ErrorReply::new(ErrorCode::BadRequest, m);
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("admin command needs a `cmd` field"))?;
        Ok(match cmd {
            "snapshot-export" => AdminCommand::SnapshotExport,
            "snapshot-install" => AdminCommand::SnapshotInstall {
                shipment: v
                    .get("shipment")
                    .and_then(Json::as_str)
                    .and_then(hex_decode)
                    .ok_or_else(|| bad("snapshot-install needs a hex `shipment` field"))?,
            },
            "add-shard" => AdminCommand::AddShard {
                endpoint: v
                    .get("endpoint")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("add-shard needs an `endpoint` field"))?
                    .to_string(),
            },
            "remove-shard" => AdminCommand::RemoveShard {
                endpoint: v
                    .get("endpoint")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("remove-shard needs an `endpoint` field"))?
                    .to_string(),
            },
            "status" => AdminCommand::Status,
            other => {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    format!("unknown admin command `{other}`"),
                ))
            }
        })
    }
}

/// Parse a construction-algorithm name (shared with the CLI's `--algo`).
pub fn parse_algo(v: &str) -> Result<dagsched_core::ConstructionAlgorithm, String> {
    use dagsched_core::ConstructionAlgorithm as A;
    Ok(match v {
        "n2" | "n2-forward" => A::N2Forward,
        "n2-backward" => A::N2Backward,
        "landskov" => A::N2ForwardLandskov,
        "table-forward" => A::TableForward,
        "table-backward" => A::TableBackward,
        "bitmap" => A::TableBackwardBitmap,
        _ => return Err(format!("unknown algo `{v}`")),
    })
}

/// Parse a memory-policy name (shared with the CLI's `--policy`).
pub fn parse_policy(v: &str) -> Result<dagsched_core::MemDepPolicy, String> {
    use dagsched_core::MemDepPolicy as P;
    Ok(match v {
        "single" => P::SingleResource,
        "base-offset" => P::BaseOffset,
        "storage-class" => P::StorageClass,
        "symbolic" => P::SymbolicExpr,
        _ => return Err(format!("unknown policy `{v}`")),
    })
}

/// Parse a published-scheduler name (shared with the CLI's
/// `--scheduler`).
pub fn parse_scheduler_kind(v: &str) -> Result<SchedulerKind, String> {
    Ok(match v {
        "gibbons-muchnick" | "gm" => SchedulerKind::GibbonsMuchnick,
        "krishnamurthy" => SchedulerKind::Krishnamurthy,
        "schlansker" => SchedulerKind::Schlansker,
        "shieh-papachristou" | "shieh" => SchedulerKind::ShiehPapachristou,
        "tiemann" | "gcc" => SchedulerKind::Tiemann,
        "warren" => SchedulerKind::Warren,
        _ => return Err(format!("unknown scheduler `{v}`")),
    })
}

/// Parse a machine-model name (shared with the CLI's `--model`).
pub fn parse_model(v: &str) -> Result<MachineModel, String> {
    Ok(match v {
        "sparc2" => MachineModel::sparc2(),
        "rs6000" => MachineModel::rs6000_like(),
        "deep-fpu" => MachineModel::deep_fpu(),
        _ => return Err(format!("unknown model `{v}`")),
    })
}

/// Resolve a request's configuration strings into a driver config and a
/// machine model, surfacing unknown names as `bad-request` replies.
pub fn build_driver_config(
    req: &ScheduleRequest,
) -> Result<(DriverConfig, MachineModel), ErrorReply> {
    let bad = |m: String| ErrorReply::new(ErrorCode::BadRequest, m);
    let kind = parse_scheduler_kind(&req.scheduler).map_err(bad)?;
    let mut scheduler = Scheduler::new(kind);
    if !req.algo.is_empty() {
        scheduler = scheduler.with_construction(parse_algo(&req.algo).map_err(bad)?);
    }
    if !req.policy.is_empty() {
        scheduler = scheduler.with_policy(parse_policy(&req.policy).map_err(bad)?);
    }
    let model = parse_model(&req.machine).map_err(bad)?;
    Ok((
        DriverConfig {
            scheduler,
            inherit_latencies: req.inherit,
            fill_delay_slots: req.fill_slots,
            ..DriverConfig::default()
        },
        model,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_deadline_subtracts_elapsed_and_floors() {
        // Plenty of budget left: pass the remainder downstream.
        assert_eq!(remaining_deadline_ms(1000, 250), Some(750));
        // Exactly at the floor is still forwardable.
        assert_eq!(
            remaining_deadline_ms(100, 100 - MIN_FORWARD_DEADLINE_MS),
            Some(MIN_FORWARD_DEADLINE_MS)
        );
        // Below the floor, expired, or saturating past it: fail fast.
        assert_eq!(remaining_deadline_ms(100, 97), None);
        assert_eq!(remaining_deadline_ms(100, 100), None);
        assert_eq!(remaining_deadline_ms(100, u64::MAX), None);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"{\"asm\":\"nop\"}").unwrap();
        let mut r = &buf[..];
        let (kind, payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(payload, b"{\"asm\":\"nop\"}");
    }

    #[test]
    fn bad_headers_are_typed_errors() {
        let mut good = Vec::new();
        write_frame(&mut good, FrameKind::Ping, b"").unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad_magic[..], 1024),
            Err(FrameReadError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[2] = 9;
        assert!(matches!(
            read_frame(&mut &bad_version[..], 1024),
            Err(FrameReadError::BadVersion(9))
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 200;
        assert!(matches!(
            read_frame(&mut &bad_kind[..], 1024),
            Err(FrameReadError::UnknownKind(200))
        ));

        let mut oversized = good.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &oversized[..], 1024),
            Err(FrameReadError::Oversized { .. })
        ));

        // Truncated payload: header promises 100 bytes, stream has none.
        let mut truncated = good.clone();
        truncated[4..8].copy_from_slice(&100u32.to_le_bytes());
        match read_frame(&mut &truncated[..], 1024) {
            Err(FrameReadError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_is_caught_by_the_checksum() {
        let mut good = Vec::new();
        write_frame(&mut good, FrameKind::Request, b"{\"asm\":\"nop\"}").unwrap();

        // Flip each payload byte in turn: every single-byte corruption
        // must surface as a checksum mismatch, not a silently-wrong
        // payload. (Corrupting `"` or `{` would also fail JSON parsing
        // downstream, but bytes inside string content would not — the
        // checksum is the only line of defense there.)
        for i in FRAME_HEADER_LEN..good.len() {
            let mut corrupt = good.clone();
            corrupt[i] ^= 0x20;
            match read_frame(&mut &corrupt[..], 1024) {
                Err(FrameReadError::ChecksumMismatch { expected, actual }) => {
                    assert_ne!(expected, actual, "byte {i}")
                }
                other => panic!("byte {i}: expected checksum mismatch, got {other:?}"),
            }
            let mut asm = FrameAssembler::new(1024);
            asm.extend(&corrupt);
            assert!(
                matches!(
                    asm.next_frame(),
                    Err(FrameReadError::ChecksumMismatch { .. })
                ),
                "assembler must also catch the corrupt byte {i}"
            );
        }

        // A corrupted checksum field itself is equally fatal.
        let mut corrupt = good.clone();
        corrupt[8] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &corrupt[..], 1024),
            Err(FrameReadError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_byte_boundary() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"{\"asm\":\"nop\"}").unwrap();
        write_frame(&mut wire, FrameKind::Ping, b"").unwrap();
        for split in 0..=wire.len() {
            let mut asm = FrameAssembler::new(1024);
            asm.extend(&wire[..split]);
            let mut got = Vec::new();
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
            asm.extend(&wire[split..]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(got[0].0, FrameKind::Request);
            assert_eq!(got[0].1, b"{\"asm\":\"nop\"}");
            assert_eq!(got[1].0, FrameKind::Ping);
            assert!(!asm.mid_frame());
        }
    }

    #[test]
    fn assembler_rejects_bad_headers_before_buffering_payloads() {
        let mut good = Vec::new();
        write_frame(&mut good, FrameKind::Ping, b"").unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&bad_magic);
        assert!(matches!(asm.next_frame(), Err(FrameReadError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[2] = 9;
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&bad_version);
        assert!(matches!(
            asm.next_frame(),
            Err(FrameReadError::BadVersion(9))
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 200;
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&bad_kind);
        assert!(matches!(
            asm.next_frame(),
            Err(FrameReadError::UnknownKind(200))
        ));

        // An oversized declaration is rejected from the header alone,
        // before any payload byte arrives.
        let mut oversized = good.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&oversized[..FRAME_HEADER_LEN]);
        assert!(matches!(
            asm.next_frame(),
            Err(FrameReadError::Oversized { max: 1024, .. })
        ));
    }

    #[test]
    fn assembler_eof_errors_match_the_blocking_reader() {
        // Mid-header: same "truncated frame header" the blocking path
        // reports.
        let mut asm = FrameAssembler::new(1024);
        asm.extend(b"DS\x01\x01");
        assert!(asm.mid_frame());
        assert!(asm
            .eof_error()
            .to_string()
            .contains("truncated frame header"));

        // Mid-payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"{}").unwrap();
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&wire[..wire.len() - 1]);
        assert_eq!(asm.next_frame().unwrap(), None);
        assert!(asm.mid_frame());
        assert!(asm
            .eof_error()
            .to_string()
            .contains("truncated frame payload"));
    }

    #[test]
    fn assembler_compacts_its_consumed_prefix() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ping, b"").unwrap();
        let mut asm = FrameAssembler::new(1024);
        for _ in 0..50_000 {
            asm.extend(&wire);
            asm.next_frame().unwrap().unwrap();
        }
        // 50k pings at 8 bytes each would be 400 KB unbounded; the
        // compaction keeps the buffer far below that.
        assert!(asm.buf.capacity() < 2 * ASSEMBLER_COMPACT_THRESHOLD);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn idle_timeout_code_round_trips_and_is_terminal() {
        assert_eq!(ErrorCode::IdleTimeout.as_str(), "idle-timeout");
        assert_eq!(
            ErrorCode::from_wire("idle-timeout"),
            Some(ErrorCode::IdleTimeout)
        );
        assert!(!ErrorCode::IdleTimeout.is_retryable());
    }

    #[test]
    fn oversized_payload_is_a_typed_error_not_a_truncated_header() {
        // The bound itself, without allocating 4 GiB.
        assert_eq!(encode_payload_len(0), Ok(0));
        assert_eq!(encode_payload_len(u32::MAX as usize), Ok(u32::MAX));
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            encode_payload_len(too_big),
            Err(PayloadTooLarge { len: too_big })
        );
        let msg = PayloadTooLarge { len: too_big }.to_string();
        assert!(msg.contains("4294967296"), "{msg}");
    }

    #[test]
    fn out_of_range_jobs_is_a_bad_request() {
        // In range: accepted.
        let v = Json::parse(r#"{"asm":"nop","jobs":8}"#).unwrap();
        assert_eq!(ScheduleRequest::from_json(&v).unwrap().jobs, 8);
        // Above the sanity cap (and anything that would truncate in a
        // u64 → usize cast on 32-bit hosts): typed bad-request.
        for raw in [
            (MAX_REQUEST_JOBS as u64 + 1).to_string(),
            (u32::MAX as u64 + 1).to_string(), // → 1 worker after a 32-bit `as usize`
            i64::MAX.to_string(),
        ] {
            let v = Json::parse(&format!(r#"{{"asm":"nop","jobs":{raw}}}"#)).unwrap();
            let err = ScheduleRequest::from_json(&v).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "jobs={raw}");
            assert!(err.message.contains("jobs"), "{}", err.message);
        }
        // Values beyond i64 don't even parse: the JSON layer rejects
        // them before decode, so no cast is reachable at all.
        assert!(Json::parse(&format!(r#"{{"jobs":{}}}"#, u64::MAX)).is_err());
        // Negative numbers never read as u64, so they take the default.
        let v = Json::parse(r#"{"asm":"nop","jobs":-3}"#).unwrap();
        assert_eq!(ScheduleRequest::from_json(&v).unwrap().jobs, 0);
    }

    #[test]
    fn frame_fuzz_random_headers_never_panic() {
        // Deterministic xorshift over random 8..24-byte prefixes: every
        // outcome must be a typed error or a valid (kind, payload) —
        // never a panic or an allocation beyond the cap.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 8 + (x % 17) as usize;
            let mut bytes = Vec::with_capacity(len);
            let mut y = x;
            for _ in 0..len {
                y = y
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((y >> 56) as u8);
            }
            let _ = read_frame(&mut &bytes[..], 1024);
        }
    }

    #[test]
    fn response_counters_that_overflow_usize_are_rejected() {
        // On 64-bit hosts u64 always fits usize, so only the
        // well-formed path is observable here; the point is the decode
        // goes through `usize::try_from`, which this pins.
        let v = Json::parse(
            r#"{"insns":[],"blocks":[{"block":1,"len":2,"original_makespan":3,"scheduled_makespan":3}],"stats":{}}"#,
        )
        .unwrap();
        let resp = ScheduleResponse::from_json(&v).unwrap();
        assert_eq!(resp.blocks[0].block, 1);
        assert_eq!(resp.blocks[0].len, 2);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
        req.machine = "rs6000".to_string();
        req.scheduler = "gm".to_string();
        req.algo = "bitmap".to_string();
        req.deadline_ms = Some(250);
        req.sim = true;
        req.jobs = 4;
        req.degrade = false;
        req.attempt = 2;
        req.debug_panic = true;
        let back =
            ScheduleRequest::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(req, back);

        let prof = ScheduleRequest::profile("grep", 7);
        let back =
            ScheduleRequest::from_json(&Json::parse(&prof.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(prof, back);
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resp = ScheduleResponse {
            insns: vec!["nop".to_string(), "add %o0, %o1, %o2".to_string()],
            blocks: vec![BlockSummary {
                block: 0,
                len: 2,
                original_makespan: 5,
                scheduled_makespan: 3,
            }],
            stats: PhaseStats {
                blocks: 1,
                nodes: 2,
                cache_hits: 1,
                ..PhaseStats::default()
            },
            cycles: Some((10, 7)),
            degraded: true,
        };
        let back = ScheduleResponse::from_json(&Json::parse(&resp.to_json().to_string()).unwrap())
            .unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn new_wire_fields_have_backward_compatible_defaults() {
        // A pre-chaos peer omits every new field; decode must pick the
        // documented defaults rather than erroring.
        let req = ScheduleRequest::from_json(&Json::parse(r#"{"asm":"nop"}"#).unwrap()).unwrap();
        assert!(req.degrade, "degrade defaults on");
        assert_eq!(req.attempt, 0);
        assert!(!req.debug_panic);
        let resp = ScheduleResponse::from_json(
            &Json::parse(r#"{"insns":[],"blocks":[],"stats":{}}"#).unwrap(),
        )
        .unwrap();
        assert!(!resp.degraded, "degraded defaults off");
        let err = ErrorReply::from_json(&Json::parse(r#"{"code":"busy","message":"m"}"#).unwrap())
            .unwrap();
        assert_eq!(err.retry_after_ms, None);
        // And the retry hint survives a round trip when present.
        let shed = ErrorReply::new(ErrorCode::Busy, "queue full").with_retry_after_ms(25);
        let back =
            ErrorReply::from_json(&Json::parse(&shed.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, shed);
        assert_eq!(back.retry_after_ms, Some(25));
    }

    #[test]
    fn bad_config_names_become_bad_request_errors() {
        let mut req = ScheduleRequest::asm("nop");
        req.scheduler = "does-not-exist".to_string();
        let err = build_driver_config(&req).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("does-not-exist"));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::BadRequest,
            ErrorCode::ParseError,
            ErrorCode::BlockTooLarge,
            ErrorCode::DeadlineExpired,
            ErrorCode::Busy,
            ErrorCode::Draining,
            ErrorCode::Internal,
            ErrorCode::Quarantined,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xDE, 0xAD, 0xBE, 0xEF],
            (0..=255).collect(),
        ] {
            let hex = hex_encode(&bytes);
            assert_eq!(hex_decode(&hex), Some(bytes));
        }
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
    }

    #[test]
    fn admin_commands_round_trip() {
        for cmd in [
            AdminCommand::SnapshotExport,
            AdminCommand::SnapshotInstall {
                shipment: vec![1, 2, 3, 255],
            },
            AdminCommand::AddShard {
                endpoint: "unix:/tmp/shard-3.sock".to_string(),
            },
            AdminCommand::RemoveShard {
                endpoint: "127.0.0.1:7070".to_string(),
            },
            AdminCommand::Status,
        ] {
            let back =
                AdminCommand::from_json(&Json::parse(&cmd.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back, cmd);
        }
        let err = AdminCommand::from_json(&Json::parse(r#"{"cmd":"nope"}"#).unwrap()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn admin_frame_kinds_survive_the_header() {
        for kind in [FrameKind::Admin, FrameKind::AdminReply] {
            let mut buf = Vec::new();
            write_frame(&mut buf, kind, b"{}").unwrap();
            let (back, payload) = read_frame(&mut &buf[..], 1024).unwrap();
            assert_eq!(back, kind);
            assert_eq!(payload, b"{}");
        }
    }

    #[test]
    fn retryability_splits_transient_from_permanent_codes() {
        for code in [ErrorCode::Busy, ErrorCode::Draining, ErrorCode::Internal] {
            assert!(code.is_retryable(), "{code} should be retryable");
        }
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::BadRequest,
            ErrorCode::ParseError,
            ErrorCode::BlockTooLarge,
            ErrorCode::DeadlineExpired,
            ErrorCode::Quarantined,
        ] {
            assert!(!code.is_retryable(), "{code} should not be retryable");
        }
    }
}
