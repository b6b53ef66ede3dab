//! The direct codec for `Request` and `Response` payloads.
//!
//! Every product path — the daemon's reactor screen and compile
//! workers, [`crate::ScheduleRequest`]'s client, and the router — reads
//! and writes these two payloads here, without building a
//! [`Json`](crate::json::Json) tree. The writers emit exactly the bytes
//! the tree writers (`to_json().to_string()`) emit, and the readers
//! return exactly what [`Json::parse`](crate::json::Json::parse)
//! followed by `from_json` returns, errors included: both sides run on
//! the one tokenizer and the one escaper in [`crate::json`], and the
//! tree methods stay as the reference the differential tests compare
//! against.
//!
//! What the readers agree with the tree on, by construction:
//!
//! * syntax errors: the whole payload is parsed (unknown fields and
//!   wrong-typed values are validated by `skip_value`) before any
//!   semantic check, so the first syntax error wins, at the same offset
//!   with the same message;
//! * duplicate keys: the first occurrence wins, as with
//!   [`Json::get`](crate::json::Json::get);
//! * types: a value of the wrong type reads as absent, and so does a
//!   float or a negative number where an unsigned integer is expected.

use std::fmt;

use dagsched_core::PhaseStats;

use crate::json::{write_escaped_display, JsonError, ObjectWriter, Parser};
use crate::{
    BlockSummary, ErrorCode, ErrorReply, RequestInput, ScheduleRequest, ScheduleResponse,
    MAX_REQUEST_JOBS,
};

/// The wire keys of [`PhaseStats`], in the order `stats_to_json`
/// writes them.
const STATS_KEYS: [&str; 12] = [
    "blocks",
    "nodes",
    "arcs_added",
    "arcs_suppressed",
    "table_probes",
    "comparisons",
    "construct_ns",
    "heur_ns",
    "sched_ns",
    "cache_hits",
    "cache_misses",
    "degraded_blocks",
];

fn stats_values(s: &PhaseStats) -> [u64; 12] {
    [
        s.blocks,
        s.nodes,
        s.arcs_added,
        s.arcs_suppressed,
        s.table_probes,
        s.comparisons,
        s.construct_ns,
        s.heur_ns,
        s.sched_ns,
        s.cache_hits,
        s.cache_misses,
        s.degraded_blocks,
    ]
}

fn stats_from_values(v: [u64; 12]) -> PhaseStats {
    let [blocks, nodes, arcs_added, arcs_suppressed, table_probes, comparisons, construct_ns, heur_ns, sched_ns, cache_hits, cache_misses, degraded_blocks] =
        v;
    PhaseStats {
        blocks,
        nodes,
        arcs_added,
        arcs_suppressed,
        table_probes,
        comparisons,
        construct_ns,
        heur_ns,
        sched_ns,
        cache_hits,
        cache_misses,
        degraded_blocks,
    }
}

/// Mark field `bit` as seen; `true` only the first time, so the first
/// occurrence of a key wins.
fn first(seen: &mut u32, bit: u32) -> bool {
    let fresh = *seen & (1 << bit) == 0;
    *seen |= 1 << bit;
    fresh
}

/// A string value, or `None` after validating a value of another type.
fn opt_string(p: &mut Parser<'_>, depth: usize) -> Result<Option<String>, JsonError> {
    let mut s = String::new();
    Ok(p.str_or_skip(depth, &mut s)?.then_some(s))
}

/// The `BadRequest` for a request with neither input field.
pub(crate) fn missing_input() -> ErrorReply {
    ErrorReply::new(
        ErrorCode::BadRequest,
        "request needs an `asm` or `profile` field",
    )
}

/// `jobs` crosses a u64 → usize boundary: a hostile peer can send any
/// 64-bit value, and `as usize` would silently truncate it on a 32-bit
/// host (e.g. 2^32 + 1 → 1 worker). Anything that does not fit, or that
/// exceeds the sanity cap, is a typed bad-request instead of a guess.
pub(crate) fn checked_jobs(raw: Option<u64>) -> Result<usize, ErrorReply> {
    match raw {
        None => Ok(0),
        Some(raw) => match usize::try_from(raw) {
            Ok(n) if n <= MAX_REQUEST_JOBS => Ok(n),
            _ => Err(ErrorReply::new(
                ErrorCode::BadRequest,
                format!("`jobs` value {raw} is out of range (max {MAX_REQUEST_JOBS})"),
            )),
        },
    }
}

/// Every request field `from_json` reads, as the first occurrence of
/// its key held it (`None`: absent or of another type).
#[derive(Default)]
struct RequestFields {
    asm: Option<String>,
    profile: Option<String>,
    seed: Option<u64>,
    machine: Option<String>,
    scheduler: Option<String>,
    algo: Option<String>,
    policy: Option<String>,
    inherit: Option<bool>,
    fill_slots: Option<bool>,
    jobs: Option<u64>,
    deadline_ms: Option<u64>,
    sim: Option<bool>,
    linger_ms: Option<u64>,
    degrade: Option<bool>,
    attempt: Option<u64>,
    debug_panic: Option<bool>,
}

impl RequestFields {
    fn read(text: &str) -> Result<RequestFields, JsonError> {
        let mut f = RequestFields::default();
        let mut seen = 0u32;
        let mut p = Parser::new(text);
        p.skip_ws();
        p.fields_or_skip(0, |p, key, d| {
            match key.as_str() {
                "asm" if first(&mut seen, 0) => {
                    // The text is most of a request: room for the rest
                    // of the payload decodes it without regrowing, and
                    // a payload with little text before a lot of other
                    // bytes gives the room back.
                    let mut s = String::with_capacity(p.remaining());
                    if p.str_or_skip(d, &mut s)? {
                        if s.capacity() > 2 * s.len() + 4096 {
                            s.shrink_to_fit();
                        }
                        f.asm = Some(s);
                    }
                }
                "profile" if first(&mut seen, 1) => f.profile = opt_string(p, d)?,
                "seed" if first(&mut seen, 2) => f.seed = p.u64_or_skip(d)?,
                "machine" if first(&mut seen, 3) => f.machine = opt_string(p, d)?,
                "scheduler" if first(&mut seen, 4) => f.scheduler = opt_string(p, d)?,
                "algo" if first(&mut seen, 5) => f.algo = opt_string(p, d)?,
                "policy" if first(&mut seen, 6) => f.policy = opt_string(p, d)?,
                "inherit" if first(&mut seen, 7) => f.inherit = p.bool_or_skip(d)?,
                "fill_slots" if first(&mut seen, 8) => f.fill_slots = p.bool_or_skip(d)?,
                "jobs" if first(&mut seen, 9) => f.jobs = p.u64_or_skip(d)?,
                "deadline_ms" if first(&mut seen, 10) => f.deadline_ms = p.u64_or_skip(d)?,
                "sim" if first(&mut seen, 11) => f.sim = p.bool_or_skip(d)?,
                "linger_ms" if first(&mut seen, 12) => f.linger_ms = p.u64_or_skip(d)?,
                "degrade" if first(&mut seen, 13) => f.degrade = p.bool_or_skip(d)?,
                "attempt" if first(&mut seen, 14) => f.attempt = p.u64_or_skip(d)?,
                "debug_panic" if first(&mut seen, 15) => f.debug_panic = p.bool_or_skip(d)?,
                _ => p.skip_value(d)?,
            }
            Ok(())
        })?;
        p.finish()?;
        Ok(f)
    }

    /// The semantic half of `from_json`, in its order.
    fn into_request(self) -> Result<ScheduleRequest, ErrorReply> {
        let input = match (self.asm, self.profile) {
            (Some(asm), _) => RequestInput::Asm(asm),
            (None, Some(name)) => RequestInput::Profile {
                name,
                seed: self.seed.unwrap_or(1991),
            },
            (None, None) => return Err(missing_input()),
        };
        Ok(ScheduleRequest {
            input,
            machine: self.machine.unwrap_or_else(|| "sparc2".to_string()),
            scheduler: self.scheduler.unwrap_or_else(|| "warren".to_string()),
            algo: self.algo.unwrap_or_default(),
            policy: self.policy.unwrap_or_default(),
            inherit: self.inherit.unwrap_or(false),
            fill_slots: self.fill_slots.unwrap_or(false),
            jobs: checked_jobs(self.jobs)?,
            deadline_ms: self.deadline_ms,
            sim: self.sim.unwrap_or(false),
            linger_ms: self.linger_ms.unwrap_or(0),
            degrade: self.degrade.unwrap_or(true),
            attempt: self.attempt.unwrap_or(0),
            debug_panic: self.debug_panic.unwrap_or(false),
        })
    }
}

impl ScheduleRequest {
    /// Write the wire payload with `attempt` stamped in: the bytes of
    /// `to_json().to_string()` for a request carrying that attempt.
    pub fn write_json(&self, attempt: u64, out: &mut String) {
        out.reserve(self.wire_len_hint());
        let mut o = ObjectWriter::open(out);
        match &self.input {
            RequestInput::Asm(text) => o.str("asm", text),
            RequestInput::Profile { name, seed } => {
                o.str("profile", name);
                o.u64("seed", *seed);
            }
        }
        o.str("machine", &self.machine);
        o.str("scheduler", &self.scheduler);
        if !self.algo.is_empty() {
            o.str("algo", &self.algo);
        }
        if !self.policy.is_empty() {
            o.str("policy", &self.policy);
        }
        o.bool("inherit", self.inherit);
        o.bool("fill_slots", self.fill_slots);
        o.u64("jobs", self.jobs as u64);
        if let Some(ms) = self.deadline_ms {
            o.u64("deadline_ms", ms);
        }
        o.bool("sim", self.sim);
        if self.linger_ms > 0 {
            o.u64("linger_ms", self.linger_ms);
        }
        if !self.degrade {
            o.bool("degrade", false);
        }
        if attempt > 0 {
            o.u64("attempt", attempt);
        }
        if self.debug_panic {
            o.bool("debug_panic", true);
        }
        o.close();
    }

    /// Room for the wire payload: the input text, its escapes, and the
    /// fixed fields.
    fn wire_len_hint(&self) -> usize {
        let text = match &self.input {
            RequestInput::Asm(text) => text.len(),
            RequestInput::Profile { name, .. } => name.len(),
        };
        text + text / 8 + 192
    }

    /// Decode a `Request` frame's payload in one pass: what
    /// `from_json(&Json::parse(text)?)` returns, with the daemon's and
    /// the router's error replies — `parse-error` for a payload that is
    /// not UTF-8 or not JSON (the [`JsonError`] offset and message as
    /// [`Json::parse`](crate::json::Json::parse) reports them), then
    /// `bad-request` for a missing input or an out-of-range `jobs`.
    pub fn decode(payload: &[u8]) -> Result<ScheduleRequest, ErrorReply> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "request payload is not UTF-8"))?;
        RequestFields::read(text)
            .map_err(|e| {
                ErrorReply::new(ErrorCode::ParseError, format!("request is not JSON: {e}"))
            })?
            .into_request()
    }
}

/// Write a `Response` payload straight from its parts: the bytes of
/// `ScheduleResponse::to_json().to_string()` for a response holding
/// each item's `Display` rendering in `insns`. The daemon passes the
/// emitted `Instruction`s; [`ScheduleResponse::write_json`] passes its
/// strings.
pub fn write_response_json<I: fmt::Display>(
    out: &mut String,
    insns: &[I],
    blocks: impl IntoIterator<Item = BlockSummary>,
    stats: &PhaseStats,
    cycles: Option<(u64, u64)>,
    degraded: bool,
) {
    let mut o = ObjectWriter::open(out);
    let w = o.key("insns");
    w.push('[');
    for (i, insn) in insns.iter().enumerate() {
        if i > 0 {
            w.push(',');
        }
        let _ = write_escaped_display(w, insn);
    }
    w.push(']');
    let w = o.key("blocks");
    w.push('[');
    for (i, b) in blocks.into_iter().enumerate() {
        if i > 0 {
            w.push(',');
        }
        let mut block = ObjectWriter::open(w);
        block.u64("block", b.block as u64);
        block.u64("len", b.len as u64);
        block.u64("original_makespan", b.original_makespan);
        block.u64("scheduled_makespan", b.scheduled_makespan);
        block.close();
    }
    w.push(']');
    let mut s = ObjectWriter::open(o.key("stats"));
    for (key, value) in STATS_KEYS.iter().zip(stats_values(stats)) {
        s.u64(key, value);
    }
    s.close();
    o.bool("degraded", degraded);
    if let Some((before, after)) = cycles {
        let mut c = ObjectWriter::open(o.key("cycles"));
        c.u64("before", before);
        c.u64("after", after);
        c.close();
    }
    o.close();
}

/// One `blocks` element, or `None` where `from_json` refuses it.
fn read_block(p: &mut Parser<'_>, depth: usize) -> Result<Option<BlockSummary>, JsonError> {
    let mut v = [None; 4];
    let mut seen = 0u32;
    p.fields_or_skip(depth, |p, key, d| {
        let i = match key.as_str() {
            "block" => 0,
            "len" => 1,
            "original_makespan" => 2,
            "scheduled_makespan" => 3,
            _ => return p.skip_value(d),
        };
        if !first(&mut seen, i) {
            return p.skip_value(d);
        }
        v[i as usize] = p.u64_or_skip(d)?;
        Ok(())
    })?;
    let [Some(block), Some(len), Some(original_makespan), Some(scheduled_makespan)] = v else {
        return Ok(None);
    };
    // Checked u64 → usize, as in `from_json`.
    Ok(usize::try_from(block)
        .ok()
        .zip(usize::try_from(len).ok())
        .map(|(block, len)| BlockSummary {
            block,
            len,
            original_makespan,
            scheduled_makespan,
        }))
}

/// An array whose every element `item` accepts, else `None` (the
/// remaining elements are still validated).
fn read_all<T>(
    p: &mut Parser<'_>,
    depth: usize,
    mut item: impl FnMut(&mut Parser<'_>, usize) -> Result<Option<T>, JsonError>,
) -> Result<Option<Vec<T>>, JsonError> {
    let mut out = Vec::new();
    let mut valid = true;
    let is_array = p.items_or_skip(depth, |p, d| {
        if !valid {
            return p.skip_value(d);
        }
        match item(p, d)? {
            Some(v) => out.push(v),
            None => valid = false,
        }
        Ok(())
    })?;
    Ok((is_array && valid).then_some(out))
}

/// The `stats` value as `stats_from_json` reads it: missing or
/// malformed counters are zero, and so is every counter of a value
/// that is not an object.
fn read_stats(p: &mut Parser<'_>, depth: usize) -> Result<PhaseStats, JsonError> {
    let mut v = [0u64; 12];
    let mut seen = 0u32;
    p.fields_or_skip(depth, |p, key, d| {
        match STATS_KEYS.iter().position(|k| *k == key.as_str()) {
            Some(i) if first(&mut seen, i as u32) => {
                v[i] = p.u64_or_skip(d)?.unwrap_or(0);
                Ok(())
            }
            _ => p.skip_value(d),
        }
    })?;
    Ok(stats_from_values(v))
}

/// The `cycles` value: `Some` only for an object holding both counts.
fn read_cycles(p: &mut Parser<'_>, depth: usize) -> Result<Option<(u64, u64)>, JsonError> {
    let (mut before, mut after) = (None, None);
    let mut seen = 0u32;
    p.fields_or_skip(depth, |p, key, d| {
        match key.as_str() {
            "before" if first(&mut seen, 0) => before = p.u64_or_skip(d)?,
            "after" if first(&mut seen, 1) => after = p.u64_or_skip(d)?,
            _ => p.skip_value(d)?,
        }
        Ok(())
    })?;
    Ok(before.zip(after))
}

impl ScheduleResponse {
    /// Write the wire payload: the bytes of `to_json().to_string()`.
    pub fn write_json(&self, out: &mut String) {
        write_response_json(
            out,
            &self.insns,
            self.blocks.iter().cloned(),
            &self.stats,
            self.cycles,
            self.degraded,
        );
    }

    /// Read a `Response` payload in one pass: `Err` exactly where
    /// [`Json::parse`](crate::json::Json::parse) fails, else exactly
    /// what `from_json` returns on the parsed value (`None` for a
    /// response it refuses).
    pub fn parse(text: &str) -> Result<Option<ScheduleResponse>, JsonError> {
        let (mut insns, mut blocks, mut stats, mut cycles, mut degraded) =
            (None, None, None, None, None);
        let mut seen = 0u32;
        let mut p = Parser::new(text);
        p.skip_ws();
        p.fields_or_skip(0, |p, key, d| {
            match key.as_str() {
                "insns" if first(&mut seen, 0) => insns = read_all(p, d, opt_string)?,
                "blocks" if first(&mut seen, 1) => blocks = read_all(p, d, read_block)?,
                "stats" if first(&mut seen, 2) => stats = Some(read_stats(p, d)?),
                "cycles" if first(&mut seen, 3) => cycles = read_cycles(p, d)?,
                "degraded" if first(&mut seen, 4) => degraded = p.bool_or_skip(d)?,
                _ => p.skip_value(d)?,
            }
            Ok(())
        })?;
        p.finish()?;
        let (Some(insns), Some(blocks), Some(stats)) = (insns, blocks, stats) else {
            return Ok(None);
        };
        Ok(Some(ScheduleResponse {
            insns,
            blocks,
            stats,
            cycles,
            degraded: degraded.unwrap_or(false),
        }))
    }
}

/// `stats.cache_misses` of a `Response` payload, as the router reads it
/// for its replication rule: `None` when the payload is not UTF-8, not
/// JSON, or not an object with a `stats` field; zero when `stats` is
/// not an object or holds no unsigned `cache_misses`. Allocates nothing
/// unless the payload is malformed.
pub fn response_cache_misses(payload: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut stats = None;
    let mut p = Parser::new(text);
    p.skip_ws();
    p.fields_or_skip(0, |p, key, d| {
        if key.as_str() != "stats" || stats.is_some() {
            return p.skip_value(d);
        }
        let mut misses = None;
        p.fields_or_skip(d, |p, key, d| {
            if key.as_str() != "cache_misses" || misses.is_some() {
                return p.skip_value(d);
            }
            misses = Some(p.u64_or_skip(d)?);
            Ok(())
        })?;
        stats = Some(misses.flatten().unwrap_or(0));
        Ok(())
    })
    .ok()?;
    p.finish().ok()?;
    stats
}
