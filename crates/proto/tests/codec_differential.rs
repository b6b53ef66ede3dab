//! The direct codec against the tree codec it replaces on the product
//! paths. Seeded requests and replies are written by both writers and
//! must match byte for byte; then each payload is mutated in the ways a
//! hostile or broken peer could (reordered and duplicated keys, unknown
//! nested fields, swapped types, floats and negatives and out-of-range
//! integers, escaped keys and surrogate pairs, nesting past the depth
//! limit, every truncation of a short payload, trailing garbage, broken
//! UTF-8), and every reader must return exactly what `Json::parse`
//! followed by `from_json` returns — the same value, or the same error
//! code, offset and message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched_core::PhaseStats;
use dagsched_isa::splitmix64;
use dagsched_proto::json::{Json, JsonError};
use dagsched_proto::{
    response_cache_misses, write_response_json, BlockSummary, ErrorCode, ErrorReply,
    ScheduleRequest, ScheduleResponse, MAX_REQUEST_JOBS,
};

/// Counts this thread's allocations, so a test can show a read
/// allocates nothing while other tests run on other threads.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The request path the daemon and the router ran before the direct
/// reader: UTF-8, `Json::parse`, `from_json`, with their error replies.
fn tree_request(payload: &[u8]) -> Result<ScheduleRequest, ErrorReply> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ErrorReply::new(ErrorCode::ParseError, "request payload is not UTF-8"))?;
    let value = Json::parse(text)
        .map_err(|e| ErrorReply::new(ErrorCode::ParseError, format!("request is not JSON: {e}")))?;
    ScheduleRequest::from_json(&value)
}

fn tree_response(text: &str) -> Result<Option<ScheduleResponse>, JsonError> {
    Json::parse(text).map(|v| ScheduleResponse::from_json(&v))
}

/// The router's `response_misses` before the direct read, kept as the
/// reference the direct read must equal.
fn reference_misses(payload: &[u8]) -> Option<u64> {
    let value = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let stats = value.get("stats")?;
    Some(
        stats
            .get("cache_misses")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    )
}

/// Every reader on one payload, against its reference. Returns whether
/// the payload decoded as a request and as a response.
fn agree(payload: &[u8]) -> (bool, bool) {
    let request = ScheduleRequest::decode(payload);
    assert_eq!(
        request,
        tree_request(payload),
        "request reader on {:?}",
        String::from_utf8_lossy(payload)
    );
    let mut response = false;
    if let Ok(text) = std::str::from_utf8(payload) {
        let read = ScheduleResponse::parse(text);
        assert_eq!(read, tree_response(text), "response reader on {text:?}");
        response = matches!(read, Ok(Some(_)));
    }
    assert_eq!(
        response_cache_misses(payload),
        reference_misses(payload),
        "misses read on {:?}",
        String::from_utf8_lossy(payload)
    );
    (request.is_ok(), response)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    /// A string over the classes `json.rs`'s escape test draws from:
    /// the short escapes, the other C0 controls, DEL, two- and
    /// four-byte UTF-8 (a surrogate pair once escaped), plain ASCII.
    fn string(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| {
                let r = self.next();
                let pick = (r >> 8) as usize;
                match r % 8 {
                    0 => ['"', '\\', '\n', '\r', '\t'][pick % 5],
                    1 => char::from((pick % 0x20) as u8),
                    2 => '\u{7f}',
                    3 => 'é',
                    4 => '😀',
                    _ => char::from(b' ' + (pick % 95) as u8),
                }
            })
            .collect()
    }

    /// Mostly small values, sometimes one around or above `i64::MAX`,
    /// where the tree's integer type changes from `Int` to `UInt`.
    fn u64(&mut self) -> u64 {
        match self.below(60) {
            0 => i64::MAX as u64 - 2 + self.next() % 5,
            1 => u64::MAX - self.next() % 3,
            2..=9 => self.next() % (i64::MAX as u64),
            _ => self.next() % 1000,
        }
    }
}

fn gen_request(rng: &mut Rng) -> ScheduleRequest {
    let mut r = if rng.coin() {
        ScheduleRequest::asm(rng.string())
    } else {
        ScheduleRequest::profile(rng.string(), rng.u64())
    };
    if rng.coin() {
        r.machine = rng.string();
    }
    if rng.coin() {
        r.scheduler = rng.string();
    }
    if rng.coin() {
        r.algo = rng.string();
    }
    if rng.coin() {
        r.policy = rng.string();
    }
    r.inherit = rng.coin();
    r.fill_slots = rng.coin();
    r.jobs = match rng.below(4) {
        0 => 0,
        1 => rng.below(MAX_REQUEST_JOBS + 2),
        _ => usize::try_from(rng.u64()).unwrap_or(usize::MAX),
    };
    r.deadline_ms = rng.coin().then(|| rng.u64());
    r.sim = rng.coin();
    r.linger_ms = if rng.coin() { 0 } else { rng.u64() };
    r.degrade = rng.coin();
    r.attempt = if rng.coin() { 0 } else { rng.u64() };
    r.debug_panic = rng.coin();
    r
}

fn gen_response(rng: &mut Rng) -> ScheduleResponse {
    let insns = (0..rng.below(6)).map(|_| rng.string()).collect();
    let blocks = (0..rng.below(4))
        .map(|_| BlockSummary {
            block: usize::try_from(rng.u64()).unwrap_or(usize::MAX),
            len: usize::try_from(rng.u64()).unwrap_or(usize::MAX),
            original_makespan: rng.u64(),
            scheduled_makespan: rng.u64(),
        })
        .collect();
    let stats = PhaseStats {
        blocks: rng.u64(),
        nodes: rng.u64(),
        arcs_added: rng.u64(),
        arcs_suppressed: rng.u64(),
        table_probes: rng.u64(),
        comparisons: rng.u64(),
        construct_ns: rng.u64(),
        heur_ns: rng.u64(),
        sched_ns: rng.u64(),
        cache_hits: rng.u64(),
        cache_misses: rng.u64(),
        degraded_blocks: rng.u64(),
    };
    ScheduleResponse {
        insns,
        blocks,
        stats,
        cycles: rng.coin().then(|| (rng.u64(), rng.u64())),
        degraded: rng.coin(),
    }
}

/// A JSON value that can also hold number text no `Json` can: integers
/// out of `i64` range, exponents, negative zero.
#[derive(Clone)]
enum V {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Raw(&'static str),
    Str(String),
    Arr(Vec<V>),
    Obj(Vec<(String, V)>),
}

impl V {
    fn of(j: &Json) -> V {
        match j {
            Json::Null => V::Null,
            Json::Bool(b) => V::Bool(*b),
            Json::Int(i) => V::Int(*i),
            Json::UInt(u) => V::UInt(*u),
            Json::Float(f) => V::Float(*f),
            Json::Str(s) => V::Str(s.clone()),
            Json::Arr(items) => V::Arr(items.iter().map(V::of).collect()),
            Json::Obj(fields) => {
                V::Obj(fields.iter().map(|(k, v)| (k.clone(), V::of(v))).collect())
            }
        }
    }

    /// A value of a random type, nested at most `depth` levels.
    fn random(rng: &mut Rng, depth: usize) -> V {
        match rng.below(if depth == 0 { 7 } else { 9 }) {
            0 => V::Null,
            1 => V::Bool(rng.coin()),
            2 => V::Int(rng.next() as i64 % 5000),
            3 => V::Float(rng.below(1000) as f64 + 0.5),
            4 => V::Raw(
                [
                    "18446744073709551616",
                    "-0",
                    "1e3",
                    "2.5E-2",
                    "1e999",
                    "-9223372036854775809",
                ][rng.below(6)],
            ),
            5 | 6 => V::Str(rng.string()),
            7 => V::Arr(
                (0..rng.below(4))
                    .map(|_| V::random(rng, depth - 1))
                    .collect(),
            ),
            _ => V::Obj(
                (0..rng.below(4))
                    .map(|_| (rng.string(), V::random(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `levels` arrays or objects nested inside each other.
    fn nested(rng: &mut Rng, levels: usize) -> V {
        (0..levels).fold(V::Int(1), |inner, _| {
            if rng.coin() {
                V::Arr(vec![inner])
            } else {
                V::Obj(vec![("k".to_string(), inner)])
            }
        })
    }
}

/// Render `v`, with random whitespace between tokens when `ws`, and
/// with characters written as `\uXXXX` (surrogate pairs beyond the
/// BMP) or `\/` at random when `escapes`.
fn render(v: &V, rng: &mut Rng, ws: bool, escapes: bool, out: &mut String) {
    let pad = |rng: &mut Rng, out: &mut String| {
        if ws {
            for _ in 0..rng.below(3) {
                out.push([' ', '\n', '\t', '\r'][rng.below(4)]);
            }
        }
    };
    let string = |s: &str, rng: &mut Rng, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            if escapes && rng.below(4) == 0 {
                if c == '/' {
                    out.push_str("\\/");
                    continue;
                }
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
                continue;
            }
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    };
    pad(rng, out);
    match v {
        V::Null => out.push_str("null"),
        V::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        V::Int(i) => out.push_str(&i.to_string()),
        V::UInt(u) => out.push_str(&u.to_string()),
        V::Float(f) => out.push_str(&f.to_string()),
        V::Raw(text) => out.push_str(text),
        V::Str(s) => string(s, rng, out),
        V::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, ws, escapes, out);
            }
            pad(rng, out);
            out.push(']');
        }
        V::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(rng, out);
                string(k, rng, out);
                pad(rng, out);
                out.push(':');
                render(v, rng, ws, escapes, out);
            }
            pad(rng, out);
            out.push('}');
        }
    }
    pad(rng, out);
}

/// One structural mutation of the top-level object's fields.
fn mutate(fields: &mut Vec<(String, V)>, rng: &mut Rng) {
    let pick = |rng: &mut Rng, fields: &Vec<(String, V)>| rng.below(fields.len().max(1));
    match rng.below(7) {
        // Reorder.
        0 => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i + 1));
            }
        }
        // An unknown field holding a nested value.
        1 => {
            let at = rng.below(fields.len() + 1);
            let value = V::random(rng, 3);
            fields.insert(at, (format!("x_{}", rng.string()), value));
        }
        // A duplicate key with a conflicting value, before or after.
        2 if !fields.is_empty() => {
            let i = pick(rng, fields);
            let key = fields[i].0.clone();
            let at = if rng.coin() { i } else { i + 1 };
            let value = V::random(rng, 2);
            fields.insert(at, (key, value));
        }
        // A value of another type.
        3 if !fields.is_empty() => {
            let i = pick(rng, fields);
            fields[i].1 = V::random(rng, 2);
        }
        // An integer as a float, a negative, or out of range.
        4 => {
            let ints: Vec<usize> = (0..fields.len())
                .filter(|&i| matches!(fields[i].1, V::Int(_) | V::UInt(_) | V::Float(_)))
                .collect();
            if let Some(&i) = ints.get(rng.below(ints.len().max(1))) {
                fields[i].1 = match rng.below(4) {
                    0 => V::Float(rng.below(100) as f64 + 0.25),
                    1 => V::Int(-(rng.below(100) as i64) - 1),
                    2 => V::Raw("18446744073709551616"),
                    _ => V::Raw("1.0"),
                };
            }
        }
        // Nesting around the depth limit inside an unknown field: 65
        // levels there puts the innermost value at depth 66.
        5 => {
            let levels = 62 + rng.below(5);
            let value = V::nested(rng, levels);
            fields.insert(rng.below(fields.len() + 1), ("deep".to_string(), value));
        }
        // Drop a field.
        _ if !fields.is_empty() => {
            let i = pick(rng, fields);
            fields.remove(i);
        }
        _ => {}
    }
}

/// Byte-level damage: trailing garbage, broken UTF-8, an overwritten
/// byte.
fn damage(payload: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = payload.to_vec();
    match rng.below(4) {
        0 => {
            let tail: &[u8] =
                [b"x".as_slice(), b" \n", b"}", b",1", b"\xff", b"null"][rng.below(6)];
            out.extend_from_slice(tail);
        }
        1 => {
            let at = rng.below(out.len() + 1);
            let bad: &[u8] = [b"\xff".as_slice(), b"\x80", b"\xc3", b"\xf0\x9f\x98"][rng.below(4)];
            out.splice(at..at, bad.iter().copied());
        }
        2 if !out.is_empty() => {
            // Cut inside a multi-byte character, if there is one.
            if let Some(at) = out.iter().position(|&b| b >= 0xC0) {
                out.truncate(at + 1);
            }
        }
        _ if !out.is_empty() => {
            let at = rng.below(out.len());
            out[at] = rng.next() as u8;
        }
        _ => {}
    }
    out
}

/// Mutated renderings of one payload tree, checked against every
/// reference. Returns how many decoded as a request and as a response.
fn check_mutations(tree: &Json, rng: &mut Rng) -> (usize, usize) {
    let mut decoded = (0, 0);
    let mut tally = |(request, response): (bool, bool)| {
        decoded.0 += usize::from(request);
        decoded.1 += usize::from(response);
    };
    let V::Obj(base) = V::of(tree) else {
        panic!("payloads are objects")
    };
    for _ in 0..12 {
        let mut fields = base.clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut fields, rng);
        }
        let mut text = String::new();
        let (ws, escapes) = (rng.coin(), rng.coin());
        render(&V::Obj(fields), rng, ws, escapes, &mut text);
        tally(agree(text.as_bytes()));
        tally(agree(&damage(text.as_bytes(), rng)));
    }
    // The tree itself, re-rendered, and a top-level value that is not
    // an object.
    let mut text = String::new();
    render(&V::of(tree), rng, true, true, &mut text);
    tally(agree(text.as_bytes()));
    let mut text = String::new();
    render(&V::random(rng, 3), rng, true, false, &mut text);
    tally(agree(text.as_bytes()));
    decoded
}

#[test]
fn writers_emit_the_tree_bytes() {
    let mut rng = Rng(0xC0DE_C0DE);
    for _ in 0..2000 {
        let req = gen_request(&mut rng);
        let mut direct = String::new();
        req.write_json(req.attempt, &mut direct);
        assert_eq!(direct, req.to_json().to_string(), "{req:?}");
        let zeroed = ScheduleRequest {
            attempt: 0,
            ..req.clone()
        };
        assert_eq!(req.canonical_json(), zeroed.to_json().to_string());

        let resp = gen_response(&mut rng);
        let tree = resp.to_json().to_string();
        let mut direct = String::new();
        resp.write_json(&mut direct);
        assert_eq!(direct, tree, "{resp:?}");
        // The generic writer over any `Display` items: here chars
        // rendered one per element.
        let chars: Vec<char> = rng.string().chars().collect();
        let as_strings = ScheduleResponse {
            insns: chars.iter().map(char::to_string).collect(),
            ..resp.clone()
        };
        let mut direct = String::new();
        write_response_json(
            &mut direct,
            &chars,
            resp.blocks.iter().cloned(),
            &resp.stats,
            resp.cycles,
            resp.degraded,
        );
        assert_eq!(direct, as_strings.to_json().to_string());
    }
}

/// Every generated request whose `jobs` is in range, large `u64`
/// values included, decodes back to itself through both readers.
#[test]
fn requests_round_trip_through_both_readers() {
    let mut rng = Rng(0x0B16_u64);
    let mut large = 0;
    for _ in 0..2000 {
        let mut req = gen_request(&mut rng);
        req.jobs %= MAX_REQUEST_JOBS + 1;
        let mut wire = String::new();
        req.write_json(req.attempt, &mut wire);
        assert_eq!(
            ScheduleRequest::decode(wire.as_bytes()),
            Ok(req.clone()),
            "{wire}"
        );
        assert_eq!(tree_request(wire.as_bytes()), Ok(req.clone()), "{wire}");
        let values = [req.deadline_ms.unwrap_or(0), req.linger_ms, req.attempt];
        large += usize::from(values.iter().any(|&v| v > i64::MAX as u64));
    }
    assert!(
        large > 20,
        "only {large} requests carried a value above i64::MAX"
    );
}

#[test]
fn readers_agree_with_the_tree_on_hostile_payloads() {
    let mut rng = Rng(0x0DD_BA11);
    let (mut requests, mut responses, mut payloads) = (0, 0, 0);
    for _ in 0..300 {
        let req = gen_request(&mut rng);
        agree(req.to_json().to_string().as_bytes());
        requests += check_mutations(&req.to_json(), &mut rng).0;

        let resp = gen_response(&mut rng);
        agree(resp.to_json().to_string().as_bytes());
        responses += check_mutations(&resp.to_json(), &mut rng).1;
        payloads += 26;
    }
    // The mutations leave enough payloads decodable that the semantic
    // half of each reader is exercised, not only its error paths.
    assert!(requests > payloads / 10, "{requests} of {payloads}");
    assert!(responses > payloads / 10, "{responses} of {payloads}");
}

#[test]
fn readers_agree_on_every_truncation_of_short_payloads() {
    let mut req = ScheduleRequest::asm("ld [%o0+4], %o1\né😀\"\\");
    req.deadline_ms = Some(250);
    req.attempt = 2;
    let resp = ScheduleResponse {
        insns: vec!["nop".to_string(), "a\"😀".to_string()],
        blocks: vec![BlockSummary {
            block: 0,
            len: 2,
            original_makespan: 5,
            scheduled_makespan: 3,
        }],
        stats: PhaseStats {
            cache_misses: 4,
            ..PhaseStats::default()
        },
        cycles: Some((10, 7)),
        degraded: true,
    };
    for payload in [
        req.to_json().to_string(),
        resp.to_json().to_string(),
        r#"{"stats":{"cache_misses":3},"stats":{"cache_misses":9}}"#.to_string(),
    ] {
        let bytes = payload.as_bytes();
        for cut in 0..=bytes.len() {
            agree(&bytes[..cut]);
        }
    }
}

#[test]
fn hand_written_edge_cases_agree() {
    for payload in [
        "",
        " ",
        "null",
        "[]",
        "{}",
        r#"{"asm":"nop"} x"#,
        r#"{"asm":1,"asm":"nop","profile":"grep"}"#,
        r#"{"profile":"grep","seed":-1}"#,
        r#"{"profile":"grep","seed":7.0}"#,
        r#"{"asm":"nop","jobs":65537}"#,
        r#"{"asm":"nop","jobs":18446744073709551616}"#,
        r#"{"asm":"nop","jobs":1e2}"#,
        r#"{"asm":"nop","degrade":false}"#,
        r#"{"asm":"😀","machine":"\ud83d"}"#,
        r#"{"asm":"nop","x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}"#,
        r#"{"insns":[],"blocks":[],"stats":{}}"#,
        r#"{"insns":[1],"blocks":[],"stats":{}}"#,
        r#"{"insns":[],"blocks":[{"block":0,"len":1,"original_makespan":1}],"stats":{}}"#,
        r#"{"insns":[],"blocks":[],"stats":[]}"#,
        r#"{"insns":[],"blocks":[],"stats":{},"cycles":{"before":1}}"#,
        r#"{"insns":[],"blocks":[],"stats":{},"cycles":[1,2]}"#,
        r#"{"insns":[],"blocks":[],"stats":{"cache_misses":-1}}"#,
        r#"{"insns":[],"blocks":[],"stats":{"cache_misses":2.5}}"#,
        r#"{"insns":[],"blocks":[],"stats":null,"degraded":1}"#,
        r#"{"stats":{"cache_misses":1,"cache_misses":2}}"#,
    ] {
        agree(payload.as_bytes());
    }
}

#[test]
fn the_misses_read_allocates_nothing_on_a_well_formed_reply() {
    let mut rng = Rng(0xA110C);
    for _ in 0..200 {
        let resp = gen_response(&mut rng);
        let payload = resp.to_json().to_string();
        let before = ALLOCATIONS.with(Cell::get);
        let misses = response_cache_misses(payload.as_bytes());
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!(after, before, "{payload}");
        assert_eq!(misses, Some(resp.stats.cache_misses));
        // The full reader round-trips it.
        assert_eq!(ScheduleResponse::parse(&payload), Ok(Some(resp)));
    }
}
