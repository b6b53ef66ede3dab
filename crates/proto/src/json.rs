//! A minimal JSON value, parser and writer.
//!
//! The workspace is dependency-free by policy (the container is
//! offline), so the wire payloads are carried by this module instead of
//! serde. It supports exactly what the protocol needs:
//!
//! * the full JSON value grammar (objects keep insertion order),
//! * a recursive-descent parser with a nesting-depth limit so a hostile
//!   payload of ten thousand `[` cannot blow the worker's stack,
//! * `\uXXXX` escapes (surrogate pairs included) both ways,
//! * typed accessors that return `Option` — malformed requests surface
//!   as protocol errors, never as panics.
//!
//! Two codecs share this file's one tokenizer (`Parser`) and one
//! escaper. The [`Json`] tree carries admin, metrics and error frames,
//! whose shapes are open or rare. `Request` and `Response` payloads
//! are read and written by the direct codec in the crate root, which
//! builds no tree: it walks objects and arrays with the same
//! `items`/`fields` walkers the tree parser uses, skips what it does
//! not need with `skip_value`, and writes through `ObjectWriter`. On
//! those payloads the tree remains as the reference the differential
//! tests compare the direct codec against, and for perfbench's
//! in-process replay.

use std::fmt::{self, Write as _};

use dagsched_isa::Decimal;

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent.
    Int(i64),
    /// An integer above `i64::MAX` (a `u64` counter or seed); every
    /// smaller integer is an [`Json::Int`].
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse `text` as a single JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value(0)?;
        p.finish()?;
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as unsigned, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        match i64::try_from(v) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::UInt(v),
        }
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Where [`Parser::string_into`] puts a decoded string: the tree's
/// `String`, a fixed-size key buffer, or nowhere.
trait Sink {
    /// Append a run of decoded text.
    fn push_str(&mut self, s: &str);
    /// Append one decoded character.
    fn push(&mut self, c: char);
    /// Forget everything appended so far.
    fn clear(&mut self);
}

impl Sink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
    fn push(&mut self, c: char) {
        String::push(self, c);
    }
    fn clear(&mut self) {
        String::clear(self);
    }
}

/// A sink that validates and keeps nothing (see [`Parser::skip_value`]).
struct Discard;

impl Sink for Discard {
    fn push_str(&mut self, _: &str) {}
    fn push(&mut self, _: char) {}
    fn clear(&mut self) {}
}

/// An object key decoded on the stack: the typed readers compare keys
/// against their field names without allocating. A key longer than the
/// buffer matches no field name.
#[derive(Default)]
pub(crate) struct KeyBuf {
    bytes: [u8; 32],
    len: usize,
    overflow: bool,
}

impl KeyBuf {
    /// The decoded key, `""` when it did not fit (no field name is that
    /// long, and none is empty).
    pub(crate) fn as_str(&self) -> &str {
        if self.overflow {
            return "";
        }
        // Only whole `&str`s and whole chars are ever appended.
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or("")
    }
}

impl Sink for KeyBuf {
    fn push_str(&mut self, s: &str) {
        match self.bytes.get_mut(self.len..self.len + s.len()) {
            Some(slot) if !self.overflow => {
                slot.copy_from_slice(s.as_bytes());
                self.len += s.len();
            }
            _ => self.overflow = true,
        }
    }
    fn push(&mut self, c: char) {
        self.push_str(c.encode_utf8(&mut [0; 4]));
    }
    fn clear(&mut self) {
        self.len = 0;
        self.overflow = false;
    }
}

/// The tokenizer behind [`Json::parse`] and the typed payload readers
/// in the crate root. The walkers ([`Parser::items`],
/// [`Parser::fields`]) own the punctuation, so a reader that builds
/// nothing fails on exactly the byte, with exactly the message, that
/// the tree parser fails on.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: msg.to_string(),
        }
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After the top-level value: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => {
                let mut s = String::new();
                self.string_into(&mut s)?;
                Ok(Json::Str(s))
            }
            Some(b'[') => {
                let mut out = Vec::new();
                self.items(depth, |p, depth| {
                    out.push(p.value(depth)?);
                    Ok(())
                })?;
                Ok(Json::Arr(out))
            }
            Some(b'{') => {
                let mut out = Vec::new();
                self.fields(depth, &mut String::new(), |p, key, depth| {
                    let value = p.value(depth)?;
                    out.push((std::mem::take(key), value));
                    Ok(())
                })?;
                Ok(Json::Obj(out))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Validate one value at `depth` exactly as [`Json::parse`] would,
    /// building nothing.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string_into(&mut Discard),
            Some(b'[') => self.items(depth, |p, depth| p.skip_value(depth)),
            Some(b'{') => self.fields(depth, &mut Discard, |p, _, depth| p.skip_value(depth)),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walk the array at `depth`, calling `item` on each element with
    /// the parser at its first byte and the element's depth.
    fn items(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self, depth + 1)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Walk the object at `depth`, decoding each key into `key` and
    /// calling `field` with the parser at the first byte of the value
    /// and the value's depth.
    fn fields<K: Sink>(
        &mut self,
        depth: usize,
        key: &mut K,
        mut field: impl FnMut(&mut Self, &mut K, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            key.clear();
            self.string_into(key)?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key, depth + 1)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Decode one string literal, appending its text to `out`.
    fn string_into<S: Sink>(&mut self, out: &mut S) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            // Copy the run of characters that need no decoding in one
            // go. It ends at an ASCII byte, so both ends are character
            // boundaries of the (already valid UTF-8) input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a \uXXXX low half must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            // Above `i64::MAX` only a `u64` is in range.
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }

    /// Read the value at `depth` if it is a string (into `out`, which
    /// must be empty), else validate and skip it. Returns whether a
    /// string was read: [`Json::as_str`] over a parsed value.
    pub(crate) fn str_or_skip(
        &mut self,
        depth: usize,
        out: &mut String,
    ) -> Result<bool, JsonError> {
        if depth <= MAX_DEPTH && self.peek() == Some(b'"') {
            self.string_into(out)?;
            return Ok(true);
        }
        self.skip_value(depth).map(|()| false)
    }

    /// The value at `depth` as [`Json::as_u64`] reads it (a float or a
    /// negative integer is `None`); anything else is validated and
    /// skipped as `None`.
    pub(crate) fn u64_or_skip(&mut self, depth: usize) -> Result<Option<u64>, JsonError> {
        if depth <= MAX_DEPTH && matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.number().map(|n| n.as_u64());
        }
        self.skip_value(depth).map(|()| None)
    }

    /// The value at `depth` as [`Json::as_bool`] reads it; anything
    /// else is validated and skipped as `None`.
    pub(crate) fn bool_or_skip(&mut self, depth: usize) -> Result<Option<bool>, JsonError> {
        if depth <= MAX_DEPTH {
            match self.peek() {
                Some(b't') => return self.literal("true").map(|()| Some(true)),
                Some(b'f') => return self.literal("false").map(|()| Some(false)),
                _ => {}
            }
        }
        self.skip_value(depth).map(|()| None)
    }

    /// Walk the object at `depth` if the value is one, else validate and
    /// skip it. Returns whether it was an object.
    pub(crate) fn fields_or_skip(
        &mut self,
        depth: usize,
        field: impl FnMut(&mut Self, &mut KeyBuf, usize) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if depth <= MAX_DEPTH && self.peek() == Some(b'{') {
            self.fields(depth, &mut KeyBuf::default(), field)?;
            return Ok(true);
        }
        self.skip_value(depth).map(|()| false)
    }

    /// Walk the array at `depth` if the value is one, else validate and
    /// skip it. Returns whether it was an array.
    pub(crate) fn items_or_skip(
        &mut self,
        depth: usize,
        item: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if depth <= MAX_DEPTH && self.peek() == Some(b'[') {
            self.items(depth, item)?;
            return Ok(true);
        }
        self.skip_value(depth).map(|()| false)
    }
}

/// Escapes everything written through it as JSON string content, each
/// run of characters that needs no escaping with one `write_str`.
/// Escaping is per byte, so text written in pieces comes out as if
/// written whole.
struct Escaper<'a, W: fmt::Write + ?Sized>(&'a mut W);

impl<W: fmt::Write + ?Sized> fmt::Write for Escaper<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let short = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            // Every escaped character is ASCII, so `i` and `i + 1` are
            // character boundaries.
            self.0.write_str(&s[run..i])?;
            match short {
                Some(escape) => self.0.write_str(escape)?,
                None => write!(self.0, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        self.0.write_str(&s[run..])
    }
}

/// Write `s` as a JSON string literal.
pub(crate) fn write_escaped<W: fmt::Write + ?Sized>(w: &mut W, s: &str) -> fmt::Result {
    w.write_str("\"")?;
    fmt::Write::write_str(&mut Escaper(w), s)?;
    w.write_str("\"")
}

/// Write the `Display` rendering of `item` as a JSON string literal,
/// with no intermediate `String`.
pub(crate) fn write_escaped_display<W: fmt::Write + ?Sized>(
    w: &mut W,
    item: &impl fmt::Display,
) -> fmt::Result {
    w.write_str("\"")?;
    write!(Escaper(w), "{item}")?;
    w.write_str("\"")
}

/// Writes one JSON object into a `String`, field by field, in the bytes
/// `Json::Obj`'s `Display` produces for the same fields.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    pub(crate) fn open(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Start the field `key`; the caller writes its value into the
    /// returned string.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let _ = write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    pub(crate) fn str(&mut self, key: &str, value: &str) {
        let _ = write_escaped(self.key(key), value);
    }

    /// An integer, in exact digits as `Json::from(u64)` writes it.
    pub(crate) fn u64(&mut self, key: &str, value: u64) {
        self.key(key).push_str(Decimal::u64(value).as_str());
    }

    pub(crate) fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }

    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => f.write_str(Decimal::i64(*i).as_str()),
            Json::UInt(u) => f.write_str(Decimal::u64(*u).as_str()),
            Json::Float(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_value() {
        let text = r#"{"a":[1,-2,3.5,true,null],"s":"hi\n\"there\"","o":{"k":"v"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_i64(), Some(1));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi\n\"there\""));
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn u64_values_round_trip_in_exact_digits() {
        for v in [0, 7, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let text = Json::from(v).to_string();
            assert_eq!(text, v.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v), "{text}");
        }
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        // Past either end of the integers a peer can write: out of range.
        for text in ["18446744073709551616", "-9223372036854775809"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.message, "integer out of range", "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":00x}",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The per-`char` escaper the run-based writer replaced, kept as
    /// the reference it must match byte for byte.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Seeded strings over every class the writer and parser treat
    /// apart: the short escapes, the other C0 controls, DEL, two- and
    /// four-byte UTF-8, and plain ASCII.
    #[test]
    fn strings_encode_like_the_reference_and_round_trip() {
        let mut state = 0x15_0A_50_17;
        for _ in 0..20_000 {
            let len = dagsched_isa::splitmix64(&mut state) % 24;
            let s: String = (0..len)
                .map(|_| {
                    let r = dagsched_isa::splitmix64(&mut state);
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
                .collect();
            let written = Json::Str(s.clone()).to_string();
            assert_eq!(written, reference_escape(&s), "{s:?}");
            assert_eq!(Json::parse(&written), Ok(Json::Str(s)), "{written}");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
