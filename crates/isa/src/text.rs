//! Instruction text without `fmt`.
//!
//! Instruction text is the serving path's per-instruction work: a cache
//! hit renders every instruction into its block key and again into the
//! reply. Going through `write!` builds format arguments for every
//! operand and reaches the sink once per piece. Here an instruction is
//! copied piece by piece into a stack buffer — static names from tables
//! ([`Opcode::mnemonic`](crate::Opcode::mnemonic),
//! [`Reg::name`](crate::Reg::name)), each padded to 8 bytes so it is
//! appended with one fixed-size copy, and integers digit by digit — and
//! `Display` hands the sink the whole text in one `write_str`.
//!
//! The bytes are exactly those the `write!` renderer produced: block
//! keys hash this text and persisted cache entries are keyed on it, so
//! a changed byte would make every stored entry miss.

/// An integer's decimal text, written without `fmt`: the bytes
/// `Display` writes for the same `u64` or `i64`.
///
/// ```
/// use dagsched_isa::Decimal;
/// assert_eq!(Decimal::u64(u64::MAX).as_str(), u64::MAX.to_string());
/// assert_eq!(Decimal::i64(i64::MIN).as_str(), i64::MIN.to_string());
/// assert_eq!(Decimal::i64(-8).as_str(), "-8");
/// ```
#[derive(Clone, Copy)]
pub struct Decimal {
    /// The text is `buf[start..]`.
    buf: [u8; 20],
    start: usize,
}

impl Decimal {
    /// The digits of `v`.
    pub fn u64(v: u64) -> Decimal {
        let mut buf = [0; 20];
        let start = buf.len() - digit_count(v);
        fill_digits(&mut buf[start..], v);
        Decimal { buf, start }
    }

    /// The digits of `v`, after a `-` when it is negative.
    pub fn i64(v: i64) -> Decimal {
        let mut d = Decimal::u64(v.unsigned_abs());
        if v < 0 {
            // 19 digits at most for an `i64`, so the sign fits.
            d.start -= 1;
            d.buf[d.start] = b'-';
        }
        d
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("a Decimal holds only ASCII")
    }
}

/// How many decimal digits `v` has.
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Write the digits of `v` into `slots`, which is exactly
/// [`digit_count`] long.
fn fill_digits(slots: &mut [u8], mut v: u64) {
    for slot in slots.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// A name of at most 8 bytes, stored padded so that it is appended with
/// one fixed-size copy. `bytes[..len]` is the `str` it was made from;
/// [`Text::as_str`] relies on that, so the fields stay private to this
/// module.
#[derive(Clone, Copy)]
pub(crate) struct Name {
    bytes: [u8; 8],
    len: usize,
}

impl Name {
    pub(crate) const fn new(s: &str) -> Name {
        let b = s.as_bytes();
        assert!(b.len() <= 8, "a Name holds at most 8 bytes");
        let mut bytes = [0; 8];
        let mut i = 0;
        while i < b.len() {
            bytes[i] = b[i];
            i += 1;
        }
        Name {
            bytes,
            len: b.len(),
        }
    }

    /// `names`, each as a [`Name`].
    pub(crate) const fn table<const N: usize>(names: [&str; N]) -> [Name; N] {
        let mut out = [Name::new(""); N];
        let mut i = 0;
        while i < N {
            out[i] = Name::new(names[i]);
            i += 1;
        }
        out
    }
}

/// A stack buffer an instruction's text is assembled in. It holds only
/// whole names and ASCII digits, so it is always valid UTF-8.
pub(crate) struct Text {
    buf: [u8; TEXT_CAP],
    len: usize,
}

/// Room for the longest instruction text and the padding of a [`Name`]
/// appended at its end: a 7-byte mnemonic, a memory operand of two
/// 5-byte registers and an 11-byte offset, two 5-byte sources, a
/// 20-byte immediate, a 5-byte destination and their separators take
/// 75 bytes.
const TEXT_CAP: usize = 75 + 8;

impl Text {
    pub(crate) fn new() -> Text {
        Text {
            buf: [0; TEXT_CAP],
            len: 0,
        }
    }

    /// Append `name`: all 8 padded bytes are copied, and the length
    /// moves past the name's own.
    pub(crate) fn push_name(&mut self, name: &Name) {
        self.buf[self.len..self.len + 8].copy_from_slice(&name.bytes);
        self.len += name.len;
    }

    /// Append the ASCII byte `b`.
    pub(crate) fn push_byte(&mut self, b: u8) {
        assert!(b.is_ascii(), "a Text holds only names and ASCII");
        self.buf[self.len] = b;
        self.len += 1;
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        let end = self.len + digit_count(v);
        fill_digits(&mut self.buf[self.len..end], v);
        self.len = end;
    }

    pub(crate) fn push_i64(&mut self, v: i64) {
        if v < 0 {
            self.push_byte(b'-');
        }
        self.push_u64(v.unsigned_abs());
    }

    /// The text. Not validated again: validating took a third of the
    /// time `Display` spends on an instruction (EXPERIMENTS.md,
    /// "Instruction text at table speed").
    pub(crate) fn as_str(&self) -> &str {
        let bytes = &self.buf[..self.len];
        debug_assert!(std::str::from_utf8(bytes).is_ok());
        // SAFETY: `buf[..len]` is a concatenation of whole `str`s and
        // ASCII bytes, so it is valid UTF-8. Only this module writes
        // `buf` and `len`: `push_name` copies a `Name`, whose first `len`
        // bytes are the `str` it was made from (the padding past them
        // lies beyond the new `len` until a later push overwrites it),
        // `push_byte` asserts its byte is ASCII, and `push_u64` writes
        // the digits `b'0'..=b'9'`.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_matches_display_at_the_edges() {
        for v in [0, 1, 9, 10, 99, 100, 1 << 32, u64::MAX - 1, u64::MAX] {
            assert_eq!(Decimal::u64(v).as_str(), v.to_string());
        }
        for v in [
            0,
            1,
            -1,
            9,
            -10,
            i32::MIN as i64,
            i64::MAX,
            i64::MIN + 1,
            i64::MIN,
        ] {
            assert_eq!(Decimal::i64(v).as_str(), v.to_string());
        }
        let mut state = 0x7e47;
        for _ in 0..10_000 {
            let v = crate::splitmix64(&mut state) >> (state % 64);
            assert_eq!(Decimal::u64(v).as_str(), v.to_string());
            assert_eq!(Decimal::i64(v as i64).as_str(), (v as i64).to_string());
        }
    }

    #[test]
    fn text_concatenates_its_pieces() {
        let mut t = Text::new();
        for name in Name::table(["fdivd", " ", "%f0", ", ", "[%g0"]) {
            t.push_name(&name);
        }
        t.push_i64(-2_147_483_648);
        t.push_byte(b']');
        t.push_u64(0);
        assert_eq!(t.as_str(), "fdivd %f0, [%g0-2147483648]0");
    }
}
