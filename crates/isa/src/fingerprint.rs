//! Deterministic 64-bit content fingerprints (FNV-1a) and the
//! SplitMix64 stream that seeds every other deterministic draw in the
//! workspace.
//!
//! The scheduling service keys its content-addressed schedule cache on
//! *configuration identity*: the same basic block scheduled under a
//! different [`crate::MachineModel`] (or algorithm, or heuristic stack)
//! must occupy a different cache slot. `Debug` formatting is not a usable
//! fingerprint for the machine model — its latency-override table is a
//! `HashMap`, whose iteration order varies run to run — so this module
//! provides a tiny explicit FNV-1a hasher and the model hashes its fields
//! in a fixed order ([`crate::MachineModel::fingerprint`]).
//!
//! FNV-1a is chosen for the same reason the paper's table-building
//! algorithms use direct-mapped tables: it is trivially portable, has no
//! dependencies, and is plenty strong for content addressing when the
//! caller also mixes in structural facts (lengths, counts) that make
//! accidental collisions vanishingly unlikely.
//!
//! The same FNV-1a also checksums wire frames and store records. Seeded
//! streams (fault plans, retry jitter, fuzz seeds, ring points, random
//! machine states) use [`splitmix64`], or its counter mode
//! [`splitmix64_at`] where a draw must be seekable by sequence number.

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// ```
/// use dagsched_isa::Fnv64;
/// let mut h = Fnv64::new();
/// h.write(b"fdivd %f0, %f2, %f4");
/// h.write_u64(20);
/// let a = h.finish();
/// assert_ne!(a, Fnv64::new().finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher whose state is additionally seeded with `seed` — used to
    /// derive a second, independent hash of the same bytes so cache keys
    /// are effectively 128-bit.
    pub fn with_seed(seed: u64) -> Fnv64 {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian bytes, length-prefixed by nothing —
    /// callers mix in their own structure).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a UTF-8 string, delimited so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// SplitMix64 increment (the 64-bit golden ratio).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output finalizer.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advance `state` and return the next output.
///
/// ```
/// let mut state = 0;
/// assert_eq!(dagsched_isa::splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    splitmix64_mix(*state)
}

/// Counter-mode SplitMix64: output number `seq` (0-based) of the stream
/// that [`splitmix64`] walks from state `seed`, computed directly — a
/// stateless, seekable draw keyed on `(seed, seq)`.
pub fn splitmix64_at(seed: u64, seq: u64) -> u64 {
    splitmix64_mix(
        seed.wrapping_add(seq.wrapping_mul(SPLITMIX_GAMMA))
            .wrapping_add(SPLITMIX_GAMMA),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn splitmix64_matches_reference_outputs() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut state), 0x6e789e6aa1b965f4);
        assert_eq!(splitmix64_at(0, 0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64_at(0, 1), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn counter_mode_seeks_the_stepped_stream() {
        for seed in [0, 1, 1991, u64::MAX] {
            let mut state = seed;
            for seq in 0..64 {
                assert_eq!(splitmix64(&mut state), splitmix64_at(seed, seq));
            }
        }
    }

    #[test]
    fn str_writes_are_delimited() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn seeding_gives_an_independent_stream() {
        let mut a = Fnv64::new();
        a.write(b"block");
        let mut b = Fnv64::with_seed(1991);
        b.write(b"block");
        assert_ne!(a.finish(), b.finish());
    }
}
