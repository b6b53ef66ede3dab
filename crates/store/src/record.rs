//! The on-disk record framing shared by the WAL and snapshot bodies.
//!
//! Every durable fact is one *record*:
//!
//! ```text
//! offset        size  field
//! 0             4     payload length n, little-endian u32
//! 4             8     sequence number, little-endian u64
//! 12            1     record kind (application-defined tag)
//! 13            n     payload bytes
//! 13 + n        8     FNV-1a checksum over bytes [0, 13 + n)
//! ```
//!
//! The checksum covers the *entire* preceding frame — length, sequence,
//! kind and payload — so a bit flip anywhere in the record is detected,
//! including a flip inside the length field itself (the frame decoded at
//! the wrong length fails its checksum with probability `1 - 2^-64`).
//!
//! Decoding distinguishes three outcomes, because recovery treats them
//! differently:
//!
//! * a complete, checksum-valid record (`Decoded::Record`),
//! * a clean end of input (`Decoded::End`) — the log simply stops here,
//! * a *torn or corrupt* tail (`Decoded::Corrupt`) — fewer bytes than
//!   the frame promises (a write interrupted by `kill -9` or power
//!   loss) or a checksum mismatch (bit rot, torn sector). Recovery
//!   truncates the log at this offset; everything before it is intact
//!   by construction of the per-record checksums.

use std::fmt;

/// FNV-1a over `bytes`: the checksum every record, header and shipment
/// carries.
pub use dagsched_isa::fnv64 as checksum;

/// Bytes before the payload: length (4) + sequence (8) + kind (1).
pub const RECORD_HEADER: usize = 13;
/// Bytes after the payload: the checksum.
pub const RECORD_TRAILER: usize = 8;
/// Sanity cap on a single record's payload. A declared length beyond
/// this is treated as corruption rather than an allocation request: a
/// flipped bit in the length field must not make recovery try to read
/// (or allocate) gigabytes.
pub const MAX_RECORD_PAYLOAD: usize = 64 << 20;

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number assigned at append time.
    pub seq: u64,
    /// Application-defined kind tag.
    pub kind: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

impl Record {
    /// Total encoded size of this record on disk.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.payload.len() + RECORD_TRAILER
    }
}

/// Why a record could not be decoded at some offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The buffer ends before the frame does: a torn write.
    Torn,
    /// The declared payload length exceeds [`MAX_RECORD_PAYLOAD`].
    LengthInsane,
    /// The frame is complete but its checksum does not match.
    BadChecksum,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::Torn => f.write_str("torn record (write cut short)"),
            CorruptKind::LengthInsane => f.write_str("insane record length"),
            CorruptKind::BadChecksum => f.write_str("checksum mismatch"),
        }
    }
}

/// The outcome of decoding at one offset.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A valid record and the number of bytes it consumed.
    Record(Record, usize),
    /// Clean end of input (zero bytes remain).
    End,
    /// A torn or corrupt tail begins here.
    Corrupt(CorruptKind),
}

/// Encode `(seq, kind, payload)` into `out`.
pub fn encode_record(out: &mut Vec<u8>, seq: u64, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Decode one record from the front of `buf`.
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.is_empty() {
        return Decoded::End;
    }
    if buf.len() < RECORD_HEADER {
        return Decoded::Corrupt(CorruptKind::Torn);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_RECORD_PAYLOAD {
        return Decoded::Corrupt(CorruptKind::LengthInsane);
    }
    let total = RECORD_HEADER + len + RECORD_TRAILER;
    if buf.len() < total {
        return Decoded::Corrupt(CorruptKind::Torn);
    }
    let body = &buf[..RECORD_HEADER + len];
    let want = u64::from_le_bytes(
        buf[RECORD_HEADER + len..total]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    if checksum(body) != want {
        return Decoded::Corrupt(CorruptKind::BadChecksum);
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().expect("seq is 8 bytes"));
    Decoded::Record(
        Record {
            seq,
            kind: buf[12],
            payload: buf[RECORD_HEADER..RECORD_HEADER + len].to_vec(),
        },
        total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&mut out, seq, kind, payload);
        out
    }

    #[test]
    fn records_round_trip() {
        let bytes = encode(7, 1, b"hello");
        match decode_record(&bytes) {
            Decoded::Record(r, used) => {
                assert_eq!(r.seq, 7);
                assert_eq!(r.kind, 1);
                assert_eq!(r.payload, b"hello");
                assert_eq!(used, bytes.len());
                assert_eq!(r.encoded_len(), bytes.len());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(decode_record(&[]), Decoded::End);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let clean = encode(42, 3, b"payload bytes");
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                match decode_record(&dirty) {
                    Decoded::Record(r, _) => {
                        panic!("flip at byte {byte} bit {bit} went undetected: {r:?}")
                    }
                    Decoded::Corrupt(_) => {}
                    Decoded::End => panic!("flip produced End"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_torn_or_corrupt() {
        let clean = encode(1, 1, b"0123456789");
        for cut in 1..clean.len() {
            match decode_record(&clean[..cut]) {
                Decoded::Corrupt(_) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn insane_length_is_rejected_without_allocating() {
        let mut bytes = encode(1, 1, b"x");
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_record(&bytes),
            Decoded::Corrupt(CorruptKind::LengthInsane)
        );
    }

    #[test]
    fn empty_payloads_are_valid() {
        let bytes = encode(9, 200, b"");
        match decode_record(&bytes) {
            Decoded::Record(r, used) => {
                assert_eq!(r.payload, b"");
                assert_eq!(r.kind, 200);
                assert_eq!(used, RECORD_HEADER + RECORD_TRAILER);
            }
            other => panic!("{other:?}"),
        }
    }
}
