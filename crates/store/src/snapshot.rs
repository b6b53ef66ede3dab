//! Generation-numbered, atomically-written snapshot files.
//!
//! A snapshot is the compacted state of the store at some sequence
//! number: every live record, re-encoded in the shared framing of
//! [`crate::record`], behind a checksummed header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "DSSN"
//! 4       1     format version (currently 1)
//! 5       8     generation number, little-endian u64
//! 13      8     configuration fingerprint, little-endian u64
//! 21      8     last sequence number covered, little-endian u64
//! 29      8     record count, little-endian u64
//! 37      8     FNV-1a checksum over bytes [0, 37)
//! 45      ...   `record count` records
//! ```
//!
//! # Atomicity
//!
//! A snapshot is written to `snapshot.<generation>.tmp`, flushed,
//! fsynced, then renamed to `snapshot.<generation>`, and the directory
//! is fsynced so the rename itself is durable. A crash at any point
//! leaves either the previous snapshot intact or both the previous
//! snapshot and a `.tmp` file that recovery ignores and deletes — never
//! a half-visible new snapshot.
//!
//! # Validity is all-or-nothing
//!
//! Unlike the WAL (where a torn tail still leaves a usable prefix), a
//! snapshot with a bad header, a corrupt record, or fewer records than
//! its header promises is rejected *wholesale*: compaction deleted the
//! WAL records it covered, so a partial snapshot cannot be trusted to
//! be a prefix of anything meaningful. Recovery falls back to an older
//! generation if one survives, or to an empty state.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::record::{checksum, decode_record, encode_record, Decoded, Record};

/// Snapshot magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DSSN";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;
/// Size of the snapshot file header.
pub const SNAPSHOT_HEADER: usize = 45;

/// A parsed, fully-validated snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Generation number (monotonically increasing across compactions).
    pub generation: u64,
    /// Configuration fingerprint the snapshot was taken under.
    pub fingerprint: u64,
    /// Highest sequence number covered by this snapshot; WAL records
    /// with `seq <= last_seq` are already folded in.
    pub last_seq: u64,
    /// The snapshotted records.
    pub records: Vec<Record>,
}

/// Why a snapshot file was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing/short header, bad magic or version, or header checksum
    /// mismatch.
    BadHeader,
    /// The fingerprint does not match the caller's configuration.
    StaleFingerprint,
    /// A record inside the body failed to decode, or the body holds
    /// fewer records than the header promises.
    CorruptBody,
    /// The body holds *more* bytes than its records account for.
    TrailingGarbage,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader => f.write_str("bad snapshot header"),
            SnapshotError::StaleFingerprint => f.write_str("stale snapshot fingerprint"),
            SnapshotError::CorruptBody => f.write_str("corrupt snapshot body"),
            SnapshotError::TrailingGarbage => f.write_str("trailing garbage after snapshot body"),
        }
    }
}

fn header_bytes(
    generation: u64,
    fingerprint: u64,
    last_seq: u64,
    count: u64,
) -> [u8; SNAPSHOT_HEADER] {
    let mut h = [0u8; SNAPSHOT_HEADER];
    h[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    h[4] = SNAPSHOT_VERSION;
    h[5..13].copy_from_slice(&generation.to_le_bytes());
    h[13..21].copy_from_slice(&fingerprint.to_le_bytes());
    h[21..29].copy_from_slice(&last_seq.to_le_bytes());
    h[29..37].copy_from_slice(&count.to_le_bytes());
    let sum = checksum(&h[..37]);
    h[37..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// The file name of snapshot `generation` inside a store directory.
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snapshot.{generation:016x}")
}

/// Parse `snapshot.<hex generation>` back into a generation number.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot.")?;
    if hex.ends_with(".tmp") || hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Write a snapshot atomically into `dir`: tmp-write, fsync, rename,
/// directory fsync. Returns the final path.
pub fn write_snapshot(
    dir: &Path,
    generation: u64,
    fingerprint: u64,
    last_seq: u64,
    records: &[(u8, Vec<u8>)],
) -> io::Result<PathBuf> {
    let final_path = dir.join(snapshot_file_name(generation));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(generation)));
    let mut body = Vec::new();
    body.extend_from_slice(&header_bytes(
        generation,
        fingerprint,
        last_seq,
        records.len() as u64,
    ));
    // Snapshot records reuse WAL sequence numbers 1..=n *within the
    // snapshot's own numbering space*; the authoritative sequence for
    // dedup against the WAL is `last_seq`, carried in the header.
    for (i, (kind, payload)) in records.iter().enumerate() {
        encode_record(&mut body, i as u64 + 1, *kind, payload);
    }
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)?;
    file.write_all(&body)?;
    file.flush()?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    // Fsync the directory so the rename itself survives power loss.
    sync_dir(dir)?;
    Ok(final_path)
}

/// Fsync a directory (making renames/unlinks inside it durable).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Read and fully validate the snapshot at `path`. `fingerprint` of
/// `None` skips the staleness check (fsck inspects snapshots it cannot
/// re-derive a fingerprint for).
pub fn read_snapshot(
    path: &Path,
    fingerprint: Option<u64>,
) -> io::Result<Result<Snapshot, SnapshotError>> {
    let bytes = fs::read(path)?;
    Ok(parse_snapshot(&bytes, fingerprint))
}

/// Validate snapshot `bytes` end to end.
pub fn parse_snapshot(bytes: &[u8], fingerprint: Option<u64>) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER || bytes[..4] != SNAPSHOT_MAGIC || bytes[4] != SNAPSHOT_VERSION
    {
        return Err(SnapshotError::BadHeader);
    }
    let want = u64::from_le_bytes(bytes[37..45].try_into().expect("8 bytes"));
    if checksum(&bytes[..37]) != want {
        return Err(SnapshotError::BadHeader);
    }
    let generation = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let fp = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    let last_seq = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(bytes[29..37].try_into().expect("8 bytes"));
    if let Some(want_fp) = fingerprint {
        if fp != want_fp {
            return Err(SnapshotError::StaleFingerprint);
        }
    }
    let mut records = Vec::new();
    let mut offset = SNAPSHOT_HEADER;
    for _ in 0..count {
        match decode_record(&bytes[offset..]) {
            Decoded::Record(record, used) => {
                records.push(record);
                offset += used;
            }
            // A snapshot is all-or-nothing: a short or corrupt body
            // invalidates the whole file.
            Decoded::End | Decoded::Corrupt(_) => return Err(SnapshotError::CorruptBody),
        }
    }
    if offset != bytes.len() {
        return Err(SnapshotError::TrailingGarbage);
    }
    Ok(Snapshot {
        generation,
        fingerprint: fp,
        last_seq,
        records,
    })
}

/// List snapshot generations present in `dir`, ascending. `.tmp` files
/// are ignored (and are safe to delete).
pub fn list_generations(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(generation) = parse_snapshot_file_name(name) {
                gens.push(generation);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Delete leftover `snapshot.*.tmp` files (crashed mid-compaction).
/// Returns how many were removed.
pub fn remove_tmp_files(dir: &Path) -> io::Result<u64> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("snapshot.") && name.ends_with(".tmp") {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
    }
    if removed > 0 {
        sync_dir(dir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn tmp(name: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("dagsched-snap-test-{}-{name}", std::process::id()));
        let dir = TestDir::new(dir);
        std::fs::create_dir_all(&*dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<(u8, Vec<u8>)> {
        (0..8u8).map(|i| (1, vec![i; i as usize + 1])).collect()
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp("roundtrip");
        let recs = sample_records();
        let path = write_snapshot(&dir, 3, 0xABCD, 42, &recs).unwrap();
        let snap = read_snapshot(&path, Some(0xABCD)).unwrap().unwrap();
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.last_seq, 42);
        assert_eq!(snap.records.len(), 8);
        for (i, rec) in snap.records.iter().enumerate() {
            assert_eq!(rec.payload, recs[i].1);
        }
        assert_eq!(list_generations(&dir).unwrap(), vec![3]);
    }

    #[test]
    fn stale_fingerprint_is_rejected() {
        let dir = tmp("stale");
        let path = write_snapshot(&dir, 1, 0xAAAA, 1, &sample_records()).unwrap();
        assert_eq!(
            read_snapshot(&path, Some(0xBBBB)).unwrap(),
            Err(SnapshotError::StaleFingerprint)
        );
        // Without a fingerprint check the file is fine.
        assert!(read_snapshot(&path, None).unwrap().is_ok());
    }

    #[test]
    fn truncated_snapshot_is_rejected_wholesale() {
        let dir = tmp("truncated");
        let path = write_snapshot(&dir, 1, 7, 9, &sample_records()).unwrap();
        let clean = fs::read(&path).unwrap();
        // Any truncation of the body (or header) must invalidate it.
        for cut in [0, 10, SNAPSHOT_HEADER, clean.len() - 1] {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                read_snapshot(&path, Some(7)).unwrap().is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_are_rejected() {
        let dir = tmp("flip");
        let path = write_snapshot(&dir, 1, 7, 9, &sample_records()).unwrap();
        let clean = fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x01;
            assert!(
                parse_snapshot(&dirty, Some(7)).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let dir = tmp("trailing");
        let path = write_snapshot(&dir, 1, 7, 9, &sample_records()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            parse_snapshot(&bytes, Some(7)),
            Err(SnapshotError::TrailingGarbage)
        );
    }

    #[test]
    fn tmp_files_are_ignored_and_cleaned() {
        let dir = tmp("tmpclean");
        write_snapshot(&dir, 2, 7, 9, &sample_records()).unwrap();
        fs::write(dir.join("snapshot.0000000000000003.tmp"), b"half-written").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![2]);
        assert_eq!(remove_tmp_files(&dir).unwrap(), 1);
        assert!(!dir.join("snapshot.0000000000000003.tmp").exists());
    }

    #[test]
    fn file_names_round_trip() {
        for generation in [0, 1, 0xFFFF, u64::MAX] {
            let name = snapshot_file_name(generation);
            assert_eq!(parse_snapshot_file_name(&name), Some(generation));
        }
        assert_eq!(parse_snapshot_file_name("snapshot.zzz"), None);
        assert_eq!(
            parse_snapshot_file_name("snapshot.0000000000000001.tmp"),
            None
        );
        assert_eq!(parse_snapshot_file_name("wal.log"), None);
    }
}
