//! The append-only write-ahead log.
//!
//! A WAL file is a 21-byte header followed by records in the framing of
//! [`crate::record`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "DSWL"
//! 4       1     format version (currently 1)
//! 5       8     configuration fingerprint, little-endian u64
//! 13      8     FNV-1a checksum over bytes [0, 13)
//! 21      ...   records
//! ```
//!
//! The fingerprint is supplied by the application (for the scheduling
//! daemon: a hash of the persisted-entry format version, the machine
//! model catalog and the default scheduler configuration). A WAL whose
//! fingerprint does not match the caller's is *stale state* — entries
//! computed under different latencies or heuristics — and is discarded
//! wholesale rather than replayed.
//!
//! # Durability contract
//!
//! * Appends are written in order; `fsync` is batched (every
//!   `fsync_every` records, and on [`Wal::sync`]). After a crash the
//!   log is a *prefix* of what was appended, possibly ending in one
//!   torn record.
//! * Replay stops at the first torn or corrupt record and physically
//!   truncates the file there, so subsequent appends extend a clean
//!   prefix rather than burying garbage mid-log.
//! * Records carry monotonic sequence numbers assigned at append time;
//!   replay reports them as-is and the consumer deduplicates (a
//!   duplicated tail — e.g. a copy-truncate backup gone wrong — must
//!   replay to the same state).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::record::{checksum, decode_record, encode_record, Decoded, Record};

/// WAL magic bytes.
pub const WAL_MAGIC: [u8; 4] = *b"DSWL";
/// WAL format version.
pub const WAL_VERSION: u8 = 1;
/// Size of the WAL file header.
pub const WAL_HEADER: usize = 21;

/// What replaying a WAL found.
#[derive(Debug, Default, Clone)]
pub struct WalReplay {
    /// Valid records, in file order (sequence numbers may repeat if the
    /// tail was duplicated; consumers deduplicate by `seq`).
    pub records: Vec<Record>,
    /// Truncation events (0 or 1): a torn/corrupt tail was cut off.
    pub truncated_records: u64,
    /// Bytes removed by the truncation.
    pub truncated_bytes: u64,
    /// The whole log was discarded: missing/invalid header or a
    /// fingerprint mismatch (stale configuration).
    pub discarded: bool,
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    next_seq: u64,
    appended_since_sync: u64,
    fsync_every: u64,
    fsync_count: u64,
}

fn header_bytes(fingerprint: u64) -> [u8; WAL_HEADER] {
    let mut h = [0u8; WAL_HEADER];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4] = WAL_VERSION;
    h[5..13].copy_from_slice(&fingerprint.to_le_bytes());
    let sum = checksum(&h[..13]);
    h[13..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Parse and validate a WAL header; returns the fingerprint.
fn parse_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < WAL_HEADER || bytes[..4] != WAL_MAGIC || bytes[4] != WAL_VERSION {
        return None;
    }
    let want = u64::from_le_bytes(bytes[13..21].try_into().ok()?);
    if checksum(&bytes[..13]) != want {
        return None;
    }
    Some(u64::from_le_bytes(bytes[5..13].try_into().ok()?))
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating anything there), write
    /// and fsync its header.
    pub fn create(path: &Path, fingerprint: u64, fsync_every: u64) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header_bytes(fingerprint))?;
        file.sync_all()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            bytes: WAL_HEADER as u64,
            next_seq: 1,
            appended_since_sync: 0,
            fsync_every,
            fsync_count: 1,
        })
    }

    /// Open the WAL at `path`, replaying its valid prefix; a missing,
    /// header-corrupt, or fingerprint-mismatched file is recreated
    /// fresh. The file is truncated at the first torn/corrupt record so
    /// future appends extend a clean log.
    pub fn open_or_create(
        path: &Path,
        fingerprint: u64,
        fsync_every: u64,
    ) -> io::Result<(Wal, WalReplay)> {
        let mut replay = WalReplay::default();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Wal::create(path, fingerprint, fsync_every)?, replay));
            }
            Err(e) => return Err(e),
        };
        match parse_header(&bytes) {
            Some(fp) if fp == fingerprint => {}
            _ => {
                // Unreadable header or stale configuration: the log is
                // not trustworthy state for *this* process. Start over.
                replay.discarded = true;
                replay.truncated_bytes = bytes.len() as u64;
                return Ok((Wal::create(path, fingerprint, fsync_every)?, replay));
            }
        }
        let mut offset = WAL_HEADER;
        let mut max_seq = 0u64;
        loop {
            match decode_record(&bytes[offset..]) {
                Decoded::End => break,
                Decoded::Record(record, used) => {
                    max_seq = max_seq.max(record.seq);
                    replay.records.push(record);
                    offset += used;
                }
                Decoded::Corrupt(_) => {
                    replay.truncated_records = 1;
                    replay.truncated_bytes = (bytes.len() - offset) as u64;
                    break;
                }
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if replay.truncated_bytes > 0 {
            // Physically cut the torn tail so the next append starts on
            // a clean prefix.
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                bytes: offset as u64,
                next_seq: max_seq + 1,
                appended_since_sync: 0,
                fsync_every,
                fsync_count: if replay.truncated_bytes > 0 { 1 } else { 0 },
            },
            replay,
        ))
    }

    /// Append one record; returns its sequence number. `fsync` happens
    /// every `fsync_every` appends (0 = only on explicit [`Wal::sync`]).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut buf = Vec::with_capacity(payload.len() + 32);
        encode_record(&mut buf, seq, kind, payload);
        self.file.write_all(&buf)?;
        self.bytes += buf.len() as u64;
        self.next_seq += 1;
        self.appended_since_sync += 1;
        if self.fsync_every > 0 && self.appended_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Flush and fsync everything appended so far.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        self.appended_since_sync = 0;
        self.fsync_count += 1;
        Ok(())
    }

    /// Current file length in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Reserve sequence numbers up to (and excluding) `seq`: the next
    /// append will use at least `seq`. Used after snapshot recovery so
    /// WAL sequence numbers stay monotone across a compaction.
    pub fn bump_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// `fsync` calls issued so far.
    pub fn fsync_count(&self) -> u64 {
        self.fsync_count
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read-only replay of the WAL at `path` against `fingerprint`, without
/// opening it for append or truncating anything (used by `fsck`).
pub fn inspect(path: &Path, fingerprint: Option<u64>) -> io::Result<WalReplay> {
    let mut replay = WalReplay::default();
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(replay),
        Err(e) => return Err(e),
    }
    match (parse_header(&bytes), fingerprint) {
        (None, _) => {
            replay.discarded = true;
            replay.truncated_bytes = bytes.len() as u64;
            return Ok(replay);
        }
        (Some(fp), Some(want)) if fp != want => {
            replay.discarded = true;
            replay.truncated_bytes = bytes.len() as u64;
            return Ok(replay);
        }
        _ => {}
    }
    let mut offset = WAL_HEADER;
    loop {
        match decode_record(&bytes[offset..]) {
            Decoded::End => break,
            Decoded::Record(record, used) => {
                replay.records.push(record);
                offset += used;
            }
            Decoded::Corrupt(_) => {
                replay.truncated_records = 1;
                replay.truncated_bytes = (bytes.len() - offset) as u64;
                break;
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    /// A fresh directory and the WAL path inside it.
    fn tmp(name: &str) -> (TestDir, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("dagsched-wal-test-{}-{name}", std::process::id()));
        let dir = TestDir::new(dir);
        std::fs::create_dir_all(&*dir).unwrap();
        let path = dir.join("wal.log");
        (dir, path)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let (_dir, path) = tmp("roundtrip");
        let mut wal = Wal::create(&path, 0xFEED, 0).unwrap();
        for i in 0..10u8 {
            wal.append(1, &[i; 3]).unwrap();
        }
        wal.sync().unwrap();
        let (_wal2, replay) = Wal::open_or_create(&path, 0xFEED, 0).unwrap();
        assert_eq!(replay.records.len(), 10);
        assert!(!replay.discarded);
        assert_eq!(replay.truncated_records, 0);
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue_cleanly() {
        let (_dir, path) = tmp("torn");
        let mut wal = Wal::create(&path, 7, 0).unwrap();
        for i in 0..5u8 {
            wal.append(1, &[i; 8]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Tear the final record: cut 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut wal, replay) = Wal::open_or_create(&path, 7, 0).unwrap();
        assert_eq!(replay.records.len(), 4, "torn record dropped");
        assert_eq!(replay.truncated_records, 1);
        assert!(replay.truncated_bytes > 0);
        // The file was physically truncated; a new append lands clean.
        wal.append(1, b"after").unwrap();
        wal.sync().unwrap();
        let (_w, replay) = Wal::open_or_create(&path, 7, 0).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.truncated_records, 0);
        assert_eq!(replay.records.last().unwrap().payload, b"after");
        // The torn record's seq was never durable, so it is reused:
        // 4 surviving records (1..=4) then the new append at 5.
        assert_eq!(replay.records.last().unwrap().seq, 5);
    }

    #[test]
    fn fingerprint_mismatch_discards_the_log() {
        let (_dir, path) = tmp("stale");
        let mut wal = Wal::create(&path, 1, 0).unwrap();
        wal.append(1, b"old world").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_wal, replay) = Wal::open_or_create(&path, 2, 0).unwrap();
        assert!(replay.discarded);
        assert!(replay.records.is_empty());
        // And the file really was recreated under the new fingerprint.
        let (_wal, replay) = Wal::open_or_create(&path, 2, 0).unwrap();
        assert!(!replay.discarded);
    }

    #[test]
    fn bit_flip_mid_log_truncates_from_the_flip() {
        let (_dir, path) = tmp("flip");
        let mut wal = Wal::create(&path, 7, 0).unwrap();
        for i in 0..6u8 {
            wal.append(1, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the 3rd record's payload.
        let rec = 16 + crate::record::RECORD_HEADER + crate::record::RECORD_TRAILER;
        let target = WAL_HEADER + 2 * rec + crate::record::RECORD_HEADER + 4;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_w, replay) = Wal::open_or_create(&path, 7, 0).unwrap();
        assert_eq!(replay.records.len(), 2, "prefix before the flip survives");
        assert_eq!(replay.truncated_records, 1);
    }

    #[test]
    fn fsync_batching_counts_syncs() {
        let (_dir, path) = tmp("fsync");
        let mut wal = Wal::create(&path, 7, 2).unwrap();
        let base = wal.fsync_count();
        for _ in 0..5 {
            wal.append(1, b"x").unwrap();
        }
        // 5 appends at fsync_every=2 -> 2 automatic syncs.
        assert_eq!(wal.fsync_count(), base + 2);
        wal.sync().unwrap();
        assert_eq!(wal.fsync_count(), base + 3);
    }

    #[test]
    fn inspect_does_not_modify_the_file() {
        let (_dir, path) = tmp("inspect");
        let mut wal = Wal::create(&path, 7, 0).unwrap();
        wal.append(1, b"abc").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);
        let replay = inspect(&path, Some(7)).unwrap();
        assert_eq!(replay.truncated_records, 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len - 1,
            "inspect must not truncate"
        );
    }
}
