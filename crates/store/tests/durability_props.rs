//! Property tests for the durability invariants the store's crate docs
//! promise:
//!
//! * **Prefix durability** — cutting the WAL file at *any* byte
//!   boundary replays to an exact record-prefix of what was appended,
//!   never to reordered, altered, or invented records.
//! * **Idempotent replay** — opening a store twice (or replaying a WAL
//!   after its torn tail was truncated) yields the same records; a
//!   second replay repairs nothing because the first replay left a
//!   clean log.
//! * **Snapshot + WAL recovery** — compaction is transparent: whatever
//!   mix of snapshotted and WAL-resident records exists on disk,
//!   recovery returns the full record set in sequence order.
//! * **Duplicated-tail dedup** — re-appending an already-durable WAL
//!   suffix (a crashed copy/restore, a doubled write) replays once.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dagsched_store::wal::{Wal, WAL_HEADER};
use dagsched_store::Store;
use proptest::collection::vec;
use proptest::prelude::*;

const FP: u64 = 0xD165_C0DE;

/// A proptest case's scratch directory, removed when the case ends
/// (also when it fails).
struct TestDir(PathBuf);

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fresh scratch directory per proptest case.
fn tmp(name: &str) -> TestDir {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dagsched-store-props-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TestDir(dir)
}

/// Random record payloads: small, occasionally empty.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..16), 1..12)
}

/// Append `payloads` to a fresh WAL in `dir` and return the raw file
/// bytes.
fn build_wal(dir: &std::path::Path, payloads: &[Vec<u8>]) -> Vec<u8> {
    let path = dir.join("wal.log");
    let mut wal = Wal::create(&path, FP, 0).unwrap();
    for p in payloads {
        wal.append(1, p).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut the WAL at EVERY byte offset from the header to the full
    /// length: each cut must replay to an exact prefix of the appended
    /// records — the torn record (if the cut is mid-record) disappears,
    /// everything before it survives verbatim, nothing is invented.
    #[test]
    fn every_byte_prefix_of_a_wal_replays_to_a_record_prefix(ps in payloads()) {
        let dir = tmp("prefix");
        let bytes = build_wal(&dir, &ps);
        let cut_path = dir.join("cut.log");
        for cut in WAL_HEADER..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let (_wal, replay) = Wal::open_or_create(&cut_path, FP, 0).unwrap();
            prop_assert!(!replay.discarded, "header survived, cut {cut}");
            prop_assert!(
                replay.records.len() <= ps.len(),
                "cut {cut} replayed {} records from {} appended",
                replay.records.len(),
                ps.len()
            );
            for (i, rec) in replay.records.iter().enumerate() {
                prop_assert_eq!(rec.seq, (i + 1) as u64, "cut {}: seqs are dense", cut);
                prop_assert_eq!(&rec.payload, &ps[i], "cut {}: payload {} altered", cut, i);
            }
            // Torn mid-record: exactly the tail record is lost.
            prop_assert!(
                replay.truncated_records <= 1,
                "cut {cut} lost {} records",
                replay.truncated_records
            );
            if cut == bytes.len() {
                prop_assert_eq!(replay.records.len(), ps.len(), "whole file replays whole log");
            }
        }
    }

    /// Replay is idempotent: the first open of a torn WAL truncates the
    /// tail; a second open finds the identical record set and nothing
    /// left to repair.
    #[test]
    fn double_replay_equals_single_replay(ps in payloads(), cut_back in 1usize..24) {
        let dir = tmp("double");
        let bytes = build_wal(&dir, &ps);
        let path = dir.join("wal.log");
        let keep = bytes.len().saturating_sub(cut_back).max(WAL_HEADER);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let (wal, first) = Wal::open_or_create(&path, FP, 0).unwrap();
        drop(wal);
        let (_wal, second) = Wal::open_or_create(&path, FP, 0).unwrap();

        prop_assert_eq!(first.records.clone(), second.records, "same records both replays");
        prop_assert_eq!(second.truncated_records, 0, "first replay already repaired");
        prop_assert_eq!(second.truncated_bytes, 0);
    }

    /// Compaction is invisible to recovery: for any split of the log
    /// into [snapshotted | WAL-resident] and any re-open count, the
    /// recovered payload sequence equals everything ever appended.
    #[test]
    fn compaction_point_and_reopen_count_never_change_recovery(
        before in payloads(),
        after in payloads(),
        reopens in 1usize..4,
    ) {
        let dir = tmp("compact");
        let (mut store, _) = Store::open(&dir, FP, 0).unwrap();
        let mut live: Vec<(u8, Vec<u8>)> = Vec::new();
        for p in &before {
            store.append(1, p).unwrap();
            live.push((1, p.clone()));
        }
        store.compact(&live).unwrap();
        for p in &after {
            store.append(1, p).unwrap();
            live.push((1, p.clone()));
        }
        store.sync().unwrap();
        drop(store);

        for round in 0..reopens {
            let (store, report) = Store::open(&dir, FP, 0).unwrap();
            drop(store);
            let got: Vec<&[u8]> = report.records.iter().map(|r| r.payload.as_slice()).collect();
            let want: Vec<&[u8]> = live.iter().map(|(_, p)| p.as_slice()).collect();
            prop_assert_eq!(&got, &want, "reopen {} diverged", round);
            prop_assert_eq!(report.snapshot_records, before.len() as u64);
            prop_assert_eq!(report.wal_records, after.len() as u64);
            prop_assert_eq!(report.truncated_records, 0);
            prop_assert_eq!(report.duplicate_records, 0);
        }
    }

    /// A duplicated WAL tail (doubled flush, naive file restore)
    /// replays each sequence number exactly once.
    #[test]
    fn duplicated_wal_tail_replays_once(ps in payloads(), dup_from in 0usize..12) {
        let dir = tmp("dup");
        let bytes = build_wal(&dir, &ps);
        let path = dir.join("wal.log");

        // Re-append the encoded suffix starting at record `dup_from`.
        let mut offset = WAL_HEADER;
        let mut skipped = 0usize;
        while skipped < dup_from.min(ps.len().saturating_sub(1)) {
            if let dagsched_store::Decoded::Record(_, used) =
                dagsched_store::record::decode_record(&bytes[offset..])
            {
                offset += used;
                skipped += 1;
            } else {
                break;
            }
        }
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[offset..]);
        std::fs::write(&path, &doubled).unwrap();

        let (store, report) = Store::open(&dir, FP, 0).unwrap();
        drop(store);
        prop_assert_eq!(report.records.len(), ps.len(), "each seq replays exactly once");
        prop_assert!(report.duplicate_records > 0, "the doubled suffix was detected");
        for (i, rec) in report.records.iter().enumerate() {
            prop_assert_eq!(&rec.payload, &ps[i]);
        }
    }
}
