//! The combined snapshot + WAL store.
//!
//! A store directory holds:
//!
//! * `wal.log` — the append-only log of recent facts,
//! * `snapshot.<generation>` — zero or more compacted snapshots
//!   (normally exactly one; an older generation can coexist briefly and
//!   is garbage-collected on the next successful compaction),
//! * `snapshot.<generation>.tmp` — a compaction that crashed mid-write
//!   (ignored and deleted by recovery).
//!
//! # Recovery
//!
//! [`Store::open`] replays *snapshot-then-WAL*:
//!
//! 1. delete leftover `.tmp` files,
//! 2. load the newest fully-valid snapshot (walking backwards over
//!    generations until one validates; corrupt ones are reported and
//!    removed),
//! 3. replay the WAL's valid prefix, keeping only records with
//!    `seq > snapshot.last_seq` (idempotent under duplicated tails:
//!    records are deduplicated by sequence number),
//! 4. physically truncate the WAL at the first torn/corrupt record.
//!
//! Replay is idempotent: opening the same directory twice, or replaying
//! any prefix of a valid WAL, yields a state the consumer can apply
//! insert-if-absent and converge.
//!
//! # Compaction
//!
//! [`Store::compact`] writes the caller's current live state as a new
//! snapshot (generation + 1), atomically publishes it, then resets the
//! WAL — preserving sequence-number monotonicity so replay ordering
//! stays global across compactions.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::record::Record;
use crate::snapshot::{
    self, list_generations, read_snapshot, remove_tmp_files, write_snapshot, SnapshotError,
};
use crate::wal::{self, Wal};

/// Name of the WAL file inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// What [`Store::open`] found and did.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Records recovered, snapshot first then WAL, deduplicated by
    /// sequence number and ordered by it.
    pub records: Vec<Record>,
    /// How many of those came from the snapshot.
    pub snapshot_records: u64,
    /// How many came from the WAL tail.
    pub wal_records: u64,
    /// Torn/corrupt WAL tail records cut off (0 or 1).
    pub truncated_records: u64,
    /// Bytes removed by WAL truncation.
    pub truncated_bytes: u64,
    /// Corrupt or stale snapshot files that were rejected (and
    /// removed).
    pub snapshots_rejected: u64,
    /// WAL records skipped because their sequence number was already
    /// covered by the snapshot or by an earlier duplicate (duplicated
    /// tail).
    pub duplicate_records: u64,
    /// The WAL (or a snapshot) was discarded wholesale for a
    /// fingerprint mismatch: configuration changed, state was stale.
    pub stale_discarded: bool,
    /// Leftover `.tmp` files removed.
    pub tmp_files_removed: u64,
}

/// Store health, surfaced through daemon metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreHealth {
    /// Current WAL length in bytes (header included).
    pub wal_bytes: u64,
    /// Generation of the newest published snapshot (0 = none yet).
    pub snapshot_generation: u64,
    /// `fsync` calls issued since open.
    pub fsync_count: u64,
    /// Records appended since open.
    pub appends: u64,
    /// Compactions performed since open.
    pub compactions: u64,
}

/// An open store: an appendable WAL plus the snapshot bookkeeping
/// needed to compact it.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    fingerprint: u64,
    fsync_every: u64,
    generation: u64,
    appends: u64,
    compactions: u64,
    /// fsyncs from WAL instances already retired by compaction.
    fsyncs_retired: u64,
    /// `wal.fsync_count()` at the moment the current WAL was adopted;
    /// syncs before that belong to a previous process.
    fsync_baseline: u64,
}

impl Store {
    /// Open (or create) the store in `dir`, replaying whatever survives
    /// validation. `fsync_every` batches WAL fsyncs (0 = manual only).
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        fsync_every: u64,
    ) -> io::Result<(Store, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let mut report = RecoveryReport {
            tmp_files_removed: remove_tmp_files(dir)?,
            ..RecoveryReport::default()
        };

        // Newest fully-valid snapshot wins; corrupt/stale ones are
        // counted, removed, and skipped.
        let mut snapshot_state: Option<snapshot::Snapshot> = None;
        let mut generations = list_generations(dir)?;
        while let Some(generation) = generations.pop() {
            let path = dir.join(snapshot::snapshot_file_name(generation));
            match read_snapshot(&path, Some(fingerprint))? {
                Ok(snap) => {
                    snapshot_state = Some(snap);
                    break;
                }
                Err(err) => {
                    report.snapshots_rejected += 1;
                    if err == SnapshotError::StaleFingerprint {
                        report.stale_discarded = true;
                    }
                    std::fs::remove_file(&path)?;
                }
            }
        }
        // Older generations than the winner are stale leftovers of an
        // interrupted GC; delete them so fsck sees a single lineage.
        for generation in generations {
            let _ = std::fs::remove_file(dir.join(snapshot::snapshot_file_name(generation)));
        }

        let (mut wal, wal_replay) =
            Wal::open_or_create(&dir.join(WAL_FILE), fingerprint, fsync_every)?;
        report.truncated_records = wal_replay.truncated_records;
        report.truncated_bytes = wal_replay.truncated_bytes;
        if wal_replay.discarded {
            report.stale_discarded = true;
        }

        let (snapshot_last_seq, generation) = match &snapshot_state {
            Some(snap) => (snap.last_seq, snap.generation),
            None => (0, 0),
        };
        let mut seen: HashSet<u64> = HashSet::new();
        if let Some(snap) = snapshot_state {
            report.snapshot_records = snap.records.len() as u64;
            report.records.extend(snap.records);
        }
        for record in wal_replay.records {
            // Records at or below the snapshot horizon are already
            // folded into the snapshot; duplicates within the WAL
            // (duplicated tail) replay once.
            if record.seq <= snapshot_last_seq || !seen.insert(record.seq) {
                report.duplicate_records += 1;
                continue;
            }
            report.wal_records += 1;
            report.records.push(record);
        }
        // The WAL may survive a snapshot that was lost (or vice versa);
        // keep the next sequence number above everything we saw.
        wal.bump_seq(snapshot_last_seq + 1);

        let fsync_baseline = wal.fsync_count();
        Ok((
            Store {
                dir: dir.to_path_buf(),
                wal,
                fingerprint,
                fsync_every,
                generation,
                appends: 0,
                compactions: 0,
                fsyncs_retired: 0,
                fsync_baseline,
            },
            report,
        ))
    }

    /// Append one `(kind, payload)` fact; returns its sequence number.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        self.appends += 1;
        self.wal.append(kind, payload)
    }

    /// Flush and fsync the WAL.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Compact: publish `records` (the caller's full live state) as a
    /// new snapshot and reset the WAL. Sequence numbers stay monotone
    /// across the compaction.
    pub fn compact(&mut self, records: &[(u8, Vec<u8>)]) -> io::Result<()> {
        // Everything appended so far must be on disk before the
        // snapshot claims to cover it.
        self.wal.sync()?;
        let last_seq = self.wal.next_seq() - 1;
        let next_generation = self.generation + 1;
        write_snapshot(
            &self.dir,
            next_generation,
            self.fingerprint,
            last_seq,
            records,
        )?;
        let old_generation = self.generation;
        self.generation = next_generation;
        // Reset the WAL *after* the snapshot is durable; preserve the
        // sequence counter so replay ordering stays global.
        let next_seq = self.wal.next_seq();
        self.fsyncs_retired += self.wal.fsync_count().saturating_sub(self.fsync_baseline);
        self.wal = Wal::create(&self.dir.join(WAL_FILE), self.fingerprint, self.fsync_every)?;
        self.wal.bump_seq(next_seq);
        // Count the fresh WAL's header fsync too.
        self.fsync_baseline = 0;
        // GC the superseded snapshot. Losing this delete to a crash is
        // harmless: recovery keeps the newest valid generation.
        if old_generation > 0 {
            let _ =
                std::fs::remove_file(self.dir.join(snapshot::snapshot_file_name(old_generation)));
            snapshot::sync_dir(&self.dir)?;
        }
        self.compactions += 1;
        Ok(())
    }

    /// Current health counters.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            wal_bytes: self.wal.bytes(),
            snapshot_generation: self.generation,
            fsync_count: self.fsyncs_retired
                + self.wal.fsync_count().saturating_sub(self.fsync_baseline),
            appends: self.appends,
            compactions: self.compactions,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Newest published snapshot generation (0 = none).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Read-only validation of the store in `dir` without opening it for
/// append (used by `fsck`). Returns the same report [`Store::open`]
/// would produce, but mutates nothing.
pub fn inspect(dir: &Path, fingerprint: Option<u64>) -> io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let mut snapshot_state: Option<snapshot::Snapshot> = None;
    let mut generations = list_generations(dir)?;
    while let Some(generation) = generations.pop() {
        let path = dir.join(snapshot::snapshot_file_name(generation));
        match read_snapshot(&path, fingerprint)? {
            Ok(snap) => {
                snapshot_state = Some(snap);
                break;
            }
            Err(err) => {
                report.snapshots_rejected += 1;
                if err == SnapshotError::StaleFingerprint {
                    report.stale_discarded = true;
                }
            }
        }
    }
    let wal_replay = wal::inspect(&dir.join(WAL_FILE), fingerprint)?;
    report.truncated_records = wal_replay.truncated_records;
    report.truncated_bytes = wal_replay.truncated_bytes;
    if wal_replay.discarded {
        report.stale_discarded = true;
    }
    let snapshot_last_seq = snapshot_state.as_ref().map_or(0, |s| s.last_seq);
    if let Some(snap) = snapshot_state {
        report.snapshot_records = snap.records.len() as u64;
        report.records.extend(snap.records);
    }
    let mut seen: HashSet<u64> = HashSet::new();
    for record in wal_replay.records {
        if record.seq <= snapshot_last_seq || !seen.insert(record.seq) {
            report.duplicate_records += 1;
            continue;
        }
        report.wal_records += 1;
        report.records.push(record);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("snapshot.") && name.ends_with(".tmp") {
                report.tmp_files_removed += 1; // would be removed
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn tmp(name: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("dagsched-store-test-{}-{name}", std::process::id()));
        TestDir::new(dir)
    }

    #[test]
    fn append_compact_append_recovers_everything_once() {
        let dir = tmp("basic");
        let (mut store, report) = Store::open(&dir, 7, 0).unwrap();
        assert!(report.records.is_empty());
        for i in 0..5u8 {
            store.append(1, &[i]).unwrap();
        }
        let live: Vec<(u8, Vec<u8>)> = (0..5u8).map(|i| (1, vec![i])).collect();
        store.compact(&live).unwrap();
        for i in 5..8u8 {
            store.append(1, &[i]).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (store, report) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(report.snapshot_records, 5);
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.duplicate_records, 0);
        assert_eq!(report.records.len(), 8);
        let payloads: Vec<u8> = report.records.iter().map(|r| r.payload[0]).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn seq_stays_monotone_across_compaction() {
        let dir = tmp("monotone");
        let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
        let s1 = store.append(1, b"a").unwrap();
        store.compact(&[(1, b"a".to_vec())]).unwrap();
        let s2 = store.append(1, b"b").unwrap();
        assert!(
            s2 > s1,
            "seq must not restart after compaction: {s1} then {s2}"
        );
        store.sync().unwrap();
        drop(store);
        let (_store, report) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn double_open_is_idempotent() {
        let dir = tmp("idempotent");
        let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
        for i in 0..6u8 {
            store.append(2, &[i; 4]).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let (_s1, r1) = Store::open(&dir, 7, 0).unwrap();
        drop(_s1);
        let (_s2, r2) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(r1.records, r2.records);
        assert_eq!(r1.records.len(), 6);
    }

    #[test]
    fn duplicated_wal_tail_replays_once() {
        let dir = tmp("duptail");
        let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
        for i in 0..4u8 {
            store.append(1, &[i]).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // Duplicate the last record's bytes at the end of the WAL.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let rec_len = crate::record::RECORD_HEADER + 1 + crate::record::RECORD_TRAILER;
        let tail = bytes[bytes.len() - rec_len..].to_vec();
        let mut doubled = bytes;
        doubled.extend_from_slice(&tail);
        std::fs::write(&wal_path, &doubled).unwrap();

        let (_store, report) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(report.records.len(), 4, "duplicate tail must replay once");
        assert_eq!(report.duplicate_records, 1);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let dir = tmp("fallback");
        let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
        for i in 0..3u8 {
            store.append(1, &[i]).unwrap();
        }
        store
            .compact(&(0..3u8).map(|i| (1, vec![i])).collect::<Vec<_>>())
            .unwrap();
        store.append(1, &[9]).unwrap();
        store.sync().unwrap();
        let generation = store.generation();
        drop(store);
        // Corrupt the snapshot body.
        let snap_path = dir.join(snapshot::snapshot_file_name(generation));
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap_path, &bytes).unwrap();

        let (store, report) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(report.snapshots_rejected, 1);
        assert_eq!(report.snapshot_records, 0);
        // Snapshot is gone, but the post-compaction WAL record survives.
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].payload, vec![9]);
        assert!(!snap_path.exists(), "corrupt snapshot removed");
        // A fresh compaction starts a new generation lineage.
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn fingerprint_change_discards_all_state() {
        let dir = tmp("staleall");
        let (mut store, _) = Store::open(&dir, 1, 0).unwrap();
        store.append(1, b"old").unwrap();
        store.compact(&[(1, b"old".to_vec())]).unwrap();
        store.append(1, b"older").unwrap();
        store.sync().unwrap();
        drop(store);
        let (_store, report) = Store::open(&dir, 2, 0).unwrap();
        assert!(report.stale_discarded);
        assert!(report.records.is_empty());
        assert_eq!(report.snapshots_rejected, 1);
    }

    #[test]
    fn tmp_snapshot_from_crashed_compaction_is_removed() {
        let dir = tmp("tmpsnap");
        let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
        store.append(1, b"x").unwrap();
        store.sync().unwrap();
        drop(store);
        std::fs::write(dir.join("snapshot.0000000000000001.tmp"), b"partial").unwrap();
        let (_store, report) = Store::open(&dir, 7, 0).unwrap();
        assert_eq!(report.tmp_files_removed, 1);
        assert_eq!(report.records.len(), 1);
        assert!(!dir.join("snapshot.0000000000000001.tmp").exists());
    }

    #[test]
    fn health_counters_track_activity() {
        let dir = tmp("health");
        let (mut store, _) = Store::open(&dir, 7, 2).unwrap();
        for i in 0..5u8 {
            store.append(1, &[i]).unwrap();
        }
        let h = store.health();
        assert_eq!(h.appends, 5);
        assert!(h.wal_bytes > wal::WAL_HEADER as u64);
        assert_eq!(h.snapshot_generation, 0);
        assert!(
            h.fsync_count >= 2,
            "batched fsyncs counted: {}",
            h.fsync_count
        );
        store.compact(&[(1, vec![0])]).unwrap();
        let h = store.health();
        assert_eq!(h.snapshot_generation, 1);
        assert_eq!(h.compactions, 1);
    }
}
