//! Offline store validation and repair (`dagsched fsck <dir>`).
//!
//! [`check`] is strictly read-only: it walks the snapshot lineage and
//! the WAL exactly the way recovery would, and reports every issue it
//! finds without touching a byte. [`repair`] performs the same
//! mutations [`crate::store::Store::open`] would — truncating torn WAL
//! tails, deleting corrupt snapshots and leftover `.tmp` files — and
//! then re-checks, so a repaired store opens clean.

use std::io;
use std::path::Path;

use crate::store::{self, RecoveryReport, Store};

/// The outcome of an offline check.
#[derive(Debug, Default, Clone)]
pub struct FsckReport {
    /// Human-readable issues, one per problem found. Empty = clean.
    pub issues: Vec<String>,
    /// Records that survive validation (what recovery would replay).
    pub live_records: u64,
    /// Records contributed by the newest valid snapshot.
    pub snapshot_records: u64,
    /// Records contributed by the WAL tail.
    pub wal_records: u64,
    /// The raw recovery report backing this summary.
    pub recovery: RecoveryReport,
}

impl FsckReport {
    /// True when the store would recover without losing or repairing
    /// anything.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }
}

fn summarize(report: RecoveryReport) -> FsckReport {
    let mut issues = Vec::new();
    if report.stale_discarded {
        issues
            .push("stale state: fingerprint mismatch, snapshot/WAL would be discarded".to_string());
    }
    if report.truncated_records > 0 {
        issues.push(format!(
            "torn/corrupt WAL tail: {} record(s), {} byte(s) would be truncated",
            report.truncated_records, report.truncated_bytes
        ));
    }
    if report.snapshots_rejected > 0 {
        issues.push(format!(
            "{} corrupt or stale snapshot file(s) would be removed",
            report.snapshots_rejected
        ));
    }
    if report.tmp_files_removed > 0 {
        issues.push(format!(
            "{} leftover snapshot .tmp file(s) from a crashed compaction",
            report.tmp_files_removed
        ));
    }
    if report.duplicate_records > 0 {
        issues.push(format!(
            "{} duplicate WAL record(s) (duplicated tail); replay deduplicates by sequence",
            report.duplicate_records
        ));
    }
    FsckReport {
        live_records: report.records.len() as u64,
        snapshot_records: report.snapshot_records,
        wal_records: report.wal_records,
        issues,
        recovery: report,
    }
}

/// Read-only check of the store in `dir`. Pass the configuration
/// fingerprint to also flag stale state; `None` skips that check.
pub fn check(dir: &Path, fingerprint: Option<u64>) -> io::Result<FsckReport> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("not a store directory: {}", dir.display()),
        ));
    }
    Ok(summarize(store::inspect(dir, fingerprint)?))
}

/// Repair the store in `dir` (requires the fingerprint, because repair
/// must decide whether state is stale): truncate the torn WAL tail,
/// remove corrupt snapshots and `.tmp` leftovers. Returns the
/// post-repair report, which should be clean.
pub fn repair(dir: &Path, fingerprint: u64) -> io::Result<FsckReport> {
    // Store::open *is* the repair procedure; run it, then re-check.
    let (_store, _report) = Store::open(dir, fingerprint, 0)?;
    drop(_store);
    check(dir, Some(fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn tmp(name: &str) -> TestDir {
        let dir =
            std::env::temp_dir().join(format!("dagsched-fsck-test-{}-{name}", std::process::id()));
        TestDir::new(dir)
    }

    fn build_store(dir: &Path) {
        let (mut store, _) = Store::open(dir, 7, 0).unwrap();
        for i in 0..4u8 {
            store.append(1, &[i]).unwrap();
        }
        store
            .compact(&(0..4u8).map(|i| (1, vec![i])).collect::<Vec<_>>())
            .unwrap();
        store.append(1, &[9]).unwrap();
        store.sync().unwrap();
    }

    #[test]
    fn clean_store_checks_clean() {
        let dir = tmp("clean");
        build_store(&dir);
        let report = check(&dir, Some(7)).unwrap();
        assert!(report.clean(), "{:?}", report.issues);
        assert_eq!(report.live_records, 5);
        assert_eq!(report.snapshot_records, 4);
        assert_eq!(report.wal_records, 1);
    }

    #[test]
    fn torn_tail_flags_then_repairs() {
        let dir = tmp("torn");
        build_store(&dir);
        let wal = dir.join(store::WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let report = check(&dir, Some(7)).unwrap();
        assert!(!report.clean());
        assert!(
            report.issues.iter().any(|i| i.contains("torn")),
            "{:?}",
            report.issues
        );
        // check() must not have fixed anything.
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), len - 2);

        let repaired = repair(&dir, 7).unwrap();
        assert!(repaired.clean(), "{:?}", repaired.issues);
        assert_eq!(repaired.live_records, 4, "torn record lost, prefix kept");
    }

    #[test]
    fn corrupt_snapshot_flags_then_repairs() {
        let dir = tmp("snapcorrupt");
        build_store(&dir);
        let snap = dir.join(crate::snapshot::snapshot_file_name(1));
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[crate::snapshot::SNAPSHOT_HEADER + 3] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();

        let report = check(&dir, Some(7)).unwrap();
        assert!(!report.clean());
        assert!(snap.exists(), "check is read-only");
        let repaired = repair(&dir, 7).unwrap();
        assert!(repaired.clean(), "{:?}", repaired.issues);
        assert!(!snap.exists(), "repair removes the corrupt snapshot");
        // Only the post-compaction WAL record survives.
        assert_eq!(repaired.live_records, 1);
    }

    #[test]
    fn missing_dir_is_an_error() {
        let dir = tmp("missing");
        assert!(check(&dir, None).is_err());
    }
}
