//! The daemon's durability wiring: what cache entries and quarantine
//! strikes look like inside the generic `dagsched-store` record stream,
//! plus the compaction policy.
//!
//! `dagsched-store` moves opaque `(kind, payload)` facts; this module
//! owns the application schema:
//!
//! * kind [`KIND_CACHE_ENTRY`] — one schedule-cache entry, encoded by
//!   [`crate::cache::ScheduleCache`] (content key, makespans, delay-slot
//!   fill, emitted order).
//! * kind [`KIND_QUARANTINE`] — one quarantine fact: payload hash
//!   (u64) plus strike count (u32). Replay takes the max strike count
//!   per hash, so a poison payload that crashed two workers before a
//!   `kill -9` is refused *immediately* by the restarted process.
//!
//! # Staleness
//!
//! The store fingerprint hashes the persisted-entry format version, the
//! default driver configuration's `Debug` rendering, and the
//! fingerprints of every machine model in the catalog. Change a
//! latency table, a heuristic default, or the entry encoding and the
//! fingerprint moves — recovery then discards the old state wholesale
//! instead of replaying schedules computed under different rules.
//! (Per-entry keys additionally embed the *request's* model + config,
//! so the fingerprint is belt and braces, not the only defence.)
//!
//! # Compaction
//!
//! The WAL grows by one record per fresh compile. Past
//! [`ServerConfig::wal_snapshot_threshold`](crate::server::ServerConfig)
//! bytes the server folds the live cache + quarantine into a new
//! snapshot generation and resets the WAL; a final compaction runs on
//! graceful drain so a clean shutdown restarts from a snapshot alone.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dagsched_driver::DriverConfig;
use dagsched_isa::{Fnv64, MachineModel};
use dagsched_store::{RecoveryReport, Store, StoreHealth};

/// Record kind: one encoded schedule-cache entry.
pub const KIND_CACHE_ENTRY: u8 = 1;
/// Record kind: one quarantine fact (`payload hash u64 | strikes u32`).
pub const KIND_QUARANTINE: u8 = 2;

/// Version of the *payload* encodings above. Bumping it moves the store
/// fingerprint, which invalidates all persisted state.
pub const PERSIST_FORMAT_VERSION: u32 = 1;

/// Default WAL size that triggers a compaction.
pub const DEFAULT_WAL_SNAPSHOT_THRESHOLD: u64 = 4 << 20;

/// Default fsync batching: one fsync per this many appends.
pub const DEFAULT_FSYNC_EVERY: u64 = 8;

/// The configuration fingerprint stamped on WAL and snapshot headers.
pub fn store_fingerprint() -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(PERSIST_FORMAT_VERSION);
    h.write_str(&format!("{:?}", DriverConfig::default()));
    for model in [
        MachineModel::sparc2(),
        MachineModel::rs6000_like(),
        MachineModel::deep_fpu(),
    ] {
        h.write_u64(model.fingerprint());
    }
    h.finish()
}

/// Encode one quarantine fact.
pub fn encode_quarantine(key: u64, strikes: u32) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..].copy_from_slice(&strikes.to_le_bytes());
    out
}

/// Decode one quarantine fact (`None` on a malformed payload).
pub fn decode_quarantine(bytes: &[u8]) -> Option<(u64, u32)> {
    if bytes.len() != 12 {
        return None;
    }
    Some((
        u64::from_le_bytes(bytes[..8].try_into().ok()?),
        u32::from_le_bytes(bytes[8..].try_into().ok()?),
    ))
}

/// What recovery handed back, split by record kind.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Raw cache-entry payloads, replay order.
    pub cache_entries: Vec<Vec<u8>>,
    /// Quarantine facts, deduplicated to the max strike count per key.
    pub quarantine: Vec<(u64, u32)>,
    /// Records whose kind or payload was unrecognized (skipped).
    pub skipped_records: u64,
    /// The raw store-level report (truncation, rejected snapshots, …).
    pub report: RecoveryReport,
}

/// The open store plus the compaction machinery, shared by every
/// worker.
pub struct Persistence {
    store: Mutex<Store>,
    threshold: u64,
    /// At most one compaction at a time; losers skip rather than queue.
    compacting: AtomicBool,
    /// Appends that failed with an I/O error (durability is degraded
    /// but serving continues; surfaced through metrics).
    append_errors: AtomicU64,
}

impl Persistence {
    /// Open (or create) the store in `dir` and split its recovered
    /// records by kind.
    pub fn open(
        dir: &Path,
        threshold: u64,
        fsync_every: u64,
    ) -> io::Result<(Persistence, Recovered)> {
        let (store, report) = Store::open(dir, store_fingerprint(), fsync_every)?;
        let mut recovered = Recovered::default();
        for record in &report.records {
            match record.kind {
                KIND_CACHE_ENTRY => recovered.cache_entries.push(record.payload.clone()),
                KIND_QUARANTINE => match decode_quarantine(&record.payload) {
                    Some(fact) => recovered.quarantine.push(fact),
                    None => recovered.skipped_records += 1,
                },
                _ => recovered.skipped_records += 1,
            }
        }
        // Later facts win, but a quarantine count can only grow: keep
        // the max per key, preserving first-seen order.
        let mut deduped: Vec<(u64, u32)> = Vec::new();
        for (key, strikes) in recovered.quarantine.drain(..) {
            match deduped.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = slot.1.max(strikes),
                None => deduped.push((key, strikes)),
            }
        }
        recovered.quarantine = deduped;
        recovered.report = report;
        Ok((
            Persistence {
                store: Mutex::new(store),
                threshold,
                compacting: AtomicBool::new(false),
                append_errors: AtomicU64::new(0),
            },
            recovered,
        ))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Append one encoded cache entry (write-through from the cache).
    pub fn append_cache_entry(&self, bytes: &[u8]) {
        if self.lock().append(KIND_CACHE_ENTRY, bytes).is_err() {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append one quarantine fact.
    pub fn append_quarantine(&self, key: u64, strikes: u32) {
        let payload = encode_quarantine(key, strikes);
        // A quarantine fact must not be lost to a crash that follows
        // the very panic it records: sync through immediately.
        let mut store = self.lock();
        let failed = store.append(KIND_QUARANTINE, &payload).is_err() || store.sync().is_err();
        if failed {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Flush and fsync outstanding appends.
    pub fn sync(&self) -> io::Result<()> {
        self.lock().sync()
    }

    /// Current store health plus this layer's append-error count.
    pub fn health(&self) -> StoreHealth {
        self.lock().health()
    }

    /// Appends that failed with an I/O error since open.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Compact now: fold `cache_entries` + `quarantine` into a new
    /// snapshot generation and reset the WAL.
    pub fn compact(
        &self,
        cache_entries: Vec<Vec<u8>>,
        quarantine: &[(u64, u32)],
    ) -> io::Result<()> {
        let mut records: Vec<(u8, Vec<u8>)> =
            Vec::with_capacity(cache_entries.len() + quarantine.len());
        for bytes in cache_entries {
            records.push((KIND_CACHE_ENTRY, bytes));
        }
        for &(key, strikes) in quarantine {
            records.push((KIND_QUARANTINE, encode_quarantine(key, strikes).to_vec()));
        }
        self.lock().compact(&records)
    }

    /// If the WAL has outgrown the threshold (and no other thread is
    /// already compacting), gather live state via `gather` and compact.
    /// Returns whether a compaction ran.
    pub fn maybe_compact_with<F>(&self, gather: F) -> io::Result<bool>
    where
        F: FnOnce() -> (Vec<Vec<u8>>, Vec<(u64, u32)>),
    {
        if self.lock().wal_bytes() < self.threshold {
            return Ok(false);
        }
        if self
            .compacting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Ok(false); // someone else is on it
        }
        let result = {
            let (cache_entries, quarantine) = gather();
            self.compact(cache_entries, &quarantine)
        };
        self.compacting.store(false, Ordering::Release);
        result.map(|()| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A test's state directory, removed when the test ends (also when
    /// it panics).
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

    fn tmp(name: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!(
            "dagsched-persist-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(store_fingerprint(), store_fingerprint());
        assert_ne!(store_fingerprint(), 0);
    }

    #[test]
    fn quarantine_facts_round_trip_and_replay_to_max() {
        let enc = encode_quarantine(0xDEAD_BEEF, 2);
        assert_eq!(decode_quarantine(&enc), Some((0xDEAD_BEEF, 2)));
        assert_eq!(decode_quarantine(&enc[..11]), None);

        let dir = tmp("quarantine");
        let (p, _) = Persistence::open(&dir, u64::MAX, 0).unwrap();
        p.append_quarantine(7, 1);
        p.append_quarantine(9, 1);
        p.append_quarantine(7, 2);
        drop(p);
        let (_p, recovered) = Persistence::open(&dir, u64::MAX, 0).unwrap();
        assert_eq!(recovered.quarantine, vec![(7, 2), (9, 1)]);
    }

    #[test]
    fn cache_entries_survive_compaction_and_restart() {
        let dir = tmp("entries");
        let (p, _) = Persistence::open(&dir, u64::MAX, 0).unwrap();
        p.append_cache_entry(b"entry-one");
        p.append_cache_entry(b"entry-two");
        p.sync().unwrap();
        p.compact(
            vec![b"entry-one".to_vec(), b"entry-two".to_vec()],
            &[(5, 2)],
        )
        .unwrap();
        p.append_cache_entry(b"entry-three");
        p.sync().unwrap();
        drop(p);

        let (p, recovered) = Persistence::open(&dir, u64::MAX, 0).unwrap();
        assert_eq!(
            recovered.cache_entries,
            vec![
                b"entry-one".to_vec(),
                b"entry-two".to_vec(),
                b"entry-three".to_vec()
            ]
        );
        assert_eq!(recovered.quarantine, vec![(5, 2)]);
        assert_eq!(p.health().snapshot_generation, 1);
    }

    #[test]
    fn threshold_compaction_fires_once_past_the_line() {
        let dir = tmp("threshold");
        // Tiny threshold: the first appends already cross it.
        let (p, _) = Persistence::open(&dir, 64, 0).unwrap();
        assert!(
            !p.maybe_compact_with(|| (vec![], vec![])).unwrap(),
            "empty WAL below threshold"
        );
        for i in 0..8u8 {
            p.append_cache_entry(&[i; 16]);
        }
        let ran = p
            .maybe_compact_with(|| ((0..8u8).map(|i| vec![i; 16]).collect(), vec![]))
            .unwrap();
        assert!(ran);
        let health = p.health();
        assert_eq!(health.snapshot_generation, 1);
        assert!(health.wal_bytes < 64, "WAL reset after compaction");
    }

    #[test]
    fn unknown_kinds_are_skipped_not_fatal() {
        let dir = tmp("unknown");
        {
            let (mut store, _) = Store::open(&dir, store_fingerprint(), 0).unwrap();
            store.append(KIND_CACHE_ENTRY, b"good").unwrap();
            store.append(200, b"from the future").unwrap();
            store.append(KIND_QUARANTINE, b"short").unwrap(); // malformed
            store.sync().unwrap();
        }
        let (_p, recovered) = Persistence::open(&dir, u64::MAX, 0).unwrap();
        assert_eq!(recovered.cache_entries, vec![b"good".to_vec()]);
        assert!(recovered.quarantine.is_empty());
        assert_eq!(recovered.skipped_records, 2);
    }
}
