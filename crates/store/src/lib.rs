//! `dagsched-store`: crash-safe persistence for the scheduling daemon.
//!
//! A *store* is a directory holding an append-only, checksummed
//! write-ahead log ([`wal`]) periodically compacted into atomic,
//! generation-numbered snapshot files ([`snapshot`]). The combined
//! [`store::Store`] recovers by replaying snapshot-then-WAL,
//! truncating at the first torn or corrupt record, deduplicating by
//! sequence number, and discarding state wholesale when the
//! configuration fingerprint changed. [`fsck`] validates (and repairs)
//! a store offline.
//!
//! The crate is deliberately **std-only and application-agnostic**: it
//! moves `(kind: u8, payload: bytes)` facts, nothing else. What a cache
//! entry or a quarantine strike looks like on the wire is the service
//! layer's business (`dagsched-service::persist`), so the durability
//! code never drags the scheduling pipeline into its dependency cone —
//! and can be hammered by property tests without building a DAG.
//!
//! # Durability invariants
//!
//! 1. **Prefix durability.** After any crash, the recovered record
//!    sequence is a prefix of the appended sequence (up to the last
//!    `fsync` barrier), possibly minus one torn tail record.
//! 2. **Torn-write truncation.** Recovery physically truncates the WAL
//!    at the first torn/corrupt record; everything before it is intact
//!    by per-record checksums.
//! 3. **Idempotent replay.** Re-opening, double-replaying, or replaying
//!    a duplicated tail converges to the same state (dedup by seq).
//! 4. **Snapshot atomicity.** A snapshot is visible in full or not at
//!    all (tmp-write + fsync + rename + dir fsync); a partial snapshot
//!    is rejected wholesale and recovery falls back to the WAL.
//! 5. **Stale-state self-invalidation.** Snapshot and WAL headers carry
//!    a configuration fingerprint; a mismatch discards the state rather
//!    than replaying entries computed under different latencies.

pub mod fsck;
pub mod record;
pub mod ship;
pub mod snapshot;
pub mod store;
pub mod wal;

#[cfg(feature = "fault-injection")]
pub mod faultinject;

pub use record::{CorruptKind, Decoded, Record};
pub use ship::{ShipDecodeError, Shipment};
pub use store::{RecoveryReport, Store, StoreHealth};
pub use wal::{Wal, WalReplay};

#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::{Path, PathBuf};

    /// A test's scratch directory: any stale copy is removed first, and
    /// the directory is removed when the guard drops, also when the
    /// test panics.
    pub(crate) struct TestDir(PathBuf);

    impl TestDir {
        pub(crate) fn new(path: PathBuf) -> TestDir {
            let _ = std::fs::remove_dir_all(&path);
            TestDir(path)
        }
    }

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
}
