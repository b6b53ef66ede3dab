//! Seeded storage-level fault injection (behind the `fault-injection`
//! feature): deterministic corruption of a store directory, used by the
//! crash-loop chaos harness to prove recovery holds under real damage,
//! not just clean shutdowns.
//!
//! Everything is a pure function of `(seed, cycle)` via splitmix64, so
//! a failing chaos run replays exactly from its seed. Test-only
//! machinery — never compiled into a production build.

use std::fs::OpenOptions;
use std::io;
use std::path::Path;

use dagsched_isa::{splitmix64, splitmix64_at};

use crate::snapshot;
use crate::store::WAL_FILE;
use crate::wal::WAL_HEADER;

/// The storage faults the injector can deal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Cut bytes off the final WAL record (a write interrupted by
    /// `kill -9` mid-append).
    TornFinalRecord,
    /// Flip one bit somewhere in the WAL body (bit rot, torn sector).
    WalBitFlip,
    /// Truncate the newest snapshot mid-body (crash between tmp-write
    /// and rename would normally prevent this; models an fsync lie).
    TruncatedSnapshot,
    /// Append a copy of the WAL's final record (a copy-truncate backup
    /// gone wrong; replay must deduplicate by sequence number).
    DuplicatedWalTail,
}

impl std::fmt::Display for StorageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageFault::TornFinalRecord => f.write_str("torn-final-record"),
            StorageFault::WalBitFlip => f.write_str("wal-bit-flip"),
            StorageFault::TruncatedSnapshot => f.write_str("truncated-snapshot"),
            StorageFault::DuplicatedWalTail => f.write_str("duplicated-wal-tail"),
        }
    }
}

/// Deterministic stream of faults for `(seed, cycle)`.
pub fn fault_for(seed: u64, cycle: u64) -> StorageFault {
    let mut s = seed ^ cycle.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    match splitmix64(&mut s) % 4 {
        0 => StorageFault::TornFinalRecord,
        1 => StorageFault::WalBitFlip,
        2 => StorageFault::TruncatedSnapshot,
        _ => StorageFault::DuplicatedWalTail,
    }
}

/// What the injector actually did (None = nothing to corrupt: the
/// chosen target file was missing or too small).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Which fault was applied.
    pub fault: StorageFault,
    /// The file it hit.
    pub file: String,
    /// Byte offset or count involved (fault-specific detail).
    pub detail: u64,
}

/// Apply the `(seed, cycle)` fault to the store in `dir`. Returns what
/// was done, or `None` when the chosen target did not exist / had no
/// bytes worth corrupting (e.g. a bit flip aimed at an empty WAL).
pub fn inject(dir: &Path, seed: u64, cycle: u64) -> io::Result<Option<InjectedFault>> {
    let fault = fault_for(seed, cycle);
    let mut s =
        seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ cycle.wrapping_add(0x1657_67B5_92A4_C7B1);
    let roll = splitmix64(&mut s);
    match fault {
        StorageFault::TornFinalRecord => {
            let path = dir.join(WAL_FILE);
            let Ok(meta) = std::fs::metadata(&path) else {
                return Ok(None);
            };
            let len = meta.len();
            if len <= WAL_HEADER as u64 + 1 {
                return Ok(None);
            }
            // Cut 1..=16 bytes, never into the header.
            let cut = 1 + roll % 16;
            let cut = cut.min(len - WAL_HEADER as u64);
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(len - cut)?;
            file.sync_all()?;
            Ok(Some(InjectedFault {
                fault,
                file: WAL_FILE.to_string(),
                detail: cut,
            }))
        }
        StorageFault::WalBitFlip => {
            let path = dir.join(WAL_FILE);
            let Ok(mut bytes) = std::fs::read(&path) else {
                return Ok(None);
            };
            if bytes.len() <= WAL_HEADER {
                return Ok(None);
            }
            let span = bytes.len() - WAL_HEADER;
            let target = WAL_HEADER + (roll as usize % span);
            // Counter `u64::MAX` cancels the counter-mode increment,
            // leaving the bare finalizer of `roll`.
            bytes[target] ^= 1 << (splitmix64_at(roll, u64::MAX) % 8);
            std::fs::write(&path, &bytes)?;
            Ok(Some(InjectedFault {
                fault,
                file: WAL_FILE.to_string(),
                detail: target as u64,
            }))
        }
        StorageFault::TruncatedSnapshot => {
            let gens = snapshot::list_generations(dir)?;
            let Some(&generation) = gens.last() else {
                return Ok(None);
            };
            let name = snapshot::snapshot_file_name(generation);
            let path = dir.join(&name);
            let len = std::fs::metadata(&path)?.len();
            if len <= 1 {
                return Ok(None);
            }
            // Cut somewhere in the back half so the header usually
            // survives and the *body* check has to catch it.
            let keep = len / 2 + roll % (len / 2).max(1);
            let keep = keep.min(len - 1);
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(keep)?;
            file.sync_all()?;
            Ok(Some(InjectedFault {
                fault,
                file: name,
                detail: len - keep,
            }))
        }
        StorageFault::DuplicatedWalTail => {
            let path = dir.join(WAL_FILE);
            let Ok(bytes) = std::fs::read(&path) else {
                return Ok(None);
            };
            if bytes.len() <= WAL_HEADER {
                return Ok(None);
            }
            // Re-append the final record's bytes. Locate it by decoding
            // forward from the header.
            let mut offset = WAL_HEADER;
            let mut last = None;
            while let crate::record::Decoded::Record(_, used) =
                crate::record::decode_record(&bytes[offset..])
            {
                last = Some((offset, used));
                offset += used;
            }
            let Some((start, used)) = last else {
                return Ok(None);
            };
            let tail = bytes[start..start + used].to_vec();
            let mut doubled = bytes;
            doubled.extend_from_slice(&tail);
            std::fs::write(&path, &doubled)?;
            Ok(Some(InjectedFault {
                fault,
                file: WAL_FILE.to_string(),
                detail: used as u64,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dagsched-storefault-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fault_stream_is_deterministic_and_mixed() {
        let a: Vec<StorageFault> = (0..32).map(|c| fault_for(0xDA65, c)).collect();
        let b: Vec<StorageFault> = (0..32).map(|c| fault_for(0xDA65, c)).collect();
        assert_eq!(a, b);
        // All four faults appear within a modest window.
        for fault in [
            StorageFault::TornFinalRecord,
            StorageFault::WalBitFlip,
            StorageFault::TruncatedSnapshot,
            StorageFault::DuplicatedWalTail,
        ] {
            assert!(a.contains(&fault), "{fault} never dealt in 32 cycles");
        }
    }

    #[test]
    fn every_injected_fault_recovers_without_error() {
        for cycle in 0..24u64 {
            let dir = tmp(&format!("recover-{cycle}"));
            let (mut store, _) = Store::open(&dir, 7, 0).unwrap();
            for i in 0..6u8 {
                store.append(1, &[i; 9]).unwrap();
            }
            store
                .compact(&(0..6u8).map(|i| (1, vec![i; 9])).collect::<Vec<_>>())
                .unwrap();
            for i in 6..10u8 {
                store.append(1, &[i; 9]).unwrap();
            }
            store.sync().unwrap();
            drop(store);

            let injected = inject(&dir, 0xC0FFEE, cycle).unwrap();
            // Recovery must never error, and every surviving record
            // must be one we actually wrote.
            let (_store, report) = Store::open(&dir, 7, 0).unwrap();
            for rec in &report.records {
                assert_eq!(rec.kind, 1);
                assert!(rec.payload.len() == 9, "foreign record after {injected:?}");
                assert!(rec.payload[0] < 10);
            }
            // And a second open agrees with the first (repair is
            // idempotent).
            let (_s2, r2) = Store::open(&dir, 7, 0).unwrap();
            assert_eq!(report.records, r2.records, "after {injected:?}");
        }
    }
}
