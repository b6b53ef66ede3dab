//! The seeded fault plan: which fault a connection suffers and every
//! parameter of it, all pure functions of `(seed, conn, byte_offset)`.

use crate::mix3;
use dagsched_isa::splitmix64_at;

/// Pump direction through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes flowing from the dialing client toward the upstream
    /// (e.g. router → shard: requests).
    ClientToUpstream,
    /// Bytes flowing from the upstream back to the client
    /// (e.g. shard → router: responses).
    UpstreamToClient,
}

impl Direction {
    /// A stable salt for per-direction draws.
    pub(crate) fn salt(self) -> u64 {
        match self {
            Direction::ClientToUpstream => 0,
            Direction::UpstreamToClient => 1,
        }
    }
}

/// Fault offsets are drawn inside this window so a connection that
/// carries at least a few frames reaches its fault (requests and
/// responses are typically a few hundred bytes to a few KiB).
const OFFSET_WINDOW: u64 = 8 * 1024;

/// Per-mille fault rates plus the stream seed. Rates are laid on
/// `[0, 1000)` cumulatively — one draw per *connection* picks at most
/// one fault class, exactly the `faultinject::FaultConfig` discipline,
/// so `total_per_mille()` is the fraction of faulty connections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for every decision stream.
    pub seed: u64,
    /// ‰ of connections that carry added latency on every chunk.
    pub latency_per_mille: u16,
    /// Fixed latency base, milliseconds.
    pub latency_ms: u64,
    /// Per-chunk jitter bound, milliseconds (uniform in `[0, jitter]`,
    /// drawn from `(seed, conn, chunk)`).
    pub jitter_ms: u64,
    /// ‰ of connections paced to `bytes_per_sec`.
    pub bandwidth_per_mille: u16,
    /// Pacing rate for bandwidth-capped connections.
    pub bytes_per_sec: u64,
    /// ‰ of connections that stall once, mid-stream.
    pub stall_per_mille: u16,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// ‰ of connections that lose one direction (blackhole) at a byte
    /// offset while the other direction keeps flowing.
    pub partition_per_mille: u16,
    /// ‰ of connections hard-closed at a byte offset.
    pub reset_per_mille: u16,
    /// ‰ of connections with one byte corrupted at a drawn offset.
    pub corrupt_per_mille: u16,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            latency_per_mille: 0,
            latency_ms: 150,
            jitter_ms: 100,
            bandwidth_per_mille: 0,
            bytes_per_sec: 16 * 1024,
            stall_per_mille: 0,
            stall_ms: 400,
            partition_per_mille: 0,
            reset_per_mille: 0,
            corrupt_per_mille: 0,
        }
    }
}

/// The fault one connection is assigned for its whole life. Offsets
/// count bytes pumped in the fault's direction since accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Forward faithfully.
    None,
    /// Sleep `base_ms + jitter(chunk)` before forwarding each chunk.
    Latency { base_ms: u64, jitter_ms: u64 },
    /// Pace the connection to this many bytes per second.
    Bandwidth { bytes_per_sec: u64 },
    /// Pause forwarding in `dir` once it crosses byte `at`.
    Stall { dir: Direction, at: u64, ms: u64 },
    /// Blackhole `dir` from byte `at` on; the other direction flows.
    Partition { dir: Direction, at: u64 },
    /// Hard-close the connection when `dir` crosses byte `at`.
    Reset { dir: Direction, at: u64 },
    /// XOR the byte at offset `at` in `dir` with a nonzero mask.
    Corrupt { dir: Direction, at: u64 },
}

impl ChaosConfig {
    /// A quiet config (no faults) under `seed`.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }

    /// The standard ≥10% link-fault mix used by the `--netchaos`
    /// audit: `rate` per-mille split across latency spikes, one-way
    /// partitions, resets, corruption, stalls, and bandwidth caps.
    pub fn standard(seed: u64, rate: u16) -> ChaosConfig {
        // Latency gets the biggest share: it is the gray failure the
        // hedging machinery exists for. The remainder splits evenly.
        let latency = rate / 3;
        let rest = (rate - latency) / 5;
        ChaosConfig {
            seed,
            latency_per_mille: latency,
            bandwidth_per_mille: rest,
            stall_per_mille: rest,
            partition_per_mille: rest,
            reset_per_mille: rest,
            corrupt_per_mille: rate - latency - 4 * rest,
            ..ChaosConfig::default()
        }
    }

    /// Sum of all configured rates (the faulty-connection fraction,
    /// clipped at 1000 by the cumulative layout).
    pub fn total_per_mille(&self) -> u32 {
        u32::from(self.latency_per_mille)
            + u32::from(self.bandwidth_per_mille)
            + u32::from(self.stall_per_mille)
            + u32::from(self.partition_per_mille)
            + u32::from(self.reset_per_mille)
            + u32::from(self.corrupt_per_mille)
    }

    /// The deterministic fault for connection number `conn`.
    pub fn decide(&self, conn: u64) -> ConnFault {
        let draw = splitmix64_at(self.seed, conn) % 1000;
        // Parameter draws live on their own `(seed, conn, salt)`
        // streams so the class draw and the parameters cannot alias.
        let dir = if mix3(self.seed, conn, 1).is_multiple_of(2) {
            Direction::ClientToUpstream
        } else {
            Direction::UpstreamToClient
        };
        let at = mix3(self.seed, conn, 2) % OFFSET_WINDOW;
        let mut bound = u64::from(self.latency_per_mille);
        if draw < bound {
            return ConnFault::Latency {
                base_ms: self.latency_ms,
                jitter_ms: self.jitter_ms,
            };
        }
        bound += u64::from(self.bandwidth_per_mille);
        if draw < bound {
            return ConnFault::Bandwidth {
                bytes_per_sec: self.bytes_per_sec.max(1),
            };
        }
        bound += u64::from(self.stall_per_mille);
        if draw < bound {
            return ConnFault::Stall {
                dir,
                at,
                ms: self.stall_ms,
            };
        }
        bound += u64::from(self.partition_per_mille);
        if draw < bound {
            return ConnFault::Partition { dir, at };
        }
        bound += u64::from(self.reset_per_mille);
        if draw < bound {
            return ConnFault::Reset { dir, at };
        }
        bound += u64::from(self.corrupt_per_mille);
        if draw < bound {
            return ConnFault::Corrupt { dir, at };
        }
        ConnFault::None
    }

    /// Per-chunk latency jitter in `[0, jitter_ms]` for chunk number
    /// `chunk` of connection `conn`.
    pub fn jitter(&self, conn: u64, chunk: u64, jitter_ms: u64) -> u64 {
        if jitter_ms == 0 {
            return 0;
        }
        mix3(self.seed, conn, chunk.wrapping_add(0x4A17)) % (jitter_ms + 1)
    }

    /// The corruption mask for the byte at `offset` in `dir` of
    /// connection `conn` — nonzero, so a corrupted byte always differs.
    pub fn corrupt_mask(&self, conn: u64, dir: Direction, offset: u64) -> u8 {
        let m = (mix3(self.seed, conn.wrapping_add(dir.salt() << 32), offset) & 0xFF) as u8;
        if m == 0 {
            0x55
        } else {
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> ChaosConfig {
        ChaosConfig {
            seed: 1991,
            latency_per_mille: 40,
            bandwidth_per_mille: 10,
            stall_per_mille: 10,
            partition_per_mille: 20,
            reset_per_mille: 10,
            corrupt_per_mille: 10,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn decisions_replay_per_seed_and_differ_across_seeds() {
        let cfg = chaos();
        for conn in 0..256 {
            assert_eq!(cfg.decide(conn), cfg.decide(conn), "conn {conn}");
        }
        let reseeded = ChaosConfig { seed: 7, ..cfg };
        let a: Vec<ConnFault> = (0..512).map(|c| cfg.decide(c)).collect();
        let b: Vec<ConnFault> = (0..512).map(|c| reseeded.decide(c)).collect();
        assert_ne!(a, b, "different seeds must draw different plans");
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let cfg = chaos();
        let n = 100_000u64;
        let mut faulty = 0u64;
        let mut partitions = 0u64;
        for conn in 0..n {
            match cfg.decide(conn) {
                ConnFault::None => {}
                ConnFault::Partition { .. } => {
                    faulty += 1;
                    partitions += 1;
                }
                _ => faulty += 1,
            }
        }
        let per_mille = |c: u64| c as f64 / n as f64 * 1000.0;
        assert!(
            (per_mille(faulty) - 100.0).abs() < 10.0,
            "total fault rate ≈ 10%: {faulty}"
        );
        assert!(
            (per_mille(partitions) - 20.0).abs() < 5.0,
            "partition rate ≈ 2%: {partitions}"
        );
    }

    #[test]
    fn quiet_config_never_injects() {
        let cfg = ChaosConfig::quiet(42);
        assert_eq!(cfg.total_per_mille(), 0);
        for conn in 0..10_000 {
            assert_eq!(cfg.decide(conn), ConnFault::None);
        }
    }

    #[test]
    fn standard_mix_sums_to_the_requested_rate() {
        for rate in [100u16, 150, 250, 999] {
            let cfg = ChaosConfig::standard(9, rate);
            assert_eq!(cfg.total_per_mille(), u32::from(rate), "rate {rate}");
            assert!(cfg.latency_per_mille > 0);
            assert!(cfg.partition_per_mille > 0);
            assert!(cfg.reset_per_mille > 0);
            assert!(cfg.corrupt_per_mille > 0);
        }
    }

    #[test]
    fn corruption_masks_are_nonzero_and_offset_keyed() {
        let cfg = chaos();
        let mut distinct = std::collections::HashSet::new();
        for off in 0..1024u64 {
            let m = cfg.corrupt_mask(3, Direction::UpstreamToClient, off);
            assert_ne!(m, 0, "mask must flip at least one bit");
            distinct.insert(m);
            assert_eq!(m, cfg.corrupt_mask(3, Direction::UpstreamToClient, off));
        }
        assert!(distinct.len() > 32, "masks vary with the byte offset");
    }
}
