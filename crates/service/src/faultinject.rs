//! Deterministic fault injection for chaos testing.
//!
//! Compiled only behind the `fault-injection` feature: production
//! builds carry none of this machinery. When a [`FaultConfig`] is
//! installed on the server, every request draws one fault decision from
//! a seeded counter-based stream — the same `(seed, request sequence)`
//! pair always yields the same fault, so a chaos run that found a bug
//! replays bit-for-bit from its seed.
//!
//! Injectable faults, mirroring what production serving actually
//! suffers:
//!
//! * **worker panic** — thrown inside the panic-containment boundary,
//!   exercising catch-unwind, arena respawn, and quarantine strikes;
//! * **slow reply** — the worker sleeps before answering, exercising
//!   client per-attempt timeouts and queue backpressure;
//! * **truncated frame** — only a prefix of the response frame is
//!   written before the connection closes, exercising the client's
//!   frame-decode error path and redial;
//! * **corrupt frame** — response payload bytes are flipped,
//!   exercising the undecodable-payload path;
//! * **connection reset** — the socket closes before any response
//!   byte, exercising EOF handling and retry.
//!
//! Rates are expressed per mille (‰) so a whole-percent grid and finer
//! rates both encode exactly. The decision function lays the rates on
//! `[0, 1000)` cumulatively; a draw beyond the configured total means
//! "no fault".

use dagsched_isa::splitmix64_at;

/// Per-mille injection rates plus the stream seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the per-request decision stream.
    pub seed: u64,
    /// ‰ of requests whose worker panics mid-pipeline.
    pub panic_per_mille: u16,
    /// ‰ of requests answered only after [`FaultConfig::slow_ms`].
    pub slow_per_mille: u16,
    /// Injected delay for slow replies, in milliseconds.
    pub slow_ms: u64,
    /// ‰ of responses truncated mid-frame.
    pub truncate_per_mille: u16,
    /// ‰ of responses with corrupted payload bytes.
    pub corrupt_per_mille: u16,
    /// ‰ of responses dropped before any byte is written.
    pub reset_per_mille: u16,
}

/// One request's drawn fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Serve normally.
    None,
    /// Panic inside the worker's containment boundary.
    Panic,
    /// Sleep this many milliseconds before answering.
    Slow(u64),
    /// Write only a prefix of the response frame, then close.
    TruncateFrame,
    /// Flip payload bytes in the response frame, then close.
    CorruptFrame,
    /// Close the connection without writing the response.
    ResetConnection,
}

impl FaultConfig {
    /// Sum of all configured rates (may exceed 1000; excess rates are
    /// effectively clipped by the cumulative layout).
    pub fn total_per_mille(&self) -> u32 {
        u32::from(self.panic_per_mille)
            + u32::from(self.slow_per_mille)
            + u32::from(self.truncate_per_mille)
            + u32::from(self.corrupt_per_mille)
            + u32::from(self.reset_per_mille)
    }

    /// The deterministic fault for request number `seq`.
    pub fn decide(&self, seq: u64) -> Fault {
        let draw = splitmix64_at(self.seed, seq) % 1000;
        let mut bound = u64::from(self.panic_per_mille);
        if draw < bound {
            return Fault::Panic;
        }
        bound += u64::from(self.slow_per_mille);
        if draw < bound {
            return Fault::Slow(self.slow_ms);
        }
        bound += u64::from(self.truncate_per_mille);
        if draw < bound {
            return Fault::TruncateFrame;
        }
        bound += u64::from(self.corrupt_per_mille);
        if draw < bound {
            return Fault::CorruptFrame;
        }
        bound += u64::from(self.reset_per_mille);
        if draw < bound {
            return Fault::ResetConnection;
        }
        Fault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> FaultConfig {
        FaultConfig {
            seed: 1991,
            panic_per_mille: 100,
            slow_per_mille: 100,
            slow_ms: 5,
            truncate_per_mille: 50,
            corrupt_per_mille: 50,
            reset_per_mille: 50,
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_seq() {
        let cfg = chaos();
        for seq in 0..64 {
            assert_eq!(cfg.decide(seq), cfg.decide(seq), "seq {seq}");
        }
        let reseeded = FaultConfig { seed: 7, ..cfg };
        let a: Vec<Fault> = (0..256).map(|s| cfg.decide(s)).collect();
        let b: Vec<Fault> = (0..256).map(|s| reseeded.decide(s)).collect();
        assert_ne!(a, b, "different seeds must draw different streams");
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let cfg = chaos();
        let n = 100_000u64;
        let mut counts = [0u64; 6];
        for seq in 0..n {
            let idx = match cfg.decide(seq) {
                Fault::None => 0,
                Fault::Panic => 1,
                Fault::Slow(ms) => {
                    assert_eq!(ms, cfg.slow_ms);
                    2
                }
                Fault::TruncateFrame => 3,
                Fault::CorruptFrame => 4,
                Fault::ResetConnection => 5,
            };
            counts[idx] += 1;
        }
        // 10% ± 1 point for the two big rates, 5% ± 1 for the rest.
        let pct = |c: u64| c as f64 / n as f64 * 1000.0;
        assert!((pct(counts[1]) - 100.0).abs() < 10.0, "panic {:?}", counts);
        assert!((pct(counts[2]) - 100.0).abs() < 10.0, "slow {:?}", counts);
        assert!((pct(counts[3]) - 50.0).abs() < 10.0, "trunc {:?}", counts);
        assert!((pct(counts[4]) - 50.0).abs() < 10.0, "corrupt {:?}", counts);
        assert!((pct(counts[5]) - 50.0).abs() < 10.0, "reset {:?}", counts);
        assert_eq!(counts.iter().sum::<u64>(), n);
    }

    #[test]
    fn zero_config_never_injects() {
        let cfg = FaultConfig::default();
        assert_eq!(cfg.total_per_mille(), 0);
        for seq in 0..10_000 {
            assert_eq!(cfg.decide(seq), Fault::None);
        }
    }
}
