//! A seeded fault-injecting wire proxy for chaos-testing the serving
//! stack (toxiproxy-shaped, zero dependencies, std only).
//!
//! The proxy interposes on any client↔router↔shard link: it listens on
//! one endpoint, dials a fixed upstream for every accepted connection,
//! and pumps bytes both ways while injecting *link-level* faults that
//! in-process fault injection (`dagsched-service`'s `faultinject`)
//! cannot express:
//!
//! * **latency** — fixed base plus per-chunk jitter, store-and-forward;
//! * **bandwidth caps** — pacing to a configured bytes/second;
//! * **mid-frame stalls** — a one-shot pause at a byte offset, landing
//!   inside a wire frame more often than between them;
//! * **one-way (asymmetric) partitions** — one direction blackholed
//!   (bytes read and discarded) while the other keeps flowing, the
//!   classic gray failure a binary up/down health model cannot see;
//! * **connection resets** — a hard close at a byte offset;
//! * **byte corruption** — a deterministic bit flip at a byte offset.
//!
//! # Determinism
//!
//! Every decision reuses the splitmix64 counter discipline from
//! `faultinject.rs`: the fault class for a connection is drawn from
//! `(seed, conn)` with the same cumulative per-mille layout, and every
//! parameter of the fault — offsets, jitter, the corruption mask — is
//! drawn from `(seed, conn, byte_offset)`. The same seed therefore
//! replays the same chaos bit-for-bit, so a run that found a routing
//! bug is a reproducer, not an anecdote.
//!
//! # Runtime toxics
//!
//! Tests that need a *scripted* failure (drop the router→shard
//! direction mid-request, then heal it) use [`Toxics`] on the
//! [`ProxyHandle`] instead of the seeded plan: partitions per
//! direction, added latency, and a reset of every live connection can
//! be toggled while the proxy runs.

mod plan;
mod proxy;

use dagsched_isa::splitmix64_at;

pub use plan::{ChaosConfig, ConnFault, Direction};
pub use proxy::{serve_proxy, ProxyHandle, ProxyMetrics, ProxySnapshot, Toxics};

/// A draw keyed on `(seed, conn, byte_offset)`: two counter-mode
/// SplitMix64 rounds so the connection and offset counters cannot
/// alias.
pub(crate) fn mix3(seed: u64, conn: u64, offset: u64) -> u64 {
    splitmix64_at(splitmix64_at(seed, conn), offset)
}
