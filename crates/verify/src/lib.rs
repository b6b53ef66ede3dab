//! # dagsched-verify
//!
//! A differential correctness harness for the whole workspace. PRs 1–2
//! grew three independent ways to produce a schedule (serial driver,
//! parallel driver, cached service) on top of three DAG construction
//! families and six published schedulers; the paper's central claim is
//! that the cheap table-building constructors and heuristic passes are
//! *equivalent in result* to the expensive compare-against-all baseline.
//! This crate enforces that equivalence mechanically:
//!
//! * [`gen`] — a seeded, structure-diverse random block generator
//!   (layered / fan-in / fan-out / memory-heavy / carry / delay-slot
//!   shapes, plus mutation of workload-profile corpus blocks including
//!   the fpppp large-block profile).
//! * [`matrix`] — the N-way cross-check matrix run on every candidate:
//!   constructor closure equivalence, timing preservation, schedule
//!   dependence validity, `pipesim` interpreter-state equivalence
//!   against the unscheduled block, serial / parallel / cached-service
//!   bit-identity, optimality envelopes on small blocks, and wire
//!   round-trips.
//! * [`shrink`] — a ddmin-style line minimizer that reduces a failing
//!   program to a minimal reproducer that still fails the *same* check.
//! * [`corpus`] — writes shrunk reproducers into a committed
//!   `tests/corpus/` directory and replays them.
//! * [`fuzz`] — the seed/minutes-budgeted driver loop behind
//!   `dagsched fuzz`.
//!
//! Every candidate is canonicalized through the assembly printer and
//! parser before checking, so a reproducer written to disk is byte-for-
//! byte the program the matrix actually saw.

pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod matrix;
pub mod shrink;
pub mod validity;

pub use corpus::{replay_dir, write_reproducer, ReplayFailure};
pub use fuzz::{run_fuzz, FuzzConfig, FuzzOutcome};
pub use gen::{generate_program, mutate_program, Shape};
pub use matrix::{check_text, CheckKind, CheckSummary, Disagreement, MatrixConfig};
pub use shrink::shrink_text;
pub use validity::{check_reordering, check_reordering_text};

/// SplitMix64: the stream splitter used to derive per-iteration seeds
/// from the master fuzz seed (same finalizer as `SeedableRng::seed_from_u64`).
pub(crate) use dagsched_isa::splitmix64;
