//! # dagsched-driver
//!
//! The whole-program scheduling driver for the `dagsched` workspace: the
//! paper's per-block machinery — DAG construction, heuristic calculation,
//! list scheduling — composed into the pass a compiler backend (or a
//! long-running scheduling service) actually runs.
//!
//! * [`driver`] — per-block compilation ([`driver::compile_block`]) and
//!   the serial whole-program entry points.
//! * [`parallel`] — the same pipeline sharded across worker threads with
//!   bit-identical output.
//! * [`batch`] — the unified batch loop every entry point delegates to,
//!   plus the robustness hooks a served deployment needs: per-request
//!   [`batch::Limits`] (deadline, max block size) enforced by one
//!   implementation shared between the CLI and the service, and the
//!   [`batch::BlockCache`] interposition point that lets a
//!   content-addressed schedule cache skip compilation of repeated
//!   blocks entirely.
//! * [`key`] — the cache key's format: the configuration half
//!   ([`key::CacheScope`]) and the block half, in one module.
//!
//! This crate sits between the algorithmic crates (`dagsched-core`,
//! `dagsched-sched`) and the front ends (the `dagsched` CLI facade and
//! `dagsched-service` daemon), so both front ends drive the exact same
//! block loop.

pub mod batch;
pub mod driver;
pub mod key;
pub mod parallel;

pub use batch::{
    schedule_program_batch, schedule_program_batch_scratch, BlockCache, DegradeLevel,
    DegradePolicy, LimitError, Limits, NoCache,
};
pub use driver::{
    compile_block, schedule_program, schedule_program_stats, BlockOutcome, BlockReport,
    DriverConfig, ScheduledProgram,
};
pub use key::{block_key, CacheScope, Key};
pub use parallel::schedule_program_jobs;
