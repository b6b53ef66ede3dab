//! # dagsched
//!
//! A reproduction of Smotherman, Krishnamurthy, Aravind and Hunnicutt,
//! *"Efficient DAG Construction and Heuristic Calculation for Instruction
//! Scheduling"* (MICRO-24, 1991), as a reusable Rust library for
//! basic-block instruction scheduling research.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`isa`] — SPARC-like instruction set and machine timing model.
//! * [`core`] — dependence-DAG construction (compare-against-all and
//!   table-building, forward and backward, with transitive-arc-avoidance
//!   variants) and the paper's 26 scheduling heuristics.
//! * [`sched`] — a list-scheduling framework and the six published
//!   scheduling algorithms the paper analyzes.
//! * [`pipesim`] — an in-order pipeline simulator for measuring schedule
//!   quality (stall cycles).
//! * [`workloads`] — synthetic benchmark generation calibrated to the
//!   paper's Table 3, plus a small assembly parser.
//! * [`stats`] — structural statistics and table rendering used by the
//!   experiment harness.
//! * [`driver`] / [`parallel`] / [`batch`] — the whole-program scheduling
//!   driver (serial, sharded across threads, and the limit-enforcing,
//!   cache-aware batch loop behind the service daemon).
//! * [`service`] — the `dagsched-service` daemon: a length-prefixed wire
//!   protocol over TCP / Unix sockets, a fixed worker pool, and a
//!   content-addressed schedule cache (`dagsched serve` /
//!   `dagsched request`).
//! * [`store`] — crash-safe persistence: a checksummed append-only WAL
//!   compacted into atomic snapshot files, with torn-write truncation,
//!   idempotent replay, and an offline `fsck` (`dagsched fsck`).
//! * [`verify`] — the differential correctness harness: structure-diverse
//!   block fuzzing, an N-way cross-check matrix against the simulator
//!   oracle, ddmin shrinking, and the committed reproducer corpus
//!   (`dagsched fuzz` / `dagsched diff`).
//!
//! # Quickstart
//!
//! ```
//! use dagsched::prelude::*;
//!
//! // The paper's Figure 1 block: a 20-cycle divide, then two adds.
//! let mut prog = Program::new();
//! prog.push(Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)));
//! prog.push(Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(8), Reg::f(0)));
//! prog.push(Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(4), Reg::f(10)));
//!
//! let model = MachineModel::sparc2();
//! let dag = build_dag(
//!     &prog.insns,
//!     &model,
//!     ConstructionAlgorithm::TableBackward,
//!     MemDepPolicy::SymbolicExpr,
//! );
//! assert_eq!(dag.node_count(), 3);
//! // The table-building methods retain the "important" transitive RAW arc.
//! assert!(dag.arc_between(NodeId::new(0), NodeId::new(2)).is_some());
//! ```

pub use dagsched_driver::{batch, driver, key, parallel};

pub use dagsched_core as core;
pub use dagsched_isa as isa;
pub use dagsched_netchaos as netchaos;
pub use dagsched_pipesim as pipesim;
pub use dagsched_proto as proto;
pub use dagsched_router as router;
pub use dagsched_sched as sched;
pub use dagsched_service as service;
pub use dagsched_stats as stats;
pub use dagsched_store as store;
pub use dagsched_verify as verify;
pub use dagsched_workloads as workloads;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use dagsched_core::{
        build_dag, ConstructError, ConstructionAlgorithm, Dag, DagArc, HeuristicSet, MemDepPolicy,
        NodeId,
    };
    pub use dagsched_isa::{
        BasicBlock, DepKind, FuncUnit, Instruction, MachineModel, MemRef, Opcode, Program, Reg,
        Resource,
    };
    pub use dagsched_pipesim::{simulate, SimReport};
    pub use dagsched_sched::{Schedule, Scheduler, SchedulerKind};
    pub use dagsched_workloads::{generate, BenchmarkProfile};

    pub use dagsched_core::{default_jobs, PhaseStats, Scratch};

    pub use crate::batch::{schedule_program_batch, BlockCache, LimitError, Limits, NoCache};
    pub use crate::driver::{
        schedule_program, schedule_program_stats, BlockReport, DriverConfig, ScheduledProgram,
    };
    pub use crate::key::{CacheScope, Key};
    pub use crate::parallel::schedule_program_jobs;
}
