//! List scheduling for basic blocks: a configurable framework and the six
//! published algorithms analyzed in the paper's Table 2.
//!
//! * [`ListScheduler`] — forward/backward list-scheduling drivers with
//!   pluggable candidate gating and selection strategies.
//! * [`SelectStrategy`] — winnowing vs. single-priority-value combination
//!   over the common [`HeurKey`] vocabulary (paper §5).
//! * [`Scheduler`] / [`SchedulerKind`] — Gibbons & Muchnick,
//!   Krishnamurthy (with postpass fixup), Schlansker, Shieh &
//!   Papachristou, Tiemann/GCC and Warren, each paired with its DAG
//!   construction method.
//! * [`ReservationTable`] — explicit structural-hazard bookkeeping.
//! * [`algorithm_catalog`] — regenerates Table 2 from the live configs.
//!
//! # Example
//!
//! ```
//! use dagsched_isa::{Instruction, MachineModel, Opcode, Reg};
//! use dagsched_sched::{Scheduler, SchedulerKind};
//!
//! let insns = vec![
//!     Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
//!     Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
//!     Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
//! ];
//! let model = MachineModel::sparc2();
//! let schedule = Scheduler::new(SchedulerKind::Warren).schedule_block(&insns, &model);
//! assert_eq!(schedule.len(), 3);
//! // The independent add is hoisted into the divide's shadow.
//! assert_eq!(schedule.order[1].index(), 2);
//! ```

mod algorithms;
mod carry;
mod catalog;
mod commute;
mod delayslot;
mod fixup;
mod framework;
mod optimal;
mod regalloc;
mod resched;
mod reservation;
mod schedule;
mod selector;
mod two_phase;

pub use algorithms::{Scheduler, SchedulerKind};
pub use carry::{carry_out, entry_constraints, schedule_with_inheritance, CarryOut};
pub use catalog::{algorithm_catalog, AlgorithmInfo, RankedHeuristic};
pub use commute::{commute_for_bypass, is_commutative};
pub use delayslot::{emit_order, fill_branch_delay_slot, SlotFill, NOP_SLOT};
pub use fixup::fixup_delay_slots;
pub use framework::{Gating, ListScheduler, SchedDirection};
pub use optimal::{BranchAndBound, OptimalResult};
pub use regalloc::{max_register_pressure, AllocResult, LinearScan};
pub use resched::ReservationScheduler;
pub use reservation::{usage_of, ReservationTable, UnitUsage};
pub use schedule::Schedule;
pub use selector::{Criterion, HeurKey, SelectCtx, SelectStrategy, Sense};
pub use two_phase::{TwoPhase, TwoPhaseResult};
