//! SPARC-like instruction set and machine timing model.
//!
//! This crate is the *machine substrate* for the `dagsched` workspace, a
//! reproduction of Smotherman, Krishnamurthy, Aravind and Hunnicutt,
//! *"Efficient DAG Construction and Heuristic Calculation for Instruction
//! Scheduling"* (MICRO-24, 1991). The paper measures DAG construction and
//! list scheduling over SPARC assembly produced by late-1980s compilers;
//! this crate models the relevant slice of that world:
//!
//! * [`Reg`] / [`Resource`] — architectural resources on which data
//!   dependencies (RAW / WAR / WAW) are computed: integer and floating
//!   point registers, condition codes, the `%y` register, and interned
//!   symbolic memory expressions ([`MemExprPool`]).
//! * [`Opcode`] / [`Instruction`] — a SPARC-flavoured operation set with
//!   enough structure for dependence analysis: definitions and uses,
//!   double-word register pairs, condition-code effects, delay slots.
//! * [`MachineModel`] — the timing rules used to weight DAG arcs: per-opcode
//!   result latencies, short WAR delays, asymmetric bypass adjustments
//!   (IBM RS/6000-style second-operand penalties, store forwarding
//!   discounts, double-word load pair skew) and the function-unit pool used
//!   for structural hazards.
//! * [`Program`] / [`BasicBlock`] — basic-block partitioning with the
//!   paper's counting conventions (delay slot instructions belong to the
//!   *following* block; calls and register-window instructions end blocks).
//!
//! # Example
//!
//! ```
//! use dagsched_isa::{Instruction, MachineModel, Opcode, Program, Reg};
//!
//! let mut prog = Program::new();
//! prog.push(Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)));
//! prog.push(Instruction::fp3(Opcode::FAddD, Reg::f(6), Reg::f(8), Reg::f(0)));
//! let model = MachineModel::sparc2();
//! assert_eq!(model.exec_latency(&prog.insns[0]), 20);
//! let blocks = prog.basic_blocks();
//! assert_eq!(blocks.len(), 1);
//! ```

mod block;
mod fingerprint;
mod insn;
mod machine;
mod memexpr;
mod opcode;
mod reg;

pub use block::{BasicBlock, Program};
pub use fingerprint::{fnv64, splitmix64, splitmix64_at, Fnv64};
pub use insn::{Instruction, MemRef};
pub use machine::{DepKind, FuncUnit, MachineModel, UnitDesc};
pub use memexpr::{MemExprId, MemExprPool};
pub use opcode::{InsnClass, MemAccessKind, Opcode};
pub use reg::{Reg, RegClass, Resource};
