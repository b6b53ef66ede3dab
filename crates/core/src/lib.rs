//! Dependence-DAG construction and heuristic calculation for basic-block
//! instruction scheduling.
//!
//! This crate is the primary contribution of the `dagsched` workspace's
//! reproduction of Smotherman, Krishnamurthy, Aravind and Hunnicutt,
//! *"Efficient DAG Construction and Heuristic Calculation for Instruction
//! Scheduling"* (MICRO-24, 1991):
//!
//! * [`construct`] — the three DAG construction algorithms the paper
//!   measures (compare-against-all `n**2` forward, table-building forward
//!   and backward), plus the two transitive-arc-avoidance variants it
//!   evaluates and recommends against (Landskov pruning, reachability
//!   bitmaps).
//! * [`heur`] — the paper's 26-heuristic survey (Table 1): static
//!   heuristics calculated at construction time, by forward or backward
//!   passes (reverse-walk and level-list variants), and the dynamic
//!   scheduler-time state.
//! * [`MemDepPolicy`] — memory disambiguation policies, from full
//!   serialization to Warren's storage classes and the paper's
//!   unique-symbolic-expression policy.
//! * [`closure`] — ground-truth dependence relations and transitive
//!   closure comparison, backing the property tests.
//!
//! # Example: Figure 1
//!
//! ```
//! use dagsched_core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy, NodeId};
//! use dagsched_isa::{Instruction, MachineModel, Opcode, Reg};
//!
//! // 1: DIVF R1,R2,R3   2: ADDF R4,R5,R1   3: ADDF R1,R3,R6
//! let insns = vec![
//!     Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
//!     Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
//!     Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
//! ];
//! let model = MachineModel::sparc2();
//! let dag = build_dag(&insns, &model, ConstructionAlgorithm::TableBackward,
//!                     MemDepPolicy::SymbolicExpr);
//! // Table building retains the transitive 20-cycle RAW arc…
//! assert_eq!(dag.arc_between(NodeId::new(0), NodeId::new(2)).unwrap().latency, 20);
//! // …so the earliest-start-time heuristic is exact.
//! let h = HeuristicSet::compute(&dag, &insns, &model, false);
//! assert_eq!(h.est[2], 20);
//! ```

mod bitset;
pub mod closure;
pub mod construct;
mod dag;
pub mod heur;
mod memdep;
mod prepare;
mod scratch;
mod viz;

pub use bitset::{BitMatrix, BitSet};
pub use construct::{
    build_dag, n2_backward, n2_forward, n2_forward_landskov, strongest_dep, table_backward,
    table_backward_bitmap, table_forward, ConstructionAlgorithm, PassDirection,
};
pub use dag::{ArcId, ConstructError, Dag, DagArc, NodeId, MAX_NODES};
pub use heur::{
    annotate_backward, annotate_backward_cp, annotate_construction, annotate_forward,
    compute_levels, heuristic_catalog, BackwardOrder, Basis, Category, DynState, HeuristicId,
    HeuristicInfo, HeuristicPasses, HeuristicSet, PassKind,
};
pub use memdep::{MemDepPolicy, MemKey, MemOp, StorageClass};
pub use prepare::{
    reg_resource_id, PreparedBlock, PreparedLists, RegDefs, RegUses, ResourceMasks, MEM_MASK_BIT,
    REG_RESOURCE_COUNT,
};
pub use scratch::{
    default_jobs, map_blocks_with_scratch, PhaseStats, SchedStorage, Scratch, SCRATCH_KEEP_BYTES,
};
pub use viz::{dump_annotations, to_dot};
