//! DAG construction algorithms.
//!
//! The paper compares two families (§2, §6):
//!
//! * **Compare-against-all** (`n**2`): each new node is compared against
//!   every previous node. Produces an arc for *every* dependent pair,
//!   including a huge number of transitive arcs.
//! * **Table building**: keep a record of the last definition and the set
//!   of current uses per resource. Omits most transitive arcs but — the
//!   paper's Figure 1 point — *retains* the important ones whose timing
//!   information is not implied by shorter paths.
//!
//! Two transitive-arc-avoidance variants that the paper evaluates and
//! recommends **against** are also implemented so the recommendation can
//! be reproduced: the Landskov et al. leaf-first pruning modification of
//! the forward `n**2` algorithm, and reachability-bitmap suppression in
//! backward table building.

mod landskov;
mod n2;
pub(crate) mod table;

pub use landskov::n2_forward_landskov;
pub use n2::{n2_backward, n2_forward, strongest_dep};
pub use table::{table_backward, table_backward_bitmap, table_forward};

use std::time::Instant;

use dagsched_isa::{Instruction, MachineModel};

use crate::dag::Dag;
use crate::memdep::MemDepPolicy;
use crate::prepare::PreparedBlock;
use crate::scratch::Scratch;

/// Direction of the pass a construction algorithm makes over the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassDirection {
    /// First instruction to last.
    Forward,
    /// Last instruction to first.
    Backward,
}

impl PassDirection {
    /// One-letter code used in the paper's tables (`f` / `b`).
    pub fn code(self) -> &'static str {
        match self {
            PassDirection::Forward => "f",
            PassDirection::Backward => "b",
        }
    }
}

/// The DAG construction algorithms compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructionAlgorithm {
    /// Compare-against-all, forward pass (Warren-like).
    N2Forward,
    /// Compare-against-all, backward pass (Gibbons & Muchnick use this to
    /// handle condition-code dependencies specially). Produces the same
    /// arc set as [`ConstructionAlgorithm::N2Forward`] — the comparison is
    /// symmetric — so only the pass direction differs.
    N2Backward,
    /// Compare-against-all, forward pass, with Landskov et al. leaf-first
    /// ancestor pruning: prevents *all* transitive arcs.
    N2ForwardLandskov,
    /// Table building, forward pass (Krishnamurthy-like).
    TableForward,
    /// Table building, backward pass (the paper's §2 pseudocode).
    TableBackward,
    /// Backward table building with reachability-bitmap suppression of
    /// transitive arcs.
    TableBackwardBitmap,
}

impl ConstructionAlgorithm {
    /// All algorithms, for sweeps.
    pub const ALL: &'static [ConstructionAlgorithm] = &[
        ConstructionAlgorithm::N2Forward,
        ConstructionAlgorithm::N2Backward,
        ConstructionAlgorithm::N2ForwardLandskov,
        ConstructionAlgorithm::TableForward,
        ConstructionAlgorithm::TableBackward,
        ConstructionAlgorithm::TableBackwardBitmap,
    ];

    /// The three algorithms measured in the paper's Tables 4 and 5.
    pub const MEASURED: &'static [ConstructionAlgorithm] = &[
        ConstructionAlgorithm::N2Forward,
        ConstructionAlgorithm::TableForward,
        ConstructionAlgorithm::TableBackward,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ConstructionAlgorithm::N2Forward => "n**2 forward",
            ConstructionAlgorithm::N2Backward => "n**2 backward",
            ConstructionAlgorithm::N2ForwardLandskov => "n**2 forward (Landskov)",
            ConstructionAlgorithm::TableForward => "table forward",
            ConstructionAlgorithm::TableBackward => "table backward",
            ConstructionAlgorithm::TableBackwardBitmap => "table backward (bitmap)",
        }
    }

    /// Direction of the construction pass.
    pub fn direction(self) -> PassDirection {
        match self {
            ConstructionAlgorithm::N2Forward
            | ConstructionAlgorithm::N2ForwardLandskov
            | ConstructionAlgorithm::TableForward => PassDirection::Forward,
            ConstructionAlgorithm::N2Backward
            | ConstructionAlgorithm::TableBackward
            | ConstructionAlgorithm::TableBackwardBitmap => PassDirection::Backward,
        }
    }

    /// Whether the algorithm deliberately suppresses transitive arcs —
    /// the variants the paper recommends against (finding 3).
    pub fn avoids_transitive_arcs(self) -> bool {
        matches!(
            self,
            ConstructionAlgorithm::N2ForwardLandskov | ConstructionAlgorithm::TableBackwardBitmap
        )
    }

    /// Run this algorithm on a prepared block.
    ///
    /// Equivalent to [`ConstructionAlgorithm::run_with_scratch`] with a
    /// fresh throwaway arena — both entry points share one code path, so
    /// the produced DAG is bit-identical either way.
    pub fn run(self, block: &PreparedBlock<'_>, model: &MachineModel, policy: MemDepPolicy) -> Dag {
        self.run_with_scratch(block, model, policy, &mut Scratch::new())
    }

    /// Run this algorithm against a reusable per-worker [`Scratch`]
    /// arena, accumulating per-phase counters into `scratch.stats`.
    ///
    /// The arena only changes *where* the algorithm's working storage
    /// lives (definition/use tables, reachability bitmaps, and the DAG's
    /// own columns when an earlier DAG was handed back with
    /// [`Scratch::recycle`]); the produced DAG is identical to
    /// [`ConstructionAlgorithm::run`]. Counters bumped here: `blocks`,
    /// `nodes`, `arcs_added`, `construct_ns`, plus the per-algorithm
    /// `comparisons` / `table_probes` / `arcs_suppressed`.
    pub fn run_with_scratch(
        self,
        block: &PreparedBlock<'_>,
        model: &MachineModel,
        policy: MemDepPolicy,
        scratch: &mut Scratch,
    ) -> Dag {
        self.run_timed(block, model, policy, scratch, Instant::now())
            .0
    }

    /// [`ConstructionAlgorithm::run_with_scratch`] timed from `start`:
    /// the time from `start` to the end of construction goes into
    /// `scratch.stats.construct_ns`, and the end is returned with the
    /// DAG, so a caller timing the next phase from there reads the clock
    /// once between the two.
    pub fn run_timed(
        self,
        block: &PreparedBlock<'_>,
        model: &MachineModel,
        policy: MemDepPolicy,
        scratch: &mut Scratch,
        start: Instant,
    ) -> (Dag, Instant) {
        let mut dag = scratch.take_dag();
        match self {
            ConstructionAlgorithm::N2Forward => {
                n2::n2_forward_in(block, model, policy, &mut dag, &mut scratch.stats)
            }
            ConstructionAlgorithm::N2Backward => {
                n2::n2_backward_in(block, model, policy, &mut dag, &mut scratch.stats)
            }
            ConstructionAlgorithm::N2ForwardLandskov => {
                landskov::n2_forward_landskov_in(block, model, policy, &mut dag, scratch)
            }
            ConstructionAlgorithm::TableForward => {
                table::table_forward_in(block, model, policy, &mut dag, scratch)
            }
            ConstructionAlgorithm::TableBackward => {
                table::table_backward_in(block, model, policy, &mut dag, scratch)
            }
            ConstructionAlgorithm::TableBackwardBitmap => {
                table::table_backward_bitmap_in(block, model, policy, &mut dag, scratch)
            }
        }
        let end = Instant::now();
        scratch.stats.construct_ns += end.duration_since(start).as_nanos() as u64;
        scratch.stats.blocks += 1;
        scratch.stats.nodes += block.len() as u64;
        scratch.stats.arcs_added += dag.arc_count() as u64;
        (dag, end)
    }
}

impl std::fmt::Display for ConstructionAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build the dependence DAG for one basic block.
///
/// Convenience wrapper that prepares the block and runs `algo`. For
/// repeated construction over the same block (e.g. algorithm comparisons)
/// prepare once with [`PreparedBlock::new`] and call
/// [`ConstructionAlgorithm::run`] directly.
///
/// ```
/// use dagsched_core::{build_dag, ConstructionAlgorithm, MemDepPolicy};
/// use dagsched_isa::{Instruction, MachineModel, Opcode, Reg};
///
/// let insns = vec![
///     Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
///     Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
/// ];
/// let dag = build_dag(
///     &insns,
///     &MachineModel::sparc2(),
///     ConstructionAlgorithm::TableBackward,
///     MemDepPolicy::SymbolicExpr,
/// );
/// assert_eq!(dag.arc_count(), 1); // RAW on %f4, 20 cycles
/// ```
pub fn build_dag(
    insns: &[Instruction],
    model: &MachineModel,
    algo: ConstructionAlgorithm,
    policy: MemDepPolicy,
) -> Dag {
    let block = PreparedBlock::new(insns);
    algo.run(&block, model, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{Instruction, MemExprPool, MemRef, Opcode, Reg};

    /// Every algorithm must produce the same arc set through a warm,
    /// repeatedly-reused arena as through `run`'s fresh one, and the
    /// per-phase counters must accumulate sensibly.
    #[test]
    fn run_with_scratch_is_identical_to_run() {
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::store(Opcode::St, Reg::o(0), MemRef::base_offset(Reg::fp(), -8, e)),
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::o(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
        ];
        let block = PreparedBlock::new(&insns);
        let model = MachineModel::sparc2();
        let mut scratch = Scratch::new();
        for round in 0..3 {
            for &algo in ConstructionAlgorithm::ALL {
                let fresh = algo.run(&block, &model, MemDepPolicy::SymbolicExpr);
                let warm =
                    algo.run_with_scratch(&block, &model, MemDepPolicy::SymbolicExpr, &mut scratch);
                assert_eq!(fresh.arc_count(), warm.arc_count(), "{algo} round {round}");
                for arc in fresh.arcs() {
                    let other = warm
                        .arc_between(arc.from, arc.to)
                        .unwrap_or_else(|| panic!("{algo} round {round}: missing arc"));
                    assert_eq!(
                        (other.kind, other.latency),
                        (arc.kind, arc.latency),
                        "{algo}"
                    );
                }
            }
        }
        let stats = scratch.stats;
        assert_eq!(stats.blocks, 3 * ConstructionAlgorithm::ALL.len() as u64);
        assert_eq!(stats.nodes, stats.blocks * insns.len() as u64);
        assert!(stats.arcs_added > 0);
        assert!(stats.comparisons > 0, "n**2 family must count comparisons");
        assert!(stats.table_probes > 0, "table family must count probes");
        assert!(stats.construct_ns > 0);
    }
}
