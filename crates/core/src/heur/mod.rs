//! Heuristic calculation: the paper's Table 1 survey, implemented.
//!
//! Heuristics divide by *when* they can be computed (Table 1's fourth
//! column):
//!
//! * `a` — determined when a node or arc is added to the DAG
//!   ([`annotate_construction`]).
//! * `f` — requires a forward pass over the basic block
//!   ([`annotate_forward`]).
//! * `b` — requires a backward pass ([`annotate_backward`]); the paper's
//!   §4 shows a reverse walk of the original instruction list is as good
//!   as a level algorithm, and both are provided
//!   ([`BackwardOrder::ReverseWalk`], [`BackwardOrder::LevelLists`]).
//! * `v` — requires node visitation during the scheduling pass
//!   ([`DynState`]).

mod catalog;
mod dynamic;
mod static_pass;

pub use catalog::{heuristic_catalog, Basis, Category, HeuristicId, HeuristicInfo, PassKind};
pub use dynamic::DynState;
pub use static_pass::{
    annotate_backward, annotate_backward_cp, annotate_construction, annotate_forward,
    compute_levels, BackwardOrder,
};

use std::ops::BitOr;

use dagsched_isa::{Instruction, MachineModel};

use crate::dag::Dag;
use crate::prepare::{PreparedBlock, ResourceMasks};

/// A set of static heuristic passes: which of a [`HeuristicSet`]'s
/// fields [`HeuristicSet::fill`] computes.
///
/// Each pass fills the fields of one calculation method of Table 1.
/// Execution times and original order are filled whatever the set,
/// so [`HeuristicPasses::NONE`] still yields a usable set for a
/// scheduler that ranks by those or by dynamic (`v`) heuristics alone.
/// A scheduler names its set from the heuristics it ranks by (the sched
/// crate's `Scheduler::heuristic_passes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeuristicPasses(u8);

impl HeuristicPasses {
    /// No pass: execution times and original order only.
    pub const NONE: HeuristicPasses = HeuristicPasses(0);
    /// The arc-derived construction-time (`a`) counts: interlock with
    /// child, `#children`, `#parents` and the delays to children and
    /// from parents.
    pub const ARCS: HeuristicPasses = HeuristicPasses(1);
    /// Register pressure (`a`): registers born and killed, liveness.
    pub const REGISTERS: HeuristicPasses = HeuristicPasses(1 << 1);
    /// The forward pass (`f`): max path and delay from a root, EST.
    pub const FORWARD: HeuristicPasses = HeuristicPasses(1 << 2);
    /// The backward critical-path pair (`b`): max path and delay to a
    /// leaf.
    pub const CRITICAL_PATH: HeuristicPasses = HeuristicPasses(1 << 3);
    /// Latest start time and slack (`f+b`): the backward pass over the
    /// forward pass's EST. It contains [`HeuristicPasses::FORWARD`] and
    /// [`HeuristicPasses::CRITICAL_PATH`], which it is computed with.
    pub const SLACK: HeuristicPasses = HeuristicPasses(1 << 4 | 1 << 3 | 1 << 2);
    /// `#descendants` and the sum of descendant execution times (`b`,
    /// over reachability maps).
    pub const DESCENDANTS: HeuristicPasses = HeuristicPasses(1 << 5);
    /// Every pass.
    pub const ALL: HeuristicPasses = HeuristicPasses(0b11_1111);

    /// Whether every pass of `other` is in `self`.
    pub fn contains(self, other: HeuristicPasses) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Every pass of either set.
impl BitOr for HeuristicPasses {
    type Output = HeuristicPasses;

    fn bitor(self, other: HeuristicPasses) -> HeuristicPasses {
        HeuristicPasses(self.0 | other.0)
    }
}

/// All static heuristic annotations for one DAG, stored
/// structure-of-arrays (one slot per node).
///
/// Build a full set with [`HeuristicSet::compute`], only the fields a
/// scheduler reads with [`HeuristicSet::fill`], or run the individual
/// passes ([`annotate_construction`], [`annotate_forward`],
/// [`annotate_backward`]) for fine-grained timing — the paper's Tables 4
/// and 5 time exactly those passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeuristicSet {
    // ---- determined at DAG construction time (`a`) ----
    /// Operation latency of the node ("execution time").
    pub exec_time: Vec<u32>,
    /// Whether any child arc has delay > 1 ("interlock with child").
    pub interlock_with_child: Vec<bool>,
    /// Out-degree ("#children"). Inflated by transitive arcs.
    pub num_children: Vec<u32>,
    /// In-degree ("#parents"). Inflated by transitive arcs.
    pub num_parents: Vec<u32>,
    /// Sum of delays on child arcs ("φ=sum delays to children").
    pub sum_delays_to_children: Vec<u64>,
    /// Maximum delay on child arcs ("φ=max delays to children").
    pub max_delay_to_child: Vec<u32>,
    /// Sum of delays on parent arcs ("φ=sum delays from parents").
    pub sum_delays_from_parents: Vec<u64>,
    /// Maximum delay on parent arcs ("φ=max delays from parents").
    pub max_delay_from_parent: Vec<u32>,
    /// Number of integer/FP registers defined ("#registers born").
    pub regs_born: Vec<u32>,
    /// Number of registers last-used here ("#registers killed").
    pub regs_killed: Vec<u32>,
    /// Net register-pressure delta, born − killed (Warren's "liveness";
    /// lower is better for a prepass scheduler).
    pub liveness: Vec<i32>,
    /// Original program order (the final tie-break of Tiemann and Warren).
    pub original_order: Vec<u32>,
    // ---- forward pass (`f`) ----
    /// Maximum number of arcs from any root ("max path length from root").
    pub max_path_from_root: Vec<u32>,
    /// Maximum total delay from any root ("max total delay from root").
    pub max_delay_from_root: Vec<u64>,
    /// Earliest start time: max over parents of `est(p) + arc delay`.
    pub est: Vec<u64>,
    // ---- backward pass (`b`) ----
    /// Maximum number of arcs to any leaf ("max path length to a leaf").
    pub max_path_to_leaf: Vec<u32>,
    /// Maximum total delay to any leaf ("max total delay to a leaf").
    pub max_delay_to_leaf: Vec<u64>,
    /// Latest start time (requires `est` first).
    pub lst: Vec<u64>,
    /// Slack = LST − EST; zero on the critical path.
    pub slack: Vec<u64>,
    /// Number of distinct descendants ("#descendants"), when requested.
    pub num_descendants: Vec<u32>,
    /// Sum of execution times over distinct descendants, when requested.
    pub sum_exec_descendants: Vec<u64>,
}

impl HeuristicSet {
    /// Compute every static heuristic for `dag` over `insns`.
    ///
    /// `with_descendants` controls whether the expensive
    /// reachability-bitmap pass for `#descendants` / "sum of execution
    /// times of descendants" runs (the paper notes it is "hard to compute"
    /// and its schedulers do not use it by default).
    ///
    /// The register-pressure pass reads each instruction's
    /// [`ResourceMasks::of`], the masks a [`PreparedBlock`] holds; the
    /// result equals [`HeuristicSet::fill`] with every pass.
    pub fn compute(
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        with_descendants: bool,
    ) -> HeuristicSet {
        let mut passes =
            HeuristicPasses::ARCS | HeuristicPasses::REGISTERS | HeuristicPasses::SLACK;
        if with_descendants {
            passes = passes | HeuristicPasses::DESCENDANTS;
        }
        let mut h = HeuristicSet::default();
        h.fill_with(
            passes,
            dag,
            insns,
            insns.iter().map(ResourceMasks::of),
            model,
        );
        h
    }

    /// Compute the fields of `passes` for `dag` over `block`, plus the
    /// execution times and original order, into `self`, refilling its
    /// vectors in place: a set reused block after block (the one a
    /// [`Scratch`](crate::Scratch) owns) stops allocating once its
    /// vectors have grown to the largest block.
    ///
    /// Every other field is left empty, as in a fresh set, so nothing of
    /// an earlier block can be read. The register-pressure pass reads
    /// the block's [`ResourceMasks`].
    pub fn fill(
        &mut self,
        passes: HeuristicPasses,
        dag: &Dag,
        block: &PreparedBlock<'_>,
        model: &MachineModel,
    ) {
        self.fill_with(passes, dag, block.insns, block.masks.iter().copied(), model);
    }

    /// [`HeuristicSet::fill`] with the masks from `masks`, one per
    /// instruction.
    fn fill_with<M>(
        &mut self,
        passes: HeuristicPasses,
        dag: &Dag,
        insns: &[Instruction],
        masks: M,
        model: &MachineModel,
    ) where
        M: DoubleEndedIterator<Item = ResourceMasks> + ExactSizeIterator,
    {
        use HeuristicPasses as P;
        assert_eq!(dag.node_count(), insns.len(), "DAG/block size mismatch");
        self.clear();
        static_pass::annotate_exec_and_order(self, insns, model);
        if passes.contains(P::ARCS) {
            static_pass::annotate_arcs(self, dag);
        }
        if passes.contains(P::REGISTERS) {
            static_pass::annotate_registers(self, masks);
        }
        if passes.contains(P::FORWARD) {
            annotate_forward(self, dag);
        }
        if passes.contains(P::SLACK) {
            annotate_backward(self, dag, BackwardOrder::ReverseWalk, false);
        } else if passes.contains(P::CRITICAL_PATH) {
            annotate_backward_cp(self, dag, BackwardOrder::ReverseWalk);
        }
        if passes.contains(P::DESCENDANTS) {
            static_pass::annotate_descendants(self, dag);
        }
    }

    /// Empty every vector, keeping its storage.
    fn clear(&mut self) {
        let HeuristicSet {
            exec_time,
            interlock_with_child,
            num_children,
            num_parents,
            sum_delays_to_children,
            max_delay_to_child,
            sum_delays_from_parents,
            max_delay_from_parent,
            regs_born,
            regs_killed,
            liveness,
            original_order,
            max_path_from_root,
            max_delay_from_root,
            est,
            max_path_to_leaf,
            max_delay_to_leaf,
            lst,
            slack,
            num_descendants,
            sum_exec_descendants,
        } = self;
        exec_time.clear();
        interlock_with_child.clear();
        num_children.clear();
        num_parents.clear();
        sum_delays_to_children.clear();
        max_delay_to_child.clear();
        sum_delays_from_parents.clear();
        max_delay_from_parent.clear();
        regs_born.clear();
        regs_killed.clear();
        liveness.clear();
        original_order.clear();
        max_path_from_root.clear();
        max_delay_from_root.clear();
        est.clear();
        max_path_to_leaf.clear();
        max_delay_to_leaf.clear();
        lst.clear();
        slack.clear();
        num_descendants.clear();
        sum_exec_descendants.clear();
    }

    /// Bytes of vector storage held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let HeuristicSet {
            exec_time,
            interlock_with_child,
            num_children,
            num_parents,
            sum_delays_to_children,
            max_delay_to_child,
            sum_delays_from_parents,
            max_delay_from_parent,
            regs_born,
            regs_killed,
            liveness,
            original_order,
            max_path_from_root,
            max_delay_from_root,
            est,
            max_path_to_leaf,
            max_delay_to_leaf,
            lst,
            slack,
            num_descendants,
            sum_exec_descendants,
        } = self;
        bytes(exec_time)
            + bytes(interlock_with_child)
            + bytes(num_children)
            + bytes(num_parents)
            + bytes(sum_delays_to_children)
            + bytes(max_delay_to_child)
            + bytes(sum_delays_from_parents)
            + bytes(max_delay_from_parent)
            + bytes(regs_born)
            + bytes(regs_killed)
            + bytes(liveness)
            + bytes(original_order)
            + bytes(max_path_from_root)
            + bytes(max_delay_from_root)
            + bytes(est)
            + bytes(max_path_to_leaf)
            + bytes(max_delay_to_leaf)
            + bytes(lst)
            + bytes(slack)
            + bytes(num_descendants)
            + bytes(sum_exec_descendants)
    }

    /// Number of nodes annotated.
    pub fn len(&self) -> usize {
        self.exec_time.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.exec_time.is_empty()
    }
}
