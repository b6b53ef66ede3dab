//! Reusable per-worker scratch arenas and per-phase counters for the
//! batch-compilation pipeline.
//!
//! The paper's pipeline runs the same three passes (DAG construction →
//! intermediate heuristic calculation → list scheduling) over thousands of
//! basic blocks. Re-running it block-by-block with fresh allocations
//! spends a measurable fraction of the "run time" columns of Tables 4 and
//! 5 in the allocator: the table-building algorithms allocate a 67-entry
//! register table and a memory table per block, and the bitmap variants
//! allocate `n` reachability bitmaps per block.
//!
//! [`Scratch`] owns those structures once per worker and resets them
//! between blocks. It also keeps every other vector one block's compile
//! fills and the next block can refill: the [`PreparedBlock`] lists
//! ([`Scratch::prepare`]), the [`Dag`]'s arc columns and adjacency
//! (taken by [`ConstructionAlgorithm::run_with_scratch`], handed back
//! with [`Scratch::recycle`]), the [`HeuristicSet`] the intermediate
//! pass refills, and the scheduling pass's [`SchedStorage`]. A caller
//! that hands everything back — the driver's `compile_block` does —
//! allocates nothing per block after warm-up except what it keeps (the
//! emitted order); the table builders still allocate a
//! use list for each new memory-table entry. Storage a very large block
//! grew is not kept: past [`SCRATCH_KEEP_BYTES`] the arena gives its
//! per-block storage back to the allocator. [`PhaseStats`]
//! threads per-phase work counters (nodes, arcs, table probes, pairwise
//! comparisons, suppressed transitive arcs) and wall-clock nanoseconds
//! through the pipeline so experiments can report *what* each phase did,
//! not only how long it took.
//!
//! [`ConstructionAlgorithm::run_with_scratch`]:
//!     crate::ConstructionAlgorithm::run_with_scratch
//!
//! [`map_blocks_with_scratch`] is the deterministic fan-out primitive:
//! it shards a slice of work items across `jobs` scoped threads (worker
//! `w` takes items `w`, `w + jobs`, `w + 2*jobs`, …), gives each worker a
//! private `Scratch`, and reassembles results in original item order.
//! Because every item is processed by the exact same code path as the
//! serial loop — `Scratch` reuse is observationally identical to fresh
//! allocation — results are bit-identical for every `jobs` value.

use std::collections::HashMap;

use dagsched_isa::Instruction;

use crate::bitset::BitMatrix;
use crate::construct::table::DepTables;
use crate::dag::{ConstructError, Dag, NodeId};
use crate::heur::{DynState, HeuristicSet};
use crate::prepare::{PreparedBlock, PreparedLists};

/// Per-block storage a [`Scratch`] keeps between blocks, in bytes of
/// vector capacity ([`Scratch::retained_bytes`]). A block that leaves the
/// arena holding more — a request with a 16k-instruction block compiled
/// `n**2` can grow the DAG columns to hundreds of megabytes — makes
/// [`Scratch::recycle`] release it all, so a worker's memory between
/// blocks stays bounded by this figure whatever it has compiled. The
/// Table 3 programs keep at most about 230 KB (tomcatv's 326-instruction
/// block), so none of their blocks is released.
pub const SCRATCH_KEEP_BYTES: usize = 1 << 20;

/// Per-phase work counters and timings for a batch-compilation run.
///
/// The `*_ns` fields are wall-clock nanoseconds and will differ from run
/// to run (and between `jobs` settings); every other field is a
/// deterministic count of work performed, identical for any `jobs` value.
/// Use [`PhaseStats::same_counts`] to compare runs while ignoring timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Basic blocks compiled.
    pub blocks: u64,
    /// DAG nodes (instructions) processed by construction.
    pub nodes: u64,
    /// Arcs materialized into DAGs.
    pub arcs_added: u64,
    /// Arcs (or pruned pair comparisons, for the Landskov variant)
    /// suppressed by a transitive-arc-avoidance mechanism.
    pub arcs_suppressed: u64,
    /// Definition/use table entries consulted by the table-building
    /// algorithms (register entries accessed + memory entries scanned).
    pub table_probes: u64,
    /// Pairwise comparisons made by the `n**2` family: every pair it
    /// examines, whether its definition/use masks rule a dependence out
    /// or `strongest_dep` runs.
    pub comparisons: u64,
    /// Nanoseconds spent in DAG construction.
    pub construct_ns: u64,
    /// Nanoseconds spent in heuristic annotation passes.
    pub heur_ns: u64,
    /// Nanoseconds spent in the scheduling pass.
    pub sched_ns: u64,
    /// Blocks served from a schedule cache (construction, heuristic and
    /// scheduling passes all skipped). Only batch entry points given a
    /// real cache (the driver crate's `BlockCache`) increment this; the
    /// plain driver paths leave it 0.
    pub cache_hits: u64,
    /// Blocks that consulted a schedule cache and missed (and were then
    /// compiled and inserted).
    pub cache_misses: u64,
    /// Blocks compiled under a degraded configuration (a cheaper rung
    /// of the cost ladder selected because the request's deadline
    /// budget ran low). Zero unless the batch loop was given a
    /// degradation policy and actually fell down the ladder.
    pub degraded_blocks: u64,
}

impl PhaseStats {
    /// Fold another accumulator into this one (all fields are additive).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.blocks += other.blocks;
        self.nodes += other.nodes;
        self.arcs_added += other.arcs_added;
        self.arcs_suppressed += other.arcs_suppressed;
        self.table_probes += other.table_probes;
        self.comparisons += other.comparisons;
        self.construct_ns += other.construct_ns;
        self.heur_ns += other.heur_ns;
        self.sched_ns += other.sched_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.degraded_blocks += other.degraded_blocks;
    }

    /// Whether the deterministic work counters match, ignoring the
    /// wall-clock `*_ns` fields (which legitimately vary between runs and
    /// between `jobs` settings). The `cache_hits` / `cache_misses` fields
    /// are also ignored: with a shared schedule cache, whether a given
    /// block hits depends on which identical block was compiled first,
    /// which legitimately varies with worker interleaving. Likewise
    /// `degraded_blocks`: which rung a block compiles on depends on how
    /// much wall-clock budget remained when its turn came.
    pub fn same_counts(&self, other: &PhaseStats) -> bool {
        self.blocks == other.blocks
            && self.nodes == other.nodes
            && self.arcs_added == other.arcs_added
            && self.arcs_suppressed == other.arcs_suppressed
            && self.table_probes == other.table_probes
            && self.comparisons == other.comparisons
    }

    /// Total measured pipeline time in seconds (sum of the per-phase
    /// wall-clock fields). Under `jobs > 1` this is *aggregate CPU time*
    /// across workers, not elapsed time.
    pub fn total_secs(&self) -> f64 {
        (self.construct_ns + self.heur_ns + self.sched_ns) as f64 / 1e9
    }
}

impl std::fmt::Display for PhaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} blocks, {} nodes, {} arcs (+{} suppressed), {} table probes, \
             {} comparisons; construct {:.3} ms, heur {:.3} ms, sched {:.3} ms",
            self.blocks,
            self.nodes,
            self.arcs_added,
            self.arcs_suppressed,
            self.table_probes,
            self.comparisons,
            self.construct_ns as f64 / 1e6,
            self.heur_ns as f64 / 1e6,
            self.sched_ns as f64 / 1e6,
        )?;
        if self.cache_hits > 0 || self.cache_misses > 0 {
            write!(
                f,
                "; cache {} hits / {} misses",
                self.cache_hits, self.cache_misses
            )?;
        }
        if self.degraded_blocks > 0 {
            write!(f, "; {} blocks degraded", self.degraded_blocks)?;
        }
        Ok(())
    }
}

/// Working storage of one list-scheduling pass, kept by a [`Scratch`]
/// between blocks.
///
/// The sched crate's list scheduler resets and refills these vectors for
/// each block (its `ListScheduler::run_in`), and a finished schedule's
/// `order` and `issue_cycle` come back here for the next block. Nothing
/// here carries over from one block to the next: every vector is emptied
/// or rewritten before it is read.
#[derive(Debug, Default)]
pub struct SchedStorage {
    /// The dynamic heuristic state ([`DynState::reset`] per block).
    pub dyn_state: DynState,
    /// The ready list.
    pub ready: Vec<NodeId>,
    /// The forward pass's candidate buffer, winnowed in place.
    pub candidates: Vec<NodeId>,
    /// The candidates' scores under one selection criterion.
    pub scores: Vec<i64>,
    /// Issue cycle per node, for in-order timing of an order.
    pub issue_of: Vec<u64>,
    /// Storage for the next schedule's issue order.
    pub order: Vec<NodeId>,
    /// Storage for the next schedule's issue cycles.
    pub issue_cycle: Vec<u64>,
}

impl SchedStorage {
    /// Bytes of vector storage held.
    fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dyn_state.capacity_bytes()
            + (self.ready.capacity() + self.candidates.capacity() + self.order.capacity())
                * size_of::<NodeId>()
            + (self.issue_of.capacity() + self.issue_cycle.capacity()) * size_of::<u64>()
            + self.scores.capacity() * size_of::<i64>()
    }
}

/// A reusable per-worker arena for the block-compilation hot path.
///
/// One `Scratch` is owned by each pipeline worker (or by the single
/// serial loop) and lives for the whole batch: the definition/use tables
/// of the table-building algorithms, the reachability-bitmap pool of
/// the avoidance variants, the prepared-block lists, the DAG columns,
/// the heuristic vectors and the scheduling pass's storage are reset —
/// not reallocated — between blocks. The embedded [`PhaseStats`]
/// accumulates per-phase counters for every block the worker compiles.
///
/// A block's compile goes through it in this order: [`Scratch::prepare`],
/// [`ConstructionAlgorithm::run_with_scratch`], the heuristic passes into
/// [`Scratch::heuristics`], a scheduling pass over [`Scratch::sched`],
/// then [`Scratch::recycle`] with the prepared block and the DAG.
///
/// [`ConstructionAlgorithm::run_with_scratch`]:
///     crate::ConstructionAlgorithm::run_with_scratch
#[derive(Debug)]
pub struct Scratch {
    /// Definition/use tables reused by the table-building algorithms.
    pub(crate) tables: DepTables,
    /// Reachability bit-matrix reused by the transitive-arc-avoidance
    /// variants (one flat allocation; rows are per-node maps).
    pub(crate) matrix: BitMatrix,
    /// Heuristic storage for the block being compiled. Fill it with
    /// [`HeuristicSet::fill`], which overwrites every field, before
    /// reading it.
    pub heuristics: HeuristicSet,
    /// Storage for the scheduling pass.
    pub sched: SchedStorage,
    /// The last block's prepared lists, for [`Scratch::prepare`].
    prepared: PreparedLists,
    /// The last block's DAG, for the next constructor to reset.
    dag: Option<Dag>,
    /// The memory-expression ordinals a schedule-cache key counts past
    /// its inline few (the driver's `CacheScope::key_in`), kept so that
    /// keying a block allocates nothing once warm. Keying clears it.
    pub key_ordinals: HashMap<u32, u32>,
    /// Accumulated per-phase counters.
    pub stats: PhaseStats,
}

impl Scratch {
    /// A fresh arena with empty tables and counters.
    pub fn new() -> Scratch {
        Scratch {
            tables: DepTables::new(),
            matrix: BitMatrix::new(0, 0),
            heuristics: HeuristicSet::default(),
            sched: SchedStorage::default(),
            prepared: PreparedLists::default(),
            dag: None,
            key_ordinals: HashMap::new(),
            stats: PhaseStats::default(),
        }
    }

    /// [`PreparedBlock::try_new`] into the lists the last
    /// [`Scratch::recycle`] handed back.
    pub fn prepare<'a>(
        &mut self,
        insns: &'a [Instruction],
    ) -> Result<PreparedBlock<'a>, ConstructError> {
        PreparedBlock::try_new_in(insns, std::mem::take(&mut self.prepared))
    }

    /// The DAG the last [`Scratch::recycle`] handed back, or a new one;
    /// the constructor resets it.
    pub(crate) fn take_dag(&mut self) -> Dag {
        self.dag.take().unwrap_or_else(|| Dag::new(0))
    }

    /// Hand a compiled block's prepared lists and DAG back for the next
    /// block. Call it once nothing reads them any more, after the
    /// schedule's vectors have gone back to [`Scratch::sched`]. If the
    /// arena now holds more than [`SCRATCH_KEEP_BYTES`], it releases all
    /// of its per-block storage instead of keeping it.
    pub fn recycle(&mut self, prepared: PreparedBlock<'_>, dag: Dag) {
        self.prepared = prepared.into_lists();
        self.dag = Some(dag);
        if self.retained_bytes() > SCRATCH_KEEP_BYTES {
            self.prepared = PreparedLists::default();
            self.dag = None;
            self.heuristics = HeuristicSet::default();
            self.sched = SchedStorage::default();
            self.matrix = BitMatrix::new(0, 0);
        }
    }

    /// Bytes of per-block storage the arena holds: the prepared lists,
    /// the recycled DAG, the heuristic vectors, the scheduling storage
    /// and the reachability matrix. The table builders' definition/use
    /// tables are not counted.
    pub fn retained_bytes(&self) -> usize {
        self.prepared.capacity_bytes()
            + self.dag.as_ref().map_or(0, Dag::capacity_bytes)
            + self.heuristics.capacity_bytes()
            + self.sched.capacity_bytes()
            + self.matrix.capacity_bytes()
    }
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

/// Reset `matrix` to an empty `n × n` reachability map (reusing its
/// allocation). With `self_init` each row `i` starts containing `i` (the
/// paper's "each node's map is initialized to indicate that a node can
/// reach itself").
pub(crate) fn reset_matrix(matrix: &mut BitMatrix, n: usize, self_init: bool) -> &mut BitMatrix {
    matrix.reset(n, n);
    if self_init {
        for i in 0..n {
            matrix.set(i, i);
        }
    }
    matrix
}

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deterministically map `f` over `items` with `jobs` workers, each
/// owning a reusable [`Scratch`] arena.
///
/// * `jobs <= 1` runs a plain serial loop (no threads spawned).
/// * `jobs > 1` spawns scoped threads; worker `w` processes items
///   `w, w + jobs, w + 2*jobs, …` — a static stride schedule, so the
///   assignment of items to workers does not depend on thread timing.
///
/// Results are returned in original item order and each worker's
/// [`PhaseStats`] are merged (all counter fields are additive and
/// order-independent), so the output — results *and* work counters — is
/// identical for every `jobs` value; only the `*_ns` timing fields vary.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn map_blocks_with_scratch<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<R>, PhaseStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut Scratch) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        let mut scratch = Scratch::new();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item, &mut scratch))
            .collect();
        return (out, scratch.stats);
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut stats = PhaseStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut i = w;
                    while i < items.len() {
                        local.push((i, f(i, &items[i], &mut scratch)));
                        i += jobs;
                    }
                    (local, scratch.stats)
                })
            })
            .collect();
        // Join in worker order: counter merging is additive (and thus
        // order-independent), but a fixed order keeps even the timing
        // aggregation reproducible given identical per-worker values.
        for h in handles {
            let (local, worker_stats) = h.join().expect("pipeline worker panicked");
            stats.merge(&worker_stats);
            for (i, r) in local {
                slots[i] = Some(r);
            }
        }
    });
    let out = slots
        .into_iter()
        .map(|s| s.expect("stride schedule covers every index"))
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let (out, stats) = map_blocks_with_scratch(&items, jobs, |i, &item, scratch| {
                assert_eq!(i, item);
                scratch.stats.blocks += 1;
                item * 2
            });
            assert_eq!(
                out,
                (0..37).map(|i| i * 2).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(stats.blocks, 37, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_input() {
        let (out, stats) = map_blocks_with_scratch(&[] as &[usize], 8, |_, _, _| 0usize);
        assert!(out.is_empty());
        assert_eq!(stats, PhaseStats::default());
    }

    #[test]
    fn counters_are_identical_across_job_counts() {
        // Deterministic per-item work: counters must agree regardless of
        // how items are sharded.
        let items: Vec<u64> = (1..=100).collect();
        let run = |jobs| {
            map_blocks_with_scratch(&items, jobs, |_, &item, scratch| {
                scratch.stats.blocks += 1;
                scratch.stats.nodes += item;
                scratch.stats.arcs_added += item % 7;
            })
            .1
        };
        let serial = run(1);
        for jobs in [2, 4, 8] {
            let par = run(jobs);
            assert!(
                serial.same_counts(&par),
                "jobs={jobs}: {serial:?} vs {par:?}"
            );
        }
    }

    #[test]
    fn merge_is_additive_and_same_counts_ignores_timing() {
        let mut a = PhaseStats {
            blocks: 1,
            nodes: 10,
            arcs_added: 5,
            arcs_suppressed: 1,
            table_probes: 20,
            comparisons: 45,
            construct_ns: 100,
            heur_ns: 50,
            sched_ns: 25,
            cache_hits: 0,
            cache_misses: 0,
            degraded_blocks: 0,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.comparisons, 90);
        assert_eq!(a.construct_ns, 200);
        let mut c = a;
        c.construct_ns = 0;
        c.heur_ns = 99999;
        assert!(a.same_counts(&c), "timing fields must be ignored");
        c.arcs_added += 1;
        assert!(!a.same_counts(&c));
        // Cache counters merge additively but are ignored by same_counts
        // (hit/miss totals legitimately vary with worker interleaving).
        let mut d = a;
        d.cache_hits = 7;
        d.cache_misses = 3;
        d.degraded_blocks = 2;
        assert!(a.same_counts(&d));
        let e = d;
        d.merge(&e);
        assert_eq!(d.cache_hits, 14);
        assert_eq!(d.cache_misses, 6);
        assert_eq!(d.degraded_blocks, 4);
    }

    #[test]
    fn reset_matrix_reuses_and_reinitializes() {
        let mut m = BitMatrix::new(0, 0);
        reset_matrix(&mut m, 4, true);
        assert_eq!(m.rows(), 4);
        for i in 0..4 {
            assert_eq!(m.row_iter(i).collect::<Vec<_>>(), vec![i]);
        }
        m.set(0, 3);
        // Shrink without self-init: stale contents must be gone.
        reset_matrix(&mut m, 2, false);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row_count_ones(0) + m.row_count_ones(1), 0);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
