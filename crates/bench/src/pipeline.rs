//! The paper's §6 measurement pipeline.
//!
//! "In this comparison we emphasize not the particular heuristics nor
//! their order of application, but instead the pairing of DAG
//! construction algorithms with a simple forward scheduling pass. ...
//! The following backward static heuristics are used: max path to leaf,
//! max delay to leaf, and max delay to child. Each algorithm makes two
//! passes over the instructions and then one scheduling pass over the
//! DAG."
//!
//! [`run_benchmark`] executes exactly that over every block of a
//! generated benchmark and accumulates the structural statistics of
//! Tables 4 and 5.

use dagsched_core::{
    annotate_backward_cp, annotate_construction, map_blocks_with_scratch, BackwardOrder,
    ConstructionAlgorithm, HeuristicSet, MemDepPolicy, PhaseStats, Scratch,
};
use dagsched_isa::{Instruction, MachineModel};
use dagsched_sched::{
    Criterion, Gating, HeurKey, ListScheduler, SchedDirection, Schedule, SelectStrategy,
};
use dagsched_stats::DagStructure;
use dagsched_workloads::Benchmark;

/// The simple forward scheduling pass of §6: earliest-execution gating
/// with a critical-path winnowing stack over the three backward static
/// heuristics.
pub fn simple_forward_scheduler() -> ListScheduler {
    ListScheduler {
        direction: SchedDirection::Forward,
        gating: Gating::ByEarliestExec {
            include_fpu_busy: false,
        },
        strategy: SelectStrategy::Winnowing(vec![
            Criterion::max(HeurKey::MaxDelayToLeaf),
            Criterion::max(HeurKey::MaxPathToLeaf),
            Criterion::max(HeurKey::MaxDelayToChild),
        ]),
        pin_terminator: true,
        birthing_boost: 0,
    }
}

/// A schedule that failed verification against its DAG.
///
/// Surfaced as a typed error instead of a worker panic so harnesses
/// (and the scheduling service, which shares the no-panic policy) can
/// report the offending benchmark/algorithm pair and move on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// The benchmark being scheduled.
    pub bench: String,
    /// The construction algorithm in use.
    pub algo: ConstructionAlgorithm,
    /// The verifier's message.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: invalid schedule: {}",
            self.bench, self.algo, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// Aggregated result of scheduling a whole benchmark.
#[derive(Debug)]
pub struct PipelineResult {
    /// DAG structural statistics (children/inst, arcs/block).
    pub structure: DagStructure,
    /// Total instructions scheduled.
    pub insts: usize,
    /// Sum of schedule makespans (cycles) across blocks.
    pub total_cycles: u64,
    /// Per-phase counters aggregated over every block (comparisons,
    /// table probes, arcs added/suppressed, nanoseconds per phase).
    pub stats: PhaseStats,
}

/// One block's contribution to a [`PipelineResult`].
#[allow(clippy::too_many_arguments)]
fn run_block(
    bench: &Benchmark,
    block_insns: &[Instruction],
    model: &MachineModel,
    algo: ConstructionAlgorithm,
    policy: MemDepPolicy,
    heur_order: BackwardOrder,
    verify: bool,
    scheduler: &ListScheduler,
    scratch: &mut Scratch,
) -> Result<(DagStructure, usize, u64), PipelineError> {
    // Pass 1 over the instructions: preparation + DAG construction, in
    // the lists and DAG columns the previous block handed back. Generated
    // blocks are well-formed, so a malformed one panics as
    // `PreparedBlock::new` would.
    let prepared = scratch
        .prepare(block_insns)
        .unwrap_or_else(|e| panic!("{e}"));
    let dag = algo.run_with_scratch(&prepared, model, policy, scratch);
    // Pass 2: the intermediate heuristic calculation step.
    let t_heur = std::time::Instant::now();
    let mut heur = HeuristicSet::default();
    annotate_construction(&mut heur, &dag, block_insns, model);
    annotate_backward_cp(&mut heur, &dag, heur_order);
    scratch.stats.heur_ns += t_heur.elapsed().as_nanos() as u64;
    // Pass 3: the scheduling pass over the DAG.
    let t_sched = std::time::Instant::now();
    let schedule: Schedule = scheduler.run(&dag, block_insns, model, &heur);
    scratch.stats.sched_ns += t_sched.elapsed().as_nanos() as u64;
    if verify {
        schedule.verify(&dag).map_err(|e| PipelineError {
            bench: bench.name.to_string(),
            algo,
            message: e.to_string(),
        })?;
    }
    let mut structure = DagStructure::new();
    structure.add_dag(&dag);
    scratch.recycle(prepared, dag);
    Ok((
        structure,
        block_insns.len(),
        schedule.makespan(block_insns, model),
    ))
}

/// Run construction + heuristic calculation + scheduling on every block
/// of `bench`, using `algo`, and accumulate statistics.
///
/// `verify` additionally checks every schedule against its DAG (used by
/// the test suite; disabled in timing runs). A verification failure is
/// reported as a typed [`PipelineError`], not a panic.
pub fn run_benchmark(
    bench: &Benchmark,
    model: &MachineModel,
    algo: ConstructionAlgorithm,
    policy: MemDepPolicy,
    heur_order: BackwardOrder,
    verify: bool,
) -> Result<PipelineResult, PipelineError> {
    run_benchmark_jobs(bench, model, algo, policy, heur_order, verify, 1)
}

/// [`run_benchmark`] sharded across `jobs` worker threads, each with a
/// reusable [`Scratch`] arena.
///
/// Blocks are distributed by a fixed stride and every per-block result is
/// folded back in original block order, so the statistics — structure,
/// instruction and cycle totals, and the count-fields of
/// [`PipelineResult::stats`] — are identical for every `jobs` value
/// (timing fields genuinely vary). `jobs == 1` is the serial path used
/// by [`run_benchmark`].
#[allow(clippy::too_many_arguments)]
pub fn run_benchmark_jobs(
    bench: &Benchmark,
    model: &MachineModel,
    algo: ConstructionAlgorithm,
    policy: MemDepPolicy,
    heur_order: BackwardOrder,
    verify: bool,
    jobs: usize,
) -> Result<PipelineResult, PipelineError> {
    let scheduler = simple_forward_scheduler();
    let items: Vec<&[Instruction]> = bench
        .blocks
        .iter()
        .map(|b| bench.program.block_insns(b))
        .filter(|insns| !insns.is_empty())
        .collect();
    let (per_block, stats) = map_blocks_with_scratch(&items, jobs, |_, block_insns, scratch| {
        run_block(
            bench,
            block_insns,
            model,
            algo,
            policy,
            heur_order,
            verify,
            &scheduler,
            scratch,
        )
    });
    let mut structure = DagStructure::new();
    let mut insts = 0usize;
    let mut total_cycles = 0u64;
    for result in per_block {
        let (s, n, cycles) = result?;
        structure.merge(&s);
        insts += n;
        total_cycles += cycles;
    }
    Ok(PipelineResult {
        structure,
        insts,
        total_cycles,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

    #[test]
    fn pipeline_schedules_grep_validly_under_every_algorithm() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        for &algo in ConstructionAlgorithm::MEASURED {
            let r = run_benchmark(
                &bench,
                &model,
                algo,
                MemDepPolicy::SymbolicExpr,
                BackwardOrder::ReverseWalk,
                true,
            )
            .expect("schedule verification");
            assert_eq!(r.insts, 1739, "{algo}");
            assert!(r.total_cycles > 0);
        }
    }

    #[test]
    fn n2_produces_more_arcs_than_table_building() {
        let bench = generate(BenchmarkProfile::by_name("tomcatv").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let n2 = run_benchmark(
            &bench,
            &model,
            ConstructionAlgorithm::N2Forward,
            MemDepPolicy::SymbolicExpr,
            BackwardOrder::ReverseWalk,
            false,
        )
        .unwrap();
        let tb = run_benchmark(
            &bench,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
            BackwardOrder::ReverseWalk,
            false,
        )
        .unwrap();
        let n2_arcs = n2.structure.arcs_per_block().avg;
        let tb_arcs = tb.structure.arcs_per_block().avg;
        assert!(
            n2_arcs > 2.0 * tb_arcs,
            "paper shape: n**2 arcs/block ({n2_arcs:.1}) >> table ({tb_arcs:.1})"
        );
    }

    #[test]
    fn forward_and_backward_tables_agree_on_structure() {
        let bench = generate(BenchmarkProfile::by_name("linpack").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let f = run_benchmark(
            &bench,
            &model,
            ConstructionAlgorithm::TableForward,
            MemDepPolicy::SymbolicExpr,
            BackwardOrder::ReverseWalk,
            false,
        )
        .unwrap();
        let b = run_benchmark(
            &bench,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
            BackwardOrder::ReverseWalk,
            false,
        )
        .unwrap();
        // §6: "the two table-building methods are essentially equivalent";
        // they may differ by a handful of arcs on may-alias chains, so
        // compare within 2%.
        let fa = f.structure.arcs_per_block().avg;
        let ba = b.structure.arcs_per_block().avg;
        assert!(
            (fa - ba).abs() / fa.max(ba) < 0.02,
            "forward {fa:.2} vs backward {ba:.2}"
        );
    }
}
