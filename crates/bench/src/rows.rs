//! Regeneration of every table and figure in the paper.

use dagsched_core::{
    closure, heuristic_catalog, BackwardOrder, Basis, ConstructionAlgorithm, HeuristicSet,
    MemDepPolicy, NodeId, PreparedBlock,
};
use dagsched_isa::MachineModel;
use dagsched_sched::{algorithm_catalog, SchedDirection, Sense};
use dagsched_stats::{time_avg, Table};
use dagsched_workloads::{generate, parse_asm, BenchmarkProfile, ALL_PROFILES};

use crate::pipeline::{run_benchmark, run_benchmark_jobs};

/// The benchmarks of Table 4 (the paper ran the `n**2` approach only up
/// to fpppp-1000 "due to the excessive time and space requirements").
pub const TABLE4_BENCHMARKS: &[&str] = &[
    "grep",
    "regex",
    "dfa",
    "cccp",
    "linpack",
    "lloops",
    "tomcatv",
    "nasa7",
    "fpppp-1000",
];

/// The benchmarks of Tables 3 and 5 (all twelve rows).
pub fn table35_benchmarks() -> Vec<&'static str> {
    ALL_PROFILES.iter().map(|p| p.name).collect()
}

fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

fn fmt_secs(s: f64) -> String {
    format!("{s:.4}")
}

/// Table 1: the 26-heuristic survey.
pub fn table1() -> Table {
    let mut t = Table::new(vec![
        "category".into(),
        "heuristic".into(),
        "basis".into(),
        "pass".into(),
        "transitive-sensitive".into(),
    ]);
    for h in heuristic_catalog() {
        t.row(vec![
            h.category.name().into(),
            h.name.into(),
            match h.basis {
                Basis::Relationship => "relationship".into(),
                Basis::Timing => "timing".into(),
            },
            h.pass.code().into(),
            if h.transitive_sensitive {
                "**".into()
            } else {
                "".into()
            },
        ]);
    }
    t
}

/// Table 2: the six published scheduling algorithms.
pub fn table2() -> Table {
    let mut t = Table::new(vec![
        "algorithm".into(),
        "dag pass".into(),
        "dag algorithm".into(),
        "sched pass".into(),
        "combiner".into(),
        "ranked heuristics".into(),
    ]);
    for a in algorithm_catalog() {
        let heur = a
            .heuristics
            .iter()
            .map(|h| {
                let sense = match h.criterion.sense {
                    Sense::PreferMax => "",
                    Sense::PreferMin => " (inverse)",
                };
                let code = if h.pass_code.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", h.pass_code)
                };
                format!("{}. {}{sense}{code}", h.rank, h.criterion.key.name())
            })
            .collect::<Vec<_>>()
            .join("; ");
        t.row(vec![
            a.kind.name().into(),
            a.dag_pass
                .map(|d| d.code().into())
                .unwrap_or_else(|| "n.g.".to_string()),
            a.dag_algorithm.unwrap_or("n.g.").into(),
            format!(
                "{}{}",
                match a.sched_pass {
                    SchedDirection::Forward => "f",
                    SchedDirection::Backward => "b",
                },
                if a.postpass { "+postpass" } else { "" }
            ),
            if a.priority_fn {
                "priority fn".into()
            } else {
                "winnowing".into()
            },
            heur,
        ]);
    }
    t
}

/// Table 3: structural data for the benchmarks (independent of approach).
pub fn table3(seed: u64) -> Table {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "# basic blocks".into(),
        "# insts".into(),
        "insts/bb max".into(),
        "insts/bb avg".into(),
        "mem exprs/bb max".into(),
        "mem exprs/bb avg".into(),
    ]);
    for name in table35_benchmarks() {
        let profile = BenchmarkProfile::by_name(name).expect("profile");
        let bench = generate(profile, seed);
        let s = dagsched_stats::block_structure(&bench.program, &bench.blocks);
        t.row(vec![
            name.into(),
            s.blocks.to_string(),
            s.insts.to_string(),
            format!("{:.0}", s.insts_per_block.max),
            fmt2(s.insts_per_block.avg),
            format!("{:.0}", s.mem_exprs_per_block.max),
            fmt2(s.mem_exprs_per_block.avg),
        ]);
    }
    t
}

fn timed_pipeline_row(
    name: &str,
    seed: u64,
    runs: u32,
    algo: ConstructionAlgorithm,
    order: BackwardOrder,
) -> (f64, dagsched_stats::DagStructure) {
    let profile = BenchmarkProfile::by_name(name).expect("profile");
    let bench = generate(profile, seed);
    timed_pipeline_bench(&bench, runs, algo, order, 1)
}

/// Like [`timed_pipeline_row`] but over an already-generated benchmark —
/// callers that time several algorithms on the same workload should
/// generate once and reuse (fpppp synthesis costs ~100 ms per call).
fn timed_pipeline_bench(
    bench: &dagsched_workloads::Benchmark,
    runs: u32,
    algo: ConstructionAlgorithm,
    order: BackwardOrder,
    jobs: usize,
) -> (f64, dagsched_stats::DagStructure) {
    let model = MachineModel::sparc2();
    let timed = time_avg(runs, || {
        run_benchmark_jobs(
            bench,
            &model,
            algo,
            MemDepPolicy::SymbolicExpr,
            order,
            false,
            jobs,
        )
        .expect("pipeline")
    });
    (timed.secs(), timed.value.structure)
}

/// Table 4: run times and structure for the `n**2` approach. `jobs`
/// shards the pipeline across worker threads (structure columns are
/// identical for every value; only the wall-clock time changes).
pub fn table4(seed: u64, runs: u32, jobs: usize) -> Table {
    let mut t = Table::new(vec![
        "benchmark".into(),
        format!("run time (s, jobs={jobs})"),
        "children/inst max".into(),
        "children/inst avg".into(),
        "arcs/bb max".into(),
        "arcs/bb avg".into(),
    ]);
    for name in TABLE4_BENCHMARKS {
        let bench = generate(BenchmarkProfile::by_name(name).expect("profile"), seed);
        let (secs, s) = timed_pipeline_bench(
            &bench,
            runs,
            ConstructionAlgorithm::N2Forward,
            BackwardOrder::ReverseWalk,
            jobs,
        );
        t.row(vec![
            (*name).into(),
            fmt_secs(secs),
            format!("{:.0}", s.children_per_inst().max),
            fmt2(s.children_per_inst().avg),
            format!("{:.0}", s.arcs_per_block().max),
            fmt2(s.arcs_per_block().avg),
        ]);
    }
    t
}

/// Table 5: run times and structure for the table-building approaches
/// (forward and backward). `jobs` as in [`table4`].
pub fn table5(seed: u64, runs: u32, jobs: usize) -> Table {
    let mut t = Table::new(vec![
        "benchmark".into(),
        format!("fwd time (s, jobs={jobs})"),
        format!("bwd time (s, jobs={jobs})"),
        "children/inst max".into(),
        "children/inst avg".into(),
        "arcs/bb max".into(),
        "arcs/bb avg".into(),
    ]);
    for name in table35_benchmarks() {
        let bench = generate(BenchmarkProfile::by_name(name).expect("profile"), seed);
        let (f_secs, s) = timed_pipeline_bench(
            &bench,
            runs,
            ConstructionAlgorithm::TableForward,
            BackwardOrder::ReverseWalk,
            jobs,
        );
        let (b_secs, _) = timed_pipeline_bench(
            &bench,
            runs,
            ConstructionAlgorithm::TableBackward,
            BackwardOrder::ReverseWalk,
            jobs,
        );
        t.row(vec![
            name.into(),
            fmt_secs(f_secs),
            fmt_secs(b_secs),
            format!("{:.0}", s.children_per_inst().max),
            fmt2(s.children_per_inst().avg),
            format!("{:.0}", s.arcs_per_block().max),
            fmt2(s.arcs_per_block().avg),
        ]);
    }
    t
}

/// Parallel scaling of the block-compilation pipeline: the same
/// ≥1000-block workload (cccp, 3480 blocks) compiled with increasing
/// worker counts, backward table building.
///
/// Besides wall-clock time and speedup, the per-phase counters are
/// reported so the row-to-row invariants are visible: arcs, table probes
/// and instruction totals must be *identical* across job counts (they
/// are asserted, not just printed), while the per-phase CPU times are
/// summed across workers and so exceed wall-clock once `jobs > 1`.
pub fn jobs_scaling(seed: u64, runs: u32, jobs_list: &[usize]) -> Table {
    let bench = generate(BenchmarkProfile::by_name("cccp").expect("profile"), seed);
    let model = MachineModel::sparc2();
    let mut t = Table::new(vec![
        "jobs".into(),
        "time (s)".into(),
        "speedup".into(),
        "blocks".into(),
        "insts".into(),
        "arcs".into(),
        "table probes".into(),
        "construct cpu (ms)".into(),
        "heur cpu (ms)".into(),
        "sched cpu (ms)".into(),
    ]);
    let mut baseline: Option<(f64, crate::PipelineResult)> = None;
    for &jobs in jobs_list {
        let timed = time_avg(runs, || {
            run_benchmark_jobs(
                &bench,
                &model,
                ConstructionAlgorithm::TableBackward,
                MemDepPolicy::SymbolicExpr,
                BackwardOrder::ReverseWalk,
                false,
                jobs,
            )
            .expect("pipeline")
        });
        let secs = timed.secs();
        let r = timed.value;
        if let Some((base_secs, base)) = &baseline {
            assert!(
                base.stats.same_counts(&r.stats) && base.insts == r.insts,
                "jobs={jobs} diverged from the serial counters"
            );
            t.row(row_for(jobs, secs, base_secs / secs.max(1e-12), &r));
        } else {
            t.row(row_for(jobs, secs, 1.0, &r));
            baseline = Some((secs, r));
        }
    }
    return t;

    fn row_for(jobs: usize, secs: f64, speedup: f64, r: &crate::PipelineResult) -> Vec<String> {
        vec![
            jobs.to_string(),
            fmt_secs(secs),
            fmt2(speedup),
            r.stats.blocks.to_string(),
            r.insts.to_string(),
            r.stats.arcs_added.to_string(),
            r.stats.table_probes.to_string(),
            format!("{:.1}", r.stats.construct_ns as f64 / 1e6),
            format!("{:.1}", r.stats.heur_ns as f64 / 1e6),
            format!("{:.1}", r.stats.sched_ns as f64 / 1e6),
        ]
    }
}

/// The paper's Figure 1 block.
pub const FIGURE1_ASM: &str = "DIVF R1,R2,R3\nADDF R4,R5,R1\nADDF R1,R3,R6";

/// Figure 1: the importance of transitive arcs, as a walkthrough.
pub fn figure1() -> String {
    let prog = parse_asm(FIGURE1_ASM).expect("figure 1 parses");
    let model = MachineModel::sparc2();
    let block = PreparedBlock::new(&prog.insns);
    let mut out = String::new();
    out.push_str("Figure 1 block (1: DIVF R1,R2,R3  2: ADDF R4,R5,R1  3: ADDF R1,R3,R6)\n\n");
    for algo in [
        ConstructionAlgorithm::TableBackward,
        ConstructionAlgorithm::TableForward,
        ConstructionAlgorithm::N2Forward,
        ConstructionAlgorithm::N2ForwardLandskov,
        ConstructionAlgorithm::TableBackwardBitmap,
    ] {
        let dag = algo.run(&block, &model, MemDepPolicy::SymbolicExpr);
        let mut h = HeuristicSet::default();
        dagsched_core::annotate_construction(&mut h, &dag, &prog.insns, &model);
        dagsched_core::annotate_forward(&mut h, &dag);
        let arcs: Vec<String> = dag
            .arcs()
            .map(|a| {
                format!(
                    "{}->{} {} d={}",
                    a.from.index() + 1,
                    a.to.index() + 1,
                    a.kind,
                    a.latency
                )
            })
            .collect();
        let keeps = dag.arc_between(NodeId::new(0), NodeId::new(2)).is_some();
        let est_ok = h.est[2] == 20;
        out.push_str(&format!(
            "{:<26} arcs: {:<44} keeps 1->3: {:<5} EST(3)={} {}\n",
            algo.name(),
            arcs.join(", "),
            keeps,
            h.est[2],
            if est_ok {
                "(correct)"
            } else {
                "(WRONG: true earliest time is 20)"
            },
        ));
    }
    out.push_str(
        "\nThe table-building methods retain the transitive 20-cycle RAW arc, so the\n\
         earliest start time of node 3 is computed correctly; pruning all transitive\n\
         arcs (Landskov) understates it as 5 = WAR(1)+RAW(4).\n",
    );
    out
}

/// Ablation A1 (finding 4): level lists vs. reverse linked-list walk for
/// the intermediate heuristic pass.
pub fn ablate_levels(seed: u64, runs: u32) -> Table {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "reverse walk (s)".into(),
        "level lists (s)".into(),
        "ratio".into(),
    ]);
    for name in ["linpack", "nasa7", "fpppp"] {
        let (rw, _) = timed_pipeline_row(
            name,
            seed,
            runs,
            ConstructionAlgorithm::TableBackward,
            BackwardOrder::ReverseWalk,
        );
        let (ll, _) = timed_pipeline_row(
            name,
            seed,
            runs,
            ConstructionAlgorithm::TableBackward,
            BackwardOrder::LevelLists,
        );
        t.row(vec![
            name.into(),
            fmt_secs(rw),
            fmt_secs(ll),
            fmt2(ll / rw.max(1e-12)),
        ]);
    }
    t
}

/// Ablation A2 (finding 3): the cost and the damage of transitive-arc
/// avoidance.
pub fn ablate_transitive(seed: u64, runs: u32) -> Table {
    let model = MachineModel::sparc2();
    let fig1 = parse_asm(FIGURE1_ASM).expect("figure 1 parses");
    let fig1_block = PreparedBlock::new(&fig1.insns);
    let mut t = Table::new(vec![
        "algorithm".into(),
        "tomcatv time (s)".into(),
        "tomcatv arcs/bb avg".into(),
        "fig.1 timing preserved".into(),
    ]);
    for algo in [
        ConstructionAlgorithm::N2Forward,
        ConstructionAlgorithm::N2ForwardLandskov,
        ConstructionAlgorithm::TableBackward,
        ConstructionAlgorithm::TableBackwardBitmap,
    ] {
        let (secs, s) = timed_pipeline_row("tomcatv", seed, runs, algo, BackwardOrder::ReverseWalk);
        let dag = algo.run(&fig1_block, &model, MemDepPolicy::SymbolicExpr);
        let preserved = closure::preserves_dependence_latencies(
            &dag,
            &fig1_block,
            &model,
            MemDepPolicy::SymbolicExpr,
        )
        .is_ok();
        t.row(vec![
            algo.name().into(),
            fmt_secs(secs),
            fmt2(s.arcs_per_block().avg),
            if preserved { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// Ablation A3 (§7 future work): does an optimal branch-and-bound
/// scheduler beat the heuristics on small basic blocks? Every block of
/// `bench_name` with at most `max_block` instructions is solved optimally
/// and each published scheduler is scored against the optimum.
pub fn ablate_optimal(seed: u64, bench_name: &str, max_block: usize) -> Table {
    use dagsched_sched::{BranchAndBound, Scheduler, SchedulerKind};
    let profile = BenchmarkProfile::by_name(bench_name).expect("profile");
    let bench = generate(profile, seed);
    let model = MachineModel::sparc2();
    let bnb = BranchAndBound::default();

    // Optimal makespan per eligible block.
    let mut optimal: Vec<(usize, u64)> = Vec::new(); // (block index, makespan)
    for (bi, block) in bench.blocks.iter().enumerate() {
        let insns = bench.program.block_insns(block);
        if insns.is_empty() || insns.len() > max_block {
            continue;
        }
        let prepared = PreparedBlock::new(insns);
        let dag =
            ConstructionAlgorithm::TableBackward.run(&prepared, &model, MemDepPolicy::SymbolicExpr);
        let heur = HeuristicSet::compute(&dag, insns, &model, false);
        let r = bnb.schedule(&dag, insns, &model, &heur);
        if r.is_proven() {
            optimal.push((bi, r.schedule().makespan(insns, &model)));
        }
    }

    let mut t = Table::new(vec![
        "scheduler".into(),
        "blocks".into(),
        "% optimal".into(),
        "total excess cycles".into(),
        "max excess".into(),
    ]);
    for &kind in SchedulerKind::ALL {
        let sched = Scheduler::new(kind);
        let mut hits = 0usize;
        let mut excess = 0u64;
        let mut max_excess = 0u64;
        for &(bi, opt) in &optimal {
            let insns = bench.program.block_insns(&bench.blocks[bi]);
            let s = sched.schedule_block(insns, &model);
            let m = s.makespan(insns, &model);
            debug_assert!(m >= opt);
            if m == opt {
                hits += 1;
            }
            excess += m - opt;
            max_excess = max_excess.max(m - opt);
        }
        t.row(vec![
            kind.name().into(),
            optimal.len().to_string(),
            format!("{:.1}", 100.0 * hits as f64 / optimal.len().max(1) as f64),
            excess.to_string(),
            max_excess.to_string(),
        ]);
    }
    t
}

/// Ablation A4: the "alternate type" heuristic on a dual-issue machine.
/// Warren's stack with and without the alternate-type rank, measured in
/// pipeline cycles on a 2-wide in-order machine — the superscalar
/// motivation the paper's §3 gives for the heuristic.
pub fn ablate_alternate(seed: u64, bench_name: &str) -> Table {
    use dagsched_pipesim::{simulate, SimOptions};
    use dagsched_sched::{Criterion, HeurKey, Scheduler, SchedulerKind, SelectStrategy};
    let profile = BenchmarkProfile::by_name(bench_name).expect("profile");
    let bench = generate(profile, seed);
    let model = MachineModel::sparc2().with_issue_width(2);
    let opts = SimOptions {
        issue_width: Some(2),
        ..SimOptions::default()
    };

    let with_alt = Scheduler::new(SchedulerKind::Warren);
    let mut without_alt = Scheduler::new(SchedulerKind::Warren);
    if let SelectStrategy::Winnowing(ref mut crits) = without_alt.list.strategy {
        crits.retain(|c: &Criterion| c.key != HeurKey::AlternateType);
    }

    let mut t = Table::new(vec!["configuration".into(), "cycles".into(), "ipc".into()]);
    for (label, sched) in [
        ("Warren with alternate type", &with_alt),
        ("Warren without alternate type", &without_alt),
    ] {
        let mut cycles = 0u64;
        let mut insts = 0usize;
        for block in &bench.blocks {
            let insns = bench.program.block_insns(block);
            if insns.is_empty() {
                continue;
            }
            let schedule = sched.schedule_block(insns, &model);
            let reordered: Vec<_> = schedule.order.iter().map(|n| insns[n.index()]).collect();
            cycles += simulate(&reordered, &model, opts).cycles;
            insts += insns.len();
        }
        t.row(vec![
            label.into(),
            cycles.to_string(),
            format!("{:.3}", insts as f64 / cycles as f64),
        ]);
    }
    t
}

/// The §6 window recommendation: sweep instruction-window sizes over a
/// large-block benchmark and report the `n**2` vs table-building pipeline
/// cost ("an instruction window size of no more than 300-400 instructions
/// should be maintained" for `n**2`).
pub fn window_sweep(seed: u64, runs: u32) -> Table {
    use dagsched_workloads::clamp_blocks;
    let profile = BenchmarkProfile::by_name("nasa7").expect("profile");
    let base = generate(profile, seed);
    let model = MachineModel::sparc2();
    let mut t = Table::new(vec![
        "window".into(),
        "n**2 time (s)".into(),
        "table time (s)".into(),
        "ratio".into(),
    ]);
    for window in [50usize, 100, 200, 400, 800, usize::MAX] {
        let mut bench = base.clone();
        if window != usize::MAX {
            bench.blocks = clamp_blocks(&base.blocks, window);
        }
        let n2 = time_avg(runs, || {
            run_benchmark(
                &bench,
                &model,
                ConstructionAlgorithm::N2Forward,
                MemDepPolicy::SymbolicExpr,
                BackwardOrder::ReverseWalk,
                false,
            )
            .expect("pipeline")
        })
        .secs();
        let tb = time_avg(runs, || {
            run_benchmark(
                &bench,
                &model,
                ConstructionAlgorithm::TableBackward,
                MemDepPolicy::SymbolicExpr,
                BackwardOrder::ReverseWalk,
                false,
            )
            .expect("pipeline")
        })
        .secs();
        t.row(vec![
            if window == usize::MAX {
                "none".into()
            } else {
                window.to_string()
            },
            fmt_secs(n2),
            fmt_secs(tb),
            fmt2(n2 / tb.max(1e-12)),
        ]);
    }
    t
}

/// Phase breakdown of the three-step pipeline: construction, the
/// intermediate heuristic pass, and scheduling, timed separately.
///
/// Context for the abstract's "node revisitation overhead ... negligible"
/// claim: the *savings available* from eliminating child revisitation
/// (backward construction's first pass builds only a linked list) are
/// bounded by the inter-phase deltas here — and Table 5's
/// forward-vs-backward columns show the realized difference is indeed
/// in the noise.
pub fn heur_overhead(seed: u64, runs: u32) -> Table {
    use dagsched_core::{annotate_backward_cp, annotate_construction};
    let model = MachineModel::sparc2();
    let mut t = Table::new(vec![
        "benchmark".into(),
        "construct (s)".into(),
        "+heuristics (s)".into(),
        "full pipeline (s)".into(),
        "heur share".into(),
    ]);
    for name in ["linpack", "nasa7", "fpppp"] {
        let bench = generate(BenchmarkProfile::by_name(name).expect("profile"), seed);
        let scheduler = crate::pipeline::simple_forward_scheduler();
        let construct_only = time_avg(runs, || {
            let mut arcs = 0usize;
            for block in &bench.blocks {
                let insns = bench.program.block_insns(block);
                let prepared = PreparedBlock::new(insns);
                arcs += ConstructionAlgorithm::TableBackward
                    .run(&prepared, &model, MemDepPolicy::SymbolicExpr)
                    .arc_count();
            }
            arcs
        })
        .secs();
        let with_heur = time_avg(runs, || {
            let mut total = 0u64;
            for block in &bench.blocks {
                let insns = bench.program.block_insns(block);
                let prepared = PreparedBlock::new(insns);
                let dag = ConstructionAlgorithm::TableBackward.run(
                    &prepared,
                    &model,
                    MemDepPolicy::SymbolicExpr,
                );
                let mut h = HeuristicSet::default();
                annotate_construction(&mut h, &dag, insns, &model);
                annotate_backward_cp(&mut h, &dag, BackwardOrder::ReverseWalk);
                total += h.max_delay_to_leaf.first().copied().unwrap_or(0);
            }
            total
        })
        .secs();
        let full = time_avg(runs, || {
            let mut cycles = 0u64;
            for block in &bench.blocks {
                let insns = bench.program.block_insns(block);
                if insns.is_empty() {
                    continue;
                }
                let prepared = PreparedBlock::new(insns);
                let dag = ConstructionAlgorithm::TableBackward.run(
                    &prepared,
                    &model,
                    MemDepPolicy::SymbolicExpr,
                );
                let mut h = HeuristicSet::default();
                annotate_construction(&mut h, &dag, insns, &model);
                annotate_backward_cp(&mut h, &dag, BackwardOrder::ReverseWalk);
                cycles += scheduler
                    .run(&dag, insns, &model, &h)
                    .makespan(insns, &model);
            }
            cycles
        })
        .secs();
        let share = ((with_heur - construct_only) / full.max(1e-12)).max(0.0);
        t.row(vec![
            name.into(),
            fmt_secs(construct_only),
            fmt_secs(with_heur),
            fmt_secs(full),
            format!("{:.1}%", 100.0 * share),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_26_rows() {
        assert_eq!(table1().len(), 26);
    }

    #[test]
    fn table2_has_6_rows() {
        assert_eq!(table2().len(), 6);
    }

    #[test]
    fn table3_matches_paper_totals() {
        let t = table3(dagsched_workloads::PAPER_SEED);
        assert_eq!(t.len(), 12);
        let text = t.to_string();
        // Pinned Table 3 values must appear verbatim.
        for needle in ["730", "1739", "25545", "11750", "326", "324"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn figure1_reports_landskov_miscalculation() {
        let text = figure1();
        assert!(text.contains("WRONG"), "{text}");
        assert!(text.contains("(correct)"), "{text}");
    }

    #[test]
    fn ablate_transitive_flags_landskov() {
        let t = ablate_transitive(dagsched_workloads::PAPER_SEED, 1);
        let text = t.to_string();
        assert!(text.contains("NO"), "{text}");
        assert!(text.contains("yes"), "{text}");
    }
}
