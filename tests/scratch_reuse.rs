//! A reused [`Scratch`] must be observationally identical to a fresh
//! one: nothing computed for one block may leak into the next.
//!
//! Heuristic vectors, prepared lists, DAG columns and the scheduler's
//! state are refilled in place, so the dangerous orders are a large block
//! followed by smaller ones (a stale tail), a full set followed by a set
//! of fewer passes (stale fields), and one construction algorithm right
//! after another in the same recycled DAG. All are exercised here, then
//! whole batches through the driver, then the keep limit.

use std::time::{Duration, Instant};

use dagsched::batch::{schedule_program_batch_scratch, DegradePolicy, Limits, NoCache};
use dagsched::core::closure::reference_heuristics;
use dagsched::core::{
    ConstructionAlgorithm, HeuristicPasses, HeuristicSet, MemDepPolicy, PreparedBlock, Scratch,
    SCRATCH_KEEP_BYTES,
};
use dagsched::driver::{compile_block, DriverConfig};
use dagsched::isa::{Instruction, MachineModel, Program};
use dagsched::sched::{Scheduler, SchedulerKind};
use dagsched::workloads::{generate, parse_asm, BenchmarkProfile, PAPER_SEED};

fn program(name: &str) -> Program {
    generate(BenchmarkProfile::by_name(name).unwrap(), PAPER_SEED).program
}

/// The blocks of `program` with at least `min_len` instructions, largest
/// first.
fn blocks_by_size(program: &Program, min_len: usize) -> Vec<Vec<Instruction>> {
    let mut out: Vec<Vec<Instruction>> = program
        .basic_blocks()
        .iter()
        .map(|b| program.block_insns(b).to_vec())
        .filter(|insns| insns.len() >= min_len)
        .collect();
    out.sort_by_key(|insns| std::cmp::Reverse(insns.len()));
    out
}

/// The critical-path fields of `h`, which the degradation floor's
/// passes fill; every other field must be empty.
fn critical_path_fields(h: &HeuristicSet) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>) {
    let empty = HeuristicSet {
        exec_time: h.exec_time.clone(),
        original_order: h.original_order.clone(),
        max_path_to_leaf: h.max_path_to_leaf.clone(),
        max_delay_to_leaf: h.max_delay_to_leaf.clone(),
        ..HeuristicSet::default()
    };
    assert_eq!(h, &empty, "the critical-path set left another field filled");
    (
        h.exec_time.clone(),
        h.original_order.clone(),
        h.max_path_to_leaf.clone(),
        h.max_delay_to_leaf.clone(),
    )
}

#[test]
fn reused_heuristic_storage_never_leaks_between_blocks() {
    let model = MachineModel::sparc2();
    let policy = MemDepPolicy::SymbolicExpr;
    // Decreasing sizes: fpppp-1000's largest block, then tomcatv's and
    // grep's blocks, largest first.
    let mut blocks = vec![blocks_by_size(&program("fpppp-1000"), 1).swap_remove(0)];
    blocks.extend(blocks_by_size(&program("tomcatv"), 2).into_iter().take(12));
    blocks.extend(blocks_by_size(&program("grep"), 2).into_iter().take(12));
    assert!(blocks[0].len() > 500, "{}", blocks[0].len());

    // Every pass and every published scheduler's passes, then the
    // degradation floor's, then `compute`'s without descendants, in
    // turn: each set follows one with other fields filled.
    let full = HeuristicPasses::ARCS | HeuristicPasses::REGISTERS | HeuristicPasses::SLACK;
    let floor = Scheduler::critical_path_fallback(policy).heuristic_passes();
    let mut rotation = vec![HeuristicPasses::ALL];
    rotation.extend(
        SchedulerKind::ALL
            .iter()
            .map(|&k| Scheduler::new(k).heuristic_passes()),
    );
    rotation.extend([floor, full]);

    let mut scratch = Scratch::new();
    for (k, insns) in blocks.iter().enumerate() {
        let prepared = PreparedBlock::new(insns);
        let dag = ConstructionAlgorithm::TableForward.run_with_scratch(
            &prepared,
            &model,
            policy,
            &mut scratch,
        );
        let passes = rotation[k % rotation.len()];
        scratch.heuristics.fill(passes, &dag, &prepared, &model);
        let mut fresh = HeuristicSet::default();
        fresh.fill(passes, &dag, &prepared, &model);
        assert_eq!(
            scratch.heuristics,
            fresh,
            "block {k} ({} insns), {passes:?}",
            insns.len()
        );
        if passes == HeuristicPasses::ALL || passes == full {
            let with_descendants = passes == HeuristicPasses::ALL;
            let reference = reference_heuristics(&dag, insns, &model, with_descendants);
            assert_eq!(scratch.heuristics, reference, "block {k}");
            let computed = HeuristicSet::compute(&dag, insns, &model, with_descendants);
            assert_eq!(scratch.heuristics, computed, "block {k}");
        } else if passes == floor {
            let reference = reference_heuristics(&dag, insns, &model, false);
            assert_eq!(
                critical_path_fields(&scratch.heuristics),
                (
                    reference.exec_time,
                    reference.original_order,
                    reference.max_path_to_leaf,
                    reference.max_delay_to_leaf,
                ),
                "block {k}"
            );
        }
    }
}

/// Limits that pin every block to the critical-path floor rung for an
/// hour-away deadline, whatever the machine's speed.
fn floor_rung() -> Limits {
    Limits {
        deadline: Some(Instant::now() + Duration::from_secs(3600)),
        degrade: Some(DegradePolicy {
            soft: Duration::from_secs(7200),
            hard: Duration::from_secs(7200),
        }),
        ..Limits::none()
    }
}

#[test]
fn a_reused_scratch_compiles_each_batch_like_a_fresh_one() {
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    let (nasa7, grep) = (program("nasa7"), program("grep"));
    let calls: [(&str, &Program, Limits); 4] = [
        ("nasa7", &nasa7, Limits::none()),
        ("grep", &grep, Limits::none()),
        ("nasa7 on the floor rung", &nasa7, floor_rung()),
        ("grep", &grep, Limits::none()),
    ];
    let mut reused = Scratch::new();
    for (name, program, limits) in &calls {
        let (out, stats) =
            schedule_program_batch_scratch(program, &model, &config, limits, &NoCache, &mut reused)
                .unwrap();
        let (fresh, fresh_stats) = schedule_program_batch_scratch(
            program,
            &model,
            &config,
            limits,
            &NoCache,
            &mut Scratch::new(),
        )
        .unwrap();
        assert_eq!(out.insns, fresh.insns, "{name}");
        assert_eq!(out.blocks.len(), fresh.blocks.len(), "{name}");
        for (a, b) in out.blocks.iter().zip(&fresh.blocks) {
            assert_eq!(
                (a.block, a.original_makespan, a.scheduled_makespan),
                (b.block, b.original_makespan, b.scheduled_makespan),
                "{name}"
            );
        }
        assert!(
            stats.same_counts(&fresh_stats),
            "{name}: {stats} vs {fresh_stats}"
        );
        let floor = limits.degrade.is_some();
        assert_eq!(stats.degraded_blocks, floor as u64 * stats.blocks, "{name}");
        assert_eq!(stats.degraded_blocks, fresh_stats.degraded_blocks, "{name}");
    }
}

/// The driver configurations the recycled-storage tests rotate through:
/// every published scheduler, so each construction algorithm of the
/// default path (`n**2` forward and backward, table forward) and both
/// scheduling directions follow one another in the same arena — a
/// table-building compile right after an `n**2` one included.
fn rotation() -> Vec<DriverConfig> {
    [
        SchedulerKind::Warren,
        SchedulerKind::Krishnamurthy,
        SchedulerKind::GibbonsMuchnick,
        SchedulerKind::Tiemann,
        SchedulerKind::Schlansker,
        SchedulerKind::ShiehPapachristou,
    ]
    .into_iter()
    .map(|kind| DriverConfig {
        scheduler: Scheduler::new(kind),
        ..DriverConfig::default()
    })
    .collect()
}

/// Compile `insns` through `scratch` and through a fresh arena, and
/// require the same emitted order, report and work counters.
fn compile_like_fresh(
    what: &str,
    insns: &[Instruction],
    model: &MachineModel,
    config: &DriverConfig,
    scratch: &mut Scratch,
) {
    let before = scratch.stats;
    let reused = compile_block(0, insns, model, config, None, scratch).unwrap();
    let mut fresh_scratch = Scratch::new();
    let fresh = compile_block(0, insns, model, config, None, &mut fresh_scratch).unwrap();
    assert_eq!(reused.order, fresh.order, "{what}");
    assert_eq!(reused.report, fresh.report, "{what}");
    let mut added = scratch.stats;
    added.blocks -= before.blocks;
    added.nodes -= before.nodes;
    added.arcs_added -= before.arcs_added;
    added.arcs_suppressed -= before.arcs_suppressed;
    added.table_probes -= before.table_probes;
    added.comparisons -= before.comparisons;
    assert!(
        added.same_counts(&fresh_scratch.stats),
        "{what}: {added} vs {}",
        fresh_scratch.stats
    );
}

#[test]
fn recycled_dag_lists_and_scheduler_state_never_leak_between_blocks() {
    let model = MachineModel::sparc2();
    // Large (tomcatv's largest, 326 instructions at the paper's seed),
    // then small ones, the smallest last, then large again.
    let tomcatv = blocks_by_size(&program("tomcatv"), 2);
    let nasa7 = blocks_by_size(&program("nasa7"), 2);
    let mut blocks = vec![tomcatv[0].clone()];
    blocks.extend(tomcatv[tomcatv.len() - 10..].iter().cloned());
    blocks.extend(
        blocks_by_size(&program("grep"), 1)
            .into_iter()
            .rev()
            .take(10),
    );
    blocks.push(nasa7[0].clone());
    blocks.extend(nasa7[1..11].iter().cloned());
    blocks.push(tomcatv[0].clone());
    assert!(blocks[0].len() > 200, "{}", blocks[0].len());

    let configs = rotation();
    let mut scratch = Scratch::new();
    for (k, insns) in blocks.iter().enumerate() {
        let config = &configs[k % configs.len()];
        let what = format!(
            "block {k} ({} insns) under {}",
            insns.len(),
            config.scheduler.kind.name()
        );
        compile_like_fresh(&what, insns, &model, config, &mut scratch);
    }
    assert!(scratch.retained_bytes() > 0, "the arena kept nothing");
}

#[test]
fn a_block_past_the_keep_limit_is_not_kept() {
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    // 8,000 writes of one register, built by table building (`n**2`
    // would link all 32M pairs): about 200 bytes of prepared lists,
    // DAG, heuristics and scheduler state per instruction under
    // Warren's heuristic passes.
    let table = DriverConfig {
        scheduler: config
            .scheduler
            .clone()
            .with_construction(ConstructionAlgorithm::TableForward),
        ..config.clone()
    };
    let chain = parse_asm(&"add %o0, 1, %o0\n".repeat(8000)).unwrap().insns;
    let small = blocks_by_size(&program("tomcatv"), 2);

    let mut scratch = Scratch::new();
    compile_like_fresh("small", &small[0], &model, &config, &mut scratch);
    let warm = scratch.retained_bytes();
    assert!(warm > 0 && warm <= SCRATCH_KEEP_BYTES, "{warm}");

    // Kept, the chain's storage would pass the limit (about 1.6 MB), so
    // the arena releases all of it: nothing at all is retained.
    compile_like_fresh("chain", &chain, &model, &table, &mut scratch);
    assert_eq!(scratch.retained_bytes(), 0, "the chain's storage was kept");

    // The released arena grows back and still compiles like a fresh one.
    for (k, insns) in small.iter().take(8).enumerate() {
        compile_like_fresh(&format!("small {k}"), insns, &model, &config, &mut scratch);
    }
    assert!(scratch.retained_bytes() <= SCRATCH_KEEP_BYTES);
}
