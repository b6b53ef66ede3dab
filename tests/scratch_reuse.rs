//! A reused [`Scratch`] must be observationally identical to a fresh
//! one: nothing computed for one block may leak into the next.
//!
//! Heuristic vectors are refilled in place, so the dangerous order is a
//! large block followed by smaller ones (a stale tail) and a full set
//! followed by the critical-path subset (stale fields). Both are
//! exercised here, then whole batches through the driver.

use std::time::{Duration, Instant};

use dagsched::batch::{schedule_program_batch_scratch, DegradePolicy, Limits, NoCache};
use dagsched::core::closure::reference_heuristics;
use dagsched::core::{ConstructionAlgorithm, HeuristicSet, MemDepPolicy, PreparedBlock, Scratch};
use dagsched::driver::DriverConfig;
use dagsched::isa::{Instruction, MachineModel, Program};
use dagsched::workloads::{generate, BenchmarkProfile, PAPER_SEED};

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

/// The critical-path fields of `h`, which `compute_critical_path_into`
/// fills; every other field must be empty.
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

    let mut scratch = Scratch::new();
    for (k, insns) in blocks.iter().enumerate() {
        let prepared = PreparedBlock::new(insns);
        let dag = ConstructionAlgorithm::TableForward.run_with_scratch(
            &prepared,
            &model,
            policy,
            &mut scratch,
        );
        match k % 3 {
            0 | 2 => {
                let with_descendants = k % 3 == 0;
                scratch
                    .heuristics
                    .compute_into(&dag, insns, &model, with_descendants);
                let fresh = HeuristicSet::compute(&dag, insns, &model, with_descendants);
                assert_eq!(
                    scratch.heuristics,
                    fresh,
                    "block {k} ({} insns)",
                    insns.len()
                );
                let reference = reference_heuristics(&dag, insns, &model, with_descendants);
                assert_eq!(scratch.heuristics, reference, "block {k}");
            }
            _ => {
                scratch
                    .heuristics
                    .compute_critical_path_into(&dag, insns, &model);
                let fresh = HeuristicSet::compute_critical_path(&dag, insns, &model);
                assert_eq!(
                    scratch.heuristics,
                    fresh,
                    "block {k} ({} insns)",
                    insns.len()
                );
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
