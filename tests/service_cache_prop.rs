//! Property test for the schedule cache: replaying a cached block is
//! bit-identical to compiling it fresh, over random programs and both
//! delay-slot modes.
//!
//! This is the safety property the whole `dagsched-service` cache rests
//! on — a hit must be indistinguishable from a miss except in the
//! `cache_hits` / `cache_misses` counters and the elapsed time.

mod common;

use common::{block_specs, build_block};
use dagsched::batch::{schedule_program_batch, Limits, NoCache};
use dagsched::driver::DriverConfig;
use dagsched::isa::MachineModel;
use dagsched::sched::{Scheduler, SchedulerKind};
use dagsched::service::{ScheduleCache, MIN_ENTRY_COST};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold-cache, warm-cache, and uncached runs of the same program
    /// emit the same instructions; the warm run compiles nothing.
    #[test]
    fn cached_replay_is_bit_identical_to_fresh_compilation(
        specs in block_specs(20),
        terminated in any::<bool>(),
        fill_slots in any::<bool>(),
        sched_ix in 0usize..6,
    ) {
        let prog = build_block(&specs, terminated);
        let model = MachineModel::sparc2();
        let config = DriverConfig {
            scheduler: Scheduler::new(SchedulerKind::ALL[sched_ix % SchedulerKind::ALL.len()]),
            inherit_latencies: false,
            fill_delay_slots: fill_slots,
        };
        let limits = Limits::none();

        let (fresh, fresh_stats) =
            schedule_program_batch(&prog, &model, &config, 1, &limits, &NoCache)
                .expect("fresh run");

        let cache = ScheduleCache::default();
        let (cold, cold_stats) =
            schedule_program_batch(&prog, &model, &config, 1, &limits, &cache)
                .expect("cold-cache run");
        let (warm, warm_stats) =
            schedule_program_batch(&prog, &model, &config, 1, &limits, &cache)
                .expect("warm-cache run");

        prop_assert_eq!(&fresh.insns, &cold.insns, "cold-cache run diverged");
        prop_assert_eq!(&fresh.insns, &warm.insns, "warm-cache replay diverged");
        prop_assert!(
            fresh_stats.same_counts(&cold_stats),
            "cold-cache work counters diverged: {} vs {}",
            fresh_stats,
            cold_stats
        );
        let blocks = fresh.blocks.len() as u64;
        prop_assert_eq!(cold_stats.cache_misses, blocks);
        if blocks > 0 {
            // Every block hits on the second pass; nothing is compiled.
            prop_assert_eq!(warm_stats.cache_hits, blocks);
            prop_assert_eq!(warm_stats.cache_misses, 0);
            prop_assert_eq!(warm_stats.blocks, 0, "a hit must skip DAG construction");
            prop_assert_eq!(warm_stats.arcs_added, 0);
        }

        // Byte-accounting invariant: every resident entry is charged at
        // least its key + index + bookkeeping share, so `bytes` can
        // never under-count to zero-cost entries and quietly exceed the
        // configured budget. An empty cache holds zero bytes.
        let stats = cache.stats();
        prop_assert!(
            stats.bytes >= stats.entries * MIN_ENTRY_COST,
            "cache charges {} bytes for {} entries (< {} per-entry floor)",
            stats.bytes,
            stats.entries,
            MIN_ENTRY_COST
        );
        if stats.entries == 0 {
            prop_assert_eq!(stats.bytes, 0);
        }
    }
}
