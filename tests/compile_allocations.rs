//! With a warm [`Scratch`], compiling a block on the default path makes
//! one heap allocation: the emitted order the outcome owns. Every other
//! vector a compile fills — the prepared lists, the DAG's columns, the
//! heuristics, the scheduler's state and the schedule — is storage the
//! arena kept from an earlier block.
//!
//! Through a warm [`ScheduleCache`], a missed block's key, lookup,
//! compile and store make a fixed number of allocations whatever the
//! block's length, the store's being the entry's copy of the order at 4
//! bytes a slot, and a hit makes one: the replayed order.
//!
//! The counts come from a global allocator that counts per thread, so
//! the harness and any other test thread cannot add to them. Builds with
//! debug assertions allow one more allocation per compile:
//! `compile_block` debug-asserts `Schedule::verify`, which allocates a
//! position table. CI runs this file in release as well, where the
//! bounds are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched::batch::{schedule_program_batch_scratch, BlockCache, Limits};
use dagsched::core::Scratch;
use dagsched::driver::{compile_block, DriverConfig};
use dagsched::isa::{Instruction, MachineModel, Program};
use dagsched::key::CacheScope;
use dagsched::service::{CacheConfig, ScheduleCache};
use dagsched::workloads::{canon_mix, generate, generate_canon, BenchmarkProfile};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counters are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The seed the allocation counts are quoted at.
const SEED: u64 = 7;

/// Allocations one default `compile_block` may make with a warm arena.
const BOUND: u64 = 1 + cfg!(debug_assertions) as u64;

/// Allocations a missed block's key, lookup, compile and store may make
/// with a warm arena and cache: the compile's and the store's copy of
/// the emitted order.
const MISS_BOUND: u64 = BOUND + 1;

/// Allocations a hit may make: the replayed order.
const HIT_BOUND: u64 = 1;

/// Bytes a store may allocate beyond 4 per instruction: the slot of a
/// delay-slot `nop`, which the default configuration never emits.
const STORE_FIXED_BYTES: u64 = 4;

fn blocks(profile: &str) -> Vec<Vec<Instruction>> {
    let program = match generate_canon(profile, SEED) {
        Some(bench) => bench.program,
        None => generate(BenchmarkProfile::by_name(profile).unwrap(), SEED).program,
    };
    program
        .basic_blocks()
        .iter()
        .map(|b| program.block_insns(b).to_vec())
        .filter(|insns| !insns.is_empty())
        .collect()
}

#[test]
fn a_warm_scratch_compiles_each_block_with_one_allocation() {
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    for profile in ["grep", "tomcatv", "nasa7"] {
        let blocks = blocks(profile);
        let mut scratch = Scratch::new();
        // Warm-up: the arena grows to the largest block once.
        for (bi, insns) in blocks.iter().enumerate() {
            compile_block(bi, insns, &model, &config, None, &mut scratch).unwrap();
        }
        // (block, instructions, allocations) of the block that allocated most.
        let mut worst = (0, 0, 0);
        let mut total = 0;
        for (bi, insns) in blocks.iter().enumerate() {
            let before = allocations();
            let outcome = compile_block(bi, insns, &model, &config, None, &mut scratch).unwrap();
            let made = allocations() - before;
            drop(outcome);
            total += made;
            if made > worst.2 {
                worst = (bi, insns.len(), made);
            }
        }
        let per_block = total as f64 / blocks.len() as f64;
        eprintln!(
            "{profile}: {total} allocations over {} blocks ({per_block:.2} per block)",
            blocks.len()
        );
        let (bi, len, made) = worst;
        assert!(
            made <= BOUND,
            "{profile}: {per_block:.2} allocations per block; block {bi} ({len} insns) \
             made {made}, bound {BOUND}"
        );
    }
}

/// (block, instructions, count) of the block with the largest count.
#[derive(Default)]
struct Worst(usize, usize, u64);

impl Worst {
    fn see(&mut self, bi: usize, len: usize, count: u64) {
        if count > self.2 {
            *self = Worst(bi, len, count);
        }
    }
}

#[test]
fn a_warm_cache_keys_compiles_and_stores_each_missed_block_in_fixed_allocations() {
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    let scope = CacheScope::new(&model, &config);
    let profiles = ["grep", "tomcatv", "nasa7"].map(String::from);
    for profile in profiles.into_iter().chain(canon_mix()) {
        let blocks = blocks(&profile);
        let mut scratch = Scratch::new();
        // Misses: a one-entry cache evicts the last block at each store,
        // so its map and slab stop growing after the warm-up pass.
        let misses = ScheduleCache::new(CacheConfig {
            max_entries: 1,
            max_bytes: usize::MAX,
        });
        // Hits: a cache that keeps every block.
        let hits = ScheduleCache::new(CacheConfig {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        });
        let (mut miss, mut hit, mut store) = (Worst::default(), Worst::default(), Worst::default());
        let mut missed = 0;
        for round in 0..2 {
            for (bi, insns) in blocks.iter().enumerate() {
                let before = allocations();
                let key = scope.key_in(insns, &mut scratch.key_ordinals);
                if misses.lookup(bi, insns.len(), key).is_some() {
                    continue; // the same block twice in a row
                }
                let outcome =
                    compile_block(bi, insns, &model, &config, None, &mut scratch).unwrap();
                let (calls, stored) = (allocations(), bytes());
                misses.store(key, &outcome);
                let (store_calls, store_bytes) = (allocations() - calls, bytes() - stored);
                let made = allocations() - before;
                hits.store(key, &outcome);
                drop(outcome);
                if round == 1 {
                    assert_eq!(store_calls, 1, "{profile}: a store copies the order once");
                    missed += 1;
                    miss.see(bi, insns.len(), made);
                    let per_insn = store_bytes.saturating_sub(4 * insns.len() as u64);
                    store.see(bi, insns.len(), per_insn);
                }
            }
        }
        for (bi, insns) in blocks.iter().enumerate() {
            let before = allocations();
            let key = scope.key_in(insns, &mut scratch.key_ordinals);
            let outcome = hits
                .lookup(bi, insns.len(), key)
                .expect("every block was stored");
            hit.see(bi, insns.len(), allocations() - before);
            drop(outcome);
        }
        eprintln!(
            "{profile}: {missed} misses over {} blocks, at most {} allocations \
             (block {}, {} insns); hits at most {}; stores at most {} bytes past 4 per insn",
            blocks.len(),
            miss.2,
            miss.0,
            miss.1,
            hit.2,
            store.2
        );
        assert!(missed > 0, "{profile}: nothing missed");
        let Worst(bi, len, made) = miss;
        assert!(
            made <= MISS_BOUND,
            "{profile}: missed block {bi} ({len} insns) made {made} allocations, bound {MISS_BOUND}"
        );
        let Worst(bi, len, made) = hit;
        assert!(
            made <= HIT_BOUND,
            "{profile}: hit on block {bi} ({len} insns) made {made} allocations, bound {HIT_BOUND}"
        );
        let Worst(bi, len, extra) = store;
        assert!(
            extra <= STORE_FIXED_BYTES,
            "{profile}: storing block {bi} ({len} insns) allocated {extra} bytes past 4 per insn"
        );
    }
}

/// Through the batch loop, a one-block program whose block misses makes
/// the same number of allocations whatever the block's length: the
/// batch's own vectors, the scope's rendering, and the miss's two copies
/// of the order. A block keyed a second time would add the map a key
/// spills the canon blocks' ordinals into.
#[test]
fn a_batch_keys_each_missed_block_once() {
    let model = MachineModel::sparc2();
    let config = DriverConfig::default();
    let profiles = ["grep", "tomcatv"].map(String::from);
    let programs: Vec<Program> = profiles
        .into_iter()
        .chain(canon_mix())
        .flat_map(|profile| blocks(&profile))
        .map(|insns| {
            let mut program = Program::new();
            for insn in insns {
                program.push(insn);
            }
            program
        })
        .collect();
    let mut scratch = Scratch::new();
    let misses = ScheduleCache::new(CacheConfig {
        max_entries: 1,
        max_bytes: usize::MAX,
    });
    // (allocations, instructions) of the shortest and longest batches
    // seen at each count.
    let mut counts = std::collections::BTreeMap::new();
    for round in 0..2 {
        for program in &programs {
            let before = allocations();
            let (out, stats) = schedule_program_batch_scratch(
                program,
                &model,
                &config,
                &Limits::none(),
                &misses,
                &mut scratch,
            )
            .unwrap();
            let made = allocations() - before;
            drop(out);
            if round == 1 && stats.cache_misses == 1 && stats.cache_hits == 0 {
                let (shortest, longest) = counts.entry(made).or_insert((usize::MAX, 0));
                *shortest = program.len().min(*shortest);
                *longest = program.len().max(*longest);
            }
        }
    }
    eprintln!("one-block batches: {counts:?} (allocations: (shortest, longest) block)");
    assert_eq!(
        counts.len(),
        1,
        "allocations depend on the block: {counts:?}"
    );
}
