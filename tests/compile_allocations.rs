//! With a warm [`Scratch`], compiling a block on the default path makes
//! one heap allocation: the emitted instruction stream the outcome owns.
//! Every other vector a compile fills — the prepared lists, the DAG's
//! columns, the heuristics, the scheduler's state and the schedule — is
//! storage the arena kept from an earlier block.
//!
//! The count comes from a global allocator that counts per thread, so
//! the harness and any other test thread cannot add to it. Builds with
//! debug assertions allow one more allocation per block: `compile_block`
//! debug-asserts `Schedule::verify`, which allocates a position table.
//! CI runs this file in release as well, where the bound is exactly one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched::core::Scratch;
use dagsched::driver::{compile_block, DriverConfig};
use dagsched::isa::{Instruction, MachineModel};
use dagsched::workloads::{generate, BenchmarkProfile};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// The seed the allocation counts are quoted at.
const SEED: u64 = 7;

/// Allocations one default `compile_block` may make with a warm arena.
const BOUND: u64 = 1 + cfg!(debug_assertions) as u64;

fn blocks(profile: &str) -> Vec<Vec<Instruction>> {
    let program = generate(BenchmarkProfile::by_name(profile).unwrap(), SEED).program;
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
