//! Standalone schedule-validity oracle for reordered programs.
//!
//! The matrix ([`crate::matrix`]) verifies schedules it *built itself*
//! against the DAG it built them from. Chaos testing needs something
//! weaker-coupled: the load generator receives an instruction stream
//! over the wire — possibly produced on a *degraded* rung of the cost
//! ladder — and must decide whether it is still a correct schedule
//! without re-deriving the server's exact configuration. This module
//! answers that with two policy-independent checks per basic block:
//!
//! 1. **Permutation**: the scheduled block contains exactly the
//!    original instructions (as a multiset) — nothing dropped,
//!    duplicated, or invented.
//! 2. **Semantic equivalence**: running both orders through the
//!    `pipesim` interpreter from the same pseudo-random machine states
//!    produces identical final states. A reorder that violates any
//!    true dependence diverges on almost every random state, so this
//!    is a strong oracle that needs no DAG and no knowledge of which
//!    memory-disambiguation policy or heuristic rung produced the
//!    schedule.

use dagsched_isa::{Instruction, MemExprId, Program};
use dagsched_pipesim::interp::{run, MachineState};
use dagsched_workloads::parse_asm;

/// Memory cells a block touches (initialized in every random state).
fn block_cells(insns: &[Instruction]) -> Vec<MemExprId> {
    let mut cells = Vec::new();
    for insn in insns {
        if let Some(m) = &insn.mem {
            if !cells.contains(&m.expr) {
                cells.push(m.expr);
            }
        }
    }
    cells
}

/// Check that `scheduled` is a valid per-block reordering of
/// `original`: same blocks, same instructions per block, identical
/// interpreter semantics on `states` random machine states per block.
///
/// Returns the first violation as a human-readable message.
pub fn check_reordering(
    original: &Program,
    scheduled: &Program,
    states: usize,
    seed: u64,
) -> Result<(), String> {
    if original.insns.len() != scheduled.insns.len() {
        return Err(format!(
            "instruction count changed: {} original vs {} scheduled",
            original.insns.len(),
            scheduled.insns.len()
        ));
    }
    let orig_blocks = original.basic_blocks();
    let sched_blocks = scheduled.basic_blocks();
    if orig_blocks.len() != sched_blocks.len() {
        return Err(format!(
            "block count changed: {} original vs {} scheduled",
            orig_blocks.len(),
            sched_blocks.len()
        ));
    }
    for (i, (ob, sb)) in orig_blocks.iter().zip(&sched_blocks).enumerate() {
        let oi = original.block_insns(ob);
        let si = scheduled.block_insns(sb);
        if oi.len() != si.len() {
            return Err(format!(
                "block {i}: length changed from {} to {}",
                oi.len(),
                si.len()
            ));
        }
        // Multiset equality via sorted rendered text.
        let mut a: Vec<String> = oi.iter().map(ToString::to_string).collect();
        let mut b: Vec<String> = si.iter().map(ToString::to_string).collect();
        a.sort();
        b.sort();
        if a != b {
            return Err(format!(
                "block {i}: scheduled block is not a permutation of the original"
            ));
        }
        // Interpreter-state equivalence. `MemExprId`s are interned per
        // parse, so the two programs' ids are not comparable directly;
        // re-parse both orders as ONE program so they share an intern
        // table, then run each half from the same initial states.
        let render = |insns: &[Instruction]| -> String {
            insns
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let pair_text = format!("{}\n{}", render(oi), render(si));
        let pair = parse_asm(&pair_text)
            .map_err(|e| format!("block {i}: combined reparse failed: {e}"))?;
        if pair.insns.len() != oi.len() * 2 {
            return Err(format!(
                "block {i}: combined reparse count mismatch ({} vs {})",
                pair.insns.len(),
                oi.len() * 2
            ));
        }
        let (ci, cs) = pair.insns.split_at(oi.len());
        let cells = block_cells(ci);
        let mut s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
        for k in 0..states.max(1) {
            let init = MachineState::random(crate::splitmix64(&mut s), cells.iter().copied());
            let want = run(ci, &init);
            let got = run(cs, &init);
            if want != got {
                return Err(format!(
                    "block {i}: reordered block diverges from program order on random state {k}"
                ));
            }
        }
    }
    Ok(())
}

/// [`check_reordering`] over assembly text (e.g. a wire response's
/// rendered instruction stream joined with newlines).
pub fn check_reordering_text(
    original: &str,
    scheduled: &str,
    states: usize,
    seed: u64,
) -> Result<(), String> {
    let orig = parse_asm(original).map_err(|e| format!("original does not parse: {e}"))?;
    let sched = parse_asm(scheduled).map_err(|e| format!("scheduled does not parse: {e}"))?;
    check_reordering(&orig, &sched, states, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_driver::{schedule_program, DriverConfig};
    use dagsched_isa::MachineModel;
    use dagsched_workloads::{generate, BenchmarkProfile};

    #[test]
    fn identity_reordering_passes() {
        let text = "ld [%o0], %l0\n add %l0, %o1, %o2\n xor %o3, %o4, %o5";
        assert_eq!(check_reordering_text(text, text, 4, 1), Ok(()));
    }

    #[test]
    fn a_real_schedule_passes() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), 1991);
        let model = MachineModel::sparc2();
        let scheduled = schedule_program(&bench.program, &model, &DriverConfig::default());
        let original: String = bench
            .program
            .insns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        let sched_text: String = scheduled
            .insns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(check_reordering_text(&original, &sched_text, 3, 7), Ok(()));
    }

    #[test]
    fn a_dependence_violating_swap_is_caught() {
        // `add` consumes %l0 produced by the load: swapping them reads
        // a stale register and the interpreter oracle diverges.
        let original = "ld [%o0], %l0\n add %l0, %o1, %o2";
        let swapped = "add %l0, %o1, %o2\n ld [%o0], %l0";
        let err = check_reordering_text(original, swapped, 4, 1).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn dropped_and_invented_instructions_are_caught() {
        let original = "sub %o0, %o1, %o2\n xor %o3, %o4, %o5";
        let dropped = "sub %o0, %o1, %o2";
        let err = check_reordering_text(original, dropped, 1, 1).unwrap_err();
        assert!(err.contains("count changed"), "{err}");
        let swapped_in = "sub %o0, %o1, %o2\n and %o3, %o4, %o5";
        let err = check_reordering_text(original, swapped_in, 1, 1).unwrap_err();
        assert!(err.contains("not a permutation"), "{err}");
    }
}
