//! Whole-program scheduling driver: the paper's per-block machinery
//! composed into the pass a compiler backend would actually run.

use std::time::Instant;

use dagsched_core::{ConstructError, HeuristicPasses, PhaseStats, Scratch};
use dagsched_isa::{Instruction, MachineModel, Program};
use dagsched_pipesim::{simulate, SimOptions};
use dagsched_sched::{
    carry_out, emit_order, entry_constraints, fill_branch_delay_slot, CarryOut, SchedDirection,
    Schedule, Scheduler, SchedulerKind, SlotFill,
};

use crate::batch::{schedule_program_batch, Limits, NoCache};

/// Driver options.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Which published algorithm schedules each block.
    pub scheduler: Scheduler,
    /// Carry operation latencies across block boundaries (the paper's §2
    /// "global information"; forward schedulers only).
    pub inherit_latencies: bool,
    /// Move an instruction into each delayed branch's delay slot (else
    /// the slot instruction stays wherever the partitioner found it).
    pub fill_delay_slots: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            scheduler: Scheduler::new(SchedulerKind::Warren),
            inherit_latencies: false,
            fill_delay_slots: false,
        }
    }
}

/// Per-block outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReport {
    /// Block index.
    pub block: usize,
    /// Instructions in the block.
    pub len: usize,
    /// Makespan of the original order (cycles, in-order model).
    pub original_makespan: u64,
    /// Makespan of the scheduled order.
    pub scheduled_makespan: u64,
    /// Delay-slot action taken, when enabled.
    pub slot: Option<SlotFill>,
}

/// A scheduled program: the emitted stream plus per-block reports.
#[derive(Debug, Clone)]
pub struct ScheduledProgram {
    /// The emitted instruction stream.
    pub insns: Vec<Instruction>,
    /// One report per scheduled block.
    pub blocks: Vec<BlockReport>,
}

impl ScheduledProgram {
    /// Simulate the emitted stream against the original program on an
    /// in-order machine, returning `(original cycles, scheduled cycles)`.
    pub fn speedup(&self, original: &Program, model: &MachineModel) -> (u64, u64) {
        let before = simulate(&original.insns, model, SimOptions::default());
        let after = simulate(&self.insns, model, SimOptions::default());
        (before.cycles, after.cycles)
    }
}

/// Everything produced by compiling one basic block.
///
/// Shared by the serial driver loop, the [`crate::parallel`] pipeline and
/// the [`crate::batch`] entry point behind the scheduling service — every
/// path calls the same [`compile_block`], so their outputs are
/// bit-identical by construction. A schedule cache
/// ([`crate::batch::BlockCache`]) stores and replays these as they are.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// The emitted order: one slot per emitted instruction, each an
    /// index into the block, or [`NOP_SLOT`](dagsched_sched::NOP_SLOT)
    /// for the delay-slot `nop`.
    /// [`BlockOutcome::emitted`] turns it into instructions.
    pub order: Vec<u32>,
    /// The per-block report.
    pub report: BlockReport,
    /// Operation latencies carried past the block's exit, consumed by the
    /// next block under latency inheritance. Computed only then (when
    /// [`compile_block`] is given a `carry_in`); every other outcome,
    /// including a cache replay, carries [`CarryOut::default`].
    pub carry: CarryOut,
}

impl BlockOutcome {
    /// The emitted instruction stream, drawn from `insns`, the block
    /// this outcome was compiled or looked up for.
    pub fn emitted<'a>(
        &'a self,
        insns: &'a [Instruction],
    ) -> impl Iterator<Item = Instruction> + 'a {
        emit_order(&self.order, insns)
    }
}

/// Compile one basic block: construct the DAG, compute the heuristics
/// the scheduler ranks by ([`Scheduler::heuristic_passes`]), schedule,
/// and emit.
///
/// `carry_in` is `Some` only when latencies are inherited across block
/// boundaries (forward schedulers); that mode is inherently sequential
/// because block `i + 1` consumes block `i`'s [`CarryOut`]. With
/// `carry_in == None` blocks are independent and may be compiled in any
/// order / on any thread.
///
/// Working storage is drawn from `scratch` and handed back to it once the
/// block is emitted, so with a warm arena the only allocation on the
/// default path is the emitted order the outcome owns. The per-phase
/// counters (`construct_ns`, `heur_ns`, `sched_ns`,
/// arc/probe/comparison counts) are accumulated into `scratch.stats`.
///
/// Malformed input — an oversized block or a memory-class opcode with no
/// memory operand — surfaces as a typed [`ConstructError`] instead of a
/// worker panic; the batch loop wraps it into a `LimitError` and the
/// service answers `bad-request`.
pub fn compile_block(
    bi: usize,
    insns: &[Instruction],
    model: &MachineModel,
    config: &DriverConfig,
    carry_in: Option<&CarryOut>,
    scratch: &mut Scratch,
) -> Result<BlockOutcome, ConstructError> {
    let passes = config.scheduler.heuristic_passes();
    compile_block_with(bi, insns, model, config, passes, carry_in, scratch)
}

/// [`compile_block`] with the scheduler's heuristic passes derived by
/// the caller: the batch loop derives them once per rung, not per
/// block.
pub(crate) fn compile_block_with(
    bi: usize,
    insns: &[Instruction],
    model: &MachineModel,
    config: &DriverConfig,
    passes: HeuristicPasses,
    carry_in: Option<&CarryOut>,
    scratch: &mut Scratch,
) -> Result<BlockOutcome, ConstructError> {
    debug_assert_eq!(passes, config.scheduler.heuristic_passes());
    let prepared = scratch.prepare(insns)?;
    // Four clock reads: each phase ends where the next begins.
    let (dag, t_heur) = config.scheduler.construction.run_timed(
        &prepared,
        model,
        config.scheduler.policy,
        scratch,
        Instant::now(),
    );
    scratch.heuristics.fill(passes, &dag, &prepared, model);
    let t_sched = Instant::now();
    scratch.stats.heur_ns += t_sched.duration_since(t_heur).as_nanos() as u64;
    let heur = &scratch.heuristics;

    let schedule = if let Some(carry) = carry_in {
        let entry = entry_constraints(insns, model, carry);
        let s = config
            .scheduler
            .list
            .run_with_entry(&dag, insns, model, heur, &entry);
        // Inheritance must not silently drop the algorithm's postpass
        // (Krishnamurthy's delay-slot fixup).
        if config.scheduler.postpass_fixup {
            dagsched_sched::fixup_delay_slots(&s, &dag, insns, model).0
        } else {
            s
        }
    } else {
        config
            .scheduler
            .schedule_dag_in(&dag, insns, model, heur, &mut scratch.sched)
    };
    scratch.stats.sched_ns += t_sched.elapsed().as_nanos() as u64;
    debug_assert!(schedule.verify(&dag).is_ok());
    // Only the next block of a latency-inheriting chain reads the carry.
    let carry = match carry_in {
        Some(_) => carry_out(&schedule, insns, model),
        None => CarryOut::default(),
    };

    let original_makespan =
        Schedule::program_order_makespan(&dag, insns, model, &mut scratch.sched);
    let mut slot = None;
    let order = if config.fill_delay_slots {
        let (order, fill) = fill_branch_delay_slot(&schedule, &dag, insns);
        slot = Some(fill);
        order
    } else {
        schedule.order.iter().map(|n| n.index() as u32).collect()
    };
    let report = BlockReport {
        block: bi,
        len: insns.len(),
        original_makespan,
        scheduled_makespan: schedule.makespan(insns, model),
        slot,
    };
    schedule.recycle(&mut scratch.sched);
    scratch.recycle(prepared, dag);
    Ok(BlockOutcome {
        order,
        report,
        carry,
    })
}

/// Whether `config` requires block `i + 1` to observe block `i`'s carried
/// latencies — the one driver mode that cannot be parallelized (and whose
/// blocks a schedule cache must not serve, since a block's output depends
/// on its predecessor's carry).
pub fn needs_sequential_carry(config: &DriverConfig) -> bool {
    config.inherit_latencies && config.scheduler.list.direction == SchedDirection::Forward
}

/// Schedule every basic block of `program` under `config`.
///
/// Blocks are partitioned with the paper's conventions, scheduled
/// independently (or with inherited latencies), and re-emitted in their
/// original block order.
pub fn schedule_program(
    program: &Program,
    model: &MachineModel,
    config: &DriverConfig,
) -> ScheduledProgram {
    schedule_program_stats(program, model, config).0
}

/// [`schedule_program`], additionally returning the per-phase counters
/// accumulated over every block (construction comparisons / table probes,
/// arcs added and suppressed, nanoseconds per phase).
pub fn schedule_program_stats(
    program: &Program,
    model: &MachineModel,
    config: &DriverConfig,
) -> (ScheduledProgram, PhaseStats) {
    match schedule_program_batch(program, model, config, 1, &Limits::none(), &NoCache) {
        Ok(r) => r,
        // `Limits::none()` has no deadline or size cap, so only malformed
        // input can error here; this trusted-input entry point is
        // documented to panic on it (use `schedule_program_batch` where
        // a typed error is required).
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_workloads::{generate, parse_asm, BenchmarkProfile, PAPER_SEED};

    #[test]
    fn schedules_a_whole_benchmark() {
        let bench = generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let result = schedule_program(&bench.program, &model, &DriverConfig::default());
        assert_eq!(result.insns.len(), bench.program.len());
        let (before, after) = result.speedup(&bench.program, &model);
        assert!(after <= before, "scheduling must not slow the program");
        for r in &result.blocks {
            assert!(r.scheduled_makespan <= r.original_makespan + 4);
        }
    }

    #[test]
    fn inheritance_composes_with_the_driver() {
        let bench = generate(BenchmarkProfile::by_name("linpack").unwrap(), PAPER_SEED);
        let model = MachineModel::sparc2();
        let cfg = DriverConfig {
            inherit_latencies: true,
            ..DriverConfig::default()
        };
        let result = schedule_program(&bench.program, &model, &cfg);
        assert_eq!(result.insns.len(), bench.program.len());
    }

    #[test]
    fn delay_slot_filling_reports_actions() {
        let prog = parse_asm(
            "
            cmp %o0, %o1
            add %o2, %o3, %o4
            bne target
            nop
            add %o4, 1, %o5
            ",
        )
        .unwrap();
        let model = MachineModel::sparc2();
        let cfg = DriverConfig {
            fill_delay_slots: true,
            ..DriverConfig::default()
        };
        let result = schedule_program(&prog, &model, &cfg);
        let first = &result.blocks[0];
        assert!(
            matches!(first.slot, Some(SlotFill::Moved(_))),
            "{:?}",
            first.slot
        );
        // The emitted stream keeps the branch followed by the moved add.
        let bpos = result
            .insns
            .iter()
            .position(|i| i.opcode == dagsched_isa::Opcode::Bicc)
            .unwrap();
        assert_eq!(result.insns[bpos + 1].opcode, dagsched_isa::Opcode::Add);
    }
}
