//! In-order pipeline timing simulator.
//!
//! The paper motivates instruction scheduling by the stall cycles an
//! in-order pipeline suffers on dependent or structurally conflicting
//! instructions, but measures only scheduler *cost*. This crate supplies
//! the downstream half: given an instruction sequence (original program
//! order or a scheduler's output), it simulates an in-order machine built
//! from the same [`MachineModel`] that weighted the DAG arcs and reports
//! cycles and a stall breakdown.
//!
//! The simulator is deliberately independent of the DAG: it rediscovers
//! dependencies from architectural state (a resource scoreboard plus the
//! memory disambiguation policy), so it doubles as an oracle in tests —
//! a valid schedule must never run longer than its DAG critical path
//! suggests impossible, and never violate a dependence.
//!
//! # Example
//!
//! ```
//! use dagsched_isa::{Instruction, MachineModel, Opcode, Program, Reg};
//! use dagsched_pipesim::{simulate, SimOptions};
//!
//! let mut p = Program::new();
//! // A divide feeding an add: the add stalls until the divide finishes.
//! p.push(Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)));
//! p.push(Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)));
//! let report = simulate(&p.insns, &MachineModel::sparc2(), SimOptions::default());
//! assert_eq!(report.issue_cycle, vec![0, 20]);
//! assert_eq!(report.data_stalls, 19);
//! ```

pub mod interp;

use std::collections::HashMap;

use dagsched_core::{MemDepPolicy, MemKey};
use dagsched_isa::{FuncUnit, Instruction, MachineModel, MemAccessKind, Resource};

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Memory disambiguation the *hardware* is assumed to perform. The
    /// conservative default serializes all memory traffic, like a simple
    /// in-order load/store unit.
    pub mem_policy: MemDepPolicy,
    /// Instructions issued per cycle (the machine model's width is used
    /// when `None`). Multi-issue requires distinct function units per
    /// slot, which is what makes the "alternate type" heuristic pay off.
    pub issue_width: Option<u32>,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            mem_policy: MemDepPolicy::SingleResource,
            issue_width: None,
        }
    }
}

/// Why an instruction was delayed (its binding constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// No delay: issued at the earliest in-order opportunity.
    None,
    /// Waiting for an operand (RAW) or an ordering hazard (WAR/WAW).
    Data,
    /// Waiting for a busy (unpipelined) function unit or an issue slot.
    Structural,
}

/// The result of simulating one instruction sequence.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Issue cycle per instruction, in sequence order.
    pub issue_cycle: Vec<u64>,
    /// The binding constraint of each instruction.
    pub stall_cause: Vec<StallCause>,
    /// Total completion time (last writeback).
    pub cycles: u64,
    /// Cycles lost to data hazards.
    pub data_stalls: u64,
    /// Cycles lost to structural hazards.
    pub struct_stalls: u64,
}

impl SimReport {
    /// Total stall cycles of any kind.
    pub fn total_stalls(&self) -> u64 {
        self.data_stalls + self.struct_stalls
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issue_cycle.len() as f64 / self.cycles as f64
        }
    }
}

/// Render a simulation as an ASCII issue timeline: one row per
/// instruction, `I` at the issue cycle, `=` through the execution
/// latency, with the stall cause flagged. Rows are clamped to `width`
/// columns (long timelines get a `>` continuation mark).
pub fn render_timeline(
    insns: &[Instruction],
    model: &MachineModel,
    report: &SimReport,
    width: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = width.max(16);
    for (i, insn) in insns.iter().enumerate() {
        let issue = report.issue_cycle[i] as usize;
        let lat = model.exec_latency(insn) as usize;
        let mut lane = String::new();
        for c in 0..width {
            lane.push(if c == issue {
                'I'
            } else if c > issue && c < issue + lat {
                '='
            } else {
                '.'
            });
        }
        if issue + lat > width {
            lane.pop();
            lane.push('>');
        }
        let cause = match report.stall_cause[i] {
            StallCause::None => ' ',
            StallCause::Data => 'd',
            StallCause::Structural => 's',
        };
        let _ = writeln!(out, "{i:>3} {cause} |{lane}| {insn}");
    }
    let _ = writeln!(
        out,
        "      {} cycles, {} data stalls, {} structural stalls",
        report.cycles, report.data_stalls, report.struct_stalls
    );
    out
}

#[derive(Debug, Default)]
struct Scoreboard {
    // Per register resource: (producer issue cycle, producer index).
    reg_writer: HashMap<Resource, (u64, usize)>,
    reg_readers: HashMap<Resource, Vec<(u64, usize)>>,
    // Memory accesses seen so far: (key, kind, issue cycle, index).
    mem_accesses: Vec<(MemKey, MemAccessKind, u64, usize)>,
}

/// Simulate executing `insns` in the given order on an in-order machine.
///
/// Each instruction issues at the earliest cycle satisfying, in order of
/// accounting priority: program order (in-order issue, bounded by issue
/// width), data hazards (RAW against producers with the model's
/// full bypass-adjusted latencies, WAR/WAW with short delays), and
/// structural hazards (unpipelined units, per-cycle unit conflicts).
pub fn simulate(insns: &[Instruction], model: &MachineModel, opts: SimOptions) -> SimReport {
    let width = opts.issue_width.unwrap_or(model.issue_width()).max(1) as u64;
    let mut board = Scoreboard::default();
    let mut unit_busy_until: HashMap<FuncUnit, u64> = HashMap::new();
    // (cycle, unit) pairs consumed in the current window for multi-issue.
    let mut cycle_units: HashMap<u64, Vec<FuncUnit>> = HashMap::new();
    let mut issued_in_cycle: HashMap<u64, u64> = HashMap::new();

    let mut issue_cycle = Vec::with_capacity(insns.len());
    let mut stall_cause = Vec::with_capacity(insns.len());
    let mut data_stalls = 0u64;
    let mut struct_stalls = 0u64;
    let mut cycles = 0u64;
    let mut last_issue = 0u64;

    for (i, insn) in insns.iter().enumerate() {
        // In-order issue: never before the previous instruction's cycle.
        let inorder_floor = if i == 0 { 0 } else { last_issue };
        // Baseline: the cycle this instruction would issue with no hazards
        // at all — the next cycle with a free issue slot.
        let baseline = {
            let mut c = inorder_floor;
            while issued_in_cycle.get(&c).copied().unwrap_or(0) >= width {
                c += 1;
            }
            c
        };

        // --- data hazards -------------------------------------------------
        let mut data_floor = baseline;
        for res in insn.uses() {
            match res {
                Resource::Mem(_) => {} // handled through mem_accesses below
                r => {
                    if let Some(&(wt, wi)) = board.reg_writer.get(&r) {
                        let lat = model.raw_latency(&insns[wi], insn, r) as u64;
                        data_floor = data_floor.max(wt + lat);
                    }
                }
            }
        }
        for res in insn.defs() {
            match res {
                Resource::Mem(_) => {}
                r => {
                    if let Some(readers) = board.reg_readers.get(&r) {
                        for &(rt, ri) in readers {
                            let lat = model.war_latency(&insns[ri], insn, r) as u64;
                            data_floor = data_floor.max(rt + lat);
                        }
                    }
                    if let Some(&(wt, wi)) = board.reg_writer.get(&r) {
                        let lat = model.waw_latency(&insns[wi], insn, r) as u64;
                        data_floor = data_floor.max(wt + lat);
                    }
                }
            }
        }
        if let Some(kind) = insn.opcode.mem_access() {
            let key = MemKey::of(insn.mem.as_ref().expect("memory op without operand"));
            for &(pkey, pkind, pt, pi) in &board.mem_accesses {
                if !opts.mem_policy.alias(&key, &pkey) {
                    continue;
                }
                let res = Resource::Mem(pkey.expr);
                let lat = match (pkind, kind) {
                    (MemAccessKind::Store, MemAccessKind::Load) => {
                        model.raw_latency(&insns[pi], insn, res) as u64
                    }
                    (MemAccessKind::Store, MemAccessKind::Store) => {
                        model.waw_latency(&insns[pi], insn, res) as u64
                    }
                    (MemAccessKind::Load, MemAccessKind::Store) => {
                        model.war_latency(&insns[pi], insn, res) as u64
                    }
                    (MemAccessKind::Load, MemAccessKind::Load) => continue,
                };
                data_floor = data_floor.max(pt + lat);
            }
        }
        // --- structural hazards -------------------------------------------
        let unit = model.unit_of(insn);
        let mut candidate = data_floor;
        if !model.unit_pipelined(insn) {
            if let Some(&busy) = unit_busy_until.get(&unit) {
                candidate = candidate.max(busy);
            }
        }
        // Find a cycle with a free issue slot and a free copy of the unit.
        loop {
            let slots_used = issued_in_cycle.get(&candidate).copied().unwrap_or(0);
            let unit_taken = cycle_units
                .get(&candidate)
                .is_some_and(|us| us.contains(&unit));
            if slots_used < width && !unit_taken {
                break;
            }
            candidate += 1;
        }
        let t = candidate;

        // --- account ------------------------------------------------------
        let data_part = data_floor - baseline;
        let struct_part = t - data_floor;
        data_stalls += data_part;
        struct_stalls += struct_part;
        let cause = if struct_part > 0 {
            StallCause::Structural
        } else if data_part > 0 {
            StallCause::Data
        } else {
            StallCause::None
        };

        issue_cycle.push(t);
        stall_cause.push(cause);
        *issued_in_cycle.entry(t).or_insert(0) += 1;
        cycle_units.entry(t).or_default().push(unit);
        if !model.unit_pipelined(insn) {
            unit_busy_until.insert(unit, t + model.exec_latency(insn) as u64);
        }
        // Update the scoreboard.
        for res in insn.uses() {
            if !matches!(res, Resource::Mem(_)) {
                board.reg_readers.entry(res).or_default().push((t, i));
            }
        }
        for res in insn.defs() {
            if !matches!(res, Resource::Mem(_)) {
                board.reg_writer.insert(res, (t, i));
                board.reg_readers.remove(&res);
            }
        }
        if let Some(kind) = insn.opcode.mem_access() {
            let key = MemKey::of(insn.mem.as_ref().unwrap());
            board.mem_accesses.push((key, kind, t, i));
        }
        cycles = cycles.max(t + model.exec_latency(insn) as u64);
        last_issue = t;
    }

    SimReport {
        issue_cycle,
        stall_cause,
        cycles,
        data_stalls,
        struct_stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{MemExprPool, MemRef, Opcode, Reg};

    fn m() -> MachineModel {
        MachineModel::sparc2()
    }

    #[test]
    fn independent_stream_issues_every_cycle() {
        let insns: Vec<Instruction> = (0..4)
            .map(|i| Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2 + i)))
            .collect();
        let r = simulate(&insns, &m(), SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 1, 2, 3]);
        assert_eq!(r.total_stalls(), 0);
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn raw_dependence_stalls() {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
        ];
        let r = simulate(&insns, &m(), SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 20]);
        assert_eq!(r.data_stalls, 19);
        assert_eq!(r.stall_cause[1], StallCause::Data);
    }

    #[test]
    fn scheduling_shrinks_stalls() {
        // Dependent pair plus independent filler: program order stalls,
        // filler-in-shadow does not (load has one delay slot).
        let mut pool = MemExprPool::new();
        let e = pool.intern("[%fp-8]");
        let naive = vec![
            Instruction::load(Opcode::Ld, MemRef::base_offset(Reg::fp(), -8, e), Reg::o(1)),
            Instruction::int_imm(Opcode::Add, Reg::o(1), 1, Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(3), Reg::o(4), Reg::o(5)),
        ];
        let r1 = simulate(&naive, &m(), SimOptions::default());
        assert_eq!(r1.data_stalls, 1);
        let scheduled = vec![naive[0], naive[2], naive[1]];
        let r2 = simulate(&scheduled, &m(), SimOptions::default());
        assert_eq!(r2.total_stalls(), 0);
        assert!(r2.cycles < r1.cycles);
    }

    #[test]
    fn unpipelined_divider_is_a_structural_hazard() {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FDivD, Reg::f(6), Reg::f(8), Reg::f(10)),
        ];
        let r = simulate(&insns, &m(), SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 20]);
        assert_eq!(r.stall_cause[1], StallCause::Structural);
        assert!(r.struct_stalls >= 19);
    }

    #[test]
    fn memory_serialization_policies_differ() {
        let mut pool = MemExprPool::new();
        let e1 = pool.intern("[%fp-8]");
        let e2 = pool.intern("[%fp-16]");
        let insns = vec![
            Instruction::store(
                Opcode::St,
                Reg::o(0),
                MemRef::base_offset(Reg::fp(), -8, e1),
            ),
            Instruction::load(
                Opcode::Ld,
                MemRef::base_offset(Reg::fp(), -16, e2),
                Reg::o(1),
            ),
        ];
        let strict = simulate(&insns, &m(), SimOptions::default());
        // Store latency is 1, so even serialized there is no extra stall
        // beyond in-order issue — check the ordering constraint applied.
        assert_eq!(strict.issue_cycle[1], 1);
        let optimistic = simulate(
            &insns,
            &m(),
            SimOptions {
                mem_policy: MemDepPolicy::SymbolicExpr,
                issue_width: None,
            },
        );
        assert_eq!(optimistic.issue_cycle[1], 1);
    }

    #[test]
    fn dual_issue_requires_alternate_units() {
        let model = MachineModel::sparc2().with_issue_width(2);
        // Two integer adds: same unit, cannot pair.
        let same = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(3)),
        ];
        let r = simulate(&same, &model, SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 1], "unit conflict prevents pairing");
        // An add and an independent FP add: different units, pair up.
        let mixed = vec![
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::fp3(Opcode::FAddD, Reg::f(0), Reg::f(2), Reg::f(4)),
        ];
        let r = simulate(&mixed, &model, SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 0], "alternate types dual-issue");
        assert_eq!(r.ipc(), 2.0 / r.cycles as f64);
    }

    #[test]
    fn war_hazard_enforced() {
        // Read of %f1 then a write to it one instruction later: WAR keeps
        // order but costs only the short delay.
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
        ];
        let r = simulate(&insns, &m(), SimOptions::default());
        assert_eq!(r.issue_cycle, vec![0, 1], "WAR is cheap");
    }

    #[test]
    fn empty_sequence() {
        let r = simulate(&[], &m(), SimOptions::default());
        assert_eq!(r.cycles, 0);
        assert!(r.issue_cycle.is_empty());
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn timeline_renders_issue_and_stalls() {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
        ];
        let model = m();
        let r = simulate(&insns, &model, SimOptions::default());
        let t = render_timeline(&insns, &model, &r, 30);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("|I===="), "divide starts at 0: {t}");
        assert!(lines[1].contains(" d |"), "the add is data-stalled: {t}");
        assert!(
            lines[1].contains("....................I"),
            "issue at 20: {t}"
        );
        assert!(lines[2].contains("19 data stalls"));
    }

    #[test]
    fn report_ipc_is_instructions_over_cycles() {
        let insns: Vec<Instruction> = (0..10)
            .map(|i| Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2 + (i % 5))))
            .collect();
        let r = simulate(&insns, &m(), SimOptions::default());
        assert!(r.ipc() > 0.9, "near-1 IPC for independent ALU stream");
    }
}
