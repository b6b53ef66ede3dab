//! Each scheduler computes only the static heuristics its criteria read,
//! and the register facts those heuristics and the pairwise dependence
//! test need come from the prepared block's definition/use masks.
//!
//! The checks: a set filled with a scheduler's passes holds exactly the
//! full set's values in the fields those passes own and nothing else,
//! and schedules exactly as the full set does; the mask-based register
//! pressure equals the closure module's independent reference; and the
//! mask-based `strongest_dep` equals the register-list scan it replaced
//! on every pair, under every memory policy.

use dagsched::core::closure::reference_heuristics;
use dagsched::core::construct::strongest_dep;
use dagsched::core::{HeuristicPasses, HeuristicSet, MemDepPolicy, PreparedBlock, Scratch};
use dagsched::driver::{compile_block, DriverConfig};
use dagsched::isa::{
    DepKind, Instruction, MachineModel, MemAccessKind, MemRef, Opcode, Program, Reg, Resource,
};
use dagsched::sched::{Criterion, HeurKey, Scheduler, SchedulerKind, SelectStrategy};
use dagsched::workloads::{generate, BenchmarkProfile};

/// A splitmix64 stream: the generated blocks are the same on every run.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Integer registers, `%g0` among them: reads of it are kept as uses,
/// writes to it are dropped, and a double-word access through it names
/// `%g1` as its partner.
const INT_REGS: [Reg; 6] = [
    Reg::Int(0),
    Reg::Int(1),
    Reg::Int(8),
    Reg::Int(9),
    Reg::Int(10),
    Reg::Int(11),
];

/// Even and odd FP registers, so double-word pairs overlap single uses.
const FP_REGS: [Reg; 6] = [
    Reg::Fp(0),
    Reg::Fp(1),
    Reg::Fp(2),
    Reg::Fp(3),
    Reg::Fp(4),
    Reg::Fp(6),
];

/// A memory operand: stack, static, heap and indexed references, so the
/// four disambiguation policies disagree about which pairs alias. The
/// symbolic expression is the operand's text.
fn mem_ref(g: &mut Gen, prog: &mut Program) -> MemRef {
    let (base, offset) = match g.below(4) {
        0 => (Reg::fp(), -8 * (1 + g.below(3) as i32)),
        1 => (Reg::sp(), 64),
        2 => (Reg::Int(1), 4 * g.below(2) as i32),
        _ => (Reg::Int(10), 0),
    };
    if g.below(6) == 0 {
        let expr = prog.mem_exprs.intern(&format!("[{base}+%o3]"));
        return MemRef::base_index(base, Reg::Int(11), expr);
    }
    let expr = prog.mem_exprs.intern(&format!("[{base}{offset:+}]"));
    MemRef::base_offset(base, offset, expr)
}

/// A block of `len` instructions with double-word loads and stores,
/// `%g0` reads, repeated operands, condition codes and `%y`.
fn random_block(g: &mut Gen, len: usize) -> Program {
    let mut prog = Program::new();
    for _ in 0..len {
        let insn = match g.below(11) {
            0 => {
                // Repeated operands half the time: `add %o0, %o0, %o1`.
                let a = g.pick(&INT_REGS);
                let b = if g.below(2) == 0 {
                    a
                } else {
                    g.pick(&INT_REGS)
                };
                let op = g.pick(&[Opcode::Add, Opcode::Sub, Opcode::Xor, Opcode::AddCc]);
                Instruction::int3(op, a, b, g.pick(&INT_REGS))
            }
            1 => Instruction::int_imm(Opcode::Add, g.pick(&INT_REGS), 4, g.pick(&INT_REGS)),
            2 => {
                let a = g.pick(&FP_REGS);
                let b = if g.below(3) == 0 { a } else { g.pick(&FP_REGS) };
                let op = g.pick(&[Opcode::FAddD, Opcode::FMulD, Opcode::FDivD, Opcode::FAddS]);
                Instruction::fp3(op, a, b, g.pick(&FP_REGS))
            }
            3 => {
                let mem = mem_ref(g, &mut prog);
                Instruction::load(Opcode::Ldd, mem, g.pick(&INT_REGS))
            }
            4 => {
                let mem = mem_ref(g, &mut prog);
                Instruction::load(Opcode::LdDf, mem, g.pick(&FP_REGS))
            }
            5 => {
                let mem = mem_ref(g, &mut prog);
                Instruction::store(Opcode::Std, g.pick(&INT_REGS), mem)
            }
            6 => {
                let mem = mem_ref(g, &mut prog);
                Instruction::store(Opcode::StDf, g.pick(&FP_REGS), mem)
            }
            7 => {
                let mem = mem_ref(g, &mut prog);
                if g.below(2) == 0 {
                    Instruction::load(Opcode::Ld, mem, g.pick(&INT_REGS))
                } else {
                    Instruction::store(Opcode::St, g.pick(&INT_REGS), mem)
                }
            }
            8 => Instruction::cmp(g.pick(&INT_REGS), g.pick(&INT_REGS)),
            9 => {
                let op = g.pick(&[Opcode::Smul, Opcode::Udiv]);
                Instruction::int3(op, g.pick(&INT_REGS), g.pick(&INT_REGS), g.pick(&INT_REGS))
            }
            _ => Instruction::fcmp(Opcode::FCmpD, g.pick(&FP_REGS), g.pick(&FP_REGS)),
        };
        prog.push(insn);
    }
    prog
}

/// The basic blocks the tests run over: generated blocks of 1 to 40
/// instructions, and the blocks of five Table 3 profiles.
fn blocks() -> Vec<Vec<Instruction>> {
    let mut g = Gen(0xDA65_C4ED);
    let mut out: Vec<Vec<Instruction>> = (0..150)
        .map(|k| random_block(&mut g, 1 + k % 40).insns)
        .collect();
    for name in ["grep", "cccp", "linpack", "tomcatv", "nasa7"] {
        let program = generate(BenchmarkProfile::by_name(name).unwrap(), 7).program;
        out.extend(
            program
                .basic_blocks()
                .iter()
                .map(|b| program.block_insns(b).to_vec())
                .filter(|insns| !insns.is_empty()),
        );
    }
    out
}

/// The fields of `full` that `passes` own, plus the execution times and
/// original order; every other field empty.
fn restrict(full: &HeuristicSet, passes: HeuristicPasses) -> HeuristicSet {
    use HeuristicPasses as P;
    fn keep<T: Clone>(owned: bool, v: &[T]) -> Vec<T> {
        if owned {
            v.to_vec()
        } else {
            Vec::new()
        }
    }
    let (arcs, regs) = (passes.contains(P::ARCS), passes.contains(P::REGISTERS));
    let (fwd, cp) = (
        passes.contains(P::FORWARD),
        passes.contains(P::CRITICAL_PATH),
    );
    let (slack, desc) = (passes.contains(P::SLACK), passes.contains(P::DESCENDANTS));
    HeuristicSet {
        exec_time: full.exec_time.clone(),
        original_order: full.original_order.clone(),
        interlock_with_child: keep(arcs, &full.interlock_with_child),
        num_children: keep(arcs, &full.num_children),
        num_parents: keep(arcs, &full.num_parents),
        sum_delays_to_children: keep(arcs, &full.sum_delays_to_children),
        max_delay_to_child: keep(arcs, &full.max_delay_to_child),
        sum_delays_from_parents: keep(arcs, &full.sum_delays_from_parents),
        max_delay_from_parent: keep(arcs, &full.max_delay_from_parent),
        regs_born: keep(regs, &full.regs_born),
        regs_killed: keep(regs, &full.regs_killed),
        liveness: keep(regs, &full.liveness),
        max_path_from_root: keep(fwd, &full.max_path_from_root),
        max_delay_from_root: keep(fwd, &full.max_delay_from_root),
        est: keep(fwd, &full.est),
        max_path_to_leaf: keep(cp, &full.max_path_to_leaf),
        max_delay_to_leaf: keep(cp, &full.max_delay_to_leaf),
        lst: keep(slack, &full.lst),
        slack: keep(slack, &full.slack),
        num_descendants: keep(desc, &full.num_descendants),
        sum_exec_descendants: keep(desc, &full.sum_exec_descendants),
    }
}

/// Every published scheduler, the degradation floor, and a custom
/// strategy that ranks by `#descendants`, which no published one does.
fn schedulers() -> Vec<(String, Scheduler)> {
    let mut out: Vec<(String, Scheduler)> = SchedulerKind::ALL
        .iter()
        .map(|&k| (k.name().to_string(), Scheduler::new(k)))
        .collect();
    out.push((
        "critical-path fallback".into(),
        Scheduler::critical_path_fallback(MemDepPolicy::SymbolicExpr),
    ));
    let mut descendants = Scheduler::new(SchedulerKind::ShiehPapachristou);
    descendants.list.strategy = SelectStrategy::Winnowing(vec![
        Criterion::max(HeurKey::NumDescendants),
        Criterion::max(HeurKey::SumExecDescendants),
        Criterion::min(HeurKey::OriginalOrder),
    ]);
    out.push(("by #descendants".into(), descendants));
    out
}

#[test]
fn each_scheduler_fills_its_passes_and_schedules_as_with_the_full_set() {
    let model = MachineModel::sparc2();
    let blocks = blocks();
    for (name, sched) in schedulers() {
        let passes = sched.heuristic_passes();
        let mut scratch = Scratch::new();
        for (k, insns) in blocks.iter().enumerate() {
            let prepared = PreparedBlock::new(insns);
            let dag = sched.construction.run(&prepared, &model, sched.policy);
            let full = HeuristicSet::compute(&dag, insns, &model, true);
            scratch.heuristics.fill(passes, &dag, &prepared, &model);
            assert_eq!(
                scratch.heuristics,
                restrict(&full, passes),
                "{name}, block {k}: {passes:?}"
            );
            let own = sched.schedule_dag(&dag, insns, &model, &scratch.heuristics);
            let from_full = sched.schedule_dag(&dag, insns, &model, &full);
            assert_eq!(own.order, from_full.order, "{name}, block {k}");
            assert_eq!(own.issue_cycle, from_full.issue_cycle, "{name}, block {k}");
            assert_eq!(
                sched.schedule_block(insns, &model).order,
                own.order,
                "{name}"
            );
        }
    }
}

/// `compile_block` goes through the same passes: a strategy ranking by
/// `#descendants` reads the real counts, not zeros.
#[test]
fn compile_block_schedules_a_custom_strategy_from_real_descendant_counts() {
    let model = MachineModel::sparc2();
    let (name, sched) = schedulers().pop().unwrap();
    assert!(sched
        .heuristic_passes()
        .contains(HeuristicPasses::DESCENDANTS));
    let config = DriverConfig {
        scheduler: sched.clone(),
        ..DriverConfig::default()
    };
    let mut scratch = Scratch::new();
    let mut differs_from_no_counts = false;
    for insns in blocks() {
        let outcome = compile_block(0, &insns, &model, &config, None, &mut scratch).unwrap();
        let prepared = PreparedBlock::new(&insns);
        let dag = sched.construction.run(&prepared, &model, sched.policy);
        let full = HeuristicSet::compute(&dag, &insns, &model, true);
        let expected: Vec<Instruction> = sched
            .schedule_dag(&dag, &insns, &model, &full)
            .order
            .iter()
            .map(|n| insns[n.index()])
            .collect();
        assert!(
            outcome.emitted(&insns).eq(expected.iter().copied()),
            "{name}"
        );
        let without = HeuristicSet::compute(&dag, &insns, &model, false);
        let blind = sched.schedule_dag(&dag, &insns, &model, &without);
        differs_from_no_counts |= blind.order.iter().map(|n| insns[n.index()]).ne(expected);
    }
    assert!(differs_from_no_counts, "no block depends on the counts");
}

#[test]
fn mask_register_pressure_equals_the_reference() {
    let model = MachineModel::sparc2();
    let mut g0_reads = 0;
    for insns in blocks() {
        let prepared = PreparedBlock::new(&insns);
        let dag = dagsched::core::ConstructionAlgorithm::TableForward.run(
            &prepared,
            &model,
            MemDepPolicy::SymbolicExpr,
        );
        let reference = reference_heuristics(&dag, &insns, &model, false);
        let computed = HeuristicSet::compute(&dag, &insns, &model, false);
        let mut filled = HeuristicSet::default();
        filled.fill(HeuristicPasses::REGISTERS, &dag, &prepared, &model);
        for h in [&computed, &filled] {
            assert_eq!(h.regs_born, reference.regs_born);
            assert_eq!(h.regs_killed, reference.regs_killed);
            assert_eq!(h.liveness, reference.liveness);
        }
        g0_reads += insns
            .iter()
            .filter(|i| i.uses().contains(&Resource::Reg(Reg::Int(0))))
            .count();
    }
    assert!(g0_reads > 0, "no block reads %g0");
}

/// The register-list scan `strongest_dep` used before it read the masks:
/// every register `j` defines that `i` uses (RAW), that both define
/// (WAW), and that `j` uses and `i` defines (WAR); then memory.
fn list_scan_dep(
    block: &PreparedBlock<'_>,
    model: &MachineModel,
    policy: MemDepPolicy,
    j: usize,
    i: usize,
) -> Option<(DepKind, u32)> {
    let rank = |kind: DepKind| match kind {
        DepKind::Raw => 2,
        DepKind::Waw => 1,
        DepKind::War => 0,
    };
    let mut best: Option<(DepKind, u32)> = None;
    let mut consider = |kind: DepKind, lat: u32| {
        let better = match best {
            None => true,
            Some((bk, bl)) => lat > bl || (lat == bl && rank(kind) > rank(bk)),
        };
        if better {
            best = Some((kind, lat));
        }
    };
    for &r in &block.reg_defs[j] {
        if block.reg_uses[i].contains(&r) {
            consider(DepKind::Raw, block.raw_reg_latency(model, j, i, r));
        }
    }
    for &r in &block.reg_defs[j] {
        if block.reg_defs[i].contains(&r) {
            consider(
                DepKind::Waw,
                block.waw_latency(model, j, i, Resource::Reg(r)),
            );
        }
    }
    for &r in &block.reg_uses[j] {
        if block.reg_defs[i].contains(&r) {
            consider(
                DepKind::War,
                block.war_latency(model, j, i, Resource::Reg(r)),
            );
        }
    }
    if let (Some(a), Some(b)) = (block.mem_ops[j], block.mem_ops[i]) {
        if policy.alias(&a.key, &b.key) {
            match (a.kind, b.kind) {
                (MemAccessKind::Store, MemAccessKind::Load) => {
                    consider(DepKind::Raw, block.raw_mem_latency(model, j, i));
                }
                (MemAccessKind::Store, MemAccessKind::Store) => {
                    consider(
                        DepKind::Waw,
                        block.waw_latency(model, j, i, Resource::Mem(a.key.expr)),
                    );
                }
                (MemAccessKind::Load, MemAccessKind::Store) => {
                    consider(
                        DepKind::War,
                        block.war_latency(model, j, i, Resource::Mem(a.key.expr)),
                    );
                }
                (MemAccessKind::Load, MemAccessKind::Load) => {}
            }
        }
    }
    best
}

#[test]
fn strongest_dep_equals_the_list_scan_on_every_pair() {
    // rs6000-like weights a register by its operand slot, so two shared
    // registers of one pair can carry different RAW latencies.
    let models = [MachineModel::sparc2(), MachineModel::rs6000_like()];
    let mut g = Gen(1991);
    let mut kinds = [0usize; 3];
    for k in 0..120 {
        let prog = random_block(&mut g, 2 + k % 30);
        let block = PreparedBlock::new(&prog.insns);
        for model in &models {
            for &policy in MemDepPolicy::ALL {
                for i in 0..block.len() {
                    for j in 0..i {
                        let dep = strongest_dep(&block, model, policy, j, i);
                        assert_eq!(
                            dep,
                            list_scan_dep(&block, model, policy, j, i),
                            "block {k}, {j} -> {i}, {} / {}",
                            model.name(),
                            policy.name()
                        );
                        if let Some((kind, _)) = dep {
                            kinds[kind as usize] += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(kinds.iter().all(|&c| c > 0), "{kinds:?}");
}
