//! Quickstart: build a dependence DAG for one basic block, compute the
//! paper's heuristics, list-schedule it, and measure the stall cycles the
//! schedule saves on an in-order pipeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dagsched::core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy};
use dagsched::isa::MachineModel;
use dagsched::pipesim::{simulate, SimOptions};
use dagsched::sched::{Scheduler, SchedulerKind};
use dagsched::workloads::parse_asm;

fn main() {
    // A small block: a load with a delay slot, a long divide, dependent
    // FP work, and independent integer instructions a scheduler can use
    // as filler.
    let prog = parse_asm(
        "
        lddf [%fp-8], %f0
        fdivd %f0, %f2, %f4
        faddd %f4, %f6, %f8
        stdf %f8, [%fp-16]
        add %o0, %o1, %o2
        sub %o2, 4, %o3
        xor %o4, %o5, %o4
        cmp %o3, %o0
        bne exit
        ",
    )
    .expect("assembly parses");
    let model = MachineModel::sparc2();

    // 1. DAG construction (backward table building: the paper's
    //    recommendation for large blocks).
    let dag = build_dag(
        &prog.insns,
        &model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    println!(
        "block: {} instructions, {} dependence arcs",
        dag.node_count(),
        dag.arc_count()
    );
    for arc in dag.arcs() {
        println!(
            "  {} -> {}  {} (delay {})",
            prog.insns[arc.from.index()],
            prog.insns[arc.to.index()],
            arc.kind,
            arc.latency
        );
    }

    // 2. Heuristic calculation.
    let heur = HeuristicSet::compute(&dag, &prog.insns, &model, false);
    println!("\ncritical path (slack = 0):");
    for n in dag.node_ids() {
        if heur.slack[n.index()] == 0 {
            println!(
                "  [est {:>2}] {}",
                heur.est[n.index()],
                prog.insns[n.index()]
            );
        }
    }

    // 3. Scheduling with Warren's algorithm, then measure on the pipeline.
    let schedule = Scheduler::new(SchedulerKind::Warren).schedule_block(&prog.insns, &model);
    schedule.verify(&dag).expect("schedule is valid");
    let reordered: Vec<_> = schedule
        .order
        .iter()
        .map(|n| prog.insns[n.index()])
        .collect();

    let before = simulate(&prog.insns, &model, SimOptions::default());
    let after = simulate(&reordered, &model, SimOptions::default());
    println!("\nscheduled order:");
    for insn in &reordered {
        println!("  {insn}");
    }
    println!(
        "\npipeline: {} cycles / {} stalls before, {} cycles / {} stalls after",
        before.cycles,
        before.total_stalls(),
        after.cycles,
        after.total_stalls()
    );
    assert!(after.cycles <= before.cycles);
}
