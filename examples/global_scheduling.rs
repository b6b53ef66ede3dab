//! Inter-block latency inheritance (the paper's §2 "global information"
//! and §7 future work): scheduling each block with knowledge of the
//! operation latencies still in flight from its predecessor.
//!
//! ```text
//! cargo run --example global_scheduling
//! ```

use dagsched::core::{build_dag, ConstructionAlgorithm, HeuristicSet, MemDepPolicy};
use dagsched::isa::{Instruction, MachineModel};
use dagsched::pipesim::{simulate, SimOptions};
use dagsched::sched::{
    carry_out, entry_constraints, Criterion, Gating, HeurKey, ListScheduler, SchedDirection,
    Schedule, SelectStrategy,
};
use dagsched::workloads::parse_asm;

fn build(insns: &[Instruction], model: &MachineModel) -> (dagsched::core::Dag, HeuristicSet) {
    let dag = build_dag(
        insns,
        model,
        ConstructionAlgorithm::TableBackward,
        MemDepPolicy::SymbolicExpr,
    );
    let heur = HeuristicSet::compute(&dag, insns, model, false);
    (dag, heur)
}

fn emit(insns: &[Instruction], schedule: &Schedule) -> Vec<Instruction> {
    schedule.order.iter().map(|n| insns[n.index()]).collect()
}

fn main() {
    let model = MachineModel::sparc2();
    // Block 1 launches a 20-cycle divide just before its branch.
    let prog1 = parse_asm(
        "
        lddf [%i0+8], %f0
        lddf [%i0+16], %f2
        fdivd %f0, %f2, %f4
        ba next
        ",
    )
    .unwrap();
    // Block 2 consumes the divide, plus plenty of independent work.
    let prog2 = parse_asm(
        "
        faddd %f4, %f6, %f8
        stdf %f8, [%i1+8]
        ld [%i2+4], %o0
        add %o0, 1, %o1
        sub %o1, 2, %o2
        xor %o2, 3, %o3
        and %o3, 7, %o4
        or %o4, 1, %o5
        ",
    )
    .unwrap();

    let scheduler = ListScheduler {
        direction: SchedDirection::Forward,
        gating: Gating::ByEarliestExec {
            include_fpu_busy: true,
        },
        strategy: SelectStrategy::Winnowing(vec![
            Criterion::max(HeurKey::MaxDelayToLeaf),
            Criterion::min(HeurKey::OriginalOrder),
        ]),
        pin_terminator: true,
        birthing_boost: 0,
    };

    let (dag1, heur1) = build(&prog1.insns, &model);
    let s1 = scheduler.run(&dag1, &prog1.insns, &model, &heur1);
    let carry = carry_out(&s1, &prog1.insns, &model);
    println!("carried out of block 1 (cycles still to wait at block 2 entry):");
    for (res, d) in &carry.resource_ready {
        println!("  {res}: {d}");
    }
    for (unit, d) in &carry.unit_busy {
        println!("  unit {unit}: {d}");
    }

    let (dag2, heur2) = build(&prog2.insns, &model);
    // Local: block 2 scheduled in isolation.
    let local = scheduler.run(&dag2, &prog2.insns, &model, &heur2);
    // Global: block 2 scheduled with inherited constraints.
    let entry = entry_constraints(&prog2.insns, &model, &carry);
    println!("\nentry constraints for block 2: {entry:?}");
    let global = scheduler.run_with_entry(&dag2, &prog2.insns, &model, &heur2, &entry);

    // Measure on the real (carrying) machine: simulate the concatenation.
    for (label, s2) in [("local", &local), ("global", &global)] {
        let mut stream = emit(&prog1.insns, &s1);
        stream.extend(emit(&prog2.insns, s2));
        let r = simulate(&stream, &model, SimOptions::default());
        println!(
            "{label:>7}: order of block 2 = {:?}, total {} cycles, {} stalls",
            s2.order.iter().map(|n| n.index()).collect::<Vec<_>>(),
            r.cycles,
            r.total_stalls()
        );
    }
    println!(
        "\nThe globally informed pass knows %f4 is still {} cycles away and floats\n\
         the independent integer work ahead of the FP consumer (paper §2: pseudo\n\
         arcs for latencies inherited from preceding blocks).",
        carry
            .resource_ready
            .iter()
            .map(|&(_, d)| d)
            .max()
            .unwrap_or(0)
    );
}
