//! Run the six published scheduling algorithms (Table 2) over a whole
//! synthetic benchmark and compare the pipeline cycles their schedules
//! achieve — the downstream comparison the paper's survey enables.
//!
//! ```text
//! cargo run --release --example compare_schedulers [benchmark] [seed]
//! ```

use dagsched::isa::MachineModel;
use dagsched::pipesim::{simulate, SimOptions};
use dagsched::sched::{Scheduler, SchedulerKind};
use dagsched::workloads::{generate, BenchmarkProfile, PAPER_SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("linpack");
    let seed = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(PAPER_SEED);
    let profile = BenchmarkProfile::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; try grep, linpack, tomcatv, fpppp-1000 …");
        std::process::exit(2);
    });
    let bench = generate(profile, seed);
    let model = MachineModel::sparc2();

    // Baseline: original program order.
    let mut base_cycles = 0u64;
    let mut base_stalls = 0u64;
    for block in &bench.blocks {
        let r = simulate(
            bench.program.block_insns(block),
            &model,
            SimOptions::default(),
        );
        base_cycles += r.cycles;
        base_stalls += r.total_stalls();
    }
    println!(
        "{name} (seed {seed}): {} blocks, {} instructions",
        bench.blocks.len(),
        bench.program.len()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "scheduler", "cycles", "stalls", "vs. orig"
    );
    println!("{}", "-".repeat(60));
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "(program order)", base_cycles, base_stalls, "--"
    );

    for &kind in SchedulerKind::ALL {
        let sched = Scheduler::new(kind);
        let mut cycles = 0u64;
        let mut stalls = 0u64;
        for block in &bench.blocks {
            let insns = bench.program.block_insns(block);
            if insns.is_empty() {
                continue;
            }
            let schedule = sched.schedule_block(insns, &model);
            let reordered: Vec<_> = schedule.order.iter().map(|n| insns[n.index()]).collect();
            let r = simulate(&reordered, &model, SimOptions::default());
            cycles += r.cycles;
            stalls += r.total_stalls();
        }
        println!(
            "{:<22} {:>12} {:>12} {:>9.1}%",
            kind.name(),
            cycles,
            stalls,
            100.0 * (base_cycles as f64 - cycles as f64) / base_cycles as f64
        );
    }
}
