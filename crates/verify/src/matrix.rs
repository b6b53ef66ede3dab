//! The N-way cross-check matrix.
//!
//! One candidate program (assembly text) is pushed through every way the
//! workspace can process it, and every pair of results that the paper —
//! or this reproduction's own documentation — claims must agree is
//! compared. Each check family pins down one claim:
//!
//! | Check | Claim it pins down |
//! |---|---|
//! | [`CheckKind::Parse`] | printer/parser round-trip: a reproducer file is the program the matrix saw |
//! | [`CheckKind::Closure`] | §2/§6: every constructor (×  every memory policy) has the same transitive closure as the brute-force dependence relation |
//! | [`CheckKind::Timing`] | Figure 1: the non-pruning constructors preserve every live RAW latency as a path weight |
//! | [`CheckKind::Heur`] | §3–4: the word-parallel heuristic sweeps equal a closure-based per-node reference, field for field, and produce bit-identical schedules; construction work counters are exact and scratch-reuse-invariant |
//! | [`CheckKind::Validity`] | each published scheduler emits a permutation respecting its own DAG |
//! | [`CheckKind::Interp`] | scheduling preserves semantics: the reordered block leaves the `pipesim` interpreter in a bit-identical machine state |
//! | [`CheckKind::Pipeline`] | serial driver ≡ `--jobs N` driver ≡ cached service path, bit-identical, cold and warm |
//! | [`CheckKind::Optimal`] | on small blocks, list schedules never beat proven branch-and-bound optima and stay within a documented envelope |
//! | [`CheckKind::Wire`] | every request/response survives proto (binary frame) + JSON round-trips |

use std::fmt;

use dagsched_core::closure::{
    closure_equals_ground_truth, preserves_dependence_latencies, reference_heuristics,
};
use dagsched_core::{
    ConstructionAlgorithm, HeuristicSet, MemDepPolicy, PhaseStats, PreparedBlock, Scratch,
};
use dagsched_driver::batch::{schedule_program_batch, Limits, NoCache};
use dagsched_driver::driver::DriverConfig;
use dagsched_isa::{Instruction, MachineModel, MemExprId, Program};
use dagsched_pipesim::interp::{run, MachineState};
use dagsched_sched::{BranchAndBound, OptimalResult, Schedule, Scheduler, SchedulerKind};
use dagsched_service::json::Json;
use dagsched_service::proto::{
    read_frame, write_frame, FrameKind, ScheduleRequest, ScheduleResponse, DEFAULT_MAX_FRAME,
};
use dagsched_service::{execute, CacheConfig, EngineLimits, ScheduleCache};
use dagsched_workloads::parse_asm;

/// Which family of cross-check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckKind {
    /// Assembly printer/parser round-trip.
    Parse,
    /// Constructor transitive-closure equivalence.
    Closure,
    /// Live RAW latency preservation.
    Timing,
    /// Heuristic sweeps vs the closure-based reference path.
    Heur,
    /// Schedule dependence validity.
    Validity,
    /// Interpreter machine-state equivalence.
    Interp,
    /// Serial / parallel / cached-service bit-identity.
    Pipeline,
    /// Branch-and-bound optimality envelope.
    Optimal,
    /// Wire protocol round-trip.
    Wire,
}

impl CheckKind {
    /// Stable name used in reproducer file headers.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Parse => "parse",
            CheckKind::Closure => "closure",
            CheckKind::Timing => "timing",
            CheckKind::Heur => "heur",
            CheckKind::Validity => "validity",
            CheckKind::Interp => "interp",
            CheckKind::Pipeline => "pipeline",
            CheckKind::Optimal => "optimal",
            CheckKind::Wire => "wire",
        }
    }

    /// Inverse of [`CheckKind::name`].
    pub fn from_name(s: &str) -> Option<CheckKind> {
        Some(match s {
            "parse" => CheckKind::Parse,
            "closure" => CheckKind::Closure,
            "timing" => CheckKind::Timing,
            "heur" => CheckKind::Heur,
            "validity" => CheckKind::Validity,
            "interp" => CheckKind::Interp,
            "pipeline" => CheckKind::Pipeline,
            "optimal" => CheckKind::Optimal,
            "wire" => CheckKind::Wire,
            _ => return None,
        })
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed cross-check: which family, which pair of pipelines
/// disagreed, and how.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Check family.
    pub kind: CheckKind,
    /// The two sides that disagreed (e.g. `"table-backward vs ground truth"`).
    pub pair: String,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl Disagreement {
    fn new(kind: CheckKind, pair: impl Into<String>, detail: impl Into<String>) -> Disagreement {
        Disagreement {
            kind,
            pair: pair.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.pair, self.detail)
    }
}

/// Matrix tuning knobs. The matrix is a *pure function* of
/// `(text, config)` — replaying a reproducer under the default config
/// re-runs exactly the checks that caught it.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Timing model every check runs against.
    pub model: MachineModel,
    /// Largest block handed to branch-and-bound.
    pub optimal_max_len: usize,
    /// Node budget for branch-and-bound; `BudgetExhausted` skips the check.
    pub optimal_node_budget: u64,
    /// Random initial machine states per interpreter check.
    pub interp_states: u64,
    /// Run the wire round-trip family (needs the service types only —
    /// no sockets — but costs an engine execution per program).
    pub check_wire: bool,
    /// Seed for the interpreter's random initial states. Fixed by
    /// default so corpus replay is deterministic.
    pub state_seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> MatrixConfig {
        MatrixConfig {
            model: MachineModel::sparc2(),
            optimal_max_len: 12,
            optimal_node_budget: 300_000,
            interp_states: 2,
            check_wire: true,
            state_seed: 0xDA65_C4ED,
        }
    }
}

/// What a clean matrix pass covered (for reporting and for calibrating
/// the optimality envelopes).
#[derive(Debug, Clone, Default)]
pub struct CheckSummary {
    /// Basic blocks checked.
    pub blocks: usize,
    /// Instructions across those blocks.
    pub insns: usize,
    /// Blocks where branch-and-bound proved an optimum.
    pub optimal_proven: usize,
    /// Largest observed `makespan - optimal` gap per scheduler
    /// (scheduler name, gap), over blocks with proven optima.
    pub opt_gaps: Vec<(&'static str, u64)>,
}

impl CheckSummary {
    fn record_gap(&mut self, kind: SchedulerKind, gap: u64) {
        for entry in &mut self.opt_gaps {
            if entry.0 == kind.name() {
                entry.1 = entry.1.max(gap);
                return;
            }
        }
        self.opt_gaps.push((kind.name(), gap));
    }

    /// Merge another summary into this one (used by the fuzz loop).
    pub fn absorb(&mut self, other: &CheckSummary) {
        self.blocks += other.blocks;
        self.insns += other.insns;
        self.optimal_proven += other.optimal_proven;
        for &(name, gap) in &other.opt_gaps {
            if let Some(entry) = self.opt_gaps.iter_mut().find(|e| e.0 == name) {
                entry.1 = entry.1.max(gap);
            } else {
                self.opt_gaps.push((name, gap));
            }
        }
    }
}

/// Documented optimality envelope per scheduler: on blocks small enough
/// for branch-and-bound to prove an optimum, the scheduler's makespan
/// (re-timed on the reference compare-against-all DAG) must not exceed
/// `optimal + envelope`.
///
/// These are *empirical* envelopes, calibrated by sustained fuzz runs
/// over every generator shape (see DESIGN.md "verification matrix"), not
/// analytic guarantees: the forward critical-path schedulers track the
/// optimum closely, while the backward-priority schedulers (Schlansker,
/// Tiemann) trade schedule quality for pass cheapness — the same
/// behaviour the paper's Table 6 reports — and need a wider envelope.
/// Calibration: five sustained runs (seeds 0xDA65C4ED three times,
/// 1991, 0xBEEF; ~90k programs, ~400k blocks, ~360k proven optima)
/// observed worst gaps of GM 25, Krishnamurthy 17, Schlansker 46,
/// Shieh 26, Tiemann 20, Warren 14 cycles; the envelopes below are
/// those maxima with ~40–50% headroom. A block exceeding its envelope is
/// a *finding* to triage — either a genuine scheduler regression or a
/// newly discovered pathological input that, once triaged as faithful
/// to the published heuristic, widens the envelope and lands in
/// `tests/corpus/` as a pin (see `optimal-gm-divchain.s`).
pub fn optimal_envelope(kind: SchedulerKind) -> u64 {
    match kind {
        SchedulerKind::GibbonsMuchnick => 38,
        SchedulerKind::Krishnamurthy => 26,
        SchedulerKind::Schlansker => 68,
        SchedulerKind::ShiehPapachristou => 33,
        SchedulerKind::Tiemann => 30,
        SchedulerKind::Warren => 21,
    }
}

/// Distinct memory cells a block touches, in first-use order.
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

/// Run the full cross-check matrix over `text`.
///
/// Returns the coverage summary on success, or the *first* disagreement
/// found. The matrix deliberately stops at the first failure: the fuzz
/// loop shrinks against a single check kind, and later checks on an
/// already-inconsistent program would only produce noise.
pub fn check_text(text: &str, cfg: &MatrixConfig) -> Result<CheckSummary, Disagreement> {
    // ── Parse + printer/parser round-trip ────────────────────────────
    let program = parse_asm(text)
        .map_err(|e| Disagreement::new(CheckKind::Parse, "asm text vs parser", e.to_string()))?;
    if program.is_empty() {
        // Nothing to check; an empty program is vacuously consistent.
        return Ok(CheckSummary::default());
    }
    let printed = program.to_string();
    let reparsed = parse_asm(&printed).map_err(|e| {
        Disagreement::new(
            CheckKind::Parse,
            "printer vs parser",
            format!("printed program no longer parses: {e}"),
        )
    })?;
    if program.insns.len() != reparsed.insns.len() {
        return Err(Disagreement::new(
            CheckKind::Parse,
            "printer vs parser",
            format!(
                "printed program has {} insns, reparse has {}",
                program.insns.len(),
                reparsed.insns.len()
            ),
        ));
    }
    for (k, (a, b)) in program.insns.iter().zip(&reparsed.insns).enumerate() {
        if a.to_string() != b.to_string() {
            return Err(Disagreement::new(
                CheckKind::Parse,
                "printer vs parser",
                format!("insn {k} reprints as `{b}`, was `{a}`"),
            ));
        }
    }

    let mut summary = CheckSummary::default();
    let blocks = program.basic_blocks();
    for b in &blocks {
        let insns = program.block_insns(b);
        if insns.is_empty() {
            continue;
        }
        check_block(insns, cfg, &mut summary)?;
    }

    check_pipelines(&program, text, cfg)?;

    if cfg.check_wire {
        check_wire(text, cfg)?;
    }
    Ok(summary)
}

/// Per-block checks: constructors, schedulers, oracle, optimality.
fn check_block(
    insns: &[Instruction],
    cfg: &MatrixConfig,
    summary: &mut CheckSummary,
) -> Result<(), Disagreement> {
    let model = &cfg.model;
    let prepared = PreparedBlock::new(insns);
    summary.blocks += 1;
    summary.insns += insns.len();

    // ── Constructor closure equivalence, every algorithm × policy ────
    for &algo in ConstructionAlgorithm::ALL {
        for &policy in MemDepPolicy::ALL {
            let dag = algo.run(&prepared, model, policy);
            closure_equals_ground_truth(&dag, &prepared, model, policy).map_err(|e| {
                Disagreement::new(
                    CheckKind::Closure,
                    format!("{algo:?}/{policy:?} vs ground truth"),
                    e,
                )
            })?;
        }
    }

    // ── Live RAW latency preservation (the Figure 1 property) ────────
    // Holds for the constructors that keep "important" transitive arcs;
    // Landskov pruning and bitmap suppression are *documented* to lose
    // it (the paper's recommendation against them), so they are not in
    // this list.
    for &algo in &[
        ConstructionAlgorithm::N2Forward,
        ConstructionAlgorithm::N2Backward,
        ConstructionAlgorithm::TableForward,
        ConstructionAlgorithm::TableBackward,
    ] {
        let dag = algo.run(&prepared, model, MemDepPolicy::SymbolicExpr);
        preserves_dependence_latencies(&dag, &prepared, model, MemDepPolicy::SymbolicExpr)
            .map_err(|e| {
                Disagreement::new(
                    CheckKind::Timing,
                    format!("{algo:?} vs live RAW latencies"),
                    e,
                )
            })?;
    }

    // ── Heuristic sweeps vs the closure-based reference path ─────────
    // The SoA core computes heuristics with word-parallel arc-column
    // sweeps gated on sortedness flags; the reference path recomputes
    // everything with naive per-node adjacency walks and per-node
    // reachability bitmaps. Every field must match exactly, and the
    // construction work counters must be exact (arcs_added == the DAG's
    // arc count) and invariant under scratch reuse.
    for &algo in ConstructionAlgorithm::ALL {
        let mut scratch = Scratch::new();
        let dag = algo.run_with_scratch(&prepared, model, MemDepPolicy::SymbolicExpr, &mut scratch);
        let cold = scratch.stats;
        if cold.arcs_added != dag.arc_count() as u64 {
            return Err(Disagreement::new(
                CheckKind::Heur,
                format!("{algo:?} PhaseStats vs DAG"),
                format!(
                    "construction recorded {} arcs, DAG holds {}",
                    cold.arcs_added,
                    dag.arc_count()
                ),
            ));
        }
        let _ = algo.run_with_scratch(&prepared, model, MemDepPolicy::SymbolicExpr, &mut scratch);
        let warm = scratch.stats;
        let delta = PhaseStats {
            blocks: warm.blocks - cold.blocks,
            nodes: warm.nodes - cold.nodes,
            arcs_added: warm.arcs_added - cold.arcs_added,
            arcs_suppressed: warm.arcs_suppressed - cold.arcs_suppressed,
            table_probes: warm.table_probes - cold.table_probes,
            comparisons: warm.comparisons - cold.comparisons,
            ..PhaseStats::default()
        };
        if !delta.same_counts(&cold) {
            return Err(Disagreement::new(
                CheckKind::Heur,
                format!("{algo:?} cold scratch vs warm scratch"),
                format!("work counters drifted across reuse: cold {cold:?}, warm delta {delta:?}"),
            ));
        }
        let sweep = HeuristicSet::compute(&dag, insns, model, true);
        let reference = reference_heuristics(&dag, insns, model, true);
        if let Some(diff) = heur_field_diff(&sweep, &reference) {
            return Err(Disagreement::new(
                CheckKind::Heur,
                format!("{algo:?} sweep vs reference heuristics"),
                diff,
            ));
        }
    }

    // Reference DAG for uniform re-timing: compare-against-all keeps
    // every dependence arc with its full latency.
    let ref_dag =
        ConstructionAlgorithm::N2Forward.run(&prepared, model, MemDepPolicy::SymbolicExpr);

    // ── Branch-and-bound optimum (small blocks) ──────────────────────
    let optimal = if insns.len() <= cfg.optimal_max_len {
        let heur = HeuristicSet::compute(&ref_dag, insns, model, false);
        let bb = BranchAndBound {
            node_budget: cfg.optimal_node_budget,
        };
        match bb.schedule(&ref_dag, insns, model, &heur) {
            r @ OptimalResult::Optimal(_) => {
                summary.optimal_proven += 1;
                Some(r.schedule().makespan(insns, model))
            }
            OptimalResult::BudgetExhausted(_) => None,
        }
    } else {
        None
    };

    // ── Every published scheduler ────────────────────────────────────
    let cells = block_cells(insns);
    for &kind in SchedulerKind::ALL {
        let sched = Scheduler::new(kind);
        let dag = sched.construction.run(&prepared, model, sched.policy);
        let heur = HeuristicSet::compute(&dag, insns, model, false);
        let s = sched.schedule_dag(&dag, insns, model, &heur);

        // Dependence validity against the scheduler's own DAG.
        s.verify(&dag)
            .map_err(|e| Disagreement::new(CheckKind::Validity, format!("{kind} vs its DAG"), e))?;

        // Schedule bit-identity across heuristic paths: the scheduler
        // must emit the same order whether its priorities came from the
        // word-parallel sweeps or the closure-based reference walks.
        let ref_heur = reference_heuristics(&dag, insns, model, false);
        let s_ref = sched.schedule_dag(&dag, insns, model, &ref_heur);
        if s_ref.order != s.order {
            let at = s
                .order
                .iter()
                .zip(&s_ref.order)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(Disagreement::new(
                CheckKind::Heur,
                format!("{kind}: sweep vs reference heuristics"),
                format!(
                    "schedules diverge at slot {at}: sweep picks {:?}, reference picks {:?}",
                    s.order[at], s_ref.order[at]
                ),
            ));
        }

        let emitted: Vec<Instruction> = s.order.iter().map(|n| insns[n.index()].clone()).collect();

        // Interpreter-state equivalence against the unscheduled block.
        let mut seed = cfg
            .state_seed
            .wrapping_add(insns.len() as u64)
            .wrapping_mul(0x9E37_79B9);
        for _ in 0..cfg.interp_states.max(1) {
            let init = MachineState::random(crate::splitmix64(&mut seed), cells.iter().copied());
            let want = run(insns, &init);
            let got = run(&emitted, &init);
            if want != got {
                return Err(Disagreement::new(
                    CheckKind::Interp,
                    format!("{kind} vs pipesim oracle"),
                    format!(
                        "reordered block diverges from program order: {}",
                        state_diff(&want, &got)
                    ),
                ));
            }
        }

        // Optimality envelope: re-time the order on the reference DAG so
        // every scheduler is measured with the same (full) arc set, then
        // compare against the proven optimum.
        if let Some(opt) = optimal {
            let retimed = Schedule::from_order(s.order.clone(), &ref_dag, insns, model);
            let mk = retimed.makespan(insns, model);
            if mk < opt {
                return Err(Disagreement::new(
                    CheckKind::Optimal,
                    format!("{kind} vs branch-and-bound"),
                    format!("schedule of makespan {mk} beats the proven optimum {opt}"),
                ));
            }
            let gap = mk - opt;
            summary.record_gap(kind, gap);
            if gap > optimal_envelope(kind) {
                return Err(Disagreement::new(
                    CheckKind::Optimal,
                    format!("{kind} vs branch-and-bound"),
                    format!(
                        "makespan {mk} exceeds optimum {opt} by {gap} (> documented envelope {})",
                        optimal_envelope(kind)
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// First differing field (and node) between the sweep-computed and the
/// reference-computed heuristic sets, or `None` when they agree.
fn heur_field_diff(sweep: &HeuristicSet, reference: &HeuristicSet) -> Option<String> {
    macro_rules! field {
        ($name:ident) => {
            if sweep.$name != reference.$name {
                return Some(
                    match sweep
                        .$name
                        .iter()
                        .zip(reference.$name.iter())
                        .position(|(a, b)| a != b)
                    {
                        Some(k) => format!(
                            "field `{}` differs at node {k}: sweep {:?}, reference {:?}",
                            stringify!($name),
                            sweep.$name[k],
                            reference.$name[k]
                        ),
                        None => format!(
                            "field `{}` lengths differ: sweep {}, reference {}",
                            stringify!($name),
                            sweep.$name.len(),
                            reference.$name.len()
                        ),
                    },
                );
            }
        };
    }
    field!(exec_time);
    field!(interlock_with_child);
    field!(num_children);
    field!(num_parents);
    field!(sum_delays_to_children);
    field!(max_delay_to_child);
    field!(sum_delays_from_parents);
    field!(max_delay_from_parent);
    field!(regs_born);
    field!(regs_killed);
    field!(liveness);
    field!(original_order);
    field!(max_path_from_root);
    field!(max_delay_from_root);
    field!(est);
    field!(max_path_to_leaf);
    field!(max_delay_to_leaf);
    field!(lst);
    field!(slack);
    field!(num_descendants);
    field!(sum_exec_descendants);
    None
}

/// First differing component of two machine states.
fn state_diff(a: &MachineState, b: &MachineState) -> String {
    for r in 0..32 {
        if a.int_regs[r] != b.int_regs[r] {
            return format!("int reg {r}: {} vs {}", a.int_regs[r], b.int_regs[r]);
        }
    }
    for r in 0..32 {
        if a.fp_regs[r].to_bits() != b.fp_regs[r].to_bits() {
            return format!("fp reg {r}: {} vs {}", a.fp_regs[r], b.fp_regs[r]);
        }
    }
    if a.icc != b.icc {
        return format!("icc: {} vs {}", a.icc, b.icc);
    }
    if a.fcc != b.fcc {
        return format!("fcc: {} vs {}", a.fcc, b.fcc);
    }
    if a.y != b.y {
        return format!("%y: {} vs {}", a.y, b.y);
    }
    "memory cells differ".to_string()
}

/// Fingerprint of a scheduled program for bit-identity comparison.
fn program_fingerprint(sp: &dagsched_driver::driver::ScheduledProgram) -> Vec<String> {
    let mut out: Vec<String> = sp.insns.iter().map(|i| i.to_string()).collect();
    for b in &sp.blocks {
        out.push(format!(
            "block {} len {} orig {} sched {}",
            b.block, b.len, b.original_makespan, b.scheduled_makespan
        ));
    }
    out
}

/// Serial vs parallel vs cached-service bit-identity, for every
/// published scheduler.
fn check_pipelines(program: &Program, _text: &str, cfg: &MatrixConfig) -> Result<(), Disagreement> {
    let model = &cfg.model;
    for &kind in SchedulerKind::ALL {
        let config = DriverConfig {
            scheduler: Scheduler::new(kind),
            ..DriverConfig::default()
        };
        let serial = schedule_program_batch(program, model, &config, 1, &Limits::none(), &NoCache)
            .map_err(|e| {
                Disagreement::new(
                    CheckKind::Pipeline,
                    format!("{kind} serial driver"),
                    format!("unexpected limit error: {e:?}"),
                )
            })?;
        let parallel =
            schedule_program_batch(program, model, &config, 4, &Limits::none(), &NoCache).map_err(
                |e| {
                    Disagreement::new(
                        CheckKind::Pipeline,
                        format!("{kind} parallel driver"),
                        format!("unexpected limit error: {e:?}"),
                    )
                },
            )?;
        let fp_serial = program_fingerprint(&serial.0);
        if fp_serial != program_fingerprint(&parallel.0) {
            return Err(Disagreement::new(
                CheckKind::Pipeline,
                format!("{kind}: serial vs --jobs 4"),
                first_line_diff(&fp_serial, &program_fingerprint(&parallel.0)),
            ));
        }
        // The service path: the batch loop with the content-addressed
        // schedule cache (exactly what `engine::execute` runs). Cold
        // fill, then a warm pass that must replay hits bit-identically.
        let cache = ScheduleCache::new(CacheConfig {
            max_entries: 256,
            ..CacheConfig::default()
        });
        let cold = schedule_program_batch(program, model, &config, 1, &Limits::none(), &cache)
            .map_err(|e| {
                Disagreement::new(
                    CheckKind::Pipeline,
                    format!("{kind} cached service path"),
                    format!("unexpected limit error: {e:?}"),
                )
            })?;
        if fp_serial != program_fingerprint(&cold.0) {
            return Err(Disagreement::new(
                CheckKind::Pipeline,
                format!("{kind}: serial vs service (cold cache)"),
                first_line_diff(&fp_serial, &program_fingerprint(&cold.0)),
            ));
        }
        let warm = schedule_program_batch(program, model, &config, 1, &Limits::none(), &cache)
            .map_err(|e| {
                Disagreement::new(
                    CheckKind::Pipeline,
                    format!("{kind} cached service path"),
                    format!("unexpected limit error: {e:?}"),
                )
            })?;
        if fp_serial != program_fingerprint(&warm.0) {
            return Err(Disagreement::new(
                CheckKind::Pipeline,
                format!("{kind}: serial vs service (warm cache)"),
                first_line_diff(&fp_serial, &program_fingerprint(&warm.0)),
            ));
        }
        if warm.1.cache_hits == 0 {
            return Err(Disagreement::new(
                CheckKind::Pipeline,
                format!("{kind}: warm cache vs cold cache"),
                "second cached pass recorded no hits — the cache key is unstable".to_string(),
            ));
        }
    }
    Ok(())
}

fn first_line_diff(a: &[String], b: &[String]) -> String {
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("line {k}: `{x}` vs `{y}`");
        }
    }
    format!("lengths differ: {} vs {}", a.len(), b.len())
}

/// Wire round-trips: JSON and binary framing for requests and the
/// response produced by actually executing one.
fn check_wire(text: &str, cfg: &MatrixConfig) -> Result<(), Disagreement> {
    let mut varied = ScheduleRequest::asm(text);
    varied.scheduler = "gm".to_string();
    varied.algo = "table-backward".to_string();
    varied.policy = "base-offset".to_string();
    varied.jobs = 3;
    varied.deadline_ms = Some(10_000);
    varied.sim = true;
    let profile_req = ScheduleRequest::profile("grep", text.len() as u64);
    for (label, req) in [
        ("default request", ScheduleRequest::asm(text)),
        ("varied request", varied),
        ("profile request", profile_req),
    ] {
        // JSON round-trip.
        let json_text = req.to_json().to_string();
        let parsed = Json::parse(&json_text).map_err(|e| {
            Disagreement::new(
                CheckKind::Wire,
                format!("{label}: writer vs parser"),
                format!("emitted JSON no longer parses: {e}"),
            )
        })?;
        let back = ScheduleRequest::from_json(&parsed).map_err(|e| {
            Disagreement::new(
                CheckKind::Wire,
                format!("{label}: to_json vs from_json"),
                format!("round-tripped request rejected: {e}"),
            )
        })?;
        if back != req {
            return Err(Disagreement::new(
                CheckKind::Wire,
                format!("{label}: to_json vs from_json"),
                format!("request changed across the round-trip:\n  sent {req:?}\n  got  {back:?}"),
            ));
        }
        // Binary frame round-trip.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, json_text.as_bytes()).map_err(|e| {
            Disagreement::new(
                CheckKind::Wire,
                format!("{label}: write_frame"),
                e.to_string(),
            )
        })?;
        let (kind, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).map_err(|e| {
            Disagreement::new(
                CheckKind::Wire,
                format!("{label}: write_frame vs read_frame"),
                e.to_string(),
            )
        })?;
        if kind != FrameKind::Request || payload != json_text.as_bytes() {
            return Err(Disagreement::new(
                CheckKind::Wire,
                format!("{label}: write_frame vs read_frame"),
                "frame payload changed across the round-trip".to_string(),
            ));
        }
    }

    // A real response, from the same engine the daemon runs.
    let req = ScheduleRequest::asm(text);
    let cache = ScheduleCache::new(CacheConfig {
        max_entries: 16,
        ..CacheConfig::default()
    });
    let mut scratch = Scratch::new();
    let resp = execute(&req, &EngineLimits::default(), &cache, &mut scratch).map_err(|e| {
        Disagreement::new(
            CheckKind::Wire,
            "engine vs request",
            format!("engine rejected a parseable program: {e}"),
        )
    })?;
    let json_text = resp.to_json().to_string();
    let parsed = Json::parse(&json_text).map_err(|e| {
        Disagreement::new(
            CheckKind::Wire,
            "response writer vs parser",
            format!("emitted JSON no longer parses: {e}"),
        )
    })?;
    match ScheduleResponse::from_json(&parsed) {
        Some(back) if back == resp => {}
        Some(back) => {
            return Err(Disagreement::new(
                CheckKind::Wire,
                "response to_json vs from_json",
                format!(
                    "response changed across the round-trip:\n  sent {resp:?}\n  got  {back:?}"
                ),
            ))
        }
        None => {
            return Err(Disagreement::new(
                CheckKind::Wire,
                "response to_json vs from_json",
                "round-tripped response rejected".to_string(),
            ))
        }
    }
    let _ = cfg;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_block_passes_the_full_matrix() {
        let text = "    fdivd %f0, %f2, %f4\n    faddd %f6, %f8, %f4\n    faddd %f4, %f2, %f10\n";
        let summary = check_text(text, &MatrixConfig::default()).expect("matrix");
        assert_eq!(summary.blocks, 1);
        assert_eq!(summary.insns, 3);
        assert_eq!(summary.optimal_proven, 1);
    }

    #[test]
    fn garbage_fails_as_a_parse_disagreement() {
        let err = check_text("    not an instruction\n", &MatrixConfig::default()).unwrap_err();
        assert_eq!(err.kind, CheckKind::Parse);
    }

    #[test]
    fn multiblock_program_is_checked_blockwise() {
        let text = "    add %o0, %o1, %o2\n    cmp %o2, %o0\n    bne .L1\n    sub %o2, %o1, %o3\n    st %o3, [%fp-8]\n";
        let summary = check_text(text, &MatrixConfig::default()).expect("matrix");
        assert!(
            summary.blocks >= 2,
            "branch splits the program: {summary:?}"
        );
    }
}
