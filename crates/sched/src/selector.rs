//! Candidate selection: heuristic keys, winnowing, and priority functions.
//!
//! The paper (§5): "Some algorithms combine the heuristic information into
//! a single priority value per node, while others apply heuristics in a
//! given order in a winnowing-like process." Both mechanisms are
//! implemented over a common vocabulary of heuristic keys.

use dagsched_core::{Dag, DynState, HeuristicPasses, HeuristicSet, NodeId};
use dagsched_isa::{InsnClass, Instruction, MachineModel};

/// A heuristic usable for candidate selection. Static keys read the
/// precomputed [`HeuristicSet`]; dynamic keys (Table 1 class `v`) consult
/// the scheduler's [`DynState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mirrors the Table 1 heuristic names
pub enum HeurKey {
    // ---- static ----
    ExecTime,
    InterlockWithChild,
    MaxPathToLeaf,
    MaxDelayToLeaf,
    MaxPathFromRoot,
    MaxDelayFromRoot,
    Est,
    Lst,
    Slack,
    NumChildren,
    SumDelaysToChildren,
    MaxDelayToChild,
    NumParents,
    SumDelaysFromParents,
    MaxDelayFromParent,
    NumDescendants,
    SumExecDescendants,
    RegsBorn,
    RegsKilled,
    Liveness,
    OriginalOrder,
    // ---- dynamic (node visitation during scheduling) ----
    /// 1 when the candidate does *not* interlock with the most recently
    /// scheduled instruction (Gibbons & Muchnick's first criterion).
    NoInterlockWithPrevious,
    /// The candidate's dynamic earliest execution time.
    EarliestExecTime,
    /// 1 when the candidate's (unpipelined) function unit is free now.
    NoFpuInterlock,
    /// 1 when the candidate's class differs from the last scheduled
    /// instruction's class (Warren's "alternate type").
    AlternateType,
    NumSingleParentChildren,
    SumDelaysSingleParentChildren,
    NumUncoveredChildren,
    /// Accumulated birthing-instruction priority boost (Tiemann).
    BirthingAdjust,
}

impl HeurKey {
    /// Human-readable name, matching the paper's Table 2 row labels.
    pub fn name(self) -> &'static str {
        match self {
            HeurKey::ExecTime => "execution time",
            HeurKey::InterlockWithChild => "interlock w/child",
            HeurKey::MaxPathToLeaf => "max path to leaf",
            HeurKey::MaxDelayToLeaf => "max delay to leaf",
            HeurKey::MaxPathFromRoot => "max path to root",
            HeurKey::MaxDelayFromRoot => "max delay to root",
            HeurKey::Est => "earliest start time",
            HeurKey::Lst => "latest start time",
            HeurKey::Slack => "slack time",
            HeurKey::NumChildren => "number of children",
            HeurKey::SumDelaysToChildren => "sum delays to children",
            HeurKey::MaxDelayToChild => "max delay to child",
            HeurKey::NumParents => "number of parents",
            HeurKey::SumDelaysFromParents => "sum delays from parents",
            HeurKey::MaxDelayFromParent => "max delay from parent",
            HeurKey::NumDescendants => "number of descendants",
            HeurKey::SumExecDescendants => "sum exec times of descendants",
            HeurKey::RegsBorn => "registers born",
            HeurKey::RegsKilled => "registers killed",
            HeurKey::Liveness => "register liveness",
            HeurKey::OriginalOrder => "original order",
            HeurKey::NoInterlockWithPrevious => "no interlock w/ previous inst.",
            HeurKey::EarliestExecTime => "earliest time",
            HeurKey::NoFpuInterlock => "fpu interlocks",
            HeurKey::AlternateType => "alternate type",
            HeurKey::NumSingleParentChildren => "number single-parent children",
            HeurKey::SumDelaysSingleParentChildren => "sum delays single-parent children",
            HeurKey::NumUncoveredChildren => "number uncovered",
            HeurKey::BirthingAdjust => "birthing instruction",
        }
    }

    /// The paper's Table 2 calculation code for this key (`a` keys print
    /// with no suffix there; `f`/`b`/`v` annotate the heuristic ranks).
    pub fn pass_code(self) -> &'static str {
        match self {
            HeurKey::MaxPathToLeaf
            | HeurKey::MaxDelayToLeaf
            | HeurKey::Lst
            | HeurKey::NumDescendants
            | HeurKey::SumExecDescendants => "b",
            HeurKey::MaxPathFromRoot | HeurKey::MaxDelayFromRoot | HeurKey::Est => "f",
            HeurKey::Slack => "f+b",
            HeurKey::NoInterlockWithPrevious
            | HeurKey::EarliestExecTime
            | HeurKey::NoFpuInterlock
            | HeurKey::NumSingleParentChildren
            | HeurKey::SumDelaysSingleParentChildren
            | HeurKey::NumUncoveredChildren => "v",
            _ => "",
        }
    }

    /// The static heuristic passes that fill the field this key reads,
    /// by its Table 1 calculation method ([`HeurKey::pass_code`]):
    /// none for execution time, original order and the dynamic (`v`)
    /// keys, which every heuristic set carries or the scheduler's
    /// [`DynState`] holds.
    pub fn passes(self) -> HeuristicPasses {
        use HeuristicPasses as P;
        match self {
            HeurKey::ExecTime | HeurKey::OriginalOrder => P::NONE,
            HeurKey::InterlockWithChild
            | HeurKey::NumChildren
            | HeurKey::SumDelaysToChildren
            | HeurKey::MaxDelayToChild
            | HeurKey::NumParents
            | HeurKey::SumDelaysFromParents
            | HeurKey::MaxDelayFromParent => P::ARCS,
            HeurKey::RegsBorn | HeurKey::RegsKilled | HeurKey::Liveness => P::REGISTERS,
            HeurKey::MaxPathFromRoot | HeurKey::MaxDelayFromRoot | HeurKey::Est => P::FORWARD,
            HeurKey::MaxPathToLeaf | HeurKey::MaxDelayToLeaf => P::CRITICAL_PATH,
            HeurKey::Lst | HeurKey::Slack => P::SLACK,
            HeurKey::NumDescendants | HeurKey::SumExecDescendants => P::DESCENDANTS,
            HeurKey::NoInterlockWithPrevious
            | HeurKey::EarliestExecTime
            | HeurKey::NoFpuInterlock
            | HeurKey::AlternateType
            | HeurKey::NumSingleParentChildren
            | HeurKey::SumDelaysSingleParentChildren
            | HeurKey::NumUncoveredChildren
            | HeurKey::BirthingAdjust => P::NONE,
        }
    }
}

/// Preference direction for a criterion's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Larger values are better.
    PreferMax,
    /// Smaller values are better (e.g. earliest execution time, liveness).
    PreferMin,
}

/// One ranked selection criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Criterion {
    /// Which heuristic.
    pub key: HeurKey,
    /// Which direction is preferred.
    pub sense: Sense,
}

impl Criterion {
    /// Prefer larger values of `key`.
    pub fn max(key: HeurKey) -> Criterion {
        Criterion {
            key,
            sense: Sense::PreferMax,
        }
    }

    /// Prefer smaller values of `key`.
    pub fn min(key: HeurKey) -> Criterion {
        Criterion {
            key,
            sense: Sense::PreferMin,
        }
    }
}

/// How an algorithm combines its criteria.
///
/// The paper's §5 distinction: "Some algorithms combine the heuristic
/// information into a single priority value per node, while others apply
/// heuristics in a given order in a winnowing-like process."
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectStrategy {
    /// Apply criteria in rank order, keeping only the best candidates at
    /// each rank; first remaining candidate (original order) wins ties.
    Winnowing(Vec<Criterion>),
    /// Combine the ranked criteria into **one scalar priority per node**:
    /// each criterion's score occupies a 21-bit digit of an `i128`
    /// (saturated per digit), highest-rank criterion most significant.
    /// Highest priority wins; original order breaks ties.
    Priority(Vec<Criterion>),
}

impl SelectStrategy {
    /// The ranked criteria, in rank order (for Table 2 reporting).
    pub fn criteria(&self) -> Vec<Criterion> {
        match self {
            SelectStrategy::Winnowing(c) => c.clone(),
            SelectStrategy::Priority(c) => c.clone(),
        }
    }

    /// Whether this is a priority-function combiner (Table 2's
    /// "(priority fn)" annotation).
    pub fn is_priority_fn(&self) -> bool {
        matches!(self, SelectStrategy::Priority(_))
    }

    /// The static heuristic passes the ranked criteria read: the union
    /// of [`HeurKey::passes`] over them.
    pub fn passes(&self) -> HeuristicPasses {
        let (SelectStrategy::Winnowing(criteria) | SelectStrategy::Priority(criteria)) = self;
        criteria
            .iter()
            .fold(HeuristicPasses::NONE, |p, c| p | c.key.passes())
    }
}

/// Everything a criterion may consult when scoring a candidate.
pub struct SelectCtx<'a> {
    /// The dependence DAG.
    pub dag: &'a Dag,
    /// The block's instructions.
    pub insns: &'a [Instruction],
    /// The machine model.
    pub model: &'a MachineModel,
    /// Precomputed static heuristics.
    pub heur: &'a HeuristicSet,
    /// Dynamic scheduler state.
    pub dyn_state: &'a DynState,
    /// Current scheduling clock.
    pub time: u64,
    /// Class of the most recently scheduled instruction.
    pub last_class: Option<InsnClass>,
}

impl SelectCtx<'_> {
    /// Raw value of `key` for `node` (before applying the sense).
    pub fn eval(&self, key: HeurKey, node: NodeId) -> i64 {
        let i = node.index();
        let h = self.heur;
        match key {
            HeurKey::ExecTime => h.exec_time[i] as i64,
            HeurKey::InterlockWithChild => h.interlock_with_child[i] as i64,
            HeurKey::MaxPathToLeaf => h.max_path_to_leaf[i] as i64,
            HeurKey::MaxDelayToLeaf => h.max_delay_to_leaf[i] as i64,
            HeurKey::MaxPathFromRoot => h.max_path_from_root[i] as i64,
            HeurKey::MaxDelayFromRoot => h.max_delay_from_root[i] as i64,
            HeurKey::Est => h.est[i] as i64,
            HeurKey::Lst => h.lst[i] as i64,
            HeurKey::Slack => h.slack[i] as i64,
            HeurKey::NumChildren => h.num_children[i] as i64,
            HeurKey::SumDelaysToChildren => h.sum_delays_to_children[i] as i64,
            HeurKey::MaxDelayToChild => h.max_delay_to_child[i] as i64,
            HeurKey::NumParents => h.num_parents[i] as i64,
            HeurKey::SumDelaysFromParents => h.sum_delays_from_parents[i] as i64,
            HeurKey::MaxDelayFromParent => h.max_delay_from_parent[i] as i64,
            HeurKey::NumDescendants => h.num_descendants.get(i).copied().unwrap_or(0) as i64,
            HeurKey::SumExecDescendants => {
                h.sum_exec_descendants.get(i).copied().unwrap_or(0) as i64
            }
            HeurKey::RegsBorn => h.regs_born[i] as i64,
            HeurKey::RegsKilled => h.regs_killed[i] as i64,
            HeurKey::Liveness => h.liveness[i] as i64,
            HeurKey::OriginalOrder => h.original_order[i] as i64,
            HeurKey::NoInterlockWithPrevious => {
                !self.dyn_state.interlocks_with_previous(self.dag, node) as i64
            }
            HeurKey::EarliestExecTime => self.dyn_state.earliest_exec[i] as i64,
            HeurKey::NoFpuInterlock => {
                !self
                    .dyn_state
                    .fpu_interlock(self.model, &self.insns[i], self.time) as i64
            }
            HeurKey::AlternateType => match self.last_class {
                Some(c) => (self.insns[i].class() != c) as i64,
                None => 0,
            },
            HeurKey::NumSingleParentChildren => {
                self.dyn_state.num_single_parent_children(self.dag, node) as i64
            }
            HeurKey::SumDelaysSingleParentChildren => {
                self.dyn_state
                    .sum_delays_single_parent_children(self.dag, node) as i64
            }
            HeurKey::NumUncoveredChildren => {
                self.dyn_state.num_uncovered_children(self.dag, node) as i64
            }
            HeurKey::BirthingAdjust => self.dyn_state.priority_adjust[i],
        }
    }

    /// Value of a criterion, oriented so that larger is always better.
    pub fn score(&self, c: Criterion, node: NodeId) -> i64 {
        let v = self.eval(c.key, node);
        match c.sense {
            Sense::PreferMax => v,
            Sense::PreferMin => -v,
        }
    }

    /// The single scalar priority of `node` under ranked `criteria`:
    /// base-2^21 digits, most significant first, each digit the
    /// sense-oriented score saturated to ±2^20.
    pub fn priority_value(&self, criteria: &[Criterion], node: NodeId) -> i128 {
        const DIGIT_BITS: u32 = 21;
        const DIGIT_MAX: i64 = (1 << 20) - 1;
        let mut p: i128 = 0;
        for c in criteria {
            let digit = self.score(*c, node).clamp(-DIGIT_MAX, DIGIT_MAX);
            p = (p << DIGIT_BITS) + digit as i128;
        }
        p
    }

    /// Select the best candidate from `candidates` under `strategy`.
    /// Ties are broken by original program order (the first candidate,
    /// since candidate lists are kept in node order).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select(&self, strategy: &SelectStrategy, candidates: &[NodeId]) -> NodeId {
        match strategy {
            SelectStrategy::Winnowing(_) => {
                self.select_in(strategy, &mut candidates.to_vec(), &mut Vec::new())
            }
            SelectStrategy::Priority(criteria) => self.best_priority(criteria, candidates),
        }
    }

    /// [`SelectCtx::select`] over a candidate buffer the caller owns and
    /// lets this call consume: winnowing narrows `candidates` in place
    /// instead of copying it, scoring each remaining candidate once per
    /// criterion into `scores`, so a scheduler that refills one buffer
    /// per step selects without allocating. On return the buffer holds
    /// an unspecified subset of the candidates, and `scores` holds
    /// unspecified values.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select_in(
        &self,
        strategy: &SelectStrategy,
        candidates: &mut Vec<NodeId>,
        scores: &mut Vec<i64>,
    ) -> NodeId {
        match strategy {
            SelectStrategy::Winnowing(criteria) => {
                assert!(!candidates.is_empty(), "no candidates to select from");
                for c in criteria {
                    if candidates.len() == 1 {
                        break;
                    }
                    scores.clear();
                    scores.extend(candidates.iter().map(|&n| self.score(*c, n)));
                    let best = scores.iter().copied().max();
                    // `retain` visits the candidates once each, in order,
                    // so the k-th visit reads the k-th score.
                    let mut k = 0;
                    candidates.retain(|_| {
                        k += 1;
                        Some(scores[k - 1]) == best
                    });
                }
                candidates[0]
            }
            SelectStrategy::Priority(criteria) => self.best_priority(criteria, candidates),
        }
    }

    /// The first candidate of highest [`SelectCtx::priority_value`].
    fn best_priority(&self, criteria: &[Criterion], candidates: &[NodeId]) -> NodeId {
        assert!(!candidates.is_empty(), "no candidates to select from");
        let mut best = candidates[0];
        let mut best_p = i128::MIN;
        for &n in candidates {
            let p = self.priority_value(criteria, n);
            if p > best_p {
                best_p = p;
                best = n;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{build_dag, ConstructionAlgorithm, DynState, MemDepPolicy};
    use dagsched_isa::{MachineModel, Opcode, Reg};

    struct Fixture {
        insns: Vec<Instruction>,
        model: MachineModel,
        dag: Dag,
        heur: HeuristicSet,
    }

    fn fixture() -> Fixture {
        let insns = vec![
            Instruction::fp3(Opcode::FDivD, Reg::f(1), Reg::f(2), Reg::f(3)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(5), Reg::f(1)),
            Instruction::fp3(Opcode::FAddD, Reg::f(1), Reg::f(3), Reg::f(6)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
        ];
        let model = MachineModel::sparc2();
        let dag = build_dag(
            &insns,
            &model,
            ConstructionAlgorithm::TableBackward,
            MemDepPolicy::SymbolicExpr,
        );
        let heur = HeuristicSet::compute(&dag, &insns, &model, true);
        Fixture {
            insns,
            model,
            dag,
            heur,
        }
    }

    fn ctx<'a>(f: &'a Fixture, dyn_state: &'a DynState) -> SelectCtx<'a> {
        SelectCtx {
            dag: &f.dag,
            insns: &f.insns,
            model: &f.model,
            heur: &f.heur,
            dyn_state,
            time: 0,
            last_class: None,
        }
    }

    /// Every key, listed through an exhaustive match: a key added to
    /// [`HeurKey`] fails to compile here until it is listed (and
    /// [`HeurKey::passes`] until it names its passes).
    fn every_key() -> Vec<HeurKey> {
        use HeurKey::*;
        let keys = vec![
            ExecTime,
            InterlockWithChild,
            MaxPathToLeaf,
            MaxDelayToLeaf,
            MaxPathFromRoot,
            MaxDelayFromRoot,
            Est,
            Lst,
            Slack,
            NumChildren,
            SumDelaysToChildren,
            MaxDelayToChild,
            NumParents,
            SumDelaysFromParents,
            MaxDelayFromParent,
            NumDescendants,
            SumExecDescendants,
            RegsBorn,
            RegsKilled,
            Liveness,
            OriginalOrder,
            NoInterlockWithPrevious,
            EarliestExecTime,
            NoFpuInterlock,
            AlternateType,
            NumSingleParentChildren,
            SumDelaysSingleParentChildren,
            NumUncoveredChildren,
            BirthingAdjust,
        ];
        for &k in &keys {
            match k {
                ExecTime
                | InterlockWithChild
                | MaxPathToLeaf
                | MaxDelayToLeaf
                | MaxPathFromRoot
                | MaxDelayFromRoot
                | Est
                | Lst
                | Slack
                | NumChildren
                | SumDelaysToChildren
                | MaxDelayToChild
                | NumParents
                | SumDelaysFromParents
                | MaxDelayFromParent
                | NumDescendants
                | SumExecDescendants
                | RegsBorn
                | RegsKilled
                | Liveness
                | OriginalOrder
                | NoInterlockWithPrevious
                | EarliestExecTime
                | NoFpuInterlock
                | AlternateType
                | NumSingleParentChildren
                | SumDelaysSingleParentChildren
                | NumUncoveredChildren
                | BirthingAdjust => {}
            }
        }
        keys
    }

    /// A key's passes follow its Table 1 calculation method: `f` keys
    /// need the forward pass, `b` keys a backward pass (LST its EST as
    /// well), `f+b` both, and `v` keys nothing static.
    #[test]
    fn passes_follow_the_calculation_method() {
        use HeuristicPasses as P;
        let backward = [P::CRITICAL_PATH, P::SLACK, P::DESCENDANTS];
        for key in every_key() {
            let p = key.passes();
            match key.pass_code() {
                "f" => assert_eq!(p, P::FORWARD, "{key:?}"),
                "b" => assert!(backward.contains(&p), "{key:?}: {p:?}"),
                "f+b" => assert_eq!(p, P::SLACK, "{key:?}"),
                "v" => assert_eq!(p, P::NONE, "{key:?}"),
                _ => assert!(
                    [P::NONE, P::ARCS, P::REGISTERS].contains(&p),
                    "{key:?}: {p:?}"
                ),
            }
        }
        assert_eq!(every_key().len(), 29);
    }

    /// Filled with a key's passes, a set holds that key's value for every
    /// node: it reads as it does from the full set.
    #[test]
    fn each_key_reads_the_same_from_its_own_passes() {
        let f = fixture();
        let prepared = dagsched_core::PreparedBlock::new(&f.insns);
        let dyn_state = DynState::new(&f.dag);
        let full = ctx(&f, &dyn_state);
        for key in every_key() {
            let mut heur = HeuristicSet::default();
            heur.fill(key.passes(), &f.dag, &prepared, &f.model);
            let own = SelectCtx {
                heur: &heur,
                ..ctx(&f, &dyn_state)
            };
            for node in f.dag.node_ids() {
                assert_eq!(own.eval(key, node), full.eval(key, node), "{key:?} {node}");
            }
        }
    }

    #[test]
    fn winnowing_applies_ranks_in_order() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        // Max delay to leaf: node 0 has 20, others less — it wins rank 1.
        let strategy = SelectStrategy::Winnowing(vec![
            Criterion::max(HeurKey::MaxDelayToLeaf),
            Criterion::max(HeurKey::ExecTime),
        ]);
        let roots: Vec<NodeId> = f.dag.roots();
        assert_eq!(c.select(&strategy, &roots), NodeId::new(0));
    }

    #[test]
    fn winnowing_falls_through_to_next_rank_on_tie() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        // Both the integer add (node 3) and node 1 have small delay; use a
        // first criterion that ties them, second that separates.
        let strategy = SelectStrategy::Winnowing(vec![
            Criterion::min(HeurKey::NumParents), // all roots tie at 0
            Criterion::max(HeurKey::ExecTime),   // divide (20) wins
        ]);
        let roots: Vec<NodeId> = f.dag.roots();
        assert_eq!(c.select(&strategy, &roots), NodeId::new(0));
    }

    #[test]
    fn tie_break_is_original_order() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        let strategy = SelectStrategy::Winnowing(vec![Criterion::min(HeurKey::NumParents)]);
        // Roots are 0, 1, 3 — all tie; first in node order wins.
        assert_eq!(c.select(&strategy, &f.dag.roots()), NodeId::new(0));
    }

    #[test]
    fn priority_function_weights_combine() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        let strategy = SelectStrategy::Priority(vec![
            Criterion::max(HeurKey::MaxDelayToLeaf),
            Criterion::max(HeurKey::ExecTime),
        ]);
        assert_eq!(c.select(&strategy, &f.dag.roots()), NodeId::new(0));
    }

    #[test]
    fn priority_ranks_are_lexicographic() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        // A huge low-rank value must not beat a higher first-rank score.
        let strategy = SelectStrategy::Priority(vec![
            Criterion::min(HeurKey::ExecTime), // add (node 3) wins: 1 cycle
            Criterion::max(HeurKey::MaxDelayToLeaf), // divide would win here
        ]);
        assert_eq!(c.select(&strategy, &f.dag.roots()), NodeId::new(3));
    }

    #[test]
    fn sense_min_inverts_preference() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let c = ctx(&f, &dyn_state);
        // Prefer the *smallest* execution time: the integer add (node 3).
        let strategy = SelectStrategy::Winnowing(vec![Criterion::min(HeurKey::ExecTime)]);
        assert_eq!(c.select(&strategy, &f.dag.roots()), NodeId::new(3));
    }

    #[test]
    fn alternate_type_prefers_class_change() {
        let f = fixture();
        let dyn_state = DynState::new(&f.dag);
        let mut c = ctx(&f, &dyn_state);
        c.last_class = Some(InsnClass::FpDiv);
        assert_eq!(c.eval(HeurKey::AlternateType, NodeId::new(0)), 0); // same class
        assert_eq!(c.eval(HeurKey::AlternateType, NodeId::new(3)), 1); // int alu differs
    }

    #[test]
    fn dynamic_keys_reflect_state() {
        let f = fixture();
        let mut dyn_state = DynState::new(&f.dag);
        dyn_state.on_schedule(&f.dag, &f.insns, &f.model, NodeId::new(0), 0);
        let c = ctx(&f, &dyn_state);
        assert_eq!(c.eval(HeurKey::EarliestExecTime, NodeId::new(2)), 20);
        assert_eq!(c.eval(HeurKey::NoInterlockWithPrevious, NodeId::new(2)), 0);
        assert_eq!(c.eval(HeurKey::NoInterlockWithPrevious, NodeId::new(1)), 1);
        // The divider is busy: another divide would interlock.
        assert_eq!(c.eval(HeurKey::NoFpuInterlock, NodeId::new(0)), 0);
        assert_eq!(c.eval(HeurKey::NoFpuInterlock, NodeId::new(3)), 1);
    }
}
