//! The six published instruction scheduling algorithms of Table 2.
//!
//! Each algorithm is an instance of the [`ListScheduler`] framework paired
//! with a DAG construction method and heuristic stack, transcribed from
//! the paper's Table 2:
//!
//! | algorithm | DAG | sched pass | ranked heuristics |
//! |---|---|---|---|
//! | Gibbons & Muchnick | `n**2` backward | forward | no-interlock-w/prev, interlock w/child, #children, max path to leaf |
//! | Krishnamurthy | table forward | forward + postpass | earliest time, fpu interlocks, max path to leaf, execution time, max delay to leaf (priority fn) |
//! | Schlansker | (not given) | backward | slack, latest start time (priority fn) |
//! | Shieh & Papachristou | (not given) | forward | max delay to leaf, execution time, #children, #parents (inverse), max path to root |
//! | Tiemann (GCC) | table forward | backward | max delay to root, birthing instruction, original order (priority fn) |
//! | Warren | `n**2` forward | forward | earliest time, alternate type, max delay to leaf, register liveness, #uncovered, original order |

use dagsched_core::{
    ConstructionAlgorithm, Dag, HeuristicPasses, HeuristicSet, MemDepPolicy, PreparedBlock,
    SchedStorage,
};
use dagsched_isa::{Instruction, MachineModel};

use crate::fixup::fixup_delay_slots;
use crate::framework::{Gating, ListScheduler, SchedDirection};
use crate::schedule::Schedule;
use crate::selector::{Criterion, HeurKey, SelectStrategy};

/// The six published algorithms analyzed in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Gibbons & Muchnick, *SIGPLAN '86* \[3\].
    GibbonsMuchnick,
    /// Krishnamurthy, Clemson M.S. paper 1990 \[8\].
    Krishnamurthy,
    /// Schlansker, *ASPLOS-IV tutorial* 1991 \[12\].
    Schlansker,
    /// Shieh & Papachristou, *MICRO-22* 1989 \[13\].
    ShiehPapachristou,
    /// Tiemann's GNU instruction scheduler (GCC) \[15\].
    Tiemann,
    /// Warren, *IBM J. R&D* 1990 (RS/6000) \[16\].
    Warren,
}

impl SchedulerKind {
    /// All six, in Table 2 column order.
    pub const ALL: &'static [SchedulerKind] = &[
        SchedulerKind::GibbonsMuchnick,
        SchedulerKind::Krishnamurthy,
        SchedulerKind::Schlansker,
        SchedulerKind::ShiehPapachristou,
        SchedulerKind::Tiemann,
        SchedulerKind::Warren,
    ];

    /// Name as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::GibbonsMuchnick => "Gibbons & Muchnick",
            SchedulerKind::Krishnamurthy => "Krishnamurthy",
            SchedulerKind::Schlansker => "Schlansker",
            SchedulerKind::ShiehPapachristou => "Shieh & Papachristou",
            SchedulerKind::Tiemann => "Tiemann (GCC)",
            SchedulerKind::Warren => "Warren",
        }
    }

    /// Whether the paper gives the algorithm's DAG construction method
    /// (Table 2 prints "n.g." for Schlansker and Shieh & Papachristou).
    pub fn construction_given(self) -> bool {
        !matches!(
            self,
            SchedulerKind::Schlansker | SchedulerKind::ShiehPapachristou
        )
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete scheduling algorithm: DAG construction method, heuristic
/// stack, scheduling driver and optional postpass.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Which published algorithm this instance reproduces.
    pub kind: SchedulerKind,
    /// DAG construction algorithm used by [`Scheduler::schedule_block`].
    pub construction: ConstructionAlgorithm,
    /// Memory disambiguation policy.
    pub policy: MemDepPolicy,
    /// The list-scheduling configuration.
    pub list: ListScheduler,
    /// Whether the delay-slot postpass fixup runs (Krishnamurthy).
    pub postpass_fixup: bool,
}

impl Scheduler {
    /// Instantiate a published algorithm with its Table 2 configuration
    /// and the paper's default memory policy (unique symbolic
    /// expressions). Algorithms whose construction method the paper does
    /// not give ("n.g.") default to forward table building.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        use HeurKey as K;
        let (construction, list, postpass_fixup) = match kind {
            SchedulerKind::GibbonsMuchnick => (
                ConstructionAlgorithm::N2Backward,
                ListScheduler {
                    direction: SchedDirection::Forward,
                    gating: Gating::AllReady,
                    strategy: SelectStrategy::Winnowing(vec![
                        Criterion::max(K::NoInterlockWithPrevious),
                        Criterion::max(K::InterlockWithChild),
                        Criterion::max(K::NumChildren),
                        Criterion::max(K::MaxPathToLeaf),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 0,
                },
                false,
            ),
            SchedulerKind::Krishnamurthy => (
                ConstructionAlgorithm::TableForward,
                ListScheduler {
                    direction: SchedDirection::Forward,
                    gating: Gating::ByEarliestExec {
                        include_fpu_busy: true,
                    },
                    strategy: SelectStrategy::Priority(vec![
                        Criterion::min(K::EarliestExecTime),
                        Criterion::max(K::NoFpuInterlock),
                        Criterion::max(K::MaxPathToLeaf),
                        Criterion::max(K::ExecTime),
                        Criterion::max(K::MaxDelayToLeaf),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 0,
                },
                true,
            ),
            SchedulerKind::Schlansker => (
                ConstructionAlgorithm::TableForward,
                ListScheduler {
                    direction: SchedDirection::Backward,
                    gating: Gating::AllReady,
                    strategy: SelectStrategy::Priority(vec![
                        Criterion::min(K::Slack),
                        Criterion::max(K::Lst),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 0,
                },
                false,
            ),
            SchedulerKind::ShiehPapachristou => (
                ConstructionAlgorithm::TableForward,
                ListScheduler {
                    direction: SchedDirection::Forward,
                    gating: Gating::AllReady,
                    strategy: SelectStrategy::Winnowing(vec![
                        Criterion::max(K::MaxDelayToLeaf),
                        Criterion::max(K::ExecTime),
                        Criterion::max(K::NumChildren),
                        Criterion::min(K::NumParents),
                        Criterion::max(K::MaxPathFromRoot),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 0,
                },
                false,
            ),
            SchedulerKind::Tiemann => (
                ConstructionAlgorithm::TableForward,
                ListScheduler {
                    direction: SchedDirection::Backward,
                    gating: Gating::AllReady,
                    strategy: SelectStrategy::Priority(vec![
                        Criterion::max(K::MaxDelayFromRoot),
                        Criterion::max(K::BirthingAdjust),
                        Criterion::max(K::OriginalOrder),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 1,
                },
                false,
            ),
            SchedulerKind::Warren => (
                ConstructionAlgorithm::N2Forward,
                ListScheduler {
                    direction: SchedDirection::Forward,
                    gating: Gating::ByEarliestExec {
                        include_fpu_busy: false,
                    },
                    strategy: SelectStrategy::Winnowing(vec![
                        Criterion::min(K::EarliestExecTime),
                        Criterion::max(K::AlternateType),
                        Criterion::max(K::MaxDelayToLeaf),
                        Criterion::min(K::Liveness),
                        Criterion::max(K::NumUncoveredChildren),
                        Criterion::min(K::OriginalOrder),
                    ]),
                    pin_terminator: true,
                    birthing_boost: 0,
                },
                false,
            ),
        };
        Scheduler {
            kind,
            construction,
            policy: MemDepPolicy::SymbolicExpr,
            list,
            postpass_fixup,
        }
    }

    /// The degraded-mode scheduler at the bottom rung of the serving
    /// stack's cost ladder: forward list scheduling over the *cheap*
    /// table-building construction, ranked by the critical-path pair
    /// alone (max delay to a leaf, original order as the tie-break).
    ///
    /// Its criteria read only `max_delay_to_leaf` and `original_order`
    /// (the gating reads dynamic state, not static heuristics), so its
    /// [`Scheduler::heuristic_passes`] are the backward critical-path
    /// pair alone: a deadline-starved worker skips every other
    /// annotation pass and still emits a valid, competitive schedule.
    /// `kind` is reported as [`SchedulerKind::Warren`]
    /// — the closest published ancestor (Warren's scheduler minus the
    /// register-pressure and type-alternation refinements) — since the
    /// fallback is a configuration of the framework, not a seventh
    /// published algorithm.
    pub fn critical_path_fallback(policy: MemDepPolicy) -> Scheduler {
        Scheduler {
            kind: SchedulerKind::Warren,
            construction: ConstructionAlgorithm::TableForward,
            policy,
            list: ListScheduler {
                direction: SchedDirection::Forward,
                gating: Gating::ByEarliestExec {
                    include_fpu_busy: false,
                },
                strategy: SelectStrategy::Winnowing(vec![
                    Criterion::max(HeurKey::MaxDelayToLeaf),
                    Criterion::min(HeurKey::OriginalOrder),
                ]),
                pin_terminator: true,
                birthing_boost: 0,
            },
            postpass_fixup: false,
        }
    }

    /// Instantiate with a different construction algorithm — the pairing
    /// experiments of the paper's §6 swap construction methods while
    /// keeping the scheduling pass fixed.
    pub fn with_construction(mut self, algo: ConstructionAlgorithm) -> Scheduler {
        self.construction = algo;
        self
    }

    /// Instantiate with a different memory disambiguation policy.
    pub fn with_policy(mut self, policy: MemDepPolicy) -> Scheduler {
        self.policy = policy;
        self
    }

    /// The static heuristic passes this scheduler's ranked criteria read
    /// ([`SelectStrategy::passes`]): the heuristic calculation its
    /// scheduling pass pays for. A set filled with these
    /// ([`HeuristicSet::fill`]) schedules exactly as the full set does.
    pub fn heuristic_passes(&self) -> HeuristicPasses {
        self.list.strategy.passes()
    }

    /// Run the complete three-step pipeline on one basic block: DAG
    /// construction, heuristic calculation (the passes of
    /// [`Scheduler::heuristic_passes`]), scheduling (plus the postpass
    /// fixup where the algorithm uses one).
    pub fn schedule_block(&self, insns: &[Instruction], model: &MachineModel) -> Schedule {
        let prepared = PreparedBlock::new(insns);
        let dag = self.construction.run(&prepared, model, self.policy);
        let mut heur = HeuristicSet::default();
        heur.fill(self.heuristic_passes(), &dag, &prepared, model);
        self.schedule_dag(&dag, insns, model, &heur)
    }

    /// Run only the scheduling pass over a prebuilt DAG and heuristics.
    pub fn schedule_dag(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
    ) -> Schedule {
        self.schedule_dag_in(dag, insns, model, heur, &mut SchedStorage::default())
    }

    /// [`Scheduler::schedule_dag`] over `storage` kept from an earlier
    /// block (see [`ListScheduler::run_in`]); hand the schedule's vectors
    /// back with [`Schedule::recycle`].
    pub fn schedule_dag_in(
        &self,
        dag: &Dag,
        insns: &[Instruction],
        model: &MachineModel,
        heur: &HeuristicSet,
        storage: &mut SchedStorage,
    ) -> Schedule {
        let schedule = self.list.run_in(dag, insns, model, heur, storage);
        if self.postpass_fixup {
            let (fixed, _moved) = fixup_delay_slots(&schedule, dag, insns, model);
            schedule.recycle(storage);
            fixed
        } else {
            schedule
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::{MemExprPool, MemRef, Opcode, Reg};

    /// A block with a load delay, an FP chain and independent integer
    /// work: enough structure to differentiate the schedulers.
    fn mixed_block() -> Vec<Instruction> {
        let mut pool = MemExprPool::new();
        let e1 = pool.intern("[%fp-8]");
        let e2 = pool.intern("[%fp-16]");
        vec![
            Instruction::load(
                Opcode::LdDf,
                MemRef::base_offset(Reg::fp(), -8, e1),
                Reg::f(0),
            ),
            Instruction::fp3(Opcode::FDivD, Reg::f(0), Reg::f(2), Reg::f(4)),
            Instruction::fp3(Opcode::FAddD, Reg::f(4), Reg::f(6), Reg::f(8)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::o(1), Reg::o(2)),
            Instruction::int_imm(Opcode::Add, Reg::o(2), 4, Reg::o(3)),
            Instruction::store(
                Opcode::StDf,
                Reg::f(8),
                MemRef::base_offset(Reg::fp(), -16, e2),
            ),
            Instruction::cmp(Reg::o(3), Reg::o(0)),
            Instruction::branch(Opcode::Bicc),
        ]
    }

    #[test]
    fn every_algorithm_produces_a_valid_schedule() -> Result<(), String> {
        let insns = mixed_block();
        let model = MachineModel::sparc2();
        for &kind in SchedulerKind::ALL {
            let sched = Scheduler::new(kind);
            let prepared = PreparedBlock::new(&insns);
            let dag = sched.construction.run(&prepared, &model, sched.policy);
            let s = sched.schedule_block(&insns, &model);
            // A verification failure is propagated as a test error, not a
            // panic, matching the workspace's no-panic policy.
            s.verify(&dag).map_err(|e| format!("{kind}: {e}"))?;
            assert_eq!(s.len(), insns.len(), "{kind}");
            // The block-terminating branch stays last.
            assert_eq!(s.order.last().unwrap().index(), insns.len() - 1, "{kind}");
        }
        Ok(())
    }

    #[test]
    fn schedulers_do_not_worsen_program_order() {
        let insns = mixed_block();
        let model = MachineModel::sparc2();
        for &kind in SchedulerKind::ALL {
            let sched = Scheduler::new(kind);
            let prepared = PreparedBlock::new(&insns);
            let dag = sched.construction.run(&prepared, &model, sched.policy);
            let s = sched.schedule_block(&insns, &model);
            let orig = Schedule::from_order(
                (0..insns.len()).map(dagsched_core::NodeId::new).collect(),
                &dag,
                &insns,
                &model,
            );
            // Forward list schedulers with stall-aware heuristics should
            // not lose to program order on this block. Backward priority
            // schedulers lack timing feedback and may come out slightly
            // worse; for those only bound the damage.
            if sched.list.direction == SchedDirection::Forward {
                assert!(
                    s.makespan(&insns, &model) <= orig.makespan(&insns, &model),
                    "{kind}: {} > {}",
                    s.makespan(&insns, &model),
                    orig.makespan(&insns, &model)
                );
            } else {
                assert!(
                    s.makespan(&insns, &model) <= orig.makespan(&insns, &model) + 4,
                    "{kind}: backward schedule degraded too far"
                );
            }
        }
    }

    #[test]
    fn construction_swap_keeps_schedules_valid() -> Result<(), String> {
        // §6 pairs each construction algorithm with a simple forward pass;
        // here: Warren's scheduler over all construction methods.
        let insns = mixed_block();
        let model = MachineModel::sparc2();
        for &algo in ConstructionAlgorithm::ALL {
            let sched = Scheduler::new(SchedulerKind::Warren).with_construction(algo);
            let prepared = PreparedBlock::new(&insns);
            let dag = sched.construction.run(&prepared, &model, sched.policy);
            let s = sched.schedule_block(&insns, &model);
            s.verify(&dag).map_err(|e| format!("{algo}: {e}"))?;
        }
        Ok(())
    }

    #[test]
    fn critical_path_fallback_schedules_validly_with_cheap_heuristics() {
        let insns = mixed_block();
        let model = MachineModel::sparc2();
        let sched = Scheduler::critical_path_fallback(MemDepPolicy::SymbolicExpr);
        let prepared = PreparedBlock::new(&insns);
        let dag = sched.construction.run(&prepared, &model, sched.policy);
        // The degraded heuristic stack: no construction / forward
        // annotation passes, only the backward critical-path walk.
        assert_eq!(sched.heuristic_passes(), HeuristicPasses::CRITICAL_PATH);
        let mut heur = HeuristicSet::default();
        heur.fill(sched.heuristic_passes(), &dag, &prepared, &model);
        let s = sched.schedule_dag(&dag, &insns, &model, &heur);
        s.verify(&dag).unwrap();
        assert_eq!(s.len(), insns.len());
        assert_eq!(s.order.last().unwrap().index(), insns.len() - 1);
        // Forward + stall-aware gating: must not lose to program order.
        let orig = Schedule::from_order(
            (0..insns.len()).map(dagsched_core::NodeId::new).collect(),
            &dag,
            &insns,
            &model,
        );
        assert!(s.makespan(&insns, &model) <= orig.makespan(&insns, &model));
    }

    #[test]
    fn each_scheduler_pays_for_the_passes_its_criteria_read() {
        use HeuristicPasses as P;
        let passes = |k| Scheduler::new(k).heuristic_passes();
        assert_eq!(
            passes(SchedulerKind::Warren),
            P::REGISTERS | P::CRITICAL_PATH
        );
        assert_eq!(passes(SchedulerKind::Tiemann), P::FORWARD);
        assert_eq!(passes(SchedulerKind::Schlansker), P::SLACK);
        assert_eq!(
            passes(SchedulerKind::GibbonsMuchnick),
            P::ARCS | P::CRITICAL_PATH
        );
        assert_eq!(passes(SchedulerKind::Krishnamurthy), P::CRITICAL_PATH);
        assert_eq!(
            passes(SchedulerKind::ShiehPapachristou),
            P::ARCS | P::FORWARD | P::CRITICAL_PATH
        );
        for &kind in SchedulerKind::ALL {
            assert_ne!(passes(kind), P::ALL, "{kind}");
        }
    }

    #[test]
    fn krishnamurthy_runs_its_postpass() {
        let sched = Scheduler::new(SchedulerKind::Krishnamurthy);
        assert!(sched.postpass_fixup);
        assert!(sched.list.strategy.is_priority_fn());
        assert_eq!(sched.construction, ConstructionAlgorithm::TableForward);
    }

    #[test]
    fn table2_directions() {
        use SchedDirection::*;
        let dir = |k| Scheduler::new(k).list.direction;
        assert_eq!(dir(SchedulerKind::GibbonsMuchnick), Forward);
        assert_eq!(dir(SchedulerKind::Krishnamurthy), Forward);
        assert_eq!(dir(SchedulerKind::Schlansker), Backward);
        assert_eq!(dir(SchedulerKind::ShiehPapachristou), Forward);
        assert_eq!(dir(SchedulerKind::Tiemann), Backward);
        assert_eq!(dir(SchedulerKind::Warren), Forward);
    }

    #[test]
    fn warren_fills_the_load_delay_slot() {
        let insns = mixed_block();
        let model = MachineModel::sparc2();
        let s = Scheduler::new(SchedulerKind::Warren).schedule_block(&insns, &model);
        // The 3-cycle lddf should not be followed immediately by the
        // dependent divide; some independent work goes in between.
        let pos = s.position_of();
        assert!(pos[1] > pos[0] + 1 || s.stall_cycles() == 0);
    }
}
