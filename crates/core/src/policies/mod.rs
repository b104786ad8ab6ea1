//! Resilience policies: Phoenix and every baseline from the evaluation
//! (§6, *Baselines*), behind one trait.
//!
//! | Policy | Criticality-aware | Operator objective | Mechanism |
//! |--------|------------------|--------------------|-----------|
//! | [`PhoenixPolicy`] (Fair/Cost) | ✓ | ✓ | planner + ranking + packing |
//! | [`LpPolicy`] (LPFair/LPCost)  | ✓ | ✓ | exact ILP (Appendix C) |
//! | [`PriorityPolicy`]            | ✓ | ✗ (no quotas) | raw criticality merge |
//! | [`FairPolicy`]                | ✗ | fairness | quota without tags |
//! | [`DefaultPolicy`]             | ✗ | ✗ | vanilla K8s rescheduling |
//! | [`NoAdaptPolicy`]             | ✗ | ✗ | nothing (the × marker in Fig. 5) |

mod default;
mod fair;
mod lp_policy;
mod phoenix;
mod priority;

use std::fmt;
use std::time::Duration;

use phoenix_cluster::packing::{pack, PackingConfig, PlannedPod};
use phoenix_cluster::ClusterState;

use crate::actions::{diff_from_outcome, ActionPlan};
use crate::controller::{plan, PhoenixConfig, PlanResult};
use crate::spec::{ModeAssignment, Workload};
use crate::stateful::StatefulMarks;

pub use default::{DefaultPolicy, NoAdaptPolicy};
pub use fair::FairPolicy;
pub use lp_policy::{LpObjective, LpPlacement, LpPolicy};
pub use phoenix::PhoenixPolicy;
pub use priority::PriorityPolicy;

/// A policy's answer to a failure event: the agent's task list.
#[derive(Debug, Clone)]
pub struct PolicyPlan {
    /// Agent task list from the state the policy was handed to the one it
    /// left: [`diff_states`](crate::actions::diff_states)`(before, after)`.
    pub actions: ActionPlan,
    /// Wall-clock time spent planning (the Fig. 8b metric).
    pub planning_time: Duration,
    /// Chosen serving mode per service. Mode-aware policies (Phoenix)
    /// fill this from the planner; baselines leave it
    /// [`empty`](ModeAssignment::empty) — everything they place serves
    /// at `Full`, the pre-modes behavior.
    pub modes: ModeAssignment,
    /// Free-form diagnostics (e.g. the LP solver status).
    pub notes: String,
}

impl PolicyPlan {
    /// A plan that changes nothing.
    fn unchanged(planning_time: Duration, notes: String) -> PolicyPlan {
        PolicyPlan {
            actions: ActionPlan::default(),
            planning_time,
            modes: ModeAssignment::empty(),
            notes,
        }
    }
}

/// A resilience management scheme that reacts to cluster state changes by
/// booking a new target state.
pub trait ResiliencePolicy: fmt::Debug + Send + Sync {
    /// Display name used in reports ("PhoenixCost", "Default", …).
    fn name(&self) -> &'static str;

    /// Plans `workload` onto `state`: on return `state` is the target,
    /// and [`PolicyPlan::actions`] is the task list that takes the old
    /// state there (deletes → migrations → starts, each group by pod
    /// key). The policy books pods in its own order, and that order is
    /// observable: a gray failure
    /// ([`ClusterState::set_degrade`]) evicts a node's last-booked pod.
    ///
    /// Every policy books onto `state` itself, journal included: a caller
    /// that needs the pre-plan state snapshots it first and restores it
    /// afterwards, or clones it.
    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan;
}

/// Packs `plan` onto `state` with the default [`PackingConfig`] and
/// returns the actions the pack took.
fn pack_actions(state: &mut ClusterState, plan: &[PlannedPod]) -> ActionPlan {
    let outcome = pack(state, plan, &PackingConfig::default());
    diff_from_outcome(state, &outcome)
}

/// The Phoenix policies' shared body: runs [`plan`] on the handed
/// `state`, books the target back onto it and returns the actions, with
/// `notes` read off the result.
pub(crate) fn plan_onto(
    workload: &Workload,
    state: &mut ClusterState,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
    notes: impl FnOnce(&PlanResult) -> String,
) -> PolicyPlan {
    let result = plan(workload, std::mem::take(state), config, pins);
    let (notes, planning_time) = (notes(&result), result.total_time());
    *state = result.target;
    PolicyPlan {
        actions: result.actions,
        planning_time,
        modes: result.modes,
        notes,
    }
}

/// Instantiates the full evaluation roster: PhoenixCost, PhoenixFair,
/// Priority, Fair, Default (the five large-scale schemes of Fig. 7).
pub fn standard_roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![
        Box::new(PhoenixPolicy::cost()),
        Box::new(PhoenixPolicy::fair()),
        Box::new(PriorityPolicy),
        Box::new(FairPolicy),
        Box::new(DefaultPolicy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::diff_states;
    use crate::controller::PhoenixConfig;
    use crate::spec::{AppId, AppSpecBuilder, ModeSpec, ServiceId, ServingMode::*};
    use crate::stateful::{StatefulAwarePolicy, StatefulMarks};
    use crate::tags::Criticality;
    use phoenix_cluster::{NodeId, Resources};
    use proptest::collection::vec;
    use proptest::prelude::*;

    pub(crate) fn small_workload() -> Workload {
        let mut apps = Vec::new();
        for (name, price) in [("alpha", 2.0), ("beta", 1.0)] {
            let mut b = AppSpecBuilder::new(name);
            let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
            let aux = b.add_service("aux", Resources::cpu(2.0), Some(Criticality::C3), 1);
            b.add_dependency(fe, aux);
            b.price_per_unit(price);
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    #[test]
    fn roster_has_five_schemes_with_unique_names() {
        let roster = standard_roster();
        let names: Vec<&str> = roster.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 5);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    /// One service per tuple: `(criticality, replicas, cpu, ladder)`,
    /// where ladder 0 is none, 1 a Full/Shed pair and 2 four rungs.
    type Service = (u8, u16, u32, u8);

    fn random_workload(apps: &[Vec<Service>], modal: bool) -> Workload {
        let apps = apps.iter().enumerate().map(|(a, services)| {
            let mut b = AppSpecBuilder::new(format!("app{a}"));
            for (s, &(crit, replicas, cpu, ladder)) in services.iter().enumerate() {
                let full = f64::from(cpu);
                let id = b.add_service(
                    format!("s{s}"),
                    Resources::cpu(full),
                    Some(Criticality::new(crit)),
                    replicas,
                );
                let rung = |mode, share, utility| {
                    ModeSpec::new(mode, Resources::cpu(full * share), utility)
                };
                match ladder {
                    _ if !modal => {}
                    1 => {
                        let rungs = vec![rung(Full, 1.0, 1.0), rung(Shed, 0.25, 0.1)];
                        b.service_modes(id, rungs);
                    }
                    2 => {
                        let rungs = vec![
                            rung(Full, 1.0, 1.0),
                            rung(StaleCache, 0.75, 0.8),
                            rung(ReadOnly, 0.5, 0.55),
                            rung(Shed, 0.25, 0.1),
                        ];
                        b.service_modes(id, rungs);
                    }
                    _ => {}
                }
            }
            b.price_per_unit(1.0 + a as f64);
            b.build().unwrap()
        });
        Workload::new(apps.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every policy on a random live state (running pods, failed and
        /// degraded nodes, modal or mode-less workloads) returns exactly
        /// the actions that take the state it was handed to the state it
        /// leaves, and leaves a consistent state. NoAdapt and a skipped
        /// LP touch nothing. Every policy books onto the handed state
        /// itself: a snapshot taken before the plan restores it bit for
        /// bit.
        #[test]
        fn every_policy_returns_the_actions_it_booked(
            apps in vec(vec((1u8..5, 1u16..3, 1u32..4, 0u8..3), 1..4), 1..3),
            modal in any::<bool>(),
            (nodes, cap) in (2usize..5, 2u32..6),
            running in any::<u64>(),
            (failed, degraded, factor) in (0usize..3, 0usize..5, 0.3f64..0.9),
        ) {
            let w = random_workload(&apps, modal);
            let mut live = ClusterState::homogeneous(nodes, Resources::cpu(f64::from(cap)));
            let mut pods = 0;
            for (a, spec) in w.apps() {
                for s in spec.service_ids() {
                    for pod in w.pod_keys(a, s) {
                        if running >> (pods % 64) & 1 == 1 {
                            let node = NodeId::new((pods % nodes) as u32);
                            let _ = live.assign(pod, spec.service(s).demand, node);
                        }
                        pods += 1;
                    }
                }
            }
            for n in 0..failed.min(nodes - 1) {
                live.fail_node(NodeId::new(n as u32));
            }
            if degraded < nodes {
                live.set_degrade(NodeId::new(degraded as u32), factor);
            }

            let mut marks = StatefulMarks::new();
            marks.mark(AppId::new(0), ServiceId::new(0));
            let tiny = pods <= 6 && nodes <= 3;
            let lp = |p: LpPolicy| p.with_time_limit(Duration::from_millis(200));
            let mut skipped = lp(LpPolicy::fair());
            skipped.max_vars = 0;
            let mut roster: Vec<(Box<dyn ResiliencePolicy>, bool)> = vec![
                (Box::new(PhoenixPolicy::fair()), false),
                (Box::new(PhoenixPolicy::cost()), false),
                (Box::new(PriorityPolicy), false),
                (Box::new(FairPolicy), false),
                (Box::new(DefaultPolicy), false),
                (Box::new(NoAdaptPolicy), true),
                (Box::new(StatefulAwarePolicy::new(marks, PhoenixConfig::default())), false),
                (Box::new(skipped), true),
            ];
            if tiny {
                roster.push((Box::new(lp(LpPolicy::cost())), false));
                let full = lp(LpPolicy::fair()).with_placement(LpPlacement::FullPlacement);
                roster.push((Box::new(full), false));
            }
            for (policy, untouched) in roster {
                let mut state = live.clone();
                let before = state.snapshot();
                let plan = policy.plan(&w, &mut state);
                let name = policy.name();
                prop_assert_eq!(plan.actions, diff_states(&live, &state), "{}", name);
                state.check_invariants().unwrap();
                prop_assert!(!untouched || state.bitwise_eq(&live), "{} touched the state", name);
                state.restore_to(&before);
                prop_assert!(state.bitwise_eq(&live), "{} lost the journal", name);
            }
        }
    }
}
