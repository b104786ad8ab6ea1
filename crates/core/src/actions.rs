//! The agent's task list: delete → migrate → restart (§4.2 and Appendix E).
//!
//! The Phoenix agent enforces a target cluster state by issuing actions to
//! the underlying cluster scheduler in a safe order: deletions free
//! capacity first, migrations relocate survivors, and restarts bring up
//! everything that should run but does not. Planners emit that list
//! themselves: [`diff_from_outcome`] classifies only the pods a pack
//! touched, and every
//! [`ResiliencePolicy`](crate::policies::ResiliencePolicy) returns its own
//! list. [`diff_states`] derives it from a whole (live, target) pair of
//! [`ClusterState`]s, for a planner that rebuilds the target from scratch
//! and as the reference the others are tested against.

use phoenix_cluster::packing::PackOutcome;
use phoenix_cluster::{ClusterState, NodeId, PodKey};

use crate::spec::{ModeAssignment, ServingMode};

/// One task for the cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Gracefully shut a pod down (drain traffic, SIGTERM, then SIGKILL).
    Delete {
        /// Pod to remove.
        pod: PodKey,
        /// Node it currently runs on.
        node: NodeId,
    },
    /// Move a running pod: start on `to`, reroute, delete on `from`.
    Migrate {
        /// Pod to move.
        pod: PodKey,
        /// Current node.
        from: NodeId,
        /// Target node.
        to: NodeId,
    },
    /// Start (or restart) a pod on a node.
    Start {
        /// Pod to start.
        pod: PodKey,
        /// Target node.
        node: NodeId,
    },
    /// Switch a *running* pod's serving mode in place (reconfigure traffic
    /// handling — no restart, no relocation). Only ever emitted for
    /// placement-stable pods: a pod that also starts, stops, or moves
    /// carries its new mode implicitly in that action instead.
    ModeShift {
        /// Pod to reconfigure.
        pod: PodKey,
        /// Node it runs on (unchanged).
        node: NodeId,
        /// Mode it currently serves in.
        from: ServingMode,
        /// Mode it should serve in.
        to: ServingMode,
    },
}

impl Action {
    /// The pod this action touches.
    pub fn pod(&self) -> PodKey {
        match *self {
            Action::Delete { pod, .. }
            | Action::Migrate { pod, .. }
            | Action::Start { pod, .. }
            | Action::ModeShift { pod, .. } => pod,
        }
    }
}

/// An ordered action plan (deletions, then migrations, then starts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActionPlan {
    /// Ordered task list.
    pub actions: Vec<Action>,
}

impl ActionPlan {
    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` when the live state already matches the target.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Counts `(deletes, migrations, starts)`. Mode shifts are counted
    /// separately by [`mode_shifts`](ActionPlan::mode_shifts) — they touch
    /// no placement, so the historical triple stays meaningful.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for a in &self.actions {
            match a {
                Action::Delete { .. } => c.0 += 1,
                Action::Migrate { .. } => c.1 += 1,
                Action::Start { .. } => c.2 += 1,
                Action::ModeShift { .. } => {}
            }
        }
        c
    }

    /// Number of in-place serving-mode shifts in the plan.
    pub fn mode_shifts(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::ModeShift { .. }))
            .count()
    }

    /// Splices `shifts` into the plan between the migrations and the
    /// starts, preserving the safe execution order: frees (deletes) and
    /// relocations land first, in-place reconfigurations next, and only
    /// then do new pods come up. `shifts` must already be sorted by pod
    /// key (as [`mode_shift_actions`] returns them).
    pub fn insert_mode_shifts(&mut self, shifts: Vec<Action>) {
        if shifts.is_empty() {
            return;
        }
        let at = self
            .actions
            .iter()
            .position(|a| matches!(a, Action::Start { .. }))
            .unwrap_or(self.actions.len());
        self.actions.splice(at..at, shifts);
    }

    /// Renders the plan as one line of canonical JSON.
    ///
    /// The encoding is stable by construction (field order fixed, pods via
    /// their `Display` form, nodes as indices) — the backward-compat
    /// fixtures pin these exact bytes across planner refactors.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match *a {
                Action::Delete { pod, node } => {
                    out.push_str(&format!(
                        "{{\"delete\":{{\"pod\":\"{pod}\",\"node\":{}}}}}",
                        node.index()
                    ));
                }
                Action::Migrate { pod, from, to } => {
                    out.push_str(&format!(
                        "{{\"migrate\":{{\"pod\":\"{pod}\",\"from\":{},\"to\":{}}}}}",
                        from.index(),
                        to.index()
                    ));
                }
                Action::Start { pod, node } => {
                    out.push_str(&format!(
                        "{{\"start\":{{\"pod\":\"{pod}\",\"node\":{}}}}}",
                        node.index()
                    ));
                }
                Action::ModeShift {
                    pod,
                    node,
                    from,
                    to,
                } => {
                    out.push_str(&format!(
                        "{{\"mode_shift\":{{\"pod\":\"{pod}\",\"node\":{},\"from\":\"{}\",\"to\":\"{}\"}}}}",
                        node.index(),
                        from.label(),
                        to.label()
                    ));
                }
            }
        }
        out.push(']');
        out
    }
}

/// Computes the action plan that turns `live` into `target`.
///
/// * pods in `live` but not `target` → [`Action::Delete`];
/// * pods on different nodes in the two states → [`Action::Migrate`];
/// * pods only in `target` → [`Action::Start`].
///
/// Within each group, actions are ordered by pod key for determinism.
pub fn diff_states(live: &ClusterState, target: &ClusterState) -> ActionPlan {
    let mut deletes = Vec::new();
    let mut migrations = Vec::new();
    let mut starts = Vec::new();
    for (pod, node, _) in live.assignments() {
        match target.node_of(pod) {
            None => deletes.push(Action::Delete { pod, node }),
            Some(t) if t != node => migrations.push(Action::Migrate {
                pod,
                from: node,
                to: t,
            }),
            Some(_) => {}
        }
    }
    for (pod, node, _) in target.assignments() {
        if live.node_of(pod).is_none() {
            starts.push(Action::Start { pod, node });
        }
    }
    deletes.sort_by_key(Action::pod);
    migrations.sort_by_key(Action::pod);
    starts.sort_by_key(Action::pod);
    let mut actions = deletes;
    actions.extend(migrations);
    actions.extend(starts);
    ActionPlan { actions }
}

/// [`diff_states`] computed from a packing outcome instead of a full-state
/// sweep: only pods the pack actually touched are classified.
///
/// `target` must be the state `outcome` was produced on (live + the
/// outcome's mutations); every pod the pack mutated appears in the
/// outcome's deletion/migration/start lists, so the net action of any
/// other pod is provably "none". Output is identical to
/// `diff_states(live, target)` — the warm-replan equivalence tests check
/// this on every round — but costs O(actions) instead of O(pods).
pub fn diff_from_outcome(
    live: &ClusterState,
    target: &ClusterState,
    outcome: &PackOutcome,
) -> ActionPlan {
    let mut touched: Vec<PodKey> = outcome
        .deletions
        .iter()
        .copied()
        .chain(outcome.migrations.iter().map(|&(p, _, _)| p))
        .chain(outcome.starts.iter().map(|&(p, _)| p))
        .collect();
    touched.sort_unstable();
    touched.dedup();

    let mut deletes = Vec::new();
    let mut migrations = Vec::new();
    let mut starts = Vec::new();
    // `touched` is sorted, so each group comes out sorted by pod key —
    // the same order `diff_states` produces.
    for pod in touched {
        match (live.node_of(pod), target.node_of(pod)) {
            (Some(node), None) => deletes.push(Action::Delete { pod, node }),
            (Some(from), Some(to)) if from != to => {
                migrations.push(Action::Migrate { pod, from, to })
            }
            (None, Some(node)) => starts.push(Action::Start { pod, node }),
            // Net no-op: started-then-victimized, or moved away and back.
            _ => {}
        }
    }
    let mut actions = deletes;
    actions.extend(migrations);
    actions.extend(starts);
    ActionPlan { actions }
}

/// Serving-mode reconfigurations for **placement-stable** pods: every pod
/// that is running in `live`, stays on the same node in `target`, and whose
/// live mode (per `live_mode_of` — the executor's per-pod ledger) differs
/// from the plan's chosen mode, gets one [`Action::ModeShift`].
///
/// Pods that start, stop, or migrate are skipped on purpose — their new
/// mode travels with that action (the executor books new pods at
/// `target_modes` directly), so no pod ever receives two actions. Output
/// is sorted by pod key, ready for
/// [`ActionPlan::insert_mode_shifts`].
pub fn mode_shift_actions(
    live: &ClusterState,
    target: &ClusterState,
    live_mode_of: impl Fn(PodKey) -> ServingMode,
    target_modes: &ModeAssignment,
) -> Vec<Action> {
    let mut shifts = Vec::new();
    for (pod, node, _) in live.assignments() {
        if target.node_of(pod) != Some(node) {
            continue; // deleted or migrated: mode travels with that action
        }
        let from = live_mode_of(pod);
        let to = target_modes.mode_of_pod(pod);
        if from != to {
            shifts.push(Action::ModeShift {
                pod,
                node,
                from,
                to,
            });
        }
    }
    shifts.sort_by_key(Action::pod);
    shifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_cluster::packing::{pack, PackingConfig, PlannedPod};
    use phoenix_cluster::Resources;

    fn pod(s: u32) -> PodKey {
        PodKey::new(0, s, 0)
    }

    #[test]
    fn outcome_diff_matches_state_diff() {
        // A pack with all action kinds: a kept pod, a deleted pod (absent
        // from the plan), a victim, re-placements, and fresh starts.
        let mut live = ClusterState::homogeneous(2, Resources::cpu(10.0));
        live.assign(pod(1), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(2), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(9), Resources::cpu(3.0), NodeId::new(1))
            .unwrap(); // not planned → deleted
        let plan = vec![
            PlannedPod::new(pod(0), Resources::cpu(6.0)), // forces victims
            PlannedPod::new(pod(1), Resources::cpu(5.0)),
            PlannedPod::new(pod(2), Resources::cpu(5.0)),
            PlannedPod::new(pod(3), Resources::cpu(1.0)),
        ];
        let mut target = live.clone();
        let outcome = pack(&mut target, &plan, &PackingConfig::default());
        assert_eq!(
            diff_from_outcome(&live, &target, &outcome),
            diff_states(&live, &target)
        );
    }

    #[test]
    fn diff_identifies_all_action_kinds() {
        let mut live = ClusterState::homogeneous(3, Resources::cpu(10.0));
        live.assign(pod(0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(1), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(2), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();

        let mut target = ClusterState::homogeneous(3, Resources::cpu(10.0));
        target
            .assign(pod(0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap(); // kept
        target
            .assign(pod(2), Resources::cpu(1.0), NodeId::new(2))
            .unwrap(); // migrated
        target
            .assign(pod(3), Resources::cpu(1.0), NodeId::new(1))
            .unwrap(); // started
                       // pod(1) deleted.

        let plan = diff_states(&live, &target);
        assert_eq!(plan.counts(), (1, 1, 1));
        assert_eq!(
            plan.actions,
            vec![
                Action::Delete {
                    pod: pod(1),
                    node: NodeId::new(0)
                },
                Action::Migrate {
                    pod: pod(2),
                    from: NodeId::new(1),
                    to: NodeId::new(2)
                },
                Action::Start {
                    pod: pod(3),
                    node: NodeId::new(1)
                },
            ]
        );
    }

    #[test]
    fn no_pod_is_ever_deleted_and_started_in_one_plan() {
        // The shape that used to report a victim in both `deletions` and
        // `starts` (delete-lower-ranks frees node1 for rank 0, then the
        // victim is re-placed at its own rank on node0). The outcome must
        // collapse the pair into a migration, and the derived action plan
        // must touch each pod at most once — a delete + start pair would
        // spuriously restart a running pod.
        let mut live = ClusterState::homogeneous(2, Resources::cpu(10.0));
        live.assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = vec![
            PlannedPod::new(pod(0), Resources::cpu(8.0)),
            PlannedPod::new(pod(1), Resources::cpu(3.0)),
            PlannedPod::new(pod(2), Resources::cpu(3.0)),
            PlannedPod::new(pod(3), Resources::cpu(4.0)),
        ];
        for enable_migration in [false, true] {
            let cfg = PackingConfig {
                enable_migration,
                ..PackingConfig::default()
            };
            let mut target = live.clone();
            let outcome = pack(&mut target, &plan, &cfg);
            for &(p, _) in &outcome.starts {
                assert!(
                    !outcome.deletions.contains(&p),
                    "{p} reported deleted and started"
                );
            }
            let actions = diff_from_outcome(&live, &target, &outcome);
            assert_eq!(actions, diff_states(&live, &target));
            let mut pods: Vec<PodKey> = actions.actions.iter().map(Action::pod).collect();
            pods.sort_unstable();
            let before = pods.len();
            pods.dedup();
            assert_eq!(pods.len(), before, "one pod got multiple actions");
        }
    }

    #[test]
    fn mode_shifts_only_for_placement_stable_pods() {
        use crate::spec::{AppSpecBuilder, Workload};
        use crate::tags::Criticality;

        let mut b = AppSpecBuilder::new("a");
        for s in 0..4 {
            b.add_service(
                format!("s{s}"),
                Resources::cpu(1.0),
                Some(Criticality::C1),
                1,
            );
        }
        let w = Workload::new(vec![b.build().unwrap()]);

        let mut live = ClusterState::homogeneous(2, Resources::cpu(10.0));
        live.assign(pod(0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap(); // kept → eligible
        live.assign(pod(1), Resources::cpu(1.0), NodeId::new(0))
            .unwrap(); // migrates
        live.assign(pod(2), Resources::cpu(1.0), NodeId::new(1))
            .unwrap(); // deleted
        let mut target = ClusterState::homogeneous(2, Resources::cpu(10.0));
        target
            .assign(pod(0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        target
            .assign(pod(1), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        target
            .assign(pod(3), Resources::cpu(1.0), NodeId::new(0))
            .unwrap(); // starts

        let mut modes = ModeAssignment::for_workload(&w);
        for s in 0..4 {
            modes.set(
                crate::spec::AppId::new(0),
                crate::spec::ServiceId::new(s),
                ServingMode::ReadOnly,
            );
        }
        let shifts = mode_shift_actions(&live, &target, |_| ServingMode::Full, &modes);
        assert_eq!(
            shifts,
            vec![Action::ModeShift {
                pod: pod(0),
                node: NodeId::new(0),
                from: ServingMode::Full,
                to: ServingMode::ReadOnly,
            }]
        );

        // Splices between migrations and starts, and renders to JSON.
        let mut plan = diff_states(&live, &target);
        plan.insert_mode_shifts(shifts);
        assert_eq!(plan.counts(), (1, 1, 1));
        assert_eq!(plan.mode_shifts(), 1);
        let kinds: Vec<u8> = plan
            .actions
            .iter()
            .map(|a| match a {
                Action::Delete { .. } => 0,
                Action::Migrate { .. } => 1,
                Action::ModeShift { .. } => 2,
                Action::Start { .. } => 3,
            })
            .collect();
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        assert_eq!(kinds, sorted);
        assert!(plan
            .to_json()
            .contains("{\"mode_shift\":{\"pod\":\"app0/ms0/r0\",\"node\":0,\"from\":\"full\",\"to\":\"read-only\"}}"));
    }

    #[test]
    fn identical_states_need_no_actions() {
        let mut live = ClusterState::homogeneous(1, Resources::cpu(10.0));
        live.assign(pod(0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let plan = diff_states(&live, &live.clone());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn ordering_is_delete_migrate_start() {
        let mut live = ClusterState::homogeneous(2, Resources::cpu(10.0));
        live.assign(pod(5), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        live.assign(pod(6), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let mut target = ClusterState::homogeneous(2, Resources::cpu(10.0));
        target
            .assign(pod(6), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        target
            .assign(pod(7), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let plan = diff_states(&live, &target);
        let kinds: Vec<u8> = plan
            .actions
            .iter()
            .map(|a| match a {
                Action::Delete { .. } => 0,
                Action::Migrate { .. } => 1,
                Action::ModeShift { .. } => 2,
                Action::Start { .. } => 3,
            })
            .collect();
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        assert_eq!(kinds, sorted);
    }
}
