//! The agent's task list: delete → migrate → restart (§4.2 and Appendix E).
//!
//! The Phoenix agent enforces a target cluster state by issuing actions to
//! the underlying cluster scheduler in a safe order: deletions free
//! capacity first, migrations relocate survivors, and restarts bring up
//! everything that should run but does not. Planners emit that list
//! themselves: [`diff_from_outcome`] classifies only the pods a pack
//! touched, by where each ran before the pack and where it ends, and every
//! [`ResiliencePolicy`](crate::policies::ResiliencePolicy) returns its own
//! list. [`diff_states`] derives it from a whole (live, target) pair of
//! [`ClusterState`]s, for a planner that rebuilds the target from scratch
//! and as the reference the others are tested against. No planner emits
//! an [`Action::ModeShift`]: the executor (`kubesim::run`) derives the
//! in-place shifts from a plan's actions and its pod ledger, and decides
//! the issue order.

use phoenix_cluster::packing::PackOutcome;
use phoenix_cluster::{ClusterState, NodeId, PodKey};

use crate::spec::ServingMode;

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
    /// handling — no restart, no relocation). The executor derives it for
    /// placement-stable pods only: a pod that also starts, stops, or moves
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
/// sweep: each pod the pack touched is classified by the node it ran on
/// before the pack ([`PackOutcome::origins`]) and the node it holds in
/// `target`, the state `outcome` was produced on.
///
/// A pod the pack did not touch ends where it began, so the output is
/// identical to `diff_states(live, target)` for the pre-pack `live` —
/// the warm-replan equivalence tests check this on every round — but
/// costs O(actions) and needs no copy of `live`.
pub fn diff_from_outcome(target: &ClusterState, outcome: &PackOutcome) -> ActionPlan {
    let mut deletes = Vec::new();
    let mut migrations = Vec::new();
    let mut starts = Vec::new();
    // `origins` is sorted, so each group comes out sorted by pod key —
    // the same order `diff_states` produces.
    for &(pod, origin) in &outcome.origins {
        match (origin, target.node_of(pod)) {
            (Some(node), None) => deletes.push(Action::Delete { pod, node }),
            (Some(from), Some(to)) if from != to => {
                migrations.push(Action::Migrate { pod, from, to })
            }
            (None, Some(node)) => starts.push(Action::Start { pod, node }),
            // Net no-op: moved away and back, or evicted and re-placed
            // on its own node.
            _ => {}
        }
    }
    let mut actions = deletes;
    actions.extend(migrations);
    actions.extend(starts);
    ActionPlan { actions }
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
            diff_from_outcome(&target, &outcome),
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
            let actions = diff_from_outcome(&target, &outcome);
            assert_eq!(actions, diff_states(&live, &target));
            let mut pods: Vec<PodKey> = actions.actions.iter().map(Action::pod).collect();
            pods.sort_unstable();
            let before = pods.len();
            pods.dedup();
            assert_eq!(pods.len(), before, "one pod got multiple actions");
        }
    }

    #[test]
    fn mode_shifts_count_apart_and_render_to_json() {
        let plan = ActionPlan {
            actions: vec![
                Action::Delete {
                    pod: pod(1),
                    node: NodeId::new(1),
                },
                Action::ModeShift {
                    pod: pod(0),
                    node: NodeId::new(0),
                    from: ServingMode::Full,
                    to: ServingMode::ReadOnly,
                },
            ],
        };
        assert_eq!(plan.counts(), (1, 0, 0));
        assert_eq!(plan.mode_shifts(), 1);
        assert!(plan
            .to_json()
            .ends_with(",{\"mode_shift\":{\"pod\":\"app0/ms0/r0\",\"node\":0,\"from\":\"full\",\"to\":\"read-only\"}}]"));
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

    #[test]
    fn start_then_repack_logs_more_moves_than_net_actions() {
        // On an empty 2 x 10-CPU cluster pods 1 and 2 start on node0 (4 + 3
        // CPUs) and pod 3 on node1 (6). Pod 0 (5) fits nowhere, so the
        // repack moves pod 2 to node1 and pod 0 takes node0. Pod 2 is in
        // the pack's `starts` and its `migrations`, but it never ran before
        // the pack: the agent starts it once, on node1.
        let mut target = ClusterState::homogeneous(2, Resources::cpu(10.0));
        let plan = vec![
            PlannedPod::new(pod(1), Resources::cpu(4.0)),
            PlannedPod::new(pod(2), Resources::cpu(3.0)),
            PlannedPod::new(pod(3), Resources::cpu(6.0)),
            PlannedPod::new(pod(0), Resources::cpu(5.0)),
        ];
        let outcome = pack(&mut target, &plan, &PackingConfig::default());
        assert!(outcome.unplaced.is_empty());
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(
            outcome.starts,
            vec![(pod(1), n0), (pod(2), n0), (pod(3), n1), (pod(0), n0)]
        );
        assert_eq!(outcome.migrations, vec![(pod(2), n0, n1)]);
        let log = (
            outcome.deletions.len(),
            outcome.migrations.len(),
            outcome.starts.len(),
        );
        assert_eq!(log, (0, 1, 4));
        let net = diff_from_outcome(&target, &outcome);
        assert_eq!(net.counts(), (0, 0, 4));
        assert!(net.actions.contains(&Action::Start {
            pod: pod(2),
            node: n1
        }));
    }
}
