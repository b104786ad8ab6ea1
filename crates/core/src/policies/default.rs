//! The `Default` baseline (vanilla Kubernetes) and the `NoAdapt` marker.
//!
//! Kubernetes recreates evicted pods and schedules them wherever they fit
//! (least-allocated spreading) with no notion of criticality, quotas, or
//! proactive deletion. Whatever does not fit stays `Pending` until nodes
//! come back — hence Fig. 6b's flatline until full recovery.

use phoenix_cluster::default_sched::schedule_pending;
use phoenix_cluster::packing::PlannedPod;
use phoenix_cluster::ClusterState;

use crate::actions::{Action, ActionPlan};
use crate::policies::{PolicyPlan, ResiliencePolicy};
use crate::spec::Workload;

/// Vanilla Kubernetes rescheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultPolicy;

impl ResiliencePolicy for DefaultPolicy {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan {
        let t0 = std::time::Instant::now();
        // Every workload pod that is not running is Pending and gets
        // re-scheduled in object order.
        let pending: Vec<PlannedPod> = workload
            .apps()
            .flat_map(|(id, app)| {
                app.service_ids().flat_map(move |s| {
                    let svc = app.service(s);
                    workload
                        .pod_keys(id, s)
                        .into_iter()
                        .map(move |key| PlannedPod::new(key, svc.demand))
                })
            })
            .filter(|p| state.node_of(p.key).is_none())
            .collect();
        // `placed` comes out in pod-key order: the starts group as is.
        let placed = schedule_pending(state, &pending).placed.into_iter();
        let actions = placed
            .map(|(pod, node)| Action::Start { pod, node })
            .collect();
        PolicyPlan {
            actions: ActionPlan { actions },
            planning_time: t0.elapsed(),
            modes: crate::spec::ModeAssignment::empty(),
            notes: String::new(),
        }
    }
}

/// No diagonal scaling at all: applications cannot adapt, so the target is
/// the live state (the purple × in Fig. 5 — zero availability once any
/// critical pod is lost).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdaptPolicy;

impl ResiliencePolicy for NoAdaptPolicy {
    fn name(&self) -> &'static str {
        "NoAdapt"
    }

    fn plan(&self, _workload: &Workload, _state: &mut ClusterState) -> PolicyPlan {
        PolicyPlan::unchanged(std::time::Duration::ZERO, String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;
    use phoenix_cluster::{NodeId, Resources};

    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("a");
        b.add_service("junk", Resources::cpu(3.0), Some(Criticality::C5), 1);
        b.add_service("vital", Resources::cpu(3.0), Some(Criticality::C1), 1);
        Workload::new(vec![b.build().unwrap()])
    }

    #[test]
    fn default_schedules_pending_without_criticality() {
        let w = workload();
        // Room for exactly one pod: object order (service 0 = junk) wins,
        // even though service 1 is the critical one.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(4.0));
        let plan = DefaultPolicy.plan(&w, &mut state);
        assert_eq!(state.pod_count(), 1);
        let (pod, _, _) = state.assignments().next().unwrap();
        assert_eq!(pod.service, 0);
        assert_eq!(plan.actions.counts(), (0, 0, 1));
    }

    #[test]
    fn default_never_touches_running_pods() {
        let w = workload();
        let mut state = ClusterState::homogeneous(2, Resources::cpu(4.0));
        state
            .assign(
                phoenix_cluster::PodKey::new(0, 0, 0),
                Resources::cpu(3.0),
                NodeId::new(0),
            )
            .unwrap();
        DefaultPolicy.plan(&w, &mut state);
        assert_eq!(
            state.node_of(phoenix_cluster::PodKey::new(0, 0, 0)),
            Some(NodeId::new(0))
        );
        // The second pod lands on the emptier node (spreading).
        assert_eq!(
            state.node_of(phoenix_cluster::PodKey::new(0, 1, 0)),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn noadapt_changes_nothing() {
        let w = workload();
        let mut state = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let plan = NoAdaptPolicy.plan(&w, &mut state);
        assert_eq!(state.pod_count(), 0);
        assert!(plan.actions.is_empty());
        assert_eq!(plan.planning_time, std::time::Duration::ZERO);
    }
}
