//! The `Priority` baseline: criticality tags without operator quotas.
//!
//! Applications expose tags and each app's activation order respects them,
//! but the operator enforces no inter-app coordination at all: apps are
//! served one at a time (in object order), each activating its full
//! prioritized chain before the next app gets anything. A handful of
//! early/large applications soak up the capacity and the rest starve —
//! the failure mode Fig. 7a shows ("a few applications with many
//! high-criticality microservices using most of the resources").

use phoenix_cluster::packing::{PackingConfig, PlannedPod};
use phoenix_cluster::ClusterState;

use crate::planner::{app_rank, Traversal};
use crate::policies::{pack_actions, PolicyPlan, ResiliencePolicy};
use crate::spec::Workload;

/// Per-app criticality chains, apps served sequentially, no quotas.
#[derive(Debug, Clone, Default)]
pub struct PriorityPolicy {
    packing: PackingConfig,
}

impl PriorityPolicy {
    /// Overrides packing knobs.
    pub fn packing_config(mut self, packing: PackingConfig) -> PriorityPolicy {
        self.packing = packing;
        self
    }
}

impl ResiliencePolicy for PriorityPolicy {
    fn name(&self) -> &'static str {
        "Priority"
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan {
        let t0 = std::time::Instant::now();
        // Apps in object order; each activates its whole criticality chain
        // until the aggregate capacity is spoken for.
        let mut remaining = state.healthy_capacity().scalar();
        let mut plan: Vec<PlannedPod> = Vec::new();
        'apps: for (ai, app) in workload.apps() {
            for service in app_rank(app, Traversal::CriticalityGuidedDfs) {
                let svc = app.service(service);
                let demand = svc.total_demand().scalar();
                if demand > remaining + 1e-9 {
                    // This app's chain stops; capacity is effectively gone
                    // for everyone behind it too (no quota, no skipping).
                    break 'apps;
                }
                remaining -= demand;
                for key in workload.pod_keys(ai, service) {
                    plan.push(PlannedPod::new(key, svc.demand));
                }
            }
        }
        PolicyPlan {
            actions: pack_actions(state, &plan, &self.packing),
            planning_time: t0.elapsed(),
            modes: crate::spec::ModeAssignment::empty(),
            notes: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;
    use phoenix_cluster::Resources;

    #[test]
    fn tag_heavy_app_monopolizes_capacity() {
        // App0: five C1 services; app1: one C1 + one C2.
        let mut b0 = AppSpecBuilder::new("greedy");
        for i in 0..5 {
            b0.add_service(
                format!("s{i}"),
                Resources::cpu(1.0),
                Some(Criticality::C1),
                1,
            );
        }
        let mut b1 = AppSpecBuilder::new("modest");
        b1.add_service("fe", Resources::cpu(1.0), Some(Criticality::C1), 1);
        b1.add_service("aux", Resources::cpu(1.0), Some(Criticality::C2), 1);
        let w = Workload::new(vec![b0.build().unwrap(), b1.build().unwrap()]);

        // 6 CPUs: the greedy app's whole chain (5 C1s) goes first, then the
        // modest app's C1 — its C2 no longer fits.
        let mut state = ClusterState::homogeneous(6, Resources::cpu(1.0));
        PriorityPolicy::default().plan(&w, &mut state);
        let greedy_pods = state.assignments().filter(|(p, _, _)| p.app == 0).count();
        assert_eq!(greedy_pods, 5);
        // With only 5 CPUs the greedy app takes everything: no quota.
        let mut state5 = ClusterState::homogeneous(5, Resources::cpu(1.0));
        PriorityPolicy::default().plan(&w, &mut state5);
        let modest_pods = state5.assignments().filter(|(p, _, _)| p.app == 1).count();
        assert_eq!(modest_pods, 0, "no per-app quota protects the modest app");
    }
}
