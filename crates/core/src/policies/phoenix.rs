//! Phoenix as a [`ResiliencePolicy`]: the controller pipeline with a chosen
//! operator objective (`PhoenixFair` / `PhoenixCost` in the evaluation).

use phoenix_cluster::packing::PackingConfig;
use phoenix_cluster::ClusterState;

use crate::controller::{plan_with, PhoenixConfig};
use crate::objectives::ObjectiveKind;
use crate::planner::PlannerConfig;
use crate::policies::{PolicyPlan, ResiliencePolicy};
use crate::spec::Workload;

/// The Phoenix controller wrapped as a policy.
#[derive(Debug, Clone)]
pub struct PhoenixPolicy {
    objective: ObjectiveKind,
    planner: PlannerConfig,
    packing: PackingConfig,
}

impl PhoenixPolicy {
    /// `PhoenixCost`: revenue-maximizing global ranking.
    pub fn cost() -> PhoenixPolicy {
        PhoenixPolicy::with_objective(ObjectiveKind::Cost)
    }

    /// `PhoenixFair`: max-min-fairness global ranking.
    pub fn fair() -> PhoenixPolicy {
        PhoenixPolicy::with_objective(ObjectiveKind::Fairness)
    }

    /// Custom objective with default knobs.
    pub fn with_objective(objective: ObjectiveKind) -> PhoenixPolicy {
        let defaults = PhoenixConfig::with_objective(objective);
        PhoenixPolicy {
            objective,
            planner: defaults.planner,
            packing: defaults.packing,
        }
    }

    /// Overrides the planner knobs (for ablations).
    pub fn planner_config(mut self, planner: PlannerConfig) -> PhoenixPolicy {
        self.planner = planner;
        self
    }

    /// Overrides the packing knobs (for ablations).
    pub fn packing_config(mut self, packing: PackingConfig) -> PhoenixPolicy {
        self.packing = packing;
        self
    }
}

impl ResiliencePolicy for PhoenixPolicy {
    fn name(&self) -> &'static str {
        match self.objective {
            ObjectiveKind::Cost => "PhoenixCost",
            ObjectiveKind::Fairness => "PhoenixFair",
        }
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan {
        let config = PhoenixConfig {
            objective: self.objective.build(),
            planner: self.planner,
            packing: self.packing.clone(),
        };
        let result = plan_with(workload, state, &config);
        let planning_time = result.total_time();
        *state = result.target;
        PolicyPlan {
            actions: result.actions,
            planning_time,
            modes: result.modes,
            notes: format!(
                "planner={:?} scheduler={:?} unplaced={}",
                result.planner_time,
                result.scheduler_time,
                result.packing.unplaced.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::tests::small_workload;
    use phoenix_cluster::Resources;

    #[test]
    fn names_follow_objective() {
        assert_eq!(PhoenixPolicy::cost().name(), "PhoenixCost");
        assert_eq!(PhoenixPolicy::fair().name(), "PhoenixFair");
    }

    #[test]
    fn critical_services_first_under_crunch() {
        let w = small_workload();
        // 4 CPUs healthy of 8 demanded: only the two C1 frontends fit.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
        PhoenixPolicy::fair().plan(&w, &mut state);
        assert_eq!(state.pod_count(), 2);
        for (pod, _, _) in state.assignments() {
            assert_eq!(pod.service, 0, "only C1 frontends should be active");
        }
    }
}
