//! The `Fair` baseline: fairness-based redistribution **without**
//! criticality tags.
//!
//! Each application receives its water-filling fair share, but within an
//! application, services are activated in dependency/index order — the
//! operator has no idea which containers matter, so an app's share is
//! routinely burned on non-critical services (the availability gap in
//! Fig. 7a).

use phoenix_cluster::packing::PlannedPod;
use phoenix_cluster::ClusterState;
use phoenix_dgraph::topo::topo_sort;
use phoenix_dgraph::traversal::Bfs;

use crate::objectives::FairnessObjective;
use crate::planner::PlannerConfig;
use crate::policies::{pack_actions, PolicyPlan, ResiliencePolicy};
use crate::ranking::global_rank;
use crate::spec::{AppSpec, ServiceId, ServingMode, Workload};

/// Fair-share quotas, criticality-blind intra-app ordering.
#[derive(Debug, Clone, Default)]
pub struct FairPolicy;

/// Activation order that ignores tags: topological order when a DG exists
/// (a servable prefix is still required for the app to do *anything*),
/// index order otherwise.
pub(crate) fn uncritical_rank(app: &AppSpec) -> Vec<ServiceId> {
    match app.dependency() {
        None => app.service_ids().collect(),
        Some(g) => {
            let order = match topo_sort(g) {
                Ok(o) => o,
                // Cyclic DGs: BFS from sources, then any stragglers.
                Err(_) => {
                    let mut seen: Vec<_> = Bfs::new(g, g.sources()).collect();
                    let mut in_seen = vec![false; g.node_count()];
                    for n in &seen {
                        in_seen[n.index()] = true;
                    }
                    seen.extend(g.node_ids().filter(|n| !in_seen[n.index()]));
                    seen
                }
            };
            order
                .into_iter()
                .map(|n| ServiceId::new(n.index() as u32))
                .collect()
        }
    }
}

impl ResiliencePolicy for FairPolicy {
    fn name(&self) -> &'static str {
        "Fair"
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan {
        let t0 = std::time::Instant::now();
        let app_ranks: Vec<_> = workload.apps().map(|(_, a)| uncritical_rank(a)).collect();
        let rank = global_rank(
            workload,
            &app_ranks,
            &FairnessObjective,
            state.healthy_capacity(),
            &PlannerConfig {
                continue_on_saturation: true,
                ..PlannerConfig::default()
            },
        );
        // Everything Fair places serves at `Full`: a service with a mode
        // ladder has one item per rung and runs once its `Full` rung is
        // admitted, at that item's position.
        let plan: Vec<PlannedPod> = rank
            .items
            .iter()
            .filter(|item| item.mode == ServingMode::Full)
            .flat_map(|item| {
                let svc = workload.app(item.app).service(item.service);
                workload
                    .pod_keys(item.app, item.service)
                    .into_iter()
                    .map(move |key| PlannedPod::new(key, svc.demand))
            })
            .collect();
        PolicyPlan {
            actions: pack_actions(state, &plan),
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
    fn ignores_tags_within_an_app() {
        // The *last* service is the critical one; Fair doesn't know that.
        let mut b = AppSpecBuilder::new("a");
        b.add_service("junk0", Resources::cpu(1.0), Some(Criticality::C5), 1);
        b.add_service("junk1", Resources::cpu(1.0), Some(Criticality::C5), 1);
        b.add_service("vital", Resources::cpu(1.0), Some(Criticality::C1), 1);
        let w = Workload::new(vec![b.build().unwrap()]);
        let mut state = ClusterState::homogeneous(2, Resources::cpu(1.0));
        FairPolicy.plan(&w, &mut state);
        // Index order burns the share on the junk services.
        let active: Vec<u32> = state.assignments().map(|(p, _, _)| p.service).collect();
        assert!(active.contains(&0));
        assert!(!active.contains(&2), "criticality-blind: vital not chosen");
    }

    #[test]
    fn quotas_split_capacity_between_apps() {
        let mk = |name: &str| {
            let mut b = AppSpecBuilder::new(name);
            for i in 0..4 {
                b.add_service(format!("s{i}"), Resources::cpu(1.0), None, 1);
            }
            b.build().unwrap()
        };
        let w = Workload::new(vec![mk("x"), mk("y")]);
        let mut state = ClusterState::homogeneous(4, Resources::cpu(1.0));
        FairPolicy.plan(&w, &mut state);
        let per_app = |a: u32| state.assignments().filter(|(p, _, _)| p.app == a).count();
        assert_eq!(per_app(0), 2);
        assert_eq!(per_app(1), 2);
    }

    #[test]
    fn uncritical_rank_respects_topology() {
        let mut b = AppSpecBuilder::new("g");
        let a = b.add_service("a", Resources::cpu(1.0), Some(Criticality::C5), 1);
        let c = b.add_service("c", Resources::cpu(1.0), Some(Criticality::C1), 1);
        b.add_dependency(a, c);
        let app = b.build().unwrap();
        let order = uncritical_rank(&app);
        assert_eq!(order, vec![a, c], "caller before callee regardless of tags");
    }
}
