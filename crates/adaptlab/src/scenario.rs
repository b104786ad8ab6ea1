//! Environment instantiation: a cluster filled to a target utilization
//! with instances of the trace applications, fully placed (the healthy
//! pre-disaster state every scheme starts from).

use phoenix_cluster::packing::{pack, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, PodKey, Resources};
use phoenix_core::spec::{AppSpecBuilder, ServiceId, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alibaba::{generate, AlibabaConfig, TraceApp};
use crate::resources::{assign as assign_resources, ResourceModel};
use crate::tagging::{assign as assign_tags, TaggingScheme};

/// Configuration of one AdaptLab environment.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Number of servers.
    pub nodes: usize,
    /// Scalar capacity per server.
    pub node_capacity: f64,
    /// Fill the cluster to this fraction of total capacity.
    pub target_utilization: f64,
    /// Resource model for microservice demands.
    pub resource_model: ResourceModel,
    /// Criticality tagging scheme.
    pub tagging: TaggingScheme,
    /// Trace generator settings.
    pub alibaba: AlibabaConfig,
    /// Master seed (trace, demands, tags, prices).
    pub seed: u64,
}

impl Default for EnvConfig {
    fn default() -> EnvConfig {
        EnvConfig {
            nodes: 1000,
            node_capacity: 64.0,
            target_utilization: 0.75,
            resource_model: ResourceModel::CallsPerMinute,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: AlibabaConfig::default(),
            seed: 1,
        }
    }
}

/// A ready-to-fail environment.
#[derive(Debug, Clone)]
pub struct AdaptLabEnv {
    /// All app instances (specs with tags, demands, prices).
    pub workload: Workload,
    /// The fully-placed healthy state.
    pub baseline: ClusterState,
    /// The 18 trace template apps.
    pub trace: Vec<TraceApp>,
    /// For each workload app, the index of its trace template (service ids
    /// align between spec and template graph).
    pub instance_of: Vec<usize>,
}

/// Builds an environment: generate traces, size + tag them, instantiate
/// app copies until the utilization target, and place everything.
///
/// # Panics
///
/// Panics if the fill pass failed to place some pod of an admitted
/// instance (cannot happen while `target_utilization` ≤ ~0.9 with the
/// default packing).
pub fn build_env(cfg: &EnvConfig) -> AdaptLabEnv {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let trace = generate(&mut rng, &cfg.alibaba);

    // Pre-compute per-template-app demands and tags (shared by instances;
    // instances of the same template differ in price only, like the
    // paper's identical DGs deployed for multiple tenants).
    let sized: Vec<(Vec<Resources>, Vec<phoenix_core::tags::Criticality>)> = trace
        .iter()
        .map(|app| {
            let demands = assign_resources(cfg.resource_model, app, &mut rng);
            let tags = assign_tags(cfg.tagging, app, &mut rng);
            (demands, tags)
        })
        .collect();
    let template_demand: Vec<f64> = sized
        .iter()
        .map(|(d, _)| d.iter().map(|r| r.scalar()).sum())
        .collect();

    let cluster_capacity = cfg.nodes as f64 * cfg.node_capacity;
    let budget = cluster_capacity * cfg.target_utilization.clamp(0.0, 1.0);
    let mut used = 0.0;
    let mut apps = Vec::new();
    let mut instance_of = Vec::new();
    let mut copies = vec![0usize; trace.len()];
    'fill: loop {
        let mut admitted_any = false;
        for (ti, app) in trace.iter().enumerate() {
            if template_demand[ti] <= 0.0 {
                continue;
            }
            if used + template_demand[ti] > budget {
                continue;
            }
            let (demands, tags) = &sized[ti];
            let copy = copies[ti];
            copies[ti] += 1;
            let mut b = AppSpecBuilder::new(format!("{}-{}", app.name, copy));
            for i in 0..app.graph.node_count() {
                b.add_service(format!("ms{i}"), demands[i], Some(tags[i]), 1);
            }
            for (f, t) in app.graph.edges() {
                b.add_dependency(
                    ServiceId::new(f.index() as u32),
                    ServiceId::new(t.index() as u32),
                );
            }
            b.price_per_unit(rng.gen_range(1.0..5.0));
            apps.push(b.build().expect("trace-derived spec is valid"));
            instance_of.push(ti);
            used += template_demand[ti];
            admitted_any = true;
        }
        if !admitted_any {
            break 'fill;
        }
    }
    let workload = Workload::new(apps);

    // Place everything: first-fit-decreasing via the packing module.
    let mut plan: Vec<PlannedPod> = workload
        .apps()
        .flat_map(|(id, app)| {
            app.service_ids().map(move |s| {
                PlannedPod::new(
                    PodKey::new(id.index() as u32, s.index() as u32, 0),
                    app.service(s).demand,
                )
            })
        })
        .collect();
    plan.sort_by(|a, b| b.demand.scalar().total_cmp(&a.demand.scalar()));
    let mut baseline = ClusterState::homogeneous(cfg.nodes, Resources::cpu(cfg.node_capacity));
    let outcome = pack(&mut baseline, &plan, &PackingConfig::default());
    assert!(
        outcome.unplaced.is_empty(),
        "baseline fill left {} pods unplaced at utilization {:.2}",
        outcome.unplaced.len(),
        cfg.target_utilization
    );

    AdaptLabEnv {
        workload,
        baseline,
        trace,
        instance_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EnvConfig {
        EnvConfig {
            nodes: 60,
            node_capacity: 64.0,
            target_utilization: 0.7,
            alibaba: AlibabaConfig {
                apps: 6,
                max_services: 120,
                max_requests: 50_000.0,
            },
            ..EnvConfig::default()
        }
    }

    #[test]
    fn fills_to_target_without_overshoot() {
        let env = build_env(&small_cfg());
        let util = env.baseline.utilization();
        assert!(util <= 0.7 + 1e-9, "utilization {util}");
        assert!(util >= 0.45, "cluster underfilled: {util}");
        env.baseline.check_invariants().unwrap();
        assert_eq!(env.workload.app_count(), env.instance_of.len());
        assert!(env.workload.app_count() >= 2);
    }

    #[test]
    fn all_pods_placed_in_baseline() {
        let env = build_env(&small_cfg());
        let total_pods: usize = env.workload.apps().map(|(_, a)| a.service_count()).sum();
        assert_eq!(env.baseline.pod_count(), total_pods);
    }

    #[test]
    fn instances_reference_their_templates() {
        let env = build_env(&small_cfg());
        for (i, (_, app)) in env.workload.apps().enumerate() {
            let template = &env.trace[env.instance_of[i]];
            assert_eq!(app.service_count(), template.graph.node_count());
            assert_eq!(
                app.dependency().unwrap().edges().count(),
                template.graph.edges().count()
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = build_env(&small_cfg());
        let b = build_env(&small_cfg());
        assert_eq!(a.workload.app_count(), b.workload.app_count());
        let pods = |e: &AdaptLabEnv| {
            let mut v: Vec<_> = e.baseline.assignments().map(|(p, n, _)| (p, n)).collect();
            v.sort();
            v
        };
        assert_eq!(pods(&a), pods(&b));
    }

    #[test]
    fn prices_vary_across_instances() {
        let env = build_env(&small_cfg());
        let prices: Vec<f64> = env
            .workload
            .apps()
            .map(|(_, a)| a.price_per_unit())
            .collect();
        assert!(prices.iter().any(|&p| (p - prices[0]).abs() > 1e-9));
        assert!(prices.iter().all(|&p| (1.0..5.0).contains(&p)));
    }
}
