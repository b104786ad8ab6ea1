//! Infrastructure-level chaos: random node failures through the simulated
//! control plane ("this service can conduct tests at different degrees of
//! failure and report the results to developers", §5).
//!
//! Where [`crate::audit_tags`] turns services off directly (tag-order
//! injection), this module kills *nodes* and lets the configured
//! resilience policy react — measuring what a developer actually cares
//! about pre-production: does the critical metric survive each failure
//! degree, how far does end-user harvest drop, and how long until the
//! critical service is back.

use phoenix_apps::AppModel;
use phoenix_cluster::Resources;
use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::{ServiceId, Workload};
use phoenix_kubesim::run::{simulate, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Node-chaos run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChaosConfig {
    /// Cluster shape.
    pub nodes: usize,
    /// Per-node capacity.
    pub node_capacity: Resources,
    /// Node-failure degrees to test (fraction of nodes killed).
    pub failure_fracs: Vec<f64>,
    /// When the failure strikes.
    pub fail_at: SimTime,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// RNG seed for victim selection.
    pub seed: u64,
}

impl Default for NodeChaosConfig {
    fn default() -> NodeChaosConfig {
        NodeChaosConfig {
            nodes: 8,
            node_capacity: Resources::cpu(8.0),
            failure_fracs: vec![0.25, 0.5, 0.75],
            fail_at: SimTime::from_secs(120),
            horizon: SimTime::from_secs(900),
            seed: 1,
        }
    }
}

/// Outcome of one failure degree.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChaosOutcome {
    /// Fraction of nodes killed.
    pub failure_frac: f64,
    /// Lowest harvest (Σ served·utility / Σ offered) observed after the
    /// post-failure recovery settled.
    pub settled_utility: f64,
    /// Was the critical request's throughput restored by the policy?
    pub critical_recovered: bool,
    /// Time from failure to critical-service restoration.
    pub critical_restore_after: Option<SimTime>,
}

/// Runs the degree sweep for `model` under `policy`. Each failure degree
/// runs its own seeded simulation, fanned out on the
/// [exec pool](phoenix_exec::global); outcomes are collected in degree
/// order, so the sweep is byte-identical for every thread count.
pub fn node_chaos(
    model: &AppModel,
    policy: &dyn ResiliencePolicy,
    config: &NodeChaosConfig,
) -> Vec<NodeChaosOutcome> {
    let workload = Workload::new(vec![model.spec.clone()]);
    phoenix_exec::global().par_map(&config.failure_fracs, |&frac| {
        let mut scenario = Scenario::new(config.nodes, config.node_capacity);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut victims: Vec<u32> = (0..config.nodes as u32).collect();
        victims.shuffle(&mut rng);
        victims.truncate(((config.nodes as f64) * frac).round() as usize);
        scenario.kubelet_stop_at(config.fail_at, victims);
        let trace = simulate(
            &workload,
            policy,
            &scenario,
            &SimConfig::default(),
            config.horizon,
        );

        let up_at = |t: SimTime, s: ServiceId| trace.service_up(&workload, 0, s.index() as u32, t);
        // Critical restoration: first sample strictly after the failure
        // where the critical goal holds again. The goal is evaluated once
        // per run of equal serving sets.
        let critical_restore = trace
            .serving_runs(config.fail_at + SimTime::from_millis(1))
            .map(|run| run[0].at)
            .find(|&at| model.critical_goal_met(|s| up_at(at, s)));
        // Settled harvest: utility at the final sample.
        let settled_utility = trace
            .samples
            .last()
            .map(|smp| crate::utility_score(model, |s| up_at(smp.at, s)))
            .unwrap_or(0.0);
        NodeChaosOutcome {
            failure_frac: frac,
            settled_utility,
            critical_recovered: critical_restore.is_some(),
            critical_restore_after: critical_restore.map(|t| t.saturating_sub(config.fail_at)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_apps::overleaf::{overleaf, OverleafVariant};
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_exec::with_threads;

    fn cfg() -> NodeChaosConfig {
        NodeChaosConfig {
            nodes: 6,
            node_capacity: Resources::cpu(8.0),
            failure_fracs: vec![0.0, 0.5],
            horizon: SimTime::from_secs(900),
            ..NodeChaosConfig::default()
        }
    }

    #[test]
    fn zero_degree_keeps_full_harvest() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = node_chaos(&m, &PhoenixPolicy::fair(), &cfg());
        assert_eq!(out[0].failure_frac, 0.0);
        assert!((out[0].settled_utility - 1.0).abs() < 1e-9);
        assert!(out[0].critical_recovered);
    }

    #[test]
    fn phoenix_restores_critical_after_node_loss() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = node_chaos(&m, &PhoenixPolicy::fair(), &cfg());
        let degraded = &out[1];
        assert!(degraded.critical_recovered, "{degraded:?}");
        // Recovery well within the paper's 4-minute bound.
        assert!(degraded.critical_restore_after.unwrap() <= SimTime::from_secs(240));
        // Harvest drops (non-critical services shed) but stays positive.
        assert!(degraded.settled_utility > 0.2);
        assert!(degraded.settled_utility < 1.0 + 1e-9);
    }

    #[test]
    fn phoenix_at_least_as_good_as_default() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let phx = node_chaos(&m, &PhoenixPolicy::fair(), &cfg());
        let dfl = node_chaos(&m, &DefaultPolicy, &cfg());
        assert!(phx[1].settled_utility >= dfl[1].settled_utility - 1e-9);
        assert!(phx[1].critical_recovered || !dfl[1].critical_recovered);
    }

    #[test]
    fn node_chaos_is_thread_count_invariant() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let run =
            |threads| with_threads(threads, || node_chaos(&m, &PhoenixPolicy::fair(), &cfg()));
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn outcomes_align_with_degrees() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = node_chaos(
            &m,
            &PhoenixPolicy::fair(),
            &NodeChaosConfig {
                failure_fracs: vec![0.0, 0.25, 0.5, 0.75],
                ..cfg()
            },
        );
        assert_eq!(out.len(), 4);
        // Harvest is non-increasing in failure degree (same seed/victims).
        for w in out.windows(2) {
            assert!(
                w[1].settled_utility <= w[0].settled_utility + 1e-9,
                "{} -> {}",
                w[0].settled_utility,
                w[1].settled_utility
            );
        }
    }
}
