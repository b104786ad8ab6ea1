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

/// Cluster size.
const NODES: usize = 8;
/// Per-node CPU capacity.
const NODE_CPU: f64 = 8.0;
/// Node-failure degrees tested (fraction of nodes killed).
const FAILURE_FRACS: [f64; 3] = [0.25, 0.5, 0.75];
/// When the failure strikes.
const FAIL_AT: SimTime = SimTime::from_secs(120);
/// Simulation horizon.
const HORIZON: SimTime = SimTime::from_secs(900);
/// RNG seed for victim selection.
const SEED: u64 = 1;

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

/// Runs the degree sweep for `model` under `policy`: 25, 50 and 75 % of
/// an 8-node cluster (8 CPUs each) fail at 120 s, simulated to 900 s.
/// Each failure degree runs its own seeded simulation, fanned out on the
/// [exec pool](phoenix_exec::global); outcomes are collected in degree
/// order, so the sweep is byte-identical for every thread count.
pub fn node_chaos(model: &AppModel, policy: &dyn ResiliencePolicy) -> Vec<NodeChaosOutcome> {
    sweep(model, policy, NODES, &FAILURE_FRACS)
}

/// [`node_chaos`] on `nodes` nodes over the given failure degrees.
fn sweep(
    model: &AppModel,
    policy: &dyn ResiliencePolicy,
    nodes: usize,
    failure_fracs: &[f64],
) -> Vec<NodeChaosOutcome> {
    let workload = Workload::new(vec![model.spec.clone()]);
    phoenix_exec::global().par_map(failure_fracs, |&frac| {
        let mut scenario = Scenario::new(nodes, Resources::cpu(NODE_CPU));
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut victims: Vec<u32> = (0..nodes as u32).collect();
        victims.shuffle(&mut rng);
        victims.truncate(((nodes as f64) * frac).round() as usize);
        scenario.kubelet_stop_at(FAIL_AT, victims);
        let trace = simulate(&workload, policy, &scenario, &SimConfig::default(), HORIZON);

        let up_at = |t: SimTime, s: ServiceId| trace.service_up(&workload, 0, s.index() as u32, t);
        // Critical restoration: first sample strictly after the failure
        // where the critical goal holds again. The goal is evaluated once
        // per run of equal serving sets.
        let critical_restore = trace
            .serving_runs(FAIL_AT + SimTime::from_millis(1))
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
            critical_restore_after: critical_restore.map(|t| t.saturating_sub(FAIL_AT)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_apps::overleaf::{overleaf, OverleafVariant};
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_exec::with_threads;

    /// A 6-node cluster at failure degrees 0 and 0.5.
    fn six_nodes(m: &AppModel, policy: &dyn ResiliencePolicy) -> Vec<NodeChaosOutcome> {
        sweep(m, policy, 6, &[0.0, 0.5])
    }

    #[test]
    fn zero_degree_keeps_full_harvest() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = six_nodes(&m, &PhoenixPolicy::fair());
        assert_eq!(out[0].failure_frac, 0.0);
        assert!((out[0].settled_utility - 1.0).abs() < 1e-9);
        assert!(out[0].critical_recovered);
    }

    #[test]
    fn phoenix_restores_critical_after_node_loss() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = six_nodes(&m, &PhoenixPolicy::fair());
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
        let phx = six_nodes(&m, &PhoenixPolicy::fair());
        let dfl = six_nodes(&m, &DefaultPolicy);
        assert!(phx[1].settled_utility >= dfl[1].settled_utility - 1e-9);
        assert!(phx[1].critical_recovered || !dfl[1].critical_recovered);
    }

    #[test]
    fn node_chaos_is_thread_count_invariant() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let run = |threads| with_threads(threads, || six_nodes(&m, &PhoenixPolicy::fair()));
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn outcomes_align_with_degrees() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let out = sweep(&m, &PhoenixPolicy::fair(), 6, &[0.0, 0.25, 0.5, 0.75]);
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
