//! Failure injection: the "disaster" side of AdaptLab.
//!
//! The paper sweeps *cluster capacity failed* from 0 to 90 % by killing
//! random nodes, and the CloudLab runs stop kubelets on a fixed node set.
//! Both shapes live here. Zone and rack outages are scenario events
//! (`phoenix_kubesim::scenario`), lowered to explicit node sets.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{ClusterState, NodeId, PodKey, Resources};

/// Everything evicted by one failure event.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Nodes taken down by this event.
    pub failed_nodes: Vec<NodeId>,
    /// Pods evicted, with their demands (for restart planning).
    pub evicted: Vec<(PodKey, Resources)>,
}

/// Fails an explicit set of nodes (idempotent per node).
pub fn fail_nodes(state: &mut ClusterState, nodes: &[NodeId]) -> FailureReport {
    let mut report = FailureReport::default();
    for &n in nodes {
        if state.is_healthy(n) {
            let evicted = state.fail_node(n);
            report.failed_nodes.push(n);
            report.evicted.extend(evicted);
        }
    }
    report
}

/// Fails a uniformly random `fraction` of currently-healthy nodes.
///
/// `fraction` is clamped to `[0, 1]`; the number of victims is rounded to
/// the nearest node.
pub fn fail_fraction<R: Rng + ?Sized>(
    state: &mut ClusterState,
    fraction: f64,
    rng: &mut R,
) -> FailureReport {
    let mut healthy = state.healthy_nodes();
    let k = ((healthy.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    healthy.shuffle(rng);
    healthy.truncate(k);
    fail_nodes(state, &healthy)
}

/// Restores every failed node (they come back empty).
pub fn restore_all(state: &mut ClusterState) {
    for n in state.node_ids() {
        if !state.is_healthy(n) {
            state.restore_node(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fraction_fails_expected_count() {
        let mut state = ClusterState::homogeneous(100, Resources::cpu(8.0));
        let mut rng = StdRng::seed_from_u64(1);
        let report = fail_fraction(&mut state, 0.3, &mut rng);
        assert_eq!(report.failed_nodes.len(), 30);
        assert_eq!(state.healthy_nodes().len(), 70);
    }

    #[test]
    fn fraction_clamped() {
        let mut state = ClusterState::homogeneous(10, Resources::cpu(8.0));
        let mut rng = StdRng::seed_from_u64(2);
        let report = fail_fraction(&mut state, 2.0, &mut rng);
        assert_eq!(report.failed_nodes.len(), 10);
        let report2 = fail_fraction(&mut state, -1.0, &mut rng);
        assert!(report2.failed_nodes.is_empty());
    }

    #[test]
    fn eviction_reported_with_demands() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(8.0));
        state
            .assign(PodKey::new(0, 0, 0), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let report = fail_nodes(&mut state, &[NodeId::new(0)]);
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.evicted[0].1.cpu, 3.0);
        // Re-failing is a no-op.
        let again = fail_nodes(&mut state, &[NodeId::new(0)]);
        assert!(again.failed_nodes.is_empty());
    }

    #[test]
    fn restore_all_brings_cluster_back() {
        let mut state = ClusterState::homogeneous(10, Resources::cpu(8.0));
        let mut rng = StdRng::seed_from_u64(4);
        fail_fraction(&mut state, 0.5, &mut rng);
        restore_all(&mut state);
        assert_eq!(state.healthy_nodes().len(), 10);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut state = ClusterState::homogeneous(50, Resources::cpu(8.0));
            let mut rng = StdRng::seed_from_u64(42);
            fail_fraction(&mut state, 0.4, &mut rng).failed_nodes
        };
        assert_eq!(run(), run());
    }
}
