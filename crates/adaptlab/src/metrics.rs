//! Evaluation metrics (§6, *Operator Metrics* and *Application Metrics*).
//!
//! * **Critical service availability**: an app's goal is met when *all*
//!   its `C1` microservices are running (the AdaptLab definition of §6.2);
//!   reported as the fraction of apps meeting it, normalized to the
//!   unaffected state (which is 1.0 by construction).
//! * **Revenue**: `Σ price_i × active demand`, normalized to pre-failure.
//! * **Fairness deviation**: positive/negative deviation of per-app
//!   allocations from the water-filling fair share.
//! * **Utilization**: placed demand over healthy capacity.

use phoenix_cluster::{ClusterState, PodKey};
use phoenix_core::spec::Workload;
use phoenix_core::tags::Criticality;
use phoenix_core::waterfill::fair_share_deviation;

/// All metrics of one (policy, failure) evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchemeMetrics {
    /// Fraction of apps with every `C1` microservice active.
    pub availability: f64,
    /// Revenue normalized to the pre-failure state.
    pub revenue: f64,
    /// Positive fair-share deviation (above share), capacity-normalized.
    pub fairness_pos: f64,
    /// Negative fair-share deviation (below share), capacity-normalized.
    pub fairness_neg: f64,
    /// Healthy-capacity utilization of the target state.
    pub utilization: f64,
    /// Planning latency in seconds.
    pub plan_secs: f64,
}

impl SchemeMetrics {
    /// Bitwise equality on every *result* field, ignoring the one
    /// wall-clock field (`plan_secs`) that is never reproducible. The
    /// thread-count-invariance test and the fig8b seq/par equivalence
    /// assertion both go through here, so adding a metric field keeps
    /// them in lockstep.
    pub fn same_results(&self, other: &SchemeMetrics) -> bool {
        self.availability.to_bits() == other.availability.to_bits()
            && self.revenue.to_bits() == other.revenue.to_bits()
            && self.fairness_pos.to_bits() == other.fairness_pos.to_bits()
            && self.fairness_neg.to_bits() == other.fairness_neg.to_bits()
            && self.utilization.to_bits() == other.utilization.to_bits()
    }
}

/// Is service `(app, service)` fully active (all replicas placed)?
pub fn service_active(
    workload: &Workload,
    state: &ClusterState,
    app: usize,
    service: usize,
) -> bool {
    let spec = workload
        .app(phoenix_core::spec::AppId::new(app as u32))
        .service(phoenix_core::spec::ServiceId::new(service as u32));
    (0..spec.replicas).all(|r| {
        state
            .node_of(PodKey::new(app as u32, service as u32, r))
            .is_some()
    })
}

/// Fraction of apps whose `C1` set is fully active.
pub fn critical_service_availability(workload: &Workload, state: &ClusterState) -> f64 {
    if workload.app_count() == 0 {
        return 0.0;
    }
    let met = workload
        .apps()
        .filter(|(id, app)| {
            app.service_ids()
                .filter(|&s| app.criticality_of(s) == Criticality::C1)
                .all(|s| service_active(workload, state, id.index(), s.index()))
        })
        .count();
    met as f64 / workload.app_count() as f64
}

/// Absolute revenue of a state: `Σ price × active scalar demand`.
pub fn revenue(workload: &Workload, state: &ClusterState) -> f64 {
    workload
        .apps()
        .map(|(id, app)| {
            let active: f64 = app
                .service_ids()
                .filter(|&s| service_active(workload, state, id.index(), s.index()))
                .map(|s| app.service(s).total_demand().scalar())
                .sum();
            app.price_per_unit() * active
        })
        .sum()
}

/// Per-app scalar allocation in a state.
///
/// Accumulation is key-ordered so results are bit-for-bit reproducible
/// (hash-map iteration order would otherwise perturb float sums).
pub fn allocations(workload: &Workload, state: &ClusterState) -> Vec<f64> {
    let mut pods: Vec<(PodKey, f64)> = state
        .assignments()
        .map(|(pod, _, demand)| (pod, demand.scalar()))
        .collect();
    pods.sort_by_key(|&(pod, _)| pod);
    let mut alloc = vec![0.0; workload.app_count()];
    for (pod, demand) in pods {
        if (pod.app as usize) < alloc.len() {
            alloc[pod.app as usize] += demand;
        }
    }
    alloc
}

/// Full metric evaluation of a target state.
///
/// `baseline_revenue` is the pre-failure revenue used for normalization;
/// fairness deviations are computed against the water-filling shares of
/// the *current* healthy capacity (the paper's definition: ideal is zero
/// deviation at every failure level).
pub fn evaluate(
    workload: &Workload,
    state: &ClusterState,
    baseline_revenue: f64,
    plan_secs: f64,
) -> SchemeMetrics {
    let demands: Vec<f64> = workload
        .apps()
        .map(|(_, a)| a.total_demand().scalar())
        .collect();
    let capacity = state.healthy_capacity().scalar();
    let alloc = allocations(workload, state);
    let (fairness_pos, fairness_neg) = fair_share_deviation(&demands, &alloc, capacity);
    SchemeMetrics {
        availability: critical_service_availability(workload, state),
        revenue: if baseline_revenue > 0.0 {
            revenue(workload, state) / baseline_revenue
        } else {
            0.0
        },
        fairness_pos,
        fairness_neg,
        utilization: state.utilization(),
        plan_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_cluster::{NodeId, Resources};
    use phoenix_core::spec::AppSpecBuilder;

    /// Two apps × (C1 2cpu, C3 2cpu), prices 2 and 1.
    fn setup() -> (Workload, ClusterState) {
        let mut apps = Vec::new();
        for (name, price) in [("a", 2.0), ("b", 1.0)] {
            let mut b = AppSpecBuilder::new(name);
            b.add_service("crit", Resources::cpu(2.0), Some(Criticality::C1), 1);
            b.add_service("aux", Resources::cpu(2.0), Some(Criticality::C3), 1);
            b.price_per_unit(price);
            apps.push(b.build().unwrap());
        }
        let w = Workload::new(apps);
        let state = ClusterState::homogeneous(4, Resources::cpu(2.0));
        (w, state)
    }

    fn place(state: &mut ClusterState, app: u32, svc: u32, node: u32) {
        state
            .assign(
                PodKey::new(app, svc, 0),
                Resources::cpu(2.0),
                NodeId::new(node),
            )
            .unwrap();
    }

    #[test]
    fn availability_counts_full_c1_sets() {
        let (w, mut s) = setup();
        assert_eq!(critical_service_availability(&w, &s), 0.0);
        place(&mut s, 0, 0, 0);
        assert_eq!(critical_service_availability(&w, &s), 0.5);
        place(&mut s, 1, 0, 1);
        assert_eq!(critical_service_availability(&w, &s), 1.0);
        // Non-C1 services do not matter for availability.
        place(&mut s, 0, 1, 2);
        assert_eq!(critical_service_availability(&w, &s), 1.0);
    }

    #[test]
    fn revenue_weights_by_price() {
        let (w, mut s) = setup();
        place(&mut s, 0, 0, 0); // app0: price 2 × 2 cpu = 4
        assert_eq!(revenue(&w, &s), 4.0);
        place(&mut s, 1, 0, 1); // + app1: 1 × 2 = 2
        place(&mut s, 1, 1, 2); // + app1 aux: 1 × 2 = 2
        assert_eq!(revenue(&w, &s), 8.0);
    }

    #[test]
    fn evaluate_normalizes_and_decomposes() {
        let (w, mut s) = setup();
        place(&mut s, 0, 0, 0);
        place(&mut s, 0, 1, 1);
        place(&mut s, 1, 0, 2);
        place(&mut s, 1, 1, 3);
        let full_rev = revenue(&w, &s);
        let m = evaluate(&w, &s, full_rev, 0.5);
        assert_eq!(m.availability, 1.0);
        assert!((m.revenue - 1.0).abs() < 1e-9);
        // Equal demands, equal allocations: zero deviation.
        assert_eq!((m.fairness_pos, m.fairness_neg), (0.0, 0.0));
        assert!((m.utilization - 1.0).abs() < 1e-9);
        assert_eq!(m.plan_secs, 0.5);
    }

    #[test]
    fn skewed_allocation_shows_deviation() {
        let (w, mut s) = setup();
        // App0 hogs both surviving nodes; the other two nodes fail, so the
        // healthy capacity (4) gives fair shares of 2 each.
        place(&mut s, 0, 0, 0);
        place(&mut s, 0, 1, 1);
        s.fail_node(NodeId::new(2));
        s.fail_node(NodeId::new(3));
        let m = evaluate(&w, &s, 1.0, 0.0);
        assert!(m.fairness_pos > 0.0, "app0 above share: {m:?}");
        assert!(m.fairness_neg > 0.0, "app1 below share: {m:?}");
    }

    #[test]
    fn replicas_must_all_run() {
        let mut b = AppSpecBuilder::new("r");
        b.add_service("s", Resources::cpu(1.0), Some(Criticality::C1), 2);
        let w = Workload::new(vec![b.build().unwrap()]);
        let mut s = ClusterState::homogeneous(2, Resources::cpu(1.0));
        s.assign(PodKey::new(0, 0, 0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        assert_eq!(critical_service_availability(&w, &s), 0.0);
        s.assign(PodKey::new(0, 0, 1), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        assert_eq!(critical_service_availability(&w, &s), 1.0);
    }
}
