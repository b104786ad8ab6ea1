//! Integration tests for the paper's extension features:
//!
//! * Appendix D — multi-replica microservices (all-or-nothing activation),
//! * §5 *Partial Tagging* — untagged services and unsubscribed apps,
//! * §5 *Fault Tolerance* — the controller is stateless across restarts,
//! * zone-correlated failures (our blast-radius extension).

use phoenix::adaptlab::metrics::critical_service_availability;
use phoenix::cluster::failure::{fail_zones, restore_all};
use phoenix::cluster::{ClusterState, NodeId, PodKey, Resources};
use phoenix::core::controller::{PhoenixConfig, PhoenixController};
use phoenix::core::objectives::ObjectiveKind;
use phoenix::core::policies::{PhoenixPolicy, ResiliencePolicy};
use phoenix::core::spec::{AppSpecBuilder, Workload};
use phoenix::core::tags::Criticality;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Appendix D: a service with three replicas activates all-or-nothing.
#[test]
fn replicas_are_all_or_nothing() {
    let mut b = AppSpecBuilder::new("replicated");
    b.add_service("fe", Resources::cpu(1.0), Some(Criticality::C1), 3);
    b.add_service("aux", Resources::cpu(1.0), Some(Criticality::C5), 2);
    let w = Workload::new(vec![b.build().unwrap()]);

    // 4 CPUs: fe needs 3, aux needs 2 → only fe fits fully.
    let mut state = ClusterState::homogeneous(4, Resources::cpu(1.0));
    PhoenixPolicy::fair().plan(&w, &mut state);
    let fe_replicas = (0..3)
        .filter(|&r| state.node_of(PodKey::new(0, 0, r)).is_some())
        .count();
    assert_eq!(fe_replicas, 3, "all fe replicas must be active");
    let aux_replicas = (0..2)
        .filter(|&r| state.node_of(PodKey::new(0, 1, r)).is_some())
        .count();
    assert_eq!(aux_replicas, 0, "aux must not be partially activated");
    assert_eq!(critical_service_availability(&w, &state), 1.0);
}

/// Appendix D: replicas spread across nodes when capacity forces it, and
/// the availability metric requires every replica.
#[test]
fn replica_loss_breaks_availability() {
    let mut b = AppSpecBuilder::new("r");
    b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 2);
    let w = Workload::new(vec![b.build().unwrap()]);
    let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
    PhoenixPolicy::fair().plan(&w, &mut state);
    assert_eq!(critical_service_availability(&w, &state), 1.0);
    let mut degraded = state.clone();
    degraded.fail_node(NodeId::new(0));
    assert_eq!(critical_service_availability(&w, &degraded), 0.0);
}

/// §5: untagged services rank as C1 — they are never shed before tagged
/// ones.
#[test]
fn untagged_services_survive_over_tagged() {
    let mut b = AppSpecBuilder::new("partial");
    b.add_service("untagged", Resources::cpu(2.0), None, 1);
    b.add_service(
        "tagged-low",
        Resources::cpu(2.0),
        Some(Criticality::new(6)),
        1,
    );
    let w = Workload::new(vec![b.build().unwrap()]);
    let mut state = ClusterState::homogeneous(1, Resources::cpu(2.0));
    PhoenixPolicy::fair().plan(&w, &mut state);
    assert!(state.node_of(PodKey::new(0, 0, 0)).is_some());
    assert!(state.node_of(PodKey::new(0, 1, 0)).is_none());
}

/// §5: an app that did not subscribe (`phoenix=enabled` absent) is treated
/// as fully critical — Phoenix never diagonally scales it below tagged
/// subscribers' non-critical services.
#[test]
fn unsubscribed_apps_never_diagonally_scaled_first() {
    let mut legacy = AppSpecBuilder::new("legacy");
    legacy.add_service(
        "black-box",
        Resources::cpu(2.0),
        Some(Criticality::new(9)),
        1,
    );
    legacy.phoenix_enabled(false);
    let mut tagged = AppSpecBuilder::new("modern");
    tagged.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
    tagged.add_service("junk", Resources::cpu(2.0), Some(Criticality::new(9)), 1);
    let w = Workload::new(vec![legacy.build().unwrap(), tagged.build().unwrap()]);

    // 4 CPUs: legacy (2, effectively C1) + modern fe (2) win; junk is shed.
    let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
    PhoenixPolicy::fair().plan(&w, &mut state);
    assert!(state.node_of(PodKey::new(0, 0, 0)).is_some(), "legacy kept");
    assert!(state.node_of(PodKey::new(1, 0, 0)).is_some(), "fe kept");
    assert!(state.node_of(PodKey::new(1, 1, 0)).is_none(), "junk shed");
}

/// §5 fault tolerance: the controller keeps no mutable state, so a
/// "restarted" controller (rebuilt from the same persisted inputs) plans
/// identically.
#[test]
fn controller_restart_is_stateless() {
    let mut b = AppSpecBuilder::new("a");
    for i in 0..6 {
        b.add_service(
            format!("s{i}"),
            Resources::cpu(1.0 + (i % 3) as f64),
            Some(Criticality::new(1 + (i % 4) as u8)),
            1,
        );
    }
    let w = Workload::new(vec![b.build().unwrap()]);
    let mut state = ClusterState::homogeneous(4, Resources::cpu(3.0));
    state.fail_node(NodeId::new(3));

    let fresh = || {
        PhoenixController::new(
            w.clone(),
            PhoenixConfig::with_objective(ObjectiveKind::Cost),
        )
    };
    let a = fresh().plan(&state);
    let b2 = fresh().plan(&state);
    let snapshot = |s: &ClusterState| {
        let mut v: Vec<_> = s.assignments().map(|(p, n, _)| (p, n)).collect();
        v.sort();
        v
    };
    assert_eq!(snapshot(&a.target), snapshot(&b2.target));
}

/// Zone-correlated failures: losing one stripe of a zoned cluster evicts
/// exactly that stripe's pods and Phoenix recovers within the rest.
#[test]
fn zone_failure_recovery() {
    let mut b = AppSpecBuilder::new("z");
    b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
    b.add_service("mid", Resources::cpu(2.0), Some(Criticality::C2), 1);
    b.add_service("opt", Resources::cpu(2.0), Some(Criticality::new(5)), 1);
    let w = Workload::new(vec![b.build().unwrap()]);
    let mut state = ClusterState::homogeneous(8, Resources::cpu(2.0));
    PhoenixPolicy::fair().plan(&w, &mut state);
    let mut rng = StdRng::seed_from_u64(5);
    let report = fail_zones(&mut state, 4, 0.75, &mut rng);
    assert!(!report.failed_nodes.is_empty());
    let mut replan = state.clone();
    PhoenixPolicy::fair().plan(&w, &mut replan);
    // 2 × 2 = 4 CPUs remain: fe + mid fit, opt is shed.
    assert!(replan.node_of(PodKey::new(0, 0, 0)).is_some());
    assert!(replan.node_of(PodKey::new(0, 2, 0)).is_none());
    restore_all(&mut state);
    assert_eq!(state.healthy_nodes().len(), 8);
}
