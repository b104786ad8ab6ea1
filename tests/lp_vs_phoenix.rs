//! Integration: the Phoenix heuristic against the exact ILP on instances
//! small enough to solve to optimality — the quality argument behind
//! "we use the LP as a guide to design the Phoenix system" (§4).

use std::time::Duration;

use phoenix::adaptlab::metrics::revenue;
use phoenix::cluster::{ClusterState, NodeId, Resources};
use phoenix::core::policies::{LpPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix::core::spec::{AppSpecBuilder, Workload};
use phoenix::core::tags::Criticality;

/// A small multi-tenant workload with mixed tags and prices.
fn workload() -> Workload {
    let mut apps = Vec::new();
    for (name, price, levels) in [
        ("gold", 4.0, vec![1u8, 1, 2, 3]),
        ("silver", 2.0, vec![1, 2, 2, 5]),
        ("bronze", 1.0, vec![1, 3, 4]),
    ] {
        let mut b = AppSpecBuilder::new(name);
        let ids: Vec<_> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                b.add_service(
                    format!("ms{i}"),
                    Resources::cpu(1.0 + (i % 2) as f64),
                    Some(Criticality::new(l)),
                    1,
                )
            })
            .collect();
        for w in ids.windows(2) {
            b.add_dependency(w[0], w[1]);
        }
        b.price_per_unit(price);
        apps.push(b.build().unwrap());
    }
    Workload::new(apps)
}

fn degraded_state() -> ClusterState {
    let mut state = ClusterState::homogeneous(8, Resources::cpu(2.0));
    for i in 4..8 {
        state.fail_node(NodeId::new(i));
    }
    state
}

#[test]
fn phoenix_cost_close_to_ilp_optimal_revenue() {
    let w = workload();
    let (mut by_lp, mut by_phoenix) = (degraded_state(), degraded_state());
    let lp = LpPolicy::cost()
        .with_time_limit(Duration::from_secs(60))
        .plan(&w, &mut by_lp);
    assert!(lp.notes.contains("Optimal"), "LP not optimal: {}", lp.notes);
    PhoenixPolicy::cost().plan(&w, &mut by_phoenix);
    let lp_rev = revenue(&w, &by_lp);
    let phx_rev = revenue(&w, &by_phoenix);
    assert!(lp_rev > 0.0);
    assert!(
        phx_rev >= 0.85 * lp_rev,
        "phoenix {phx_rev} vs ILP optimum {lp_rev}"
    );
}

#[test]
fn phoenix_fair_matches_ilp_min_allocation() {
    let w = workload();
    let (mut by_lp, mut by_phoenix) = (degraded_state(), degraded_state());
    let lp = LpPolicy::fair()
        .with_time_limit(Duration::from_secs(60))
        .plan(&w, &mut by_lp);
    PhoenixPolicy::fair().plan(&w, &mut by_phoenix);
    let min_alloc = |s: &ClusterState| {
        let mut alloc = vec![0.0f64; w.app_count()];
        for (pod, _, d) in s.assignments() {
            alloc[pod.app as usize] += d.cpu;
        }
        alloc.into_iter().fold(f64::INFINITY, f64::min)
    };
    // The heuristic's worst-served app gets at least 80 % of what the
    // exact max-min program achieves.
    let lp_min = min_alloc(&by_lp);
    let phx_min = min_alloc(&by_phoenix);
    assert!(
        phx_min >= 0.8 * lp_min,
        "phoenix min-alloc {phx_min} vs LP {lp_min} ({})",
        lp.notes
    );
}

#[test]
fn both_respect_criticality_chains() {
    let w = workload();
    let lp = LpPolicy::cost().with_time_limit(Duration::from_secs(60));
    let policies: [&dyn ResiliencePolicy; 2] = [&lp, &PhoenixPolicy::cost()];
    for policy in policies {
        let mut state = degraded_state();
        policy.plan(&w, &mut state);
        for (ai, app) in w.apps() {
            let active = |s: phoenix::core::spec::ServiceId| {
                state
                    .node_of(phoenix::cluster::PodKey::new(
                        ai.index() as u32,
                        s.index() as u32,
                        0,
                    ))
                    .is_some()
            };
            // Eq. 1: if any service at level L is inactive, no service at a
            // strictly less-critical level may be active.
            for a in app.service_ids() {
                for b in app.service_ids() {
                    if app.criticality_of(a) < app.criticality_of(b) && !active(a) {
                        assert!(
                            !active(b),
                            "{}: {b} ({}) active while {a} ({}) is not",
                            app.name(),
                            app.criticality_of(b),
                            app.criticality_of(a)
                        );
                    }
                }
            }
        }
    }
}
