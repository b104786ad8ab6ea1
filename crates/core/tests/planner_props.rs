//! Property tests for Algorithm-1 invariants (the paper's Eq. 1/Eq. 2) and
//! end-to-end policy sanity on random workloads.

use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::planner::{app_rank, first_topology_violation, Traversal};
use phoenix_core::policies::standard_roster;
use phoenix_core::spec::{AppSpecBuilder, ServiceId, Workload};
use phoenix_core::tags::Criticality;
use proptest::prelude::*;

/// Random DAG app: levels per service + forward edges.
fn arb_app() -> impl Strategy<Value = phoenix_core::spec::AppSpec> {
    (2usize..25).prop_flat_map(|n| {
        let levels = proptest::collection::vec(1u8..6, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        (levels, edges).prop_map(move |(levels, edges)| {
            let mut b = AppSpecBuilder::new("p");
            let ids: Vec<ServiceId> = levels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    b.add_service(
                        format!("s{i}"),
                        Resources::cpu(1.0 + (i % 3) as f64),
                        Some(Criticality::new(l)),
                        1,
                    )
                })
                .collect();
            b.with_graph();
            for (a, z) in edges {
                if a != z {
                    let (f, t) = (a.min(z), a.max(z));
                    b.add_dependency(ids[f], ids[t]);
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Eq. 2: every order from either traversal is topology-consistent.
    #[test]
    fn app_rank_satisfies_topology(app in arb_app()) {
        for t in [Traversal::CriticalityGuidedDfs, Traversal::StrictFrontier] {
            let order = app_rank(&app, t);
            prop_assert_eq!(order.len(), app.service_count());
            prop_assert!(first_topology_violation(&app, &order).is_none(), "{:?}", t);
            // Permutation check.
            let mut idx: Vec<usize> = order.iter().map(|s| s.index()).collect();
            idx.sort_unstable();
            prop_assert_eq!(idx, (0..app.service_count()).collect::<Vec<_>>());
        }
    }

    /// Eq. 1 (as far as topology allows): in StrictFrontier mode, whenever a
    /// service appears, no strictly-more-critical service that was already
    /// *reachable* (had an activated predecessor or is a source) is still
    /// waiting.
    #[test]
    fn strict_frontier_respects_criticality_among_ready(app in arb_app()) {
        let order = app_rank(&app, Traversal::StrictFrontier);
        let g = app.dependency().unwrap();
        let mut activated = vec![false; app.service_count()];
        for &s in &order {
            let ready = |x: ServiceId| {
                let n = phoenix_dgraph::NodeId::from_index(x.index());
                g.in_degree(n) == 0
                    || g.predecessors(n).iter().any(|p| activated[p.index()])
            };
            for other in app.service_ids() {
                if !activated[other.index()] && other != s && ready(other) && ready(s) {
                    // `other` is ready but was not chosen: it must not be
                    // strictly more critical than `s`.
                    prop_assert!(
                        !app.criticality_of(other)
                            .is_at_least_as_critical_as(app.criticality_of(s))
                            || app.criticality_of(other) == app.criticality_of(s),
                        "ready {} (C{}) skipped for {} (C{})",
                        other,
                        app.criticality_of(other).level(),
                        s,
                        app.criticality_of(s).level()
                    );
                }
            }
            activated[s.index()] = true;
        }
    }

    /// Every policy on a random workload produces a consistent target no
    /// worse than physically possible.
    #[test]
    fn policies_produce_consistent_targets(
        apps in proptest::collection::vec(arb_app(), 1..4),
        nodes in 1usize..8,
        cap in 2.0f64..10.0,
    ) {
        let w = Workload::new(apps);
        for p in standard_roster() {
            let mut state = ClusterState::homogeneous(nodes, Resources::cpu(cap));
            p.plan(&w, &mut state);
            state.check_invariants().unwrap();
            // Total placed demand never exceeds healthy capacity.
            let used = state.total_used().cpu;
            prop_assert!(used <= nodes as f64 * cap + 1e-6, "{}", p.name());
        }
    }
}
