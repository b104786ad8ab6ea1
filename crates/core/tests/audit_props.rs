//! Property tests for the tag-auditing layer: inflation is always caught,
//! the transformation preserves everything except tags, and blast-radius
//! accounting is internally consistent.

use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::audit::{audit_workload, blast_radius, inflate_tags, Finding};
use phoenix_core::controller::PhoenixConfig;
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::spec::{AppId, AppSpec, AppSpecBuilder, ServiceId, Workload};
use phoenix_core::tags::Criticality;
use proptest::prelude::*;

fn arb_app() -> impl Strategy<Value = AppSpec> {
    (3usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u8..8, n),
            proptest::collection::vec((0..n, 0..n), 0..n),
            proptest::collection::vec(1.0f64..4.0, n),
        )
            .prop_map(move |(levels, edges, demands)| {
                let mut b = AppSpecBuilder::new("a");
                let ids: Vec<ServiceId> = levels
                    .iter()
                    .zip(&demands)
                    .enumerate()
                    .map(|(i, (&l, &d))| {
                        b.add_service(
                            format!("s{i}"),
                            Resources::cpu(d),
                            Some(Criticality::new(l)),
                            1,
                        )
                    })
                    .collect();
                for (x, y) in edges {
                    if x != y {
                        b.add_dependency(ids[x.min(y)], ids[x.max(y)]);
                    }
                }
                b.build().unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The audit flags any subscribed app after inflation (≥3 services).
    #[test]
    fn inflation_is_always_flagged(app in arb_app()) {
        let lying = inflate_tags(&app);
        let report = audit_workload(&Workload::new(vec![lying]));
        let flagged = report
            .apps[0]
            .findings
            .iter()
            .any(|f| matches!(f, Finding::Inflated { .. }));
        prop_assert!(flagged);
        prop_assert!((report.apps[0].c1_demand_share - 1.0).abs() < 1e-9);
    }

    /// Inflation preserves shape and is idempotent.
    #[test]
    fn inflate_preserves_shape_and_is_idempotent(app in arb_app()) {
        let once = inflate_tags(&app);
        prop_assert_eq!(once.service_count(), app.service_count());
        prop_assert_eq!(once.total_demand(), app.total_demand());
        prop_assert_eq!(once.price_per_unit(), app.price_per_unit());
        prop_assert_eq!(
            once.dependency().map(|g| g.edges().count()),
            app.dependency().map(|g| g.edges().count())
        );
        let twice = inflate_tags(&once);
        prop_assert_eq!(&twice, &once);
    }

    /// Blast-radius bookkeeping: coverage in [0,1], losses non-negative,
    /// deterministic, and the worst victim (when any) really lost coverage.
    #[test]
    fn blast_radius_accounting(
        apps in proptest::collection::vec(arb_app(), 2..5),
        nodes in 2usize..6,
        capacity in 4.0f64..16.0,
        inflator_pick in 0usize..4,
        cost in any::<bool>(),
    ) {
        let workload = Workload::new(apps);
        let inflator = AppId::new((inflator_pick % workload.app_count()) as u32);
        let state = ClusterState::homogeneous(nodes, Resources::cpu(capacity));
        let kind = if cost { ObjectiveKind::Cost } else { ObjectiveKind::Fairness };
        let config = PhoenixConfig::with_objective(kind);

        let br = blast_radius(&workload, inflator, &state, &config);
        let br2 = blast_radius(&workload, inflator, &state, &config);
        prop_assert_eq!(&br, &br2, "blast radius must be deterministic");

        prop_assert_eq!(br.honest_alloc.len(), workload.app_count());
        for v in br.honest_c1.iter().chain(&br.adversarial_c1) {
            prop_assert!((0.0..=1.0).contains(v), "coverage {v} out of range");
        }
        for v in br.honest_alloc.iter().chain(&br.adversarial_alloc) {
            prop_assert!(*v >= 0.0);
        }
        prop_assert!(br.victim_loss() >= 0.0);
        if let Some((victim, drop)) = br.worst_victim() {
            prop_assert!(victim != inflator);
            prop_assert!(drop > 0.0);
            let i = victim.index();
            prop_assert!((br.honest_c1[i] - br.adversarial_c1[i] - drop).abs() < 1e-9);
        }
    }

    /// Conservation: with or without the lie, no app is granted more than
    /// its demand and the cluster grants no more than its capacity.
    ///
    /// (Note the *absence* of a stronger claim: inflating can reorder the
    /// liar's own chain — all-C1 erases its intra-app ordering — so even
    /// the liar's own truly-critical coverage may fall. Lying is
    /// self-defeating as well as antisocial; the unit tests demonstrate
    /// the victim side, this property pins the resource accounting.)
    #[test]
    fn blast_radius_conserves_resources(
        apps in proptest::collection::vec(arb_app(), 2..5),
        nodes in 2usize..6,
        capacity in 4.0f64..16.0,
        cost in any::<bool>(),
    ) {
        let workload = Workload::new(apps);
        let state = ClusterState::homogeneous(nodes, Resources::cpu(capacity));
        let kind = if cost { ObjectiveKind::Cost } else { ObjectiveKind::Fairness };
        let br = blast_radius(&workload, AppId::new(0), &state, &PhoenixConfig::with_objective(kind));
        let total_capacity = state.healthy_capacity().scalar();
        for alloc in [&br.honest_alloc, &br.adversarial_alloc] {
            prop_assert!(alloc.iter().sum::<f64>() <= total_capacity + 1e-6);
            for (app, spec) in workload.apps() {
                prop_assert!(
                    alloc[app.index()] <= spec.total_demand().scalar() + 1e-6,
                    "{} over-allocated",
                    spec.name()
                );
            }
        }
    }
}
