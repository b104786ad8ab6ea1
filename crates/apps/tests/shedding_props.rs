//! Property tests for the shedding layer: admission never exceeds offer or
//! capacity, goodput is monotone in capacity, and (with every container
//! up) priority shedding is utility-optimal among the built-in policies.

use phoenix_apps::catalog::{AppModel, RequestType};
use phoenix_apps::shedding::{shed, summarize, OverloadScenario, QosPolicy, SheddingPolicy};
use phoenix_cluster::Resources;
use phoenix_core::spec::{AppSpecBuilder, ServiceId};
use phoenix_core::tags::Criticality;
use proptest::prelude::*;

/// A random crash-proof app: one service per request type (no optional
/// services, so realized utility equals `utility_full`).
fn arb_model() -> impl Strategy<Value = AppModel> {
    (1usize..6).prop_flat_map(|n| {
        (
            proptest::collection::vec(1.0f64..200.0, n),
            proptest::collection::vec(0.05f64..1.0, n),
        )
            .prop_map(move |(rates, utilities)| {
                let mut b = AppSpecBuilder::new("p");
                let ids: Vec<ServiceId> = (0..n)
                    .map(|i| {
                        b.add_service(
                            format!("s{i}"),
                            Resources::cpu(1.0),
                            Some(Criticality::new(1 + (i % 5) as u8)),
                            1,
                        )
                    })
                    .collect();
                let requests = rates
                    .iter()
                    .zip(&utilities)
                    .enumerate()
                    .map(|(i, (&rate_rps, &u))| RequestType {
                        name: format!("r{i}"),
                        path: vec![ids[i]],
                        optional: vec![],
                        rate_rps,
                        utility_full: u,
                        utility_degraded: u * 0.5,
                    })
                    .collect();
                AppModel {
                    spec: b.build().unwrap(),
                    requests,
                    crash_proof: true,
                    critical_request: 0,
                }
            })
    })
}

const POLICIES: [SheddingPolicy; 3] = [
    SheddingPolicy::None,
    SheddingPolicy::Uniform,
    SheddingPolicy::PriorityAware,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// served ≤ admitted ≤ offered per type; total served ≤ capacity.
    #[test]
    fn admission_bounds(
        model in arb_model(),
        multiplier in 0.0f64..4.0,
        capacity in 0.0f64..500.0,
    ) {
        let scenario = OverloadScenario { load_multiplier: multiplier, capacity_rps: capacity };
        for policy in POLICIES {
            let out = shed(&model, |_| true, &scenario, policy, QosPolicy::Full);
            let mut total = 0.0;
            for o in &out {
                prop_assert!(o.served_rps <= o.admitted_rps + 1e-9);
                prop_assert!(o.admitted_rps <= o.offered_rps + 1e-9);
                prop_assert!(o.utility_rate >= -1e-12);
                total += o.served_rps;
            }
            prop_assert!(
                total <= capacity + 1e-6,
                "{policy:?}: served {total} > capacity {capacity}"
            );
        }
    }

    /// All containers up, no overload ⇒ every policy serves everything.
    #[test]
    fn no_overload_no_shedding(model in arb_model(), multiplier in 0.1f64..2.0) {
        let offered: f64 = model.requests.iter().map(|r| r.rate_rps).sum::<f64>() * multiplier;
        let scenario = OverloadScenario { load_multiplier: multiplier, capacity_rps: offered + 1.0 };
        for policy in POLICIES {
            let s = summarize(&model, &shed(&model, |_| true, &scenario, policy, QosPolicy::Full));
            prop_assert!((s.served_rps - offered).abs() < 1e-6, "{:?}", policy);
            prop_assert!((s.critical_served_frac - 1.0).abs() < 1e-9);
        }
    }

    /// Goodput is monotone non-decreasing in capacity for every policy.
    #[test]
    fn goodput_monotone_in_capacity(
        model in arb_model(),
        caps in proptest::collection::vec(1.0f64..400.0, 2..6),
    ) {
        let mut sorted = caps.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for policy in POLICIES {
            let mut last = -1.0;
            for &c in &sorted {
                let scenario = OverloadScenario { load_multiplier: 2.0, capacity_rps: c };
                let s = summarize(&model, &shed(&model, |_| true, &scenario, policy, QosPolicy::Full));
                prop_assert!(
                    s.served_rps >= last - 1e-6,
                    "{:?}: goodput fell from {last} to {} at capacity {c}",
                    policy,
                    s.served_rps
                );
                last = s.served_rps;
            }
        }
    }

    /// With every container up, utility(priority) ≥ utility(uniform) ≥
    /// utility(none): greedy-by-utility solves the fractional knapsack the
    /// admission problem reduces to, and collapse only loses goodput.
    #[test]
    fn policy_utility_ordering(
        model in arb_model(),
        multiplier in 1.0f64..4.0,
        capacity in 1.0f64..300.0,
    ) {
        let scenario = OverloadScenario { load_multiplier: multiplier, capacity_rps: capacity };
        let u = |policy| {
            summarize(&model, &shed(&model, |_| true, &scenario, policy, QosPolicy::Full))
                .utility_rate
        };
        let none = u(SheddingPolicy::None);
        let uniform = u(SheddingPolicy::Uniform);
        let priority = u(SheddingPolicy::PriorityAware);
        prop_assert!(priority >= uniform - 1e-6, "priority {priority} < uniform {uniform}");
        prop_assert!(uniform >= none - 1e-6, "uniform {uniform} < none {none}");
    }

    /// QoS dimming never reduces served volume (capacity stretches, and
    /// goodput is monotone in capacity). Utility dominance is *not*
    /// generic — it needs the overload to persist after dimming (otherwise
    /// the quality discount outweighs the volume gain) and uniform
    /// admission (priority shedding's marginal admits can be worth less
    /// than the discount) — so the utility half asserts exactly that case,
    /// where dimmed = (uf/cf) × full ≥ full holds in closed form.
    #[test]
    fn dimming_dominates_when_efficient(
        model in arb_model(),
        multiplier in 1.0f64..4.0,
        capacity in 1.0f64..300.0,
        cost_factor in 0.2f64..1.0,
        bonus in 0.0f64..0.5,
    ) {
        let scenario = OverloadScenario { load_multiplier: multiplier, capacity_rps: capacity };
        let utility_factor = (cost_factor + bonus).min(1.0);
        let dim = QosPolicy::DimUnderOverload { cost_factor, utility_factor };
        for policy in [SheddingPolicy::Uniform, SheddingPolicy::PriorityAware] {
            let full = summarize(&model, &shed(&model, |_| true, &scenario, policy, QosPolicy::Full));
            let dimmed = summarize(&model, &shed(&model, |_| true, &scenario, policy, dim));
            prop_assert!(dimmed.served_rps >= full.served_rps - 1e-6, "{:?}", policy);
        }
        let demand: f64 = model.requests.iter().map(|r| r.rate_rps).sum::<f64>() * multiplier;
        if demand * cost_factor > capacity {
            let full = summarize(
                &model,
                &shed(&model, |_| true, &scenario, SheddingPolicy::Uniform, QosPolicy::Full),
            );
            let dimmed = summarize(
                &model,
                &shed(&model, |_| true, &scenario, SheddingPolicy::Uniform, dim),
            );
            prop_assert!(
                dimmed.utility_rate >= full.utility_rate - 1e-6,
                "uniform: dimmed {} < full {}",
                dimmed.utility_rate,
                full.utility_rate
            );
        }
    }

    /// Downed services lose their load under every policy; the survivors'
    /// accounting still balances.
    #[test]
    fn downed_services_serve_nothing(
        model in arb_model(),
        down_mask in any::<u8>(),
        capacity in 1.0f64..300.0,
    ) {
        let up = |s: ServiceId| (down_mask >> (s.index() % 8)) & 1 == 0;
        let scenario = OverloadScenario { load_multiplier: 1.5, capacity_rps: capacity };
        for policy in POLICIES {
            let out = shed(&model, up, &scenario, policy, QosPolicy::Full);
            for (i, o) in out.iter().enumerate() {
                let path_up = model.requests[i].path.iter().all(|&s| up(s));
                if !path_up {
                    prop_assert_eq!(o.served_rps, 0.0);
                    prop_assert_eq!(o.utility_rate, 0.0);
                }
            }
        }
    }
}
