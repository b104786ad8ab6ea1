//! Property tests: arbitrary workloads survive the persistence round trip
//! bit-for-bit at the spec level.

use phoenix_cluster::Resources;
use phoenix_core::persist::{from_json, to_json};
use phoenix_core::spec::{AppSpecBuilder, ServiceId, Workload};
use phoenix_core::tags::Criticality;
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = Workload> {
    let app = (
        "[a-z]{1,12}",
        proptest::collection::vec(
            (
                0.1f64..32.0,
                0.0f64..64.0,
                proptest::option::of(1u8..10),
                1u16..4,
            ),
            1..15,
        ),
        proptest::collection::vec((0usize..15, 0usize..15), 0..20),
        0.1f64..10.0,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(name, services, edges, price, enabled, with_graph)| {
            let mut b = AppSpecBuilder::new(name);
            let n = services.len();
            for (i, (cpu, mem, crit, replicas)) in services.into_iter().enumerate() {
                b.add_service(
                    format!("svc{i}"),
                    Resources::new(cpu, mem),
                    crit.map(Criticality::new),
                    replicas,
                );
            }
            if with_graph {
                b.with_graph();
                for (x, y) in edges {
                    if x != y && x < n && y < n {
                        b.add_dependency(ServiceId::new(x as u32), ServiceId::new(y as u32));
                    }
                }
            }
            b.price_per_unit(price);
            b.phoenix_enabled(enabled);
            b.build().expect("generated spec is valid")
        });
    proptest::collection::vec(app, 1..5).prop_map(Workload::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_round_trip_is_identity(w in arb_workload()) {
        let restored = from_json(&to_json(&w).unwrap()).unwrap();
        prop_assert_eq!(w.app_count(), restored.app_count());
        for (a, b) in w.apps().zip(restored.apps()) {
            let (a, b) = (a.1, b.1);
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.services(), b.services());
            prop_assert_eq!(a.price_per_unit(), b.price_per_unit());
            prop_assert_eq!(a.phoenix_enabled(), b.phoenix_enabled());
            match (a.dependency(), b.dependency()) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert_eq!(
                        x.edges().collect::<Vec<_>>(),
                        y.edges().collect::<Vec<_>>()
                    );
                }
                other => prop_assert!(false, "dependency mismatch: {:?}", other.0.map(|g| g.edges().count())),
            }
        }
    }
}
