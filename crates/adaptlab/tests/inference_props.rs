//! Property tests for log-based criticality inference: sampling bounds,
//! tag-vector structure, override semantics, and agreement-metric duality.

use phoenix_adaptlab::alibaba::{generate, AlibabaConfig};
use phoenix_adaptlab::inference::{
    agreement, apply_overrides, infer_tags, synthesize_log, CallLog, InferenceConfig, LogConfig,
    LogEntry,
};
use phoenix_core::tags::Criticality;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace_app(seed: u64, services: usize) -> phoenix_adaptlab::alibaba::TraceApp {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(
        &mut rng,
        &AlibabaConfig {
            apps: 1,
            max_services: services.max(10),
            max_requests: 50_000.0,
            ..AlibabaConfig::default()
        },
    )
    .remove(0)
}

/// A synthetic log, bypassing trace generation for structural properties.
fn arb_log() -> impl Strategy<Value = CallLog> {
    (4usize..40).prop_flat_map(|n| {
        proptest::collection::vec(
            (
                proptest::collection::btree_set(0..n, 1..n.min(8)),
                1u64..10_000,
            ),
            1..20,
        )
        .prop_map(move |entries| CallLog {
            entries: entries
                .into_iter()
                .map(|(set, count)| LogEntry {
                    services: set.into_iter().collect(),
                    count,
                })
                .collect(),
            service_count: n,
        })
    })
}

fn arb_tags(n: usize) -> impl Strategy<Value = Vec<Criticality>> {
    proptest::collection::vec((1u8..11).prop_map(Criticality::new), n)
}

/// Total observed requests.
fn observed(log: &CallLog) -> u64 {
    log.entries.iter().map(|e| e.count).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampling never observes more than the offered requests, and the
    /// observed shapes are genuine templates.
    #[test]
    fn sampling_bounds(seed in 0u64..50, rate in 0.0f64..1.0) {
        let app = trace_app(seed, 60);
        let mut rng = StdRng::seed_from_u64(seed);
        let log = synthesize_log(&app, &LogConfig { sample_rate: rate }, &mut rng);
        let offered: u64 = app.templates.iter().map(|t| t.weight.round() as u64).sum();
        prop_assert!(observed(&log) <= offered);
        prop_assert_eq!(log.service_count, app.graph.node_count());
        for e in &log.entries {
            prop_assert!(e.count > 0);
            for &s in &e.services {
                prop_assert!(s < log.service_count);
            }
        }
    }

    /// Inferred tags: observed services get real buckets, unobserved ones
    /// fall to LOWEST, no service is skipped, and the inferred C1 set
    /// covers the target fraction of the *observed* weight.
    #[test]
    fn inferred_tags_structure(log in arb_log(), percentile in 0.1f64..1.0) {
        let cfg = InferenceConfig { percentile, low_buckets: 9 };
        let tags = infer_tags(&log, &cfg);
        prop_assert_eq!(tags.len(), log.service_count);
        let counts = log.per_service_counts();
        for (i, &tag) in tags.iter().enumerate() {
            if counts[i] == 0 {
                prop_assert_eq!(tag, Criticality::LOWEST, "unobserved s{} not LOWEST", i);
            } else {
                prop_assert!(tag.level() <= 10, "observed s{i} got {tag}");
            }
        }
        // Coverage of the observed weight by fully-C1 entries.
        let total: u64 = log.entries.iter().map(|e| e.count).sum();
        let covered: u64 = log
            .entries
            .iter()
            .filter(|e| e.services.iter().all(|&s| tags[s] == Criticality::C1))
            .map(|e| e.count)
            .sum();
        prop_assert!(
            covered as f64 >= percentile * total as f64 - 1.0,
            "covered {covered}/{total} below p{percentile}"
        );
    }

    /// Overrides win, ignore out-of-range indices, and are last-writer-wins.
    #[test]
    fn override_semantics(
        log in arb_log(),
        service in 0usize..40,
        level_a in 1u8..11,
        level_b in 1u8..11,
    ) {
        let tags = infer_tags(&log, &InferenceConfig::default());
        let n = tags.len();
        let a = Criticality::new(level_a);
        let b = Criticality::new(level_b);
        let out = apply_overrides(
            tags.clone(),
            &[(service, a), (service, b), (n + 7, Criticality::C1)],
        );
        prop_assert_eq!(out.len(), n);
        if service < n {
            prop_assert_eq!(out[service], b, "last override must win");
        }
        for i in 0..n {
            if i != service {
                prop_assert_eq!(out[i], tags[i], "untouched tag changed at {}", i);
            }
        }
    }

    /// Agreement duality: precision(a,b) == recall(b,a), metrics bounded,
    /// distance symmetric.
    #[test]
    fn agreement_duality(n in 1usize..60, seed_a in 0u64..100, seed_b in 0u64..100) {
        let gen_tags = |seed: u64| {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| Criticality::new(rng.gen_range(1..11)))
                .collect::<Vec<_>>()
        };
        let a = gen_tags(seed_a);
        let b = gen_tags(seed_b);
        let ab = agreement(&a, &b);
        let ba = agreement(&b, &a);
        prop_assert!((ab.c1_precision - ba.c1_recall).abs() < 1e-12);
        prop_assert!((ab.c1_recall - ba.c1_precision).abs() < 1e-12);
        prop_assert!((ab.exact_match - ba.exact_match).abs() < 1e-12);
        prop_assert!((ab.mean_level_distance - ba.mean_level_distance).abs() < 1e-12);
        for v in [ab.c1_precision, ab.c1_recall, ab.exact_match] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert!(ab.mean_level_distance >= 0.0);
    }

    /// `arb_tags` sanity: agreement with self is perfect.
    #[test]
    fn self_agreement(tags in arb_tags(25)) {
        let s = agreement(&tags, &tags);
        prop_assert_eq!(s.exact_match, 1.0);
        prop_assert_eq!(s.mean_level_distance, 0.0);
        prop_assert_eq!(s.c1_precision, 1.0);
        prop_assert_eq!(s.c1_recall, 1.0);
    }
}
