//! Property tests for the scenario shrinker's four contracts:
//!
//! * (a) shrinking preserves `ScenarioDoc::validate`,
//! * (b) shrinking never increases the event count or the horizon,
//! * (c) shrinking is deterministic — same doc + same oracle, byte-same
//!   output,
//! * (d) whenever the oracle accepts the input, it still accepts the
//!   shrunk output (the violation survives reduction).

use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_scenarios::campaign::demo_workload;
use phoenix_scenarios::generate::{generate, Family, GeneratorConfig};
use phoenix_scenarios::model::ScenarioDoc;
use phoenix_scenarios::search::signature_of;
use phoenix_scenarios::shrink::shrink;
use proptest::prelude::*;

fn docs_for(seed: u64, nodes: u32, family_ix: usize) -> Vec<ScenarioDoc> {
    let families = Family::all();
    generate(
        families[family_ix % families.len()],
        &GeneratorConfig {
            nodes,
            node_cpu: 4.0,
            scenarios_per_family: 1,
            apps: 2,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a)+(b)+(c) against a cheap syntactic oracle over every family.
    #[test]
    fn shrinking_is_valid_monotone_and_deterministic(
        seed in 0u64..1000,
        nodes in 4u32..12,
        family_ix in 0usize..6,
        min_events in 0usize..3,
    ) {
        for doc in docs_for(seed, nodes, family_ix) {
            // Oracle: "still has more than `min_events` events" — cheap,
            // satisfiable, and forces the shrinker to stop mid-lattice.
            let mut oracle = |d: &ScenarioDoc| d.events.len() > min_events;
            if !oracle(&doc) {
                continue;
            }
            let (a, report) = shrink(&doc, &mut oracle);
            let (b, _) = shrink(&doc, &mut oracle);
            prop_assert_eq!(&a, &b, "shrink not deterministic for {}", doc.name);
            a.validate().unwrap();
            prop_assert!(oracle(&a), "{}: violation lost in shrink", doc.name);
            prop_assert!(a.events.len() <= doc.events.len());
            prop_assert!(a.horizon_ms <= doc.horizon_ms);
            prop_assert!(report.evals >= 1);
            prop_assert_eq!(
                report.removed_events as usize,
                doc.events.len() - a.events.len()
            );
        }
    }
}

/// (d) with the real simulator-backed oracle: every violating
/// `(scenario, policy)` pair from a small fixed-seed sweep shrinks to a
/// doc that *still* violates, never grows, and replays to the same
/// signature twice.
#[test]
fn real_violations_survive_shrinking() {
    let w = demo_workload(3);
    let policies: Vec<Box<dyn ResiliencePolicy>> =
        vec![Box::new(PhoenixPolicy::cost()), Box::new(DefaultPolicy)];
    let mut shrunk_any = false;
    for family in Family::all() {
        let docs = generate(
            family,
            &GeneratorConfig {
                nodes: 8,
                node_cpu: 4.0,
                scenarios_per_family: 2,
                apps: 3,
                seed: 42,
            },
        );
        for doc in &docs {
            for policy in &policies {
                let sig = signature_of(&w, doc, policy.as_ref(), None).unwrap();
                if sig.severity_ms == 0 {
                    continue;
                }
                let mut oracle = |d: &ScenarioDoc| {
                    signature_of(&w, d, policy.as_ref(), None)
                        .map(|s| s.severity_ms > 0)
                        .unwrap_or(false)
                };
                let (small, _) = shrink(doc, &mut oracle);
                small.validate().unwrap();
                let after = signature_of(&w, &small, policy.as_ref(), None).unwrap();
                assert!(
                    after.severity_ms > 0,
                    "{} x {}: shrunk doc no longer violates",
                    doc.name,
                    policy.name()
                );
                assert!(small.events.len() <= doc.events.len());
                assert!(small.horizon_ms <= doc.horizon_ms);
                shrunk_any = true;
            }
        }
    }
    assert!(
        shrunk_any,
        "seed 42 smoke sweep found no violations — known baselines moved"
    );
}
