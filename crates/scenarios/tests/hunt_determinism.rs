//! The adversarial hunt's determinism contract: a hunt is a pure
//! function of its seed, and its output — champions, severities, rounds,
//! the full JSON — is byte-identical whether the `(candidate, policy)`
//! evaluations fan out over 1 or 4 pool workers (`with_threads`, which
//! the planners inside every evaluation inherit).

use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_exec::with_threads;
use phoenix_scenarios::campaign::{demo_workload, CampaignConfig};
use phoenix_scenarios::search::{run_hunt_with, HuntConfig};

fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![
        Box::new(PhoenixPolicy::cost()),
        Box::new(PhoenixPolicy::fair()),
        Box::new(DefaultPolicy),
    ]
}

#[test]
fn hunts_are_pool_invariant_and_byte_identical() {
    // Small but real: 2 mutation rounds over a 12-candidate population.
    let hunt = HuntConfig {
        population: 12,
        rounds: 2,
        elites: 4,
        ..HuntConfig::smoke(42)
    };
    let w = demo_workload(3);
    let cfg = CampaignConfig::default();
    let run = |threads| with_threads(threads, || run_hunt_with(&w, &roster(), &hunt, &cfg, None));
    let (seq, par) = (run(1), run(4));

    assert_eq!(seq, par, "hunt output varies with pool width");
    let a = serde_json::to_string_pretty(&seq).unwrap();
    let b = serde_json::to_string_pretty(&par).unwrap();
    assert_eq!(a, b, "hunt JSON varies with pool width");

    // The smoke-seed hunt must find real violations (acceptance
    // criterion: the known smoke-suite violations are rediscoverable).
    assert!(!seq.champions.is_empty(), "seed-42 hunt found nothing");
    for c in &seq.champions {
        assert!(c.signature.severity_ms > 0);
        c.doc.validate().unwrap();
    }
}

#[test]
fn secondary_objective_stays_pool_invariant() {
    let hunt = HuntConfig {
        population: 10,
        rounds: 1,
        elites: 4,
        ..HuntConfig::smoke(7)
    };
    let w = demo_workload(3);
    let cfg = CampaignConfig::default();
    let secondary = |d: &phoenix_scenarios::model::ScenarioDoc| d.events.len() as u64;
    let run = |threads| {
        with_threads(threads, || {
            run_hunt_with(&w, &roster(), &hunt, &cfg, Some(&secondary))
        })
    };
    let (seq, par) = (run(1), run(4));
    assert_eq!(seq, par);
    assert_eq!(
        serde_json::to_string_pretty(&seq).unwrap(),
        serde_json::to_string_pretty(&par).unwrap()
    );
}
