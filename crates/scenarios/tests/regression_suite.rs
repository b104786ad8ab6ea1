//! The always-on RTO regression suite: replays every minimal repro
//! checked in under `crates/scenarios/regressions/` and asserts its
//! pinned violation signature byte-for-byte.
//!
//! A failure here means a planner/simulator change moved a known
//! violation — better or worse. That is never silent: re-capture the
//! repro with `cargo run --release -p phoenix-bench --bin scenario_hunt
//! -- --smoke` and commit the diff deliberately.

use phoenix_exec::with_threads;
use phoenix_scenarios::campaign::demo_workload;
use phoenix_scenarios::campaign::CampaignConfig;
use phoenix_scenarios::regression::{load_all, regressions_dir, replay};
use phoenix_scenarios::search::signature_of;

#[test]
fn every_checked_in_repro_replays_to_its_pinned_signature() {
    let docs = load_all(&regressions_dir()).expect("regressions dir unreadable");
    assert!(
        !docs.is_empty(),
        "no repros checked in — the hunt seeding step was lost"
    );
    let cfg = CampaignConfig::default();
    for doc in &docs {
        doc.scenario.validate().unwrap();
        assert!(
            doc.signature.severity_ms > 0,
            "{}: a pinned repro must actually violate",
            doc.name
        );
        let fresh = replay(doc, &cfg).unwrap_or_else(|e| panic!("{}: {e}", doc.name));
        assert_eq!(
            fresh, doc.signature,
            "{}: violation signature drifted — a planner/simulator change \
             moved this known failure; re-capture with scenario_hunt if \
             intentional",
            doc.name
        );
    }
}

/// The two known smoke-scale violations from the PR-5 baselines must be
/// among the seeds: correlated-blast-radius defeating PhoenixCost and
/// surge-under-crunch defeating a baseline policy.
#[test]
fn known_baseline_violations_are_pinned() {
    let docs = load_all(&regressions_dir()).unwrap();
    let has = |family: &str, policy: &str| {
        docs.iter()
            .any(|d| d.scenario.family == family && d.policy == policy)
    };
    assert!(
        has("correlated-blast-radius", "PhoenixCost"),
        "correlated-blast-radius/PhoenixCost repro missing"
    );
    assert!(
        docs.iter()
            .any(|d| d.scenario.family == "surge-under-crunch"),
        "surge-under-crunch repro missing"
    );
}

/// Replay is pool-width invariant: the per-repro signatures fanned out at
/// 1 and 4 threads are identical (the repro path itself is
/// single-simulation, so this guards the fan-out used by the probe).
#[test]
fn repro_replay_is_pool_invariant() {
    let docs = load_all(&regressions_dir()).unwrap();
    let cfg = CampaignConfig::default();
    for threads in [1, 4] {
        let sigs = with_threads(threads, || {
            phoenix_exec::global().par_map(&docs, |doc| {
                let policy = phoenix_scenarios::regression::policy_by_name(&doc.policy).unwrap();
                let w = demo_workload(doc.apps.max(1));
                signature_of(&w, &doc.scenario, policy.as_ref(), &cfg, None).unwrap()
            })
        });
        for (doc, sig) in docs.iter().zip(&sigs) {
            assert_eq!(
                sig, &doc.signature,
                "{}: drift under pool fan-out",
                doc.name
            );
        }
    }
}
