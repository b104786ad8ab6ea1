//! Property tests for the scenario engine's three contracts:
//!
//! * (a) every generated scenario round-trips **exactly** through the
//!   serde-shim JSON (doc equality *and* text equality),
//! * (b) every generated scenario simulates **byte-identically** whether
//!   the campaign fans out over 1 or 4 pool workers,
//! * (c) a scenario restricted to the legacy stop/start vocabulary
//!   reduces to the hand-built legacy trace **bit-for-bit**.

use phoenix_cluster::Resources;
use phoenix_core::policies::{PhoenixPolicy, ResiliencePolicy};
use phoenix_exec::with_threads;
use phoenix_kubesim::run::{simulate, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use phoenix_scenarios::campaign::{demo_workload, run_campaign, CampaignConfig};
use phoenix_scenarios::generate::{generate_suite, Family, GeneratorConfig};
use phoenix_scenarios::model::{from_json, to_json, EventDoc, ScenarioDoc, SuiteDoc};
use proptest::prelude::*;

fn gen_cfg(seed: u64, nodes: u32, per_family: usize) -> GeneratorConfig {
    GeneratorConfig {
        nodes,
        node_cpu: 4.0,
        scenarios_per_family: per_family,
        apps: 2,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Generated suites survive JSON exactly: parse(print(x)) == x
    /// and print(parse(print(x))) == print(x).
    #[test]
    fn generated_suites_round_trip_exactly(
        seed in 0u64..1000,
        nodes in 4u32..16,
    ) {
        let suite = generate_suite(&gen_cfg(seed, nodes, 2));
        let json = to_json(&suite).unwrap();
        let back = from_json(&json).unwrap();
        prop_assert_eq!(&back, &suite);
        prop_assert_eq!(to_json(&back).unwrap(), json);
    }

    /// (b) A generated scenario's campaign scores are byte-identical
    /// under a sequential and a 4-worker pool.
    #[test]
    fn generated_scenarios_simulate_thread_invariantly(
        seed in 0u64..500,
        nodes in 4u32..10,
    ) {
        let suite = generate_suite(&gen_cfg(seed, nodes, 1));
        let w = demo_workload(2);
        let policies: Vec<Box<dyn ResiliencePolicy>> =
            vec![Box::new(PhoenixPolicy::fair())];
        let cfg = CampaignConfig::default();
        let run = |threads| with_threads(threads, || run_campaign(&w, &suite, &policies, &cfg));
        let (seq, par) = (run(1).unwrap(), run(4).unwrap());
        prop_assert_eq!(seq.scores.len(), par.scores.len());
        for (a, b) in seq.scores.iter().zip(&par.scores) {
            prop_assert_eq!(&a.scenario, &b.scenario);
            prop_assert_eq!(a.min_availability.to_bits(), b.min_availability.to_bits());
            prop_assert_eq!(a.final_availability.to_bits(), b.final_availability.to_bits());
            prop_assert_eq!(a.worst_c1_recovery_ms, b.worst_c1_recovery_ms);
            prop_assert_eq!(a.rto_satisfied, b.rto_satisfied);
        }
        // `same_results`, not `==`: `replan_us_p99` is wall-clock (the
        // phoenix-obs quarantined plane) and may differ between runs.
        prop_assert_eq!(seq.scorecards.len(), par.scorecards.len());
        for (a, b) in seq.scorecards.iter().zip(&par.scorecards) {
            prop_assert!(a.same_results(b));
        }
    }

    /// (c) A doc holding only stop/start events compiles to a scenario
    /// whose simulation is bit-for-bit the legacy hand-built trace.
    #[test]
    fn stop_start_docs_reduce_to_legacy_traces(
        nodes in 3u32..8,
        fail_at in 120u64..400,
        width in 1u32..3,
        restore in proptest::bool::ANY,
    ) {
        let width = width.min(nodes - 1);
        let victims: Vec<u32> = (nodes - width..nodes).collect();
        let restore_at = fail_at + 600;
        let horizon = fail_at + 1200;

        let mut events = vec![EventDoc {
            nodes: victims.clone(),
            ..EventDoc::new(fail_at * 1000, "kubelet_stop")
        }];
        if restore {
            events.push(EventDoc {
                nodes: victims.clone(),
                ..EventDoc::new(restore_at * 1000, "kubelet_start")
            });
        }
        let doc = ScenarioDoc {
            name: "legacy".into(),
            family: "custom".into(),
            nodes,
            node_cpu: 4.0,
            node_mem: 0.0,
            horizon_ms: horizon * 1000,
            events,
        };
        // The doc also JSON round-trips (hand-written docs, not just
        // generated ones).
        let suite = SuiteDoc { version: SuiteDoc::VERSION, seed: 0, scenarios: vec![doc.clone()] };
        prop_assert_eq!(&from_json(&to_json(&suite).unwrap()).unwrap(), &suite);

        let mut legacy = Scenario::new(nodes as usize, Resources::cpu(4.0));
        legacy.kubelet_stop_at(SimTime::from_secs(fail_at), victims.clone());
        if restore {
            legacy.kubelet_start_at(SimTime::from_secs(restore_at), victims);
        }

        let w = demo_workload(2);
        let sim = SimConfig::default();
        let compiled = doc.compile().unwrap();
        let a = simulate(&w, &PhoenixPolicy::fair(), &compiled, &sim, doc.horizon());
        let b = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &legacy,
            &sim,
            SimTime::from_secs(horizon),
        );
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.milestones, b.milestones);
        prop_assert_eq!(a.plans.len(), b.plans.len());
    }
}

/// The acceptance-criteria shape: a fixed-seed campaign of every family
/// (6 ≥ 4) × 5 scenarios each runs through the pool and produces
/// identical scorecards at 1 and 4 workers.
#[test]
fn fixed_seed_campaign_four_by_five_is_pool_invariant() {
    let suite = generate_suite(&gen_cfg(42, 8, 5));
    assert!(Family::all().len() >= 4);
    assert_eq!(suite.scenarios.len(), Family::all().len() * 5);
    let w = demo_workload(3);
    let policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
    let cfg = CampaignConfig::default();
    let run = |threads| with_threads(threads, || run_campaign(&w, &suite, &policies, &cfg));
    let (seq, par) = (run(1).unwrap(), run(4).unwrap());
    // `same_results`, not `==`: `replan_us_p99` is wall-clock (the
    // phoenix-obs quarantined plane) and may differ between runs.
    assert_eq!(seq.scorecards.len(), par.scorecards.len());
    for (a, b) in seq.scorecards.iter().zip(&par.scorecards) {
        assert!(a.same_results(b), "{} diverged across pools", a.family);
    }
    assert_eq!(seq.scores.len(), par.scores.len());
    for (a, b) in seq.scores.iter().zip(&par.scores) {
        assert!(a.same_results(b), "{} diverged across pools", a.scenario);
    }
}
