//! Integration: the AdaptLab pipeline — trace generation → tagging →
//! environment fill → failure sweep → metrics — holds its cross-crate
//! invariants.

use phoenix::adaptlab::alibaba::AlibabaConfig;
use phoenix::adaptlab::metrics::{critical_service_availability, evaluate, revenue};
use phoenix::adaptlab::runner::{failure_sweep, point, SweepConfig};
use phoenix::adaptlab::scenario::{build_env, EnvConfig};
use phoenix::adaptlab::tagging::TaggingScheme;
use phoenix::cluster::failure::fail_fraction;
use phoenix::core::policies::{standard_roster, PhoenixPolicy, ResiliencePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg() -> EnvConfig {
    EnvConfig {
        nodes: 80,
        node_capacity: 64.0,
        target_utilization: 0.7,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            apps: 6,
            max_services: 150,
            max_requests: 80_000.0,
        },
        seed: 77,
        ..EnvConfig::default()
    }
}

#[test]
fn baseline_env_is_fully_available() {
    let env = build_env(&cfg());
    assert_eq!(
        critical_service_availability(&env.workload, &env.baseline),
        1.0
    );
    let m = evaluate(
        &env.workload,
        &env.baseline,
        revenue(&env.workload, &env.baseline),
        0.0,
    );
    assert!((m.revenue - 1.0).abs() < 1e-9);
    assert!(m.utilization <= 0.7 + 1e-9);
}

#[test]
fn metrics_bounded_and_consistent_across_policies() {
    let env = build_env(&cfg());
    let base_rev = revenue(&env.workload, &env.baseline);
    let mut failed = env.baseline.clone();
    let mut rng = StdRng::seed_from_u64(7);
    fail_fraction(&mut failed, 0.5, &mut rng);
    for policy in standard_roster() {
        let mut target = failed.clone();
        policy.plan(&env.workload, &mut target);
        let m = evaluate(&env.workload, &target, base_rev, 0.0);
        assert!((0.0..=1.0).contains(&m.availability), "{}", policy.name());
        assert!((0.0..=1.0 + 1e-9).contains(&m.revenue), "{}", policy.name());
        assert!(m.utilization <= 1.0 + 1e-9, "{}", policy.name());
        assert!(m.fairness_pos >= 0.0 && m.fairness_neg >= 0.0);
    }
}

#[test]
fn sweep_is_deterministic() {
    let sweep = SweepConfig {
        failure_fracs: vec![0.4],
        trials: 2,
    };
    let roster: Vec<Box<dyn ResiliencePolicy>> = vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
    ];
    let a = failure_sweep(&cfg(), &sweep, &roster);
    let b = failure_sweep(&cfg(), &sweep, &roster);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.policy, y.policy);
        // Everything except wall-clock timing must match exactly.
        assert_eq!(x.metrics.availability, y.metrics.availability);
        assert_eq!(x.metrics.revenue, y.metrics.revenue);
        assert_eq!(x.metrics.fairness_pos, y.metrics.fairness_pos);
        assert_eq!(x.metrics.fairness_neg, y.metrics.fairness_neg);
        assert_eq!(x.metrics.utilization, y.metrics.utilization);
    }
}

#[test]
fn phoenix_dominates_default_across_the_sweep() {
    let sweep = SweepConfig {
        failure_fracs: vec![0.3, 0.6],
        trials: 2,
    };
    let points = failure_sweep(&cfg(), &sweep, &standard_roster());
    for &frac in &sweep.failure_fracs {
        let phx = point(&points, "PhoenixFair", frac)
            .unwrap()
            .metrics
            .availability;
        let dfl = point(&points, "Default", frac)
            .unwrap()
            .metrics
            .availability;
        assert!(phx >= dfl, "frac {frac}: {phx} < {dfl}");
    }
}

#[test]
fn tagging_schemes_change_c1_sets_but_pipeline_survives() {
    for tagging in [
        TaggingScheme::ServiceLevel { percentile: 0.5 },
        TaggingScheme::FrequencyBased { percentile: 0.9 },
    ] {
        let env = build_env(&EnvConfig { tagging, ..cfg() });
        assert!(env.workload.app_count() > 0, "{tagging:?}");
        assert_eq!(
            critical_service_availability(&env.workload, &env.baseline),
            1.0,
            "{tagging:?}"
        );
    }
}
