//! Figure 8b: planning time vs. cluster size for Phoenix, Default and
//! the ILP baselines — plus the cold-vs-warm incremental replanning
//! comparison.

use std::time::{Duration, Instant};

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::runner::{failure_sweep, SweepConfig};
use phoenix_adaptlab::scenario::{build_env, AdaptLabEnv, EnvConfig};
use phoenix_cluster::failure::fail_fraction;
use phoenix_core::controller::{plan_with, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{DefaultPolicy, LpPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::replan::ReplanDelta;
use phoenix_exec::with_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Claim, Scale};
use crate::{replan_scenario, secs, Line, Table};

/// Min-of-N cold rounds vs. min-of-N warm rounds on the shared
/// monitor-tick scenario (converged cluster, alternating one/two failed
/// nodes), with the warm/cold action plans asserted equal first inside
/// [`replan_scenario::converge_and_degrade`]. Returns (cold, warm).
fn measure_replan(env: &AdaptLabEnv, kind: ObjectiveKind) -> (Duration, Duration) {
    let (mut controller, failed_a, failed_b) = replan_scenario::converge_and_degrade(env, kind);
    let cfg = PhoenixConfig::with_objective(kind);
    let (mut cold, mut warm) = (Duration::MAX, Duration::MAX);
    for i in 0..6 {
        let state = if i % 2 == 0 { &failed_a } else { &failed_b };
        let t = Instant::now();
        let _ = plan_with(&env.workload, state, &cfg);
        cold = cold.min(t.elapsed());
        let t = Instant::now();
        let _ = controller.replan(state, ReplanDelta::CapacityOnly);
        warm = warm.min(t.elapsed());
    }
    (cold, warm)
}

/// Times one multi-trial AdaptLab failure sweep sequentially and on the
/// global pool, asserting the two agree on everything but wall-clock
/// ([`SweepPoint::same_results`]) first. Returns (sequential, parallel).
///
/// [`SweepPoint::same_results`]: phoenix_adaptlab::runner::SweepPoint::same_results
fn measure_sweep(nodes: usize, trials: u32) -> (Duration, Duration) {
    let env = replan_scenario::env_config(nodes, 5);
    let sweep = SweepConfig {
        failure_fracs: vec![0.2, 0.5, 0.8],
        trials,
    };
    let roster: Vec<Box<dyn ResiliencePolicy>> = vec![
        Box::new(PhoenixPolicy::cost()),
        Box::new(PhoenixPolicy::fair()),
    ];

    // `with_threads(1)` runs every trial on the calling thread.
    let t = Instant::now();
    let seq_points = with_threads(1, || failure_sweep(&env, &sweep, &roster));
    let seq = t.elapsed();
    let t = Instant::now();
    let par_points = failure_sweep(&env, &sweep, &roster);
    let par = t.elapsed();
    assert_eq!(seq_points.len(), par_points.len(), "sweep shapes diverged");
    for (a, b) in seq_points.iter().zip(&par_points) {
        assert!(
            a.same_results(b),
            "seq/par sweep divergence at {} {}",
            a.policy,
            a.failure_frac
        );
    }
    (seq, par)
}

/// Figure 8b at 100 → 10 000 nodes; full scale appends the paper's
/// largest point, 100 000 nodes (Phoenix must stay under 10 s), and
/// smoke scale keeps only the 100-node point without the ILPs. The ILPs
/// run up to 1 000 nodes with a 60 s budget each and report DNF beyond
/// it, reproducing "the LP does not scale beyond 1000-server clusters".
///
/// Besides the figure rows it prints, per size and objective, the warm
/// replan (`-warm`) and a sequential-vs-parallel multi-trial sweep
/// (`Sweep-par`) — after
/// asserting warm == cold action plans and identical sequential/parallel
/// sweeps. The timings are for reading; the recorded perf ledger is
/// `benchmark/`.
pub(super) fn fig8b(scale: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let threads = phoenix_exec::global().threads();
    let sizes = scale.pick(
        &[100usize][..],
        &[100, 1_000, 10_000],
        &[100, 1_000, 10_000, 100_000],
    );
    let lp_max_nodes = scale.pick(0, 1_000, 1_000);
    let sweep_trials = scale.pick(2, 3, 3);
    out.line(format!("phoenix-exec pool: {threads} threads"));

    let mut table = Table::new(["nodes", "scheme", "plan time", "notes"]);
    for &nodes in sizes {
        let env = build_env(&replan_scenario::env_config(nodes, 5));
        let mut failed = env.baseline.clone();
        fail_fraction(&mut failed, 0.5, &mut StdRng::seed_from_u64(5));
        out.line(format!(
            "{} nodes: {} app instances, {} pods",
            nodes,
            env.workload.app_count(),
            env.baseline.pod_count()
        ));

        let roster: Vec<Box<dyn ResiliencePolicy>> = vec![
            Box::new(PhoenixPolicy::cost()),
            Box::new(PhoenixPolicy::fair()),
            Box::new(DefaultPolicy),
        ];
        for policy in &roster {
            let plan = policy.plan(&env.workload, &mut failed.clone());
            table.row([
                nodes.to_string(),
                policy.name().to_string(),
                secs(plan.planning_time.as_secs_f64()),
                plan.notes.clone(),
            ]);
        }

        // Cold vs. warm incremental replanning (monitor-tick scenario).
        for (kind, name) in [
            (ObjectiveKind::Cost, "PhoenixCost"),
            (ObjectiveKind::Fairness, "PhoenixFair"),
        ] {
            let (cold, warm) = measure_replan(&env, kind);
            table.row([
                nodes.to_string(),
                format!("{name}-warm"),
                secs(warm.as_secs_f64()),
                format!(
                    "cold {} -> {:.1}x faster",
                    secs(cold.as_secs_f64()),
                    cold.as_secs_f64() / warm.as_secs_f64()
                ),
            ]);
        }

        // Sequential vs. parallel multi-trial failure sweep.
        let (seq, par) = measure_sweep(nodes, sweep_trials);
        table.row([
            nodes.to_string(),
            "Sweep-par".to_string(),
            secs(par.as_secs_f64()),
            format!(
                "{sweep_trials} trials, seq {} -> {:.1}x faster",
                secs(seq.as_secs_f64()),
                seq.as_secs_f64() / par.as_secs_f64()
            ),
        ]);

        // The LP baselines run on a parallel small-app environment — the
        // paper's own setup ("even with applications with less than 20
        // microservices" the LP stops scaling past 1000 nodes): the ILP's
        // tractability is bounded by its binary count, so few small apps.
        if nodes <= lp_max_nodes {
            let lp_env = build_env(&EnvConfig {
                nodes,
                target_utilization: 600.0 / (nodes as f64 * 64.0),
                alibaba: AlibabaConfig {
                    apps: 8,
                    max_services: 16,
                    max_requests: 50_000.0,
                },
                seed: 5,
                ..EnvConfig::default()
            });
            let mut lp_failed = lp_env.baseline.clone();
            fail_fraction(&mut lp_failed, 0.8, &mut StdRng::seed_from_u64(5));
            out.line(format!(
                "{} nodes (LP env): {} small apps, {} pods",
                nodes,
                lp_env.workload.app_count(),
                lp_env.baseline.pod_count()
            ));
            for policy in [LpPolicy::cost(), LpPolicy::fair()] {
                let policy = policy.with_time_limit(Duration::from_secs(60));
                let plan = policy.plan(&lp_env.workload, &mut lp_failed.clone());
                table.row([
                    nodes.to_string(),
                    policy.name().to_string(),
                    secs(plan.planning_time.as_secs_f64()),
                    plan.notes.clone(),
                ]);
            }
        } else if scale != Scale::Smoke {
            table.row([
                nodes.to_string(),
                "LPCost/LPFair".into(),
                "DNS".into(),
                format!("does not scale past {lp_max_nodes} nodes"),
            ]);
        }
    }
    out.push_str(&table.titled("Figure 8b: time to compute a new target state"));
    Vec::new()
}
