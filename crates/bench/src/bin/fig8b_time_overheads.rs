//! Figure 8b: planning time vs. cluster size for Phoenix, Default, and the
//! ILP baselines — plus the cold-vs-warm incremental replanning comparison.
//!
//! Default sizes are 100 → 10 000 nodes; `--full` appends 100 000 (the
//! paper's largest point — Phoenix must stay under 10 s) and `--smoke`
//! shrinks to the 100-node point with no ILP (the CI perf-trajectory
//! step). The ILPs run only at the smallest sizes with a `--lp-secs`
//! budget (default 60 s) and report DNF beyond it, reproducing "the LP
//! does not scale beyond 1000-server clusters".
//!
//! Besides the figure table it prints, per size and objective, the warm
//! replan (`-warm`), the cold plan on the `phoenix-exec` pool (`-par`) and
//! a sequential-vs-parallel multi-trial AdaptLab sweep (`Sweep-par`) —
//! after asserting warm == cold action plans and byte-identical
//! sequential/parallel sweeps. `--threads N` (or `PHOENIX_THREADS`) sets
//! the pool size. The numbers are for reading; the recorded perf ledger
//! is `benchmark/`.

use std::time::{Duration, Instant};

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::runner::{failure_sweep, SweepConfig, SweepPoint};
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_adaptlab::tagging::TaggingScheme;
use phoenix_bench::{arg, flag, init_threads, replan_scenario, secs, Table};
use phoenix_cluster::failure::fail_fraction;
use phoenix_core::controller::{plan_with, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{DefaultPolicy, LpPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::replan::ReplanDelta;
use phoenix_exec::with_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One cold/warm measurement.
struct ReplanRow {
    cold: Duration,
    cold_par: Duration,
    warm: Duration,
}

/// One sequential-vs-parallel sweep measurement.
struct SweepRow {
    trials: u32,
    seq: Duration,
    par: Duration,
}

/// Min-of-N cold rounds (sequential and on the global pool) vs. min-of-N
/// warm rounds on the shared monitor-tick scenario (converged cluster,
/// alternating one/two failed nodes), with the warm/cold action plans
/// asserted equal first inside
/// [`replan_scenario::converge_and_degrade`].
fn measure_replan(env: &phoenix_adaptlab::scenario::AdaptLabEnv, kind: ObjectiveKind) -> ReplanRow {
    let (mut controller, failed_a, failed_b) = replan_scenario::converge_and_degrade(env, kind);
    let cfg = PhoenixConfig::with_objective(kind);
    let rounds = 6;
    let mut cold = Duration::MAX;
    let mut cold_par = Duration::MAX;
    let mut warm = Duration::MAX;
    for i in 0..rounds {
        let state = if i % 2 == 0 { &failed_a } else { &failed_b };
        let t = Instant::now();
        let _ = with_threads(1, || plan_with(&env.workload, state, &cfg));
        cold = cold.min(t.elapsed());
        let t = Instant::now();
        let _ = plan_with(&env.workload, state, &cfg);
        cold_par = cold_par.min(t.elapsed());
        let t = Instant::now();
        let _ = controller.replan(state, ReplanDelta::CapacityOnly);
        warm = warm.min(t.elapsed());
    }
    ReplanRow {
        cold,
        cold_par,
        warm,
    }
}

/// Asserts two sweep runs agree on everything but wall-clock timings
/// ([`SweepPoint::same_results`]).
fn assert_sweeps_equal(seq: &[SweepPoint], par: &[SweepPoint]) {
    assert_eq!(seq.len(), par.len(), "sweep shapes diverged");
    for (a, b) in seq.iter().zip(par) {
        assert!(
            a.same_results(b),
            "seq/par sweep divergence at {} {}",
            a.policy,
            a.failure_frac
        );
    }
}

/// Times one multi-trial AdaptLab failure sweep sequentially and on the
/// global pool, asserting the two outputs byte-identical first.
fn measure_sweep(nodes: usize, trials: u32, seed: u64) -> SweepRow {
    let env = EnvConfig {
        nodes,
        node_capacity: 64.0,
        target_utilization: 0.75,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            max_services: (nodes * 3).min(3000),
            ..AlibabaConfig::default()
        },
        seed,
        ..EnvConfig::default()
    };
    let sweep = SweepConfig {
        failure_fracs: vec![0.2, 0.5, 0.8],
        trials,
        ..SweepConfig::default()
    };
    let roster: Vec<Box<dyn ResiliencePolicy>> = vec![
        Box::new(PhoenixPolicy::cost()),
        Box::new(PhoenixPolicy::fair()),
    ];

    // `with_threads(1)` pins the *whole* call tree (inner `plan_with`
    // included) to the calling thread.
    let t = Instant::now();
    let seq_points = with_threads(1, || failure_sweep(&env, &sweep, &roster));
    let seq = t.elapsed();
    let t = Instant::now();
    let par_points = failure_sweep(&env, &sweep, &roster);
    let par = t.elapsed();
    assert_sweeps_equal(&seq_points, &par_points);
    SweepRow { trials, seq, par }
}

fn main() {
    let threads = init_threads();
    let smoke = flag("smoke");
    let mut sizes = if smoke {
        vec![100usize]
    } else {
        vec![100usize, 1_000, 10_000]
    };
    if flag("full") {
        sizes.push(100_000);
    }
    let lp_secs = arg("lp-secs", 60u64);
    let lp_max_nodes: usize = if smoke { 0 } else { arg("lp-max-nodes", 1_000) };
    let sweep_trials: u32 = arg("sweep-trials", if smoke { 2 } else { 3 });
    println!("phoenix-exec pool: {threads} threads");

    let mut table = Table::new(["nodes", "scheme", "plan time", "notes"]);
    for &nodes in &sizes {
        // Scale the trace down for small clusters so the fill succeeds.
        let ali = if nodes >= 10_000 {
            AlibabaConfig::default()
        } else {
            AlibabaConfig {
                max_services: (nodes * 3).min(3000),
                ..AlibabaConfig::default()
            }
        };
        let env = build_env(&EnvConfig {
            nodes,
            node_capacity: 64.0,
            target_utilization: 0.75,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: ali,
            seed: 5,
            ..EnvConfig::default()
        });
        let mut failed = env.baseline.clone();
        let mut rng = StdRng::seed_from_u64(5);
        fail_fraction(&mut failed, 0.5, &mut rng);
        println!(
            "{} nodes: {} app instances, {} pods",
            nodes,
            env.workload.app_count(),
            env.baseline.pod_count()
        );

        let roster: Vec<Box<dyn ResiliencePolicy>> = vec![
            Box::new(PhoenixPolicy::cost()),
            Box::new(PhoenixPolicy::fair()),
            Box::new(DefaultPolicy),
        ];
        for policy in &roster {
            let plan = policy.plan(&env.workload, &failed);
            table.row([
                nodes.to_string(),
                policy.name().to_string(),
                secs(plan.planning_time.as_secs_f64()),
                plan.notes.clone(),
            ]);
        }

        // Cold vs. warm incremental replanning (monitor-tick scenario),
        // plus the data-parallel cold path on the global pool.
        for kind in [ObjectiveKind::Cost, ObjectiveKind::Fairness] {
            let row = measure_replan(&env, kind);
            let (warm_label, par_label) = match kind {
                ObjectiveKind::Cost => ("PhoenixCost-warm", "PhoenixCost-par"),
                ObjectiveKind::Fairness => ("PhoenixFair-warm", "PhoenixFair-par"),
            };
            table.row([
                nodes.to_string(),
                warm_label.to_string(),
                secs(row.warm.as_secs_f64()),
                format!(
                    "cold {} -> {:.1}x faster",
                    secs(row.cold.as_secs_f64()),
                    row.cold.as_secs_f64() / row.warm.as_secs_f64()
                ),
            ]);
            table.row([
                nodes.to_string(),
                par_label.to_string(),
                secs(row.cold_par.as_secs_f64()),
                format!(
                    "cold x{threads} threads -> {:.1}x faster",
                    row.cold.as_secs_f64() / row.cold_par.as_secs_f64()
                ),
            ]);
        }

        // Sequential vs. parallel multi-trial failure sweep (byte-equal
        // outputs asserted inside).
        let sw = measure_sweep(nodes, sweep_trials, 5);
        table.row([
            nodes.to_string(),
            "Sweep-par".to_string(),
            secs(sw.par.as_secs_f64()),
            format!(
                "{} trials, seq {} -> {:.1}x faster",
                sw.trials,
                secs(sw.seq.as_secs_f64()),
                sw.seq.as_secs_f64() / sw.par.as_secs_f64()
            ),
        ]);

        // The LP baselines run on a parallel small-app environment — the
        // paper's own setup ("even with applications with less than 20
        // microservices" the LP stops scaling past 1000 nodes).
        if nodes <= lp_max_nodes {
            let lp_env = build_env(&EnvConfig {
                nodes,
                node_capacity: 64.0,
                // A thin workload: the ILP's tractability is bounded by its
                // binary count, so the LP curve uses few small apps (the
                // paper similarly notes the LP fails "even with
                // applications with less than 20 microservices").
                target_utilization: 600.0 / (nodes as f64 * 64.0),
                tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
                alibaba: AlibabaConfig {
                    apps: 8,
                    max_services: 16,
                    max_requests: 50_000.0,
                    ..AlibabaConfig::default()
                },
                seed: 5,
                ..EnvConfig::default()
            });
            let mut lp_failed = lp_env.baseline.clone();
            let mut rng = StdRng::seed_from_u64(5);
            fail_fraction(&mut lp_failed, 0.8, &mut rng);
            println!(
                "{} nodes (LP env): {} small apps, {} pods",
                nodes,
                lp_env.workload.app_count(),
                lp_env.baseline.pod_count()
            );
            for policy in [
                LpPolicy::cost().with_time_limit(Duration::from_secs(lp_secs)),
                LpPolicy::fair().with_time_limit(Duration::from_secs(lp_secs)),
            ] {
                let plan = policy.plan(&lp_env.workload, &lp_failed);
                table.row([
                    nodes.to_string(),
                    policy.name().to_string(),
                    secs(plan.planning_time.as_secs_f64()),
                    plan.notes.clone(),
                ]);
            }
        } else if !smoke {
            table.row([
                nodes.to_string(),
                "LPCost/LPFair".into(),
                "DNS".into(),
                format!("does not scale past {lp_max_nodes} nodes"),
            ]);
        }
    }
    table.print("Figure 8b: time to compute a new target state");
}
