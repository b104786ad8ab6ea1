//! Multi-trial failure sweeps: the engine behind Fig. 7 and Figs. 10–16.
//!
//! For each failure level, fail a random node subset of the baseline
//! environment, let every policy replan, and score the target states.
//! Results are averaged over trials with distinct seeds (the paper uses 5).
//!
//! Trials are fully independent — each builds its own environment from
//! its own seed — so [`failure_sweep`] fans them out across the
//! [`phoenix_exec`] pool and reduces the per-trial metric grids strictly
//! in trial order. The averaged output is **byte-identical for every
//! thread count** (see the tests; wall-clock `plan_secs` is the one
//! field that is never reproducible, threaded or not).

use phoenix_cluster::failure::fail_fraction;
use phoenix_core::policies::ResiliencePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{evaluate, revenue, SchemeMetrics};
use crate::scenario::{build_env, EnvConfig};

/// Averaged metrics for one `(policy, failure level)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Policy display name.
    pub policy: String,
    /// Fraction of cluster capacity failed (0.0–0.9).
    pub failure_frac: f64,
    /// Metrics averaged across trials.
    pub metrics: SchemeMetrics,
}

impl SweepPoint {
    /// Bitwise equality on everything except wall-clock planning time
    /// (see [`SchemeMetrics::same_results`]): the form of "identical"
    /// that thread counts are required to preserve.
    pub fn same_results(&self, other: &SweepPoint) -> bool {
        self.policy == other.policy
            && self.failure_frac.to_bits() == other.failure_frac.to_bits()
            && self.metrics.same_results(&other.metrics)
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Failure levels to test (e.g. `[0.1, 0.2, …, 0.9]`).
    pub failure_fracs: Vec<f64>,
    /// Number of independent trials (seeds); the paper averages 5.
    /// `0` is clamped to one trial.
    pub trials: u32,
}

impl SweepConfig {
    /// The effective trial count: `trials` clamped to at least one, as
    /// `usize`. Every consumer (loop bound, seed offset, averaging
    /// divisor) derives from this single clamp.
    pub fn effective_trials(&self) -> usize {
        self.trials.max(1) as usize
    }
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            failure_fracs: (1..=9).map(|i| i as f64 / 10.0).collect(),
            trials: 5,
        }
    }
}

/// One trial's metric grid: exactly one [`SchemeMetrics`] per
/// `(failure level, policy)` cell.
fn sweep_trial(
    env_cfg: &EnvConfig,
    sweep: &SweepConfig,
    policies: &[Box<dyn ResiliencePolicy>],
    trial: usize,
) -> Vec<SchemeMetrics> {
    let mut cfg = env_cfg.clone();
    cfg.seed = env_cfg.seed.wrapping_add(trial as u64);
    let mut env = build_env(&cfg);
    let baseline_revenue = revenue(&env.workload, &env.baseline);
    let mut grid = Vec::with_capacity(sweep.failure_fracs.len() * policies.len());

    // Snapshot the pristine baseline once; every failure level restores
    // it into the one working state, reusing its allocations. The restore
    // is bit-exact (same `used` bits, same iteration order), so the grid
    // is byte-identical to the historical clone-per-level loop.
    let pristine = env.baseline.snapshot();
    for (fi, &frac) in sweep.failure_fracs.iter().enumerate() {
        env.baseline.restore_to(&pristine);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(fi as u64));
        fail_fraction(&mut env.baseline, frac, &mut rng);

        for policy in policies {
            let mut target = env.baseline.clone();
            let plan = policy.plan(&env.workload, &mut target);
            grid.push(evaluate(
                &env.workload,
                &target,
                baseline_revenue,
                plan.planning_time.as_secs_f64(),
            ));
        }
    }
    grid
}

/// Runs the sweep; returns one [`SweepPoint`] per `(policy, level)`,
/// policies varying fastest. Trials fan out on the
/// [exec pool](phoenix_exec::global) (`PHOENIX_THREADS`, or the caller's
/// [`with_threads`](phoenix_exec::with_threads) scope).
///
/// Each trial is seeded independently and runs on its own environment,
/// so the only cross-trial step is the accumulation — which always folds
/// the per-trial grids in trial order, reproducing the sequential
/// accumulation bit for bit.
pub fn failure_sweep(
    env_cfg: &EnvConfig,
    sweep: &SweepConfig,
    policies: &[Box<dyn ResiliencePolicy>],
) -> Vec<SweepPoint> {
    let cells = sweep.failure_fracs.len() * policies.len();
    let trials = sweep.effective_trials();
    let grids = phoenix_exec::global().par_map_range_chunked(trials, 1, |trial| {
        phoenix_obs::current().incr(phoenix_obs::Counter::SweepTrials);
        sweep_trial(env_cfg, sweep, policies, trial)
    });

    let mut acc: Vec<SchemeMetrics> = vec![SchemeMetrics::default(); cells];
    for grid in grids {
        for (cell, m) in acc.iter_mut().zip(grid) {
            cell.availability += m.availability;
            cell.revenue += m.revenue;
            cell.fairness_pos += m.fairness_pos;
            cell.fairness_neg += m.fairness_neg;
            cell.utilization += m.utilization;
            cell.plan_secs += m.plan_secs;
        }
    }

    let t = trials as f64;
    sweep
        .failure_fracs
        .iter()
        .enumerate()
        .flat_map(|(fi, &frac)| {
            policies
                .iter()
                .enumerate()
                .map(move |(pi, p)| (fi, frac, pi, p))
        })
        .map(|(fi, frac, pi, policy)| {
            let m = acc[fi * policies.len() + pi];
            SweepPoint {
                policy: policy.name().to_string(),
                failure_frac: frac,
                metrics: SchemeMetrics {
                    availability: m.availability / t,
                    revenue: m.revenue / t,
                    fairness_pos: m.fairness_pos / t,
                    fairness_neg: m.fairness_neg / t,
                    utilization: m.utilization / t,
                    plan_secs: m.plan_secs / t,
                },
            }
        })
        .collect()
}

/// Convenience accessor: the point for `(policy, frac)`.
pub fn point<'a>(points: &'a [SweepPoint], policy: &str, frac: f64) -> Option<&'a SweepPoint> {
    points
        .iter()
        .find(|p| p.policy == policy && (p.failure_frac - frac).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::AlibabaConfig;
    use crate::resources::ResourceModel;
    use crate::tagging::TaggingScheme;
    use phoenix_core::policies::{DefaultPolicy, FairPolicy, PhoenixPolicy, PriorityPolicy};
    use phoenix_exec::with_threads;

    fn quick_env() -> EnvConfig {
        EnvConfig {
            nodes: 40,
            node_capacity: 64.0,
            target_utilization: 0.7,
            resource_model: ResourceModel::CallsPerMinute,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: AlibabaConfig {
                apps: 5,
                max_services: 80,
                max_requests: 40_000.0,
            },
            seed: 3,
        }
    }

    fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
        vec![
            Box::new(PhoenixPolicy::cost()),
            Box::new(PhoenixPolicy::fair()),
            Box::new(PriorityPolicy),
            Box::new(FairPolicy),
            Box::new(DefaultPolicy),
        ]
    }

    #[test]
    fn sweep_shapes_match_the_paper() {
        let points = failure_sweep(
            &quick_env(),
            &SweepConfig {
                failure_fracs: vec![0.1, 0.5, 0.8],
                trials: 2,
            },
            &roster(),
        );
        assert_eq!(points.len(), 15);

        // Availability decreases with failure severity for every policy.
        for name in ["PhoenixCost", "PhoenixFair", "Priority", "Fair", "Default"] {
            let a = point(&points, name, 0.1).unwrap().metrics.availability;
            let c = point(&points, name, 0.8).unwrap().metrics.availability;
            assert!(a >= c - 1e-9, "{name}: {a} vs {c}");
        }

        // The paper's headline: Phoenix beats the non-cooperative baselines
        // at moderate-to-heavy failure levels.
        for frac in [0.5, 0.8] {
            let phx = point(&points, "PhoenixFair", frac)
                .unwrap()
                .metrics
                .availability
                .max(
                    point(&points, "PhoenixCost", frac)
                        .unwrap()
                        .metrics
                        .availability,
                );
            let dfl = point(&points, "Default", frac)
                .unwrap()
                .metrics
                .availability;
            assert!(phx >= dfl, "frac {frac}: Phoenix {phx} < Default {dfl}");
        }

        // PhoenixCost maximizes revenue among the roster at 50 %.
        let rev = |n: &str| point(&points, n, 0.5).unwrap().metrics.revenue;
        assert!(rev("PhoenixCost") + 1e-9 >= rev("Fair"));
        assert!(rev("PhoenixCost") + 1e-9 >= rev("Default"));

        // PhoenixFair has the smallest total fairness deviation.
        let dev = |n: &str| {
            let m = point(&points, n, 0.5).unwrap().metrics;
            m.fairness_pos + m.fairness_neg
        };
        for n in ["Priority", "Default"] {
            assert!(
                dev("PhoenixFair") <= dev(n) + 1e-9,
                "PhoenixFair dev {} vs {n} {}",
                dev("PhoenixFair"),
                dev(n)
            );
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Everything except wall-clock plan_secs must be byte-identical
        // between a sequential and an oversubscribed parallel run.
        let cfg = SweepConfig {
            failure_fracs: vec![0.2, 0.6],
            trials: 3,
        };
        let run = |threads| with_threads(threads, || failure_sweep(&quick_env(), &cfg, &roster()));
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert!(
                a.same_results(b),
                "{} @ {}: {:?} vs {:?}",
                a.policy,
                a.failure_frac,
                a.metrics,
                b.metrics
            );
        }
    }

    #[test]
    fn zero_trials_clamps_to_one() {
        let cfg = SweepConfig {
            failure_fracs: vec![0.5],
            trials: 0,
        };
        assert_eq!(cfg.effective_trials(), 1);
        let points = failure_sweep(
            &quick_env(),
            &cfg,
            &[Box::new(PhoenixPolicy::fair()) as Box<dyn ResiliencePolicy>],
        );
        assert_eq!(points.len(), 1);
        assert!(points[0].metrics.availability.is_finite());
    }

    #[test]
    fn zero_failure_keeps_full_availability_for_phoenix() {
        let points = failure_sweep(
            &quick_env(),
            &SweepConfig {
                failure_fracs: vec![0.0],
                trials: 1,
            },
            &[Box::new(PhoenixPolicy::fair()) as Box<dyn ResiliencePolicy>],
        );
        assert!((points[0].metrics.availability - 1.0).abs() < 1e-9);
        assert!((points[0].metrics.revenue - 1.0).abs() < 1e-9);
    }
}
