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

use phoenix_cluster::failure::{fail_fraction, fail_zones};
use phoenix_core::policies::ResiliencePolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use serde::{Deserialize, Serialize};

use crate::metrics::{evaluate, revenue, SchemeMetrics};
use crate::scenario::{build_env, EnvConfig};

/// Averaged metrics for one `(policy, failure level)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// How victims are chosen at each failure level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureModel {
    /// Uniformly random nodes (the paper's sweeps).
    #[default]
    Random,
    /// Whole zones at a time (rack/PDU blast radius), with the given zone
    /// count striped over node ids.
    Zoned {
        /// Number of zones in the cluster.
        zones: usize,
    },
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Failure levels to test (e.g. `[0.1, 0.2, …, 0.9]`).
    pub failure_fracs: Vec<f64>,
    /// Number of independent trials (seeds); the paper averages 5.
    /// `0` is clamped to one trial.
    pub trials: u32,
    /// Victim selection model.
    pub failure_model: FailureModel,
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
            failure_model: FailureModel::Random,
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

    // Snapshot the pristine baseline once; every failure level rewinds to
    // it in O(mutations) instead of deep-cloning the whole state. The
    // restore is bit-exact (same `used` bits, same iteration order), so
    // the grid is byte-identical to the historical clone-per-level loop.
    let pristine = env.baseline.snapshot();
    for (fi, &frac) in sweep.failure_fracs.iter().enumerate() {
        env.baseline.restore_to(&pristine);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(fi as u64));
        match sweep.failure_model {
            FailureModel::Random => {
                fail_fraction(&mut env.baseline, frac, &mut rng);
            }
            FailureModel::Zoned { zones } => {
                fail_zones(&mut env.baseline, zones.max(1), frac, &mut rng);
            }
        }

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

/// One `(scenario, policy)` cell of a [`scripted_sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptedPoint {
    /// Scenario name.
    pub scenario: String,
    /// Scenario family slug.
    pub family: String,
    /// Policy display name.
    pub policy: String,
    /// Metrics of the policy's plan against the scenario's worst moment.
    pub metrics: SchemeMetrics,
}

/// Plans-only sweep over a generated scenario suite: for each scenario,
/// reconstruct its **peak concurrent outage** — the instant with the most
/// effective capacity lost, replaying stop/start, zone/rack, flap, and
/// gray-degrade events — apply that state (plus any demand surges that
/// landed before it) to the baseline environment, and score every policy.
///
/// Where [`failure_sweep`] draws random victims per degree, this reuses
/// the `phoenix-scenarios` family generators, so the planner is graded
/// against *shaped* trouble (cascades, blast radii, aging) with zero new
/// randomness: the suite fully determines the sweep.
///
/// Scenarios fan out on the [exec pool](phoenix_exec::global) and the
/// result grid is collected in suite order (policies varying fastest), so
/// the sweep is byte-identical for every thread count.
///
/// # Errors
///
/// Propagates suite validation errors before planning anything.
pub fn scripted_sweep(
    env_cfg: &EnvConfig,
    suite: &phoenix_scenarios::model::SuiteDoc,
    policies: &[Box<dyn ResiliencePolicy>],
) -> Result<Vec<ScriptedPoint>, phoenix_scenarios::model::ScenarioError> {
    suite.validate()?;
    let env = build_env(env_cfg);
    let grids = phoenix_exec::global().par_map(&suite.scenarios, |doc| {
        let (failed, workload) = peak_outage_state(&env, doc);
        let baseline_revenue = revenue(&workload, &env.baseline);
        policies
            .iter()
            .map(|policy| {
                let mut target = failed.clone();
                let plan = policy.plan(&workload, &mut target);
                ScriptedPoint {
                    scenario: doc.name.clone(),
                    family: doc.family.clone(),
                    policy: policy.name().to_string(),
                    metrics: evaluate(
                        &workload,
                        &target,
                        baseline_revenue,
                        plan.planning_time.as_secs_f64(),
                    ),
                }
            })
            .collect::<Vec<ScriptedPoint>>()
    });
    Ok(grids.into_iter().flatten().collect())
}

/// Replays `doc`'s script over the baseline cluster and returns the state
/// at the moment of maximal effective-capacity loss, together with the
/// workload as surged up to that moment. Scenario node ids beyond the
/// environment's cluster are ignored; zone/rack membership is computed
/// over the environment's own node count (the suite should be generated
/// with `nodes == env.nodes` for full fidelity).
fn peak_outage_state(
    env: &crate::scenario::AdaptLabEnv,
    doc: &phoenix_scenarios::model::ScenarioDoc,
) -> (phoenix_cluster::ClusterState, phoenix_core::spec::Workload) {
    use phoenix_kubesim::scenario::{rack_members, zone_members};

    let n = env.baseline.node_count();
    let node_cap = |i: usize| {
        env.baseline
            .capacity(phoenix_cluster::NodeId::new(i as u32))
    };
    let mut events: Vec<&phoenix_scenarios::model::EventDoc> = doc.events.iter().collect();
    events.sort_by_key(|e| e.at_ms);

    // One outage-script step: applies `ev` to the per-node down/degrade
    // vectors (shared by the forward scan and the best-prefix replay, so
    // the two can never disagree).
    let apply = |ev: &phoenix_scenarios::model::EventDoc, down: &mut [bool], factor: &mut [f64]| {
        let ids: Vec<u32> = match ev.kind.as_str() {
            "zone_outage" | "zone_restore" => zone_members(n, ev.zones, ev.zone),
            "rack_outage" | "rack_restore" => rack_members(n, ev.zones, ev.zone),
            _ => ev.nodes.clone(),
        };
        let ids = ids.into_iter().filter(|&i| (i as usize) < n);
        match ev.kind.as_str() {
            // Flap groups count as down at their start (the pessimistic
            // reading: the sweep grades the worst instant).
            "kubelet_stop" | "zone_outage" | "rack_outage" | "flap" => {
                ids.for_each(|i| down[i as usize] = true);
            }
            "kubelet_start" | "zone_restore" | "rack_restore" => {
                ids.for_each(|i| down[i as usize] = false);
            }
            "capacity_degrade" => {
                let f = ev.factor.clamp(0.0, 1.0);
                ids.for_each(|i| factor[i as usize] = f);
            }
            "capacity_restore" => {
                ids.for_each(|i| factor[i as usize] = 1.0);
            }
            _ => {}
        }
    };

    let mut down = vec![false; n];
    let mut factor = vec![1.0f64; n];
    let mut best_loss = -1.0f64;
    let mut best_at = 0u64;
    // Length of the event prefix producing the peak — tracking the index
    // replaces the per-hit `down`/`factor` vector clones the scan used to
    // make (the `>=` below fires on *every* equal-loss event).
    let mut best_prefix = 0usize;
    for (ei, ev) in events.iter().enumerate() {
        apply(ev, &mut down, &mut factor);
        let loss: f64 = (0..n)
            .map(|i| {
                let cap = node_cap(i).scalar();
                if down[i] {
                    cap
                } else {
                    cap * (1.0 - factor[i])
                }
            })
            .sum();
        // `>=`: among equal-loss instants keep the **latest**, so events
        // that do not move capacity — above all a demand surge landing
        // while the hole is still open — advance `best_at` and are
        // included in the graded moment. (A surge-under-crunch scenario
        // peaks at its stop event; the surge arrives later at unchanged
        // loss, and grading the pre-surge workload would measure nothing
        // beyond a plain crunch.)
        if loss >= best_loss {
            best_loss = loss;
            best_at = ev.at_ms;
            best_prefix = ei + 1;
        }
    }
    // Re-derive the peak's node state by replaying the winning prefix —
    // the same `apply` steps, so bit-identical to the scan's view there.
    let mut best_down = vec![false; n];
    let mut best_factor = vec![1.0f64; n];
    for ev in &events[..best_prefix] {
        apply(ev, &mut best_down, &mut best_factor);
    }

    let mut failed = env.baseline.clone();
    for i in 0..n {
        let node = phoenix_cluster::NodeId::new(i as u32);
        if best_down[i] {
            failed.fail_node(node);
        } else if best_factor[i] != 1.0 {
            failed.set_degrade(node, best_factor[i]);
        }
    }
    let mut workload = env.workload.clone();
    for ev in events {
        if ev.kind == "demand_surge"
            && ev.at_ms <= best_at
            && (ev.app as usize) < workload.app_count()
        {
            workload.scale_app(
                phoenix_core::spec::AppId::new(ev.app),
                ev.demand_factor,
                ev.replica_factor,
            );
        }
    }
    (failed, workload)
}

/// Serializes sweep results to pretty JSON (for plotting pipelines).
///
/// # Errors
///
/// Returns the underlying `serde_json` error on failure (cannot happen
/// for valid points).
pub fn to_json(points: &[SweepPoint]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(points)
}

/// Restores sweep results from JSON.
///
/// # Errors
///
/// Returns the underlying `serde_json` error on malformed input.
pub fn from_json(json: &str) -> Result<Vec<SweepPoint>, serde_json::Error> {
    serde_json::from_str(json)
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
                ..AlibabaConfig::default()
            },
            seed: 3,
        }
    }

    fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
        vec![
            Box::new(PhoenixPolicy::cost()),
            Box::new(PhoenixPolicy::fair()),
            Box::new(PriorityPolicy::default()),
            Box::new(FairPolicy::default()),
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
                ..SweepConfig::default()
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
    fn zoned_failures_run_and_phoenix_still_leads() {
        let points = failure_sweep(
            &quick_env(),
            &SweepConfig {
                failure_fracs: vec![0.5],
                trials: 1,
                failure_model: FailureModel::Zoned { zones: 8 },
            },
            &roster(),
        );
        let phx = point(&points, "PhoenixFair", 0.5)
            .unwrap()
            .metrics
            .availability;
        let dfl = point(&points, "Default", 0.5).unwrap().metrics.availability;
        assert!(phx >= dfl, "zoned: {phx} < {dfl}");
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Everything except wall-clock plan_secs must be byte-identical
        // between a sequential and an oversubscribed parallel run.
        let cfg = SweepConfig {
            failure_fracs: vec![0.2, 0.6],
            trials: 3,
            ..SweepConfig::default()
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
            ..SweepConfig::default()
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
    fn sweep_results_round_trip_through_json() {
        let points = failure_sweep(
            &quick_env(),
            &SweepConfig {
                failure_fracs: vec![0.5],
                trials: 1,
                ..SweepConfig::default()
            },
            &[Box::new(PhoenixPolicy::fair()) as Box<dyn ResiliencePolicy>],
        );
        let json = to_json(&points).unwrap();
        let restored = from_json(&json).unwrap();
        assert_eq!(points, restored);
    }

    #[test]
    fn scripted_sweep_reuses_scenario_families_deterministically() {
        use phoenix_scenarios::generate::{generate_suite, Family, GeneratorConfig};
        let suite = generate_suite(&GeneratorConfig {
            nodes: 40,
            node_cpu: 64.0,
            scenarios_per_family: 1,
            apps: 5,
            seed: 3,
        });
        let points = scripted_sweep(&quick_env(), &suite, &roster()).unwrap();
        assert_eq!(points.len(), suite.scenarios.len() * roster().len());
        // Grid order: scenarios in suite order, policies varying fastest.
        assert_eq!(points[0].scenario, suite.scenarios[0].name);
        assert_eq!(points[0].policy, "PhoenixCost");
        for f in Family::all() {
            assert!(
                points.iter().any(|p| p.family == f.slug()),
                "{} missing",
                f.slug()
            );
        }
        // Thread-count invariance, modulo wall-clock.
        let run =
            |threads| with_threads(threads, || scripted_sweep(&quick_env(), &suite, &roster()));
        let (seq, par) = (run(1).unwrap(), run(4).unwrap());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.scenario, b.scenario);
            assert!(
                a.metrics.same_results(&b.metrics),
                "{} under {} diverged",
                a.scenario,
                a.policy
            );
        }
        // Phoenix keeps critical availability at least at Default's level
        // across the whole shaped sweep.
        let avg = |name: &str| {
            let (s, c) = points
                .iter()
                .filter(|p| p.policy == name)
                .fold((0.0, 0u32), |(s, c), p| (s + p.metrics.availability, c + 1));
            s / f64::from(c.max(1))
        };
        assert!(avg("PhoenixFair") >= avg("Default") - 1e-9);
    }

    #[test]
    fn scripted_sweep_rejects_invalid_suites() {
        use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
        let mut suite = generate_suite(&GeneratorConfig::default());
        suite.scenarios[0].events[0].kind = "meteor_strike".into();
        assert!(scripted_sweep(&quick_env(), &suite, &roster()).is_err());
    }

    #[test]
    fn zero_failure_keeps_full_availability_for_phoenix() {
        let points = failure_sweep(
            &quick_env(),
            &SweepConfig {
                failure_fracs: vec![0.0],
                trials: 1,
                ..SweepConfig::default()
            },
            &[Box::new(PhoenixPolicy::fair()) as Box<dyn ResiliencePolicy>],
        );
        assert!((points[0].metrics.availability - 1.0).abs() < 1e-9);
        assert!((points[0].metrics.revenue - 1.0).abs() < 1e-9);
    }
}
