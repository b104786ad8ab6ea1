//! The campaign runner: fan a suite of scenarios over the deterministic
//! `phoenix-exec` pool and score every `(scenario, policy)` run with the
//! tiered-RTO machinery into per-family scorecards.
//!
//! Every job — one scenario simulated under one policy — is independent,
//! so the runner is embarrassingly parallel; results are reduced strictly
//! in job order (scenario-major, policy-minor), which makes the scorecards
//! **byte-identical for every `PHOENIX_THREADS`** (the determinism
//! probe's golden fixture pins them at 1 and 4 threads).

use std::sync::LazyLock;

use phoenix_cluster::Resources;
use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::{AppSpecBuilder, ModeSpec, ServingMode, Workload};
use phoenix_core::tags::Criticality;
use phoenix_kubesim::rto::{evaluate_rto, evaluate_utility, RtoPolicy, RtoReport};
use phoenix_kubesim::run::{simulate_from, SimConfig, SimTrace, SteadyState};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::model::{ScenarioDoc, ScenarioError, SuiteDoc};
use crate::search::ViolationSignature;

/// Campaign configuration. It has no settings: every campaign cell and
/// hunt evaluation simulates under [`SimConfig::default`] and is scored
/// against [`RtoPolicy::paper_example`].
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig;

fn is_none_u64(v: &Option<u64>) -> bool {
    v.is_none()
}

/// Score of one `(scenario, policy)` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunScore {
    /// Scenario name.
    pub scenario: String,
    /// Scenario family slug.
    pub family: String,
    /// Policy display name.
    pub policy: String,
    /// Did every tiered RTO hold?
    pub rto_satisfied: bool,
    /// Outage episodes observed after the first disruption.
    pub outages: u32,
    /// Episodes that violated their tier's objective.
    pub violations: u32,
    /// Worst C1 restoration time, when any C1 service went down and came
    /// back (milliseconds).
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub worst_c1_recovery_ms: Option<u64>,
    /// Lowest pod-availability sample at/after the first disruption:
    /// serving pods of the baseline spec ÷ baseline pod count (replicas
    /// a surge added on top are not counted, so the ratio stays in
    /// `[0, 1]`).
    pub min_availability: f64,
    /// Pod availability (same definition) at the final sample.
    pub final_availability: f64,
    /// Lowest served-utility sample at/after the first disruption, as a
    /// fraction of the pre-disruption baseline. On mode-less workloads
    /// this tracks whole-service availability; on modal workloads it
    /// credits degraded serving — the utility-under-crunch metric.
    /// Defaults to 0.0 when deserializing pre-modes score documents.
    #[serde(default)]
    pub min_utility: f64,
    /// Served-utility fraction (same definition) at the final sample.
    #[serde(default)]
    pub final_utility: f64,
    /// Number of plans the agent produced.
    pub plans: u32,
    /// Nearest-rank p99 of this run's in-sim replan latencies
    /// (microseconds: a replan at campaign sizes takes well under a
    /// millisecond); `None` when the run never replanned.
    ///
    /// **Wall-clock plane**: planner latency is scheduling truth, not a
    /// function of the inputs, so this field is excluded from
    /// [`same_results`](RunScore::same_results) and every determinism
    /// check — exactly like `SweepPoint::plan_secs`. Additive in score
    /// documents (serde-defaulted, omitted when absent).
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub replan_us_p99: Option<u64>,
}

impl RunScore {
    /// Deterministic-plane equality: every field except the wall-clock
    /// [`replan_us_p99`](RunScore::replan_us_p99). This is what the
    /// thread-invariance tests and the determinism probe compare.
    pub fn same_results(&self, other: &RunScore) -> bool {
        let project = |s: &RunScore| {
            (
                s.scenario.clone(),
                s.family.clone(),
                s.policy.clone(),
                s.rto_satisfied,
                s.outages,
                s.violations,
                s.worst_c1_recovery_ms,
                s.min_availability.to_bits(),
                s.final_availability.to_bits(),
                s.min_utility.to_bits(),
                s.final_utility.to_bits(),
                s.plans,
            )
        };
        project(self) == project(other)
    }
}

/// Aggregate of one `(family, policy)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyScorecard {
    /// Family slug.
    pub family: String,
    /// Policy display name.
    pub policy: String,
    /// Scenarios in the cell.
    pub scenarios: u32,
    /// Scenarios whose every tiered RTO held.
    pub rto_pass: u32,
    /// Total objective violations across the cell.
    pub violations: u32,
    /// Mean of the per-run minimum availability.
    pub mean_min_availability: f64,
    /// Mean of the per-run final availability.
    pub mean_final_availability: f64,
    /// Mean of the per-run minimum utility fraction (see
    /// [`RunScore::min_utility`]). Defaults to 0.0 on pre-modes documents.
    #[serde(default)]
    pub mean_min_utility: f64,
    /// Mean of the per-run final utility fraction.
    #[serde(default)]
    pub mean_final_utility: f64,
    /// Worst C1 restoration across the cell (milliseconds).
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub worst_c1_recovery_ms: Option<u64>,
    /// Worst per-run replan-latency p99 across the cell (microseconds) —
    /// the planner-latency SLO the campaign scores. Wall-clock plane:
    /// excluded from [`same_results`](FamilyScorecard::same_results) and
    /// every determinism check. Additive (serde-defaulted).
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub replan_us_p99: Option<u64>,
}

impl FamilyScorecard {
    /// Deterministic-plane equality: every field except the wall-clock
    /// [`replan_us_p99`](FamilyScorecard::replan_us_p99).
    pub fn same_results(&self, other: &FamilyScorecard) -> bool {
        let project = |c: &FamilyScorecard| {
            (
                c.family.clone(),
                c.policy.clone(),
                c.scenarios,
                c.rto_pass,
                c.violations,
                c.mean_min_availability.to_bits(),
                c.mean_final_availability.to_bits(),
                c.mean_min_utility.to_bits(),
                c.mean_final_utility.to_bits(),
                c.worst_c1_recovery_ms,
            )
        };
        project(self) == project(other)
    }
}

/// Full campaign output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// One score per `(scenario, policy)`, scenario-major in suite order.
    pub scores: Vec<RunScore>,
    /// One card per `(family, policy)`, in first-appearance order.
    pub scorecards: Vec<FamilyScorecard>,
}

/// A deterministic multi-app workload for campaigns, benches, and probes:
/// `apps` tiered applications (critical frontend ×2, important mid tier,
/// optional cache + batch) with chain dependencies and varied pricing.
pub fn demo_workload(apps: u32) -> Workload {
    demo_build(apps, false)
}

/// [`demo_workload`] with degraded-serving ladders on the non-critical
/// tiers: `cache` can serve read-only at half demand, `batch` can shed to
/// a quarter-demand stub. `Full` demands match [`demo_workload`] exactly,
/// so binary-vs-modal campaign comparisons isolate mode selection.
pub fn demo_workload_modal(apps: u32) -> Workload {
    demo_build(apps, true)
}

fn demo_build(apps: u32, modal: bool) -> Workload {
    let mut out = Vec::new();
    for a in 0..apps.max(1) as u64 {
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let fe = b.add_service("fe", Resources::cpu(1.0), Some(Criticality::C1), 2);
        let mid = b.add_service(
            "mid",
            Resources::cpu(1.0 + (a % 2) as f64 * 0.5),
            Some(Criticality::C2),
            1,
        );
        let cache = b.add_service("cache", Resources::cpu(1.0), Some(Criticality::C3), 1);
        let batch = b.add_service("batch", Resources::cpu(2.0), Some(Criticality::C5), 1);
        b.add_dependency(fe, mid);
        b.add_dependency(mid, cache);
        b.add_dependency(mid, batch);
        b.price_per_unit(1.0 + (a % 3) as f64);
        if modal {
            b.service_modes(
                cache,
                vec![
                    ModeSpec::new(ServingMode::Full, Resources::cpu(1.0), 1.0),
                    ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(0.5), 0.6),
                ],
            );
            b.service_modes(
                batch,
                vec![
                    ModeSpec::new(ServingMode::Full, Resources::cpu(2.0), 1.0),
                    ModeSpec::new(ServingMode::Shed, Resources::cpu(0.5), 0.1),
                ],
            );
        }
        out.push(b.build().expect("valid demo spec"));
    }
    Workload::new(out)
}

/// Each policy's `t = 0` [`SteadyState`] on `doc`'s cluster shape, in
/// roster order; `None` throughout when there is no doc or it does not
/// compile. Campaign cells, hunt evaluations and shrink oracles replay
/// these instead of re-planning the same cold start per simulation. A
/// scenario of any other shape plans `t = 0` cold through
/// [`simulate_from`]'s shape check, which is byte-identical.
pub fn steady_states(
    workload: &Workload,
    policies: &[Box<dyn ResiliencePolicy>],
    doc: Option<&ScenarioDoc>,
) -> Vec<Option<SteadyState>> {
    let shape = doc.and_then(|d| d.compile().ok());
    policies
        .iter()
        .map(|p| {
            let shape = shape.as_ref()?;
            Some(SteadyState::compute(
                workload,
                p.as_ref(),
                &shape.node_capacities,
            ))
        })
        .collect()
}

/// The simulator settings every cell runs under, built once per process.
static SIM: LazyLock<SimConfig> = LazyLock::new(SimConfig::default);
/// The tiered objectives every cell is scored against, built once per
/// process.
static RTO: LazyLock<RtoPolicy> = LazyLock::new(RtoPolicy::paper_example);

/// One `(scenario, policy)` simulation and its tiered-RTO report from
/// the doc's first disruption: what a campaign cell and a hunt evaluation
/// both run. [`ViolationSignature::of`] reads what the run missed.
pub(crate) struct Cell {
    pub(crate) trace: SimTrace,
    pub(crate) disruption: SimTime,
    pub(crate) report: RtoReport,
}

impl Cell {
    pub(crate) fn simulate(
        workload: &Workload,
        doc: &ScenarioDoc,
        scenario: &Scenario,
        policy: &dyn ResiliencePolicy,
        steady: Option<&SteadyState>,
    ) -> Cell {
        let trace = simulate_from(workload, policy, scenario, &SIM, doc.horizon(), steady);
        let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);
        let report = evaluate_rto(&trace, workload, &RTO, disruption);
        Cell {
            trace,
            disruption,
            report,
        }
    }
}

/// Runs the campaign: every `(scenario, policy)` cell fans out on the
/// [exec pool](phoenix_exec::global) (`PHOENIX_THREADS`, or the caller's
/// [`with_threads`](phoenix_exec::with_threads) scope, which a policy
/// that fans out inside a cell inherits too). Each policy's `t = 0` plan
/// is captured once, on the first scenario's shape ([`steady_states`]).
/// `_cfg` carries no settings (see [`CampaignConfig`]).
///
/// # Errors
///
/// Propagates the first scenario validation error — nothing is simulated
/// unless the whole suite compiles.
pub fn run_campaign(
    workload: &Workload,
    suite: &SuiteDoc,
    policies: &[Box<dyn ResiliencePolicy>],
    _cfg: &CampaignConfig,
) -> Result<CampaignOutcome, ScenarioError> {
    if suite.version != SuiteDoc::VERSION {
        return Err(ScenarioError::Version(suite.version));
    }
    suite.check_surge_targets(workload.app_count())?;
    // `compile` validates each scenario — no separate validation pass.
    let compiled: Vec<_> = suite
        .scenarios
        .iter()
        .map(|s| s.compile().map(|c| (s, c)))
        .collect::<Result<_, _>>()?;

    let baseline_pods: usize = workload
        .apps()
        .map(|(_, a)| {
            a.services()
                .iter()
                .map(|s| s.replicas as usize)
                .sum::<usize>()
        })
        .sum();
    let steady = steady_states(workload, policies, suite.scenarios.first());

    let jobs: Vec<(usize, usize)> = (0..compiled.len())
        .flat_map(|si| (0..policies.len()).map(move |pi| (si, pi)))
        .collect();

    let scores = phoenix_exec::global().par_map(&jobs, |&(si, pi)| {
        phoenix_obs::current().incr(phoenix_obs::Counter::CampaignCells);
        let (doc, scenario) = &compiled[si];
        let policy = policies[pi].as_ref();
        let cell = Cell::simulate(workload, doc, scenario, policy, steady[pi].as_ref());
        let (trace, disruption) = (&cell.trace, cell.disruption);

        // Availability counts only pods of the *baseline* spec (replica
        // index within the pre-surge count): extra replicas spawned by a
        // surge neither push the ratio past 1.0 nor mask shed baseline
        // pods, so surge-family cells stay comparable to the others.
        let avail = |sample: &phoenix_kubesim::run::TraceSample| {
            if baseline_pods == 0 {
                return 0.0;
            }
            let in_baseline = sample
                .serving
                .iter()
                .filter(|&&p| workload.service_of_pod(p).is_some())
                .count();
            in_baseline as f64 / baseline_pods as f64
        };
        // Equal serving sets score equal availability, so each run of
        // them is scored once.
        let min_availability = trace
            .serving_runs(disruption)
            .map(|run| avail(&run[0]))
            .fold(f64::INFINITY, f64::min);
        let final_availability = trace.samples.last().map_or(0.0, avail);

        // Wall-clock plane: per-cell replan-latency p99, computed from
        // this run's own samples (not the global recorder — cells run in
        // parallel and must not see each other's latencies).
        let replan_us_p99 = {
            let mut us: Vec<u64> = trace
                .plans
                .iter()
                .map(|&(_, d)| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                .collect();
            us.sort_unstable();
            (!us.is_empty()).then(|| us[phoenix_obs::stats::percentile_index(us.len(), 0.99)])
        };

        let utility = evaluate_utility(trace, disruption);
        let final_utility = if utility.baseline <= 0.0 {
            1.0
        } else {
            trace.samples.last().map_or(0.0, |s| s.utility) / utility.baseline
        };

        let misses = ViolationSignature::of(&cell.report, doc.horizon());
        RunScore {
            scenario: doc.name.clone(),
            family: doc.family.clone(),
            policy: policy.name().to_string(),
            rto_satisfied: cell.report.satisfied(),
            outages: misses.outages,
            violations: misses.violations,
            worst_c1_recovery_ms: misses.worst_c1_recovery_ms,
            min_availability: if min_availability.is_finite() {
                min_availability
            } else {
                final_availability
            },
            final_availability,
            min_utility: utility.worst_fraction(),
            final_utility,
            plans: trace.plans.len() as u32,
            replan_us_p99,
        }
    });

    Ok(CampaignOutcome {
        scorecards: aggregate(&scores),
        scores,
    })
}

/// Folds run scores into `(family, policy)` cards, strictly in score
/// order (which is suite order — the deterministic reduction).
fn aggregate(scores: &[RunScore]) -> Vec<FamilyScorecard> {
    let mut cards: Vec<FamilyScorecard> = Vec::new();
    for s in scores {
        let card = match cards
            .iter_mut()
            .find(|c| c.family == s.family && c.policy == s.policy)
        {
            Some(c) => c,
            None => {
                cards.push(FamilyScorecard {
                    family: s.family.clone(),
                    policy: s.policy.clone(),
                    scenarios: 0,
                    rto_pass: 0,
                    violations: 0,
                    mean_min_availability: 0.0,
                    mean_final_availability: 0.0,
                    mean_min_utility: 0.0,
                    mean_final_utility: 0.0,
                    worst_c1_recovery_ms: None,
                    replan_us_p99: None,
                });
                cards.last_mut().expect("just pushed")
            }
        };
        card.scenarios += 1;
        card.rto_pass += u32::from(s.rto_satisfied);
        card.violations += s.violations;
        // Accumulate sums; normalized to means below.
        card.mean_min_availability += s.min_availability;
        card.mean_final_availability += s.final_availability;
        card.mean_min_utility += s.min_utility;
        card.mean_final_utility += s.final_utility;
        card.worst_c1_recovery_ms = card.worst_c1_recovery_ms.max(s.worst_c1_recovery_ms);
        // Worst run bounds the cell: the planner-latency SLO is a ceiling.
        card.replan_us_p99 = card.replan_us_p99.max(s.replan_us_p99);
    }
    for c in &mut cards {
        let n = f64::from(c.scenarios.max(1));
        c.mean_min_availability /= n;
        c.mean_final_availability /= n;
        c.mean_min_utility /= n;
        c.mean_final_utility /= n;
    }
    cards
}

/// Serializes a campaign outcome to pretty JSON.
///
/// # Errors
///
/// Propagates the underlying serializer error (cannot happen for valid
/// outcomes).
pub fn outcome_to_json(outcome: &CampaignOutcome) -> Result<String, ScenarioError> {
    Ok(serde_json::to_string_pretty(outcome)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_suite, GeneratorConfig};
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_exec::with_threads;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            nodes: 6,
            node_cpu: 4.0,
            scenarios_per_family: 2,
            apps: 2,
            seed: 9,
        }
    }

    fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
        vec![Box::new(PhoenixPolicy::fair()), Box::new(DefaultPolicy)]
    }

    #[test]
    fn campaign_produces_one_card_per_family_policy_cell() {
        let suite = generate_suite(&small_cfg());
        let out = run_campaign(&demo_workload(2), &suite, &roster(), &CampaignConfig).unwrap();
        assert_eq!(out.scores.len(), suite.scenarios.len() * 2);
        assert_eq!(out.scorecards.len(), 6 * 2);
        for c in &out.scorecards {
            assert_eq!(c.scenarios, 2, "{}/{}", c.family, c.policy);
            assert!(c.mean_min_availability >= 0.0 && c.mean_min_availability <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let suite = generate_suite(&small_cfg());
        let w = demo_workload(2);
        let run = |threads| {
            with_threads(threads, || {
                run_campaign(&w, &suite, &roster(), &CampaignConfig)
            })
        };
        let (seq, par) = (run(1).unwrap(), run(4).unwrap());
        assert_eq!(seq.scores.len(), par.scores.len());
        // Deterministic-plane projection: `replan_us_p99` is wall-clock
        // (planner latency genuinely varies with the thread count), so
        // the comparison goes through `same_results`, not `==`.
        for (a, b) in seq.scores.iter().zip(&par.scores) {
            assert!(
                a.same_results(b),
                "{} under {}: {a:?} vs {b:?}",
                a.scenario,
                a.policy
            );
        }
        assert_eq!(seq.scorecards.len(), par.scorecards.len());
        for (a, b) in seq.scorecards.iter().zip(&par.scorecards) {
            assert!(a.same_results(b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn replanned_cells_report_nonzero_replan_latency() {
        let suite = generate_suite(&small_cfg());
        let out = run_campaign(&demo_workload(2), &suite, &roster(), &CampaignConfig).unwrap();
        let replanned: Vec<_> = out.scores.iter().filter(|s| s.plans > 0).collect();
        assert!(!replanned.is_empty());
        for s in replanned {
            assert!(
                s.replan_us_p99.is_some_and(|us| us > 0),
                "{} under {}: {:?}",
                s.scenario,
                s.policy,
                s.replan_us_p99
            );
        }
    }

    /// Phoenix-fair planning, plus a record of which threads an inner
    /// 64-item fan-out inside `plan` ran on.
    #[derive(Debug, Default)]
    struct SpyPolicy {
        inner_threads: std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl ResiliencePolicy for SpyPolicy {
        fn name(&self) -> &'static str {
            "Spy"
        }

        fn plan(
            &self,
            workload: &Workload,
            state: &mut phoenix_cluster::ClusterState,
        ) -> phoenix_core::policies::PolicyPlan {
            let ids = phoenix_exec::global().par_map_range(64, |_| std::thread::current().id());
            self.inner_threads.lock().unwrap().extend(ids);
            PhoenixPolicy::fair().plan(workload, state)
        }
    }

    /// `with_threads(1)` reaches every layer under the campaign: a policy
    /// that fans out inside a cell never runs on a worker.
    #[test]
    fn one_thread_scope_reaches_the_planners_inside_a_campaign() {
        let suite = generate_suite(&GeneratorConfig {
            scenarios_per_family: 1,
            ..small_cfg()
        });
        let spy = SpyPolicy::default();
        let inner_threads = spy.inner_threads.clone();
        let roster: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(spy)];
        let caller = std::thread::current().id();
        with_threads(1, || {
            run_campaign(&demo_workload(2), &suite, &roster, &CampaignConfig)
        })
        .unwrap();
        let ids = inner_threads.lock().unwrap();
        assert!(ids.len() >= 64, "the spy never planned");
        assert!(
            ids.iter().all(|&id| id == caller),
            "{} of {} inner items ran off the caller's thread",
            ids.iter().filter(|&&id| id != caller).count(),
            ids.len()
        );
    }

    /// A capture handed to a different workload or policy — another
    /// objective, or the same one with other packing knobs — must not be
    /// replayed: each run equals a cold `simulate` of its own inputs.
    #[test]
    fn steady_capture_replays_only_for_its_own_workload_and_policy() {
        use phoenix_cluster::packing::{FitStrategy, PackingConfig};
        use phoenix_kubesim::run::simulate;
        let suite = generate_suite(&small_cfg());
        let doc = &suite.scenarios[0];
        let scenario = doc.compile().unwrap();
        let sim = SimConfig::default();
        let capture = SteadyState::compute(
            &demo_workload(2),
            &PhoenixPolicy::fair(),
            &scenario.node_capacities,
        );
        let fair = PhoenixPolicy::fair();
        let worst_fit = PhoenixPolicy::fair().packing_config(PackingConfig {
            fit: FitStrategy::WorstFit,
            ..PackingConfig::default()
        });
        let cases: [(Workload, &dyn ResiliencePolicy); 3] = [
            (demo_workload(3), &fair),
            (demo_workload(2), &DefaultPolicy),
            (demo_workload(2), &worst_fit),
        ];
        for (w, policy) in cases {
            let cold = simulate(&w, policy, &scenario, &sim, doc.horizon());
            let from = simulate_from(&w, policy, &scenario, &sim, doc.horizon(), Some(&capture));
            let tag = format!("{} apps under {}", w.app_count(), policy.name());
            assert_eq!(cold.samples, from.samples, "{tag}: stale capture replayed");
            assert_eq!(cold.milestones, from.milestones, "{tag}");
        }
    }

    /// Only the first scenario's shape is captured: a second shape plans
    /// `t = 0` cold, and must score exactly as it does on its own.
    #[test]
    fn mixed_shape_suite_scores_as_its_single_shape_campaigns() {
        let doc = |nodes| {
            let cfg = GeneratorConfig {
                nodes,
                scenarios_per_family: 1,
                ..small_cfg()
            };
            generate_suite(&cfg).scenarios.swap_remove(0)
        };
        let (a, b) = (doc(6), doc(9));
        assert_ne!(a.nodes, b.nodes);
        let w = demo_workload(2);
        let run = |scenarios: Vec<ScenarioDoc>| {
            let suite = SuiteDoc {
                version: SuiteDoc::VERSION,
                seed: 0,
                scenarios,
            };
            run_campaign(&w, &suite, &roster(), &CampaignConfig)
                .unwrap()
                .scores
        };
        let mixed = run(vec![a.clone(), b.clone()]);
        let alone: Vec<RunScore> = [run(vec![a]), run(vec![b])].concat();
        assert_eq!(mixed.len(), alone.len());
        for (m, s) in mixed.iter().zip(&alone) {
            assert!(m.same_results(s), "{m:?} vs {s:?}");
        }
    }

    #[test]
    fn phoenix_passes_more_rtos_than_default_overall() {
        let suite = generate_suite(&GeneratorConfig {
            scenarios_per_family: 3,
            ..small_cfg()
        });
        let out = run_campaign(&demo_workload(2), &suite, &roster(), &CampaignConfig).unwrap();
        let passes = |name: &str| {
            out.scorecards
                .iter()
                .filter(|c| c.policy == name)
                .map(|c| c.rto_pass)
                .sum::<u32>()
        };
        assert!(
            passes("PhoenixFair") >= passes("Default"),
            "PhoenixFair {} < Default {}",
            passes("PhoenixFair"),
            passes("Default")
        );
    }

    #[test]
    fn modal_workload_outscores_binary_on_utility_in_some_family() {
        // Same suite, same policy, same Full demands — the only difference
        // is that the modal workload declares degraded-serving ladders on
        // cache/batch. Under crunch the planner can step those tiers down
        // a rung instead of evicting, so at least one family's scorecard
        // must record strictly more served utility (the ISSUE acceptance
        // criterion: mode selection beats binary place/evict).
        let cfg = GeneratorConfig {
            nodes: 4,
            ..small_cfg()
        };
        let suite = generate_suite(&cfg);
        let policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
        let binary = run_campaign(&demo_workload(2), &suite, &policies, &CampaignConfig).unwrap();
        let modal =
            run_campaign(&demo_workload_modal(2), &suite, &policies, &CampaignConfig).unwrap();
        assert_eq!(binary.scorecards.len(), modal.scorecards.len());
        let mut some_family_strictly_better = false;
        for (b, m) in binary.scorecards.iter().zip(&modal.scorecards) {
            assert_eq!(
                (b.family.as_str(), b.policy.as_str()),
                (m.family.as_str(), m.policy.as_str())
            );
            assert!(m.mean_min_utility >= 0.0 && m.mean_min_utility <= 1.0 + 1e-9);
            if m.mean_min_utility > b.mean_min_utility + 1e-9 {
                some_family_strictly_better = true;
            }
        }
        assert!(
            some_family_strictly_better,
            "no family scorecard showed modal utility strictly above binary: {:?} vs {:?}",
            binary
                .scorecards
                .iter()
                .map(|c| (c.family.clone(), c.mean_min_utility))
                .collect::<Vec<_>>(),
            modal
                .scorecards
                .iter()
                .map(|c| (c.family.clone(), c.mean_min_utility))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn invalid_suite_is_rejected_before_simulation() {
        let mut suite = generate_suite(&small_cfg());
        suite.scenarios[0].events[0].kind = "meteor_strike".into();
        let err = run_campaign(&demo_workload(2), &suite, &roster(), &CampaignConfig).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKind { .. }));
    }

    #[test]
    fn suite_surging_missing_apps_is_rejected() {
        // A surge aimed past the workload's app count would be silently
        // swallowed mid-simulation, so the campaign refuses the pair.
        let mut suite = generate_suite(&small_cfg());
        suite.scenarios[0].events.push(crate::model::EventDoc {
            app: 7,
            demand_factor: 1.5,
            ..crate::model::EventDoc::new(1_000, "demand_surge")
        });
        let err = run_campaign(&demo_workload(2), &suite, &roster(), &CampaignConfig).unwrap_err();
        assert!(matches!(err, ScenarioError::BadEvent { .. }), "{err}");
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let suite = generate_suite(&GeneratorConfig {
            scenarios_per_family: 1,
            ..small_cfg()
        });
        let out = run_campaign(&demo_workload(1), &suite, &roster(), &CampaignConfig).unwrap();
        let json = outcome_to_json(&out).unwrap();
        let back: CampaignOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }
}
