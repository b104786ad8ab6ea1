//! The only file that names `phoenix::*`.
//!
//! Rule: call the long-lived entry points only —
//! `PhoenixController::{new, plan, replan}`, `ResiliencePolicy::plan`,
//! `app_rank`, `global_rank`, `RankInputs::fair_shares`, `pack`,
//! `diff_states`, `ClusterState::{clone, snapshot, restore_to, fail_node,
//! restore_node, check_invariants}`, `build_env`,
//! `critical_service_availability`, `simulate`, `evaluate_rto`,
//! `evaluate_utility`, `SteadyState::compute`, `generate_suite`,
//! `ScenarioDoc::compile`, `to_json`/`from_json`, `run_campaign`,
//! `run_hunt` — never a `_with` / `_pool` / `_on` / `_sharded` twin the
//! ROADMAP slates for deletion. A PR that reshapes the planner API then
//! has exactly one benchmark file to touch.
//!
//! Layers are timed from outside: every span here wraps one call into a
//! layer's public function.

use phoenix::adaptlab::alibaba::AlibabaConfig;
use phoenix::adaptlab::metrics::critical_service_availability;
use phoenix::adaptlab::scenario::{build_env, AdaptLabEnv, EnvConfig};
use phoenix::adaptlab::tagging::TaggingScheme;
use phoenix::cluster::packing::{pack, PackOutcome, PlannedPod};
use phoenix::cluster::{ClusterState, NodeId, Snapshot};
use phoenix::core::actions::{diff_states, Action, ActionPlan};
use phoenix::core::controller::{PhoenixConfig, PhoenixController, PlanResult};
use phoenix::core::objectives::ObjectiveKind;
use phoenix::core::planner::app_rank;
use phoenix::core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix::core::ranking::{global_rank, RankInputs};
use phoenix::core::replan::ReplanDelta;
use phoenix::core::spec::{AppSpec, ServiceId, Workload};
use phoenix::core::tags::Criticality;
use phoenix::kubesim::rto::{evaluate_rto, evaluate_utility, RtoPolicy};
use phoenix::kubesim::run::{simulate, MilestoneKind, SimConfig, SimTrace, SteadyState};
use phoenix::kubesim::scenario::Scenario;
use phoenix::kubesim::time::SimTime;
use phoenix::scenarios::campaign::{run_campaign, CampaignConfig};
use phoenix::scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix::scenarios::model::{from_json, to_json, EventDoc, ScenarioDoc, SuiteDoc};
use phoenix::scenarios::search::{run_hunt, HuntConfig};

use crate::inputs::DrillScenario;
use crate::sizes::ENV_SEED;
use crate::stats::Fnv;
use crate::trace::Tracer;

/// Per-node capacity of every environment (the AdaptLab default).
const NODE_CAPACITY: f64 = 64.0;

/// An AdaptLab environment: workload + fully placed healthy cluster.
pub struct Env(AdaptLabEnv);

impl Env {
    /// Builds the environment at `nodes` (75 % utilization, service-level
    /// p90 tags, DGs up to `min(3·nodes, 3000)` services).
    pub fn build(nodes: usize, tracer: &mut Tracer) -> Env {
        let span = tracer.begin("adaptlab.scenario.build_env");
        let env = build_env(&EnvConfig {
            nodes,
            node_capacity: NODE_CAPACITY,
            target_utilization: 0.75,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: AlibabaConfig {
                max_services: (nodes * 3).min(3000),
                ..AlibabaConfig::default()
            },
            seed: ENV_SEED,
            ..EnvConfig::default()
        });
        tracer.end(span);
        Env(env)
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.0.baseline.node_count()
    }

    /// Pods placed in the healthy baseline.
    pub fn pods(&self) -> usize {
        self.0.baseline.pod_count()
    }

    /// Applications in the workload.
    pub fn apps(&self) -> usize {
        self.0.workload.app_count()
    }
}

/// Operator objective of a planning lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Max-min fairness.
    Fairness,
    /// Revenue.
    Cost,
}

impl Objective {
    fn kind(self) -> ObjectiveKind {
        match self {
            Objective::Fairness => ObjectiveKind::Fairness,
            Objective::Cost => ObjectiveKind::Cost,
        }
    }
}

/// One controller and the live cluster it manages.
pub struct Lane {
    controller: PhoenixController,
    /// Same defaults the controller was built with, for the staged
    /// re-execution (the controller does not lend its own out).
    config: PhoenixConfig,
    live: ClusterState,
    mark: Option<Snapshot>,
}

/// What one planning round produced.
pub struct Planned(PlanResult);

/// The Fig. 3 pipeline re-executed stage by stage.
pub struct Staged {
    /// The composed action plan.
    actions: ActionPlan,
    /// Apps ranked (= `app_rank` calls).
    pub app_rank_calls: usize,
    /// Items in the global activation list.
    pub rank_items: usize,
    /// Pods handed to `pack`.
    pub planned: usize,
    /// Raw packing outcome.
    outcome: PackOutcome,
}

impl Staged {
    /// `(starts, deletions, migrations, unplaced)` of the pack.
    pub fn pack_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.outcome.starts.len(),
            self.outcome.deletions.len(),
            self.outcome.migrations.len(),
            self.outcome.unplaced.len(),
        )
    }
}

impl Lane {
    /// A controller for `env`'s workload, converged: the live state is the
    /// controller's own plan over the healthy baseline, and its replan
    /// cache is primed.
    pub fn converged(env: &Env, objective: Objective) -> Lane {
        let kind = objective.kind();
        let mut controller =
            PhoenixController::new(env.0.workload.clone(), PhoenixConfig::with_objective(kind));
        let live = controller.replan(&env.0.baseline, ReplanDelta::Full).target;
        Lane {
            controller,
            config: PhoenixConfig::with_objective(kind),
            live,
            mark: None,
        }
    }

    /// Marks the live state so [`rewind`](Lane::rewind) can undo failures.
    pub fn mark(&mut self) {
        self.mark = Some(self.live.snapshot());
    }

    /// Rewinds the live state to the last [`mark`](Lane::mark).
    pub fn rewind(&mut self, tracer: &mut Tracer) {
        if let Some(mark) = self.mark.take() {
            let span = tracer.begin("cluster.state.snapshot_restore");
            self.live.restore_to(&mark);
            tracer.end(span);
        }
    }

    /// Fails `nodes` on the live cluster (their pods are evicted).
    pub fn fail(&mut self, nodes: &[u32], tracer: &mut Tracer) {
        let span = tracer.begin("cluster.state.fail_node");
        for &n in nodes {
            self.live.fail_node(NodeId::new(n));
        }
        tracer.end_counted(span, nodes.len() as u64);
    }

    /// Brings `nodes` back, empty and healthy.
    pub fn restore(&mut self, nodes: &[u32], tracer: &mut Tracer) {
        let span = tracer.begin("cluster.state.restore_node");
        for &n in nodes {
            self.live.restore_node(NodeId::new(n));
        }
        tracer.end_counted(span, nodes.len() as u64);
    }

    /// Cold plan for the live state.
    pub fn plan(&self, tracer: &mut Tracer) -> Planned {
        let span = tracer.begin("core.controller.plan");
        let result = self.controller.plan(&self.live);
        tracer.end(span);
        Planned(result)
    }

    /// Warm, capacity-only replan for the live state.
    pub fn replan(&mut self, tracer: &mut Tracer) -> Planned {
        let span = tracer.begin("core.controller.replan");
        let result = self
            .controller
            .replan(&self.live, ReplanDelta::CapacityOnly);
        tracer.end(span);
        Planned(result)
    }

    /// The agent enforced `planned`: its target is the new live state.
    pub fn adopt(&mut self, planned: Planned) {
        self.live = planned.0.target;
        self.mark = None;
    }

    /// Share of apps whose every C1 service is placed in `planned`'s target.
    pub fn availability(&self, planned: &Planned, tracer: &mut Tracer) -> f64 {
        let span = tracer.begin("adaptlab.metrics.availability");
        let a = critical_service_availability(self.controller.workload(), &planned.0.target);
        tracer.end(span);
        a
    }

    /// Re-executes the controller pipeline through the layers' public
    /// functions — `app_rank` → `global_rank` → flatten → `clone` → `pack`
    /// → `diff_states` — one span per stage, so the per-layer rows are
    /// rows of the same computation [`plan`](Lane::plan) just did.
    ///
    /// # Panics
    ///
    /// Panics on a workload with serving modes: the harness-side flatten
    /// covers the mode-less case only (AdaptLab environments are).
    pub fn staged(&self, tracer: &mut Tracer) -> Staged {
        let workload = self.controller.workload();
        assert!(!workload.has_modes(), "staged flatten is mode-less only");
        let all = tracer.begin("core.controller.staged");

        let span = tracer.begin("core.planner.app_rank");
        let specs: Vec<&AppSpec> = workload.apps().map(|(_, a)| a).collect();
        // Fanned out exactly as the controller does it.
        let ranks: Vec<Vec<ServiceId>> = phoenix::exec::global()
            .par_map(&specs, |app| app_rank(app, self.config.planner.traversal));
        tracer.end_counted(span, specs.len() as u64);

        let capacity = self.live.healthy_capacity();
        let span = tracer.begin("core.ranking.global_rank");
        let rank = global_rank(
            workload,
            &ranks,
            self.config.objective.as_ref(),
            capacity,
            &self.config.planner,
        );
        tracer.end_counted(span, rank.items.len() as u64);

        let span = tracer.begin("core.controller.flatten");
        let plan: Vec<PlannedPod> = rank
            .items
            .iter()
            .flat_map(|item| {
                let demand = workload.app(item.app).service(item.service).demand;
                workload
                    .pod_keys(item.app, item.service)
                    .into_iter()
                    .map(move |key| PlannedPod::new(key, demand))
            })
            .collect();
        tracer.end_counted(span, plan.len() as u64);

        let span = tracer.begin("cluster.state.clone");
        let mut target = self.live.clone();
        tracer.end(span);

        let span = tracer.begin("cluster.packing.pack");
        let outcome = pack(&mut target, &plan, &self.config.packing);
        tracer.end_counted(span, plan.len() as u64);

        let span = tracer.begin("core.actions.diff_states");
        let actions = diff_states(&self.live, &target);
        tracer.end_counted(span, actions.len() as u64);
        tracer.end(all);

        // Outside the staged sum: the water-filling step on its own (it
        // also runs inside `global_rank`).
        let inputs = RankInputs::new(workload, &ranks);
        let span = tracer.begin("core.waterfill.fair_shares");
        let shares = inputs.fair_shares(capacity.scalar());
        tracer.end_counted(span, shares.len() as u64);

        Staged {
            actions,
            app_rank_calls: specs.len(),
            rank_items: rank.items.len(),
            planned: plan.len(),
            outcome,
        }
    }
}

impl Planned {
    /// `check_invariants` on the target state.
    pub fn check(&self, tracer: &mut Tracer) -> Result<(), String> {
        let span = tracer.begin("cluster.state.check_invariants");
        let r = self.0.target.check_invariants();
        tracer.end(span);
        r
    }

    /// Same action plan as `other`?
    pub fn same_actions(&self, other: &Planned) -> bool {
        self.0.actions == other.0.actions
    }

    /// Same action plan as the staged re-execution?
    pub fn same_actions_as_staged(&self, staged: &Staged) -> bool {
        self.0.actions == staged.actions
    }

    /// Actions in the plan.
    pub fn actions(&self) -> usize {
        self.0.actions.len()
    }

    /// `PlanResult::planner_time`, milliseconds.
    pub fn planner_ms(&self) -> f64 {
        self.0.planner_time.as_secs_f64() * 1e3
    }

    /// `PlanResult::scheduler_time`, milliseconds.
    pub fn scheduler_ms(&self) -> f64 {
        self.0.scheduler_time.as_secs_f64() * 1e3
    }

    /// Folds the action plan into `h`.
    pub fn digest(&self, h: &mut Fnv) {
        h.word(self.0.actions.len() as u64);
        for a in &self.0.actions.actions {
            let (tag, pod, x, y) = match *a {
                Action::Delete { pod, node } => (1, pod, node.index(), 0),
                Action::Migrate { pod, from, to } => (2, pod, from.index(), to.index()),
                Action::Start { pod, node } => (3, pod, node.index(), 0),
                Action::ModeShift {
                    pod,
                    node,
                    from,
                    to,
                } => (
                    4,
                    pod,
                    node.index(),
                    usize::from(from.depth()) << 8 | usize::from(to.depth()),
                ),
            };
            h.word(tag);
            h.word(u64::from(pod.app) << 32 | u64::from(pod.service));
            h.word(u64::from(pod.replica));
            h.word(x as u64);
            h.word(y as u64);
        }
    }
}

/// The evaluation roster: PhoenixFair, PhoenixCost, Default.
fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
        Box::new(DefaultPolicy),
    ]
}

/// Number of policies in the roster.
pub const POLICIES: usize = 3;

/// How many of the roster's policies are Phoenix (they come first).
pub const PHOENIX_POLICIES: usize = 2;

/// The drill: compiled outage scenarios × the policy roster.
pub struct Drill {
    workload: Workload,
    policies: Vec<Box<dyn ResiliencePolicy>>,
    docs: Vec<ScenarioDoc>,
    scenarios: Vec<Scenario>,
    sim: SimConfig,
    rto: RtoPolicy,
}

/// What one simulate + score produced.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Digest over milestones and samples.
    pub digest: u64,
    /// Milestones are in time order.
    pub ordered: bool,
    /// Trace samples.
    pub samples: usize,
    /// In-run planning invocations.
    pub plans: usize,
    /// Wall-clock spent in those (Σ `SimTrace::plans`), milliseconds.
    pub plan_ms: f64,
    /// Outage episodes after the disruption.
    pub outages: usize,
    /// Episodes that missed their tier's RTO.
    pub violations: usize,
    /// C1 outage episodes.
    pub c1_outages: usize,
    /// C1 episodes still down at the horizon.
    pub c1_unrestored: usize,
    /// Simulated seconds each restored C1 episode lasted.
    pub c1_restores_s: Vec<f64>,
    /// Simulated failure → detected / detected → planned / actions issued
    /// → recovered, seconds (first occurrence of each milestone).
    pub legs: Option<(f64, f64, f64)>,
    /// Mean served-utility fraction after the disruption.
    pub utility_mean: f64,
}

impl Drill {
    /// Compiles `scenarios` for `env`'s cluster and simulates the first
    /// cell once as warm-up.
    ///
    /// # Errors
    ///
    /// The first scenario the DSL rejects.
    pub fn new(
        env: &Env,
        scenarios: &[DrillScenario],
        horizon_ms: u64,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Drill, String> {
        let docs: Vec<ScenarioDoc> = scenarios
            .iter()
            .map(|s| ScenarioDoc {
                name: s.name.to_string(),
                family: "custom".to_string(),
                nodes: env.nodes() as u32,
                node_cpu: NODE_CAPACITY,
                node_mem: 0.0,
                horizon_ms,
                events: s
                    .events
                    .iter()
                    .map(|e| EventDoc {
                        nodes: e.nodes.clone(),
                        factor: e.factor,
                        down_ms: e.down_ms,
                        up_ms: e.up_ms,
                        cycles: e.cycles,
                        jitter_ms: e.jitter_ms,
                        zones: e.zones,
                        zone: e.zone,
                        ..EventDoc::new(e.at_ms, e.kind)
                    })
                    .collect(),
            })
            .collect();
        let span = tracer.begin("scenarios.model.compile");
        let compiled: Result<Vec<Scenario>, _> = docs.iter().map(ScenarioDoc::compile).collect();
        tracer.end_counted(span, docs.len() as u64);
        let drill = Drill {
            workload: env.0.workload.clone(),
            policies: roster(),
            scenarios: compiled.map_err(|e| e.to_string())?,
            docs,
            sim: SimConfig {
                seed,
                ..SimConfig::default()
            },
            rto: RtoPolicy::paper_example(),
        };
        // Warm-up, part of the set-up: the first cell, untraced. It also
        // makes the set-up long enough (~0.5 s) to time.
        drill.run(0, &mut Tracer::new(false));
        Ok(drill)
    }

    /// Cells = scenarios × policies; cell `i` is scenario `i / POLICIES`
    /// under policy `i % POLICIES`.
    pub fn cells(&self) -> usize {
        self.docs.len() * self.policies.len()
    }

    /// `scenario/policy` label of `cell`.
    pub fn label(&self, cell: usize) -> String {
        format!(
            "{}/{}",
            self.docs[cell / POLICIES].name,
            self.policies[cell % POLICIES].name()
        )
    }

    /// Is `cell` run under a Phoenix policy?
    pub fn is_phoenix(&self, cell: usize) -> bool {
        cell % POLICIES < PHOENIX_POLICIES
    }

    /// Simulates `cell` to the horizon and scores the trace.
    pub fn run(&self, cell: usize, tracer: &mut Tracer) -> SimOutcome {
        let doc = &self.docs[cell / POLICIES];
        let scenario = &self.scenarios[cell / POLICIES];
        let policy = self.policies[cell % POLICIES].as_ref();
        let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);

        let span = tracer.begin("kubesim.run.simulate");
        let trace = simulate(&self.workload, policy, scenario, &self.sim, doc.horizon());
        tracer.end_counted(span, trace.samples.len() as u64);

        let span = tracer.begin("kubesim.rto.evaluate_rto");
        let report = evaluate_rto(&trace, &self.workload, &self.rto, disruption);
        tracer.end_counted(span, report.outages.len() as u64);

        let span = tracer.begin("kubesim.rto.evaluate_utility");
        let utility = evaluate_utility(&trace, disruption);
        tracer.end(span);

        let c1: Vec<_> = report
            .outages
            .iter()
            .filter(|o| o.criticality == Criticality::C1)
            .collect();
        SimOutcome {
            digest: trace_digest(&trace),
            ordered: trace.milestones.windows(2).all(|w| w[0].at <= w[1].at),
            samples: trace.samples.len(),
            plans: trace.plans.len(),
            plan_ms: trace.plans.iter().map(|p| p.1.as_secs_f64() * 1e3).sum(),
            outages: report.outages.len(),
            violations: report.violations().len(),
            c1_outages: c1.len(),
            c1_unrestored: c1.iter().filter(|o| o.restored_at.is_none()).count(),
            c1_restores_s: c1
                .iter()
                .filter_map(|o| o.duration())
                .map(|d| d.as_secs_f64())
                .collect(),
            legs: legs(&trace),
            utility_mean: utility.mean_fraction(),
        }
    }
}

/// Milestone gaps of the first failure in `trace`.
fn legs(trace: &SimTrace) -> Option<(f64, f64, f64)> {
    let after = |kind: MilestoneKind, t: SimTime| {
        trace
            .milestones
            .iter()
            .find(|m| m.kind == kind && m.at >= t)
            .map(|m| m.at)
    };
    let failure = trace.first_kind(MilestoneKind::Failure)?;
    let detected = after(MilestoneKind::Detected, failure)?;
    let planned = after(MilestoneKind::Plan, detected)?;
    let issued = after(MilestoneKind::ActionsIssued, planned)?;
    let recovered = after(MilestoneKind::Recovered, issued)?;
    Some((
        detected.saturating_sub(failure).as_secs_f64(),
        planned.saturating_sub(detected).as_secs_f64(),
        recovered.saturating_sub(issued).as_secs_f64(),
    ))
}

fn trace_digest(trace: &SimTrace) -> u64 {
    let mut h = Fnv::default();
    for m in &trace.milestones {
        h.word(m.at.as_millis());
        h.bytes(m.label().as_bytes());
    }
    for s in &trace.samples {
        h.word(s.at.as_millis());
        h.word(s.serving.len() as u64);
        for p in &s.serving {
            h.word(u64::from(p.app) << 32 | u64::from(p.service));
            h.word(u64::from(p.replica));
        }
        h.word(s.utility.to_bits());
    }
    h.finish()
}

/// The evaluation stack: generated scenario suites, a campaign over each,
/// and an adversarial hunt, all on the small AdaptLab workload.
///
/// One run holds several *variants* — a suite and a hunt drawn from
/// sub-seeds of the run's seed — and cycles through them: what a cell or
/// an evaluation costs follows the scenario it simulates, and averaging
/// over three suites per run keeps that from dominating the run-to-run
/// spread.
pub struct EvalStack {
    workload: Workload,
    policies: Vec<Box<dyn ResiliencePolicy>>,
    variants: Vec<(SuiteDoc, HuntConfig)>,
    campaign: CampaignConfig,
}

/// Summary of one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Cells simulated and scored.
    pub cells: usize,
    /// Cells with every tiered RTO met.
    pub rto_pass: usize,
    /// Outage episodes over all cells.
    pub outages: u64,
    /// Episodes that missed their tier's RTO.
    pub violations: u64,
    /// Digest over the deterministic score fields.
    pub digest: u64,
}

/// Summary of one hunt.
#[derive(Debug, Clone, Default)]
pub struct HuntSummary {
    /// `(candidate, policy)` simulations.
    pub evaluations: usize,
    /// Digest over the champions.
    pub digest: u64,
}

impl EvalStack {
    /// Generates `variants` suites for `env`'s cluster shape, checks that
    /// each survives a JSON round trip unchanged, and runs a one-scenario
    /// warm-up campaign.
    ///
    /// # Errors
    ///
    /// A serializer error, a suite that came back different, or a suite
    /// the campaign runner rejects.
    pub fn new(
        env: &Env,
        variants: usize,
        per_family: usize,
        population: usize,
        rounds: u32,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<EvalStack, String> {
        let apps = env.apps() as u32;
        let mut built = Vec::new();
        for v in 0..variants.max(1) as u64 {
            // Disjoint sub-seeds for neighbouring run seeds.
            let seed = seed.wrapping_mul(variants.max(1) as u64).wrapping_add(v);
            let span = tracer.begin("scenarios.generate.suite");
            let suite = generate_suite(&GeneratorConfig {
                nodes: env.nodes() as u32,
                node_cpu: NODE_CAPACITY,
                scenarios_per_family: per_family,
                apps,
                seed,
            });
            tracer.end_counted(span, suite.scenarios.len() as u64);

            let span = tracer.begin("scenarios.model.json_roundtrip");
            let back = to_json(&suite).and_then(|json| from_json(&json));
            tracer.end(span);
            if back.map_err(|e| e.to_string())? != suite {
                return Err("suite changed across a JSON round trip".into());
            }
            let hunt = HuntConfig {
                nodes: env.nodes() as u32,
                node_cpu: NODE_CAPACITY,
                apps,
                population,
                rounds,
                elites: (population / 3).max(1),
                seed,
            };
            built.push((suite, hunt));
        }
        let stack = EvalStack {
            workload: env.0.workload.clone(),
            policies: roster(),
            variants: built,
            campaign: CampaignConfig::default(),
        };
        // Warm-up, part of the set-up: the first scenario of the first
        // suite under every policy. It starts the `exec` pool's workers
        // and makes the set-up long enough (~0.3 s) to time.
        let mut first = stack.variants[0].0.clone();
        first.scenarios.truncate(1);
        run_campaign(&stack.workload, &first, &stack.policies, &stack.campaign)
            .map_err(|e| e.to_string())?;
        Ok(stack)
    }

    /// Variants this stack cycles through.
    pub fn variants(&self) -> usize {
        self.variants.len()
    }

    /// Cells one campaign runs (the same for every variant).
    pub fn cells(&self) -> usize {
        self.variants[0].0.scenarios.len() * self.policies.len()
    }

    /// Evaluations one hunt runs (the same for every variant).
    pub fn evaluations(&self) -> usize {
        let hunt = &self.variants[0].1;
        hunt.population * (hunt.rounds as usize + 1) * self.policies.len()
    }

    /// Runs the campaign on the global `exec` pool.
    ///
    /// # Errors
    ///
    /// A suite the runner rejects.
    pub fn run_campaign(
        &self,
        variant: usize,
        tracer: &mut Tracer,
    ) -> Result<CampaignSummary, String> {
        let suite = &self.variants[variant].0;
        let span = tracer.begin("scenarios.campaign.run");
        let outcome = run_campaign(&self.workload, suite, &self.policies, &self.campaign);
        tracer.end_counted(span, self.cells() as u64);
        let outcome = outcome.map_err(|e| e.to_string())?;
        let mut h = Fnv::default();
        let mut sum = CampaignSummary {
            cells: outcome.scores.len(),
            ..CampaignSummary::default()
        };
        for s in &outcome.scores {
            sum.rto_pass += usize::from(s.rto_satisfied);
            sum.outages += u64::from(s.outages);
            sum.violations += u64::from(s.violations);
            // Every deterministic field; `replan_ms_p99` is wall-clock.
            h.bytes(s.scenario.as_bytes());
            h.bytes(s.policy.as_bytes());
            h.word(u64::from(s.rto_satisfied));
            h.word(u64::from(s.outages));
            h.word(u64::from(s.violations));
            h.word(s.worst_c1_recovery_ms.map_or(u64::MAX, |v| v));
            for f in [
                s.min_availability,
                s.final_availability,
                s.min_utility,
                s.final_utility,
            ] {
                h.word(f.to_bits());
            }
            h.word(u64::from(s.plans));
        }
        sum.digest = h.finish();
        Ok(sum)
    }

    /// Runs the hunt on the global `exec` pool.
    pub fn run_hunt(&self, variant: usize, tracer: &mut Tracer) -> HuntSummary {
        let hunt = &self.variants[variant].1;
        let span = tracer.begin("scenarios.search.hunt");
        let outcome = run_hunt(&self.workload, &self.policies, hunt, &self.campaign);
        tracer.end_counted(span, u64::from(outcome.evaluations));
        let mut h = Fnv::default();
        h.word(u64::from(outcome.evaluations));
        for c in &outcome.champions {
            h.bytes(c.policy.as_bytes());
            h.word(u64::from(c.round));
            h.word(u64::from(c.candidate));
            h.word(c.signature.severity_ms);
            h.word(u64::from(c.signature.outages));
            h.word(u64::from(c.signature.violations));
            h.bytes(c.doc.name.as_bytes());
            h.word(c.doc.events.len() as u64);
        }
        HuntSummary {
            evaluations: outcome.evaluations as usize,
            digest: h.finish(),
        }
    }

    /// Traced runs only: the fixed per-campaign costs on their own — one
    /// `SteadyState::compute` per policy and one `compile` per scenario
    /// (of the first variant).
    pub fn fixed_costs(&self, tracer: &mut Tracer) -> Result<(), String> {
        let suite = &self.variants[0].0;
        let Some(first) = suite.scenarios.first() else {
            return Ok(());
        };
        let shape = first.compile().map_err(|e| e.to_string())?;
        for p in &self.policies {
            let span = tracer.begin("kubesim.run.steady_compute");
            let steady = SteadyState::compute(&self.workload, p.as_ref(), &shape.node_capacities);
            tracer.end(span);
            std::hint::black_box(steady);
        }
        let span = tracer.begin("scenarios.model.compile");
        for doc in &suite.scenarios {
            std::hint::black_box(doc.compile().map_err(|e| e.to_string())?);
        }
        tracer.end_counted(span, suite.scenarios.len() as u64);
        Ok(())
    }
}

/// Workers the global `exec` pool runs (resolved from `PHOENIX_THREADS`).
pub fn pool_threads() -> usize {
    phoenix::exec::global().threads()
}
