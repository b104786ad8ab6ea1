//! The determinism probe: every class of parallelised output (plans,
//! replans, simulations, sweeps, campaigns, the hunt, audits, snapshot
//! replays, obs counters) rendered as text with wall-clock stripped.
//!
//! [`SECTIONS`] is the probe in output order, one checked-in
//! `tests/fixtures/probe/<name>.txt` per section, held byte for byte at 1
//! and 4 threads by the tier-1 `probe_golden` test. Sections may be
//! added or deleted whole; a surviving section never changes bytes.
//! Re-bless: `cargo run -p phoenix-bench --bin determinism_probe`.

use std::path::PathBuf;

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::runner::{failure_sweep, scripted_sweep, SweepConfig};
use phoenix_adaptlab::scenario::EnvConfig;
use phoenix_apps::hotel::{hotel, HotelVariant};
use phoenix_apps::instances::{cloudlab_capacities, cloudlab_workload};
use phoenix_apps::overleaf::{overleaf, OverleafVariant};
use phoenix_chaos::node_chaos::{node_chaos, NodeChaosConfig};
use phoenix_chaos::{audit_tags, ChaosConfig};
use phoenix_cluster::failure::{fail_fraction, restore_all};
use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use phoenix_core::controller::{PhoenixConfig, PhoenixController, PlanResult};
use phoenix_core::objectives::ObjectiveKind::{self, Cost, Fairness};
use phoenix_core::policies::{standard_roster, DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::replan::ReplanDelta::{self, CapacityOnly, Full};
use phoenix_core::spec::{AppSpecBuilder, ServiceId, ServingMode, Workload};
use phoenix_core::stateful::{plan_pinned, StatefulMarks};
use phoenix_core::tags::Criticality;
use phoenix_kubesim::run::{simulate, simulate_from, SimConfig, SteadyState, TraceSample};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use phoenix_scenarios::campaign::{
    demo_workload, demo_workload_modal, run_campaign, CampaignConfig,
};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix_scenarios::model::{ScenarioDoc, SuiteDoc};
use phoenix_scenarios::regression::{load_all, regressions_dir, replay};
use phoenix_scenarios::search::{run_hunt, signature_of, HuntConfig};
use phoenix_scenarios::shrink::shrink;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Line;

/// One named block of probe output.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Fixture file stem (`tests/fixtures/probe/<name>.txt`).
    pub name: &'static str,
    /// Appends the section's lines to the buffer.
    pub run: fn(&mut String),
}

impl Section {
    /// The section's output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        (self.run)(&mut out);
        out
    }

    /// Where the section's golden bytes are checked in.
    pub fn fixture(&self) -> PathBuf {
        fixtures_dir().join(format!("{}.txt", self.name))
    }
}

/// The probe, in output order.
#[rustfmt::skip]
pub const SECTIONS: &[Section] = &[
    Section { name: "churn", run: churn },
    Section { name: "kubesim", run: kubesim },
    Section { name: "sweep", run: sweep },
    Section { name: "scenarios", run: scenarios },
    Section { name: "modes", run: modes },
    Section { name: "hunt", run: hunt },
    Section { name: "audit", run: audit },
    Section { name: "snapshot", run: snapshot },
    Section { name: "obs", run: obs },
    Section { name: "traces", run: traces },
    Section { name: "pinned", run: pinned },
    Section { name: "replay", run: warm_ranking },
];

/// The directory holding one fixture file per section.
pub fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/probe")
}

/// A deterministic mixed workload (graphs, flat apps, uneven replicas).
fn churn_workload() -> Workload {
    let mut apps = Vec::new();
    for a in 0..6u64 {
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let n = 3 + (a % 4) as usize;
        let ids: Vec<_> = (0..n)
            .map(|s| {
                b.add_service(
                    format!("s{s}"),
                    Resources::cpu(1.0 + ((s as u64) % 3) as f64),
                    Some(Criticality::new(1 + ((s as u64 * 7 + a) % 5) as u8)),
                    1 + ((s as u64 + a) % 2) as u16,
                )
            })
            .collect();
        if a % 2 == 0 {
            for w in ids.windows(2) {
                b.add_dependency(w[0], w[1]);
            }
        }
        b.price_per_unit(1.0 + (a % 3) as f64);
        apps.push(b.build().expect("valid probe spec"));
    }
    Workload::new(apps)
}

/// A node change applied to the live cluster between replan rounds.
#[derive(Clone, Copy)]
enum Churn {
    Fail(u32),
    Restore(u32),
}
use Churn::{Fail, Restore};

/// Per round: the delta hint, then the node changes applied to the
/// adopted target.
type Script = [(ReplanDelta, &'static [Churn])];

/// Replans a `nodes` × 4-CPU cluster through `script` with a fresh
/// controller, handing each round's plan to `visit` before adopting it.
fn replan_rounds(
    workload: Workload,
    kind: ObjectiveKind,
    nodes: usize,
    script: &Script,
    mut visit: impl FnMut(usize, &PlanResult),
) {
    let mut controller = PhoenixController::new(workload, PhoenixConfig::with_objective(kind));
    let mut live = ClusterState::homogeneous(nodes, Resources::cpu(4.0));
    for (round, &(delta, changes)) in script.iter().enumerate() {
        let result = controller.replan(&live, delta);
        visit(round, &result);
        live = result.target;
        for &change in changes {
            match change {
                Fail(n) => _ = live.fail_node(NodeId::new(n)),
                Restore(n) => live.restore_node(NodeId::new(n)),
            }
        }
    }
}

/// The AdaptLab environment shape of the sweep sections.
fn env(nodes: usize, apps: usize, max_services: usize, max_requests: f64, seed: u64) -> EnvConfig {
    EnvConfig {
        nodes,
        target_utilization: 0.7,
        alibaba: AlibabaConfig {
            apps,
            max_services,
            max_requests,
            ..AlibabaConfig::default()
        },
        seed,
        ..EnvConfig::default()
    }
}

/// A generated scenario suite.
fn suite(nodes: u32, node_cpu: f64, scenarios_per_family: usize, apps: u32, seed: u64) -> SuiteDoc {
    generate_suite(&GeneratorConfig {
        nodes,
        node_cpu,
        scenarios_per_family,
        apps,
        seed,
    })
}

/// `phoenix` against the Default control.
fn roster(phoenix: PhoenixPolicy) -> Vec<Box<dyn ResiliencePolicy>> {
    vec![Box::new(phoenix), Box::new(DefaultPolicy)]
}

fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort_unstable();
    v
}

/// Cold + warm churn rounds: the action plan and activation list of
/// every round (both go through the pooled app-rank / fingerprint paths).
fn churn(out: &mut String) {
    const SCRIPT: &Script = &[
        (Full, &[Fail(0)]),
        (Full, &[Fail(1), Fail(2)]),
        (Full, &[Restore(0)]),
        (Full, &[Restore(1)]),
        (Full, &[Restore(1)]),
        (Full, &[]),
    ];
    for kind in [Fairness, Cost] {
        replan_rounds(churn_workload(), kind, 8, SCRIPT, |round, result| {
            let (d, m, s) = result.actions.counts();
            out.line(format!(
                "churn {kind:?} round {round}: actions d={d} m={m} s={s}"
            ));
            for item in &result.rank.items {
                out.line(format!(
                    "  rank app={} svc={} demand={}",
                    item.app.index(),
                    item.service.index(),
                    item.demand.scalar()
                ));
            }
            for (pod, node) in sorted(result.target.assignments().map(|(p, n, _)| (p, n.index()))) {
                out.line(format!("  pod {pod} -> node {node}"));
            }
        });
    }
}

/// Kubesim node-failure sweep (the chaos crate's simulated control
/// plane) — every field here is simulated time, not wall-clock.
fn kubesim(out: &mut String) {
    let model = overleaf("overleaf", OverleafVariant::Edits, 1.0);
    for policy in standard_roster() {
        for o in node_chaos(&model, policy.as_ref(), &NodeChaosConfig::default()) {
            out.line(format!(
                "kubesim {} frac={:.2} utility={} recovered={} restore={:?}",
                policy.name(),
                o.failure_frac,
                o.settled_utility.to_bits(),
                o.critical_recovered,
                o.critical_restore_after,
            ));
        }
    }
}

/// Multi-trial AdaptLab failure sweep; `plan_secs` (wall-clock) is the
/// one field deliberately omitted.
fn sweep(out: &mut String) {
    let env = env(40, 5, 80, 40_000.0, 3);
    let sweep = SweepConfig {
        failure_fracs: vec![0.1, 0.5, 0.8],
        trials: 3,
        ..SweepConfig::default()
    };
    for p in failure_sweep(&env, &sweep, &standard_roster()) {
        out.line(format!(
            "sweep {} frac={:.1} avail={} rev={} fair+={} fair-={} util={}",
            p.policy,
            p.failure_frac,
            p.metrics.availability.to_bits(),
            p.metrics.revenue.to_bits(),
            p.metrics.fairness_pos.to_bits(),
            p.metrics.fairness_neg.to_bits(),
            p.metrics.utilization.to_bits(),
        ));
    }
}

/// Fixed-seed scenario campaign: every generated family × 5 scenarios
/// through the campaign runner, then the scripted adaptlab sweep over the
/// same families, every float as bits.
fn scenarios(out: &mut String) {
    let outcome = run_campaign(
        &demo_workload(3),
        &suite(8, 4.0, 5, 3, 42),
        &roster(PhoenixPolicy::fair()),
        &CampaignConfig::default(),
    )
    .expect("generated suite is valid");
    for s in &outcome.scores {
        out.line(format!(
            "scenario {} {} rto={} outages={} viol={} min={} final={} c1={:?} plans={}",
            s.scenario,
            s.policy,
            s.rto_satisfied,
            s.outages,
            s.violations,
            s.min_availability.to_bits(),
            s.final_availability.to_bits(),
            s.worst_c1_recovery_ms,
            s.plans,
        ));
    }
    for c in &outcome.scorecards {
        out.line(format!(
            "scorecard {} {} n={} pass={} viol={} min={} final={} c1={:?}",
            c.family,
            c.policy,
            c.scenarios,
            c.rto_pass,
            c.violations,
            c.mean_min_availability.to_bits(),
            c.mean_final_availability.to_bits(),
            c.worst_c1_recovery_ms,
        ));
    }

    let (env, scripted) = (env(40, 5, 80, 40_000.0, 3), suite(40, 64.0, 1, 5, 3));
    for p in scripted_sweep(&env, &scripted, &standard_roster()).expect("generated suite is valid")
    {
        out.line(format!(
            "scripted {} {} avail={} rev={} fair+={} fair-={} util={}",
            p.scenario,
            p.policy,
            p.metrics.availability.to_bits(),
            p.metrics.revenue.to_bits(),
            p.metrics.fairness_pos.to_bits(),
            p.metrics.fairness_neg.to_bits(),
            p.metrics.utilization.to_bits(),
        ));
    }
}

/// Serving-mode planning: churn rounds over the modal demo workload
/// (degraded-serving ladders on cache/batch) under a crunch — every
/// chosen mode, the ModeShift action counts — then the modal campaign's
/// utility metrics as bits.
fn modes(out: &mut String) {
    const SCRIPT: &Script = &[
        (Full, &[Fail(0)]),
        (Full, &[Fail(1)]),
        (Full, &[Restore(0)]),
        (Full, &[Restore(1)]),
        (Full, &[Restore(1)]),
    ];
    let workload = demo_workload_modal(3);
    replan_rounds(workload.clone(), Fairness, 6, SCRIPT, |round, result| {
        let (d, m, s) = result.actions.counts();
        out.line(format!(
            "modes round {round}: actions d={d} m={m} s={s} shifts={} all_full={}",
            result.actions.mode_shifts(),
            result.modes.is_all_full(),
        ));
        for (app, spec) in workload.apps() {
            for svc in (0..spec.service_count() as u32).map(ServiceId::new) {
                let mode = result.modes.get(app, svc);
                if mode != ServingMode::Full {
                    let (app, svc) = (app.index(), svc.index());
                    out.line(format!("  mode app={app} svc={svc} {mode:?}"));
                }
            }
        }
        let placed = result
            .target
            .assignments()
            .map(|(p, n, r)| (p, n.index(), r.scalar().to_bits()));
        for (pod, node, demand) in sorted(placed) {
            out.line(format!("  pod {pod} -> node {node} demand={demand}"));
        }
    });

    let policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
    let suite = suite(8, 4.0, 2, 3, 42);
    let outcome = run_campaign(&workload, &suite, &policies, &CampaignConfig::default())
        .expect("generated suite is valid");
    for s in &outcome.scores {
        out.line(format!(
            "modal scenario {} {} min_u={} final_u={}",
            s.scenario,
            s.policy,
            s.min_utility.to_bits(),
            s.final_utility.to_bits(),
        ));
    }
    for c in &outcome.scorecards {
        out.line(format!(
            "modal scorecard {} {} mean_min_u={} mean_final_u={}",
            c.family,
            c.policy,
            c.mean_min_utility.to_bits(),
            c.mean_final_utility.to_bits(),
        ));
    }
}

/// Adversarial hunt + shrink + regression replay: a small fixed-seed
/// hunt fans `(candidate, policy)` evaluations over the pool, the
/// champion shrinks through the deterministic lattice, and every
/// checked-in repro replays.
fn hunt(out: &mut String) {
    let hunt = HuntConfig {
        population: 12,
        rounds: 2,
        elites: 4,
        ..HuntConfig::smoke(42)
    };
    let (w, cfg) = (demo_workload(3), CampaignConfig::default());
    let policies = roster(PhoenixPolicy::cost());
    let outcome = run_hunt(&w, &policies, &hunt, &cfg);
    out.line(format!(
        "hunt seed={} evals={} champions={}",
        outcome.seed,
        outcome.evaluations,
        outcome.champions.len()
    ));
    for c in &outcome.champions {
        out.line(format!(
            "hunt champion {} round={} candidate={} severity={} outages={} viol={} c1={:?}",
            c.policy,
            c.round,
            c.candidate,
            c.signature.severity_ms,
            c.signature.outages,
            c.signature.violations,
            c.signature.worst_c1_recovery_ms,
        ));
        let policy = policies.iter().find(|p| p.name() == c.policy);
        let policy = policy.expect("champion policy from roster").as_ref();
        let mut oracle = |d: &ScenarioDoc| {
            signature_of(&w, d, policy, &cfg, None).is_ok_and(|s| s.severity_ms > 0)
        };
        let (small, report) = shrink(&c.doc, &mut oracle);
        let sig = signature_of(&w, &small, policy, &cfg, None).expect("shrunk doc validates");
        out.line(format!(
            "hunt shrunk {} events={}->{} horizon={}->{} severity={} evals={} passes={}",
            c.policy,
            c.doc.events.len(),
            small.events.len(),
            c.doc.horizon_ms,
            small.horizon_ms,
            sig.severity_ms,
            report.evals,
            report.passes,
        ));
    }
    for doc in load_all(&regressions_dir()).expect("regressions dir readable") {
        let fresh = replay(&doc, &cfg).expect("repro replays");
        out.line(format!(
            "regression {} pinned={} fresh={} outages={} viol={} c1={:?}",
            doc.name,
            doc.signature.severity_ms,
            fresh.severity_ms,
            fresh.outages,
            fresh.violations,
            fresh.worst_c1_recovery_ms,
        ));
    }
}

/// Chaos tag audits for both reference applications.
fn audit(out: &mut String) {
    for model in [
        overleaf("overleaf", OverleafVariant::Edits, 1.0),
        hotel("hr", HotelVariant::Reserve, 1.0),
    ] {
        let report = audit_tags(&model, &ChaosConfig::default());
        for d in &report.degrees {
            out.line(format!(
                "audit {} degree={:.2} retained={} utility={} killed={:?}",
                report.app,
                d.degree,
                d.critical_retained,
                d.utility_score.to_bits(),
                d.killed,
            ));
        }
        for v in &report.violations {
            out.line(format!(
                "audit {} violation svc={} tag={} breaks={}",
                report.app, v.service, v.tag, v.broken_request
            ));
        }
    }
}

/// Snapshot/restore and steady-replay determinism: journaled-arena churn
/// must rewind bit-exactly (same `used` bits, same iteration order), and
/// a campaign cell replayed from a captured [`SteadyState`] must match
/// the cold simulation byte for byte. Both are asserted in-process *and*
/// printed, so the fixture extends to the clone-free trial paths.
fn snapshot(out: &mut String) {
    // 1. Journal rewind under churn across every mutation class.
    let mut state = ClusterState::homogeneous(12, Resources::cpu(8.0));
    for i in 0..10u32 {
        let key = PodKey::new(i / 4, i % 4, 0);
        let demand = Resources::cpu(1.0 + f64::from(i % 3));
        state
            .assign(key, demand, NodeId::new(i % 12))
            .expect("probe pods fit");
    }
    state.set_degrade(NodeId::new(11), 0.5);
    let reference = state.clone();
    let snap = state.snapshot();
    state.fail_node(NodeId::new(0));
    state.set_degrade(NodeId::new(1), 0.25);
    state
        .assign(PodKey::new(9, 9, 9), Resources::cpu(2.0), NodeId::new(5))
        .expect("churn pod fits");
    state.remove(PodKey::new(1, 1, 0)).ok();
    state.restore_node(NodeId::new(0));
    state.restore_to(&snap);
    assert!(
        state.bitwise_eq(&reference),
        "restore_to drifted from the pre-churn state"
    );
    // Iteration order, unsorted: this pins the restored intern order.
    for (pod, node, demand) in state.assignments() {
        let (node, demand) = (node.index(), demand.scalar().to_bits());
        out.line(format!(
            "snapshot churn pod {pod} -> node {node} demand={demand}"
        ));
    }

    // 2. Steady-state replay vs cold simulation, per (scenario, policy).
    let (w, sim) = (demo_workload(3), SimConfig::default());
    for doc in &suite(8, 4.0, 1, 3, 7).scenarios {
        let scenario = doc.compile().expect("generated doc compiles");
        let horizon = doc.horizon();
        for p in &roster(PhoenixPolicy::fair()) {
            let steady = SteadyState::compute(&w, p.as_ref(), &scenario.node_capacities);
            let cold = simulate(&w, p.as_ref(), &scenario, &sim, horizon);
            let warm = simulate_from(&w, p.as_ref(), &scenario, &sim, horizon, Some(&steady));
            let (name, policy) = (&doc.name, p.name());
            let diverged =
                format!("steady replay diverged from cold simulate: {name} under {policy}");
            assert_eq!(cold.samples, warm.samples, "{diverged}");
            assert_eq!(cold.milestones, warm.milestones, "{diverged}");
            out.line(format!(
                "snapshot campaign {name} {policy} samples={} milestones={} plans={} final_u={}",
                warm.samples.len(),
                warm.milestones.len(),
                warm.plans.len(),
                warm.samples.last().map_or(0, |s| s.utility.to_bits()),
            ));
        }
    }
}

/// Deterministic-plane observability counters: a fixed churn-replan loop
/// (both delta classes), a small campaign and a sweep under an *enabled*
/// [`Recorder`](phoenix_obs::Recorder), then every counter in
/// [`Counter::ALL`](phoenix_obs::Counter::ALL) order. Counters sum work
/// the pipeline decided to do, never how the pool chunked it, so the
/// block is the same at any thread count; the wall-clock plane is absent.
fn obs(out: &mut String) {
    const SCRIPT: &Script = &[
        (Full, &[]),
        (CapacityOnly, &[Fail(1)]),
        (Full, &[]),
        (CapacityOnly, &[]),
    ];
    let recorder = phoenix_obs::Recorder::enabled();
    phoenix_obs::with_recorder(recorder.clone(), || {
        replan_rounds(churn_workload(), Fairness, 8, SCRIPT, |_, _| {});
        run_campaign(
            &demo_workload_modal(2),
            &suite(8, 4.0, 1, 2, 11),
            &roster(PhoenixPolicy::fair()),
            &CampaignConfig::default(),
        )
        .expect("generated suite is valid");
        let sweep = SweepConfig {
            failure_fracs: vec![0.5],
            trials: 2,
            ..SweepConfig::default()
        };
        failure_sweep(&env(12, 3, 20, 10_000.0, 5), &sweep, &standard_roster());
    });
    for (name, value) in recorder.counters() {
        out.line(format!("obs {name}={value}"));
    }
}

/// An FNV-1a hash fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every sample's time, serving pods and utility bits.
fn samples_digest(samples: &[TraceSample]) -> u64 {
    let mut h = Fnv::default();
    for s in samples {
        h.eat(s.at.as_millis());
        h.eat(s.serving.len() as u64);
        for pod in &s.serving {
            h.eat(u64::from(pod.app) << 32 | u64::from(pod.service));
            h.eat(u64::from(pod.replica));
        }
        h.eat(s.utility.to_bits());
    }
    h.0
}

/// Raw simulator traces, the event loop's own contract: every scenario of
/// a small generated suite (all six families, zone and rack blasts
/// included) plus a surge that halves an app mid-recovery, on the modal
/// demo workload (mode shifts and rebookings in play) under PhoenixFair,
/// PhoenixCost and Default. Per run: plan count, an FNV digest of the
/// samples, and every milestone.
fn traces(out: &mut String) {
    let policies: Vec<Box<dyn ResiliencePolicy>> = vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
        Box::new(DefaultPolicy),
    ];
    let mut run = |name: &str, w: &Workload, scenario: &Scenario, horizon: SimTime| {
        for p in &policies {
            let trace = simulate(w, p.as_ref(), scenario, &SimConfig::default(), horizon);
            let marks: Vec<String> = trace
                .milestones
                .iter()
                .map(|m| format!("{}@{}", m.label(), m.at.as_millis()))
                .collect();
            out.line(format!(
                "trace {name} {} plans={} samples={} digest={:016x} milestones={}",
                p.name(),
                trace.plans.len(),
                trace.samples.len(),
                samples_digest(&trace.samples),
                marks.join(","),
            ));
        }
    };
    let modal = demo_workload_modal(3);
    for doc in &suite(8, 4.0, 2, 3, 5).scenarios {
        let scenario = doc.compile().expect("generated doc compiles");
        run(&doc.name, &modal, &scenario, doc.horizon());
    }
    // App 0 doubles, loses three nodes, and halves again just after the
    // recovery plan: starts for its surplus replicas find their pods gone.
    let mut shrink = Scenario::new(8, Resources::cpu(4.0));
    shrink.demand_surge_at(SimTime::from_secs(30), 0, 1.0, 2.0);
    shrink.kubelet_stop_at(SimTime::from_secs(120), [5, 6, 7]);
    shrink.demand_surge_at(SimTime::from_millis(210_200), 0, 1.0, 0.5);
    run("surge-shrink", &modal, &shrink, SimTime::from_secs(900));
}

/// Pinned co-location on the CloudLab workload with each app's heaviest
/// service marked stateful: a fresh plan, a replan after 40 % of the
/// nodes fail, and one after they return. Per plan: pod and action
/// counts, the stranded pins, an FNV digest of the placements and one of
/// every service's chosen mode.
fn pinned(out: &mut String) {
    let (workload, _) = cloudlab_workload();
    let mut marks = StatefulMarks::new();
    for (app, spec) in workload.apps() {
        let demand = |s: ServiceId| spec.service(s).total_demand().scalar();
        let heaviest = spec
            .service_ids()
            .max_by(|&a, &b| demand(a).total_cmp(&demand(b)));
        marks.mark(app, heaviest.expect("apps have services"));
    }
    let config = PhoenixConfig::default();
    let mut live = ClusterState::new(cloudlab_capacities());
    for round in ["fresh", "failed", "restored"] {
        match round {
            "failed" => drop(fail_fraction(&mut live, 0.4, &mut StdRng::seed_from_u64(7))),
            "restored" => restore_all(&mut live),
            _ => {}
        }
        let plan = plan_pinned(&workload, &marks, &live, &config);
        let (d, m, s) = plan.actions.counts();
        let placed = sorted(
            plan.target
                .assignments()
                .map(|(p, n, r)| (p, n, r.scalar().to_bits())),
        );
        let mut placements = Fnv::default();
        for (pod, node, demand) in &placed {
            placements.eat(u64::from(pod.app) << 32 | u64::from(pod.service));
            placements.eat(u64::from(pod.replica) << 32 | node.index() as u64);
            placements.eat(*demand);
        }
        let mut modes = Fnv::default();
        for (app, spec) in workload.apps() {
            for svc in spec.service_ids() {
                modes.eat(plan.modes.get(app, svc).depth() as u64);
            }
        }
        let stranded: Vec<String> = plan.stranded.iter().map(PodKey::to_string).collect();
        out.line(format!(
            "pinned {round}: pods={} d={d} m={m} s={s} stranded=[{}] placements={:016x} modes={:016x}",
            placed.len(),
            stranded.join(" "),
            placements.0,
            modes.0,
        ));
        live = plan.target;
    }
}

/// The ranking counters a warm round moves, in output order.
const RANK_COUNTERS: [phoenix_obs::Counter; 8] = {
    use phoenix_obs::Counter::*;
    [
        WarmReplans,
        RankFullReuses,
        MergeOrderReplays,
        ShareOrderReplays,
        ShareInvestments,
        ColdMerges,
        RungPurchases,
        ChainRetirements,
    ]
};

/// Every warm-ranking branch of `replan`, one controller per objective
/// on a mode-less and a modal workload: full reuse, merge-order and
/// share-order replays, the share investment, cold merges (and a replay
/// of an older share order after one), rankings that change at the tail
/// and mid-list, and rounds under the break rule
/// (`continue_on_saturation = false`). Per round: the node changes
/// applied before it, the ranking counters it moved, the item count, how
/// many leading items equal the previous round's, and FNV digests of the
/// items, the fair-share and allocation bits, and the placements.
fn warm_ranking(out: &mut String) {
    /// Per round: the node changes applied to the adopted target before
    /// it, and the round's `continue_on_saturation`.
    const SCRIPT: &[(&[Churn], bool)] = &[
        (&[], true),
        (&[Fail(0)], true),
        (&[], true),
        (&[Fail(1)], true),
        (&[Fail(2), Fail(3)], true),
        (&[Restore(2), Restore(3)], true),
        (&[Fail(4), Fail(5), Fail(6), Fail(7), Fail(8)], true),
        (&[Fail(9)], true),
        (&[Fail(21)], true),
        (&[Fail(10)], true),
        (&[Restore(10)], true),
        (&[], false),
        (&[Fail(10)], false),
        (&[Restore(4), Restore(5)], false),
        (
            &[Restore(6), Restore(7), Restore(8), Restore(10), Restore(21)],
            true,
        ),
        (&[Fail(11)], true),
    ];
    let workloads = [
        ("modeless", churn_workload()),
        ("modal", demo_workload_modal(11)),
    ];
    for (label, workload) in workloads {
        for kind in [Fairness, Cost] {
            let recorder = phoenix_obs::Recorder::enabled();
            let mut controller =
                PhoenixController::new(workload.clone(), PhoenixConfig::with_objective(kind));
            // Twenty 4-CPU nodes, then a 1-CPU and a 2-CPU one, so a
            // failure can cut the ranking between two chain items.
            let sizes = [4.0; 20].into_iter().chain([1.0, 2.0]);
            let mut live = ClusterState::new(sizes.map(Resources::cpu));
            let mut before = [0u64; RANK_COUNTERS.len()];
            let mut previous = Vec::new();
            for (round, &(changes, continue_on_saturation)) in SCRIPT.iter().enumerate() {
                for &change in changes {
                    match change {
                        Fail(n) => _ = live.fail_node(NodeId::new(n)),
                        Restore(n) => live.restore_node(NodeId::new(n)),
                    }
                }
                controller.config_mut().planner.continue_on_saturation = continue_on_saturation;
                let result = phoenix_obs::with_recorder(recorder.clone(), || {
                    controller.replan(&live, CapacityOnly)
                });
                let mut moved = Vec::new();
                for (c, before) in RANK_COUNTERS.iter().zip(&mut before) {
                    let now = recorder.counter(*c);
                    if now != *before {
                        moved.push(format!("{}+{}", c.name(), now - *before));
                    }
                    *before = now;
                }
                let rank = &result.rank;
                let prefix = previous.iter().zip(&rank.items).take_while(|(a, b)| a == b);
                let prefix = prefix.count();
                let mut items = Fnv::default();
                for item in &rank.items {
                    items.eat((item.app.index() as u64) << 32 | item.service.index() as u64);
                    items.eat(item.demand.cpu.to_bits());
                    items.eat(item.demand.mem.to_bits());
                    items.eat(item.mode.depth() as u64);
                }
                let mut shares = Fnv::default();
                for (s, a) in rank.fair_shares.iter().zip(&rank.allocated) {
                    shares.eat(s.to_bits());
                    shares.eat(a.to_bits());
                }
                let mut placements = Fnv::default();
                for (pod, node) in sorted(result.target.assignments().map(|(p, n, _)| (p, n))) {
                    placements.eat(u64::from(pod.app) << 32 | u64::from(pod.service));
                    placements.eat(u64::from(pod.replica) << 32 | node.index() as u64);
                }
                out.line(format!(
                    "replay {label} {kind:?} round {round} cos={continue_on_saturation} \
                     capacity={} [{}] items={} prefix={prefix} rank={:016x} shares={:016x} placements={:016x}",
                    live.healthy_capacity().scalar(),
                    moved.join(" "),
                    rank.items.len(),
                    items.0,
                    shares.0,
                    placements.0,
                ));
                previous.clone_from(&rank.items);
                live = result.target;
            }
        }
    }
}
