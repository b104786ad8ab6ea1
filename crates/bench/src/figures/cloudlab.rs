//! The CloudLab-size figures: five apps on 25 nodes of 8 CPUs. They are
//! the same at every [`Scale`].

use std::collections::BTreeMap;
use std::time::Duration;

use phoenix_adaptlab::metrics::{allocations, revenue, service_active};
use phoenix_apps::catalog::AppModel;
use phoenix_apps::instances::{cloudlab_capacities, cloudlab_workload, NODES, NODE_CPUS};
use phoenix_apps::latency::latency_rows;
use phoenix_apps::loadgen::generate_series;
use phoenix_apps::shedding::{shed, summarize, OverloadScenario, QosPolicy, SheddingPolicy};
use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::policies::{
    standard_roster, DefaultPolicy, LpPolicy, NoAdaptPolicy, PhoenixPolicy, ResiliencePolicy,
};
use phoenix_core::spec::{AppId, ServiceId, Workload};
use phoenix_core::waterfill::fair_share_deviation;
use phoenix_kubesim::run::{simulate, MilestoneKind, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{Claim, Scale};
use crate::{f3, secs, Line, Table};

/// The CloudLab workload fully deployed by PhoenixFair, and that
/// deployment with a seeded random 14 of its 25 nodes failed: 88 CPU
/// remain, ≈44 %, the paper's breaking point. Random victims matter —
/// failing only the nodes best-fit left emptiest would flatter the
/// non-adaptive schemes.
fn cloudlab_failure(seed: u64) -> (Workload, Vec<AppModel>, ClusterState, ClusterState) {
    let (workload, models) = cloudlab_workload();
    let mut baseline = ClusterState::new(cloudlab_capacities());
    PhoenixPolicy::fair().plan(&workload, &mut baseline);
    let mut failed = baseline.clone();
    let mut ids = failed.node_ids();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    for id in ids.into_iter().take(14) {
        failed.fail_node(id);
    }
    (workload, models, baseline, failed)
}

/// The simulator's version of the same failure: kubelets on a seeded
/// random 14 of 25 nodes stop at t=600 s and return at t=1500 s.
fn kubelet_outage(seed: u64) -> Scenario {
    let mut s = Scenario::new(NODES, Resources::cpu(NODE_CPUS));
    let mut victims: Vec<u32> = (0..NODES as u32).collect();
    victims.shuffle(&mut StdRng::seed_from_u64(seed));
    victims.truncate(14);
    s.kubelet_stop_at(SimTime::from_secs(600), victims.clone());
    s.kubelet_start_at(SimTime::from_secs(1500), victims);
    s
}

/// How many apps meet their Table-4 critical goal under `up`.
fn goals_met(models: &[AppModel], up: impl Fn(usize, ServiceId) -> bool) -> usize {
    let met = |(ai, m): &(usize, &AppModel)| m.critical_goal_met(|s| up(*ai, s));
    models.iter().enumerate().filter(met).count()
}

/// Figure 5: every resilience scheme, the ILP baselines included, at
/// the breaking point — critical-service availability, normalized
/// revenue and fair-share deviation. The ILPs get 60 s each and are left
/// out at [`Scale::Smoke`].
pub(super) fn fig5(scale: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let (workload, models, baseline, failed) = cloudlab_failure(seed.unwrap_or(2024));
    let baseline_revenue = revenue(&workload, &baseline);
    let healthy_frac = failed.healthy_capacity().cpu / failed.total_capacity().cpu;
    out.line(format!(
        "CloudLab workload: {} apps, demand {:.0} CPU on {:.0} CPU; capacity reduced to {:.0}%",
        workload.app_count(),
        workload.total_demand().cpu,
        failed.total_capacity().cpu,
        healthy_frac * 100.0
    ));

    let mut roster = standard_roster();
    roster.push(Box::new(NoAdaptPolicy));
    if scale != Scale::Smoke {
        let limit = Duration::from_secs(60);
        roster.insert(2, Box::new(LpPolicy::cost().with_time_limit(limit)));
        roster.insert(3, Box::new(LpPolicy::fair().with_time_limit(limit)));
    }

    let demands: Vec<f64> = workload.apps().map(|(_, a)| a.total_demand().cpu).collect();
    let mut table = Table::new([
        "scheme",
        "crit-avail",
        "norm-revenue",
        "fair-dev+",
        "fair-dev-",
        "plan-time",
    ]);
    let mut met = Vec::new();
    for policy in &roster {
        let mut target = failed.clone();
        let plan = policy.plan(&workload, &mut target);
        // CloudLab availability: the Table-4 critical request keeps its RPS.
        let goals = goals_met(&models, |ai, s| {
            service_active(&workload, &target, ai, s.index())
        });
        met.push((policy.name(), goals));
        let avail = goals as f64 / models.len() as f64;
        let rev = revenue(&workload, &target) / baseline_revenue;
        let alloc = allocations(&workload, &target);
        let (pos, neg) = fair_share_deviation(&demands, &alloc, target.healthy_capacity().cpu);
        table.row([
            policy.name().to_string(),
            format!("{goals}/{} ({})", models.len(), f3(avail)),
            f3(rev),
            f3(pos),
            f3(neg),
            secs(plan.planning_time.as_secs_f64()),
        ]);
        if !plan.notes.is_empty() {
            out.line(format!("  [{}] {}", policy.name(), plan.notes));
        }
    }
    out.push_str(
        &table.titled("Figure 5: schemes at 42% capacity (revenue + fairness objectives)"),
    );
    let goals = |name: &str| met.iter().find(|(n, _)| *n == name).map_or(0, |&(_, g)| g);
    vec![
        Claim {
            what: "PhoenixFair meets 5/5 critical goals",
            holds: goals("PhoenixFair") == models.len(),
        },
        Claim {
            what: "each Phoenix row's availability is >= Default's",
            holds: goals("PhoenixFair").min(goals("PhoenixCost")) >= goals("Default"),
        },
    ]
}

/// Figure 6: the targeted recovery timeline on the simulated Kubernetes
/// cluster ([`kubelet_outage`], run to t=2100 s) — Phoenix vs. Default,
/// with per-request-type RPS and utility series for Overleaf0 and HR1.
pub(super) fn fig6(_: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let (workload, models) = cloudlab_workload();
    let horizon = SimTime::from_secs(2100);
    let scenario = kubelet_outage(seed.unwrap_or(6));
    let cfg = SimConfig::default();
    let run = |policy: &dyn ResiliencePolicy| simulate(&workload, policy, &scenario, &cfg, horizon);
    let phoenix_trace = run(&PhoenixPolicy::fair());
    let cost_trace = run(&PhoenixPolicy::cost());
    let default_trace = run(&DefaultPolicy);

    // (a)/(b): milestones + availability over time.
    out.line("=== Fig 6(a) milestones (PhoenixFair) ===".into());
    for m in &phoenix_trace.milestones {
        out.line(format!("  {:>7}  {}", m.at.to_string(), m.label()));
    }
    let times: Vec<u64> = (0..=2100).step_by(30).collect();
    let series: Vec<Vec<usize>> = [&phoenix_trace, &cost_trace, &default_trace]
        .iter()
        .map(|trace| {
            let up = |t, ai, s: ServiceId| {
                trace.service_up(
                    &workload,
                    ai as u32,
                    s.index() as u32,
                    SimTime::from_secs(t),
                )
            };
            let met = |&t: &u64| goals_met(&models, |ai, s| up(t, ai, s));
            times.iter().map(met).collect()
        })
        .collect();
    let mut table = Table::new(["t(s)", "PhoenixFair", "PhoenixCost", "Default"]);
    for (i, &t) in times.iter().enumerate() {
        let mut row = vec![t.to_string()];
        row.extend(series.iter().map(|s| format!("{}/5", s[i])));
        table.row(row);
    }
    out.push_str(&table.titled("Figure 6(a)/(b): critical-service availability over time"));

    // (c)-(f): per-request series for Overleaf0 and HR1 under Phoenix.
    let secs: Vec<f64> = times.iter().map(|&t| t as f64).collect();
    for (app_idx, name, requests) in [
        (0, "Overleaf0", "edits spell_check versioning"),
        (4, "HR1", "reserve recommend search login"),
    ] {
        let requests: Vec<&str> = requests.split(' ').collect();
        let model = &models[app_idx];
        let series = generate_series(model, &secs, |tick, svc| {
            phoenix_trace.service_up(
                &workload,
                app_idx as u32,
                svc.index() as u32,
                SimTime::from_secs(times[tick]),
            )
        });
        let mut header = vec!["t(s)".to_string()];
        for r in &requests {
            header.push(format!("{r} rps"));
            header.push(format!("{r} util"));
        }
        let mut table = Table::new(header);
        for (i, &t) in times.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for r in &requests {
                let ri = model
                    .requests
                    .iter()
                    .position(|x| &x.name == r)
                    .expect("known request");
                row.push(format!("{:.1}", series.served[ri][i]));
                row.push(format!("{:.2}", series.utility[ri][i]));
            }
            table.row(row);
        }
        out.push_str(&table.titled(&format!(
            "Figure 6(c-f): {name} request throughput and utility (PhoenixFair)"
        )));
    }

    // Headline timings.
    let first = |kind| phoenix_trace.first_kind(kind).map(|t| t.as_secs_f64());
    let t1 = first(MilestoneKind::Failure);
    let t2 = first(MilestoneKind::Detected);
    let t4 = first(MilestoneKind::Recovered);
    let (mut detected, mut recovered) = (f64::INFINITY, f64::INFINITY);
    if let (Some(t1), Some(t2), Some(t4)) = (t1, t2, t4) {
        (detected, recovered) = (t2 - t1, t4 - t1);
        out.line(format!(
            "\nDetection delay: {detected:.0}s (paper ≈100s); full recovery: {recovered:.0}s after failure (paper <240s)",
        ));
    }
    vec![
        Claim {
            what: "detection < 120 s after the failure",
            holds: detected < 120.0,
        },
        Claim {
            what: "full recovery < 240 s after the failure",
            holds: recovered < 240.0,
        },
    ]
}

/// Figure 9: resource breakdown across criticality levels for the
/// CloudLab experiment.
pub(super) fn fig9(_: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let (workload, _) = cloudlab_workload();
    let cluster = NODES as f64 * NODE_CPUS;
    let total = workload.total_demand().cpu;

    let mut per_level: BTreeMap<u8, f64> = BTreeMap::new();
    for (_, app) in workload.apps() {
        for s in app.service_ids() {
            let cpu = app.service(s).total_demand().cpu;
            *per_level.entry(app.criticality_of(s).level()).or_default() += cpu;
        }
    }

    let mut table = Table::new(["criticality", "CPU", "% of apps", "% of cluster"]);
    for (level, &cpu) in &per_level {
        table.row([
            format!("C{level}"),
            format!("{cpu:.1}"),
            f3(cpu / total),
            f3(cpu / cluster),
        ]);
    }
    table.row([
        "total".to_string(),
        format!("{total:.1}"),
        f3(1.0),
        f3(total / cluster),
    ]);
    out.push_str(&table.titled("Figure 9: resources per criticality level (5 CloudLab instances)"));

    let c1 = per_level.get(&1).copied().unwrap_or(0.0);
    out.line(format!(
        "\nC1 : rest = {:.0} : {:.0}  (paper: ≈60:40); all C1 = {:.1}% of cluster (paper: ≈40%)",
        100.0 * c1 / total,
        100.0 * (total - c1) / total,
        100.0 * c1 / cluster
    ));
    Vec::new()
}

/// Table 1: end-to-end P95 latencies before and after diagonal scaling.
///
/// "After" is the state PhoenixFair reaches at the 42 % breaking point
/// (fair shares force every app to shed its non-critical tail): pruned
/// request types print "–", the partially-pruned HR `reserve` (guest
/// mode) gets *faster* thanks to gRPC fail-fast.
pub(super) fn table1(_: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let (workload, models) = cloudlab_workload();
    let mut state = ClusterState::new(cloudlab_capacities());
    PhoenixPolicy::fair().plan(&workload, &mut state);
    for id in state.node_ids().into_iter().skip(11) {
        state.fail_node(id);
    }
    PhoenixPolicy::fair().plan(&workload, &mut state);

    let mut table = Table::new(["app", "service", "P95 before (ms)", "P95 after (ms)"]);
    let cases: [(usize, &[&str]); 2] = [
        (0, &["edits", "compile", "spell_check"]),
        (4, &["reserve", "recommend", "search", "login"]),
    ];
    for (app_idx, requests) in cases {
        let up = |s: ServiceId| service_active(&workload, &state, app_idx, s.index());
        for r in latency_rows(&models[app_idx], requests, up, 42) {
            table.row([
                r.app.clone(),
                r.service.clone(),
                format!("{:.1}", r.before_ms),
                r.after_ms.map_or("–".to_string(), |a| format!("{a:.1}")),
            ]);
        }
    }
    out.push_str(&table.titled("Table 1: P95 latencies before/after diagonal scaling"));
    out.line(
        "\nPaper shape: edits ≈141→144, compile/spell_check pruned; reserve 55.3→50.1 (fail-fast), others pruned."
            .into(),
    );
    Vec::new()
}

/// Per-app serving capacity: nominal request throughput scaled by the
/// fraction of the app's container demand that is actually running.
fn capacity_rps(workload: &Workload, state: &ClusterState, app: usize, model: &AppModel) -> f64 {
    let spec = workload.app(AppId::new(app as u32));
    let total = spec.total_demand().scalar();
    let active: f64 = spec
        .service_ids()
        .filter(|s| service_active(workload, state, app, s.index()))
        .map(|s| spec.service(s).total_demand().scalar())
        .sum();
    let nominal: f64 = model.requests.iter().map(|r| r.rate_rps).sum();
    if total > 0.0 {
        nominal * active / total
    } else {
        0.0
    }
}

/// Combining degradation modes (§7, *Other degradation modes*).
///
/// Diagonal scaling (container-level), request-level load shedding and
/// QoS dimming are complementary. The CloudLab workload goes through the
/// Fig.-5 failure **plus** a post-failover flash crowd (2× nominal load)
/// under: no adaptation (congestion collapse on whatever survived);
/// shedding alone (the app-only posture of Fig. 1); diagonal scaling
/// alone (Phoenix replans, overflow still collapses); diagonal + priority
/// shedding; and diagonal + shedding + QoS dimming.
pub(super) fn degradation_modes(_: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let multiplier = 2.0;
    let (workload, models, _, failed) = cloudlab_failure(seed.unwrap_or(2024));
    let mut replanned = failed.clone();
    PhoenixPolicy::fair().plan(&workload, &mut replanned);
    out.line(format!(
        "CloudLab workload under {:.0}% capacity and {multiplier}x offered load",
        failed.healthy_capacity().cpu / failed.total_capacity().cpu * 100.0
    ));

    let dim = QosPolicy::DimUnderOverload {
        cost_factor: 0.6,
        utility_factor: 0.8,
    };
    use QosPolicy::Full;
    use SheddingPolicy::{None as NoShed, PriorityAware as Shed};
    let modes = [
        ("no adaptation", &failed, NoShed, Full),
        ("shed only", &failed, Shed, Full),
        ("diagonal only", &replanned, NoShed, Full),
        ("diagonal + shed", &replanned, Shed, Full),
        ("diagonal + shed + qos", &replanned, Shed, dim),
    ];
    let mut t = Table::new([
        "mode",
        "crit served",
        "served rps",
        "utility/s",
        "vs no adaptation",
    ]);
    let mut baseline_utility = None;
    for (label, state, policy, qos) in modes {
        let (mut crit, mut served, mut utility) = (0.0, 0.0, 0.0);
        for (i, model) in models.iter().enumerate() {
            let scenario = OverloadScenario {
                load_multiplier: multiplier,
                capacity_rps: capacity_rps(&workload, state, i, model),
            };
            let up = |s: ServiceId| service_active(&workload, state, i, s.index());
            let s = summarize(model, &shed(model, up, &scenario, policy, qos));
            crit += s.critical_served_frac;
            served += s.served_rps;
            utility += s.utility_rate;
        }
        crit /= models.len() as f64;
        let base = *baseline_utility.get_or_insert(utility.max(1e-9));
        t.row([
            label.to_string(),
            f3(crit),
            format!("{served:.0}"),
            format!("{utility:.0}"),
            format!("{:.2}x", utility / base),
        ]);
    }
    out.push_str(&t.titled("Degradation modes under failure + flash crowd (5 CloudLab apps)"));
    out.line(
        "\nDiagonal scaling restores the critical containers; shedding spends the\n\
         surviving capacity on the critical requests; dimming stretches it further."
            .into(),
    );
    Vec::new()
}

/// Monitor-cadence ablation (§5: "The Phoenix Agent monitors the cluster
/// state at 15-second granularity. This is a tunable parameter.").
///
/// Sweeps the agent's monitor interval (and the kubelet heartbeat grace
/// it compounds with) on the Fig.-6 scenario and reports detection time,
/// time to full recovery, and how many monitor ticks the control plane
/// paid for — the responsiveness-vs-load trade the paper tuned by hand.
pub(super) fn monitor_period(_: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let (workload, _) = cloudlab_workload();
    let scenario = kubelet_outage(seed.unwrap_or(6));
    let mut t = Table::new([
        "monitor",
        "grace",
        "detected after",
        "recovered after",
        "ticks/hour",
    ]);
    for (monitor_secs, grace_secs) in [
        (5u64, 30u64),
        (15, 90), // the paper's setting
        (30, 90),
        (60, 180),
        (120, 360),
    ] {
        let cfg = SimConfig {
            monitor_interval: SimTime::from_secs(monitor_secs),
            heartbeat_grace: SimTime::from_secs(grace_secs),
            ..SimConfig::default()
        };
        let horizon = SimTime::from_secs(2100);
        let trace = simulate(&workload, &PhoenixPolicy::fair(), &scenario, &cfg, horizon);
        let failure = trace
            .first_kind(MilestoneKind::Failure)
            .expect("failure occurs");
        let row_time = |kind| {
            trace
                .first_kind(kind)
                .map(|at| format!("{:.0}s", at.saturating_sub(failure).as_secs_f64()))
                .unwrap_or_else(|| "-".into())
        };
        t.row([
            format!("{monitor_secs}s"),
            format!("{grace_secs}s"),
            row_time(MilestoneKind::Detected),
            row_time(MilestoneKind::Recovered),
            format!("{}", 3600 / monitor_secs),
        ]);
    }
    out.push_str(&t.titled("Monitor cadence vs. response time (Fig.-6 scenario, PhoenixFair)"));
    out.line(
        "\nDetection ≈ grace + up-to-one monitor tick; recovery adds pod restart\n\
         latencies. Shorter ticks buy seconds of response time at linearly more\n\
         control-plane load — the trade §5 fixed at 15 s / 90 s."
            .into(),
    );
    Vec::new()
}
