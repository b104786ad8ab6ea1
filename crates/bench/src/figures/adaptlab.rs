//! The AdaptLab figures: Alibaba-like workloads on a simulated cluster
//! whose size follows the [`Scale`].

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::metrics::{critical_service_availability, evaluate, revenue, SchemeMetrics};
use phoenix_adaptlab::replay::{replay, CapacityScript};
use phoenix_adaptlab::resources::ResourceModel;
use phoenix_adaptlab::runner::{failure_sweep, point, SweepConfig, SweepPoint};
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_adaptlab::tagging::TaggingScheme;
use phoenix_cluster::failure::fail_fraction;
use phoenix_cluster::packing::{FitStrategy, PackingConfig};
use phoenix_cluster::ClusterState;
use phoenix_core::actions::Action;
use phoenix_core::audit::{audit_workload, blast_radius, inflate_tags};
use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::{CriticalityObjective, ObjectiveKind};
use phoenix_core::planner::{PlannerConfig, Traversal};
use phoenix_core::policies::{
    standard_roster, DefaultPolicy, FairPolicy, PhoenixPolicy, PriorityPolicy, ResiliencePolicy,
};
use phoenix_core::spec::{AppId, ServiceId, Workload};
use phoenix_core::stateful::{check_pinned, StatefulMarks};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Claim, Scale};
use crate::{f3, replan_scenario, secs, Line, Table};

/// `state` with `frac` of its nodes failed, victims drawn from `seed`.
fn failed(state: &ClusterState, frac: f64, seed: u64) -> ClusterState {
    let mut state = state.clone();
    fail_fraction(&mut state, frac, &mut StdRng::seed_from_u64(seed));
    state
}

/// The cluster the three AdaptLab ablations share: apps capped at 240
/// services on 32-CPU nodes at 80 % load.
fn small_apps(nodes: usize, seed: u64) -> EnvConfig {
    EnvConfig {
        nodes,
        node_capacity: 32.0,
        target_utilization: 0.8,
        alibaba: AlibabaConfig {
            max_services: 240,
            ..AlibabaConfig::default()
        },
        seed,
        ..EnvConfig::default()
    }
}

/// The swept metrics of `policy` at failure level `frac`.
fn at(points: &[SweepPoint], policy: &str, frac: f64) -> SchemeMetrics {
    point(points, policy, frac).expect("swept cell").metrics
}

/// Figure 7: AdaptLab at scale — availability, normalized revenue and
/// fairness deviation vs. failure level, Service-Level-P90 tagging + CPM
/// resources. Default scale is 2 000 nodes × 3 trials, full scale the
/// paper's 100 000 × 5. Trials fan out across the `phoenix-exec` pool.
pub(super) fn fig7(scale: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let threads = phoenix_exec::global().threads();
    let nodes = scale.pick(100, 2_000, 100_000);
    let trials = scale.pick(1, 3, 5);
    let env = EnvConfig {
        nodes,
        seed: seed.unwrap_or(42),
        ..EnvConfig::default()
    };
    out.line(format!(
        "AdaptLab: {nodes} nodes × {} cap, Service-Level-P90 + CPM, {trials} trials, {threads} threads",
        env.node_capacity
    ));
    let fracs: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let sweep = SweepConfig {
        failure_fracs: fracs.clone(),
        trials,
    };
    let roster = standard_roster();
    let points = failure_sweep(&env, &sweep, &roster);
    let names: Vec<&str> = roster.iter().map(|p| p.name()).collect();

    // (a) availability and (b) revenue: one row per failure level.
    type Panel = (&'static str, fn(&SchemeMetrics) -> f64);
    let tables: [Panel; 2] = [
        (
            "Figure 7(a): critical service availability vs. failure level",
            |m| m.availability,
        ),
        ("Figure 7(b): normalized revenue vs. failure level", |m| {
            m.revenue
        }),
    ];
    for (title, metric) in tables {
        let mut t = Table::new(std::iter::once("failed%").chain(names.iter().copied()));
        for &frac in &fracs {
            let mut row = vec![format!("{:.0}", frac * 100.0)];
            row.extend(names.iter().map(|n| f3(metric(&at(&points, n, frac)))));
            t.row(row);
        }
        out.push_str(&t.titled(title));
    }

    // (c) Fairness deviation at 10/50/90 %.
    let mut t = Table::new(["failed%", "scheme", "deviation+ ", "deviation-", "total"]);
    for frac in [0.1, 0.5, 0.9] {
        for n in &names {
            let m = at(&points, n, frac);
            t.row([
                format!("{:.0}", frac * 100.0),
                n.to_string(),
                f3(m.fairness_pos),
                f3(m.fairness_neg),
                f3(m.fairness_pos + m.fairness_neg),
            ]);
        }
    }
    out.push_str(&t.titled("Figure 7(c): deviation from fair share"));

    // Planning-time summary (feeds the Fig. 8b claim).
    let mut t = Table::new(["scheme", "mean plan time (s)"]);
    for n in &names {
        let total: f64 = fracs.iter().map(|&f| at(&points, n, f).plan_secs).sum();
        t.row([n.to_string(), format!("{:.3}", total / fracs.len() as f64)]);
    }
    out.push_str(&t.titled("Planning time at this scale"));
    let avail = |n: &str, f: f64| at(&points, n, f).availability;
    vec![Claim {
        what: "PhoenixFair availability >= Default at every failure level",
        holds: fracs
            .iter()
            .all(|&f| avail("PhoenixFair", f) >= avail("Default", f)),
    }]
}

/// Figure 8a: requests served over a 10-minute window while cluster
/// capacity swings (fail to 40 % at t=120 s, partial restore to 70 % at
/// t=360 s, full restore at t=480 s). Default scale is 1 000 nodes, full
/// scale the paper's 10 000.
pub(super) fn fig8a(scale: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let nodes = scale.pick(100, 1_000, 10_000);
    let env = build_env(&EnvConfig {
        nodes,
        seed: seed.unwrap_or(7),
        ..EnvConfig::default()
    });
    out.line(format!(
        "Replay environment: {nodes} nodes, {} app instances",
        env.workload.app_count()
    ));
    let script: CapacityScript = vec![(0.0, 1.0), (120.0, 0.4), (360.0, 0.7), (480.0, 1.0)];
    let policies: Vec<Box<dyn ResiliencePolicy>> = vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
        Box::new(PriorityPolicy),
        Box::new(FairPolicy),
        Box::new(DefaultPolicy),
    ];
    let results: Vec<_> = policies
        .iter()
        .map(|p| (p.name(), replay(&env, p.as_ref(), &script, 600.0, 15.0, 11)))
        .collect();

    let mut header = vec!["t(s)".to_string(), "capacity".to_string()];
    header.extend(results.iter().map(|(n, _)| format!("{n} rps")));
    let mut t = Table::new(header);
    for (i, tick) in results[0].1.ticks.iter().enumerate() {
        let mut row = vec![
            format!("{:.0}", tick.t),
            format!("{:.0}%", tick.capacity_frac * 100.0),
        ];
        row.extend(
            results
                .iter()
                .map(|(_, r)| format!("{:.2}", r.ticks[i].served_rps)),
        );
        t.row(row);
    }
    out.push_str(&t.titled("Figure 8a: requests served under varying capacity"));

    let mut t = Table::new(["scheme", "total requests", "vs Fair", "vs Priority"]);
    let total = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, r)| r.total_requests)
    };
    for (n, r) in &results {
        t.row([
            n.to_string(),
            format!("{:.0}", r.total_requests),
            format!("{:.2}x", r.total_requests / total("Fair")),
            format!("{:.2}x", r.total_requests / total("Priority")),
        ]);
    }
    out.push_str(&t.titled("Figure 8a: totals over the window"));
    Vec::new()
}

/// Figure 8c: cluster utilization of the Phoenix planner (aggregate
/// plan), the Phoenix scheduler (planner + packing) and the Default
/// scheduler across failure levels. A small planner→scheduler drop means
/// the bin packing loses almost nothing the aggregate plan promised.
pub(super) fn fig8c(scale: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let env = build_env(&EnvConfig {
        nodes: scale.pick(100, 2_000, 2_000),
        seed: seed.unwrap_or(9),
        ..EnvConfig::default()
    });
    let controller = PhoenixController::new(
        env.workload.clone(),
        PhoenixConfig::with_objective(ObjectiveKind::Fairness),
    );

    let mut table = Table::new([
        "failed%",
        "PhoenixPlanner",
        "PhoenixScheduler",
        "DefaultScheduler",
    ]);
    for level in 0..=9 {
        let frac = level as f64 / 10.0;
        let failed = failed(&env.baseline, frac, 1000 + level as u64);
        let capacity = failed.healthy_capacity().cpu;
        let result = controller.plan(&failed);
        // Planner-level utilization: what the aggregate plan admitted.
        let planned: f64 = result.rank.allocated.iter().sum();
        let planner_util = if capacity > 0.0 {
            planned / capacity
        } else {
            0.0
        };
        let mut by_default = failed.clone();
        DefaultPolicy.plan(&env.workload, &mut by_default);
        table.row([
            format!("{:.0}", frac * 100.0),
            f3(planner_util.min(1.0)),
            f3(result.target.utilization()),
            f3(by_default.utilization()),
        ]);
    }
    out.push_str(&table.titled("Figure 8c: normalized cluster utilization vs. failure level"));
    Vec::new()
}

/// Figures 10–16 (Appendix F.2): every criticality-tagging scheme ×
/// resource model — {Service-Level, Freq-Based} × {P50, P90} × {CPM,
/// LongTailed} — at three failure levels. Phoenix should lead the
/// baselines in every cell (the paper's summary of the appendix).
pub(super) fn fig10_16(scale: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let nodes = scale.pick(100, 1_000, 1_000);
    let fracs = vec![0.1, 0.5, 0.9];
    let schemes = [
        TaggingScheme::ServiceLevel { percentile: 0.5 },
        TaggingScheme::ServiceLevel { percentile: 0.9 },
        TaggingScheme::FrequencyBased { percentile: 0.5 },
        TaggingScheme::FrequencyBased { percentile: 0.9 },
    ];
    for model in [ResourceModel::CallsPerMinute, ResourceModel::LongTailed] {
        for scheme in schemes {
            let env = EnvConfig {
                resource_model: model,
                tagging: scheme,
                ..replan_scenario::env_config(nodes, 23)
            };
            let sweep = SweepConfig {
                failure_fracs: fracs.clone(),
                trials: scale.pick(1, 2, 2),
            };
            let roster = standard_roster();
            let points = failure_sweep(&env, &sweep, &roster);
            let mut t = Table::new(["failed%", "scheme", "availability", "revenue", "fair-dev"]);
            for &frac in &fracs {
                for p in &roster {
                    let m = at(&points, p.name(), frac);
                    t.row([
                        format!("{:.0}", frac * 100.0),
                        p.name().to_string(),
                        f3(m.availability),
                        f3(m.revenue),
                        f3(m.fairness_pos + m.fairness_neg),
                    ]);
                }
            }
            out.push_str(&t.titled(&format!(
                "Figs 10–16: {} tagging × {} resources ({nodes} nodes)",
                scheme.label(),
                model.label()
            )));
        }
    }
    Vec::new()
}

/// Ablations over the main design choices at 60 % failure:
/// Algorithm-1 traversal (criticality-guided DFS vs. strict frontier),
/// planner saturation (the paper's `break` vs. per-app chain
/// retirement), the packing fit strategy, and the migration step.
pub(super) fn ablations(scale: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let nodes = scale.pick(100, 1_000, 1_000);
    // Long-tailed pod sizes on small nodes make fragmentation real, so the
    // packing and ordering knobs actually move the metrics.
    let env = build_env(&EnvConfig {
        target_utilization: 0.85,
        resource_model: ResourceModel::LongTailed,
        ..small_apps(nodes, 31)
    });
    let failed = failed(&env.baseline, 0.6, 31);
    let base_rev = revenue(&env.workload, &env.baseline);

    let planner = |traversal, continue_on_saturation| {
        PhoenixPolicy::fair().planner_config(PlannerConfig {
            traversal,
            continue_on_saturation,
        })
    };
    let packing = |fit, enable_migration| {
        PhoenixPolicy::fair().packing_config(PackingConfig {
            fit,
            enable_migration,
            ..PackingConfig::default()
        })
    };
    let variants = [
        (
            "baseline (dfs, retire, best-fit, migration)",
            PhoenixPolicy::fair(),
        ),
        (
            "traversal = strict frontier",
            planner(Traversal::StrictFrontier, true),
        ),
        (
            "saturation = paper break",
            planner(Traversal::CriticalityGuidedDfs, false),
        ),
        ("fit = first-fit", packing(FitStrategy::FirstFit, true)),
        ("fit = worst-fit", packing(FitStrategy::WorstFit, true)),
        (
            "migration off",
            packing(PackingConfig::default().fit, false),
        ),
    ];

    let mut t = Table::new([
        "variant",
        "availability",
        "revenue",
        "utilization",
        "plan time",
        "notes",
    ]);
    for (name, policy) in &variants {
        let mut target = failed.clone();
        let plan = policy.plan(&env.workload, &mut target);
        let m = evaluate(
            &env.workload,
            &target,
            base_rev,
            plan.planning_time.as_secs_f64(),
        );
        t.row([
            name.to_string(),
            f3(m.availability),
            f3(m.revenue),
            f3(m.utilization),
            secs(m.plan_secs),
            plan.notes.clone(),
        ]);
    }
    out.push_str(&t.titled(&format!(
        "Ablations at 60% failure, {nodes} nodes ({} apps)",
        env.workload.app_count()
    )));
    Vec::new()
}

/// The three operator objectives of [`adversarial`], in row order.
fn objectives() -> [(&'static str, PhoenixConfig); 3] {
    let priority = PhoenixConfig {
        objective: Box::new(CriticalityObjective),
        planner: PlannerConfig {
            continue_on_saturation: true,
            ..PlannerConfig::default()
        },
        packing: Default::default(),
    };
    [
        ("priority (no quotas)", priority),
        (
            "phoenix cost",
            PhoenixConfig::with_objective(ObjectiveKind::Cost),
        ),
        (
            "phoenix fairness",
            PhoenixConfig::with_objective(ObjectiveKind::Fairness),
        ),
    ]
}

/// What [`adversarial`] checks at 30, 60 and 90 % failure.
const LIAR_CLAIMS: [&str; 3] = [
    "at 30% failure both Phoenix rows' liar gain < the priority row's",
    "at 60% failure both Phoenix rows' liar gain < the priority row's",
    "at 90% failure both Phoenix rows' liar gain < the priority row's",
];

/// Adversarial criticality tags at scale (§7, *Adversarial or Incorrect
/// Criticality Tags*).
///
/// One tenant (app 4) inflates all of its tags to `C1`. The static audit
/// flags it; the blast radius quantifies what the lie buys under three
/// operator objectives. The paper's claim — "operators can employ
/// policies such as resource fairness to limit the impact of incorrect
/// tags" — shows up as the Phoenix rows pinning the liar's gain below
/// what the quota-free criticality ordering (the `Priority` baseline)
/// hands it.
pub(super) fn adversarial(scale: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let nodes = scale.pick(100, 1_000, 1_000);
    let inflator = AppId::new(4);
    let env = build_env(&small_apps(nodes, 41));
    let spec = env.workload.app(inflator);
    out.line(format!(
        "inflator: {} ({} services, {:.0} CPU demand)",
        spec.name(),
        spec.service_count(),
        spec.total_demand().scalar()
    ));

    // The audit sees the inflated submission.
    let mut submitted: Vec<_> = env.workload.apps().map(|(_, a)| a.clone()).collect();
    submitted[inflator.index()] = inflate_tags(&submitted[inflator.index()]);
    let report = audit_workload(&Workload::new(submitted));
    let flagged = report
        .suspicious()
        .any(|a| a.app == inflator && !a.findings.is_empty());
    out.line(format!("static audit flags the inflator: {flagged}"));

    let mut t = Table::new([
        "objective",
        "failed %",
        "liar gain",
        "victim loss",
        "victims hit",
        "worst C1 drop",
    ]);
    let mut claims = Vec::new();
    for (failure, what) in [0.3, 0.6, 0.9].into_iter().zip(LIAR_CLAIMS) {
        let state = failed(&env.baseline, failure, 41);
        let mut gains = Vec::new();
        for (label, cfg) in objectives() {
            let br = blast_radius(&env.workload, inflator, &state, &cfg);
            let victims_hit = br
                .honest_c1
                .iter()
                .zip(&br.adversarial_c1)
                .enumerate()
                .filter(|&(i, (&h, &a))| i != inflator.index() && h - a > 1e-9)
                .count();
            let worst = br.worst_victim().map_or(0.0, |(_, d)| d);
            gains.push(br.inflator_gain());
            t.row([
                label.to_string(),
                format!("{:.0}", failure * 100.0),
                f3(br.inflator_gain()),
                f3(br.victim_loss()),
                victims_hit.to_string(),
                f3(worst),
            ]);
        }
        let holds = gains[1].max(gains[2]) < gains[0];
        claims.push(Claim { what, holds });
    }
    out.push_str(&t.titled(&format!(
        "Blast radius of all-C1 tag inflation, {nodes} nodes, {} apps",
        env.workload.app_count()
    )));
    out.line(
        "\nFairness caps the liar at its fair share; the quota-free priority\n\
         ordering converts the lie directly into stolen capacity."
            .into(),
    );
    claims
}

/// Marks the heaviest services as stateful until they hold `share` of the
/// total demand — databases are usually the big ones.
fn mark_heaviest(workload: &Workload, share: f64) -> StatefulMarks {
    let mut services: Vec<(f64, AppId, ServiceId)> = workload
        .apps()
        .flat_map(|(app, spec)| {
            spec.service_ids()
                .map(move |s| (spec.service(s).total_demand().scalar(), app, s))
        })
        .collect();
    services.sort_by(|a, b| b.0.total_cmp(&a.0));
    let total: f64 = services.iter().map(|s| s.0).sum();
    let mut marks = StatefulMarks::new();
    let mut held = 0.0;
    for (demand, app, service) in services {
        if held >= total * share {
            break;
        }
        held += demand;
        marks.mark(app, service);
    }
    marks
}

/// The price of pinning state (§1/§7, *Stateful Workloads*).
///
/// The paper scopes Phoenix to stateless services and defers stateful
/// support. As the stateful share of demand grows, pinned planning
/// (`core::controller::plan` with pins) loses scheduling freedom — pins can
/// neither migrate nor be traded for critical stateless services — while
/// a stateless-only planner run naively on the same mixed workload would
/// delete or migrate the databases (counted as pin violations, i.e.
/// data-loss incidents).
pub(super) fn stateful(scale: Scale, _: Option<u64>, out: &mut String) -> Vec<Claim> {
    let nodes = scale.pick(100, 1_000, 1_000);
    let env = build_env(&small_apps(nodes, 51));
    let config = PhoenixConfig::default();

    let mut t = Table::new([
        "stateful share",
        "failed %",
        "avail (pinned)",
        "avail (naive)",
        "naive pin violations",
        "stranded",
    ]);
    let (mut pins_kept, mut unpinned_is_naive) = (true, true);
    for share in [0.0, 0.1, 0.2, 0.4] {
        let marks = mark_heaviest(&env.workload, share);
        for failure in [0.3, 0.6] {
            let live = failed(&env.baseline, failure, 51);

            // Pinned planning: state is safe by construction.
            let pinned = plan(&env.workload, live.clone(), &config, &marks);
            pins_kept &= check_pinned(&pinned, &env.workload, &marks, &live, &config).is_ok();

            // Naive planning: run the stateless pipeline on the mixed
            // workload and count how many pins it would have destroyed.
            let naive = plan(&env.workload, live, &config, &StatefulMarks::new());
            let violations = naive
                .actions
                .actions
                .iter()
                .filter(|a| {
                    matches!(a, Action::Delete { .. } | Action::Migrate { .. })
                        && marks.contains_pod(a.pod())
                })
                .count();

            let avail = |target| critical_service_availability(&env.workload, target);
            let (pinned_avail, naive_avail) = (avail(&pinned.target), avail(&naive.target));
            if share == 0.0 {
                unpinned_is_naive &= pinned_avail == naive_avail && pinned.stranded.is_empty();
            }
            t.row([
                format!("{:.0}%", share * 100.0),
                format!("{:.0}", failure * 100.0),
                f3(pinned_avail),
                f3(naive_avail),
                violations.to_string(),
                pinned.stranded.len().to_string(),
            ]);
        }
    }
    out.push_str(&t.titled(&format!(
        "Pinned vs naive planning with stateful demand, {nodes} nodes, {} apps",
        env.workload.app_count()
    )));
    out.line(
        "\nNaive planning keeps more services alive by treating the databases as\n\
         movable/sheddable — every pin violation it takes to get there is a\n\
         data-loss incident. Pinned planning trades those violations for an\n\
         availability cost that grows sharply with the stateful share: lost\n\
         state is re-placed ahead of every stateless container, so at high\n\
         shares it consumes the surviving capacity before C1 chains are even\n\
         considered. This is the quantitative case for the paper's §6.1\n\
         practice of running state on a separate cluster."
            .into(),
    );
    vec![
        Claim {
            what:
                "pinned plans never delete or migrate a pin, and strand only pins that fit nowhere",
            holds: pins_kept,
        },
        Claim {
            what: "at 0% stateful share pinned availability equals naive, with nothing stranded",
            holds: unpinned_is_naive,
        },
    ]
}
