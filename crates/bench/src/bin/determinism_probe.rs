//! Determinism probe: emits every class of parallelised output — cold
//! plans, warm replans over a churn scenario, a kubesim node-failure
//! run, a multi-trial AdaptLab sweep, a fixed-seed scenario campaign
//! (every family × 5 scenarios, plus the scripted adaptlab sweep),
//! serving-mode planning over the modal demo
//! workload with its utility-under-crunch campaign metrics, an
//! adversarial hunt with shrinking and the persisted-regression replay,
//! a chaos audit, a snapshot/restore + steady-replay check, and the
//! deterministic-plane observability counters — with all wall-clock
//! fields stripped.
//!
//! The CI determinism job runs this binary twice (`PHOENIX_THREADS=1`
//! and `PHOENIX_THREADS=4`) and diffs the outputs byte-for-byte; any
//! nondeterminism introduced into the `phoenix-exec` fan-outs shows up
//! as a diff here before it can corrupt a paper figure. `--threads N`
//! overrides the environment variable.

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::resources::ResourceModel;
use phoenix_adaptlab::runner::{failure_sweep, SweepConfig};
use phoenix_adaptlab::scenario::EnvConfig;
use phoenix_adaptlab::tagging::TaggingScheme;
use phoenix_apps::hotel::{hotel, HotelVariant};
use phoenix_apps::overleaf::{overleaf, OverleafVariant};
use phoenix_bench::init_threads;
use phoenix_chaos::node_chaos::{node_chaos, NodeChaosConfig};
use phoenix_chaos::{audit_tags, ChaosConfig};
use phoenix_cluster::{ClusterState, NodeId, Resources};
use phoenix_core::controller::{PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::standard_roster;
use phoenix_core::replan::ReplanDelta;
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::tags::Criticality;

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

/// Cold + warm churn rounds: prints the action plan and activation list
/// of every round (both go through the pooled app-rank / fingerprint
/// paths).
fn probe_churn() {
    for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
        let mut controller =
            PhoenixController::new(churn_workload(), PhoenixConfig::with_objective(kind));
        let mut live = ClusterState::homogeneous(8, Resources::cpu(4.0));
        for round in 0..6 {
            let result = controller.replan(&live, ReplanDelta::Full);
            let (d, m, s) = result.actions.counts();
            println!("churn {kind:?} round {round}: actions d={d} m={m} s={s}");
            for item in &result.rank.items {
                println!(
                    "  rank app={} svc={} demand={}",
                    item.app.index(),
                    item.service.index(),
                    item.demand.scalar()
                );
            }
            let mut placed: Vec<_> = result
                .target
                .assignments()
                .map(|(p, n, _)| (p, n.index()))
                .collect();
            placed.sort_unstable();
            for (pod, node) in placed {
                println!("  pod {pod} -> node {node}");
            }
            live = result.target.clone();
            match round {
                0 => {
                    live.fail_node(NodeId::new(0));
                }
                1 => {
                    live.fail_node(NodeId::new(1));
                    live.fail_node(NodeId::new(2));
                }
                2 => {
                    live.restore_node(NodeId::new(0));
                }
                _ => {
                    live.restore_node(NodeId::new(1));
                }
            }
        }
    }
}

/// Kubesim node-failure sweep (the chaos crate's simulated control
/// plane) — every field here is simulated time, not wall-clock.
fn probe_kubesim() {
    let model = overleaf("overleaf", OverleafVariant::Edits, 1.0);
    for policy in standard_roster() {
        let outcomes = node_chaos(&model, policy.as_ref(), &NodeChaosConfig::default());
        for o in outcomes {
            println!(
                "kubesim {} frac={:.2} utility={} recovered={} restore={:?}",
                policy.name(),
                o.failure_frac,
                o.settled_utility.to_bits(),
                o.critical_recovered,
                o.critical_restore_after,
            );
        }
    }
}

/// Multi-trial AdaptLab failure sweep; `plan_secs` (wall-clock) is the
/// one field deliberately omitted.
fn probe_sweep() {
    let env = EnvConfig {
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
    };
    let sweep = SweepConfig {
        failure_fracs: vec![0.1, 0.5, 0.8],
        trials: 3,
        ..SweepConfig::default()
    };
    for p in failure_sweep(&env, &sweep, &standard_roster()) {
        println!(
            "sweep {} frac={:.1} avail={} rev={} fair+={} fair-={} util={}",
            p.policy,
            p.failure_frac,
            p.metrics.availability.to_bits(),
            p.metrics.revenue.to_bits(),
            p.metrics.fairness_pos.to_bits(),
            p.metrics.fairness_neg.to_bits(),
            p.metrics.utilization.to_bits(),
        );
    }
}

/// Fixed-seed scenario campaign: every generated family × 5 scenarios
/// through the campaign runner (and the scripted adaptlab sweep), with
/// every float printed as bits and wall-clock omitted. This is the CI
/// guarantee behind the scenario engine: `PHOENIX_THREADS` moves only
/// wall-clock, never a scorecard byte.
fn probe_scenarios() {
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
    use phoenix_scenarios::campaign::{demo_workload, run_campaign, CampaignConfig};
    use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};

    let suite = generate_suite(&GeneratorConfig {
        nodes: 8,
        node_cpu: 4.0,
        scenarios_per_family: 5,
        apps: 3,
        seed: 42,
    });
    let policies: Vec<Box<dyn ResiliencePolicy>> =
        vec![Box::new(PhoenixPolicy::fair()), Box::new(DefaultPolicy)];
    let outcome = run_campaign(
        &demo_workload(3),
        &suite,
        &policies,
        &CampaignConfig::default(),
    )
    .expect("generated suite is valid");
    for s in &outcome.scores {
        println!(
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
        );
    }
    for c in &outcome.scorecards {
        println!(
            "scorecard {} {} n={} pass={} viol={} min={} final={} c1={:?}",
            c.family,
            c.policy,
            c.scenarios,
            c.rto_pass,
            c.violations,
            c.mean_min_availability.to_bits(),
            c.mean_final_availability.to_bits(),
            c.worst_c1_recovery_ms,
        );
    }

    // The scripted plans-only sweep over the same families.
    let env = EnvConfig {
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
    };
    let scripted_suite = generate_suite(&GeneratorConfig {
        nodes: 40,
        node_cpu: 64.0,
        scenarios_per_family: 1,
        apps: 5,
        seed: 3,
    });
    for p in phoenix_adaptlab::runner::scripted_sweep(&env, &scripted_suite, &standard_roster())
        .expect("generated suite is valid")
    {
        println!(
            "scripted {} {} avail={} rev={} fair+={} fair-={} util={}",
            p.scenario,
            p.policy,
            p.metrics.availability.to_bits(),
            p.metrics.revenue.to_bits(),
            p.metrics.fairness_pos.to_bits(),
            p.metrics.fairness_neg.to_bits(),
            p.metrics.utilization.to_bits(),
        );
    }
}

/// Serving-mode planning: churn rounds over the modal demo workload
/// (degraded-serving ladders on cache/batch) under a crunch, printing
/// every chosen mode, the ModeShift action counts, and the modal
/// campaign's utility metrics as bits. The CI diff extends the
/// thread-count-invariance guarantee to mode selection and
/// utility-under-crunch scoring.
fn probe_modes() {
    use phoenix_core::policies::{PhoenixPolicy, ResiliencePolicy};
    use phoenix_scenarios::campaign::{demo_workload_modal, run_campaign, CampaignConfig};
    use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};

    let workload = demo_workload_modal(3);
    let mut controller = PhoenixController::new(
        workload.clone(),
        PhoenixConfig::with_objective(ObjectiveKind::Fairness),
    );
    let mut live = ClusterState::homogeneous(6, Resources::cpu(4.0));
    for round in 0..5 {
        let result = controller.replan(&live, ReplanDelta::Full);
        let (d, m, s) = result.actions.counts();
        println!(
            "modes round {round}: actions d={d} m={m} s={s} shifts={} all_full={}",
            result.actions.mode_shifts(),
            result.modes.is_all_full(),
        );
        for (app, spec) in workload.apps() {
            for svc in 0..spec.service_count() {
                let svc = phoenix_core::spec::ServiceId::new(svc as u32);
                let mode = result.modes.get(app, svc);
                if mode != phoenix_core::spec::ServingMode::Full {
                    println!("  mode app={} svc={} {mode:?}", app.index(), svc.index());
                }
            }
        }
        let mut placed: Vec<_> = result
            .target
            .assignments()
            .map(|(p, n, r)| (p, n.index(), r.scalar().to_bits()))
            .collect();
        placed.sort_unstable();
        for (pod, node, demand) in placed {
            println!("  pod {pod} -> node {node} demand={demand}");
        }
        live = result.target.clone();
        match round {
            0 => {
                live.fail_node(NodeId::new(0));
            }
            1 => {
                live.fail_node(NodeId::new(1));
            }
            2 => {
                live.restore_node(NodeId::new(0));
            }
            _ => {
                live.restore_node(NodeId::new(1));
            }
        }
    }

    // The modal campaign: utility-under-crunch metrics, as bits.
    let suite = generate_suite(&GeneratorConfig {
        nodes: 8,
        node_cpu: 4.0,
        scenarios_per_family: 2,
        apps: 3,
        seed: 42,
    });
    let policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
    let outcome = run_campaign(&workload, &suite, &policies, &CampaignConfig::default())
        .expect("generated suite is valid");
    for s in &outcome.scores {
        println!(
            "modal scenario {} {} min_u={} final_u={}",
            s.scenario,
            s.policy,
            s.min_utility.to_bits(),
            s.final_utility.to_bits(),
        );
    }
    for c in &outcome.scorecards {
        println!(
            "modal scorecard {} {} mean_min_u={} mean_final_u={}",
            c.family,
            c.policy,
            c.mean_min_utility.to_bits(),
            c.mean_final_utility.to_bits(),
        );
    }
}

/// Adversarial hunt + shrink + regression replay: a small fixed-seed
/// hunt fans `(candidate, policy)` evaluations over the pool, the
/// champion shrinks through the deterministic lattice, and every
/// checked-in repro replays — all printed with wall-clock omitted, so
/// the CI diff proves the whole adversarial pipeline is thread-count
/// invariant.
fn probe_hunt() {
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
    use phoenix_scenarios::campaign::{demo_workload, CampaignConfig};
    use phoenix_scenarios::model::ScenarioDoc;
    use phoenix_scenarios::regression::{load_all, regressions_dir, replay};
    use phoenix_scenarios::search::{run_hunt, signature_of, HuntConfig};
    use phoenix_scenarios::shrink::shrink;

    let hunt = HuntConfig {
        population: 12,
        rounds: 2,
        elites: 4,
        ..HuntConfig::smoke(42)
    };
    let w = demo_workload(3);
    let cfg = CampaignConfig::default();
    let policies: Vec<Box<dyn ResiliencePolicy>> =
        vec![Box::new(PhoenixPolicy::cost()), Box::new(DefaultPolicy)];
    let outcome = run_hunt(&w, &policies, &hunt, &cfg);
    println!(
        "hunt seed={} evals={} champions={}",
        outcome.seed,
        outcome.evaluations,
        outcome.champions.len()
    );
    for c in &outcome.champions {
        println!(
            "hunt champion {} round={} candidate={} severity={} outages={} viol={} c1={:?}",
            c.policy,
            c.round,
            c.candidate,
            c.signature.severity_ms,
            c.signature.outages,
            c.signature.violations,
            c.signature.worst_c1_recovery_ms,
        );
        let policy = policies
            .iter()
            .find(|p| p.name() == c.policy)
            .expect("champion policy from roster");
        let mut oracle = |d: &ScenarioDoc| {
            signature_of(&w, d, policy.as_ref(), &cfg)
                .map(|s| s.severity_ms > 0)
                .unwrap_or(false)
        };
        let (small, report) = shrink(&c.doc, &mut oracle);
        let sig = signature_of(&w, &small, policy.as_ref(), &cfg).expect("shrunk doc validates");
        println!(
            "hunt shrunk {} events={}->{} horizon={}->{} severity={} evals={} passes={}",
            c.policy,
            c.doc.events.len(),
            small.events.len(),
            c.doc.horizon_ms,
            small.horizon_ms,
            sig.severity_ms,
            report.evals,
            report.passes,
        );
    }
    for doc in load_all(&regressions_dir()).expect("regressions dir readable") {
        let fresh = replay(&doc, &cfg).expect("repro replays");
        println!(
            "regression {} pinned={} fresh={} outages={} viol={} c1={:?}",
            doc.name,
            doc.signature.severity_ms,
            fresh.severity_ms,
            fresh.outages,
            fresh.violations,
            fresh.worst_c1_recovery_ms,
        );
    }
}

/// Snapshot/restore and steady-replay determinism: journaled-arena churn
/// must rewind bit-exactly (same `used` bits, same iteration order), and
/// a campaign cell replayed from a captured [`SteadyState`] must match
/// the cold simulation byte for byte. Both are asserted in-process *and*
/// printed, so the 1-vs-4-thread CI diff extends to the clone-free trial
/// paths (`failure_sweep` restores, campaign/hunt steady replays).
///
/// [`SteadyState`]: phoenix_kubesim::run::SteadyState
fn probe_snapshot() {
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
    use phoenix_kubesim::run::{simulate, simulate_from, SimConfig, SteadyState};
    use phoenix_scenarios::campaign::demo_workload;
    use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};

    // 1. Journal rewind under churn across every mutation class.
    let mut state = ClusterState::homogeneous(12, Resources::cpu(8.0));
    for i in 0..10u32 {
        state
            .assign(
                phoenix_cluster::PodKey::new(i / 4, i % 4, 0),
                Resources::cpu(1.0 + f64::from(i % 3)),
                NodeId::new(i % 12),
            )
            .expect("probe pods fit");
    }
    state.set_degrade(NodeId::new(11), 0.5);
    let reference = state.clone();
    let snap = state.snapshot();
    state.fail_node(NodeId::new(0));
    state.set_degrade(NodeId::new(1), 0.25);
    state
        .assign(
            phoenix_cluster::PodKey::new(9, 9, 9),
            Resources::cpu(2.0),
            NodeId::new(5),
        )
        .expect("churn pod fits");
    state.remove(phoenix_cluster::PodKey::new(1, 1, 0)).ok();
    state.restore_node(NodeId::new(0));
    state.restore_to(&snap);
    assert!(
        state.bitwise_eq(&reference),
        "restore_to drifted from the pre-churn state"
    );
    // Print assignments in iteration order — this pins the restored
    // intern order itself into the diffed output.
    for (pod, node, demand) in state.assignments() {
        println!(
            "snapshot churn pod {pod} -> node {} demand={}",
            node.index(),
            demand.scalar().to_bits()
        );
    }

    // 2. Steady-state replay vs cold simulation, per (scenario, policy).
    let suite = generate_suite(&GeneratorConfig {
        nodes: 8,
        node_cpu: 4.0,
        scenarios_per_family: 1,
        apps: 3,
        seed: 7,
    });
    let w = demo_workload(3);
    let policies: Vec<Box<dyn ResiliencePolicy>> =
        vec![Box::new(PhoenixPolicy::fair()), Box::new(DefaultPolicy)];
    let sim = SimConfig::default();
    for doc in &suite.scenarios {
        let scenario = doc.compile().expect("generated doc compiles");
        for p in &policies {
            let steady = SteadyState::compute(&w, p.as_ref(), &scenario.node_capacities);
            let cold = simulate(&w, p.as_ref(), &scenario, &sim, doc.horizon());
            let warm = simulate_from(
                &w,
                p.as_ref(),
                &scenario,
                &sim,
                doc.horizon(),
                Some(&steady),
            );
            assert_eq!(
                cold.samples,
                warm.samples,
                "steady replay diverged from cold simulate: {} under {}",
                doc.name,
                p.name()
            );
            assert_eq!(cold.milestones, warm.milestones);
            let final_u = warm.samples.last().map_or(0, |s| s.utility.to_bits());
            println!(
                "snapshot campaign {} {} samples={} milestones={} plans={} final_u={final_u}",
                doc.name,
                p.name(),
                warm.samples.len(),
                warm.milestones.len(),
                warm.plans.len(),
            );
        }
    }
}

/// Deterministic-plane observability counters: run a fixed churn-replan
/// loop plus a small fixed-seed campaign under an *enabled*
/// [`Recorder`](phoenix_obs::Recorder) and print every counter in
/// [`Counter::ALL`](phoenix_obs::Counter::ALL) order. The counters are
/// commutative sums and `max` gauges over work the planner does, never
/// over how the pool chunked it, so the printed block must be
/// byte-identical at `PHOENIX_THREADS=1` and `4` — this section is what
/// pins that contract in CI. Wall-clock histograms and spans are the
/// recorder's other plane and are deliberately absent here.
fn probe_obs() {
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
    use phoenix_scenarios::campaign::{demo_workload_modal, run_campaign, CampaignConfig};
    use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};

    let recorder = phoenix_obs::Recorder::enabled();
    phoenix_obs::with_recorder(recorder.clone(), || {
        // Planner-side counters: cold plan + warm replans across both replan
        // delta classes (cache hits/misses, rank replays, waterfill, packing,
        // snapshot journal churn).
        let mut controller = PhoenixController::new(
            churn_workload(),
            PhoenixConfig::with_objective(ObjectiveKind::Fairness),
        );
        let mut live = ClusterState::homogeneous(8, Resources::cpu(4.0));
        for round in 0..4 {
            let delta = if round % 2 == 0 {
                ReplanDelta::Full
            } else {
                ReplanDelta::CapacityOnly
            };
            let result = controller.replan(&live, delta);
            live = result.target.clone();
            if round == 1 {
                live.fail_node(NodeId::new(round));
            }
        }

        // Simulator/campaign counters: events, milestones, mode shifts,
        // per-cell fan-out. Packing is sequential, so no pool-shape-derived
        // quantity ever reaches a counter.
        let suite = generate_suite(&GeneratorConfig {
            nodes: 8,
            node_cpu: 4.0,
            scenarios_per_family: 1,
            apps: 2,
            seed: 11,
        });
        let policies: Vec<Box<dyn ResiliencePolicy>> =
            vec![Box::new(PhoenixPolicy::fair()), Box::new(DefaultPolicy)];
        run_campaign(
            &demo_workload_modal(2),
            &suite,
            &policies,
            &CampaignConfig::default(),
        )
        .expect("generated suite is valid");

        // Sweep counters: per-trial fan-out plus the journaled
        // snapshot/restore churn its clone-free trials ride on.
        let env = EnvConfig {
            nodes: 12,
            node_capacity: 64.0,
            target_utilization: 0.7,
            resource_model: ResourceModel::CallsPerMinute,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: AlibabaConfig {
                apps: 3,
                max_services: 20,
                max_requests: 10_000.0,
                ..AlibabaConfig::default()
            },
            seed: 5,
        };
        let sweep = SweepConfig {
            failure_fracs: vec![0.5],
            trials: 2,
            ..SweepConfig::default()
        };
        std::hint::black_box(failure_sweep(&env, &sweep, &standard_roster()).len());
    });

    for (name, value) in recorder.counters() {
        println!("obs {name}={value}");
    }
}

/// Chaos tag audits for both reference applications.
fn probe_audit() {
    for model in [
        overleaf("overleaf", OverleafVariant::Edits, 1.0),
        hotel("hr", HotelVariant::Reserve, 1.0),
    ] {
        let report = audit_tags(&model, &ChaosConfig::default());
        for d in &report.degrees {
            println!(
                "audit {} degree={:.2} retained={} utility={} killed={:?}",
                report.app,
                d.degree,
                d.critical_retained,
                d.utility_score.to_bits(),
                d.killed,
            );
        }
        for v in &report.violations {
            println!(
                "audit {} violation svc={} tag={} breaks={}",
                report.app, v.service, v.tag, v.broken_request
            );
        }
    }
}

fn main() {
    let threads = init_threads();
    // The thread count itself must NOT be printed into the diffed body —
    // report it on stderr only.
    eprintln!("determinism probe on {threads} thread(s)");
    probe_churn();
    probe_kubesim();
    probe_sweep();
    probe_scenarios();
    probe_modes();
    probe_hunt();
    probe_audit();
    // A section may be added or deleted whole; a surviving section never
    // changes bytes.
    probe_snapshot();
    probe_obs();
}
