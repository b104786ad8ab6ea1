//! Integration tests for the §7-roadmap hardening features, exercised
//! through the public facade:
//!
//! * stateful-workload awareness — pins survive an end-to-end failure /
//!   recovery cycle alongside Phoenix's normal diagonal scaling;
//! * adversarial tag auditing — the audit + fairness guard work on the
//!   CloudLab workload, not just toy specs;
//! * log-based criticality inference feeding the planner — tags inferred
//!   from sampled traces produce a plan whose critical coverage matches
//!   ground-truth tags;
//! * degradation-mode composition — diagonal scaling + shedding beats
//!   either alone on the Fig.-5 scenario.

use phoenix::adaptlab::alibaba::{generate, AlibabaConfig};
use phoenix::adaptlab::inference::{infer_tags, synthesize_log, InferenceConfig, LogConfig};
use phoenix::adaptlab::metrics::service_active;
use phoenix::apps::instances::{cloudlab_capacities, cloudlab_workload};
use phoenix::apps::shedding::{shed, summarize, OverloadScenario, QosPolicy, SheddingPolicy};
use phoenix::cluster::{ClusterState, Resources};
use phoenix::core::audit::{audit_workload, blast_radius, AuditConfig};
use phoenix::core::controller::{PhoenixConfig, PhoenixController};
use phoenix::core::objectives::ObjectiveKind;
use phoenix::core::policies::{PhoenixPolicy, ResiliencePolicy};
use phoenix::core::spec::{AppId, AppSpecBuilder, ServiceId, Workload};
use phoenix::core::stateful::{plan_pinned, StatefulMarks};
use phoenix::core::tags::Criticality;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A stateful mark set over the CloudLab workload (pretend each app's
/// heaviest service is its database) survives a failure/recovery cycle
/// with zero pin violations and no loss of the stateless plan's quality.
#[test]
fn stateful_pins_hold_through_failure_and_recovery() {
    let (workload, _) = cloudlab_workload();
    // Mark the largest service of each app as stateful.
    let mut marks = StatefulMarks::new();
    for (app, spec) in workload.apps() {
        let heaviest = spec
            .service_ids()
            .max_by(|&a, &b| {
                spec.service(a)
                    .total_demand()
                    .scalar()
                    .partial_cmp(&spec.service(b).total_demand().scalar())
                    .unwrap()
            })
            .unwrap();
        marks.mark(app, heaviest);
    }

    let mut live = ClusterState::new(cloudlab_capacities());
    let config = PhoenixConfig::default();
    let fresh = plan_pinned(&workload, &marks, &live, &config);
    fresh.check(&workload, &marks, &live, &config).unwrap();
    assert!(fresh.stranded.is_empty(), "full cluster strands nothing");
    for (pod, node, demand) in fresh.target.assignments() {
        live.assign(pod, demand, node).unwrap();
    }
    let before = live.pod_count();

    // Fail 10 of 25 nodes, replan, recover, replan again.
    let mut rng = StdRng::seed_from_u64(7);
    phoenix::cluster::failure::fail_fraction(&mut live, 0.4, &mut rng);
    let crunch = plan_pinned(&workload, &marks, &live, &config);
    crunch.check(&workload, &marks, &live, &config).unwrap();
    crunch.target.check_invariants().unwrap();
    assert!(crunch.target.pod_count() < before, "crunch must shed pods");

    // Apply the crunch plan, then restore and replan to full strength.
    let mut degraded = crunch.target.clone();
    phoenix::cluster::failure::restore_all(&mut degraded);
    let recovered = plan_pinned(&workload, &marks, &degraded, &config);
    recovered
        .check(&workload, &marks, &degraded, &config)
        .unwrap();
    assert_eq!(
        recovered.target.pod_count(),
        before,
        "full capacity restores the full workload"
    );
}

/// The audit passes the (honestly-tagged) CloudLab workload and the
/// fairness objective bounds an inflating CloudLab tenant.
#[test]
fn cloudlab_workload_audits_clean_and_fairness_guards_it() {
    let (workload, _) = cloudlab_workload();
    let report = audit_workload(&workload, &AuditConfig::default());
    assert!(
        report.passed(),
        "CloudLab tags are honest: {:?}",
        report.suspicious().map(|a| &a.name).collect::<Vec<_>>()
    );

    let mut state = ClusterState::new(cloudlab_capacities());
    let mut rng = StdRng::seed_from_u64(2024);
    phoenix::cluster::failure::fail_fraction(&mut state, 0.56, &mut rng);
    let br = blast_radius(
        &workload,
        AppId::new(1),
        &state,
        &PhoenixConfig::with_objective(ObjectiveKind::Fairness),
    );
    // Under fairness the inflator cannot push any honest tenant's truly
    // critical coverage down.
    assert!(br.worst_victim().is_none(), "{:?}", br.worst_victim());
}

/// Tags inferred from a 5 % sampled call log drive the planner to the
/// same critical coverage as ground-truth frequency-based tags.
#[test]
fn inferred_tags_plan_as_well_as_ground_truth() {
    let mut rng = StdRng::seed_from_u64(5);
    let apps = generate(
        &mut rng,
        &AlibabaConfig {
            apps: 3,
            max_services: 120,
            max_requests: 80_000.0,
            ..AlibabaConfig::default()
        },
    );

    // Build one Workload per tag source over the same trace apps.
    let build = |tag_sets: &[Vec<Criticality>]| {
        let mut specs = Vec::new();
        for (app, tags) in apps.iter().zip(tag_sets) {
            let mut b = AppSpecBuilder::new(app.name.clone());
            for (i, &tag) in tags.iter().enumerate() {
                b.add_service(format!("ms{i}"), Resources::cpu(1.0), Some(tag), 1);
            }
            specs.push(b.build().unwrap());
        }
        Workload::new(specs)
    };
    let truth_tags: Vec<Vec<Criticality>> = apps
        .iter()
        .map(|a| {
            phoenix::adaptlab::tagging::assign(
                phoenix::adaptlab::tagging::TaggingScheme::FrequencyBased { percentile: 0.9 },
                a,
                &mut rng,
            )
        })
        .collect();
    let inferred_tags: Vec<Vec<Criticality>> = apps
        .iter()
        .map(|a| {
            let log = synthesize_log(a, &LogConfig { sample_rate: 0.05 }, &mut rng);
            infer_tags(&log, &InferenceConfig::default())
        })
        .collect();

    // Plan both workloads on a half-capacity cluster.
    let total: f64 = apps.iter().map(|a| a.graph.node_count() as f64).sum();
    let state = ClusterState::homogeneous((total / 2.0 / 8.0).ceil() as usize, Resources::cpu(8.0));
    let coverage = |workload: &Workload| {
        let controller = PhoenixController::new(workload.clone(), PhoenixConfig::default());
        let plan = controller.plan(&state);
        // Fraction of request weight served, judged by the trace templates.
        let mut served = 0.0;
        let mut offered = 0.0;
        for (ai, app) in apps.iter().enumerate() {
            for t in &app.templates {
                offered += t.weight;
                let up = t.services.iter().all(|s| {
                    plan.target
                        .node_of(phoenix::cluster::PodKey::new(
                            ai as u32,
                            s.index() as u32,
                            0,
                        ))
                        .is_some()
                });
                if up {
                    served += t.weight;
                }
            }
        }
        served / offered
    };
    let truth_cov = coverage(&build(&truth_tags));
    let inferred_cov = coverage(&build(&inferred_tags));
    assert!(
        inferred_cov >= truth_cov - 0.1,
        "inferred {inferred_cov} far below truth {truth_cov}"
    );
    assert!(truth_cov > 0.5, "sanity: ground truth serves most requests");
}

/// Fig.-5 failure + flash crowd: diagonal + priority shedding serves more
/// utility than either mode alone.
#[test]
fn combined_degradation_beats_single_modes() {
    let (workload, models) = cloudlab_workload();
    let mut failed = ClusterState::new(cloudlab_capacities());
    PhoenixPolicy::fair().plan(&workload, &mut failed);
    let mut rng = StdRng::seed_from_u64(2024);
    phoenix::cluster::failure::fail_fraction(&mut failed, 0.56, &mut rng);
    let mut replanned = failed.clone();
    PhoenixPolicy::fair().plan(&workload, &mut replanned);

    let utility = |state: &ClusterState, policy: SheddingPolicy| -> f64 {
        models
            .iter()
            .enumerate()
            .map(|(i, model)| {
                let spec = workload.app(AppId::new(i as u32));
                let total = spec.total_demand().scalar();
                let active: f64 = spec
                    .service_ids()
                    .filter(|s| service_active(&workload, state, i, s.index()))
                    .map(|s| spec.service(s).total_demand().scalar())
                    .sum();
                let nominal: f64 = model.requests.iter().map(|r| r.rate_rps).sum();
                let scenario = OverloadScenario {
                    load_multiplier: 2.0,
                    capacity_rps: nominal * active / total,
                };
                let up = |s: ServiceId| service_active(&workload, state, i, s.index());
                summarize(model, &shed(model, up, &scenario, policy, QosPolicy::Full)).utility_rate
            })
            .sum()
    };

    let neither = utility(&failed, SheddingPolicy::None);
    let shed_only = utility(&failed, SheddingPolicy::PriorityAware);
    let diagonal_only = utility(&replanned, SheddingPolicy::None);
    let combined = utility(&replanned, SheddingPolicy::PriorityAware);
    assert!(
        combined > shed_only && combined > diagonal_only && combined > neither,
        "combined {combined} vs shed {shed_only}, diagonal {diagonal_only}, neither {neither}"
    );
}
