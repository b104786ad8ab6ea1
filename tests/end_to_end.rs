//! End-to-end integration: the CloudLab workload through every layer —
//! specs → policies → kubesim control plane → application metrics.

use phoenix::adaptlab::metrics::service_active;
use phoenix::apps::instances::{cloudlab_capacities, cloudlab_workload};
use phoenix::cluster::ClusterState;
use phoenix::core::policies::{standard_roster, DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix::core::spec::ServiceId;
use phoenix::kubesim::run::{simulate, MilestoneKind, SimConfig};
use phoenix::kubesim::scenario::Scenario;
use phoenix::kubesim::time::SimTime;

fn breaking_point_state() -> (
    phoenix::core::spec::Workload,
    Vec<phoenix::apps::AppModel>,
    ClusterState,
) {
    let (workload, models) = cloudlab_workload();
    let mut state = ClusterState::new(cloudlab_capacities());
    PhoenixPolicy::fair().plan(&workload, &mut state);
    // 14 alternating nodes fail → 11 × 8 = 88 CPU ≈ the 42 % breaking point.
    let victims: Vec<_> = state
        .node_ids()
        .into_iter()
        .filter(|n| n.index() % 2 == 0 || n.index() >= 22)
        .take(14)
        .collect();
    for v in victims {
        state.fail_node(v);
    }
    (workload, models, state)
}

#[test]
fn phoenix_fair_meets_every_critical_goal_at_breaking_point() {
    let (workload, models, mut state) = breaking_point_state();
    PhoenixPolicy::fair().plan(&workload, &mut state);
    for (ai, model) in models.iter().enumerate() {
        assert!(
            model.critical_goal_met(|s: ServiceId| service_active(
                &workload,
                &state,
                ai,
                s.index()
            )),
            "{} lost its critical service",
            model.spec.name()
        );
    }
}

#[test]
fn phoenix_beats_default_on_critical_availability() {
    let (workload, models, state) = breaking_point_state();
    let count_met = |policy: &dyn ResiliencePolicy| {
        let mut target = state.clone();
        policy.plan(&workload, &mut target);
        models
            .iter()
            .enumerate()
            .filter(|(ai, m)| {
                m.critical_goal_met(|s: ServiceId| {
                    service_active(&workload, &target, *ai, s.index())
                })
            })
            .count()
    };
    let phoenix = count_met(&PhoenixPolicy::fair());
    let default = count_met(&DefaultPolicy);
    assert!(
        phoenix >= default + 2,
        "phoenix {phoenix}/5 vs default {default}/5: expected ≥2 apps of improvement"
    );
}

#[test]
fn all_policies_produce_consistent_targets_on_cloudlab() {
    let (workload, _, state) = breaking_point_state();
    for policy in standard_roster() {
        let mut target = state.clone();
        policy.plan(&workload, &mut target);
        target.check_invariants().unwrap();
        // No pod may sit on a failed node.
        for (pod, node, _) in target.assignments() {
            assert!(
                target.is_healthy(node),
                "{}: {pod} on dead {node}",
                policy.name()
            );
        }
    }
}

#[test]
fn kubesim_recovery_within_paper_bounds() {
    let (workload, _, _) = (cloudlab_workload().0, (), ());
    let mut scenario = Scenario::new(25, phoenix::cluster::Resources::cpu(8.0));
    let victims: Vec<u32> = (0..25).filter(|n| n % 2 == 0).take(13).collect();
    scenario.kubelet_stop_at(SimTime::from_secs(600), victims.clone());
    scenario.kubelet_start_at(SimTime::from_secs(1500), victims);
    let trace = simulate(
        &workload,
        &PhoenixPolicy::fair(),
        &scenario,
        &SimConfig::default(),
        SimTime::from_secs(1800),
    );
    let t1 = trace
        .first_kind(MilestoneKind::Failure)
        .expect("failure fired");
    let t2 = trace
        .first_kind(MilestoneKind::Detected)
        .expect("failure detected");
    let t4 = trace
        .first_kind(MilestoneKind::Recovered)
        .expect("recovery completed");
    let detection = t2.saturating_sub(t1).as_secs_f64();
    assert!((60.0..150.0).contains(&detection), "detection {detection}s");
    let recovery = t4.saturating_sub(t1).as_secs_f64();
    assert!(
        recovery < 240.0,
        "recovery {recovery}s exceeds the 4-minute bound"
    );
}

#[test]
fn planning_latency_is_milliseconds_at_cloudlab_scale() {
    let (workload, _, mut state) = breaking_point_state();
    let plan = PhoenixPolicy::fair().plan(&workload, &mut state);
    assert!(
        plan.planning_time.as_secs_f64() < 0.1,
        "planning took {:?}",
        plan.planning_time
    );
}
