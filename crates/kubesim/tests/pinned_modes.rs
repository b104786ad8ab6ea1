//! Pinned planning keeps what the controller's pipeline knows: a modal
//! service beside a pinned database still steps down its ladder, and a
//! gray-failed node is planned at its effective capacity — so the
//! simulator neither loses the degraded rung nor replans every tick.

use phoenix_cluster::{ClusterState, PodKey, Resources};
use phoenix_core::controller::PhoenixConfig;
use phoenix_core::policies::{PhoenixPolicy, ResiliencePolicy};
use phoenix_core::spec::{AppId, AppSpecBuilder, ModeSpec, ServiceId, ServingMode, Workload};
use phoenix_core::stateful::{StatefulAwarePolicy, StatefulMarks};
use phoenix_core::tags::Criticality;
use phoenix_kubesim::run::{simulate, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;

/// `web`: fe 2 CPU C1, chat 2 CPU C5 with a read-only rung (1 CPU, 0.6),
/// and a pinned 1-CPU mongodb.
fn web() -> (Workload, StatefulMarks) {
    let mut b = AppSpecBuilder::new("web");
    b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
    let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::C5), 1);
    b.service_modes(
        chat,
        vec![
            ModeSpec::new(ServingMode::Full, Resources::cpu(2.0), 1.0),
            ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(1.0), 0.6),
        ],
    );
    b.add_service("mongodb", Resources::cpu(1.0), Some(Criticality::C1), 1);
    let w = Workload::new(vec![b.build().unwrap()]);
    let marks = StatefulMarks::by_name(&w, |name| name == "mongodb");
    (w, marks)
}

fn pinned_policy(marks: StatefulMarks) -> StatefulAwarePolicy {
    StatefulAwarePolicy::new(marks, PhoenixConfig::default())
}

#[test]
fn pinned_plan_keeps_the_read_only_rung() {
    let (w, marks) = web();
    let mut state = ClusterState::homogeneous(1, Resources::cpu(4.0));
    let plan = pinned_policy(marks).plan(&w, &mut state);
    let chat = PodKey::new(0, 1, 0);
    assert_eq!(
        state.demand_of(chat),
        Some(Resources::cpu(1.0)),
        "chat must be placed at its read-only demand"
    );
    assert_eq!(
        plan.modes.get(AppId::new(0), ServiceId::new(1)),
        ServingMode::ReadOnly
    );
    assert!(
        state.node_of(PodKey::new(0, 2, 0)).is_some(),
        "mongodb pinned"
    );
    assert!(state.node_of(PodKey::new(0, 0, 0)).is_some(), "fe placed");
}

#[test]
fn pinned_plan_respects_a_gray_failure() {
    let (w, marks) = web();
    let mut s = Scenario::new(1, Resources::cpu(5.0));
    s.capacity_degrade_at(SimTime::from_secs(300), [0], 0.8);
    s.capacity_restore_at(SimTime::from_secs(900), [0]);
    let cfg = SimConfig::default();
    let horizon = SimTime::from_secs(1400);
    let pinned = simulate(&w, &pinned_policy(marks), &s, &cfg, horizon);
    let fair = simulate(&w, &PhoenixPolicy::fair(), &s, &cfg, horizon);
    let at = SimTime::from_secs(850);
    assert!(
        (fair.utility_at(at) - 2.6).abs() < 1e-9,
        "{}",
        fair.utility_at(at)
    );
    assert!(
        (pinned.utility_at(at) - fair.utility_at(at)).abs() < 1e-9,
        "pinned {} vs fair {}",
        pinned.utility_at(at),
        fair.utility_at(at)
    );
    assert!(
        pinned.plans.len() <= fair.plans.len(),
        "pinned replanned {} times, fair {}",
        pinned.plans.len(),
        fair.plans.len()
    );
}
