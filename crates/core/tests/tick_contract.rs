//! The warm tick's complexity contract, stated on an exact counter.
//!
//! A monitor tick that fails one node must cost the pack's drop pass
//! work in proportion to what changed, not to the cluster: growing the
//! AdaptLab environment of the `tick-10k` shape tenfold (100 to 1 000
//! nodes, 75 % utilization) must less than double the pods whose
//! standing the drop pass derives ([`Counter::PackDropVisits`]). A full
//! read of the state visits every running pod and grows tenfold.

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_cluster::NodeId;
use phoenix_core::controller::{PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
use phoenix_obs::{with_recorder, Counter, Recorder};

/// `(running pods, drop-pass visits)` of one warm tick that fails one
/// node of a converged `nodes`-node environment.
fn one_failure_tick(nodes: usize, kind: ObjectiveKind) -> (usize, u64) {
    let env = build_env(&EnvConfig {
        nodes,
        target_utilization: 0.75,
        alibaba: AlibabaConfig {
            max_services: 3 * nodes,
            ..AlibabaConfig::default()
        },
        seed: 11,
        ..EnvConfig::default()
    });
    let mut controller =
        PhoenixController::new(env.workload.clone(), PhoenixConfig::with_objective(kind));
    let mut live = controller.replan(&env.baseline, ReplanDelta::Full).target;
    live.fail_node(NodeId::new(nodes as u32 / 2));
    let recorder = Recorder::enabled();
    let tick = with_recorder(recorder.clone(), || {
        controller.replan(&live, ReplanDelta::CapacityOnly)
    });
    assert!(tick.packing.unplaced.is_empty(), "the tick shape has room");
    (live.pod_count(), recorder.counter(Counter::PackDropVisits))
}

#[test]
fn warm_tick_drop_visits_grow_less_than_twofold_over_tenfold_nodes() {
    for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
        let (small_pods, small) = one_failure_tick(100, kind);
        let (large_pods, large) = one_failure_tick(1_000, kind);
        assert!(large_pods > 8 * small_pods, "{kind:?}: the cluster grew");
        assert!(
            large < 2 * small,
            "{kind:?}: {small} visits at 100 nodes, {large} at 1 000"
        );
    }
}
