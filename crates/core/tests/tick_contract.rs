//! The warm tick's complexity contract, stated on exact counters.
//!
//! A monitor tick that fails one node must cost work in proportion to
//! what changed, not to the cluster: growing the AdaptLab environment of
//! the `tick-10k` shape tenfold (100 to 1 000 nodes, 75 % utilization)
//! must less than double
//! - the pods whose standing the pack's drop pass derives
//!   ([`Counter::PackDropVisits`]),
//! - the plan positions its placement loop visits
//!   ([`Counter::PackPlacementVisits`]), and
//! - the merge-order steps the ranking replay walks
//!   ([`Counter::ReplaySteps`]).
//!
//! A full read of the state visits every running pod, a full placement
//! loop every plan position and a full replay every step: all grow
//! tenfold. The first capacity-only tick may build a merge order (and
//! walk it once), so the placement and replay contracts are read on the
//! second tick, which fails another node.
//!
//! A converged controller's cold plan on the storm shape (30 % of the
//! nodes down at once) takes its per-app activation orders from the
//! replan cache's epoch: it walks no `app_rank`
//! ([`Counter::AppRankWalks`]), and it runs no heap: a static objective
//! replays the cached merge order, and a share-scaled one (Fairness)
//! derives its order from the epoch's two sorted orders.

use std::sync::OnceLock;

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_cluster::NodeId;
use phoenix_core::controller::{PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::planner::app_rank;
use phoenix_core::replan::ReplanDelta;
use phoenix_obs::{with_recorder, Counter, Recorder};

/// The counters of one tick, in [`TICK`] order.
type Work = [u64; 3];

/// The counters the contracts read.
const TICK: [Counter; 3] = [
    Counter::PackDropVisits,
    Counter::PackPlacementVisits,
    Counter::ReplaySteps,
];

/// `(running pods, first tick, second tick)` of two warm ticks on a
/// converged `nodes`-node environment, each failing one node.
fn two_failure_ticks(nodes: usize, kind: ObjectiveKind) -> (usize, Work, Work) {
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
    let running = live.pod_count();
    let mut ticks = [[0; 3]; 2];
    for (tick, work) in ticks.iter_mut().enumerate() {
        live.fail_node(NodeId::new((nodes / 2 + tick) as u32));
        let recorder = Recorder::enabled();
        let result = with_recorder(recorder.clone(), || {
            controller.replan(&live, ReplanDelta::CapacityOnly)
        });
        assert!(
            result.packing.unplaced.is_empty(),
            "the tick shape has room"
        );
        *work = TICK.map(|c| recorder.counter(c));
        live = result.target;
    }
    (running, ticks[0], ticks[1])
}

/// One objective's `(kind, small, large)` measurements, each
/// `(first tick, second tick)`.
type Sizes = (ObjectiveKind, (Work, Work), (Work, Work));

/// Both objectives at 100 and 1 000 nodes, measured once per test binary.
fn ticks() -> &'static [Sizes] {
    static TICKS: OnceLock<Vec<Sizes>> = OnceLock::new();
    TICKS.get_or_init(|| {
        let kinds = [ObjectiveKind::Fairness, ObjectiveKind::Cost];
        let measure = |kind| {
            let (small_pods, small_first, small_second) = two_failure_ticks(100, kind);
            let (large_pods, large_first, large_second) = two_failure_ticks(1_000, kind);
            assert!(large_pods > 8 * small_pods, "{kind:?}: the cluster grew");
            (
                kind,
                (small_first, small_second),
                (large_first, large_second),
            )
        };
        kinds.into_iter().map(measure).collect()
    })
}

/// `(kind, small, large)` readings of the counter at `at` (an index into
/// [`TICK`]) on the first or the `second` tick.
fn readings(second: bool, at: usize) -> Vec<(ObjectiveKind, u64, u64)> {
    let pick = |(first, later): (Work, Work)| if second { later[at] } else { first[at] };
    let read = |&(kind, small, large): &Sizes| (kind, pick(small), pick(large));
    ticks().iter().map(read).collect()
}

#[test]
fn warm_tick_drop_visits_grow_less_than_twofold_over_tenfold_nodes() {
    for (kind, small, large) in readings(false, 0) {
        assert!(
            large < 2 * small,
            "{kind:?}: {small} visits at 100 nodes, {large} at 1 000"
        );
    }
}

#[test]
fn warm_tick_placement_visits_grow_less_than_twofold_over_tenfold_nodes() {
    for (kind, small, large) in readings(true, 1) {
        assert!(
            large < 2 * small,
            "{kind:?}: {small} placement visits at 100 nodes, {large} at 1 000"
        );
    }
}

/// Above its total demand the cluster takes every step at both sizes,
/// so the replay walks none: the floor of one step keeps the bound
/// meaningful at zero.
#[test]
fn warm_tick_replay_steps_grow_less_than_twofold_over_tenfold_nodes() {
    for (kind, small, large) in readings(true, 2) {
        assert!(
            large < 2 * small.max(1),
            "{kind:?}: {small} replay steps at 100 nodes, {large} at 1 000"
        );
    }
}

/// Nodes of the storm-shaped environment (`storm_fixture`'s shape).
const STORM_NODES: usize = 200;

/// The counters a storm-shaped cold plan reads, in [`STORM`] order.
const STORM: [Counter; 2] = [Counter::AppRankWalks, Counter::ReplaySteps];

/// `(apps, merge-order length, [app rank walks, replay steps])` of one
/// cold `PhoenixController::plan` on `storm_fixture`'s shape: 200 nodes
/// at 75 % utilization, 30 % of them failed. A `converged` controller
/// has primed its replan cache on the healthy baseline first.
fn storm_plan_work(kind: ObjectiveKind, converged: bool) -> (u64, u64, [u64; 2]) {
    let env = build_env(&EnvConfig {
        nodes: STORM_NODES,
        target_utilization: 0.75,
        alibaba: AlibabaConfig {
            max_services: 3 * STORM_NODES,
            ..AlibabaConfig::default()
        },
        seed: 11,
        ..EnvConfig::default()
    });
    let config = PhoenixConfig::with_objective(kind);
    let traversal = config.planner.traversal;
    let mut controller = PhoenixController::new(env.workload.clone(), config);
    let mut live = match converged {
        true => controller.replan(&env.baseline, ReplanDelta::Full).target,
        false => env.baseline.clone(),
    };
    for i in 0..STORM_NODES * 3 / 10 {
        live.fail_node(NodeId::new(((i * 7 + 3) % STORM_NODES) as u32));
    }
    let recorder = Recorder::enabled();
    with_recorder(recorder.clone(), || controller.plan(&live));
    // A mode-less workload's merge order holds one step per ranked service.
    let apps = env.workload.apps();
    let order_len = apps
        .map(|(_, app)| app_rank(app, traversal).len())
        .sum::<usize>();
    let work = STORM.map(|c| recorder.counter(c));
    (env.workload.app_count() as u64, order_len as u64, work)
}

/// A converged controller's cold plan takes its per-app activation
/// orders from the replan cache's epoch: it walks no app rank, where an
/// unprimed controller walks one per app.
#[test]
fn converged_cold_plan_walks_no_app_rank() {
    for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
        let (apps, _, [walks, _]) = storm_plan_work(kind, true);
        assert_eq!(walks, 0, "{kind:?}: a converged cold plan walked app ranks");
        let (_, _, [walks, _]) = storm_plan_work(kind, false);
        assert_eq!(
            walks, apps,
            "{kind:?}: an unprimed cold plan walks each app"
        );
    }
}

/// A converged controller's cold plan walks one order, every step of it
/// (chains retire rather than stop the walk): Cost's merge order is
/// static, so the plan replays the cached one; Fairness's shares move
/// under the storm, so the plan derives its order from the epoch orders
/// and walks that.
#[test]
fn converged_cold_plan_replays_cost_and_derives_fairness() {
    let (_, order_len, [_, steps]) = storm_plan_work(ObjectiveKind::Cost, true);
    assert_eq!(steps, order_len, "Cost: the replay walks the whole order");
    let (_, order_len, [_, steps]) = storm_plan_work(ObjectiveKind::Fairness, true);
    assert_eq!(
        steps, order_len,
        "Fairness: the derived order is walked whole"
    );
}
