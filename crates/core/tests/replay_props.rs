//! Differential properties of the in-place ranking replay: across a
//! random capacity walk, `global_rank_replay` into the previous step's
//! ranking equals a cold heap merge (`global_rank`) bit for bit,
//! returns the true common prefix with the previous items, and counts the
//! same rung purchases and chain retirements. The walk crosses the total
//! demand both ways and repeats capacities above it, where the replay's
//! all-fit short-cut walks no step.
//!
//! A controller's cold plan from its primed epoch (the cached ranking
//! inputs, and a read-only replay of a cached merge order where one is
//! valid) equals the free cold `plan`, which builds everything from
//! scratch.

use phoenix_cluster::{ClusterState, NodeId, Resources};
use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::{
    CostObjective, CriticalityObjective, FairnessObjective, ObjectiveKind, OperatorObjective,
};
use phoenix_core::planner::{app_rank, PlannerConfig, Traversal};
use phoenix_core::ranking::{
    global_rank, global_rank_replay, merged_order, GlobalRank, MergeOrder, RankInputs,
};
use phoenix_core::replan::ReplanDelta;
use phoenix_core::spec::{AppSpec, AppSpecBuilder, ModeSpec, ServiceId, ServingMode, Workload};
use phoenix_core::stateful::StatefulMarks;
use phoenix_core::tags::Criticality;
use phoenix_obs::{with_recorder, Counter, Recorder};
use proptest::prelude::*;

/// One service: demand index (0 = zero demand), criticality, replicas,
/// ladder kind (0 none, 1 Full/Shed, 2 four rungs).
type ServiceDraw = (usize, u8, u16, u8);

const DEMANDS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];

fn build_app(
    a: usize,
    price: f64,
    chained: bool,
    services: &[ServiceDraw],
    modal: bool,
) -> AppSpec {
    let mut b = AppSpecBuilder::new(format!("app{a}"));
    let mut ids = Vec::new();
    for (i, &(d, level, replicas, ladder)) in services.iter().enumerate() {
        let full = DEMANDS[d];
        let id = b.add_service(
            format!("s{i}"),
            Resources::cpu(full),
            Some(Criticality::new(level)),
            replicas,
        );
        let rung =
            |mode, frac: f64, utility| ModeSpec::new(mode, Resources::cpu(full * frac), utility);
        match (modal, ladder) {
            (true, 1) => {
                b.service_modes(
                    id,
                    vec![
                        rung(ServingMode::Full, 1.0, 1.0),
                        rung(ServingMode::Shed, 0.25, 0.1),
                    ],
                );
            }
            (true, 2) => {
                b.service_modes(
                    id,
                    vec![
                        rung(ServingMode::Full, 1.0, 1.0),
                        rung(ServingMode::StaleCache, 0.75, 0.8),
                        rung(ServingMode::ReadOnly, 0.5, 0.5),
                        rung(ServingMode::Shed, 0.25, 0.1),
                    ],
                );
            }
            _ => {}
        }
        ids.push(id);
    }
    if chained {
        for w in ids.windows(2) {
            b.add_dependency(w[0], w[1]);
        }
    }
    b.price_per_unit(price);
    b.build().expect("valid generated spec")
}

/// Random workload: 1–5 apps of 1–6 services with zero and non-zero
/// demands, tied and distinct prices, chained and flat graphs, and (when
/// `modal`) mode ladders on some services.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let service = (0usize..5, 1u8..6, 1u16..3, 0u8..3);
    let app = (
        1u8..4,
        any::<bool>(),
        proptest::collection::vec(service, 1..7),
    );
    (proptest::collection::vec(app, 1..6), any::<bool>()).prop_map(|(apps, modal)| {
        let specs = apps
            .iter()
            .enumerate()
            .map(|(a, (price, chained, services))| {
                build_app(a, f64::from(*price), *chained, services, modal)
            });
        Workload::new(specs.collect())
    })
}

/// One step of a capacity walk: 0 repeat, 1 up, 2 down, 3 zero, 4 above
/// total demand, 5 just below it; the fraction scales the move.
fn arb_walk() -> impl Strategy<Value = Vec<(u8, f64)>> {
    proptest::collection::vec((0u8..6, 0.0f64..1.0), 1..12)
}

/// The walk's capacities, starting from a random share of total demand.
fn capacities(total: f64, start: f64, walk: &[(u8, f64)]) -> Vec<f64> {
    let mut cap = total * start;
    let mut out = Vec::with_capacity(walk.len() + 1);
    out.push(cap);
    for &(kind, x) in walk {
        cap = match kind {
            0 => cap,
            1 => cap + x * total / 4.0,
            2 => (cap - x * total / 4.0).max(0.0),
            3 => 0.0,
            4 => total * (1.0 + x),
            _ => total * (1.0 - x * 1e-3),
        };
        out.push(cap);
    }
    out
}

/// The workload's per-app activation orders and the ranking inputs built
/// from them.
struct Ranked<'a> {
    workload: &'a Workload,
    ranks: Vec<Vec<ServiceId>>,
    inputs: RankInputs,
}

fn ranked(workload: &Workload) -> Ranked<'_> {
    let ranks: Vec<_> = workload
        .apps()
        .map(|(_, a)| app_rank(a, Traversal::CriticalityGuidedDfs))
        .collect();
    let inputs = RankInputs::new(workload, &ranks);
    Ranked {
        workload,
        ranks,
        inputs,
    }
}

impl Ranked<'_> {
    /// The cold heap merge at `cap`.
    fn cold(&self, objective: &dyn OperatorObjective, cap: f64, cfg: &PlannerConfig) -> GlobalRank {
        global_rank(
            self.workload,
            &self.ranks,
            objective,
            Resources::cpu(cap),
            cfg,
        )
    }
}

fn total_demand(w: &Workload) -> f64 {
    w.apps().map(|(_, a)| a.total_demand().scalar()).sum()
}

/// Runs `f` under a fresh recorder; returns its output with the rung
/// purchases, chain retirements and replay steps it counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 3]) {
    let recorder = Recorder::enabled();
    let out = with_recorder(recorder.clone(), f);
    let counts = [
        Counter::RungPurchases,
        Counter::ChainRetirements,
        Counter::ReplaySteps,
    ]
    .map(|c| recorder.counter(c));
    (out, counts)
}

/// Whether the all-fit short-cut must fire on a replay at `cap` right
/// after a replay of the same order at `previous`: both sit clearly
/// above the total demand, where every step fits.
fn above(total: f64, previous: Option<f64>, cap: f64) -> bool {
    let clear = |c: f64| c >= total * (1.0 + 1e-6) + 1e-6;
    previous.is_some_and(clear) && clear(cap)
}

/// Replays `order` into `rank` at `cap` and checks it against a cold
/// heap merge under `objective`; returns the steps the replay walked.
fn replay_and_check(
    ranked: &Ranked,
    objective: &dyn OperatorObjective,
    order: &mut MergeOrder,
    rank: &mut GlobalRank,
    cap: f64,
    cfg: &PlannerConfig,
) -> u64 {
    let (cold, cold_counts) = counted(|| ranked.cold(objective, cap, cfg));
    let previous = rank.items.clone();
    let capacity = Resources::cpu(cap);
    let (kept, counts) = counted(|| global_rank_replay(&ranked.inputs, order, capacity, cfg, rank));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(&rank.items, &cold.items, "items at capacity {}", cap);
    prop_assert_eq!(bits(&rank.fair_shares), bits(&cold.fair_shares));
    prop_assert_eq!(bits(&rank.allocated), bits(&cold.allocated));
    let common = previous.iter().zip(&rank.items).take_while(|(a, b)| a == b);
    prop_assert_eq!(kept, common.count(), "prefix at capacity {}", cap);
    prop_assert_eq!(
        counts[..2],
        cold_counts[..2],
        "rung/retirement counters at capacity {}",
        cap
    );
    counts[2]
}

/// A homogeneous cluster of 4-CPU nodes holding about `scale` of the
/// workload's total demand, at least three nodes.
fn cluster(w: &Workload, scale: f64) -> ClusterState {
    let nodes = ((total_demand(w) * scale / 4.0).ceil() as usize).max(3);
    ClusterState::homogeneous(nodes, Resources::cpu(4.0))
}

/// `controller.plan` (from the primed epoch) against the free cold
/// `plan` on `state`: actions, modes, ranking and target bit for bit.
fn check_epoch_plan(
    controller: &PhoenixController,
    config: &PhoenixConfig,
    state: &ClusterState,
    what: &str,
) {
    let got = controller.plan(state);
    let want = plan(
        controller.workload(),
        state.clone(),
        config,
        &StatefulMarks::new(),
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(&got.actions, &want.actions, "actions {}", what);
    prop_assert_eq!(&got.modes, &want.modes, "modes {}", what);
    prop_assert_eq!(&got.rank.items, &want.rank.items, "items {}", what);
    prop_assert_eq!(bits(&got.rank.fair_shares), bits(&want.rank.fair_shares));
    prop_assert_eq!(bits(&got.rank.allocated), bits(&want.rank.allocated));
    prop_assert!(got.target.bitwise_eq(&want.target), "target {}", what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capacity-invariant objectives replay one merge order at every
    /// capacity of the walk, each time into the previous ranking.
    #[test]
    fn merge_order_replay_walk_matches_heap(
        w in arb_workload(),
        criticality in any::<bool>(),
        continue_on_saturation in any::<bool>(),
        start in 0.0f64..1.5,
        walk in arb_walk(),
    ) {
        let ranked = ranked(&w);
        let objective: &dyn OperatorObjective =
            if criticality { &CriticalityObjective } else { &CostObjective };
        let cfg = PlannerConfig { continue_on_saturation, ..PlannerConfig::default() };
        // A static objective ignores the shares.
        let shares = ranked.inputs.fair_shares(start);
        let mut order = merged_order(&ranked.inputs, objective, &shares);
        let mut rank = GlobalRank::default();
        let total = total_demand(&w);
        let mut previous = None;
        for cap in capacities(total, start, &walk) {
            let steps = replay_and_check(&ranked, objective, &mut order, &mut rank, cap, &cfg);
            if above(total, previous, cap) {
                prop_assert_eq!(steps, 0, "no short-cut at capacity {}", cap);
            }
            previous = Some(cap);
        }
    }

    /// Fairness replays its share-keyed order only where the shares match
    /// (capacity at or above total demand); elsewhere the heap writes the
    /// ranking, and the next replay is of a new, unmarked order, which
    /// compares items.
    #[test]
    fn share_order_replay_walk_matches_heap(
        w in arb_workload(),
        continue_on_saturation in any::<bool>(),
        start in 0.0f64..1.5,
        walk in arb_walk(),
    ) {
        let ranked = ranked(&w);
        let cfg = PlannerConfig { continue_on_saturation, ..PlannerConfig::default() };
        let total = total_demand(&w);
        let shares = ranked.inputs.fair_shares(total * 2.0);
        let mut order = merged_order(&ranked.inputs, &FairnessObjective, &shares);
        let mut rank = GlobalRank::default();
        let mut previous = None;
        for cap in capacities(total, start, &walk) {
            if ranked.inputs.fair_shares(cap) == shares {
                let objective = &FairnessObjective;
                let steps = replay_and_check(&ranked, objective, &mut order, &mut rank, cap, &cfg);
                if above(total, previous, cap) {
                    prop_assert_eq!(steps, 0, "no short-cut at capacity {}", cap);
                }
                previous = Some(cap);
            } else {
                rank = ranked.cold(&FairnessObjective, cap, &cfg);
                order = merged_order(&ranked.inputs, &FairnessObjective, &shares);
                previous = None;
            }
        }
    }

    /// A controller primed by a full replan and moved through warm ticks
    /// (so its merge orders carry marks and a lowered C*) plans cold from
    /// its epoch exactly as the free cold `plan` does, below, at and above
    /// the priming capacity, under both objectives.
    #[test]
    fn epoch_cold_plan_matches_the_free_cold_plan(
        w in arb_workload(),
        cost in any::<bool>(),
        scale in 0.3f64..1.8,
        ticks in proptest::collection::vec((any::<bool>(), 0u32..64), 0..6),
    ) {
        let kind = if cost { ObjectiveKind::Cost } else { ObjectiveKind::Fairness };
        let config = PhoenixConfig::with_objective(kind);
        let mut controller =
            PhoenixController::new(w.clone(), PhoenixConfig::with_objective(kind));
        // Primed with node 0 down, so restoring it plans above the priming
        // capacity.
        let mut at = cluster(&w, scale);
        let nodes = at.node_count() as u32;
        at.fail_node(NodeId::new(0));
        let mut live = controller.replan(&at, ReplanDelta::Full).target;
        for (restore, n) in ticks {
            let node = NodeId::new(1 + n % (nodes - 1));
            match restore {
                true => live.restore_node(node),
                false => _ = live.fail_node(node),
            }
            live = controller.replan(&live, ReplanDelta::CapacityOnly).target;
        }
        // The adopted target with the priming health: the same capacity.
        let mut at = live;
        (1..nodes).for_each(|n| at.restore_node(NodeId::new(n)));
        // Half the nodes down: under the total demand, so new shares.
        let mut below = at.clone();
        (1..=nodes / 2).for_each(|n| _ = below.fail_node(NodeId::new(n)));
        let mut above = at.clone();
        above.restore_node(NodeId::new(0));
        check_epoch_plan(&controller, &config, &below, "below");
        check_epoch_plan(&controller, &config, &at, "at");
        check_epoch_plan(&controller, &config, &above, "above");
    }
}
