//! Differential properties of the in-place ranking replay: across a
//! random capacity walk, `global_rank_replay` into the previous step's
//! ranking equals a cold heap merge (`global_rank`) bit for bit,
//! returns the true common prefix with the previous items, and counts the
//! same rung purchases and chain retirements.

use phoenix_cluster::Resources;
use phoenix_core::objectives::{
    CostObjective, CriticalityObjective, FairnessObjective, OperatorObjective,
};
use phoenix_core::planner::{app_rank, PlannerConfig, Traversal};
use phoenix_core::ranking::{
    global_rank, global_rank_replay, merged_order, GlobalRank, MergeOrder, RankInputs,
};
use phoenix_core::spec::{AppSpec, AppSpecBuilder, ModeSpec, ServiceId, ServingMode, Workload};
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
/// total demand; the fraction scales the move.
fn arb_walk() -> impl Strategy<Value = Vec<(u8, f64)>> {
    proptest::collection::vec((0u8..5, 0.0f64..1.0), 1..12)
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
            _ => total * (1.0 + x),
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
/// purchases and chain retirements it counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
    let recorder = Recorder::enabled();
    let out = with_recorder(recorder.clone(), f);
    let counts = [Counter::RungPurchases, Counter::ChainRetirements].map(|c| recorder.counter(c));
    (out, counts)
}

/// Replays `order` into `rank` at `cap` and checks it against a cold
/// heap merge under `objective`.
fn replay_and_check(
    ranked: &Ranked,
    objective: &dyn OperatorObjective,
    order: &mut MergeOrder,
    rank: &mut GlobalRank,
    cap: f64,
    cfg: &PlannerConfig,
) {
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
        counts,
        cold_counts,
        "rung/retirement counters at capacity {}",
        cap
    );
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
        // A capacity-invariant objective ignores the shares.
        let shares = ranked.inputs.fair_shares(start);
        let mut order = merged_order(&ranked.inputs, objective, &shares);
        let mut rank = GlobalRank::default();
        for cap in capacities(total_demand(&w), start, &walk) {
            replay_and_check(&ranked, objective, &mut order, &mut rank, cap, &cfg);
        }
    }

    /// Fairness replays its share-keyed order only where the shares match
    /// (capacity at or above total demand); elsewhere a cold merge writes
    /// the ranking and the order's marks are forgotten, as the warm
    /// replanner does.
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
        for cap in capacities(total, start, &walk) {
            if ranked.inputs.fair_shares(cap) == shares {
                replay_and_check(&ranked, &FairnessObjective, &mut order, &mut rank, cap, &cfg);
            } else {
                rank = ranked.cold(&FairnessObjective, cap, &cfg);
                order.forget_marks();
            }
        }
    }
}
