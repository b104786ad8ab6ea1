//! Property tests for the serving-mode refactor: mode choices degrade
//! monotonically as capacity tightens, ladder admission survives hostile
//! (NaN/±inf) objective scores without losing determinism.

use phoenix_cluster::packing::PackingConfig;
use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::controller::{plan, PhoenixConfig};
use phoenix_core::objectives::{OperatorObjective, RankContext};
use phoenix_core::planner::PlannerConfig;
use phoenix_core::spec::{AppId, AppSpec, AppSpecBuilder, ModeSpec, ServingMode, Workload};
use phoenix_core::stateful::StatefulMarks;
use phoenix_core::tags::Criticality;
use proptest::prelude::*;

/// Random app where each service carries either no ladder, a minimal
/// Full/Shed table, or the full four-rung lattice.
fn arb_modal_app() -> impl Strategy<Value = AppSpec> {
    (2usize..8).prop_flat_map(|n| {
        let levels = proptest::collection::vec(1u8..6, n);
        let ladders = proptest::collection::vec(0u8..3, n);
        let replicas = proptest::collection::vec(1u16..3, n);
        (levels, ladders, replicas).prop_map(move |(levels, ladders, replicas)| {
            let mut b = AppSpecBuilder::new("modal");
            for i in 0..n {
                let full = 1.0 + (i % 4) as f64;
                let id = b.add_service(
                    format!("s{i}"),
                    Resources::cpu(full),
                    Some(Criticality::new(levels[i])),
                    replicas[i],
                );
                match ladders[i] {
                    1 => {
                        b.service_modes(
                            id,
                            vec![
                                ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                                ModeSpec::new(ServingMode::Shed, Resources::cpu(full * 0.25), 0.1),
                            ],
                        );
                    }
                    2 => {
                        b.service_modes(
                            id,
                            vec![
                                ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                                ModeSpec::new(
                                    ServingMode::StaleCache,
                                    Resources::cpu(full * 0.75),
                                    0.8,
                                ),
                                ModeSpec::new(
                                    ServingMode::ReadOnly,
                                    Resources::cpu(full * 0.5),
                                    0.5,
                                ),
                                ModeSpec::new(ServingMode::Shed, Resources::cpu(full * 0.25), 0.1),
                            ],
                        );
                    }
                    _ => {}
                }
            }
            b.build().unwrap()
        })
    })
}

/// Deterministic pseudo-chaos: a scoring function that returns NaN and
/// ±inf on a hash of the candidate. Exercises the ranker's total-order
/// handling (`total_cmp` + app-id tie-breaks) on mode ladders.
#[derive(Debug)]
struct ChaoticObjective {
    salt: u64,
}

impl OperatorObjective for ChaoticObjective {
    fn score(&self, ctx: &RankContext) -> f64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.salt;
        for b in [
            ctx.app.index() as u64,
            ctx.next_demand.to_bits(),
            ctx.mode_utility.to_bits(),
        ] {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        match h % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => ((h % 1001) as f64) - 500.0,
        }
    }

    fn name(&self) -> &'static str {
        "chaotic"
    }
}

fn config_with(objective: Box<dyn OperatorObjective>) -> PhoenixConfig {
    PhoenixConfig {
        objective,
        planner: PlannerConfig {
            continue_on_saturation: true,
            ..PlannerConfig::default()
        },
        packing: PackingConfig::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tightening capacity never *upgrades* a chosen mode (single-app
    /// scope: one app's rungs are admitted in chain order, so its
    /// admitted set at a smaller capacity is a prefix of the larger
    /// one's — greedy admission across *multiple* apps is provably
    /// non-monotone, so this property is deliberately per-app).
    #[test]
    fn capacity_tightening_never_upgrades_a_mode(
        app in arb_modal_app(),
        cap in 4.0f64..40.0,
        shrink in 0.2f64..1.0,
    ) {
        let w = Workload::new(vec![app]);
        let (config, pins) = (PhoenixConfig::default(), StatefulMarks::new());
        let loose = plan(&w, ClusterState::homogeneous(1, Resources::cpu(cap)), &config, &pins);
        let tight = plan(
            &w,
            ClusterState::homogeneous(1, Resources::cpu(cap * shrink)),
            &config,
            &pins,
        );
        let planned_tight: std::collections::BTreeSet<_> =
            tight.rank.items.iter().map(|i| i.service).collect();
        let planned_loose: std::collections::BTreeSet<_> =
            loose.rank.items.iter().map(|i| i.service).collect();
        // Single-app admission is a chain prefix: anything planned under
        // the tighter capacity is planned under the looser one too.
        prop_assert!(planned_tight.is_subset(&planned_loose));
        let a = AppId::new(0);
        for &svc in &planned_tight {
            prop_assert!(
                tight.modes.get(a, svc).depth() >= loose.modes.get(a, svc).depth(),
                "service {svc} upgraded from {} to {} when capacity shrank",
                loose.modes.get(a, svc),
                tight.modes.get(a, svc)
            );
        }
    }

    /// NaN/±inf scores neither panic nor break determinism, and ladder
    /// admission stays structurally sound: within a service the admitted
    /// rungs are a contiguous most-degraded-first prefix of its ladder
    /// (strictly decreasing depth in item order), whatever the scores do.
    #[test]
    fn nan_scores_keep_total_order_and_ladder_structure(
        app in arb_modal_app(),
        salt in 0u64..1_000_000,
        nodes in 1usize..5,
        cap in 2.0f64..12.0,
    ) {
        let w = Workload::new(vec![app]);
        let state = ClusterState::homogeneous(nodes, Resources::cpu(cap));
        let config = config_with(Box::new(ChaoticObjective { salt }));
        let pins = StatefulMarks::new();
        let a = plan(&w, state.clone(), &config, &pins);
        let b = plan(&w, state, &config, &pins);
        prop_assert_eq!(&a.rank.items, &b.rank.items, "NaN scores broke determinism");
        prop_assert_eq!(&a.actions, &b.actions);
        prop_assert_eq!(&a.modes, &b.modes);
        // No (service, mode) pair ranks twice, and per-service depths
        // strictly decrease (deepest rung admitted first).
        let mut seen = std::collections::BTreeSet::new();
        let mut last_depth: Vec<Option<u8>> = vec![None; w.app(AppId::new(0)).service_count()];
        for item in &a.rank.items {
            prop_assert!(
                seen.insert((item.service, item.mode)),
                "duplicate rank item {:?}", (item.service, item.mode)
            );
            let slot = &mut last_depth[item.service.index()];
            if let Some(prev) = *slot {
                prop_assert!(
                    item.mode.depth() < prev,
                    "ladder of {} admitted out of order", item.service
                );
            }
            *slot = Some(item.mode.depth());
        }
    }
}
