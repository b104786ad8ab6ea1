//! Pinned storm-shape fixture: byte-identity of the capacity-crunch
//! packing path, checked by `cargo test`.
//!
//! A 200-node AdaptLab environment at 75 % utilization loses 30 % of its
//! nodes at once and is planned cold under Fairness and Cost — the shape
//! of the benchmark's `storm-10k` workload at a size a debug build plans
//! in well under a second. Survivors of the failed nodes no longer fit,
//! so the pack goes through repack-by-migration and delete-lower-ranks
//! many times; the pins below were captured **before** the cold-plan
//! packing rewrite (victim cursor, O(1) start/delete collapse, repack
//! early-out, dense plan index) and must never move without a deliberate
//! planner behaviour change.
//!
//! The tick pins hold the other benchmark shape, `tick-10k`: the same
//! environment, converged, replanned warm after each step of a seeded
//! fail/restore script. They were captured before the warm pack carried
//! its standing across rounds, and every round's target is checked
//! `bitwise_eq` against a cold plan's.

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_cluster::NodeId;
use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
use phoenix_core::stateful::StatefulMarks;
use phoenix_obs::{with_recorder, Counter, Recorder};

const NODES: usize = 200;

/// FNV-1a over the plan's canonical JSON bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one storm plan is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// FNV-1a of `ActionPlan::to_json`.
    digest: u64,
    /// `PackOutcome` vector lengths: deletions, migrations, starts, unplaced.
    outcome: (usize, usize, usize, usize),
    /// Delete-lower-ranks victims and repack migrations the pack went
    /// through (the fixture is only worth pinning while both fire).
    victims: u64,
    repack_migrations: u64,
}

fn storm_pin(kind: ObjectiveKind) -> Pin {
    // Scoped to this thread: the other objective's test (which also
    // packs) runs concurrently into its own recorder.
    let recorder = Recorder::enabled();
    let env = build_env(&EnvConfig {
        nodes: NODES,
        target_utilization: 0.75,
        alibaba: AlibabaConfig {
            max_services: 3 * NODES,
            ..AlibabaConfig::default()
        },
        seed: 11,
        ..EnvConfig::default()
    });
    let mut controller =
        PhoenixController::new(env.workload.clone(), PhoenixConfig::with_objective(kind));
    // Converge first, as a running controller would have: the live state
    // is the controller's own plan over the healthy baseline.
    let mut live = controller.replan(&env.baseline, ReplanDelta::Full).target;
    // 30 % of the nodes, spread by a fixed stride (7 is coprime to 200).
    for i in 0..NODES * 3 / 10 {
        live.fail_node(NodeId::new(((i * 7 + 3) % NODES) as u32));
    }
    let plan = with_recorder(recorder.clone(), || controller.plan(&live));
    plan.target.check_invariants().unwrap();
    Pin {
        digest: fnv(plan.actions.to_json().as_bytes()),
        outcome: (
            plan.packing.deletions.len(),
            plan.packing.migrations.len(),
            plan.packing.starts.len(),
            plan.packing.unplaced.len(),
        ),
        victims: recorder.counter(Counter::PackVictimDeletes),
        repack_migrations: recorder.counter(Counter::PackRepackMigrations),
    }
}

#[test]
fn storm_plan_fairness_is_pinned() {
    assert_eq!(
        storm_pin(ObjectiveKind::Fairness),
        Pin {
            digest: 0xc3868bbcd4601196,
            outcome: (903, 2, 3514, 34),
            victims: 25,
            repack_migrations: 1,
        }
    );
}

#[test]
fn storm_plan_cost_is_pinned() {
    assert_eq!(
        storm_pin(ObjectiveKind::Cost),
        Pin {
            digest: 0x91e77bb68da0264b,
            outcome: (703, 2, 3595, 33),
            victims: 29,
            repack_migrations: 2,
        }
    );
}

/// Rounds of the pinned monitor-loop script.
const TICKS: usize = 40;

/// Most nodes the tick script keeps failed at once.
const TICK_MAX_DOWN: usize = 8;

/// A seeded monitor-loop script: per tick, fail or restore 1 to
/// `max_step` nodes, keeping at most `max_down` failed at once and
/// restoring on one tick in `restore_one_in` (always at `max_down`).
struct TickScript {
    state: u64,
    down: Vec<u32>,
    max_down: usize,
    max_step: u64,
    restore_one_in: u64,
}

impl TickScript {
    /// The `tick-10k` script: 1–3 nodes per tick, at most
    /// [`TICK_MAX_DOWN`] down, restores on half the ticks.
    fn new(seed: u64) -> TickScript {
        TickScript {
            state: seed,
            down: Vec::new(),
            max_down: TICK_MAX_DOWN,
            max_step: 3,
            restore_one_in: 2,
        }
    }

    /// splitmix64.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The nodes to change this tick: `(restore?, nodes)`.
    fn step(&mut self) -> (bool, Vec<u32>) {
        let k = 1 + (self.next_u64() % self.max_step) as usize;
        let restore = !self.down.is_empty()
            && (self.down.len() >= self.max_down
                || self.next_u64().is_multiple_of(self.restore_one_in));
        let mut nodes = Vec::new();
        if restore {
            for _ in 0..k.min(self.down.len()) {
                let i = (self.next_u64() % self.down.len() as u64) as usize;
                nodes.push(self.down.swap_remove(i));
            }
        } else {
            while nodes.len() < k && self.down.len() < self.max_down {
                let n = (self.next_u64() % NODES as u64) as u32;
                if !self.down.contains(&n) {
                    self.down.push(n);
                    nodes.push(n);
                }
            }
        }
        nodes.sort_unstable();
        (restore, nodes)
    }
}

/// One warm tick's pin: FNV-1a of `ActionPlan::to_json` and the
/// `PackOutcome` lengths (deletions, migrations, starts, unplaced).
type TickPin = (u64, (usize, usize, usize, usize));

/// The `tick-10k` shape at 200 nodes: the converged controller replans
/// warm (`CapacityOnly`) after every step of `script`, each target
/// adopted as the next live state. Every round's target must be
/// `bitwise_eq` to the free cold `plan`'s of the same live state. Returns the
/// pins and how many rounds ranked other items than the round before.
fn tick_pins(kind: ObjectiveKind, mut script: TickScript, ticks: usize) -> (Vec<TickPin>, usize) {
    let env = build_env(&EnvConfig {
        nodes: NODES,
        target_utilization: 0.75,
        alibaba: AlibabaConfig {
            max_services: 3 * NODES,
            ..AlibabaConfig::default()
        },
        seed: 11,
        ..EnvConfig::default()
    });
    let config = PhoenixConfig::with_objective(kind);
    let mut controller =
        PhoenixController::new(env.workload.clone(), PhoenixConfig::with_objective(kind));
    let converged = controller.replan(&env.baseline, ReplanDelta::Full);
    let mut items = converged.rank.items.clone();
    let mut live = converged.target;
    let mut pins = Vec::with_capacity(ticks);
    let mut reranked = 0;
    for round in 0..ticks {
        let (restore, nodes) = script.step();
        for &n in &nodes {
            match restore {
                true => live.restore_node(NodeId::new(n)),
                false => _ = live.fail_node(NodeId::new(n)),
            }
        }
        let warm = controller.replan(&live, ReplanDelta::CapacityOnly);
        // The free cold plan builds everything from scratch, so it shares
        // nothing with the controller's replan cache.
        let cold = plan(&env.workload, live.clone(), &config, &StatefulMarks::new());
        assert!(
            warm.target.bitwise_eq(&cold.target),
            "{kind:?} tick {round}: warm target differs from a cold plan's"
        );
        assert_eq!(warm.actions, cold.actions, "{kind:?} tick {round}");
        pins.push((
            fnv(warm.actions.to_json().as_bytes()),
            (
                warm.packing.deletions.len(),
                warm.packing.migrations.len(),
                warm.packing.starts.len(),
                warm.packing.unplaced.len(),
            ),
        ));
        if warm.rank.items != items {
            reranked += 1;
            items.clone_from(&warm.rank.items);
        }
        live = warm.target;
    }
    (pins, reranked)
}

#[test]
fn tick_replans_fairness_are_pinned() {
    let (pins, _) = tick_pins(ObjectiveKind::Fairness, TickScript::new(11), TICKS);
    assert_eq!(pins, TICK_PINS_FAIRNESS);
}

#[test]
fn tick_replans_cost_are_pinned() {
    let (pins, _) = tick_pins(ObjectiveKind::Cost, TickScript::new(11), TICKS);
    assert_eq!(pins, TICK_PINS_COST);
}

/// Rounds of the pinned crunch script.
const CRUNCH_TICKS: usize = 30;

/// The crunch pins' script: up to 16 nodes per tick, up to 30 % of the
/// nodes down, restores on one tick in four. Past a quarter of the nodes
/// the environment's demand no longer fits, so the ranking changes from
/// round to round and the warm plan patch runs under the pins.
fn crunch_script() -> TickScript {
    TickScript {
        max_down: NODES * 3 / 10,
        max_step: 16,
        restore_one_in: 4,
        ..TickScript::new(11)
    }
}

/// Crunch rounds whose ranking must differ from the round before.
const CRUNCH_MIN_RERANKED: usize = 10;

#[test]
fn crunch_tick_replans_fairness_are_pinned() {
    let (pins, reranked) = tick_pins(ObjectiveKind::Fairness, crunch_script(), CRUNCH_TICKS);
    assert!(
        reranked >= CRUNCH_MIN_RERANKED,
        "only {reranked} rounds re-ranked"
    );
    assert_eq!(pins, CRUNCH_PINS_FAIRNESS);
}

#[test]
fn crunch_tick_replans_cost_are_pinned() {
    let (pins, reranked) = tick_pins(ObjectiveKind::Cost, crunch_script(), CRUNCH_TICKS);
    assert!(
        reranked >= CRUNCH_MIN_RERANKED,
        "only {reranked} rounds re-ranked"
    );
    assert_eq!(pins, CRUNCH_PINS_COST);
}

/// A tick with nothing to do (a restored node comes back empty).
const NO_ACTIONS: TickPin = (0x09612b07b5ecb5a5, (0, 0, 0, 0));

#[rustfmt::skip]
const TICK_PINS_FAIRNESS: &[TickPin] = &[
    (0xcf006570bf2edd4b, (0, 0, 128, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0x37bb1b02f42bf3bd, (0, 0, 133, 0)),
    NO_ACTIONS,
    (0x968b949d006e3155, (0, 0, 289, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0xea707fc8182a92d6, (0, 0, 85, 0)),
    NO_ACTIONS,
    (0x21c8871676967afe, (0, 0, 224, 0)),
    (0xe8867d3cb48e035a, (0, 0, 82, 0)),
    NO_ACTIONS,
    (0x39d50bdef3f36a4c, (0, 0, 43, 0)),
    NO_ACTIONS,
    (0xed580874ac8ac8cf, (0, 0, 157, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0x02929b15216ce75a, (0, 0, 87, 0)),
    (0xc805608b738ac021, (0, 0, 62, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0xa54ecca93558cc1a, (0, 0, 216, 0)),
    NO_ACTIONS,
    (0x0ac850572b9af9d2, (0, 0, 51, 0)),
    (0x007378352811072b, (0, 0, 128, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0xd058b774df23926c, (0, 0, 128, 0)),
    NO_ACTIONS,
    (0x046cca24d507e100, (0, 0, 206, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0x44a0256fb1715f0b, (0, 0, 128, 0)),
    (0x67643a80ed91ce00, (0, 0, 128, 0)),
    NO_ACTIONS,
    (0x2e91f8c15efc6765, (0, 0, 360, 0)),
];

#[rustfmt::skip]
const TICK_PINS_COST: &[TickPin] = &[
    (0xcf006570bf2edd4b, (0, 0, 128, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0xb15564f5bc699221, (0, 0, 133, 0)),
    NO_ACTIONS,
    (0x7b54aa41f09a6609, (0, 0, 289, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0x345990940e3e4e0f, (0, 0, 85, 0)),
    NO_ACTIONS,
    (0x4951a68f663f7cdd, (0, 0, 233, 0)),
    (0x8e377843d060a312, (0, 0, 82, 0)),
    NO_ACTIONS,
    (0x79abfd8146990605, (0, 0, 43, 0)),
    NO_ACTIONS,
    (0x893866f82fcc28fc, (0, 0, 157, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0xc855796e814ff1c8, (0, 0, 87, 0)),
    (0xf316e8085fc2d660, (0, 0, 62, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    NO_ACTIONS,
    (0x57cdad31808bdf6f, (0, 0, 216, 0)),
    NO_ACTIONS,
    (0x2b84504d792e1f0c, (0, 0, 52, 0)),
    (0x229f7550ae353f35, (0, 0, 128, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0x4fb1795d5b3186be, (0, 0, 128, 0)),
    NO_ACTIONS,
    (0x52b26c84d43e78de, (0, 0, 206, 0)),
    NO_ACTIONS,
    NO_ACTIONS,
    (0xf56faa4f91990fa0, (0, 0, 128, 0)),
    (0xb68b5af2915a1882, (0, 0, 128, 0)),
    NO_ACTIONS,
    (0xe7e49d1b658669c2, (0, 0, 360, 0)),
];

#[rustfmt::skip]
const CRUNCH_PINS_FAIRNESS: &[TickPin] = &[
    (0x7cee40c6e76f85ac, (0, 0, 687, 0)),
    (0xfd062c14238ef442, (0, 0, 913, 0)),
    (0x3b17131ef2045227, (0, 0, 728, 0)),
    (0xfad8de8a201eff11, (0, 0, 1202, 0)),
    (0xefa149cf0c024a05, (923, 0, 742, 33)),
    (0x79c42599bc8c9c10, (385, 0, 286, 34)),
    (0x4e15fb82b15cb4e4, (1, 0, 1025, 34)),
    (0xdcffacb470f5b060, (1025, 0, 653, 34)),
    (0x29220b849cc951e6, (1, 2, 515, 32)),
    (0xfbf48aba984ceb6c, (515, 1, 260, 33)),
    (0x2bfc0fdb68371052, (2, 0, 515, 32)),
    (0x73d537aec108486f, (515, 0, 335, 34)),
    (0x2ba433dcbb3ba677, (1, 0, 385, 34)),
    (0x769d4d178483f356, (257, 1, 150, 34)),
    (0x6daf5803b1545966, (0, 0, 1280, 31)),
    (0x639b5f7d74b3cbd4, (512, 0, 307, 34)),
    (0x34412c92b360f447, (770, 0, 532, 35)),
    (0x79b92504bea0318e, (0, 2, 1025, 34)),
    (0xe2743b775daa0b6d, (770, 0, 663, 34)),
    (0xeb33c96acbe62925, (256, 0, 189, 34)),
    (0xdb5c7dcb7259c3e3, (0, 0, 640, 34)),
    (0xa9743fd2e84ed3cf, (641, 0, 506, 35)),
    (0x625b34074ed070aa, (2, 0, 770, 35)),
    (0x0ecda150e5e23b76, (770, 0, 415, 36)),
    (0x0b428956c58baf82, (2, 0, 770, 36)),
    (0xe4ccb5d01fa8198a, (0, 0, 545, 0)),
    (0x14cd99cd4f290986, (1185, 0, 1427, 36)),
    (0xd2eb57551069158a, (130, 0, 88, 36)),
    (0x9829f9ef285e9c2a, (0, 1, 256, 36)),
    (0xcf1e52c7beea6014, (255, 0, 204, 35)),
];

#[rustfmt::skip]
const CRUNCH_PINS_COST: &[TickPin] = &[
    (0xe02ed08c8a0e4c33, (0, 0, 687, 0)),
    (0xa8f9624951f58ec8, (0, 0, 913, 0)),
    (0xc0c2332c6a656b88, (0, 0, 728, 0)),
    (0xc7687dd96a330546, (0, 0, 1166, 0)),
    (0x238ac56a1a11192d, (752, 1, 700, 35)),
    (0x41929167d9592e27, (241, 0, 266, 26)),
    (0x5441dc75f4adce9a, (0, 0, 783, 34)),
    (0x66f68c4ec43800cf, (782, 0, 581, 25)),
    (0x0c9510e30a3ae025, (0, 0, 376, 30)),
    (0x3f2e63e555e2a2f4, (375, 2, 250, 24)),
    (0xc28d62f8740fcc64, (0, 0, 377, 28)),
    (0xd44fbfe4233dabe4, (377, 1, 334, 24)),
    (0xd698d7139814ebfb, (0, 0, 249, 31)),
    (0xca9b2579d40c97e1, (179, 0, 221, 24)),
    (0xe20dbe539b3a86a9, (0, 0, 991, 30)),
    (0x137297e98481026d, (433, 2, 347, 21)),
    (0x03391afa6504e9d1, (561, 6, 581, 27)),
    (0xd6a2a6b63f63f8b0, (0, 0, 782, 36)),
    (0x35336aede8fc22c8, (637, 5, 668, 25)),
    (0xef2a86cbe7b0cee1, (145, 1, 206, 27)),
    (0xaa2990e6d1bbf516, (0, 0, 478, 34)),
    (0x4c1f961901d35880, (479, 4, 508, 28)),
    (0x4b42097fbbd8e09e, (0, 0, 560, 23)),
    (0xd86085d95a01d557, (562, 3, 480, 30)),
    (0x5f3990191d270208, (0, 2, 562, 23)),
    (0x5b084c43d918ccda, (0, 0, 465, 0)),
    (0x753dc73bc71a66c5, (953, 9, 1399, 16)),
    (0xf9a525aa63f808d4, (74, 2, 106, 30)),
    (0x31fca46a2eb24501, (0, 1, 146, 27)),
    (0x8d36cb5f03497b72, (146, 0, 213, 30)),
];
