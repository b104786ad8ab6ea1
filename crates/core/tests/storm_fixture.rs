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
use phoenix_core::controller::{PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
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

/// A seeded monitor-loop script: per tick, fail or restore 1–3 nodes.
struct TickScript {
    state: u64,
    down: Vec<u32>,
}

impl TickScript {
    fn new(seed: u64) -> TickScript {
        TickScript {
            state: seed,
            down: Vec::new(),
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
        let k = 1 + (self.next_u64() % 3) as usize;
        let restore =
            !self.down.is_empty() && (self.down.len() >= TICK_MAX_DOWN || self.next_u64() & 1 == 0);
        let mut nodes = Vec::new();
        if restore {
            for _ in 0..k.min(self.down.len()) {
                let i = (self.next_u64() % self.down.len() as u64) as usize;
                nodes.push(self.down.swap_remove(i));
            }
        } else {
            while nodes.len() < k && self.down.len() < TICK_MAX_DOWN {
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
/// warm (`CapacityOnly`) after every step of a seeded fail/restore
/// script, each target adopted as the next live state. Every round's
/// target must be `bitwise_eq` to a cold plan's of the same live state.
fn tick_pins(kind: ObjectiveKind) -> Vec<TickPin> {
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
    let mut live = controller.replan(&env.baseline, ReplanDelta::Full).target;
    let mut script = TickScript::new(11);
    let mut pins = Vec::with_capacity(TICKS);
    for round in 0..TICKS {
        let (restore, nodes) = script.step();
        for &n in &nodes {
            match restore {
                true => live.restore_node(NodeId::new(n)),
                false => _ = live.fail_node(NodeId::new(n)),
            }
        }
        let warm = controller.replan(&live, ReplanDelta::CapacityOnly);
        let cold = controller.plan(&live);
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
        live = warm.target;
    }
    pins
}

#[test]
fn tick_replans_fairness_are_pinned() {
    let pins = tick_pins(ObjectiveKind::Fairness);
    assert_eq!(pins, TICK_PINS_FAIRNESS);
}

#[test]
fn tick_replans_cost_are_pinned() {
    let pins = tick_pins(ObjectiveKind::Cost);
    assert_eq!(pins, TICK_PINS_COST);
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
