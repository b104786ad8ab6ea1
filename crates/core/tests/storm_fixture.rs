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
