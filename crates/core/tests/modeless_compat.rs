//! Backward-compat regression corpus: mode-less specs must plan
//! **byte-identically** to the pre-serving-modes planner.
//!
//! The fixture under `tests/fixtures/modeless_plans.txt` was generated from
//! the planner *before* the (service, mode) refactor landed; every plan a
//! mode-less workload produces — cold and warm — is rendered to
//! canonical JSON and compared against those bytes. Regenerate only when a
//! deliberate planner behavior change is intended:
//!
//! ```text
//! PHOENIX_UPDATE_FIXTURES=1 cargo test -p phoenix-core --test modeless_compat
//! ```

use phoenix_cluster::{ClusterState, NodeId, Resources};
use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::stateful::StatefulMarks;
use phoenix_core::tags::Criticality;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/modeless_plans.txt"
);

/// The replan suite's mixed churn fixture: chained apps with graphs, a
/// flat app, uneven prices and replica counts.
fn mixed_workload(seed: u64) -> Workload {
    let mut apps = Vec::new();
    for a in 0..6u64 {
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let n = 3 + ((a + seed) % 4) as usize;
        let ids: Vec<_> = (0..n)
            .map(|s| {
                b.add_service(
                    format!("s{s}"),
                    Resources::cpu(1.0 + ((s as u64 + seed) % 3) as f64),
                    Some(Criticality::new(1 + ((s as u64 * 7 + a) % 5) as u8)),
                    1 + ((s as u64 + a) % 2) as u16,
                )
            })
            .collect();
        if a % 2 == 0 {
            for w in ids.windows(2) {
                b.add_dependency(w[0], w[1]);
            }
        }
        b.price_per_unit(1.0 + (a % 3) as f64);
        apps.push(b.build().unwrap());
    }
    Workload::new(apps)
}

/// Drives six churn rounds (failures, correlated failures, restores, a
/// steady round) and records the cold plan of every round, asserting the
/// warm plans (full and capacity-only deltas) match it byte-for-byte
/// along the way.
fn churn_lines(seed: u64, kind: ObjectiveKind, crunch: bool, out: &mut String) {
    let w = mixed_workload(seed);
    let config = PhoenixConfig::with_objective(kind);
    let controller = || PhoenixController::new(w.clone(), PhoenixConfig::with_objective(kind));
    let (mut full, mut capacity) = (controller(), controller());
    let (nodes, cpu) = if crunch { (4, 5.0) } else { (8, 4.0) };
    let mut live = ClusterState::homogeneous(nodes, Resources::cpu(cpu));
    for round in 0..6u32 {
        let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
        let warm = full.replan(&live, ReplanDelta::Full);
        let capacity_only = capacity.replan(&live, ReplanDelta::CapacityOnly);
        let json = cold.actions.to_json();
        assert_eq!(json, warm.actions.to_json(), "warm diverged from cold");
        assert_eq!(
            json,
            capacity_only.actions.to_json(),
            "capacity-only warm diverged from cold"
        );
        out.push_str(&format!("seed{seed}/{kind}/crunch{crunch}/round{round}: "));
        out.push_str(&json);
        out.push('\n');

        live = warm.target.clone();
        match round {
            0 => {
                live.fail_node(NodeId::new(0));
            }
            1 => {
                live.fail_node(NodeId::new(1));
                if !crunch {
                    live.fail_node(NodeId::new(2));
                }
            }
            2 => {
                live.restore_node(NodeId::new(0));
            }
            3 => {} // steady round: capacity unchanged, full rank reuse
            _ => {
                live.restore_node(NodeId::new(1));
                if !crunch {
                    live.restore_node(NodeId::new(2));
                }
            }
        }
    }
}

#[test]
fn modeless_corpus_plans_are_byte_identical_to_prerefactor_fixture() {
    let mut got = String::new();
    for seed in [0u64, 3] {
        for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
            for crunch in [false, true] {
                churn_lines(seed, kind, crunch, &mut got);
            }
        }
    }
    if std::env::var_os("PHOENIX_UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run once with PHOENIX_UPDATE_FIXTURES=1");
    assert_eq!(
        got, want,
        "mode-less planning drifted from the pre-refactor fixture"
    );
}
