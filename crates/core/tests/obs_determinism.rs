//! Observability determinism: the deterministic counter plane is a pure
//! function of planner inputs — byte-identical between runs and on any
//! thread that runs the planner — and an enabled recorder never perturbs
//! planner output.
//!
//! These are the two contracts that let `phoenix-obs` join the CI
//! determinism probe: counters count *work the planner does* (plans,
//! cache decisions, placements), and the wall-clock plane (timers,
//! spans) is the only part allowed to move between runs. Each run
//! scopes its own recorder with [`with_recorder`]; the scope is
//! per-thread, so the harness's parallel test threads never observe
//! each other's counters and take no lock.

use phoenix_cluster::{ClusterState, NodeId, Resources};
use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::stateful::StatefulMarks;
use phoenix_core::tags::Criticality;
use phoenix_obs::{with_recorder, Recorder};
use proptest::prelude::*;

/// A deterministic mixed workload: dependency chains, flat apps, uneven
/// replica counts — enough shape variety to drive every rank/pack path.
fn mixed_workload(apps: u64) -> Workload {
    let mut specs = Vec::new();
    for a in 0..apps {
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let n = 2 + (a % 3) as usize;
        let ids: Vec<_> = (0..n)
            .map(|s| {
                b.add_service(
                    format!("s{s}"),
                    Resources::cpu(0.5 + ((s as u64 + a) % 3) as f64 * 0.75),
                    Some(Criticality::new(1 + ((s as u64 * 5 + a) % 5) as u8)),
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
        specs.push(b.build().expect("valid test spec"));
    }
    Workload::new(specs)
}

/// Runs the cold-plan + warm-replan churn loop under a fresh enabled
/// recorder and returns the counter plane rendered as the exact bytes
/// the determinism probe would print.
fn counter_bytes() -> String {
    let recorder = Recorder::enabled();
    with_recorder(recorder.clone(), churn);
    render(&recorder)
}

/// Runs `f` on a freshly spawned thread, which starts with no recorder
/// scope of its own.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("planning thread panicked"))
}

/// The churn loop [`counter_bytes`] records: one cold plan, then warm
/// replans across both delta classes with a node failing per round.
fn churn() {
    let nodes = 10usize;
    let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
    let mut controller = PhoenixController::new(mixed_workload(5), cfg);
    let mut live = ClusterState::homogeneous(nodes, Resources::cpu(4.0));
    std::hint::black_box(controller.plan(&live).target.pod_count());
    for round in 0..4u32 {
        let delta = if round % 2 == 0 {
            ReplanDelta::CapacityOnly
        } else {
            ReplanDelta::Full
        };
        let result = controller.replan(&live, delta);
        live = result.target.clone();
        live.fail_node(NodeId::new(round % nodes as u32));
    }
}

/// The counter plane as `name=value` lines, [`phoenix_obs::Counter::ALL`]
/// order.
fn render(recorder: &Recorder) -> String {
    recorder
        .counters()
        .into_iter()
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect()
}

/// One plan's full observable output as a canonical string: rank order,
/// per-pod placements, action counts, and packing tallies. Two runs that
/// agree on these bytes produced the same plan.
fn plan_bytes(workload: &Workload, state: &ClusterState, cfg: &PhoenixConfig) -> String {
    let result = plan(workload, state.clone(), cfg, &StatefulMarks::new());
    let mut out = String::new();
    for item in &result.rank.items {
        out.push_str(&format!(
            "rank {} {} {}\n",
            item.app.index(),
            item.service.index(),
            item.demand.scalar().to_bits()
        ));
    }
    let mut placed: Vec<_> = result
        .target
        .assignments()
        .map(|(p, n, d)| (p, n.index(), d.scalar().to_bits()))
        .collect();
    placed.sort_unstable();
    for (pod, node, demand) in placed {
        out.push_str(&format!("pod {pod} -> {node} {demand}\n"));
    }
    let (d, m, s) = result.actions.counts();
    out.push_str(&format!(
        "actions {d} {m} {s} pack {} {} {}\n",
        result.packing.deletions.len(),
        result.packing.migrations.len(),
        result.packing.starts.len()
    ));
    out
}

#[test]
fn counters_byte_identical_across_threads() {
    let baseline = counter_bytes();
    assert_eq!(
        baseline,
        counter_bytes(),
        "counter plane moved between runs"
    );
    assert_eq!(
        baseline,
        on_fresh_thread(counter_bytes),
        "counter plane moved between the test thread and a fresh one"
    );
}

/// Two threads plan concurrently, each in its own recorder scope: each
/// recorder reads exactly the bytes of a solo run — no lock, no
/// cross-talk.
#[test]
fn concurrent_recorder_scopes_do_not_cross_talk() {
    let solo = counter_bytes();
    let [a, b] = std::thread::scope(|s| {
        [s.spawn(counter_bytes), s.spawn(counter_bytes)]
            .map(|h| h.join().expect("planning thread panicked"))
    });
    assert_eq!(a, solo, "first concurrent recorder saw foreign counts");
    assert_eq!(b, solo, "second concurrent recorder saw foreign counts");
}

#[test]
fn enabled_recorder_leaves_plan_output_byte_identical() {
    let workload = mixed_workload(6);
    let state = ClusterState::homogeneous(9, Resources::cpu(4.0));
    let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
    let plan = || plan_bytes(&workload, &state, &cfg);

    let disabled = plan();
    let enabled = with_recorder(Recorder::enabled(), plan);
    assert_eq!(
        disabled, enabled,
        "an enabled recorder must observe the plan, not perturb it"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (workload shape × cluster size): the counter plane on the
    /// test thread and on a fresh thread is byte-identical.
    #[test]
    fn prop_counters_thread_invariant(
        apps in 2u64..7,
        nodes in 4usize..14,
    ) {
        let record = || -> String {
            let recorder = Recorder::enabled();
            let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
            let mut controller = PhoenixController::new(mixed_workload(apps), cfg);
            let mut live = ClusterState::homogeneous(nodes, Resources::cpu(4.0));
            with_recorder(recorder.clone(), || {
                for round in 0..3u32 {
                    let result = controller.replan(&live, ReplanDelta::Full);
                    live = result.target.clone();
                    live.fail_node(NodeId::new(round % nodes as u32));
                }
            });
            render(&recorder)
        };
        prop_assert_eq!(record(), on_fresh_thread(record));
    }
}
