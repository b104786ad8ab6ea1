//! Observability determinism: the deterministic counter plane is a pure
//! function of planner inputs — byte-identical for any `Pool` thread
//! count — and an enabled recorder never perturbs planner output.
//!
//! These are the two contracts that let `phoenix-obs` join the CI
//! determinism probe: counters count *work the planner does* (plans,
//! cache decisions, placements), never how the pool chunked it, and the
//! wall-clock plane (timers, spans) is the only part allowed to move
//! between runs. Each test installs its recorder with
//! [`install_scoped`], which serializes on a process-wide scope lock so
//! the harness's parallel test threads cannot observe each other's
//! counters.
//!
//! [`install_scoped`]: phoenix_obs::install_scoped

use phoenix_cluster::{ClusterState, NodeId, Resources};
use phoenix_core::controller::{plan_with_pool, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::{replan_with_pool, ReplanCache, ReplanDelta};
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::tags::Criticality;
use phoenix_exec::Pool;
use phoenix_obs::{install_scoped, Recorder};
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

/// Runs the cold-plan + warm-replan churn loop on a dedicated pool under
/// a fresh enabled recorder and returns the counter plane rendered as
/// the exact bytes the determinism probe would print.
fn counter_bytes(threads: usize) -> String {
    let nodes = 10usize;
    let recorder = Recorder::enabled();
    let _installed = install_scoped(recorder.clone());
    let pool = Pool::new(threads);

    let workload = mixed_workload(5);
    let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
    let mut live = ClusterState::homogeneous(nodes, Resources::cpu(4.0));
    let mut cache = ReplanCache::new();
    std::hint::black_box(
        plan_with_pool(&workload, &live, &cfg, &pool)
            .target
            .pod_count(),
    );
    for round in 0..4u32 {
        let delta = if round % 2 == 0 {
            ReplanDelta::CapacityOnly
        } else {
            ReplanDelta::Full
        };
        let result = replan_with_pool(&workload, &live, &cfg, &mut cache, delta, &pool);
        live = result.target.clone();
        live.fail_node(NodeId::new(round % nodes as u32));
    }

    recorder
        .counters()
        .into_iter()
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect()
}

/// One plan's full observable output as a canonical string: rank order,
/// per-pod placements, action counts, and packing tallies. Two runs that
/// agree on these bytes produced the same plan.
fn plan_bytes(
    workload: &Workload,
    state: &ClusterState,
    cfg: &PhoenixConfig,
    pool: &Pool,
) -> String {
    let result = plan_with_pool(workload, state, cfg, pool);
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
    let baseline = counter_bytes(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            baseline,
            counter_bytes(threads),
            "deterministic counter plane moved between 1 and {threads} pool threads"
        );
    }
}

#[test]
fn enabled_recorder_leaves_plan_output_byte_identical() {
    let workload = mixed_workload(6);
    let state = ClusterState::homogeneous(9, Resources::cpu(4.0));
    let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
    let pool = Pool::new(2);

    let disabled = {
        let _installed = install_scoped(Recorder::disabled());
        plan_bytes(&workload, &state, &cfg, &pool)
    };
    let enabled = {
        let _installed = install_scoped(Recorder::enabled());
        plan_bytes(&workload, &state, &cfg, &pool)
    };
    assert_eq!(
        disabled, enabled,
        "an enabled recorder must observe the plan, not perturb it"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (workload shape × cluster size): the counter plane at
    /// 1 thread and 4 threads is byte-identical.
    #[test]
    fn prop_counters_thread_invariant(
        apps in 2u64..7,
        nodes in 4usize..14,
    ) {
        let render = |threads: usize| -> String {
            let recorder = Recorder::enabled();
            let _installed = install_scoped(recorder.clone());
            let pool = Pool::new(threads);
            let workload = mixed_workload(apps);
            let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
            let mut live = ClusterState::homogeneous(nodes, Resources::cpu(4.0));
            let mut cache = ReplanCache::new();
            for round in 0..3u32 {
                let result =
                    replan_with_pool(&workload, &live, &cfg, &mut cache, ReplanDelta::Full, &pool);
                live = result.target.clone();
                live.fail_node(NodeId::new(round % nodes as u32));
            }
            recorder
                .counters()
                .into_iter()
                .map(|(name, value)| format!("{name}={value}\n"))
                .collect()
        };
        prop_assert_eq!(render(1), render(4));
    }
}
