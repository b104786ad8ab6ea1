//! Property tests: the control-plane simulation never violates capacity,
//! never serves from dead kubelets, and milestones stay ordered.

use std::collections::BTreeSet;

use phoenix_cluster::Resources;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::tags::Criticality;
use phoenix_kubesim::run::{simulate, simulate_from, MilestoneKind, SimConfig, SteadyState};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use proptest::prelude::*;

fn workload(services: usize) -> Workload {
    let mut b = AppSpecBuilder::new("w");
    for i in 0..services {
        b.add_service(
            format!("s{i}"),
            Resources::cpu(1.0 + (i % 2) as f64),
            Some(Criticality::new(1 + (i % 5) as u8)),
            1,
        );
    }
    Workload::new(vec![b.build().unwrap()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulation_invariants(
        services in 2usize..10,
        nodes in 2u32..8,
        fail_at in 60u64..400,
        fail_count in 1u32..4,
        restore in proptest::bool::ANY,
        phoenix in proptest::bool::ANY,
    ) {
        let w = workload(services);
        let mut s = Scenario::new(nodes as usize, Resources::cpu(4.0));
        let victims: Vec<u32> = (0..fail_count.min(nodes)).collect();
        s.kubelet_stop_at(SimTime::from_secs(fail_at), victims.clone());
        if restore {
            s.kubelet_start_at(SimTime::from_secs(fail_at + 600), victims);
        }
        let policy: Box<dyn ResiliencePolicy> = if phoenix {
            Box::new(PhoenixPolicy::fair())
        } else {
            Box::new(DefaultPolicy)
        };
        let trace = simulate(&w, policy.as_ref(), &s, &SimConfig::default(),
            SimTime::from_secs(fail_at + 1200));

        // Milestones are time-ordered and detection follows failure.
        for win in trace.milestones.windows(2) {
            prop_assert!(win[0].at <= win[1].at);
        }
        let first = |kind| trace.first_kind(kind);
        if let (Some(f), Some(d)) = (first(MilestoneKind::Failure), first(MilestoneKind::Detected)) {
            prop_assert!(d >= f);
        }
        // Serving sets are sorted, duplicate-free, and within the workload.
        for sample in &trace.samples {
            for win in sample.serving.windows(2) {
                prop_assert!(win[0] < win[1]);
            }
            for pod in &sample.serving {
                prop_assert!(w.service_of_pod(*pod).is_some());
            }
            // Serving demand never exceeds total healthy capacity.
            let demand: f64 = sample
                .serving
                .iter()
                .map(|p| w.service_of_pod(*p).unwrap().1.demand.cpu)
                .sum();
            prop_assert!(demand <= nodes as f64 * 4.0 + 1e-9);
        }
        // Consecutive samples share their list exactly when it is equal,
        // so the trace holds one list per run of equal serving sets.
        for win in trace.samples.windows(2) {
            prop_assert_eq!(
                win[0].serving.as_ptr() == win[1].serving.as_ptr(),
                *win[0].serving == *win[1].serving
            );
        }
        let lists: BTreeSet<_> = trace.samples.iter().map(|s| s.serving.as_ptr()).collect();
        prop_assert_eq!(lists.len(), trace.serving_runs(SimTime::ZERO).count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Detection latency is bounded by grace + one monitor tick (§5): the
    /// failure is declared no earlier than the heartbeat grace and no
    /// later than one monitor period after the grace expires.
    #[test]
    fn detection_latency_bounded(
        monitor_secs in 5u64..60,
        grace_secs in 10u64..120,
        services in 2usize..8,
    ) {
        let w = workload(services);
        let mut scenario = Scenario::new(6, Resources::cpu(4.0));
        scenario.kubelet_stop_at(SimTime::from_secs(300), vec![0, 1]);
        let cfg = SimConfig {
            monitor_interval: SimTime::from_secs(monitor_secs),
            heartbeat_grace: SimTime::from_secs(grace_secs),
            ..SimConfig::default()
        };
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &scenario,
            &cfg,
            SimTime::from_secs(1200),
        );
        let failure = trace.first_kind(MilestoneKind::Failure).expect("kubelets stop");
        if let Some(detected) = trace.first_kind(MilestoneKind::Detected) {
            let latency = detected.saturating_sub(failure).as_secs_f64();
            prop_assert!(
                latency + 1e-9 >= grace_secs as f64,
                "detected {latency}s after failure, before the {grace_secs}s grace"
            );
            prop_assert!(
                latency <= (grace_secs + monitor_secs) as f64 + 1e-9,
                "detected {latency}s after failure, past grace {grace_secs}s + tick {monitor_secs}s"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The steady-state replay used by the clone-free campaign/hunt
    /// fan-outs is byte-equivalent to a cold simulation: same samples
    /// (serving sets, utility bits — so the mode ledger too), same
    /// milestones. A steady state captured on a *different* cluster
    /// shape must fall back to the cold plan and still agree.
    #[test]
    fn steady_replay_matches_cold_simulate(
        services in 2usize..8,
        nodes in 2u32..8,
        fail_at in 60u64..300,
        degrade in proptest::bool::ANY,
        phoenix in proptest::bool::ANY,
    ) {
        let w = workload(services);
        let mut s = Scenario::new(nodes as usize, Resources::cpu(4.0));
        s.kubelet_stop_at(SimTime::from_secs(fail_at), vec![0]);
        if degrade {
            s.capacity_degrade_at(SimTime::from_secs(fail_at + 120), vec![1], 0.5);
        }
        let policy: Box<dyn ResiliencePolicy> = if phoenix {
            Box::new(PhoenixPolicy::fair())
        } else {
            Box::new(DefaultPolicy)
        };
        let cfg = SimConfig::default();
        let horizon = SimTime::from_secs(fail_at + 900);

        let cold = simulate(&w, policy.as_ref(), &s, &cfg, horizon);
        let steady = SteadyState::compute(&w, policy.as_ref(), &s.node_capacities);
        let warm = simulate_from(&w, policy.as_ref(), &s, &cfg, horizon, Some(&steady));
        prop_assert_eq!(&cold.samples, &warm.samples);
        prop_assert_eq!(&cold.milestones, &warm.milestones);
        prop_assert_eq!(cold.plans.len(), warm.plans.len());

        // Shape mismatch → cold fallback, still byte-identical.
        let other = SteadyState::compute(
            &w,
            policy.as_ref(),
            &vec![Resources::cpu(8.0); nodes as usize + 1],
        );
        let fallback = simulate_from(&w, policy.as_ref(), &s, &cfg, horizon, Some(&other));
        prop_assert_eq!(&cold.samples, &fallback.samples);
        prop_assert_eq!(&cold.milestones, &fallback.milestones);
    }
}
