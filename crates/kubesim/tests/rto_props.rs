//! Differential test: `evaluate_rto`'s single forward walk reports exactly
//! the outages of the per-service scan it replaced, on simulated traces of
//! random multi-app workloads under mixed stop / start / flap / degrade /
//! surge scenarios, for failure instants at `t = 0`, on a sample, between
//! samples and past the horizon.

use phoenix_cluster::Resources;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::spec::{AppSpecBuilder, ModeSpec, ServingMode, Workload};
use phoenix_core::tags::Criticality;
use phoenix_kubesim::rto::{evaluate_rto, RtoPolicy};
use phoenix_kubesim::run::{simulate, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

/// `evaluate_rto` as it stood before the forward walk, kept verbatim as
/// the differential oracle: one `service_up` binary search per service ×
/// post-failure sample × replica.
mod reference {
    use phoenix_core::spec::Workload;
    use phoenix_kubesim::rto::{RtoPolicy, RtoReport, ServiceOutage};
    use phoenix_kubesim::run::SimTrace;
    use phoenix_kubesim::time::SimTime;

    pub fn evaluate_rto(
        trace: &SimTrace,
        workload: &Workload,
        policy: &RtoPolicy,
        failure_at: SimTime,
    ) -> RtoReport {
        let mut outages = Vec::new();
        for (ai, app) in workload.apps() {
            for service in app.service_ids() {
                // "Before the failure" = the last sample strictly earlier than
                // the event (at the instant itself the service is already dark).
                let was_up = trace.service_up(
                    workload,
                    ai.index() as u32,
                    service.index() as u32,
                    failure_at.saturating_sub(SimTime::from_millis(1)),
                );
                // Scan samples from the failure onward.
                let mut down_at: Option<SimTime> = None;
                let mut restored_at: Option<SimTime> = None;
                for sample in trace.samples.iter().filter(|s| s.at >= failure_at) {
                    let up = trace.service_up(
                        workload,
                        ai.index() as u32,
                        service.index() as u32,
                        sample.at,
                    );
                    match (down_at, up) {
                        (None, false) => down_at = Some(sample.at),
                        (Some(_), true) => {
                            restored_at = Some(sample.at);
                            break;
                        }
                        _ => {}
                    }
                }
                if let Some(down) = down_at {
                    if was_up || down > failure_at {
                        let criticality = app.criticality_of(service);
                        outages.push(ServiceOutage {
                            app: ai,
                            service,
                            criticality,
                            down_at: down,
                            restored_at,
                            target: policy.target_for(criticality),
                        });
                    }
                }
            }
        }
        RtoReport { outages }
    }
}

/// Per app, per service: `(replicas, criticality, cpu, modal)`.
type Shape = Vec<Vec<(u16, u8, u8, bool)>>;

fn workload(shape: &Shape) -> Workload {
    let apps = shape
        .iter()
        .enumerate()
        .map(|(a, services)| {
            let mut b = AppSpecBuilder::new(format!("app{a}"));
            for (s, &(replicas, crit, cpu, modal)) in services.iter().enumerate() {
                let cpu = f64::from(cpu);
                let id = b.add_service(
                    format!("s{s}"),
                    Resources::cpu(cpu),
                    Some(Criticality::new(crit)),
                    replicas,
                );
                if modal {
                    b.service_modes(
                        id,
                        vec![
                            ModeSpec::new(ServingMode::Full, Resources::cpu(cpu), 1.0),
                            ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(cpu / 2.0), 0.5),
                        ],
                    );
                }
            }
            b.build().unwrap()
        })
        .collect();
    Workload::new(apps)
}

/// `(kind, at_s, node, param)` → one scenario event; returns the event's
/// instant.
fn add_event(s: &mut Scenario, apps: u32, (kind, at_s, node, p): (u8, u64, u32, u32)) -> SimTime {
    let at = SimTime::from_secs(at_s);
    match kind {
        0 => {
            s.kubelet_stop_at(at, [node]);
        }
        1 => {
            s.kubelet_start_at(at, [node]);
        }
        2 => {
            s.flap_at(
                at,
                [node],
                SimTime::from_secs(30 + u64::from(p)),
                SimTime::from_secs(60 + u64::from(p)),
                1 + p % 3,
                u64::from(p) * 100,
            );
        }
        3 => {
            s.capacity_degrade_at(at, [node], 0.3 + f64::from(p) / 200.0);
            if p % 2 == 0 {
                s.capacity_restore_at(at + SimTime::from_secs(120 + u64::from(p)), [node]);
            }
        }
        _ => {
            // Replica factors on both sides of 1: a shrink, and growth that
            // puts replicas past the original spec into `serving`.
            let replica_factor = [0.5, 2.0, 3.0, 0.25][p as usize % 4];
            let demand_factor = 1.0 + f64::from(p % 3) * 0.25;
            s.demand_surge_at(at, p % apps, demand_factor, replica_factor);
        }
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn forward_walk_matches_the_per_service_scan(
        shape in vec(vec((1u16..5, 1u8..7, 1u8..4, proptest::bool::ANY), 1..5), 1..4),
        nodes in 2u32..7,
        node_cpu in 4u8..9,
        events in vec((0u8..5, 1u64..600, 0u32..8, 0u32..100), 1..7),
        start_at_zero in proptest::bool::ANY,
        policy in 0u8..3,
        seed in 0u64..1000,
    ) {
        let w = workload(&shape);
        let mut s = Scenario::new(nodes as usize, Resources::cpu(f64::from(node_cpu)));
        let mut instants = vec![SimTime::ZERO];
        for (i, &(kind, at_s, node, p)) in events.iter().enumerate() {
            // Pinned regressions open with a `t = 0` event: cover that too.
            let at_s = if i == 0 && start_at_zero { 0 } else { at_s };
            let at = add_event(&mut s, shape.len() as u32, (kind, at_s, node % nodes, p));
            instants.push(at);
            instants.push(at + SimTime::from_millis(1 + u64::from(p) * 7 % 998));
        }
        let horizon = SimTime::from_secs(720);
        instants.push(horizon + SimTime::from_secs(5));

        let policy: Box<dyn ResiliencePolicy> = match policy {
            0 => Box::new(PhoenixPolicy::fair()),
            1 => Box::new(PhoenixPolicy::cost()),
            _ => Box::new(DefaultPolicy),
        };
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let trace = simulate(&w, policy.as_ref(), &s, &cfg, horizon);
        let rto = RtoPolicy::paper_example();
        for failure_at in instants {
            prop_assert_eq!(
                evaluate_rto(&trace, &w, &rto, failure_at),
                reference::evaluate_rto(&trace, &w, &rto, failure_at),
                "failure_at {}", failure_at
            );
        }
    }
}
