//! Overleaf failover drill: replay the paper's Fig. 6 scenario — kubelets
//! on 14 of 25 nodes stop for 15 minutes — and watch the Phoenix agent
//! detect, plan, and restore the critical edit pipeline while chat and
//! spell-check are shed.
//!
//! ```sh
//! cargo run --release --example overleaf_failover
//! ```

use phoenix::apps::instances::{cloudlab_workload, NODES, NODE_CPUS};
use phoenix::cluster::Resources;
use phoenix::core::policies::PhoenixPolicy;
use phoenix::core::spec::ServiceId;
use phoenix::kubesim::run::{simulate, MilestoneKind, SimConfig};
use phoenix::kubesim::scenario::Scenario;
use phoenix::kubesim::time::SimTime;

fn main() {
    let (workload, models) = cloudlab_workload();

    let mut scenario = Scenario::new(NODES, Resources::cpu(NODE_CPUS));
    let victims: Vec<u32> = (0..NODES as u32).filter(|n| n % 2 == 0).take(14).collect();
    scenario.kubelet_stop_at(SimTime::from_secs(300), victims.clone());
    scenario.kubelet_start_at(SimTime::from_secs(1200), victims);

    let trace = simulate(
        &workload,
        &PhoenixPolicy::fair(),
        &scenario,
        &SimConfig::default(),
        SimTime::from_secs(1800),
    );

    println!("timeline:");
    for m in &trace.milestones {
        println!("  {:>8}  {}", m.at.to_string(), m.label());
    }

    // How did Overleaf0 fare?
    let overleaf0 = &models[0];
    for t in [250u64, 450, 800, 1100, 1500] {
        let up =
            |s: ServiceId| trace.service_up(&workload, 0, s.index() as u32, SimTime::from_secs(t));
        let outcomes = overleaf0.outcomes(up);
        let edits = &outcomes[0];
        let chat = &outcomes[4];
        println!(
            "t={t:>4}s  edits {:>5.1} rps (goal {})  chat {:>4.1} rps",
            edits.served_rps,
            if overleaf0.critical_goal_met(up) {
                "MET"
            } else {
                "missed"
            },
            chat.served_rps,
        );
    }

    if let (Some(t1), Some(t4)) = (
        trace.first_kind(MilestoneKind::Failure),
        trace.first_kind(MilestoneKind::Recovered),
    ) {
        println!(
            "\ncritical services restored {:.0}s after the failure (paper: < 4 minutes)",
            t4.saturating_sub(t1).as_secs_f64()
        );
    }
}
