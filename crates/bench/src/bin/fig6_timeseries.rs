//! Figure 6: targeted recovery timeline on the simulated Kubernetes
//! cluster — Phoenix vs. Default, with per-request-type RPS and utility
//! series for Overleaf0 and HR1.
//!
//! Timeline: kubelets on 14/25 nodes stop at t=600 s (capacity → ~44 %)
//! and return at t=1500 s; the run ends at t=2100 s.

use phoenix_apps::instances::{cloudlab_workload, NODES, NODE_CPUS};
use phoenix_apps::loadgen::{generate_series, BacklogConfig};
use phoenix_bench::{arg, Table};
use phoenix_cluster::Resources;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
use phoenix_kubesim::run::{simulate, MilestoneKind, SimConfig, SimTrace};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;

fn scenario() -> Scenario {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut s = Scenario::new(NODES, Resources::cpu(NODE_CPUS));
    // A random 14 of 25 nodes go dark (seeded for reproducibility).
    let mut rng = rand::rngs::StdRng::seed_from_u64(arg("seed", 6));
    let mut victims: Vec<u32> = (0..NODES as u32).collect();
    victims.shuffle(&mut rng);
    victims.truncate(14);
    s.kubelet_stop_at(SimTime::from_secs(600), victims.clone());
    s.kubelet_start_at(SimTime::from_secs(1500), victims);
    s
}

fn availability_series(
    trace: &SimTrace,
    workload: &phoenix_core::spec::Workload,
    models: &[phoenix_apps::AppModel],
    times: &[u64],
) -> Vec<usize> {
    times
        .iter()
        .map(|&t| {
            models
                .iter()
                .enumerate()
                .filter(|(ai, m)| {
                    m.critical_goal_met(|s: phoenix_core::spec::ServiceId| {
                        trace.service_up(
                            workload,
                            *ai as u32,
                            s.index() as u32,
                            SimTime::from_secs(t),
                        )
                    })
                })
                .count()
        })
        .collect()
}

fn main() {
    let (workload, models) = cloudlab_workload();
    let horizon = SimTime::from_secs(2100);
    let step = arg("step", 30u64);
    let cfg = SimConfig::default();

    let phoenix_trace = simulate(
        &workload,
        &PhoenixPolicy::fair(),
        &scenario(),
        &cfg,
        horizon,
    );
    let cost_trace = simulate(
        &workload,
        &PhoenixPolicy::cost(),
        &scenario(),
        &cfg,
        horizon,
    );
    let default_trace = simulate(&workload, &DefaultPolicy, &scenario(), &cfg, horizon);

    // (a)/(b): milestones + availability over time.
    println!("=== Fig 6(a) milestones (PhoenixFair) ===");
    for m in &phoenix_trace.milestones {
        println!("  {:>7}  {}", m.at.to_string(), m.label());
    }
    let times: Vec<u64> = (0..=2100).step_by(step as usize).collect();
    let phx_avail = availability_series(&phoenix_trace, &workload, &models, &times);
    let cost_avail = availability_series(&cost_trace, &workload, &models, &times);
    let dfl_avail = availability_series(&default_trace, &workload, &models, &times);
    let mut table = Table::new(["t(s)", "PhoenixFair", "PhoenixCost", "Default"]);
    for (i, &t) in times.iter().enumerate() {
        table.row([
            t.to_string(),
            format!("{}/5", phx_avail[i]),
            format!("{}/5", cost_avail[i]),
            format!("{}/5", dfl_avail[i]),
        ]);
    }
    table.print("Figure 6(a)/(b): critical-service availability over time");

    // (c)-(f): per-request series for Overleaf0 and HR1 under Phoenix.
    let secs: Vec<f64> = times.iter().map(|&t| t as f64).collect();
    for (app_idx, name, requests) in [
        (
            0usize,
            "Overleaf0",
            vec!["edits", "spell_check", "versioning"],
        ),
        (
            4usize,
            "HR1",
            vec!["reserve", "recommend", "search", "login"],
        ),
    ] {
        let model = &models[app_idx];
        let series = generate_series(model, &secs, &BacklogConfig::default(), |tick, svc| {
            phoenix_trace.service_up(
                &workload,
                app_idx as u32,
                svc.index() as u32,
                SimTime::from_secs(times[tick]),
            )
        });
        let mut header = vec!["t(s)".to_string()];
        for r in &requests {
            header.push(format!("{r} rps"));
            header.push(format!("{r} util"));
        }
        let mut table = Table::new(header);
        for (i, &t) in times.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for r in &requests {
                let ri = model
                    .requests
                    .iter()
                    .position(|x| &x.name == r)
                    .expect("known request");
                row.push(format!("{:.1}", series.served[ri][i]));
                row.push(format!("{:.2}", series.utility[ri][i]));
            }
            table.row(row);
        }
        table.print(&format!(
            "Figure 6(c-f): {name} request throughput and utility (PhoenixFair)"
        ));
    }

    // Headline timings.
    let first = |kind| phoenix_trace.first_kind(kind).map(|t| t.as_secs_f64());
    let t1 = first(MilestoneKind::Failure);
    let t2 = first(MilestoneKind::Detected);
    let t4 = first(MilestoneKind::Recovered);
    if let (Some(t1), Some(t2), Some(t4)) = (t1, t2, t4) {
        println!(
            "\nDetection delay: {:.0}s (paper ≈100s); full recovery: {:.0}s after failure (paper <240s)",
            t2 - t1,
            t4 - t1
        );
    }
}
