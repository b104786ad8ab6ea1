//! Monitor-cadence ablation (§5: "The Phoenix Agent monitors the cluster
//! state at 15-second granularity. This is a tunable parameter. We chose
//! 15 seconds to maintain a low response time while ensuring the
//! Kubernetes cluster is not overwhelmed.")
//!
//! Sweeps the agent's monitor interval (and the kubelet heartbeat grace
//! it compounds with) on the Fig.-6 scenario and reports detection time,
//! time to full recovery, and how many monitor ticks the control plane
//! paid for — the responsiveness-vs-load trade the paper tuned by hand.
//!
//! ```sh
//! cargo run -p phoenix-bench --bin ablation_monitor_period --release
//! ```

use phoenix_apps::instances::{cloudlab_workload, NODES, NODE_CPUS};
use phoenix_bench::{arg, init_threads, Table};
use phoenix_cluster::Resources;
use phoenix_core::policies::PhoenixPolicy;
use phoenix_kubesim::run::{simulate, MilestoneKind, SimConfig};
use phoenix_kubesim::scenario::Scenario;
use phoenix_kubesim::time::SimTime;

fn scenario(seed: u64) -> Scenario {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut s = Scenario::new(NODES, Resources::cpu(NODE_CPUS));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut victims: Vec<u32> = (0..NODES as u32).collect();
    victims.shuffle(&mut rng);
    victims.truncate(14);
    s.kubelet_stop_at(SimTime::from_secs(600), victims.clone());
    s.kubelet_start_at(SimTime::from_secs(1500), victims);
    s
}

fn main() {
    init_threads();
    let (workload, _) = cloudlab_workload();
    let horizon = SimTime::from_secs(2100);
    let seed = arg("seed", 6u64);

    let mut t = Table::new([
        "monitor",
        "grace",
        "detected after",
        "recovered after",
        "ticks/hour",
    ]);
    for (monitor_secs, grace_secs) in [
        (5u64, 30u64),
        (15, 90), // the paper's setting
        (30, 90),
        (60, 180),
        (120, 360),
    ] {
        let cfg = SimConfig {
            monitor_interval: SimTime::from_secs(monitor_secs),
            heartbeat_grace: SimTime::from_secs(grace_secs),
            ..SimConfig::default()
        };
        let trace = simulate(
            &workload,
            &PhoenixPolicy::fair(),
            &scenario(seed),
            &cfg,
            horizon,
        );
        let failure = trace
            .first_kind(MilestoneKind::Failure)
            .expect("failure occurs");
        let row_time = |kind| {
            trace
                .first_kind(kind)
                .map(|at| format!("{:.0}s", at.saturating_sub(failure).as_secs_f64()))
                .unwrap_or_else(|| "-".into())
        };
        t.row([
            format!("{monitor_secs}s"),
            format!("{grace_secs}s"),
            row_time(MilestoneKind::Detected),
            row_time(MilestoneKind::Recovered),
            format!("{}", 3600 / monitor_secs),
        ]);
    }
    t.print("Monitor cadence vs. response time (Fig.-6 scenario, PhoenixFair)");
    println!(
        "\nDetection ≈ grace + up-to-one monitor tick; recovery adds pod restart\n\
         latencies. Shorter ticks buy seconds of response time at linearly more\n\
         control-plane load — the trade §5 fixed at 15 s / 90 s."
    );
}
