//! Data-center disaster drill: build an AdaptLab environment from
//! Alibaba-calibrated traces, kill half the cluster, and compare every
//! resilience scheme's availability, revenue, and fairness — a miniature
//! Fig. 7 you can run in seconds.
//!
//! ```sh
//! cargo run --release --example datacenter_drill
//! ```

use phoenix::adaptlab::alibaba::AlibabaConfig;
use phoenix::adaptlab::runner::{failure_sweep, SweepConfig};
use phoenix::adaptlab::scenario::EnvConfig;
use phoenix::adaptlab::tagging::TaggingScheme;
use phoenix::core::policies::standard_roster;

fn main() {
    let env = EnvConfig {
        nodes: 300,
        node_capacity: 64.0,
        target_utilization: 0.75,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            apps: 10,
            max_services: 600,
            max_requests: 400_000.0,
        },
        seed: 2025,
        ..EnvConfig::default()
    };
    let sweep = SweepConfig {
        failure_fracs: vec![0.3, 0.5, 0.7],
        trials: 2,
    };
    let roster = standard_roster();
    println!(
        "running {} schemes × {} failure levels × {} trials…",
        roster.len(),
        sweep.failure_fracs.len(),
        sweep.trials
    );
    let points = failure_sweep(&env, &sweep, &roster);

    println!(
        "\n{:>8}  {:>12}  {:>12}  {:>8}  {:>9}  {:>9}",
        "failed%", "scheme", "availability", "revenue", "fair-dev", "plan-time"
    );
    for p in &points {
        println!(
            "{:>8.0}  {:>12}  {:>12.3}  {:>8.3}  {:>9.3}  {:>8.1}ms",
            p.failure_frac * 100.0,
            p.policy,
            p.metrics.availability,
            p.metrics.revenue,
            p.metrics.fairness_pos + p.metrics.fairness_neg,
            p.metrics.plan_secs * 1000.0,
        );
    }
    println!("\nExpected shape: Phoenix* lead availability; PhoenixCost leads revenue;");
    println!("PhoenixFair has the smallest fairness deviation; Default trails everywhere.");
}
