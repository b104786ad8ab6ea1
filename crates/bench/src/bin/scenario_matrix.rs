//! Scenario-matrix campaign: generate the full scenario-family suite at a
//! fixed seed, fan it over the `phoenix-exec` pool against the policy
//! roster, and print one scorecard row per `(family, policy)` cell.
//!
//! Flags:
//!
//! * `--smoke`     small suite (8 nodes, 5 scenarios/family) that finishes
//!   in seconds — the shape CI runs;
//! * `--full`      wider suite (16 nodes, 8 scenarios/family, 5 policies);
//! * `--seed N`    generator seed (default 42);
//! * `--json FILE` also write the suite + outcome as JSON;
//! * `--threads N` pool workers (byte-identical output for any value).

use std::time::Instant;

use phoenix_bench::{f3, init_threads, or_exit, Flags, Table};
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_scenarios::campaign::{
    demo_workload, demo_workload_modal, run_campaign, CampaignConfig,
};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix_scenarios::model;

const FLAGS: Flags = Flags {
    switches: &["smoke", "full"],
    valued: &["seed", "json", "threads"],
    names: false,
};

fn main() {
    let cli = FLAGS.from_env();
    let full = cli.has("full");
    let seed: u64 = or_exit(cli.get("seed")).unwrap_or(42);
    let json: Option<String> = or_exit(cli.get("json"));
    let threads = init_threads();
    let gen_cfg = GeneratorConfig {
        nodes: if full { 16 } else { 8 },
        node_cpu: 4.0,
        scenarios_per_family: if full { 8 } else { 5 },
        apps: 3,
        seed,
    };
    let suite = generate_suite(&gen_cfg);
    let workload = demo_workload(gen_cfg.apps);
    let policies: Vec<Box<dyn ResiliencePolicy>> = if full {
        phoenix_core::policies::standard_roster()
    } else {
        vec![
            Box::new(PhoenixPolicy::fair()),
            Box::new(PhoenixPolicy::cost()),
            Box::new(DefaultPolicy),
        ]
    };

    println!(
        "scenario matrix: {} scenarios ({} families x {}), {} policies, {} nodes, seed {seed}, {threads} thread(s)",
        suite.scenarios.len(),
        phoenix_scenarios::generate::Family::all().len(),
        gen_cfg.scenarios_per_family,
        policies.len(),
        gen_cfg.nodes,
    );

    let start = Instant::now();
    let outcome = run_campaign(&workload, &suite, &policies, &CampaignConfig)
        .expect("generated suite is valid");
    let wall = start.elapsed();

    let mut table = Table::new([
        "family",
        "policy",
        "scenarios",
        "rto_pass",
        "violations",
        "min_avail",
        "final_avail",
        "min_util",
        "final_util",
        "worst_c1_recovery",
        "replan_p99",
    ]);
    for c in &outcome.scorecards {
        table.row([
            c.family.clone(),
            c.policy.clone(),
            c.scenarios.to_string(),
            c.rto_pass.to_string(),
            c.violations.to_string(),
            f3(c.mean_min_availability),
            f3(c.mean_final_availability),
            f3(c.mean_min_utility),
            f3(c.mean_final_utility),
            c.worst_c1_recovery_ms
                .map_or("-".to_string(), |ms| format!("{:.1}s", ms as f64 / 1000.0)),
            // Wall-clock plane (planner-latency SLO): varies run to run,
            // unlike every other column in this table.
            c.replan_us_p99
                .map_or("-".to_string(), |us| format!("{us}µs")),
        ]);
    }
    table.print("Scenario matrix scorecards");
    println!(
        "\ncampaign wall-clock: {:.2}s ({} simulations)",
        wall.as_secs_f64(),
        outcome.scores.len()
    );

    // Utility-under-crunch: the same suite against the *modal* demo
    // workload (degraded-serving ladders on cache/batch, identical Full
    // demands), PhoenixFair only — the per-family gain over binary
    // place/evict is the paper's cooperative-degradation claim in one
    // table.
    let modal_policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
    let modal_outcome = run_campaign(
        &demo_workload_modal(gen_cfg.apps),
        &suite,
        &modal_policies,
        &CampaignConfig,
    )
    .expect("generated suite is valid");
    let mut modal_table = Table::new(["family", "binary_min_util", "modal_min_util", "gain"]);
    for m in &modal_outcome.scorecards {
        let b = outcome
            .scorecards
            .iter()
            .find(|c| c.family == m.family && c.policy == m.policy)
            .expect("same suite, same policy");
        modal_table.row([
            m.family.clone(),
            f3(b.mean_min_utility),
            f3(m.mean_min_utility),
            format!("{:+.3}", m.mean_min_utility - b.mean_min_utility),
        ]);
    }
    modal_table.print("Serving modes vs binary place/evict (PhoenixFair, mean min utility)");

    if let Some(path) = json {
        let suite_json = model::to_json(&suite).expect("suite serializes");
        let outcome_json =
            phoenix_scenarios::campaign::outcome_to_json(&outcome).expect("outcome serializes");
        let doc = format!("{{\n\"suite\": {suite_json},\n\"outcome\": {outcome_json}\n}}\n");
        std::fs::write(&path, doc).expect("write json output");
        println!("wrote {path}");
    }
}
