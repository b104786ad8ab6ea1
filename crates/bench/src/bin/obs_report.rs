//! `obs_report`: exercise the instrumented pipeline end to end with an
//! enabled recorder and export both observability planes.
//!
//! The driver runs a fixed, seeded workload mix — a warm-replan loop over
//! the standard replan scenario plus a smoke-scale campaign — so every
//! deterministic-plane counter and every wall-clock phase fires at least
//! once. It then writes:
//!
//! * `obs_report.json` — the two-plane snapshot
//!   ([`Recorder::snapshot_json`]): deterministic counters (byte-identical
//!   for any `--threads`) and per-phase nearest-rank p50/p95/p99
//!   histograms tagged with `threads`/`host_cpus`;
//! * `obs_trace.json` — the wall-clock spans as a Chrome trace-event
//!   array ([`Recorder::chrome_trace_json`]), loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! Flags: `--nodes N` (replan-scenario cluster size, default 200),
//! `--rounds N` (warm replans, default 20), `--json FILE` /
//! `--trace FILE` (output paths), `--threads N` (pool workers — moves
//! only the wall-clock plane).
//!
//! [`Recorder::snapshot_json`]: phoenix_obs::Recorder::snapshot_json
//! [`Recorder::chrome_trace_json`]: phoenix_obs::Recorder::chrome_trace_json

use phoenix_bench::replan_scenario::{converge_and_degrade, replan_env};
use phoenix_bench::{init_threads, or_exit, Flags, Table};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::replan::ReplanDelta;
use phoenix_obs::{with_recorder, Phase, Recorder};
use phoenix_scenarios::campaign::{demo_workload_modal, run_campaign, CampaignConfig};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};

const FLAGS: Flags = Flags {
    switches: &[],
    valued: &["nodes", "rounds", "json", "trace", "threads"],
    names: false,
};

fn main() {
    let cli = FLAGS.from_env();
    let nodes: usize = or_exit(cli.get("nodes")).unwrap_or(200);
    let rounds: usize = or_exit(cli.get("rounds")).unwrap_or(20);
    let json_path: String = or_exit(cli.get("json")).unwrap_or("obs_report.json".into());
    let trace_path: String = or_exit(cli.get("trace")).unwrap_or("obs_trace.json".into());
    let threads = init_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let recorder = Recorder::enabled();
    with_recorder(recorder.clone(), || {
        // Warm-replan loop: cold plan, then alternate between two degraded
        // states so every round is a genuine capacity-only delta (cache hits,
        // rank replays, waterfill, packing).
        let env = replan_env(nodes);
        let (mut controller, failed_a, failed_b) =
            converge_and_degrade(&env, ObjectiveKind::Fairness);
        for round in 0..rounds {
            let state = if round % 2 == 0 { &failed_b } else { &failed_a };
            let plan = controller.replan(state, ReplanDelta::CapacityOnly);
            std::hint::black_box(plan.target.pod_count());
        }

        // Smoke-scale campaign on the modal workload: simulator counters
        // (events, milestones, mode shifts), snapshot/restore counts, and
        // the per-cell replan-latency histogram.
        let suite = generate_suite(&GeneratorConfig {
            nodes: 8,
            node_cpu: 4.0,
            scenarios_per_family: 2,
            apps: 2,
            seed: 42,
        });
        let policies: Vec<Box<dyn ResiliencePolicy>> =
            vec![Box::new(PhoenixPolicy::fair()), Box::new(DefaultPolicy)];
        let outcome = run_campaign(&demo_workload_modal(2), &suite, &policies, &CampaignConfig)
            .expect("generated suite is valid");
        std::hint::black_box(outcome.scores.len());
    });

    // Deterministic plane: identical for every --threads value (the
    // probe's golden `obs` section pins it at 1 and 4).
    let mut counters = Table::new(["counter", "value"]);
    for (name, value) in recorder.counters() {
        counters.row([name.to_string(), value.to_string()]);
    }
    counters.print("Deterministic plane (thread-invariant counters)");

    // Wall-clock plane: scheduling truth, tagged with host honesty.
    let mut phases = Table::new(["phase", "count", "p50_us", "p95_us", "p99_us", "max_us"]);
    for &p in &Phase::ALL {
        if let Some(s) = recorder.phase_summary(p) {
            phases.row([
                p.name().to_string(),
                s.count.to_string(),
                s.p50_us.to_string(),
                s.p95_us.to_string(),
                s.p99_us.to_string(),
                s.max_us.to_string(),
            ]);
        }
    }
    phases.print(&format!(
        "Wall-clock plane ({threads} thread(s), {host_cpus} host cpu(s))"
    ));

    std::fs::write(&json_path, recorder.snapshot_json(threads, host_cpus))
        .expect("write snapshot json");
    std::fs::write(&trace_path, recorder.chrome_trace_json()).expect("write chrome trace");
    println!(
        "\nwrote {json_path} and {trace_path} (load the trace in Perfetto / chrome://tracing)"
    );
}
