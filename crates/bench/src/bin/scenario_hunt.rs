//! Adversarial scenario hunt: search for the failure scenarios each
//! policy handles worst, shrink every violation to a minimal repro, and
//! persist the repros into the always-on regression suite
//! (`crates/scenarios/regressions/`, replayed by
//! `scenarios/tests/regression_suite.rs`).
//!
//! Two passes:
//!
//! 1. **Baseline sweep** — the fixed-seed generator suite (the
//!    `scenario_matrix` shape) against the roster, scored by the hunt's
//!    own round 0, which is that suite; the worst violating scenario per
//!    `(family, policy)` cell is shrunk and persisted as
//!    `{scenario}--{policy}.json`. This is what pins the known
//!    smoke-suite violations (correlated-blast-radius/PhoenixCost,
//!    surge-under-crunch).
//! 2. **Hunt** — the evolutionary search of `phoenix_scenarios::search`;
//!    each policy's champion is shrunk and persisted as
//!    `hunt-{seed}--{policy}.json`.
//!
//! Flags:
//!
//! * `--smoke`        CI-sized hunt (default shape; 8 nodes, 30 candidates);
//! * `--full`         wider hunt (16 nodes, 48 candidates, full roster);
//! * `--seed N`       hunt seed (default 42);
//! * `--policy NAME`  restrict the roster to one policy;
//! * `--json FILE`    also write the hunt outcome + repro set as JSON;
//! * `--no-persist`   report only, leave `regressions/` untouched;
//! * `--out DIR`      persist somewhere other than the checked-in dir;
//! * `--threads N`    pool workers (byte-identical output for any value).

use std::collections::BTreeMap;
use std::path::PathBuf;

use phoenix_bench::{init_threads, or_exit, Flags, Table};
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_scenarios::campaign::{demo_workload, steady_states, CampaignConfig};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix_scenarios::model::ScenarioDoc;
use phoenix_scenarios::regression::{encode, regressions_dir, RegressionDoc};
use phoenix_scenarios::search::{run_hunt, signature_of, HuntConfig};
use phoenix_scenarios::shrink::shrink;

const FLAGS: Flags = Flags {
    switches: &["smoke", "full", "no-persist"],
    valued: &["seed", "policy", "json", "out", "threads"],
    names: false,
};

fn main() {
    let cli = FLAGS.from_env();
    let full = cli.has("full");
    let seed: u64 = or_exit(cli.get("seed")).unwrap_or(42);
    let json: Option<String> = or_exit(cli.get("json"));
    let threads = init_threads();
    let hunt = if full {
        HuntConfig::full(seed)
    } else {
        HuntConfig::smoke(seed)
    };
    let policy_filter: Option<String> = or_exit(cli.get("policy"));
    let mut policies: Vec<Box<dyn ResiliencePolicy>> = if full {
        phoenix_core::policies::standard_roster()
    } else {
        vec![
            Box::new(PhoenixPolicy::fair()),
            Box::new(PhoenixPolicy::cost()),
            Box::new(DefaultPolicy),
        ]
    };
    if let Some(name) = policy_filter {
        policies.retain(|p| p.name() == name);
        if policies.is_empty() {
            or_exit(Err(format!("no roster policy named {name}")))
        }
    }
    let persist = !cli.has("no-persist");
    let out_dir = or_exit(cli.get::<PathBuf>("out")).unwrap_or_else(regressions_dir);

    let workload = demo_workload(hunt.apps);
    eprintln!(
        "scenario hunt: seed {seed}, {} candidates x {} rounds, {} policies, {threads} thread(s)",
        hunt.population,
        hunt.rounds,
        policies.len(),
    );

    // The fixed-seed generator suite for pass 1 — the hunt's round 0,
    // generated here for its documents and its cluster shape.
    let suite = generate_suite(&GeneratorConfig {
        nodes: hunt.nodes,
        node_cpu: hunt.node_cpu,
        scenarios_per_family: if full { 8 } else { 5 },
        apps: hunt.apps,
        seed,
    });

    // Every scenario this bin shrinks — baseline violations, hunt
    // champions and their shrink candidates — shares the hunt's cluster
    // shape, so each policy's t = 0 capture is replayed through every
    // oracle evaluation. Shrunk docs that drop trailing nodes fall back
    // to a cold plan via the simulator's shape check.
    let steady = steady_states(&workload, &policies, suite.scenarios.first());

    let mut repros: Vec<RegressionDoc> = Vec::new();
    let mut shrink_table = Table::new([
        "repro",
        "policy",
        "severity",
        "events",
        "horizon",
        "oracle_evals",
    ]);
    let mut capture = |doc: &ScenarioDoc, pi: usize, origin: String| {
        let (policy, steady) = (policies[pi].as_ref(), steady[pi].as_ref());
        let mut oracle = |d: &ScenarioDoc| {
            signature_of(&workload, d, policy, steady)
                .map(|s| s.severity_ms > 0)
                .unwrap_or(false)
        };
        let (small, report) = shrink(doc, &mut oracle);
        let signature =
            signature_of(&workload, &small, policy, steady).expect("shrunk doc validates");
        assert!(signature.severity_ms > 0, "shrinker lost the violation");
        shrink_table.row([
            small.name.clone(),
            policy.name().to_string(),
            format!("{}ms", signature.severity_ms),
            format!("{}->{}", doc.events.len(), small.events.len()),
            format!("{}->{}s", doc.horizon_ms / 1000, small.horizon_ms / 1000),
            report.evals.to_string(),
        ]);
        repros.push(RegressionDoc {
            version: RegressionDoc::VERSION,
            name: format!("{}--{}", small.name, policy.name()),
            policy: policy.name().to_string(),
            apps: hunt.apps,
            origin,
            signature,
            scenario: small,
        });
    };

    // Pass 1: baseline sweep — worst violating scenario per
    // (family, policy) cell of the fixed-seed generator suite, scored by
    // the hunt's round 0 (same docs, job order scenario-major).
    let outcome = run_hunt(&workload, &policies, &hunt, &CampaignConfig);
    assert_eq!(
        outcome.baseline.len(),
        suite.scenarios.len() * policies.len()
    );
    let mut worst: BTreeMap<(String, String), (u64, usize, usize)> = BTreeMap::new();
    for (job, sig) in outcome.baseline.iter().enumerate() {
        let (si, pi) = (job / policies.len(), job % policies.len());
        if sig.severity_ms == 0 {
            continue;
        }
        let (s, p) = (&suite.scenarios[si], &policies[pi]);
        let key = (s.family.clone(), p.name().to_string());
        let entry = worst.entry(key).or_insert((0, si, pi));
        if sig.severity_ms > entry.0 {
            *entry = (sig.severity_ms, si, pi);
        }
    }
    for ((family, policy_name), &(severity, si, pi)) in &worst {
        eprintln!(
            "baseline violation: {family} x {policy_name} ({:.1}s) — shrinking",
            severity as f64 / 1000.0
        );
        capture(
            &suite.scenarios[si],
            pi,
            format!("baseline sweep seed {seed}"),
        );
    }

    // Pass 2: the hunt's champions.
    let mut hunt_table = Table::new([
        "policy",
        "round",
        "candidate",
        "severity",
        "outages",
        "violations",
    ]);
    for c in &outcome.champions {
        hunt_table.row([
            c.policy.clone(),
            c.round.to_string(),
            c.candidate.to_string(),
            format!("{:.1}s", c.signature.severity_ms as f64 / 1000.0),
            c.signature.outages.to_string(),
            c.signature.violations.to_string(),
        ]);
        let mut champion = c.doc.clone();
        champion.name = format!("hunt-{seed}");
        let pi = policies
            .iter()
            .position(|p| p.name() == c.policy)
            .expect("champion policy came from the roster");
        capture(
            &champion,
            pi,
            format!(
                "hunt seed {seed} round {} candidate {}",
                c.round, c.candidate
            ),
        );
    }
    hunt_table.print(&format!(
        "Hunt champions (seed {seed}, {} evaluations)",
        outcome.evaluations
    ));
    shrink_table.print("Minimal repros");

    assert!(
        !repros.is_empty(),
        "hunt found no violation — the seed-{seed} baselines moved"
    );

    if persist {
        std::fs::create_dir_all(&out_dir).expect("create regressions dir");
        for r in &repros {
            let path = out_dir.join(format!("{}.json", r.name));
            std::fs::write(&path, encode(r).expect("repro serializes")).expect("write repro");
            println!("persisted {}", path.display());
        }
    } else {
        println!("(--no-persist: {} repro(s) not written)", repros.len());
    }

    if let Some(path) = json {
        let outcome_json = serde_json::to_string_pretty(&outcome).expect("outcome serializes");
        let repro_json: Vec<String> = repros
            .iter()
            .map(|r| encode(r).expect("repro serializes"))
            .collect();
        let doc = format!(
            "{{\n\"outcome\": {outcome_json},\n\"repros\": [{}]\n}}\n",
            repro_json.join(",\n")
        );
        std::fs::write(&path, doc).expect("write json output");
        println!("wrote {path}");
    }
}
