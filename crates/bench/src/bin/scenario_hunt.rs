//! Adversarial scenario hunt: search for the failure scenarios each
//! policy handles worst, shrink every violation to a minimal repro, and
//! persist the repros into the always-on regression suite
//! (`crates/scenarios/regressions/`, replayed by
//! `scenarios/tests/regression_suite.rs`).
//!
//! Two passes:
//!
//! 1. **Baseline sweep** — the fixed-seed generator suite (the
//!    `scenario_matrix` shape) against the roster; the worst violating
//!    scenario per `(family, policy)` cell is shrunk and persisted as
//!    `{scenario}--{policy}.json`. This is what pins the known
//!    smoke-suite violations (correlated-blast-radius/PhoenixCost,
//!    surge-under-crunch).
//! 2. **Hunt** — the evolutionary search of `phoenix_scenarios::search`,
//!    with the chaos crate's `scenario_audit` wired in as the secondary
//!    objective on severity ties; each policy's champion is shrunk and
//!    persisted as `hunt-{seed}--{policy}.json`.
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
//! * `--utility-tiebreak`  break severity ties by the served-utility
//!   deficit on the modal demo workload instead of the chaos audit
//!   (default off, so seed-pinned regressions are unaffected);
//! * `--threads N`    pool workers (byte-identical output for any value).

use std::collections::BTreeMap;
use std::path::PathBuf;

use phoenix_apps::overleaf::{overleaf, OverleafVariant};
use phoenix_bench::{init_threads, or_exit, Flags, Table};
use phoenix_chaos::scenario_chaos::scenario_audit;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_kubesim::run::{SimConfig, SteadyState};
use phoenix_scenarios::campaign::{demo_workload, demo_workload_modal, CampaignConfig};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix_scenarios::model::{ScenarioDoc, SuiteDoc};
use phoenix_scenarios::regression::{encode, regressions_dir, RegressionDoc};
use phoenix_scenarios::search::{
    run_hunt_with, signature_of, utility_deficit_objective, HuntConfig,
};
use phoenix_scenarios::shrink::shrink;

const FLAGS: Flags = Flags {
    switches: &["smoke", "full", "no-persist", "utility-tiebreak"],
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
    let cfg = CampaignConfig::default();
    eprintln!(
        "scenario hunt: seed {seed}, {} candidates x {} rounds, {} policies, {threads} thread(s)",
        hunt.population,
        hunt.rounds,
        policies.len(),
    );

    // Secondary objective on severity ties. Default: how badly the
    // scenario also hurts a *real* app graph under the chaos crate's
    // settle-for-good audit (unrecovered criticals dominate, then the
    // worst restore time). With --utility-tiebreak: the served-utility
    // deficit on the modal demo workload — scenarios that defeat
    // degraded serving, not just whole-pod availability.
    let utility_tiebreak = cli.has("utility-tiebreak");
    let modal_workload = demo_workload_modal(hunt.apps);
    let modal_policy = PhoenixPolicy::fair();
    let audit_model = overleaf("overleaf", OverleafVariant::Edits, 1.0);
    let audit_policy = PhoenixPolicy::fair();
    let audit_sim = SimConfig::default();
    let secondary = |doc: &ScenarioDoc| -> u64 {
        let mut d = doc.clone();
        // The audit runs a single-app workload; retarget surges onto it.
        for e in &mut d.events {
            if e.kind == "demand_surge" {
                e.app = 0;
            }
        }
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 0,
            scenarios: vec![d],
        };
        match scenario_audit(&audit_model, &audit_policy, &suite, &audit_sim) {
            Ok(cards) => cards
                .iter()
                .map(|c| {
                    u64::from(c.scenarios - c.critical_recovered) * 1_000_000
                        + c.worst_restore.map_or(0, |t| t.as_millis())
                })
                .sum(),
            Err(_) => 0,
        }
    };
    let utility_secondary = utility_deficit_objective(&modal_workload, &modal_policy, &cfg);
    let secondary_ref: &(dyn Fn(&ScenarioDoc) -> u64 + Sync) = if utility_tiebreak {
        &utility_secondary
    } else {
        &secondary
    };

    // The fixed-seed generator suite for pass 1 — generated up front so
    // the steady-state captures below can borrow its cluster shape.
    let suite = generate_suite(&GeneratorConfig {
        nodes: hunt.nodes,
        node_cpu: hunt.node_cpu,
        scenarios_per_family: if full { 8 } else { 5 },
        apps: hunt.apps,
        seed,
    });

    // Every scenario this bin evaluates — the baseline suite, shrink
    // candidates, hunt champions — shares the hunt's cluster shape, so
    // capture each policy's t = 0 steady state once and replay it through
    // every oracle evaluation. Shrunk docs that drop trailing nodes fall
    // back to a cold plan via the simulator's shape check.
    let steady: Vec<SteadyState> = {
        let caps = suite
            .scenarios
            .first()
            .and_then(|s| s.compile().ok())
            .map(|sc| sc.node_capacities)
            .unwrap_or_default();
        policies
            .iter()
            .map(|p| SteadyState::compute(&workload, p.as_ref(), &caps))
            .collect()
    };
    let steady_of = |policy: &dyn ResiliencePolicy| {
        policies
            .iter()
            .position(|p| p.name() == policy.name())
            .map(|i| &steady[i])
    };

    let mut repros: Vec<RegressionDoc> = Vec::new();
    let mut shrink_table = Table::new([
        "repro",
        "policy",
        "severity",
        "events",
        "horizon",
        "oracle_evals",
    ]);
    let mut capture = |doc: &ScenarioDoc, policy: &dyn ResiliencePolicy, origin: String| {
        let steady = steady_of(policy);
        let mut oracle = |d: &ScenarioDoc| {
            signature_of(&workload, d, policy, &cfg, steady)
                .map(|s| s.severity_ms > 0)
                .unwrap_or(false)
        };
        let (small, report) = shrink(doc, &mut oracle);
        let signature =
            signature_of(&workload, &small, policy, &cfg, steady).expect("shrunk doc validates");
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
    // (family, policy) cell of the fixed-seed generator suite.
    let mut worst: BTreeMap<(String, String), (u64, usize)> = BTreeMap::new();
    for (si, s) in suite.scenarios.iter().enumerate() {
        for (pi, p) in policies.iter().enumerate() {
            let sig = signature_of(&workload, s, p.as_ref(), &cfg, Some(&steady[pi]))
                .expect("suite validates");
            if sig.severity_ms == 0 {
                continue;
            }
            let key = (s.family.clone(), p.name().to_string());
            let entry = worst.entry(key).or_insert((0, si));
            if sig.severity_ms > entry.0 {
                *entry = (sig.severity_ms, si);
            }
        }
    }
    for ((family, policy_name), (severity, si)) in &worst {
        let policy = policies
            .iter()
            .find(|p| p.name() == policy_name)
            .expect("policy came from the roster");
        eprintln!(
            "baseline violation: {family} x {policy_name} ({:.1}s) — shrinking",
            *severity as f64 / 1000.0
        );
        capture(
            &suite.scenarios[*si],
            policy.as_ref(),
            format!("baseline sweep seed {seed}"),
        );
    }

    // Pass 2: the hunt itself.
    let outcome = run_hunt_with(&workload, &policies, &hunt, &cfg, Some(secondary_ref));
    let mut hunt_table = Table::new([
        "policy",
        "round",
        "candidate",
        "severity",
        "outages",
        "violations",
        "secondary",
    ]);
    for c in &outcome.champions {
        hunt_table.row([
            c.policy.clone(),
            c.round.to_string(),
            c.candidate.to_string(),
            format!("{:.1}s", c.signature.severity_ms as f64 / 1000.0),
            c.signature.outages.to_string(),
            c.signature.violations.to_string(),
            c.secondary.map_or("-".to_string(), |s| s.to_string()),
        ]);
        let mut champion = c.doc.clone();
        champion.name = format!("hunt-{seed}");
        let policy = policies
            .iter()
            .find(|p| p.name() == c.policy)
            .expect("champion policy came from the roster");
        capture(
            &champion,
            policy.as_ref(),
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
