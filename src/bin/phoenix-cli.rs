//! `phoenix-cli` — drive the Phoenix stack from the command line.
//!
//! ```text
//! phoenix-cli plan  --workload w.json --nodes 8 --cap 8 --fail 0.5 [--objective cost|fairness]
//! phoenix-cli audit --app overleaf|hr|hr-patched
//! phoenix-cli tag-audit --workload w.json
//! phoenix-cli drill --nodes 200 [--trials 2]
//! phoenix-cli export --app overleaf > workload.json
//! ```
//!
//! `plan` reads a persisted workload (see [`phoenix::core::persist`]),
//! fails a fraction of a synthetic cluster, and prints the Phoenix target
//! state and agent actions. `audit` runs the §5 chaos audit; `tag-audit`
//! runs the §7 static tag audit on a persisted workload. `drill` is a
//! miniature Fig. 7 sweep. `export` emits ready-made workload JSON to
//! play with.

use std::process::ExitCode;

use phoenix::adaptlab::metrics::{critical_service_availability, revenue};
use phoenix::apps::hotel::{hotel, HotelVariant};
use phoenix::apps::overleaf::{overleaf, OverleafVariant};
use phoenix::chaos::{audit_tags, ChaosConfig};
use phoenix::cluster::failure::fail_fraction;
use phoenix::cluster::{ClusterState, Resources};
use phoenix::core::objectives::ObjectiveKind;
use phoenix::core::persist;
use phoenix::core::policies::{PhoenixPolicy, ResiliencePolicy};
use phoenix::core::spec::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "plan" => cmd_plan(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "tag-audit" => cmd_tag_audit(&args[1..]),
        "drill" => cmd_drill(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  phoenix-cli plan   --workload <file.json> [--nodes N] [--cap C] [--fail F] [--objective cost|fairness]
  phoenix-cli audit  --app overleaf|hr|hr-patched
  phoenix-cli tag-audit --workload <file.json>
  phoenix-cli drill  [--nodes N] [--trials T]
  phoenix-cli export --app overleaf|hr";

/// The value after flag `name`: `None` when the flag is absent, an error
/// when it is present but last or followed by another `--flag`.
fn opt(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("missing value for {name}")),
    }
}

/// Largest accepted `--nodes`: 10× the paper's 100k-node scale.
const MAX_NODES: usize = 1_000_000;

/// Parses `name`'s value (or takes `default` when absent), rejecting
/// anything that does not parse or fails `valid`; `expect` states the
/// accepted range in the error.
fn opt_parse<T: std::str::FromStr + Copy>(
    args: &[String],
    name: &str,
    default: T,
    valid: impl Fn(T) -> bool,
    expect: &str,
) -> Result<T, String> {
    let Some(v) = opt(args, name)? else {
        return Ok(default);
    };
    match v.parse() {
        Ok(x) if valid(x) => Ok(x),
        _ => Err(format!("invalid value '{v}' for {name} ({expect})")),
    }
}

fn nodes_arg(args: &[String], default: usize) -> Result<usize, String> {
    opt_parse(
        args,
        "--nodes",
        default,
        |n| (1..=MAX_NODES).contains(&n),
        "expected 1..=1000000",
    )
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let path = opt(args, "--workload")?.ok_or("plan requires --workload <file.json>")?;
    let nodes = nodes_arg(args, 8)?;
    let cap: f64 = opt_parse(
        args,
        "--cap",
        8.0,
        |c: f64| c.is_finite() && c > 0.0,
        "expected a finite number > 0",
    )?;
    let fail: f64 = opt_parse(
        args,
        "--fail",
        0.5,
        |f| (0.0..=1.0).contains(&f),
        "expected a fraction in [0, 1]",
    )?;
    let objective = match opt(args, "--objective")?.as_deref() {
        Some("cost") => ObjectiveKind::Cost,
        Some("fairness") | None => ObjectiveKind::Fairness,
        Some(other) => return Err(format!("unknown objective '{other}'")),
    };
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let workload: Workload = persist::from_json(&json).map_err(|e| e.to_string())?;

    let mut state = ClusterState::homogeneous(nodes, Resources::cpu(cap));
    // Start from a healthy full deployment, then fail.
    let policy = PhoenixPolicy::with_objective(objective);
    policy.plan(&workload, &mut state);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let report = fail_fraction(&mut state, fail, &mut rng);
    println!(
        "failed {} of {nodes} nodes ({} pods evicted); healthy capacity {:.1}",
        report.failed_nodes.len(),
        report.evicted.len(),
        state.healthy_capacity().cpu
    );

    let plan = policy.plan(&workload, &mut state);
    let (deletes, migrations, starts) = plan.actions.counts();
    // An empty `f64` sum is -0.0; adding +0.0 prints it as 0.0.
    let revenue = revenue(&workload, &state) + 0.0;
    println!(
        "planned in {:?}; {} pods in target; availability {:.2}; revenue {revenue:.1}",
        plan.planning_time,
        state.pod_count(),
        critical_service_availability(&workload, &state),
    );
    println!("{deletes} deletes, {migrations} migrations, {starts} starts:");
    for a in &plan.actions.actions {
        println!("  {a:?}");
    }
    Ok(())
}

fn model_named(name: &str) -> Result<phoenix::apps::AppModel, String> {
    match name {
        "overleaf" => Ok(overleaf("overleaf", OverleafVariant::Edits, 1.0)),
        "hr" => Ok(hotel("hr", HotelVariant::Reserve, 1.0)),
        "hr-patched" => Ok(hotel("hr", HotelVariant::Reserve, 1.0).patched()),
        other => Err(format!("unknown app '{other}' (overleaf|hr|hr-patched)")),
    }
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let name = opt(args, "--app")?.ok_or("audit requires --app")?;
    let model = model_named(&name)?;
    let report = audit_tags(&model, &ChaosConfig::default());
    println!(
        "{}: {}",
        report.app,
        if report.passed() { "PASSED" } else { "FAILED" }
    );
    for d in &report.degrees {
        println!(
            "  degree {:>4.0}%: critical {} | harvest {:.2} | {} services off",
            d.degree * 100.0,
            if d.critical_retained {
                "retained"
            } else {
                "LOST"
            },
            d.utility_score,
            d.killed.len(),
        );
    }
    for v in &report.violations {
        println!(
            "  violation: {} ({}) breaks '{}'",
            v.service, v.tag, v.broken_request
        );
    }
    Ok(())
}

fn cmd_tag_audit(args: &[String]) -> Result<(), String> {
    use phoenix::core::audit::{audit_workload, AuditConfig};

    let path = opt(args, "--workload")?.ok_or("tag-audit requires --workload <file.json>")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let workload: Workload = persist::from_json(&json).map_err(|e| e.to_string())?;
    let report = audit_workload(&workload, &AuditConfig::default());
    for app in &report.apps {
        println!(
            "{:<20} C1 share {:>5.1}% | untagged {:>5.1}% | {} level(s) | {}",
            app.name,
            app.c1_demand_share * 100.0,
            app.untagged_share * 100.0,
            app.distinct_levels,
            if app.clean() {
                "clean".to_string()
            } else {
                app.findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        );
    }
    if report.passed() {
        println!("tag audit PASSED");
        Ok(())
    } else {
        Err(format!(
            "tag audit FAILED: {} suspicious app(s)",
            report.suspicious().count()
        ))
    }
}

fn cmd_drill(args: &[String]) -> Result<(), String> {
    use phoenix::adaptlab::alibaba::AlibabaConfig;
    use phoenix::adaptlab::runner::{failure_sweep, SweepConfig};
    use phoenix::adaptlab::scenario::EnvConfig;
    use phoenix::adaptlab::tagging::TaggingScheme;
    use phoenix::core::policies::standard_roster;

    let nodes = nodes_arg(args, 200)?;
    let trials: u32 = opt_parse(args, "--trials", 2, |t| t >= 1, "expected an integer >= 1")?;
    let env = EnvConfig {
        nodes,
        node_capacity: 64.0,
        target_utilization: 0.75,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            apps: 8,
            max_services: (nodes * 2).clamp(40, 600),
            max_requests: 200_000.0,
            ..AlibabaConfig::default()
        },
        seed: 7,
        ..EnvConfig::default()
    };
    let points = failure_sweep(
        &env,
        &SweepConfig {
            failure_fracs: vec![0.3, 0.5, 0.7],
            trials,
            ..SweepConfig::default()
        },
        &standard_roster(),
    );
    println!(
        "{:>8} {:>12} {:>13} {:>8} {:>9}",
        "failed%", "scheme", "availability", "revenue", "fair-dev"
    );
    for p in &points {
        println!(
            "{:>8.0} {:>12} {:>13.3} {:>8.3} {:>9.3}",
            p.failure_frac * 100.0,
            p.policy,
            p.metrics.availability,
            p.metrics.revenue,
            p.metrics.fairness_pos + p.metrics.fairness_neg,
        );
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let name = opt(args, "--app")?.ok_or("export requires --app")?;
    let model = model_named(&name)?;
    let workload = Workload::new(vec![model.spec]);
    println!(
        "{}",
        persist::to_json(&workload).map_err(|e| e.to_string())?
    );
    Ok(())
}
