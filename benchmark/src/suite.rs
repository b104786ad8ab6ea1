//! Suite mode: every workload in its own child process (a clean
//! `peak_rss_mb` each), repeated untraced for the end-to-end metrics and
//! once traced for the per-layer rows, folded into one result file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::metrics::{self, Bound, WorkloadDef, WORKLOADS};
use crate::stats::{median, spread};

/// Untraced runs per workload: the median is recorded, the spread says
/// whether a bound can resolve a change.
const REPEATS: usize = 3;

/// Runs this executable again with `args`, waits for it, and returns its
/// full report. `threads` overrides `PHOENIX_THREADS` in the child's
/// environment. The child's standard error passes through.
///
/// # Errors
///
/// The child could not be started, or printed no report.
pub fn child(args: &[String], threads: Option<&str>) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    if let Some(threads) = threads {
        cmd.env("PHOENIX_THREADS", threads);
    }
    let out = cmd
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("report "))
        .ok_or_else(|| format!("child {args:?} printed no report ({})", out.status))?;
    json::parse(report)
}

/// Suite parameters.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed passed to every workload.
    pub seed: u64,
    /// Measured seconds of every run.
    pub seconds: f64,
    /// Smoke sizes, and one untraced run each: it checks code paths, not
    /// timings.
    pub smoke: bool,
    /// `PHOENIX_THREADS` of this process and so of the children, recorded.
    pub threads: usize,
    /// Host parallelism, recorded.
    pub host_cpus: usize,
    /// Result file.
    pub out: PathBuf,
}

fn metric_value(report: &Value, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(report: &Value) -> bool {
    report.get("correct") == Some(&Value::Bool(true))
}

/// Folds one workload's runs into its result-file entry, printing the
/// table as it goes. The flag is false when a run was incorrect or an
/// exact metric or digest differs between the runs.
fn summarise(w: &WorkloadDef, seconds: f64, runs: &[Value], traced: &Value) -> (Value, bool) {
    let mut ok = runs.iter().all(is_correct) && is_correct(traced);
    println!("\n== {} ({} s x {}) ==", w.name, seconds, runs.len());

    let mut e2e = Value::obj();
    for (name, _) in runs[0].get("metrics").map_or(&[][..], Value::fields) {
        let Some(def) = metrics::def(name) else {
            continue;
        };
        let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
        let (value, sp) = (median(&values), spread(&values));
        let mut m = Value::obj();
        m.set("value", Value::Num(value))
            .set("unit", Value::Str(def.unit.to_string()))
            .set("better", Value::Str(def.better.as_str().to_string()));
        let verdict = match def.bound {
            Bound::Rel(b) => {
                m.set("bound", Value::Num(b)).set("spread", Value::Num(sp));
                format!("spread {:5.1}% of bound {:4.1}%", sp * 100.0, b * 100.0)
            }
            Bound::Exact => {
                m.set("bound", Value::Str("exact".into()));
                if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
                    "exact, repeated".to_string()
                } else {
                    ok = false;
                    "exact, BUT DIFFERS BETWEEN REPEATS".to_string()
                }
            }
            Bound::Info => String::new(),
        };
        m.set(
            "values",
            Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
        );
        println!("  {name:<40} {value:>16.6} {:<6} {verdict}", def.unit);
        e2e.set(name, m);
    }

    let mut layers = Value::obj();
    for (name, m) in traced.get("metrics").map_or(&[][..], Value::fields) {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        if v != 0.0 {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
        layers.set(name, m.clone());
    }
    // Same loop, traced vs. untraced: what the spans cost.
    let untraced_p50 = e2e
        .get("op_ms_p50")
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    let overhead = match (
        metric_value(traced, "harness.traced_op_ms_p50"),
        untraced_p50,
    ) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    println!(
        "  {:<40} {:>16.6} ratio  (traced op_ms_p50 / untraced - 1)",
        "tracing_overhead_frac", overhead
    );

    let mut digests = Value::obj();
    let mut info = Value::obj();
    for (k, v) in runs[0].get("info").map_or(&[][..], Value::fields) {
        if !k.ends_with("_digest") {
            info.set(k, v.clone());
            continue;
        }
        if !runs
            .iter()
            .all(|r| r.get("info").and_then(|i| i.get(k)) == Some(v))
        {
            ok = false;
            println!("  {k:<40} DIFFERS BETWEEN REPEATS");
        }
        digests.set(k, v.clone());
    }
    for r in runs.iter().chain([traced]) {
        if let Some(Value::Arr(failures)) = r.get("failures") {
            for f in failures {
                println!("  FAILED: {}", f.to_line());
            }
        }
    }

    let mut entry = Value::obj();
    entry
        .set("why", Value::Str(w.why.to_string()))
        .set("seconds", Value::Num(seconds))
        .set("runs", Value::Num(runs.len() as f64))
        .set("end_to_end", e2e)
        .set("digests", digests)
        .set("info", info)
        .set("tracing_overhead_frac", Value::Num(overhead))
        .set("per_layer", layers);
    (entry, ok)
}

fn write(args: &SuiteArgs, workloads: Value, correct: bool, path: &Path) -> Result<(), String> {
    let mut doc = Value::obj();
    doc.set("schema", Value::Num(1.0))
        .set("seed", Value::Num(args.seed as f64))
        .set("threads", Value::Num(args.threads as f64))
        .set("host_cpus", Value::Num(args.host_cpus as f64))
        .set("smoke", Value::Bool(args.smoke))
        .set("correct", Value::Bool(correct))
        .set("workloads", workloads);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs the suite, prints the tables, writes the result file.
///
/// Returns `Ok(true)` when every run was correct and every exact metric
/// repeated bit for bit.
///
/// # Errors
///
/// A child that could not run, or an unwritable result file.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let repeats = if args.smoke { 1 } else { REPEATS };
    println!(
        "phoenix benchmark suite: seed {}, {repeats} untraced + 1 traced run of {} s per workload, threads {} of {} cpus{}",
        args.seed,
        args.seconds,
        args.threads,
        args.host_cpus,
        if args.smoke { ", smoke sizes" } else { "" }
    );
    let mut all_ok = true;
    let mut workloads = Value::obj();
    for w in &WORKLOADS {
        let child_args = |trace: bool| {
            let mut v: Vec<String> = [
                "--workload",
                w.name,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
            if args.smoke {
                v.push("--smoke".to_string());
            }
            v
        };
        let runs: Vec<Value> = (0..repeats)
            .map(|_| child(&child_args(false), None))
            .collect::<Result<_, _>>()?;
        let traced = child(&child_args(true), None)?;
        let (entry, ok) = summarise(w, args.seconds, &runs, &traced);
        all_ok &= ok;
        workloads.set(w.name, entry);
    }
    println!();
    write(args, workloads, all_ok, &args.out)?;
    Ok(all_ok)
}
