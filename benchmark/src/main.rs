//! The Phoenix benchmark: one seeded harness for failure-to-plan latency
//! (`storm-10k`, `tick-10k`), simulated C1 recovery (`drill-64`) and
//! evaluation-stack throughput (`evalstack-16`), with per-layer rows.
//!
//! ```text
//! phoenix-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//! phoenix-benchmark [--seed N] [--seconds S] [--smoke] [--out F]    the suite: all four workloads, one result file
//! phoenix-benchmark --compare A.json B.json                         judge B against baseline A
//! ```
//!
//! See `README.md` next to this package for the metric and workload
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod compare;
mod inputs;
mod json;
mod metrics;
mod report;
mod sizes;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use report::Report;
use trace::Tracer;
use workloads::RunArgs;

/// Where traces and suite results go: `out/` inside this package.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str = "usage:
  phoenix-benchmark --workload <storm-10k|tick-10k|drill-64|evalstack-16>
                    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  phoenix-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
  phoenix-benchmark --compare A.json B.json
The `exec` pool runs PHOENIX_THREADS workers; unset, min(host cpus, 4).";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    probe: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            sizes::SMOKE_SECONDS
        } else {
            sizes::RUN_SECONDS
        })
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => cli.seed = Some(num(&value(&mut it, arg)?, arg)?),
            "--seconds" => {
                let s: f64 = num(&value(&mut it, arg)?, arg)?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: must be in (0, 3600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => cli.trace = num::<u8>(&value(&mut it, arg)?, arg)? != 0,
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--smoke" => cli.smoke = true,
            // Not for people: the one-thread child a traced run starts
            // passes it to get one set-up and one cycle, not a full run.
            "--probe" => cli.probe = true,
            "--compare" => cli.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Seconds [`wake_cpus`] spins.
const WAKE_SECONDS: f64 = 2.0;

/// Keeps `threads` cores busy for [`WAKE_SECONDS`] before anything is
/// timed. On the shared VM this was written on, a vCPU that sat idle (the
/// previous run was single-threaded, or nothing ran for 20 s) runs ~50 %
/// slow for its first 1.5-2 s; without this, that lands in `setup_s` and in
/// the first operations of the runs that happen to follow a quiet spell.
fn wake_cpus(threads: usize) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let start = std::time::Instant::now();
                while start.elapsed().as_secs_f64() < WAKE_SECONDS {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// One workload run in this process: table, report line, contract line.
fn run_single(cli: &Cli, workload: &str, threads: usize, host_cpus: usize) -> Result<bool, String> {
    let sizes = if cli.smoke { sizes::SMOKE } else { sizes::FULL };
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed.unwrap_or(11),
        seconds: cli.seconds(),
        trace: cli.trace,
        sizes,
        probe: cli.probe,
    };
    if !cli.smoke {
        wake_cpus(threads);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = workloads::run(&args, &mut tracer)?;
    if args.trace {
        outcome
            .metrics
            .extend(exec_speedups(&args, cli.smoke, threads, &outcome));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{workload}.json");
        std::fs::write(&path, tracer.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        outcome
            .info
            .push(("spans", Value::Num(tracer.spans().len() as f64)));
        outcome.info.push(("trace_file", Value::Str(path)));
    }
    let report = Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        host_cpus,
        smoke: cli.smoke,
        outcome,
    };
    print!("{}", report.table());
    println!("report {}", report.to_json().to_line());
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// `exec.plan_speedup` (storm) and `exec.fanout_speedup` (evalstack): the
/// same workload with `PHOENIX_THREADS = 1` in a child's environment — the
/// pool is process-global — against this run's latency at `threads` over
/// the inputs the child covers ([`workloads::Outcome::probe`]).
fn exec_speedups(
    args: &RunArgs,
    smoke: bool,
    threads: usize,
    outcome: &workloads::Outcome,
) -> Option<(&'static str, f64)> {
    let (name, own_ms) = outcome.probe?;
    if threads <= 1 {
        return Some((name, 1.0));
    }
    let mut child_args: Vec<String> = [
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &(args.seconds / 3.0).max(0.5).to_string(),
        "--trace",
        "0",
        "--probe",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    if smoke {
        child_args.push("--smoke".to_string());
    }
    let single_ms = match suite::child(&child_args, Some("1")) {
        Ok(report) => report
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64),
        Err(e) => {
            eprintln!("PHOENIX_THREADS = 1 child failed: {e}");
            None
        }
    }?;
    // Latency per operation at 1 thread over latency at `threads`.
    (own_ms > 0.0).then(|| (name, single_ms / own_ms))
}

/// Workers for the `exec` pool: `PHOENIX_THREADS` where the caller set it
/// (the one-thread child of a traced run), else `min(host_cpus, 4)`,
/// exported so the pool resolves the same number on first use.
fn resolve_threads(host_cpus: usize) -> Result<usize, String> {
    match std::env::var("PHOENIX_THREADS") {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("PHOENIX_THREADS=`{v}` is not a positive number")),
        Err(_) => {
            let threads = host_cpus.min(4);
            // Nothing has touched the pool yet and no other thread exists.
            std::env::set_var("PHOENIX_THREADS", threads.to_string());
            Ok(threads)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        // 1: a row regressed; 3: none did, but some gate is unresolved.
        return match compare::run(a, b) {
            Ok((0, 0)) => ExitCode::SUCCESS,
            Ok((0, _)) => ExitCode::from(3),
            Ok(_) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = resolve_threads(host_cpus).and_then(|threads| match &cli.workload {
        Some(workload) => {
            let r = run_single(&cli, workload, threads, host_cpus);
            debug_assert!(r.is_err() || adapter::pool_threads() == threads);
            r
        }
        None => suite::run(&suite::SuiteArgs {
            seed: cli.seed.unwrap_or(11),
            seconds: cli.seconds(),
            smoke: cli.smoke,
            threads,
            host_cpus,
            out: cli
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.json")),
        }),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{E2E, EXTRA, LAYERS, WORKLOADS};

    fn smoke_report(workload: &str, trace: bool) -> Report {
        let args = RunArgs {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.2,
            trace,
            sizes: sizes::SMOKE,
            probe: false,
        };
        let mut tracer = Tracer::new(trace);
        let outcome = workloads::run(&args, &mut tracer).expect("smoke workload runs");
        if trace {
            assert!(!tracer.spans().is_empty());
        }
        Report {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.2,
            trace,
            threads: 1,
            host_cpus: 1,
            smoke: true,
            outcome,
        }
    }

    /// Every metric name of ISSUE 13 appears in the result JSON of the
    /// smoke suite, every run is correct, and the contract lines carry
    /// exactly the `BENCHMARK.json` metrics.
    #[test]
    fn smoke_suite_reports_every_metric_by_name() {
        let mut seen = String::new();
        for w in WORKLOADS {
            for trace in [false, true] {
                let report = smoke_report(w.name, trace);
                assert!(
                    report.correct(),
                    "{} trace {trace}: {:?}",
                    w.name,
                    report.outcome.failures
                );
                let line = json::parse(&report.contract_line()).unwrap();
                let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = line.get("metrics").unwrap().fields();
                let expect: Vec<&str> = if trace {
                    LAYERS.iter().map(|d| d.name).collect()
                } else {
                    E2E.iter().map(|d| d.name).collect()
                };
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, expect, "{} trace {trace}", w.name);
                if !trace {
                    for (name, m) in metrics {
                        let v = m.get("value").and_then(Value::as_f64).unwrap();
                        assert!(v > 0.0, "{}: {name} = {v}", w.name);
                    }
                }
                if w.name == "drill-64" && !trace {
                    // Over restored episodes only, so never censored at
                    // the horizon: it ends before the horizon and starts
                    // after the earliest failure (45 s).
                    let extra = |name: &str| {
                        let m = &report.outcome.metrics;
                        m.iter().find(|(n, _)| *n == name).unwrap().1
                    };
                    let restore = extra("c1_restore_sim_s");
                    let longest = (sizes::SMOKE.drill_horizon_s - 45) as f64;
                    assert!(restore > 0.0 && restore < longest, "{restore}");
                    assert!((0.0..=1.0).contains(&extra("c1_unrestored_frac")));
                }
                seen.push_str(&report.to_json().to_line());
                seen.push_str(&report.contract_line());
            }
        }
        for d in E2E.iter().chain(&EXTRA).chain(&LAYERS) {
            assert!(
                seen.contains(&format!("\"{}\"", d.name)),
                "{} missing",
                d.name
            );
        }
    }

    /// Same seed, same digests; another seed, other plans.
    #[test]
    fn digests_follow_the_seed() {
        let digest = |seed: u64| {
            let args = RunArgs {
                workload: "storm-10k".to_string(),
                seed,
                seconds: 0.05,
                trace: false,
                sizes: sizes::SMOKE,
                probe: false,
            };
            let out = workloads::run(&args, &mut Tracer::new(false)).unwrap();
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            out.info
                .iter()
                .find(|(k, _)| *k == "plans_digest")
                .map(|(_, v)| v.to_line())
                .unwrap()
        };
        // The digest covers the first visit of every (failure set, lane),
        // so it does not depend on how many plans the time box held.
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    /// `BENCHMARK.json` at the repo root lists exactly the metric and
    /// workload tables of `metrics.rs`.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(sizes::RUN_SECONDS)
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(a)) => a.clone(),
            _ => panic!("{key} is not an array"),
        };
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (text(v, "name"), text(v, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (v, d) in e2e.iter().zip(E2E) {
            assert_eq!(text(v, "name"), d.name);
            assert_eq!(text(v, "unit"), d.unit);
            assert_eq!(text(v, "better"), d.better.as_str());
            let bound = v.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(metrics::Bound::Rel(bound), d.bound, "{}", d.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (v, d) in layers.iter().zip(LAYERS) {
            assert_eq!(text(v, "name"), d.name);
            assert_eq!(text(v, "unit"), d.unit);
            assert_eq!(text(v, "better"), d.better.as_str());
        }
    }

    #[test]
    fn cli_rejects_what_it_does_not_know() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload storm-10k --seed 3 --seconds 2 --trace 1")).is_ok());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--seed x")).is_err());
        assert!(parse_cli(&args("--seconds -1")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }
}
