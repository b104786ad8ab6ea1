//! Shared plumbing for the bench binaries.
//!
//! [`figures`] regenerates the paper's figures and tables, one entry
//! per figure, behind the `figures` binary; [`probe`] is the determinism
//! probe whose sections the `probe_golden` test pins byte for byte. This
//! library also provides the text-table renderer, the strict flag parser
//! ([`Flags`]) every binary declares its command line with, and the
//! replan scenario shared by Fig. 8b, `obs_report` and a guard bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

pub mod figures;
pub mod probe;

/// A fixed-width text table matching the rows/series the paper plots.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    pub fn new(header: impl IntoIterator<Item = impl Display>) -> Table {
        Table {
            header: header.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Display>) -> &mut Table {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut width = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(&self.rows);
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.chars().count());
            }
        }
        let fmt_row = |row: &[String]| {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The rendered table under a title banner.
    pub fn titled(&self, title: &str) -> String {
        format!("\n=== {title} ===\n{}", self.render())
    }

    /// Prints [`Table::titled`].
    pub fn print(&self, title: &str) {
        print!("{}", self.titled(title));
    }
}

/// The monitor-tick replanning scenario shared by the fig8b warm/cold
/// rows, `obs_report`, and the `obs_overhead` guard bench, so the three
/// never drift apart in what they measure.
pub mod replan_scenario {
    use phoenix_adaptlab::alibaba::AlibabaConfig;
    use phoenix_adaptlab::scenario::{build_env, AdaptLabEnv, EnvConfig};
    use phoenix_cluster::{ClusterState, NodeId};
    use phoenix_core::controller::{plan, PhoenixConfig, PhoenixController};
    use phoenix_core::objectives::ObjectiveKind;
    use phoenix_core::replan::ReplanDelta;
    use phoenix_core::stateful::StatefulMarks;

    /// The AdaptLab shape the replan benches and Figs. 8b and 10–16 share:
    /// the default 64-CPU nodes at 75 % load with Service-Level-P90 tags,
    /// and a trace of at most three services per node, so that small
    /// clusters still fill.
    pub fn env_config(nodes: usize, seed: u64) -> EnvConfig {
        EnvConfig {
            nodes,
            alibaba: AlibabaConfig {
                max_services: (nodes * 3).min(3000),
                ..AlibabaConfig::default()
            },
            seed,
            ..EnvConfig::default()
        }
    }

    /// The standard environment the replan benches run against.
    pub fn replan_env(nodes: usize) -> AdaptLabEnv {
        build_env(&env_config(nodes, 11))
    }

    /// Converges the cluster on the controller's own plan, then derives
    /// the two degraded states benches alternate between (one vs. two
    /// failed nodes — every round is a genuine capacity-only delta).
    ///
    /// Also asserts warm/cold action-plan equality on the first degraded
    /// state, so every consumer of this scenario is an equivalence test.
    ///
    /// # Panics
    ///
    /// Panics when the warm replan diverges from the cold plan.
    pub fn converge_and_degrade(
        env: &AdaptLabEnv,
        kind: ObjectiveKind,
    ) -> (PhoenixController, ClusterState, ClusterState) {
        let mut controller =
            PhoenixController::new(env.workload.clone(), PhoenixConfig::with_objective(kind));
        let live = controller.replan(&env.baseline, ReplanDelta::Full).target;
        let mut failed_a = live.clone();
        failed_a.fail_node(NodeId::new(0));
        let mut failed_b = live;
        failed_b.fail_node(NodeId::new(0));
        failed_b.fail_node(NodeId::new(1));

        let warm = controller.replan(&failed_a, ReplanDelta::CapacityOnly);
        // The free cold plan shares nothing with the controller's cache.
        let config = PhoenixConfig::with_objective(kind);
        let cold = plan(
            &env.workload,
            failed_a.clone(),
            &config,
            &StatefulMarks::new(),
        );
        assert_eq!(warm.actions, cold.actions, "warm/cold divergence ({kind})");
        (controller, failed_a, failed_b)
    }
}

/// The flags one binary accepts. Anything else is an error, so a typo
/// such as `--no-persit` stops the run instead of being ignored.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// Bare `--name` switches.
    pub switches: &'static [&'static str],
    /// `--name <value>` options.
    pub valued: &'static [&'static str],
    /// Whether non-flag arguments (figure names) are accepted.
    pub names: bool,
}

/// A command line checked against its [`Flags`].
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Each flag given, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
    /// The non-flag arguments, in order.
    pub names: Vec<String>,
}

impl Flags {
    /// Parses `args` (program name excluded). Errors read like
    /// `missing value for --json` or `unknown flag --sead`.
    pub fn parse(&self, args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if !self.names {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                cli.names.push(arg.clone());
                continue;
            };
            let value = if cli.given.iter().any(|(n, _)| n == name) {
                return Err(format!("{arg} given twice"));
            } else if self.switches.contains(&name) {
                None
            } else if self.valued.contains(&name) {
                Some(value_after(name, args.next())?.clone())
            } else {
                return Err(format!("unknown flag {arg}"));
            };
            cli.given.push((name.to_string(), value));
        }
        Ok(cli)
    }

    /// Parses the process's own arguments; exits 1 on an error.
    pub fn from_env(&self) -> Cli {
        or_exit(self.parse(&std::env::args().skip(1).collect::<Vec<_>>()))
    }
}

impl Cli {
    /// `true` when the switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, v)| n == name && v.is_none())
    }

    /// The parsed value of `--name`, `None` when absent, or
    /// `invalid value '6x' for --seed`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let given = self.given.iter().find(|(n, _)| n == name);
        let value = given.and_then(|(_, v)| v.as_ref());
        value.map(|v| parse_as(name, v)).transpose()
    }
}

/// The value following `--name`: a flag or the end of the line is
/// `missing value for --name`.
fn value_after<'a>(name: &str, next: Option<&'a String>) -> Result<&'a String, String> {
    next.filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("missing value for --{name}"))
}

fn parse_as<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value '{v}' for --{name}"))
}

/// Unwraps `r`, or prints `error: <message>` and exits 1.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Applies the standard `--threads N` flag to the global
/// [`phoenix_exec`] pool and returns the effective worker count.
///
/// Call this first thing in a bench binary's `main` (before any planning
/// work touches the pool). Without the flag the pool falls back to
/// `PHOENIX_THREADS`, then to the available parallelism; `--threads 1`
/// (or `0`) forces the strictly sequential path. A value that is not a
/// count exits 1. Results are byte-identical either way — the flag only
/// moves wall-clock.
pub fn init_threads() -> usize {
    // Only `--threads` is read: the Criterion harness passes flags of its
    // own, and the binaries have already checked theirs with [`Flags`].
    let args: Vec<String> = std::env::args().collect();
    let requested = args.iter().position(|a| a == "--threads").map(|i| {
        or_exit(value_after("threads", args.get(i + 1)).and_then(|v| parse_as("threads", v)))
    });
    if let Some(requested) = requested {
        if !phoenix_exec::set_global_threads(requested) {
            eprintln!(
                "warning: --threads {requested} ignored (the global pool was already \
                 initialised with {} worker(s))",
                phoenix_exec::global().threads()
            );
        }
    }
    phoenix_exec::global().threads()
}

/// `out.line(format!(..))` appends one newline-terminated line.
pub(crate) trait Line {
    fn line(&mut self, text: String);
}

impl Line for String {
    fn line(&mut self, text: String) {
        self.push_str(&text);
        self.push('\n');
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats seconds adaptively (ms below 1 s).
pub fn secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1}ms", s * 1000.0)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1.0"]);
        t.row(["longer", "2"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    fn flags_parse_strictly() {
        let flags = Flags {
            switches: &["smoke"],
            valued: &["seed", "json"],
            names: false,
        };
        let parse =
            |line: &str| flags.parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
        let cli = parse("--seed 6 --smoke").unwrap();
        assert!(cli.has("smoke") && !cli.has("seed"));
        assert_eq!(
            (cli.get("seed"), cli.get::<u64>("json")),
            (Ok(Some(6)), Ok(None))
        );
        let bad_seed = parse("--seed 6x").unwrap().get::<u64>("seed");
        assert_eq!(bad_seed.unwrap_err(), "invalid value '6x' for --seed");
        for (line, error) in [
            ("--json", "missing value for --json"),
            ("--json --smoke", "missing value for --json"),
            ("--sead 7", "unknown flag --sead"),
            ("--smoke --smoke", "--smoke given twice"),
            ("fig9", "unexpected argument 'fig9'"),
        ] {
            assert_eq!(parse(line).unwrap_err(), error, "{line}");
        }
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(secs(0.0421), "42.1ms");
        assert_eq!(secs(12.3), "12.30s");
    }
}
