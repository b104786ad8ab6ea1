//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index). This library provides the
//! text-table renderer, a tiny CLI-flag parser (`--full` switches to
//! paper-scale runs; the defaults finish in minutes on a laptop core), and
//! the standard policy roster. [`probe`] is the determinism probe whose
//! sections the `probe_golden` test pins byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

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

    /// Prints the rendered table with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

/// The monitor-tick replanning scenario shared by the fig8b warm/cold
/// rows, `obs_report`, and the `obs_overhead` guard bench, so the three
/// never drift apart in what they measure.
pub mod replan_scenario {
    use phoenix_adaptlab::alibaba::AlibabaConfig;
    use phoenix_adaptlab::scenario::{build_env, AdaptLabEnv, EnvConfig};
    use phoenix_adaptlab::tagging::TaggingScheme;
    use phoenix_cluster::{ClusterState, NodeId};
    use phoenix_core::controller::{plan_with, PhoenixConfig, PhoenixController};
    use phoenix_core::objectives::ObjectiveKind;
    use phoenix_core::replan::ReplanDelta;

    /// The standard environment the replan benches run against.
    pub fn replan_env(nodes: usize) -> AdaptLabEnv {
        build_env(&EnvConfig {
            nodes,
            node_capacity: 64.0,
            target_utilization: 0.75,
            tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
            alibaba: AlibabaConfig {
                max_services: (nodes * 3).min(3000),
                ..AlibabaConfig::default()
            },
            seed: 11,
            ..EnvConfig::default()
        })
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
        let cold = plan_with(
            &env.workload,
            &failed_a,
            &PhoenixConfig::with_objective(kind),
        );
        assert_eq!(warm.actions, cold.actions, "warm/cold divergence ({kind})");
        (controller, failed_a, failed_b)
    }
}

/// Applies the standard `--threads N` flag to the global
/// [`phoenix_exec`] pool and returns the effective worker count.
///
/// Call this first thing in a bench binary's `main` (before any planning
/// work touches the pool). Without the flag the pool falls back to
/// `PHOENIX_THREADS`, then to the available parallelism; `--threads 1`
/// (or `0`) forces the strictly sequential path. Results are
/// byte-identical either way — the flag only moves wall-clock.
pub fn init_threads() -> usize {
    // Sentinel = flag absent; an explicit `--threads 0` must mean
    // sequential (same as PHOENIX_THREADS=0), not "use the default".
    let requested: usize = arg("threads", usize::MAX);
    if requested != usize::MAX && !phoenix_exec::set_global_threads(requested) {
        eprintln!(
            "warning: --threads {requested} ignored (the global pool was already \
             initialised with {} worker(s))",
            phoenix_exec::global().threads()
        );
    }
    phoenix_exec::global().threads()
}

/// `true` when `--name` appears on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Value of `--name <v>`, or `default`.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
    fn float_formats() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(secs(0.0421), "42.1ms");
        assert_eq!(secs(12.3), "12.30s");
    }
}
