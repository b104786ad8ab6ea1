//! Turning a workload [`Outcome`] into what gets printed: the table for
//! people, the full report line for the suite, and the contract line the
//! driver reads last.

use crate::json::Value;
use crate::metrics::{self, MetricDef, E2E, LAYERS};
use crate::workloads::Outcome;

/// Everything known about one finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed of the injected failures.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Workers of the global `exec` pool.
    pub threads: usize,
    /// `available_parallelism` of the host.
    pub host_cpus: usize,
    /// Smoke sizes.
    pub smoke: bool,
    /// The workload's outcome.
    pub outcome: Outcome,
}

impl Report {
    /// The metrics the contract line must carry, in table order: every
    /// end-to-end metric untraced, every per-layer metric traced (a layer
    /// the workload does not exercise reads 0).
    pub fn contract_metrics(&self) -> Vec<(&'static MetricDef, f64)> {
        let defs: &'static [MetricDef] = if self.trace { &LAYERS } else { &E2E };
        defs.iter()
            .map(|d| {
                let v = self
                    .outcome
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |(_, v)| *v);
                (d, v)
            })
            .collect()
    }

    /// No operation failed, every value is a number, and every end-to-end
    /// metric is above zero.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0
            && self.outcome.attempted > 0
            && self.outcome.metrics.iter().all(|(_, v)| v.is_finite())
            && (self.trace || self.contract_metrics().iter().all(|(_, v)| *v > 0.0))
    }

    fn metrics_json(pairs: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Value {
        let mut obj = Value::obj();
        for (name, unit, v) in pairs {
            let mut m = Value::obj();
            m.set("value", Value::Num(v))
                .set("unit", Value::Str(unit.to_string()));
            obj.set(name, m);
        }
        obj
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut line = Value::obj();
        line.set("correct", Value::Bool(self.correct()))
            .set(
                "attempted",
                Value::Num(self.outcome.attempted.max(1) as f64),
            )
            .set("failed", Value::Num(self.outcome.failed as f64))
            .set(
                "metrics",
                Report::metrics_json(
                    self.contract_metrics()
                        .into_iter()
                        .map(|(d, v)| (d.name, d.unit, v)),
                ),
            );
        line.to_line()
    }

    /// The full report: the contract fields plus every named metric, the
    /// run's parameters and its facts.
    pub fn to_json(&self) -> Value {
        let mut info = Value::obj();
        for (k, v) in &self.outcome.info {
            info.set(k, v.clone());
        }
        let all = self.outcome.metrics.iter().map(|(name, v)| {
            let unit = metrics::def(name).map_or("", |d| d.unit);
            (*name, unit, *v)
        });
        let mut doc = Value::obj();
        doc.set("workload", Value::Str(self.workload.clone()))
            .set("seed", Value::Num(self.seed as f64))
            .set("seconds", Value::Num(self.seconds))
            .set("trace", Value::Bool(self.trace))
            .set("threads", Value::Num(self.threads as f64))
            .set("host_cpus", Value::Num(self.host_cpus as f64))
            .set("smoke", Value::Bool(self.smoke))
            .set("correct", Value::Bool(self.correct()))
            .set("attempted", Value::Num(self.outcome.attempted as f64))
            .set("failed", Value::Num(self.outcome.failed as f64))
            .set(
                "failures",
                Value::Arr(
                    self.outcome
                        .failures
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            )
            .set("metrics", Report::metrics_json(all))
            .set("info", info);
        doc
    }

    /// Every metric by name with its unit, then the run's facts.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} · {} s · trace {} · threads {} of {} cpus{} ==\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.threads,
            self.host_cpus,
            if self.smoke { " · smoke sizes" } else { "" },
        );
        let mut rows: Vec<(&str, f64)> = self
            .contract_metrics()
            .into_iter()
            .map(|(d, v)| (d.name, v))
            .collect();
        for (name, v) in &self.outcome.metrics {
            if !rows.iter().any(|(n, _)| n == name) {
                rows.push((name, *v));
            }
        }
        for (name, v) in rows {
            // A traced run carries every layer; the ones this workload
            // does not exercise read 0 and only clutter the table.
            if self.trace && v == 0.0 {
                continue;
            }
            let unit = metrics::def(name).map_or("", |d| d.unit);
            out.push_str(&format!("  {name:<40} {v:>16.6} {unit}\n"));
        }
        for (k, v) in &self.outcome.info {
            out.push_str(&format!("  {k:<40} {:>16}\n", v.to_line()));
        }
        out.push_str(&format!(
            "  {:<40} {:>16}\n",
            "ops attempted / failed",
            format!("{} / {}", self.outcome.attempted, self.outcome.failed)
        ));
        for f in &self.outcome.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}
