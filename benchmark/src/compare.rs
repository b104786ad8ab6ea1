//! `--compare A.json B.json`: applies each metric's bound to two suite
//! result files (A is the baseline) and prints one row per
//! `(workload, metric)`.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Bound};

/// Verdict for one `(workload, metric)` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or bit-equal, for exact metrics).
    Ok,
    /// Worse than the baseline by more than the bound (or not bit-equal).
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the bound cannot resolve a change: neither "unchanged" nor worse.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a` under `bound`; `spread` is the wider of
/// the two sides' interquartile range over the median.
pub fn judge(bound: Bound, better: Better, a: f64, b: f64, spread: f64) -> Verdict {
    match bound {
        Bound::Info => Verdict::Ok,
        Bound::Exact => {
            if a.to_bits() == b.to_bits() {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Bound::Rel(limit) => {
            if spread > limit {
                return Verdict::Unresolved;
            }
            let worse_by = match better {
                Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
            };
            if worse_by > limit {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two result files and prints the table.
///
/// Returns how many rows regressed and how many are unresolved — a gate
/// that cannot tell a change from noise is not a pass.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn run(path_a: &str, path_b: &str) -> Result<(usize, usize), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads_a = a.get("workloads").ok_or("A: no `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B: no `workloads`")?;
    let same_seed = a.get("seed") == b.get("seed");
    println!("baseline A = {path_a}\ncandidate B = {path_b}");
    if !same_seed {
        println!("seeds differ: exact metrics and digests are not comparable and are skipped");
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (name, wa) in workloads_a.fields() {
        let Some(wb) = workloads_b.get(name) else {
            println!("{name:<14} missing from B");
            regressed += 1;
            continue;
        };
        let e2e_b = wb.get("end_to_end");
        for (metric, ma) in wa.get("end_to_end").map_or(&[][..], Value::fields) {
            let Some(def) = metrics::def(metric) else {
                continue;
            };
            let num = |m: &Value, k: &str| m.get(k).and_then(Value::as_f64);
            let (Some(va), Some(mb)) = (num(ma, "value"), e2e_b.and_then(|e| e.get(metric))) else {
                println!("{name:<14} {metric:<22} missing from B");
                regressed += 1;
                continue;
            };
            let vb = num(mb, "value").unwrap_or(f64::NAN);
            if def.bound == Bound::Exact && !same_seed {
                continue;
            }
            let spread = num(ma, "spread")
                .unwrap_or(0.0)
                .max(num(mb, "spread").unwrap_or(0.0));
            let verdict = judge(def.bound, def.better, va, vb, spread);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let bound = match def.bound {
                Bound::Rel(l) => format!("{:.0}%", l * 100.0),
                Bound::Exact => "exact".to_string(),
                Bound::Info => "-".to_string(),
            };
            println!(
                "{name:<14} {metric:<22} {va:>14.6} {vb:>14.6} {:>+8.1}% {:>7.1}% {bound:>8}  {}",
                (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread * 100.0,
                verdict.as_str()
            );
        }
        if same_seed {
            for (key, da) in wa.get("digests").map_or(&[][..], Value::fields) {
                let db = wb.get("digests").and_then(|d| d.get(key));
                let same = db == Some(da);
                regressed += usize::from(!same);
                println!(
                    "{name:<14} {key:<22} {:>14} {:>14} {:>9} {:>8} {:>8}  {}",
                    da.as_str().unwrap_or("?"),
                    db.and_then(Value::as_str).unwrap_or("?"),
                    "",
                    "",
                    "exact",
                    if same { "ok" } else { "regressed" }
                );
            }
        }
    }
    println!("{regressed} regressed row(s), {unresolved} unresolved row(s)");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bounds_follow_the_direction() {
        let rel = Bound::Rel(0.10);
        assert_eq!(judge(rel, Better::Lower, 100.0, 109.0, 0.02), Verdict::Ok);
        assert_eq!(
            judge(rel, Better::Lower, 100.0, 111.0, 0.02),
            Verdict::Regressed
        );
        assert_eq!(judge(rel, Better::Lower, 100.0, 50.0, 0.02), Verdict::Ok);
        assert_eq!(judge(rel, Better::Higher, 100.0, 91.0, 0.02), Verdict::Ok);
        assert_eq!(
            judge(rel, Better::Higher, 100.0, 89.0, 0.02),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let rel = Bound::Rel(0.10);
        assert_eq!(
            judge(rel, Better::Lower, 100.0, 101.0, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(rel, Better::Lower, 100.0, 150.0, 0.12),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_must_be_bit_equal() {
        assert_eq!(
            judge(Bound::Exact, Better::Higher, 0.5, 0.5, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(Bound::Exact, Better::Higher, 0.5, 0.5 + f64::EPSILON, 0.0),
            Verdict::Regressed
        );
    }
}
