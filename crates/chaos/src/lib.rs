//! The managed chaos-testing service of §5.
//!
//! Before a deployment (with its criticality tags) goes to production,
//! this service injects failures at increasing degrees and verifies that
//! the application behaves as its tags promise: shedding low-criticality
//! containers must not break the critical-service goal. It takes the
//! application model (deployment spec + load generator + utility function,
//! all captured by [`phoenix_apps::AppModel`]) and reports per-degree
//! utility scores plus any **tag violations** — services tagged as
//! sheddable whose loss nonetheless kills the critical request.
//!
//! # Examples
//!
//! The unpatched HotelReservation fails its audit exactly the way §5
//! describes (the frontend crashes when `user` is off), and the patched
//! version passes:
//!
//! ```
//! use phoenix_apps::hotel::{hotel, HotelVariant};
//! use phoenix_chaos::{audit_tags, ChaosConfig};
//!
//! let shipped = hotel("hr", HotelVariant::Reserve, 1.0);
//! let report = audit_tags(&shipped, &ChaosConfig::default());
//! assert!(!report.violations.is_empty());
//!
//! let patched = shipped.patched();
//! assert!(audit_tags(&patched, &ChaosConfig::default()).violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node_chaos;
pub mod scenario_chaos;

use phoenix_apps::AppModel;
use phoenix_core::spec::ServiceId;
use phoenix_core::tags::Criticality;

/// Chaos-audit configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Degrees of failure to sweep: fraction of *sheddable* (non-C1)
    /// services turned off, least critical first (the order the Phoenix
    /// planner would shed them).
    pub degrees: Vec<f64>,
    /// Services at this level or less critical are expected to be safely
    /// sheddable; shedding a more critical one is out of scope.
    pub sheddable_from: Criticality,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            degrees: vec![0.25, 0.5, 0.75, 1.0],
            sheddable_from: Criticality::C2,
        }
    }
}

/// A criticality tag that does not hold up under injection.
#[derive(Debug, Clone, PartialEq)]
pub struct TagViolation {
    /// The service whose shutdown broke the app.
    pub service: ServiceId,
    /// Its (supposedly sheddable) tag.
    pub tag: Criticality,
    /// The request type that failed (the critical one).
    pub broken_request: String,
}

/// Result of one failure degree.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeReport {
    /// Fraction of sheddable services turned off.
    pub degree: f64,
    /// Services turned off (least critical first).
    pub killed: Vec<ServiceId>,
    /// Did the critical-service goal survive?
    pub critical_retained: bool,
    /// Aggregate harvest: Σ served·utility / Σ offered·utility_full.
    pub utility_score: f64,
}

/// Full audit output.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Application under test.
    pub app: String,
    /// Sweep results, one per configured degree.
    pub degrees: Vec<DegreeReport>,
    /// Single-service injections that broke the critical goal.
    pub violations: Vec<TagViolation>,
}

impl ChaosReport {
    /// `true` when the tagging passed: every degree retained the critical
    /// goal and no single sheddable service is load-bearing.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.degrees.iter().all(|d| d.critical_retained)
    }
}

/// Services ordered least-critical-first (the shedding order).
fn shedding_order(model: &AppModel) -> Vec<ServiceId> {
    let mut ids: Vec<ServiceId> = model.spec.service_ids().collect();
    ids.sort_by_key(|&s| std::cmp::Reverse((model.spec.criticality_of(s), s)));
    ids
}

/// Aggregate harvest score for an availability predicate.
fn utility_score(model: &AppModel, up: impl Fn(ServiceId) -> bool) -> f64 {
    let outcomes = model.outcomes(&up);
    let harvested: f64 = outcomes.iter().map(|o| o.served_rps * o.utility).sum();
    let offered: f64 = model
        .requests
        .iter()
        .map(|r| r.rate_rps * r.utility_full)
        .sum();
    if offered > 0.0 {
        harvested / offered
    } else {
        0.0
    }
}

/// Runs the full audit: a degree sweep plus a single-service fault pass.
///
/// Each injected failure (one degree of shedding, or one single-service
/// kill) is evaluated independently against the immutable model, fanned
/// out on the [exec pool](phoenix_exec::global); results are collected in
/// configuration order, so the report is byte-identical for every thread
/// count.
pub fn audit_tags(model: &AppModel, config: &ChaosConfig) -> ChaosReport {
    let sheddable: Vec<ServiceId> = shedding_order(model)
        .into_iter()
        .filter(|&s| {
            !model
                .spec
                .criticality_of(s)
                .is_at_least_as_critical_as(config.sheddable_from)
                || model.spec.criticality_of(s) == config.sheddable_from
        })
        .filter(|&s| model.spec.criticality_of(s) != Criticality::C1)
        .collect();

    let pool = phoenix_exec::global();
    // Degree sweep: kill the least-critical prefix.
    let degrees = pool.par_map(&config.degrees, |&degree| {
        let k = ((sheddable.len() as f64) * degree.clamp(0.0, 1.0)).round() as usize;
        let killed: Vec<ServiceId> = sheddable.iter().copied().take(k).collect();
        let up = |s: ServiceId| !killed.contains(&s);
        DegreeReport {
            degree,
            critical_retained: model.critical_goal_met(up),
            utility_score: utility_score(model, up),
            killed,
        }
    });

    // Single-service audit: each sheddable service alone must be safe.
    let violations = pool
        .par_map(&sheddable, |&victim| {
            let up = |s: ServiceId| s != victim;
            if model.critical_goal_met(up) {
                None
            } else {
                Some(TagViolation {
                    service: victim,
                    tag: model.spec.criticality_of(victim),
                    broken_request: model.critical().name.clone(),
                })
            }
        })
        .into_iter()
        .flatten()
        .collect();

    ChaosReport {
        app: model.spec.name().to_string(),
        degrees,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_apps::hotel::{hotel, HotelVariant};
    use phoenix_apps::overleaf::{overleaf, OverleafVariant};
    use phoenix_exec::with_threads;

    #[test]
    fn overleaf_passes_full_audit() {
        let m = overleaf("overleaf", OverleafVariant::Edits, 1.0);
        let report = audit_tags(&m, &ChaosConfig::default());
        assert!(report.passed(), "violations: {:?}", report.violations);
        // Utility degrades monotonically with degree.
        for w in report.degrees.windows(2) {
            assert!(w[1].utility_score <= w[0].utility_score + 1e-9);
        }
        // Even full shedding keeps the C1 edit path alive.
        assert!(report.degrees.last().unwrap().critical_retained);
        assert!(report.degrees.last().unwrap().utility_score > 0.0);
    }

    #[test]
    fn unpatched_hr_flags_user_service() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0);
        let report = audit_tags(&m, &ChaosConfig::default());
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.broken_request == "reserve"));
    }

    #[test]
    fn patched_hr_passes() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0).patched();
        let report = audit_tags(&m, &ChaosConfig::default());
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn shedding_order_is_least_critical_first() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let order = shedding_order(&m);
        for w in order.windows(2) {
            assert!(
                m.spec.criticality_of(w[1]) <= m.spec.criticality_of(w[0]),
                "order must be least-critical first"
            );
        }
    }

    #[test]
    fn degree_zero_is_healthy() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let report = audit_tags(
            &m,
            &ChaosConfig {
                degrees: vec![0.0],
                ..ChaosConfig::default()
            },
        );
        let d0 = &report.degrees[0];
        assert!(d0.killed.is_empty());
        assert!(d0.critical_retained);
        assert!((d0.utility_score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn audit_is_thread_count_invariant() {
        // Degree sweep and single-service fault pass must produce the
        // same report (ChaosReport: PartialEq over every field) whether
        // evaluated sequentially or fanned out.
        for model in [
            overleaf("o", OverleafVariant::Edits, 1.0),
            hotel("hr", HotelVariant::Reserve, 1.0),
        ] {
            let run =
                |threads| with_threads(threads, || audit_tags(&model, &ChaosConfig::default()));
            let (seq, par) = (run(1), run(4));
            assert_eq!(seq, par, "{}", model.spec.name());
        }
    }

    #[test]
    fn sheddable_threshold_limits_injection() {
        // Only C5 services sheddable: smaller kill set than the default.
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let narrow = audit_tags(
            &m,
            &ChaosConfig {
                degrees: vec![1.0],
                sheddable_from: Criticality::C5,
            },
        );
        let wide = audit_tags(
            &m,
            &ChaosConfig {
                degrees: vec![1.0],
                sheddable_from: Criticality::C2,
            },
        );
        assert!(narrow.degrees[0].killed.len() < wide.degrees[0].killed.len());
    }
}
