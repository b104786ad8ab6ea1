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
//! use phoenix_chaos::audit_tags;
//!
//! let shipped = hotel("hr", HotelVariant::Reserve, 1.0);
//! let report = audit_tags(&shipped);
//! assert!(!report.violations.is_empty());
//!
//! let patched = shipped.patched();
//! assert!(audit_tags(&patched).violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node_chaos;

use phoenix_apps::AppModel;
use phoenix_core::spec::ServiceId;
use phoenix_core::tags::Criticality;

/// Degrees of failure the audit sweeps: fraction of *sheddable* (non-C1)
/// services turned off, least critical first (the order the Phoenix
/// planner would shed them).
const DEGREES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Services at this level or less critical are expected to be safely
/// sheddable; shedding a more critical one is out of scope.
const SHEDDABLE_FROM: Criticality = Criticality::C2;

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
    /// Sweep results, one per swept degree.
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
pub fn audit_tags(model: &AppModel) -> ChaosReport {
    audit_at(model, &DEGREES, SHEDDABLE_FROM)
}

/// [`audit_tags`] over the given degrees and sheddable threshold.
fn audit_at(model: &AppModel, degrees: &[f64], sheddable_from: Criticality) -> ChaosReport {
    let sheddable: Vec<ServiceId> = shedding_order(model)
        .into_iter()
        .filter(|&s| {
            !model
                .spec
                .criticality_of(s)
                .is_at_least_as_critical_as(sheddable_from)
                || model.spec.criticality_of(s) == sheddable_from
        })
        .filter(|&s| model.spec.criticality_of(s) != Criticality::C1)
        .collect();

    // Degree sweep: kill the least-critical prefix.
    let degrees = (degrees.iter())
        .map(|&degree| {
            let k = ((sheddable.len() as f64) * degree.clamp(0.0, 1.0)).round() as usize;
            let killed: Vec<ServiceId> = sheddable.iter().copied().take(k).collect();
            let up = |s: ServiceId| !killed.contains(&s);
            DegreeReport {
                degree,
                critical_retained: model.critical_goal_met(up),
                utility_score: utility_score(model, up),
                killed,
            }
        })
        .collect();

    // Single-service audit: each sheddable service alone must be safe.
    let violations = (sheddable.iter())
        .filter(|&&victim| !model.critical_goal_met(|s: ServiceId| s != victim))
        .map(|&victim| TagViolation {
            service: victim,
            tag: model.spec.criticality_of(victim),
            broken_request: model.critical().name.clone(),
        })
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

    #[test]
    fn overleaf_passes_full_audit() {
        let m = overleaf("overleaf", OverleafVariant::Edits, 1.0);
        let report = audit_tags(&m);
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
        let report = audit_tags(&m);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.broken_request == "reserve"));
    }

    #[test]
    fn patched_hr_passes() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0).patched();
        let report = audit_tags(&m);
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
        let report = audit_at(&m, &[0.0], SHEDDABLE_FROM);
        let d0 = &report.degrees[0];
        assert!(d0.killed.is_empty());
        assert!(d0.critical_retained);
        assert!((d0.utility_score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sheddable_threshold_limits_injection() {
        // Only C5 services sheddable: smaller kill set than the default.
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let narrow = audit_at(&m, &[1.0], Criticality::C5);
        let wide = audit_at(&m, &[1.0], Criticality::C2);
        assert!(narrow.degrees[0].killed.len() < wide.degrees[0].killed.len());
    }
}
