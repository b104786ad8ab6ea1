//! End-to-end request latency model — the machinery behind Table 1.
//!
//! Each request type has a log-normal end-to-end latency calibrated to the
//! paper's measurements. Diagonal scaling changes latency in two ways:
//!
//! * a pruned **required** service kills the request type entirely
//!   (Table 1 shows "–"),
//! * a pruned **optional** service is *cheaper* than a live one: HR uses
//!   gRPC over HTTP/2, which detects failed connections and fails fast
//!   (Appendix H), so the hop's latency contribution is replaced by a
//!   millisecond-scale fast-fail — P95 drops slightly (reserve: 55.33 →
//!   50.11 ms in the paper).

use phoenix_core::spec::ServiceId;
use phoenix_obs::stats::percentile;
use rand::Rng;
use rand::SeedableRng;

use crate::catalog::AppModel;

/// Latency profile of one request type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLatency {
    /// Median end-to-end latency, all services up (ms).
    pub median_ms: f64,
    /// Portion of the median contributed by optional downstream calls (ms).
    pub optional_ms: f64,
    /// Fast-fail cost replacing a pruned optional call (ms).
    pub fail_fast_ms: f64,
    /// Log-space sigma.
    pub sigma: f64,
}

impl Default for RequestLatency {
    fn default() -> RequestLatency {
        RequestLatency {
            median_ms: 50.0,
            optional_ms: 0.0,
            fail_fast_ms: 2.0,
            sigma: 0.18,
        }
    }
}

/// Calibrated medians for the known request types (Table 1 measurements).
pub fn latency_profile(request_name: &str) -> RequestLatency {
    let (median_ms, optional_ms, sigma) = match request_name {
        // Overleaf (REST + websockets; higher variance on compile).
        "edits" => (105.0, 0.0, 0.18),
        "compile" => (3150.0, 0.0, 0.19),
        "spell_check" => (1680.0, 0.0, 0.19),
        "versioning" => (180.0, 0.0, 0.20),
        "chat" => (60.0, 8.0, 0.20),
        "downloads" => (220.0, 0.0, 0.20),
        // HotelReservation (gRPC; tight distributions).
        "search" => (40.0, 0.0, 0.17),
        "recommend" => (35.0, 0.0, 0.18),
        "reserve" => (41.0, 6.0, 0.18),
        "login" => (31.0, 0.0, 0.18),
        _ => (40.0, 0.0, 0.18),
    };
    RequestLatency {
        median_ms,
        optional_ms,
        fail_fast_ms: 2.0,
        sigma,
    }
}

/// P95 of a log-normal with the given median/sigma, estimated by sampling
/// (deterministic under `seed`).
fn p95_lognormal(median_ms: f64, sigma: f64, seed: u64, samples: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..samples)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (median_ms.ln() + sigma * z).exp()
        })
        .collect();
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 0.95)
}

/// P95 latency of `request` in `model` under an availability predicate.
///
/// Returns `None` when the request cannot be served at all (a required
/// service is pruned, or any service for crash-prone apps) — the "–"
/// entries of Table 1.
pub fn request_p95(
    model: &AppModel,
    request: usize,
    service_up: impl Fn(ServiceId) -> bool,
    seed: u64,
) -> Option<f64> {
    let outcome = &model.outcomes(&service_up)[request];
    if outcome.served_rps <= 0.0 {
        return None;
    }
    let req = &model.requests[request];
    let profile = latency_profile(&req.name);
    let optional_pruned = req.optional.iter().any(|&s| !service_up(s));
    let median = if optional_pruned {
        profile.median_ms - profile.optional_ms + profile.fail_fast_ms
    } else {
        profile.median_ms
    };
    Some(p95_lognormal(median, profile.sigma, seed, 20_000))
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Application name.
    pub app: String,
    /// Request/service name.
    pub service: String,
    /// P95 before diagonal scaling (all services up), ms.
    pub before_ms: f64,
    /// P95 after diagonal scaling, ms; `None` = pruned ("–").
    pub after_ms: Option<f64>,
}

/// Builds Table-1 rows for `model`: before (everything up) vs. after
/// (availability per `service_up_after`). Only the named requests are
/// listed, preserving order.
pub fn latency_rows(
    model: &AppModel,
    requests: &[&str],
    service_up_after: impl Fn(ServiceId) -> bool + Copy,
    seed: u64,
) -> Vec<LatencyRow> {
    requests
        .iter()
        .filter_map(|&name| {
            let idx = model.requests.iter().position(|r| r.name == name)?;
            let before =
                request_p95(model, idx, |_| true, seed).expect("all-up request always serves");
            let after = request_p95(model, idx, service_up_after, seed.wrapping_add(1));
            Some(LatencyRow {
                app: model.spec.name().to_string(),
                service: name.to_string(),
                before_ms: before,
                after_ms: after,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotel::{hotel, HotelVariant};
    use crate::overleaf::{overleaf, OverleafVariant};
    use phoenix_core::tags::Criticality;

    #[test]
    fn p95_small_sample_counts_use_nearest_rank() {
        // Nearest-rank percentiles for tiny n: the old
        // `(0.95 * n) as usize` index was one rank high (for n = 20 it
        // read the maximum instead of the 19th of 20 — in bounds, but
        // biased). The shared helper is unit-tested in obs::stats; here
        // just pin that small n stays finite and sane.
        let one = p95_lognormal(100.0, 0.3, 7, 1);
        assert!(one.is_finite());
        for n in [2, 3, 20] {
            let p = p95_lognormal(100.0, 0.3, 7, n);
            assert!(p.is_finite(), "n={n}");
        }
    }

    #[test]
    fn p95_is_above_median_and_deterministic() {
        let a = p95_lognormal(100.0, 0.2, 1, 20_000);
        let b = p95_lognormal(100.0, 0.2, 1, 20_000);
        assert_eq!(a, b);
        assert!(a > 100.0);
        // ≈ median · exp(1.645 σ) = 139; sampling noise ±3 %.
        assert!((130.0..150.0).contains(&a), "p95 {a}");
    }

    #[test]
    fn overleaf_edits_p95_in_table1_band() {
        let m = overleaf("overleaf", OverleafVariant::Edits, 1.0);
        let p95 = request_p95(&m, 0, |_| true, 42).unwrap();
        // Paper: 141 ms before, 144 ms after — same band.
        assert!((120.0..170.0).contains(&p95), "edits p95 {p95}");
    }

    #[test]
    fn pruned_required_service_yields_dash() {
        let m = overleaf("overleaf", OverleafVariant::Edits, 1.0);
        // spell_check with spelling (idx 5) off → "–".
        let off = ServiceId::new(5);
        assert_eq!(request_p95(&m, 2, |s| s != off, 1), None);
    }

    #[test]
    fn reserve_fails_faster_without_user() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0).patched();
        let user = ServiceId::new(6);
        let before = request_p95(&m, 2, |_| true, 9).unwrap();
        let after = request_p95(&m, 2, |s| s != user, 9).unwrap();
        assert!(
            after < before,
            "gRPC fail-fast must not add latency: {after} vs {before}"
        );
        // Bands of Table 1: 55.33 → 50.11.
        assert!((45.0..70.0).contains(&before), "before {before}");
        assert!((40.0..before).contains(&after), "after {after}");
    }

    #[test]
    fn table_rows_mark_pruned_services() {
        let m = overleaf("overleaf", OverleafVariant::Edits, 1.0);
        // Diagonal scaling kept only C1+C2 services.
        let keep = |s: ServiceId| {
            m.spec
                .criticality_of(s)
                .is_at_least_as_critical_as(Criticality::C2)
        };
        let rows = latency_rows(&m, &["edits", "compile", "spell_check"], keep, 3);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].after_ms.is_some(), "edits survive");
        assert!(rows[1].after_ms.is_some(), "compile is C2");
        assert_eq!(rows[2].after_ms, None, "spell_check pruned");
    }
}
