//! Small shared statistics helpers (percentiles for the latency models).
//!
//! The implementation lives in `phoenix_obs::stats` — the observability
//! substrate is the one home for nearest-rank percentile math, so the
//! latency tables in `phoenix-apps`, the campaign `replan_us_p99`
//! scoring, the criterion shim's median, and the wall-clock histograms
//! all agree on the `⌈q·n⌉` convention. This module re-exports it under
//! the historical `phoenix_core::stats` path.
//!
//! Percentiles use the **nearest-rank** definition: the p-th percentile of
//! `n` sorted samples is the `⌈p·n⌉`-th smallest (1-based). This is the
//! convention monitoring stacks report, and it is exact for the tiny
//! sample counts the simulators produce early in a run — a naive
//! `(p * n) as usize` index over-reads by one rank (e.g. the p95 of 20
//! samples must be the 19th value, not the 20th) and silently degenerates
//! to the maximum for small `n`.

pub use phoenix_obs::stats::{percentile, percentile_index, percentile_u64};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile_index(1, q), 0, "q={q}");
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn two_samples() {
        // Nearest rank: p50 of two samples is the *first* (⌈0.5·2⌉ = 1).
        assert_eq!(percentile_index(2, 0.5), 0);
        assert_eq!(percentile_index(2, 0.51), 1);
        assert_eq!(percentile_index(2, 0.95), 1);
        assert_eq!(percentile_index(2, 0.99), 1);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn three_samples() {
        assert_eq!(percentile_index(3, 0.5), 1); // ⌈1.5⌉ = 2nd
        assert_eq!(percentile_index(3, 0.95), 2); // ⌈2.85⌉ = 3rd
        assert_eq!(percentile_index(3, 0.99), 2);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn large_n_is_not_off_by_one() {
        // p95 of 20 samples: ⌈19⌉ = 19th smallest = index 18 — the naive
        // `(0.95 * 20) as usize = 19` read the maximum instead.
        assert_eq!(percentile_index(20, 0.95), 18);
        assert_eq!(percentile_index(20_000, 0.95), 18_999);
        assert_eq!(percentile_index(100, 0.5), 49);
    }

    #[test]
    fn extremes_clamp() {
        assert_eq!(percentile_index(10, 0.0), 0);
        assert_eq!(percentile_index(10, 1.0), 9);
        assert_eq!(percentile_index(10, -3.0), 0);
        assert_eq!(percentile_index(10, 2.0), 9);
    }

    #[test]
    fn u64_variant_shares_the_convention() {
        assert_eq!(percentile_u64(&[10, 20, 30, 50], 0.5), 20);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        percentile(&[], 0.5);
    }
}
