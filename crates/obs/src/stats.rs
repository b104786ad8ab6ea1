//! Nearest-rank percentile math — the one shared implementation.
//!
//! Every percentile in the workspace (latency tables in `phoenix-apps`,
//! campaign `replan_us_p99` scoring, the criterion shim's median, the
//! wall-clock histograms in [`crate::hist`]) routes through these two
//! functions, so the ⌈q·n⌉ nearest-rank convention cannot drift between
//! copies.

/// Index of the nearest-rank `q`-quantile in a sorted sample of size `n`:
/// the `⌈q·n⌉`-th smallest element, 1-based (so `q = 0.5, n = 4` picks
/// the 2nd smallest — the lower of the two middle samples).
///
/// `q` is clamped to `[0, 1]`; the rank is clamped to `[1, n]`, so
/// `q = 0.0` yields the minimum and `q = 1.0` the maximum.
///
/// # Panics
///
/// Panics when `n == 0` — a percentile of an empty sample set has no
/// defined value, and silently returning one would corrupt reports.
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample set");
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending-sorted `f64` slice.
///
/// # Panics
///
/// Panics when `sorted` is empty (see [`percentile_index`]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[percentile_index(sorted.len(), q)]
}

/// Nearest-rank percentile of an ascending-sorted `u64` slice (used for
/// millisecond/microsecond latency samples that never touch floats).
///
/// # Panics
///
/// Panics when `sorted` is empty (see [`percentile_index`]).
pub fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    sorted[percentile_index(sorted.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_convention() {
        // n = 4, q = 0.5 → ⌈2⌉ = 2nd smallest → index 1 (lower middle).
        assert_eq!(percentile_index(4, 0.5), 1);
        assert_eq!(percentile_index(5, 0.5), 2);
        assert_eq!(percentile_index(100, 0.95), 94);
        assert_eq!(percentile_index(100, 0.99), 98);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile_index(1, q), 0, "q={q}");
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn extremes_clamp() {
        // Extremes clamp to min/max.
        for n in [7, 10] {
            assert_eq!(percentile_index(n, 0.0), 0);
            assert_eq!(percentile_index(n, 1.0), n - 1);
            assert_eq!(percentile_index(n, -3.0), 0);
            assert_eq!(percentile_index(n, 2.0), n - 1);
            assert_eq!(percentile_index(n, 42.0), n - 1);
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
    fn u64_variant_shares_the_convention() {
        assert_eq!(percentile_u64(&[10, 20, 30, 50], 0.5), 20);
    }

    #[test]
    fn percentile_reads_the_sorted_slice() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile_u64(&[10, 20, 30], 0.5), 20);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        percentile(&[], 0.5);
    }
}
