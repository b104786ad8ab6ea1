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
        // Extremes clamp to min/max.
        assert_eq!(percentile_index(7, 0.0), 0);
        assert_eq!(percentile_index(7, 1.0), 6);
        assert_eq!(percentile_index(7, -3.0), 0);
        assert_eq!(percentile_index(7, 42.0), 6);
        // A single sample is every percentile.
        assert_eq!(percentile_index(1, 0.01), 0);
        assert_eq!(percentile_index(1, 0.99), 0);
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
