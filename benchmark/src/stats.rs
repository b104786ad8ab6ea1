//! Order statistics, the spread measure the driver gates on, and the
//! FNV-1a digest used for determinism checks.

/// Nearest-rank percentile of `samples` (`p` in `0.0..=1.0`): the
/// smallest sample with at least `p` of the data at or below it.
/// Returns 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples (even `n`) — unlike the
/// nearest-rank p50 this does not jump when `n` changes parity between
/// runs of a time-boxed loop.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Class-balanced median: the mean over classes of each class's median.
///
/// Every workload interleaves a fixed set of operation classes (Fairness
/// vs. Cost plans, the twelve drill cells, campaign vs. hunt). Their
/// latencies differ systematically, so the plain median of the mixture
/// sits on the boundary between two modes and jumps with the sample
/// count; balancing by class removes that.
pub fn balanced_median(classes: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = classes
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .collect();
    mean(&medians)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        // 1-based position i * (n + 1) / 4, clamped into [1, n - 1].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median (0.0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    ((q3 - q1) / m).abs()
}

/// FNV-1a over 64-bit words: cheap enough to fold a 280k-action plan
/// outside the timed region without noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a byte string (length-prefixed so concatenations differ).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.word(u64::from(x));
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.8), 8.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn balanced_median_ignores_class_sizes() {
        let classes = vec![vec![10.0; 9], vec![20.0], vec![]];
        assert_eq!(balanced_median(&classes), 15.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
