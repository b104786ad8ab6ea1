//! Water-filling max-min fair shares (§4, *Global Objectives*).
//!
//! Distribute `capacity` among applications so that each gets min(demand,
//! fair level); leftover capacity from under-demanding apps flows to the
//! rest. This is the classic progressive-filling algorithm the paper cites
//! for its fairness objective, precomputed once and then consumed both by
//! the `PhoenixFair` ranking key and the `LPFair` constraints (Appendix C).

/// Computes water-filling fair shares.
///
/// Returns one share per demand with the guarantees:
/// * `share[i] <= demand[i]`,
/// * `sum(shares) <= capacity` (with equality when total demand ≥ capacity),
/// * max-min optimality: a share below its demand equals the water level,
///   and no share below the level has unmet demand.
///
/// Zero/negative demands get zero. Capacity ≤ 0 yields all-zero shares.
///
/// # Examples
///
/// ```
/// use phoenix_core::waterfill::waterfill;
///
/// // Demands 10, 50, 90 over 100 units: 10 is satisfied, the rest split 90.
/// let shares = waterfill(&[10.0, 50.0, 90.0], 100.0);
/// assert_eq!(shares, vec![10.0, 45.0, 45.0]);
/// ```
pub fn waterfill(demands: &[f64], capacity: f64) -> Vec<f64> {
    waterfill_with_order(demands, &demand_order(demands), capacity)
}

/// The ascending-demand visit order water-filling uses internally.
///
/// The sort is stable and total (`f64::total_cmp`), so a NaN demand cannot
/// panic the planner; NaNs sort last and receive a zero share. Warm
/// replanning caches this order across rounds — it only depends on the
/// demand vector, not on capacity.
pub fn demand_order(demands: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    order
}

/// [`waterfill`] with a precomputed [`demand_order`] (warm-replan path).
///
/// `order` must be the stable ascending order of `demands` (what
/// [`demand_order`] returns for the same vector); passing a stale order
/// yields unspecified (but finite, non-panicking) shares.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..demands.len()`.
pub fn waterfill_with_order(demands: &[f64], order: &[usize], capacity: f64) -> Vec<f64> {
    let n = demands.len();
    assert_eq!(order.len(), n, "order must be a permutation of the demands");
    let obs = phoenix_obs::current();
    obs.incr(phoenix_obs::Counter::WaterfillRuns);
    let _timer = obs.phase(phoenix_obs::Phase::Waterfill);
    let mut shares = vec![0.0; n];
    if n == 0 || capacity <= 0.0 {
        return shares;
    }
    let mut remaining = capacity;
    let mut active = n;
    for (k, &i) in order.iter().enumerate() {
        // NaN demands compare false against the level and sort last under
        // `total_cmp`; `max(0.0)` maps them (and negatives) to zero shares.
        let d = demands[i].max(0.0);
        let level = remaining / active as f64;
        if d <= level {
            shares[i] = d;
            remaining -= d;
        } else {
            // Everyone still active gets the final level. The clamp is a
            // no-op for well-formed inputs (ascending order ⇒ every
            // remaining demand exceeds the level); it only bites for NaN
            // demands, which sort last and must take zero, not the level.
            let level = remaining / active as f64;
            for &j in &order[k..] {
                shares[j] = level.min(demands[j].max(0.0));
            }
            return shares;
        }
        active -= 1;
    }
    shares
}

/// Positive/negative deviation of `allocations` from their water-filling
/// fair shares (§6 operator metrics): positive = above fair share,
/// negative = below. Both values are reported as non-negative magnitudes,
/// normalized by capacity.
pub fn fair_share_deviation(demands: &[f64], allocations: &[f64], capacity: f64) -> (f64, f64) {
    assert_eq!(demands.len(), allocations.len(), "length mismatch");
    let shares = waterfill(demands, capacity);
    let mut pos = 0.0;
    let mut neg = 0.0;
    for (a, s) in allocations.iter().zip(&shares) {
        let d = a - s;
        if d > 0.0 {
            pos += d;
        } else {
            neg += -d;
        }
    }
    if capacity > 0.0 {
        (pos / capacity, neg / capacity)
    } else {
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_demand_everyone_satisfied() {
        let s = waterfill(&[10.0, 20.0], 100.0);
        assert_eq!(s, vec![10.0, 20.0]);
    }

    #[test]
    fn equal_split_when_all_over_demand() {
        let s = waterfill(&[50.0, 70.0, 90.0], 30.0);
        assert_eq!(s, vec![10.0, 10.0, 10.0]);
    }

    #[test]
    fn paper_example_10_50_90() {
        // The Appendix-C motivating example: naive LP could give 10/10/80;
        // water-filling gives 10/45/45.
        let s = waterfill(&[10.0, 50.0, 90.0], 100.0);
        assert_eq!(s, vec![10.0, 45.0, 45.0]);
    }

    #[test]
    fn cascading_levels() {
        let s = waterfill(&[5.0, 15.0, 100.0], 60.0);
        // 5 satisfied (level 20); then 15 satisfied (level 27.5); rest 40.
        assert_eq!(s, vec![5.0, 15.0, 40.0]);
    }

    #[test]
    fn edge_cases() {
        assert!(waterfill(&[], 10.0).is_empty());
        assert_eq!(waterfill(&[5.0], 0.0), vec![0.0]);
        assert_eq!(waterfill(&[0.0, 10.0], 4.0), vec![0.0, 4.0]);
        assert_eq!(waterfill(&[-3.0, 10.0], 4.0), vec![0.0, 4.0]);
    }

    #[test]
    fn nan_demand_degrades_deterministically() {
        // A NaN demand must not panic the planner mid-incident: it sorts
        // last under `total_cmp`, clamps to a zero share, and leaves the
        // well-formed apps' shares intact.
        let s = waterfill(&[10.0, f64::NAN, 50.0], 30.0);
        assert_eq!(s[0], 10.0);
        assert_eq!(s[1], 0.0);
        assert!(s[2] > 0.0 && s[2] <= 50.0);
        assert!(s.iter().sum::<f64>() <= 30.0 + 1e-9);
    }

    #[test]
    fn shares_never_exceed_capacity_or_demand() {
        let demands = [3.0, 9.5, 1.2, 40.0, 0.7, 22.0];
        for cap in [0.5, 5.0, 20.0, 76.4, 1000.0] {
            let s = waterfill(&demands, cap);
            let total: f64 = s.iter().sum();
            assert!(total <= cap + 1e-9, "cap {cap}: total {total}");
            for (share, d) in s.iter().zip(&demands) {
                assert!(share <= d, "cap {cap}");
            }
            // Max-min: either everyone is satisfied or capacity is used up.
            let all_satisfied = s.iter().zip(&demands).all(|(s, d)| (s - d).abs() < 1e-9);
            assert!(all_satisfied || (total - cap).abs() < 1e-9);
        }
    }

    #[test]
    fn deviation_decomposition() {
        let demands = [10.0, 50.0, 90.0];
        // Fair shares at 100: [10, 45, 45]. Allocate [10, 10, 80].
        let (pos, neg) = fair_share_deviation(&demands, &[10.0, 10.0, 80.0], 100.0);
        assert!((pos - 0.35).abs() < 1e-9);
        assert!((neg - 0.35).abs() < 1e-9);
        let (p0, n0) = fair_share_deviation(&demands, &[10.0, 45.0, 45.0], 100.0);
        assert_eq!((p0, n0), (0.0, 0.0));
    }
}
