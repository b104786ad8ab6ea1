//! Budgeted maximum coverage over call-graph templates (Appendix G).
//!
//! The paper asks: *how many user requests can an application serve when
//! only `k` of its microservices are enabled?* Each call graph (request
//! template) is served only when **all** the microservices it touches are
//! enabled. Small instances are solved exactly with the MILP from the
//! paper; large instances (App1 has 3 000 microservices and millions of
//! requests) use a density-greedy heuristic, the standard approximation for
//! this set-coverage family.
//!
//! The same machinery powers AdaptLab's *frequency-based criticality
//! tagging*: find the smallest microservice set serving the P50/P90 request
//! percentile and tag it `C1`.

use crate::expr::LinExpr;
use crate::model::{Cmp, LpError, Model, Sense, SolveOptions, VarKind};

/// A coverage instance: weighted request templates over item (microservice)
/// sets.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageInstance {
    /// Number of distinct items (microservices).
    pub num_items: usize,
    /// For each template, the items it requires (all of them).
    pub sets: Vec<Vec<usize>>,
    /// Request weight of each template (same length as `sets`).
    pub weights: Vec<f64>,
}

impl CoverageInstance {
    /// Builds an instance, validating shape.
    ///
    /// # Panics
    ///
    /// Panics if `sets`/`weights` lengths differ, an item id is out of
    /// range, or a weight is negative/non-finite.
    pub fn new(num_items: usize, sets: Vec<Vec<usize>>, weights: Vec<f64>) -> CoverageInstance {
        assert_eq!(sets.len(), weights.len(), "sets/weights length mismatch");
        for s in &sets {
            for &i in s {
                assert!(
                    i < num_items,
                    "item {i} out of range (num_items={num_items})"
                );
            }
        }
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        CoverageInstance {
            num_items,
            sets,
            weights,
        }
    }

    /// Total request weight across all templates.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// Result of a coverage optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageResult {
    /// Chosen item ids, in selection order for greedy solutions.
    pub chosen: Vec<usize>,
    /// Request weight served by the chosen items.
    pub covered_weight: f64,
    /// Per-template served flag.
    pub covered: Vec<bool>,
}

impl CoverageResult {
    fn from_enabled(inst: &CoverageInstance, enabled: &[bool], chosen: Vec<usize>) -> Self {
        let covered: Vec<bool> = inst
            .sets
            .iter()
            .map(|s| s.iter().all(|&i| enabled[i]))
            .collect();
        let covered_weight = covered
            .iter()
            .zip(&inst.weights)
            .filter(|(c, _)| **c)
            .map(|(_, w)| w)
            .sum();
        CoverageResult {
            chosen,
            covered_weight,
            covered,
        }
    }
}

/// Density-greedy budgeted coverage: repeatedly enable the template with the
/// best `weight / #missing-items` ratio that still fits the budget.
///
/// Runs in `O(rounds · templates · set-size)`; exactness is traded for
/// scale, which is what the paper needs at App1 size.
pub fn greedy_max_coverage(inst: &CoverageInstance, budget: usize) -> CoverageResult {
    let mut enabled = vec![false; inst.num_items];
    let mut used = 0usize;
    let mut chosen = Vec::new();
    let mut served = vec![false; inst.sets.len()];
    loop {
        let mut best: Option<(usize, f64, usize)> = None; // (template, density, missing)
        for (t, set) in inst.sets.iter().enumerate() {
            if served[t] || inst.weights[t] <= 0.0 {
                continue;
            }
            let missing = set.iter().filter(|&&i| !enabled[i]).count();
            if used + missing > budget {
                continue;
            }
            if missing == 0 {
                served[t] = true;
                continue;
            }
            let density = inst.weights[t] / missing as f64;
            match best {
                Some((_, bd, _)) if bd >= density => {}
                _ => best = Some((t, density, missing)),
            }
        }
        let Some((t, _, _)) = best else { break };
        for &i in &inst.sets[t] {
            if !enabled[i] {
                enabled[i] = true;
                chosen.push(i);
                used += 1;
            }
        }
        served[t] = true;
    }
    CoverageResult::from_enabled(inst, &enabled, chosen)
}

/// Greedy *minimum item set* serving at least `target_frac` of the total
/// request weight (e.g. 0.5 for P50, 0.9 for P90 tagging).
///
/// Returns the chosen items even if the target is unreachable (then all
/// items are chosen).
///
/// # Panics
///
/// Panics if `target_frac` is not within `0.0..=1.0`.
pub fn greedy_min_items_for_target(inst: &CoverageInstance, target_frac: f64) -> CoverageResult {
    assert!(
        (0.0..=1.0).contains(&target_frac),
        "target fraction must be in [0, 1]"
    );
    let total = inst.total_weight();
    let target = total * target_frac;
    let mut enabled = vec![false; inst.num_items];
    let mut chosen = Vec::new();
    let mut covered = 0.0;
    let mut served = vec![false; inst.sets.len()];
    while covered + 1e-12 < target {
        let mut best: Option<(usize, f64)> = None;
        for (t, set) in inst.sets.iter().enumerate() {
            if served[t] || inst.weights[t] <= 0.0 {
                continue;
            }
            let missing = set.iter().filter(|&&i| !enabled[i]).count();
            if missing == 0 {
                served[t] = true;
                covered += inst.weights[t];
                continue;
            }
            let density = inst.weights[t] / missing as f64;
            match best {
                Some((_, bd)) if bd >= density => {}
                _ => best = Some((t, density)),
            }
        }
        let Some((t, _)) = best else { break };
        for &i in &inst.sets[t] {
            if !enabled[i] {
                enabled[i] = true;
                chosen.push(i);
            }
        }
        served[t] = true;
        covered += inst.weights[t];
    }
    CoverageResult::from_enabled(inst, &enabled, chosen)
}

/// Exact budgeted coverage via the paper's MILP (Appendix G).
///
/// Binary `z_i` enables item `i`; template indicator `a_t` is continuous in
/// `[0,1]` with `a_t <= z_i` for every required item, so integral `z`
/// forces integral `a`. Use for small instances only.
///
/// # Errors
///
/// Propagates [`LpError`] from the MILP solve (including limit outcomes).
pub fn lp_max_coverage(
    inst: &CoverageInstance,
    budget: usize,
    opts: &SolveOptions,
) -> Result<CoverageResult, LpError> {
    let mut m = Model::new(Sense::Maximize);
    let z: Vec<_> = (0..inst.num_items).map(|_| m.add_binary()).collect();
    let mut obj = LinExpr::new();
    let mut a = Vec::with_capacity(inst.sets.len());
    for (t, set) in inst.sets.iter().enumerate() {
        let at = m.add_var(VarKind::Continuous, 0.0, 1.0);
        for &i in set {
            // a_t - z_i <= 0
            m.add_constraint(LinExpr::from_terms([(at, 1.0), (z[i], -1.0)]), Cmp::Le, 0.0);
        }
        obj.add_term(at, inst.weights[t]);
        a.push(at);
    }
    m.add_le(z.iter().map(|&v| (v, 1.0)), budget as f64);
    m.set_objective_expr(obj);
    let sol = m.solve(opts)?;
    let enabled: Vec<bool> = z.iter().map(|&v| sol[v] > 0.5).collect();
    let chosen = enabled
        .iter()
        .enumerate()
        .filter(|(_, e)| **e)
        .map(|(i, _)| i)
        .collect();
    Ok(CoverageResult::from_enabled(inst, &enabled, chosen))
}

/// Coverage fraction achievable at each budget in `budgets` (greedy).
///
/// This regenerates Fig. 17c's "requests served vs. % microservices
/// enabled" curves.
pub fn coverage_curve(inst: &CoverageInstance, budgets: &[usize]) -> Vec<(usize, f64)> {
    let total = inst.total_weight();
    budgets
        .iter()
        .map(|&b| {
            let r = greedy_max_coverage(inst, b);
            (
                b,
                if total > 0.0 {
                    r.covered_weight / total
                } else {
                    0.0
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CoverageInstance {
        // items 0..5; templates: {0} w=10, {0,1} w=6, {2,3,4} w=9, {4} w=2
        CoverageInstance::new(
            5,
            vec![vec![0], vec![0, 1], vec![2, 3, 4], vec![4]],
            vec![10.0, 6.0, 9.0, 2.0],
        )
    }

    /// Weight served when exactly the items in `enabled` are on.
    fn covered_weight(inst: &CoverageInstance, enabled: &[bool]) -> f64 {
        CoverageResult::from_enabled(inst, enabled, Vec::new()).covered_weight
    }

    #[test]
    fn covered_weight_all_or_nothing() {
        let inst = small();
        let w = |enabled: &[bool]| covered_weight(&inst, enabled);
        assert_eq!(w(&[true, false, false, false, false]), 10.0);
        assert_eq!(w(&[true, true, false, false, false]), 16.0);
        // Partial template {2,3,4} serves nothing.
        assert_eq!(w(&[false, false, true, true, false]), 0.0);
        assert_eq!(w(&[true; 5]), 27.0);
    }

    #[test]
    fn greedy_budget_respected_and_reasonable() {
        let inst = small();
        let r = greedy_max_coverage(&inst, 2);
        assert!(r.chosen.len() <= 2);
        // Best 2-item choice is {0,1} → 16.
        assert_eq!(r.covered_weight, 16.0);
        let r0 = greedy_max_coverage(&inst, 0);
        assert_eq!(r0.covered_weight, 0.0);
        let rall = greedy_max_coverage(&inst, 5);
        assert_eq!(rall.covered_weight, 27.0);
    }

    #[test]
    fn greedy_target_reaches_percentile() {
        let inst = small();
        let total = inst.total_weight();
        let r = greedy_min_items_for_target(&inst, 0.5);
        assert!(r.covered_weight >= 0.5 * total);
        // P50 of 27 = 13.5 → items {0,1} (16) suffice; greedy should not
        // enable the expensive 3-item template first.
        assert!(r.chosen.len() <= 2);
        let r1 = greedy_min_items_for_target(&inst, 1.0);
        assert_eq!(r1.covered_weight, total);
    }

    #[test]
    fn exact_matches_brute_force_small() {
        let inst = small();
        for budget in 0..=5 {
            let exact = lp_max_coverage(&inst, budget, &SolveOptions::default()).unwrap();
            // Brute-force all subsets of ≤ budget items.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << inst.num_items) {
                if mask.count_ones() as usize > budget {
                    continue;
                }
                let enabled: Vec<bool> = (0..inst.num_items).map(|i| mask >> i & 1 == 1).collect();
                best = best.max(covered_weight(&inst, &enabled));
            }
            assert!(
                (exact.covered_weight - best).abs() < 1e-6,
                "budget {budget}: exact {} vs brute {best}",
                exact.covered_weight
            );
        }
    }

    #[test]
    fn curve_is_monotone() {
        let inst = small();
        let curve = coverage_curve(&inst, &[0, 1, 2, 3, 4, 5]);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }
}
