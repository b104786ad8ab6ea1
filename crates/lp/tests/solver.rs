//! Correctness tests for the simplex + branch-and-bound solver, including
//! property tests against independent reference algorithms (fractional
//! knapsack greedy, 0/1-knapsack DP).

use std::time::Duration;

use phoenix_lp::{
    Cmp, LinExpr, LpError, Model, Sense, Solution, SolveOptions, Status, VarId, VarKind,
};
use proptest::prelude::*;

fn opts() -> SolveOptions {
    SolveOptions::default()
}

/// `sol`'s values of `vars`, in order: the dense assignment
/// `Model::is_feasible` checks when `vars` are all of the model's variables.
fn values_of(sol: &Solution, vars: &[VarId]) -> Vec<f64> {
    vars.iter().map(|&v| sol[v]).collect()
}

#[test]
fn basic_lp_maximize() {
    // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  (classic optimum 36)
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    m.add_le([(x, 1.0)], 4.0);
    m.add_le([(y, 2.0)], 12.0);
    m.add_le([(x, 3.0), (y, 2.0)], 18.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 3.0), (y, 5.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!(sol.status == Status::Optimal);
    assert!((sol.objective - 36.0).abs() < 1e-6);
    assert!((sol[x] - 2.0).abs() < 1e-6);
    assert!((sol[y] - 6.0).abs() < 1e-6);
}

#[test]
fn basic_lp_minimize_with_ge() {
    // min 2x + 3y  s.t.  x + y >= 10, x >= 2, y >= 3  → x=7, y=3, obj 23
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(VarKind::Continuous, 2.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 3.0, f64::INFINITY);
    m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 10.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 2.0), (y, 3.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol.objective - 23.0).abs() < 1e-6);
    assert!((sol[x] - 7.0).abs() < 1e-6);
}

#[test]
fn equality_constraints() {
    // max x + y  s.t.  x + y = 5, x - y = 1  → x=3, y=2
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Eq, 5.0);
    m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Eq, 1.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol[x] - 3.0).abs() < 1e-6);
    assert!((sol[y] - 2.0).abs() < 1e-6);
}

#[test]
fn infeasible_detected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, 0.0, 1.0);
    m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 2.0);
    assert_eq!(m.solve(&opts()), Err(LpError::Infeasible));
}

#[test]
fn unbounded_detected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, -1.0)]), Cmp::Ge, 0.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 1.0)]));
    assert_eq!(m.solve(&opts()), Err(LpError::Unbounded));
}

#[test]
fn optimum_on_variable_bounds_without_constraints() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, -2.0, 7.5);
    let y = m.add_var(VarKind::Continuous, 1.0, 3.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 2.0), (y, -1.0)]));
    // Need at least one row for the tableau; add a redundant one.
    m.add_le([(x, 1.0), (y, 1.0)], 100.0);
    let sol = m.solve(&opts()).unwrap();
    assert!((sol[x] - 7.5).abs() < 1e-6);
    assert!((sol[y] - 1.0).abs() < 1e-6);
    assert!((sol.objective - 14.0).abs() < 1e-6);
}

#[test]
fn zero_row_model_no_constraints() {
    // No constraints at all: optimum from bounds directly.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(VarKind::Continuous, -3.0, 10.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 1.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol[x] + 3.0).abs() < 1e-6);
}

#[test]
fn negative_rhs_rows_normalized() {
    // -x - y <= -4  ≡  x + y >= 4 ; min x + 2y with y <= 1 → x=3, y=1? obj 5
    // vs y=0 → x=4 obj 4. Optimal: y=0, x=4.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 0.0, 1.0);
    m.add_le([(x, -1.0), (y, -1.0)], -4.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 1.0), (y, 2.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol.objective - 4.0).abs() < 1e-6);
}

#[test]
fn degenerate_lp_terminates() {
    // Many redundant constraints intersecting at the same vertex.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
    for k in 1..=12 {
        m.add_le([(x, 1.0), (y, k as f64)], 10.0 + (k - 1) as f64 * 10.0);
    }
    m.add_le([(x, 1.0)], 10.0);
    m.set_objective_expr(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!(sol.status == Status::Optimal);
    assert!(m.is_feasible(&values_of(&sol, &[x, y]), 1e-6));
}

#[test]
fn simple_milp_knapsack() {
    // values 60,100,120; weights 10,20,30; cap 50 → take items 1,2 → 220
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_binary();
    let b = m.add_binary();
    let c = m.add_binary();
    m.add_le([(a, 10.0), (b, 20.0), (c, 30.0)], 50.0);
    m.set_objective_expr(LinExpr::from_terms([(a, 60.0), (b, 100.0), (c, 120.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!(sol.status == Status::Optimal);
    assert!((sol.objective - 220.0).abs() < 1e-6);
    assert!(sol[a] < 0.5 && sol[b] > 0.5 && sol[c] > 0.5);
}

#[test]
fn milp_with_continuous_mix() {
    // max 5b + x  s.t. x <= 3 + 2b (as x - 2b <= 3), x <= 4, b binary.
    // b=1: x=4 (since 4 <= 5) → 9. b=0: x=3 → 3.
    let mut m = Model::new(Sense::Maximize);
    let b = m.add_binary();
    let x = m.add_var(VarKind::Continuous, 0.0, 4.0);
    m.add_constraint(LinExpr::from_terms([(x, 1.0), (b, -2.0)]), Cmp::Le, 3.0);
    m.set_objective_expr(LinExpr::from_terms([(b, 5.0), (x, 1.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol.objective - 9.0).abs() < 1e-6);
}

#[test]
fn milp_infeasible() {
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_binary();
    let b = m.add_binary();
    m.add_constraint(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), Cmp::Ge, 3.0);
    assert_eq!(m.solve(&opts()), Err(LpError::Infeasible));
}

#[test]
fn milp_equality_forces_assignment() {
    // Exactly one of three binaries; maximize weighted sum.
    let mut m = Model::new(Sense::Maximize);
    let v: Vec<_> = (0..3).map(|_| m.add_binary()).collect();
    m.add_constraint(
        LinExpr::from_terms(v.iter().map(|&b| (b, 1.0))),
        Cmp::Eq,
        1.0,
    );
    m.set_objective_expr(LinExpr::from_terms([(v[0], 1.0), (v[1], 5.0), (v[2], 3.0)]));
    let sol = m.solve(&opts()).unwrap();
    assert!((sol.objective - 5.0).abs() < 1e-6);
    assert!(sol[v[1]] > 0.5);
}

#[test]
fn time_limit_surfaces_as_status_or_error() {
    // A deliberately nasty MILP (market split style) with a tiny budget.
    let mut m = Model::new(Sense::Maximize);
    let n = 24;
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    let w: Vec<f64> = (0..n)
        .map(|i| ((i * 7919 + 13) % 97) as f64 + 1.0)
        .collect();
    let half: f64 = w.iter().sum::<f64>() / 2.0;
    m.add_constraint(
        LinExpr::from_terms(vars.iter().zip(&w).map(|(&v, &c)| (v, c))),
        Cmp::Eq,
        half.floor() + 0.5,
    );
    m.set_objective_expr(LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))));
    let o = SolveOptions {
        time_limit: Some(Duration::from_millis(50)),
        ..SolveOptions::default()
    };
    // Either proven infeasible quickly, or the limit fires; both are fine —
    // what must not happen is a hang or a bogus "optimal feasible" claim.
    match m.solve(&o) {
        Ok(sol) => assert!(matches!(
            sol.status,
            Status::FeasibleLimit(_) | Status::Optimal
        )),
        Err(LpError::Infeasible | LpError::LimitReached(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn node_limit_keeps_incumbent() {
    let mut m = Model::new(Sense::Maximize);
    let n = 16;
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    let w: Vec<f64> = (0..n).map(|i| (i % 5 + 1) as f64).collect();
    m.add_le(vars.iter().zip(&w).map(|(&v, &c)| (v, c)), 11.0);
    m.set_objective_expr(LinExpr::from_terms(
        vars.iter().zip(&w).map(|(&v, &c)| (v, c * 1.5 + 1.0)),
    ));
    let o = SolveOptions {
        max_nodes: 5,
        ..SolveOptions::default()
    };
    match m.solve(&o) {
        Ok(sol) => {
            assert!(m.is_feasible(&values_of(&sol, &vars), 1e-6));
            if sol.status != Status::Optimal {
                assert!(sol.bound >= sol.objective - 1e-9);
            }
        }
        Err(LpError::LimitReached(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Property tests against reference algorithms
// ---------------------------------------------------------------------------

/// Reference: fractional knapsack by value-density greedy (optimal for the
/// LP relaxation of knapsack).
fn fractional_knapsack(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| (values[b] / weights[b]).total_cmp(&(values[a] / weights[a])));
    let mut rem = cap;
    let mut total = 0.0;
    for i in idx {
        if rem <= 0.0 {
            break;
        }
        let take = weights[i].min(rem);
        total += values[i] * take / weights[i];
        rem -= take;
    }
    total
}

/// Reference: 0/1 knapsack via exhaustive enumeration (n <= 14).
fn knapsack_brute(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let (mut v, mut w) = (0.0, 0.0);
        for i in 0..n {
            if mask >> i & 1 == 1 {
                v += values[i];
                w += weights[i];
            }
        }
        if w <= cap + 1e-9 {
            best = best.max(v);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_matches_fractional_knapsack(
        items in proptest::collection::vec((1.0f64..50.0, 1.0f64..20.0), 1..20),
        cap_frac in 0.1f64..0.9,
    ) {
        let values: Vec<f64> = items.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = items.iter().map(|p| p.1).collect();
        let cap = weights.iter().sum::<f64>() * cap_frac;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..values.len())
            .map(|_| m.add_var(VarKind::Continuous, 0.0, 1.0))
            .collect();
        m.add_le(vars.iter().zip(&weights).map(|(&v, &w)| (v, w)), cap);
        m.set_objective_expr(LinExpr::from_terms(vars.iter().zip(&values).map(|(&v, &c)| (v, c))));
        let sol = m.solve(&opts()).unwrap();
        let reference = fractional_knapsack(&values, &weights, cap);
        prop_assert!((sol.objective - reference).abs() < 1e-6 * (1.0 + reference),
            "lp={} greedy={}", sol.objective, reference);
        prop_assert!(m.is_feasible(&values_of(&sol, &vars), 1e-6));
    }

    #[test]
    fn milp_matches_knapsack_brute_force(
        items in proptest::collection::vec((1.0f64..50.0, 1.0f64..20.0), 1..11),
        cap_frac in 0.1f64..0.9,
    ) {
        let values: Vec<f64> = items.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = items.iter().map(|p| p.1).collect();
        let cap = weights.iter().sum::<f64>() * cap_frac;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..values.len())
            .map(|_| m.add_binary())
            .collect();
        m.add_le(vars.iter().zip(&weights).map(|(&v, &w)| (v, w)), cap);
        m.set_objective_expr(LinExpr::from_terms(vars.iter().zip(&values).map(|(&v, &c)| (v, c))));
        let sol = m.solve(&opts()).unwrap();
        let reference = knapsack_brute(&values, &weights, cap);
        prop_assert!(sol.status == Status::Optimal);
        prop_assert!((sol.objective - reference).abs() < 1e-6 * (1.0 + reference),
            "milp={} brute={}", sol.objective, reference);
        prop_assert!(m.is_feasible(&values_of(&sol, &vars), 1e-6));
    }

    #[test]
    fn random_lp_solutions_are_feasible_and_dominant(
        seedrows in proptest::collection::vec(
            (proptest::collection::vec(0.0f64..5.0, 4), 5.0f64..40.0), 1..8),
        obj in proptest::collection::vec(0.5f64..10.0, 4),
    ) {
        // max obj·x s.t. random non-negative rows ≤ rhs, 0 ≤ x ≤ 10.
        // Origin is always feasible, so the LP is feasible & bounded.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..4)
            .map(|_| m.add_var(VarKind::Continuous, 0.0, 10.0))
            .collect();
        for (row, rhs) in &seedrows {
            m.add_le(vars.iter().zip(row).map(|(&v, &c)| (v, c)), *rhs);
        }
        m.set_objective_expr(LinExpr::from_terms(vars.iter().zip(&obj).map(|(&v, &c)| (v, c))));
        let sol = m.solve(&opts()).unwrap();
        prop_assert!(sol.status == Status::Optimal);
        prop_assert!(m.is_feasible(&values_of(&sol, &vars), 1e-6));
        // The optimum must dominate a sample of feasible points: scaled
        // unit vectors pushed to their row limits.
        for k in 0..4 {
            let mut limit = 10.0f64;
            for (row, rhs) in &seedrows {
                if row[k] > 1e-12 {
                    limit = limit.min(rhs / row[k]);
                }
            }
            let candidate = obj[k] * limit;
            prop_assert!(sol.objective >= candidate - 1e-6 * (1.0 + candidate));
        }
    }
}
