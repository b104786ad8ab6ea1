//! Tests for the branch-and-bound diving heuristic and limit behaviour on
//! larger structured instances (the shapes LpPolicy generates).

use std::time::Duration;

use phoenix_lp::{Cmp, LinExpr, Model, Sense, SolveOptions, Status, VarKind};

/// A chained-activation instance like the Phoenix aggregate ILP: `n` apps
/// × `m` services with criticality chains and one capacity row.
fn chained_instance(apps: usize, services: usize, capacity: f64) -> Model {
    let mut model = Model::new(Sense::Maximize);
    let mut obj = LinExpr::new();
    let mut cap = LinExpr::new();
    for a in 0..apps {
        let xs: Vec<_> = (0..services)
            .map(|s| model.add_binary(format!("x_{a}_{s}")))
            .collect();
        // Chain: x_{s+1} <= x_s.
        for w in xs.windows(2) {
            model.add_constraint(
                LinExpr::from_terms([(w[1], 1.0), (w[0], -1.0)]),
                Cmp::Le,
                0.0,
            );
        }
        for (s, &x) in xs.iter().enumerate() {
            let demand = 1.0 + (s % 3) as f64;
            obj.add_term(x, demand * (1.0 + a as f64));
            cap.add_term(x, demand);
        }
        // Per-app cap keeps the relaxation fractional.
        model.add_le(
            xs.iter()
                .enumerate()
                .map(|(s, &x)| (x, 1.0 + (s % 3) as f64)),
            capacity / apps as f64 + 1.7,
        );
    }
    model.add_constraint(cap, Cmp::Le, capacity);
    model.set_objective_expr(obj);
    model
}

#[test]
fn dive_finds_incumbent_under_tight_time_limit() {
    let model = chained_instance(6, 8, 30.0);
    let with_dive = model.solve(&SolveOptions {
        time_limit: Some(Duration::from_millis(1500)),
        dive_heuristic: true,
        ..SolveOptions::default()
    });
    // With the dive we must get *some* feasible answer, optimal or not.
    let sol = with_dive.expect("dive yields an incumbent");
    assert!(matches!(
        sol.status,
        Status::Optimal | Status::FeasibleLimit(_)
    ));
    assert!(sol.objective >= 0.0);
}

#[test]
fn dive_solution_is_feasible_and_no_worse_than_trivial() {
    let model = chained_instance(4, 6, 18.0);
    let sol = model
        .solve(&SolveOptions {
            time_limit: Some(Duration::from_secs(10)),
            ..SolveOptions::default()
        })
        .expect("solvable");
    assert!(model.is_feasible(sol.values(), 1e-6));
    // All-zero is feasible with objective 0; the solver must beat it.
    assert!(sol.objective > 0.0);
}

#[test]
fn dive_off_still_correct_on_small_instances() {
    let model = chained_instance(2, 3, 8.0);
    let opts_off = SolveOptions {
        dive_heuristic: false,
        ..SolveOptions::default()
    };
    let off = model.solve(&opts_off).expect("small instance solves");
    let on = model.solve(&SolveOptions::default()).expect("solves");
    assert!(off.status == Status::Optimal && on.status == Status::Optimal);
    assert!((off.objective - on.objective).abs() < 1e-6);
}

#[test]
fn continuous_vars_untouched_by_dive() {
    // Mixed model: dive must only fix binaries.
    let mut m = Model::new(Sense::Maximize);
    let b1 = m.add_binary("b1");
    let b2 = m.add_binary("b2");
    let x = m.add_var("x", VarKind::Continuous, 0.0, 5.0);
    m.add_le([(b1, 2.0), (b2, 2.0), (x, 1.0)], 5.5);
    m.set_objective([(b1, 3.0), (b2, 3.0), (x, 1.0)]);
    let sol = m.solve(&SolveOptions::default()).unwrap();
    assert!(sol.status == Status::Optimal);
    // b1=b2=1 uses 4.0, x=1.5 → 7.5.
    assert!((sol.objective - 7.5).abs() < 1e-6);
    assert!((sol[x] - 1.5).abs() < 1e-6);
}
