use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::expr::{LinExpr, VarId};
use crate::{branch_bound, simplex};

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A continuous variable within its bounds.
    Continuous,
    /// A 0/1 variable, handled by branch-and-bound.
    Binary,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Maximize the objective.
    #[default]
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear constraint `expr cmp rhs` (the expression's constant is folded
/// into the right-hand side when the constraint is added).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// The (normalized) left-hand side.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The comparison operator.
    pub fn cmp(&self) -> Cmp {
        self.cmp
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Whether `values` satisfies this constraint within `tol`.
    pub fn satisfied_by(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(values);
        match self.cmp {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarInfo {
    pub(crate) name: String,
    pub(crate) kind: VarKind,
    pub(crate) lb: f64,
    pub(crate) ub: f64,
}

/// Solver limits and tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Maximum simplex iterations per LP solve.
    pub max_simplex_iters: u64,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: u64,
    /// Wall-clock budget for the whole solve.
    pub time_limit: Option<Duration>,
    /// Integrality tolerance for binary variables.
    pub int_tol: f64,
    /// Run the root diving heuristic to seed an incumbent (recommended for
    /// instances with many binaries).
    pub dive_heuristic: bool,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            max_simplex_iters: 200_000,
            max_nodes: 200_000,
            time_limit: None,
            int_tol: 1e-6,
            dive_heuristic: true,
        }
    }
}

/// Which limit interrupted an unfinished solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// Simplex iteration cap hit.
    Iterations,
    /// Branch-and-bound node cap hit.
    Nodes,
    /// Wall-clock budget exhausted.
    Time,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Iterations => write!(f, "iteration limit"),
            LimitKind::Nodes => write!(f, "node limit"),
            LimitKind::Time => write!(f, "time limit"),
        }
    }
}

/// Quality of a returned [`Solution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Proven optimal.
    Optimal,
    /// Feasible incumbent returned, but a limit stopped the proof of
    /// optimality (MILP) or the simplex run (LP).
    FeasibleLimit(LimitKind),
}

/// Errors (including infeasibility outcomes) from [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// The model is malformed (bad bounds, NaN coefficients, unknown vars…).
    InvalidModel(String),
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective can grow without bound.
    Unbounded,
    /// A limit was reached before any feasible point was found.
    LimitReached(LimitKind),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            LpError::Infeasible => write!(f, "model is infeasible"),
            LpError::Unbounded => write!(f, "model is unbounded"),
            LpError::LimitReached(k) => {
                write!(f, "{k} reached before a feasible point was found")
            }
        }
    }
}

impl Error for LpError {}

/// A feasible solution returned by [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal, or feasible-with-limit.
    pub status: Status,
    /// Objective value at `values`, in the model's own sense.
    pub objective: f64,
    /// Best proven bound on the objective (equals `objective` when optimal).
    pub bound: f64,
    /// Branch-and-bound nodes explored (1 for pure LPs).
    pub nodes: u64,
    /// Total simplex iterations across all LP solves.
    pub iterations: u64,
    pub(crate) values: Vec<f64>,
}

impl Solution {
    /// Value of `var` in the solution.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl std::ops::Index<VarId> for Solution {
    type Output = f64;

    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.index()]
    }
}

/// A linear or mixed-binary optimization model.
///
/// See the [crate-level docs](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Model {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// Binary variables have their bounds intersected with `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, if `lb` is not finite, or if a bound is NaN —
    /// these are programming errors in model construction.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, lb: f64, ub: f64) -> VarId {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lb.is_finite(), "lower bounds must be finite (got {lb})");
        let (lb, ub) = match kind {
            VarKind::Binary => (lb.max(0.0), ub.min(1.0)),
            VarKind::Continuous => (lb, ub),
        };
        assert!(lb <= ub, "lower bound {lb} exceeds upper bound {ub}");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.into(),
            kind,
            lb,
            ub,
        });
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a constraint `expr cmp rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable not in this model or
    /// contains non-finite coefficients.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        let mut expr = expr.into();
        assert!(
            !expr.has_non_finite(),
            "constraint has non-finite coefficients"
        );
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        expr.normalize();
        for &(v, _) in expr.terms() {
            assert!(
                v.index() < self.vars.len(),
                "constraint references unknown variable {v}"
            );
        }
        let (expr, k) = expr.split_constant();
        self.constraints.push(Constraint {
            expr,
            cmp,
            rhs: rhs - k,
        });
    }

    /// Convenience: `Σ terms <= rhs`.
    pub fn add_le(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) {
        self.add_constraint(LinExpr::from_terms(terms), Cmp::Le, rhs);
    }

    /// Convenience: `Σ terms >= rhs`.
    pub fn add_ge(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) {
        self.add_constraint(LinExpr::from_terms(terms), Cmp::Ge, rhs);
    }

    /// Convenience: `Σ terms == rhs`.
    pub fn add_eq(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) {
        self.add_constraint(LinExpr::from_terms(terms), Cmp::Eq, rhs);
    }

    /// Sets the objective to `Σ terms`.
    pub fn set_objective(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>) {
        self.set_objective_expr(LinExpr::from_terms(terms));
    }

    /// Sets the objective to an arbitrary linear expression.
    ///
    /// # Panics
    ///
    /// Panics on unknown variables or non-finite coefficients.
    pub fn set_objective_expr(&mut self, expr: impl Into<LinExpr>) {
        let mut expr = expr.into();
        assert!(
            !expr.has_non_finite(),
            "objective has non-finite coefficients"
        );
        expr.normalize();
        for &(v, _) in expr.terms() {
            assert!(
                v.index() < self.vars.len(),
                "objective references unknown variable {v}"
            );
        }
        self.objective = expr;
    }

    /// Name given to `var` at creation.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// All ids of binary variables.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// The constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether `values` satisfies every constraint, bound, and integrality
    /// requirement within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            if values[i] < v.lb - tol || values[i] > v.ub + tol {
                return false;
            }
            if v.kind == VarKind::Binary && (values[i] - values[i].round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.satisfied_by(values, tol))
    }

    /// Solves the model.
    ///
    /// Pure-continuous models run a single two-phase simplex; models with
    /// binaries run branch-and-bound over simplex relaxations.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] / [`LpError::Unbounded`] for the usual
    ///   pathological outcomes,
    /// * [`LpError::LimitReached`] when a limit fired before *any* feasible
    ///   point was found (a limit hit after an incumbent exists yields
    ///   `Ok` with [`Status::FeasibleLimit`]),
    /// * [`LpError::InvalidModel`] for malformed models.
    pub fn solve(&self, opts: &SolveOptions) -> Result<Solution, LpError> {
        if self.vars.is_empty() {
            return Ok(Solution {
                status: Status::Optimal,
                objective: self.objective.constant(),
                bound: self.objective.constant(),
                nodes: 1,
                iterations: 0,
                values: Vec::new(),
            });
        }
        let binaries = self.binary_vars();
        if binaries.is_empty() {
            simplex::solve_model(self, opts)
        } else {
            branch_bound::solve_milp(self, &binaries, opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        // x + 3 <= 5  =>  x <= 2
        m.add_constraint(LinExpr::term(x, 1.0) + 3.0, Cmp::Le, 5.0);
        assert_eq!(m.constraints()[0].rhs(), 2.0);
        assert_eq!(m.constraints()[0].expr().constant(), 0.0);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_var("b", VarKind::Binary, -5.0, 9.0);
        let var = &m.vars[b.index()];
        assert_eq!((var.lb, var.ub), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", VarKind::Continuous, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_var_in_constraint_panics() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_var("x", VarKind::Continuous, 0.0, 1.0);
        m.add_le([(VarId(5), 1.0)], 1.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 4.0);
        let b = m.add_binary("b");
        m.add_le([(x, 1.0), (b, 2.0)], 5.0);
        assert!(m.is_feasible(&[3.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[4.0, 1.0], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[1.0, 0.5], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[5.0, 0.0], 1e-9)); // bound violated
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn empty_model_solves_to_constant() {
        let m = Model::new(Sense::Minimize);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.status == Status::Optimal);
    }
}
