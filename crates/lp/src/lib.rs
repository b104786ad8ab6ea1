//! Linear and mixed-integer programming substrate for Phoenix.
//!
//! The paper formulates graceful degradation as an integer linear program
//! (`LPFair` / `LPCost`, §4 and Appendix C) solved with Gurobi, and uses a
//! coverage LP to analyze the Alibaba traces (Appendix G). Gurobi is
//! proprietary, so this crate implements the required machinery from
//! scratch:
//!
//! * [`Model`] — a small modelling API (variables, linear constraints,
//!   maximize/minimize objectives),
//! * a *bounded-variable two-phase primal simplex* for the LP relaxation
//!   ([`model::Model::solve`] on continuous models),
//! * *branch-and-bound* over binary variables with node/time limits, and
//! * [`coverage`] — the budgeted maximum-coverage LP/greedy used for
//!   frequency-based criticality tagging and the Fig. 17 analysis.
//!
//! The solver is exact on the instances the paper uses it for (small
//! clusters) and — true to Fig. 8b — detects and reports when instances stop
//! being tractable instead of hanging, via [`SolveOptions`] limits.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x <= 2.5`:
//!
//! ```
//! use phoenix_lp::{LinExpr, Model, Sense, VarKind};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(VarKind::Continuous, 0.0, 2.5);
//! let y = m.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
//! m.add_le([(x, 1.0), (y, 1.0)], 4.0);
//! m.set_objective_expr(LinExpr::from_terms([(x, 3.0), (y, 2.0)]));
//! let sol = m.solve(&Default::default())?;
//! assert!((sol.objective - 10.5).abs() < 1e-6);
//! assert!((sol[x] - 2.5).abs() < 1e-6);
//! # Ok::<(), phoenix_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod expr;
mod model;
mod simplex;

mod branch_bound;

pub use expr::{LinExpr, VarId};
pub use model::{Cmp, LimitKind, LpError, Model, Sense, Solution, SolveOptions, Status, VarKind};
