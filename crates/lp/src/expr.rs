use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Identifier of a decision variable inside a [`crate::Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable in its model.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ coeff·var + constant`.
///
/// Built from variables and `f64`s with ordinary operators. Terms on the
/// same variable are merged by [`LinExpr::normalize`], which model-building
/// calls apply automatically.
///
/// # Examples
///
/// ```
/// use phoenix_lp::{LinExpr, Model, Sense, VarKind};
///
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.add_var(VarKind::Continuous, 0.0, 1.0);
/// let y = m.add_var(VarKind::Continuous, 0.0, 1.0);
/// let e: LinExpr = LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0) + 3.0;
/// assert_eq!(e.constant(), 3.0);
/// assert_eq!(e.eval(&[1.0, 0.0]), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// A single term `coeff * var`.
    pub fn term(var: VarId, coeff: f64) -> LinExpr {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// A constant expression.
    pub fn constant_expr(c: f64) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Builds an expression from `(var, coeff)` pairs.
    pub fn from_terms(terms: impl IntoIterator<Item = (VarId, f64)>) -> LinExpr {
        LinExpr {
            terms: terms.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Adds `coeff * var` in place.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut LinExpr {
        self.terms.push((var, coeff));
        self
    }

    /// The additive constant.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The `(var, coeff)` terms (possibly unmerged until normalized).
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Merges duplicate variables and drops zero coefficients.
    pub fn normalize(&mut self) {
        self.terms.sort_by_key(|(v, _)| *v);
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => merged.push((v, c)),
            }
        }
        merged.retain(|(_, c)| c.abs() > 0.0);
        self.terms = merged;
    }

    /// Evaluates the expression against a dense assignment.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable index is out of bounds for `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }

    /// Splits off the additive constant, returning the pure-linear part and
    /// the constant separately.
    pub fn split_constant(mut self) -> (LinExpr, f64) {
        let k = self.constant;
        self.constant = 0.0;
        (self, k)
    }

    /// Returns `true` when any coefficient or the constant is NaN/infinite.
    pub fn has_non_finite(&self) -> bool {
        !self.constant.is_finite() || self.terms.iter().any(|(_, c)| !c.is_finite())
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> LinExpr {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> LinExpr {
        LinExpr::constant_expr(c)
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (VarId, f64)>>(iter: T) -> LinExpr {
        LinExpr::from_terms(iter)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;

    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;

    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;

    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;

    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;

    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn build_and_eval() {
        let e = LinExpr::term(v(0), 2.0) + LinExpr::term(v(1), -1.0) + 5.0;
        assert_eq!(e.eval(&[3.0, 4.0]), 2.0 * 3.0 - 4.0 + 5.0);
    }

    #[test]
    fn normalize_merges_and_drops_zeros() {
        let mut e = LinExpr::from_terms([(v(1), 2.0), (v(0), 1.0), (v(1), -2.0), (v(2), 0.5)]);
        e.normalize();
        assert_eq!(e.terms(), &[(v(0), 1.0), (v(2), 0.5)]);
    }

    #[test]
    fn operators() {
        let a = LinExpr::term(v(0), 1.0);
        let b = LinExpr::term(v(0), 3.0);
        let mut d = (a.clone() - b) * 2.0;
        d.normalize();
        assert_eq!(d.terms(), &[(v(0), -4.0)]);
        let n = -LinExpr::term(v(1), 2.5) + 1.0;
        assert_eq!(n.terms(), &[(v(1), -2.5)]);
        assert_eq!(n.constant(), 1.0);
    }

    #[test]
    fn non_finite_detection() {
        let e = LinExpr::term(v(0), f64::NAN);
        assert!(e.has_non_finite());
        let ok = LinExpr::term(v(0), 1.0) + 2.0;
        assert!(!ok.has_non_finite());
    }
}
