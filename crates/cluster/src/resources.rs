use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A two-dimensional resource vector: CPU cores and memory.
///
/// The paper's AdaptLab experiments use a scalar resource model (CPU only);
/// the CloudLab deployment sizes pods by CPU *and* memory. Both fit here —
/// scalar workloads simply leave `mem` at zero via [`Resources::cpu`].
///
/// Arithmetic is componentwise. "Fitting" is componentwise domination:
/// a demand fits in a capacity iff both dimensions fit.
///
/// # Examples
///
/// ```
/// use phoenix_cluster::Resources;
///
/// let capacity = Resources::new(8.0, 32.0);
/// let demand = Resources::new(2.0, 4.0);
/// assert!(demand.fits_in(&capacity));
/// assert_eq!(capacity - demand, Resources::new(6.0, 28.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// CPU cores (fractional allowed, as in Kubernetes millicores).
    pub cpu: f64,
    /// Memory in GiB.
    pub mem: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources { cpu: 0.0, mem: 0.0 };

    /// Creates a resource vector.
    ///
    /// # Panics
    ///
    /// Panics if either component is NaN or negative (debug builds assert;
    /// release builds clamp to zero).
    pub fn new(cpu: f64, mem: f64) -> Resources {
        debug_assert!(!cpu.is_nan() && !mem.is_nan(), "resources must not be NaN");
        debug_assert!(cpu >= 0.0 && mem >= 0.0, "resources must be non-negative");
        Resources {
            cpu: cpu.max(0.0),
            mem: mem.max(0.0),
        }
    }

    /// A CPU-only vector (memory zero) — the paper's scalar model.
    pub fn cpu(cpu: f64) -> Resources {
        Resources::new(cpu, 0.0)
    }

    /// Componentwise domination with a small tolerance: can `self` be
    /// placed inside `capacity`?
    pub fn fits_in(&self, capacity: &Resources) -> bool {
        self.cpu <= capacity.cpu + 1e-9 && self.mem <= capacity.mem + 1e-9
    }

    /// Saturating subtraction (never goes below zero in any component).
    pub fn saturating_sub(&self, rhs: &Resources) -> Resources {
        Resources {
            cpu: (self.cpu - rhs.cpu).max(0.0),
            mem: (self.mem - rhs.mem).max(0.0),
        }
    }

    /// The scalar used for capacity ordering and utilization accounting.
    ///
    /// CPU is the paper's primary (and in AdaptLab, only) dimension, so
    /// ordering keys and fair-share math use it directly.
    pub fn scalar(&self) -> f64 {
        self.cpu
    }

    /// Fraction of `capacity` that `self` occupies, measured on the scalar
    /// dimension; 0.0 when capacity is zero.
    pub fn fraction_of(&self, capacity: &Resources) -> f64 {
        if capacity.scalar() <= 1e-12 {
            0.0
        } else {
            self.scalar() / capacity.scalar()
        }
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mem == 0.0 {
            write!(f, "{:.2} cpu", self.cpu)
        } else {
            write!(f, "{:.2} cpu / {:.2} GiB", self.cpu, self.mem)
        }
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu + rhs.cpu,
            mem: self.mem + rhs.mem,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu += rhs.cpu;
        self.mem += rhs.mem;
    }
}

impl Sub for Resources {
    type Output = Resources;

    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu - rhs.cpu,
            mem: self.mem - rhs.mem,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        self.cpu -= rhs.cpu;
        self.mem -= rhs.mem;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;

    fn mul(self, rhs: f64) -> Resources {
        Resources {
            cpu: self.cpu * rhs,
            mem: self.mem * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resources::new(4.0, 8.0);
        let b = Resources::new(1.5, 2.0);
        assert_eq!(a + b, Resources::new(5.5, 10.0));
        assert_eq!(a - b, Resources::new(2.5, 6.0));
        assert_eq!(b * 2.0, Resources::new(3.0, 4.0));
        let total: Resources = [a, b].into_iter().sum();
        assert_eq!(total, Resources::new(5.5, 10.0));
    }

    #[test]
    fn fits_respects_both_dims() {
        let cap = Resources::new(4.0, 4.0);
        assert!(Resources::new(4.0, 4.0).fits_in(&cap));
        assert!(!Resources::new(4.1, 1.0).fits_in(&cap));
        assert!(!Resources::new(1.0, 4.1).fits_in(&cap));
        assert!(Resources::ZERO.fits_in(&cap));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Resources::new(1.0, 1.0);
        let b = Resources::new(2.0, 0.5);
        assert_eq!(a.saturating_sub(&b), Resources::new(0.0, 0.5));
    }

    #[test]
    fn fraction_and_scalar() {
        let cap = Resources::cpu(10.0);
        assert_eq!(Resources::cpu(2.5).fraction_of(&cap), 0.25);
        assert_eq!(Resources::cpu(1.0).fraction_of(&Resources::ZERO), 0.0);
    }
}
