//! Simulation time: milliseconds since scenario start.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (millisecond resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Scenario start.
    pub const ZERO: SimTime = SimTime(0);

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1000)
    }

    /// From fractional seconds (rounded to ms; negative clamps to zero).
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime((secs.max(0.0) * 1000.0).round() as u64)
    }

    /// Milliseconds since scenario start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since scenario start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    /// Saturates at the end of time, so a schedule past it stays past
    /// every horizon instead of wrapping to the past.
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`SimTime::saturating_sub`] when order is unknown.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a + b, SimTime::from_secs(14));
        assert_eq!(a - b, SimTime::from_secs(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(b < a);
        assert_eq!(a.to_string(), "10.0s");
    }

    #[test]
    fn addition_saturates_at_the_end_of_time() {
        let end = SimTime::from_millis(u64::MAX);
        assert_eq!(SimTime::from_secs(1) + end, end);
        let mut t = end;
        t += SimTime::from_secs(1);
        assert_eq!(t, end);
    }
}
