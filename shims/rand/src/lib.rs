//! Vendored, API-compatible shim for the slice of `rand` 0.8 this
//! workspace uses: `StdRng` + `SeedableRng::seed_from_u64`, the [`Rng`]
//! extension trait (`gen_range`, `gen_bool`), and
//! [`seq::SliceRandom::shuffle`]/[`seq::SliceRandom::choose`].
//!
//! The build environment has no access to crates.io, so this crate stands
//! in via a `[workspace.dependencies]` path entry. Determinism is the only
//! statistical property the workspace relies on (every caller seeds via
//! `seed_from_u64`); the generator is xoshiro256**, seeded through
//! SplitMix64 exactly like `rand_xoshiro` does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness: 64 uniformly distributed bits per call.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator seedable from a `u64` (the only constructor the workspace
/// uses; the full `rand` seed-array API is intentionally absent).
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing extension methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = unit_f64(rng.next_u64()) as $t;
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let unit = unit_f64(rng.next_u64()) as $t;
                lo + (hi - lo) * unit
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**,
    /// seeded through SplitMix64 (same construction as `rand_xoshiro`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related extensions (`shuffle`, `choose`).
pub mod seq {
    use super::Rng;

    /// Extension trait for slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type of the sequence.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns one uniformly chosen element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let i: u8 = rng.gen_range(1..=4);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
