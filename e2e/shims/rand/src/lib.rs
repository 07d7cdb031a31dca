//! Offline stand-in for `rand` 0.8: the names the engine's data and weight
//! generators use (`StdRng::seed_from_u64`, `gen_range`, `gen_bool`,
//! `shuffle`), over a deterministic xorshift64* generator. The stream
//! differs from the published crate's ChaCha `StdRng`, so generated
//! datasets and weights differ in value — not in shape, size or cost.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construct a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw.
pub trait SampleUniform: Sized + PartialOrd + Copy {
    /// Uniform in `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample(lo: Self, hi: Self, inclusive: bool, word: u64) -> Self;
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(lo: Self, hi: Self, inclusive: bool, word: u64) -> Self {
                let span = (hi as i128 - lo as i128) + i128::from(inclusive);
                assert!(span > 0, "gen_range: empty range");
                (lo as i128 + (u128::from(word) % span as u128) as i128) as $t
            }
        }
    )*};
}
int_uniform!(i32, i64, u32, u64, usize);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(lo: Self, hi: Self, _inclusive: bool, word: u64) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                // 53 (24 for f32 after the cast) uniform mantissa bits in [0, 1).
                let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
                let v = lo as f64 + (hi as f64 - lo as f64) * unit;
                // The cast to f32 may round up to `hi`; keep the range half-open.
                if (v as $t) < hi { v as $t } else { lo }
            }
        }
    )*};
}
float_uniform!(f32, f64);

/// A range `gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_from(self, word: u64) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, word: u64) -> T {
        T::sample(self.start, self.end, false, word)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, word: u64) -> T {
        T::sample(*self.start(), *self.end(), true, word)
    }
}

/// Convenience draws over any [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self.next_u64())
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(0.0, 1.0, false, self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xorshift64* with a splitmix64-scrambled seed.
    #[derive(Clone, Debug)]
    pub struct StdRng(u64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            StdRng(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice shuffling.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        /// Fisher–Yates.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}
