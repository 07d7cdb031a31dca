//! The one seeded generator. Every synthetic dataset, weight tensor and
//! randomized test in the workspace draws from [`Rng`], so what a seed
//! expands to is a format, not an implementation detail: stored ratios,
//! partition files and replayed audit journals all depend on it. The stream
//! and the draw rules below are frozen (DESIGN.md "Deterministic corpus");
//! `tests/corpus_golden.rs` fails when they move.

use std::ops::{Range, RangeInclusive};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// xorshift64* over a splitmix64-scrambled seed. Every draw consumes
/// exactly one 64-bit word.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seed the generator. The splitmix64 finalizer spreads nearby seeds
    /// apart; xorshift's one fixed point, zero, is remapped.
    pub fn seed(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(GOLDEN);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { GOLDEN } else { z })
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `lo..hi` (integers and floats) or `lo..=hi`
    /// (integers). Panics on an empty range.
    #[inline]
    pub fn range<T, R: Bounds<T>>(&mut self, range: R) -> T {
        range.pick(self.next_u64())
    }

    /// True with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.range(0.0..1.0) < p
    }

    /// Fisher–Yates, walking down from the last slot.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..=i));
        }
    }
}

/// A range [`Rng::range`] can draw from: one word in, one value out.
pub trait Bounds<T> {
    fn pick(self, word: u64) -> T;
}

/// `lo + word % span` over the closed range `lo..=hi`, in i128 so that no
/// integer type's full range overflows.
#[inline]
fn offset(lo: i128, hi: i128, word: u64) -> i128 {
    assert!(lo <= hi, "range: empty");
    lo + (u128::from(word) % (hi - lo + 1) as u128) as i128
}

macro_rules! int_bounds {
    ($($t:ty),*) => {$(
        impl Bounds<$t> for Range<$t> {
            #[inline]
            fn pick(self, word: u64) -> $t {
                offset(self.start as i128, self.end as i128 - 1, word) as $t
            }
        }
        impl Bounds<$t> for RangeInclusive<$t> {
            #[inline]
            fn pick(self, word: u64) -> $t {
                offset(*self.start() as i128, *self.end() as i128, word) as $t
            }
        }
    )*};
}
int_bounds!(u8, i32, i64, u32, u64, usize);

macro_rules! float_bounds {
    ($($t:ty),*) => {$(
        impl Bounds<$t> for Range<$t> {
            #[inline]
            fn pick(self, word: u64) -> $t {
                let (lo, hi) = (self.start, self.end);
                assert!(lo < hi, "range: empty");
                // Computed in f64 for both widths: 53 uniform bits in [0, 1).
                let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
                let v = (f64::from(lo) + (f64::from(hi) - f64::from(lo)) * unit) as $t;
                // Rounding (the f32 cast above all) can land on `hi`; the
                // range stays half-open.
                if v < hi { v } else { lo }
            }
        }
    )*};
}
float_bounds!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    // Constants computed with the `rand` stand-in this crate replaced.
    #[test]
    fn stream_is_pinned() {
        let words = |seed| {
            let mut r = Rng::seed(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            words(0),
            [
                0x7bbcb40d550682d0,
                0xde7fe413d00cc9fd,
                0xb3c638353c668c91,
                0xe073afc0949195fc
            ]
        );
        assert_eq!(
            words(1),
            [
                0x4b46a55df3611b9b,
                0xd7e1f1410e763ef4,
                0x5f14ec66975f9b06,
                0x3b2c74fad44d6cdb
            ]
        );
        // The seed splitmix64 maps to zero must not park xorshift there.
        assert_ne!(Rng::seed(0u64.wrapping_sub(GOLDEN)).next_u64(), 0);
    }

    #[test]
    fn draws_are_pinned_and_stay_in_range() {
        let mut r = Rng::seed(7);
        assert_eq!(r.range(1..=6), 5);
        assert_eq!(r.range(0..6usize), 4);
        assert_eq!(r.range(0.0..800.0f64).to_bits(), 0x4071b44834b056ac);
        assert_eq!(r.range(-0.3..0.3f32).to_bits(), 0x3d032c3e);
        assert!(!r.chance(0.08));
        assert_eq!(r.range(-1000i64..1000), 436);
        assert_eq!(r.range(0..=u64::MAX), 0x6a3d07c9757c58b2);

        let (mut open, mut closed) = ([false; 4], [false; 4]);
        for _ in 0..200 {
            open[r.range(0..3usize)] = true;
            closed[(r.range(-1..=2i32) + 1) as usize] = true;
        }
        assert_eq!(open, [true, true, true, false], "`..` never returns hi");
        assert_eq!(closed, [true; 4], "`..=` reaches both ends");
        // The largest unit value is 1 - 2^-53, which the f32 cast rounds to 1.
        assert_eq!((0.0..1.0f32).pick(u64::MAX), 0.0);
        assert!((0.0..1.0f64).pick(u64::MAX) < 1.0);
    }

    #[test]
    fn shuffle_is_a_permutation_stable_per_seed() {
        let mut v: Vec<u32> = (0..10).collect();
        Rng::seed(7).shuffle(&mut v);
        assert_eq!(v, [4, 0, 6, 2, 1, 3, 9, 5, 7, 8]);
    }
}
