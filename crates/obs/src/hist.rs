//! Log-linear histograms (HdrHistogram-style bucketing, built from scratch).
//!
//! Values in `[0, 16)` get unit-width buckets; above that, each power of two
//! is split into 16 linear sub-buckets, so the relative quantization error
//! is bounded by 1/16 ≈ 6.25% while the whole range of `u64` fits in 976
//! buckets (≈ 8 KiB of atomics per histogram). Recording is a handful of
//! relaxed atomic ops — safe for the chunk read/write hot path.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-buckets per power of two (and the width of the initial linear range).
const SUB: u64 = 16;
/// Bucket count: 16 unit buckets + 16 per exponent for exponents 4..=63.
pub(crate) const N_BUCKETS: usize = 16 + 60 * 16;

/// Bucket index of a value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // 4..=63
        let sub = ((v >> (exp - 4)) & 0xf) as usize;
        16 + (exp - 4) * 16 + sub
    }
}

/// Inclusive lower bound and exclusive upper bound of a bucket, as u128 so
/// the topmost bucket cannot overflow.
fn bucket_bounds(idx: usize) -> (u128, u128) {
    if idx < SUB as usize {
        (idx as u128, idx as u128 + 1)
    } else {
        let exp = 4 + (idx - 16) / 16;
        let sub = ((idx - 16) % 16) as u128;
        let width = 1u128 << (exp - 4);
        let lo = (16 + sub) << (exp - 4);
        (lo, lo + width)
    }
}

/// A bucket's representative value (its midpoint, saturated to u64).
fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    let mid = lo + (hi - lo) / 2;
    u64::try_from(mid).unwrap_or(u64::MAX)
}

pub(crate) struct HistCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> HistCore {
        HistCore {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn atomic_min(a: &AtomicU64, v: u64) {
    let mut cur = a.load(Ordering::Relaxed);
    while v < cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

fn atomic_max(a: &AtomicU64, v: u64) {
    let mut cur = a.load(Ordering::Relaxed);
    while v > cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

/// Percentile summary of a histogram at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (within the bucket quantization error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (tail latency for SLO burn detection).
    pub p999: u64,
}

/// A concurrent log-linear histogram of `u64` values. Durations are recorded
/// in nanoseconds. Handles are cheap clones of one shared core.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistCore>);

impl Histogram {
    /// A standalone histogram not attached to any registry.
    pub fn standalone() -> Histogram {
        Histogram(Arc::new(HistCore::new()))
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        atomic_min(&core.min, v);
        atomic_max(&core.max, v);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.0.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `[0, 1]`, clamped to the observed min/max so
    /// the answer is always a value that could actually have been recorded.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the requested quantile.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut value = self.max();
        for (idx, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                value = bucket_mid(idx);
                break;
            }
        }
        value.clamp(self.min(), self.max())
    }

    /// Point-in-time summary.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        let sum = self.sum();
        HistSummary {
            count,
            sum,
            min: self.min(),
            max: self.max(),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_unit_buckets() {
        for v in 0u64..16 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_bounds(v as usize), (v as u128, v as u128 + 1));
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotone() {
        // Every bucket's upper bound is the next bucket's lower bound.
        for idx in 0..N_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo, _) = bucket_bounds(idx + 1);
            assert_eq!(hi, lo, "gap between buckets {idx} and {}", idx + 1);
        }
        // And every value maps into a bucket whose bounds contain it.
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1023,
            1024,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                (lo..hi).contains(&(v as u128)),
                "value {v} outside bucket {idx} [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 1/16 beyond the linear range.
        for v in [100u64, 999, 12_345, 1 << 30, (1 << 50) + 12_345] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 1.0 / 16.0 + 1e-12, "value {v}");
        }
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let h = Histogram::standalone();
        h.record(100);
        assert_eq!(h.percentile(0.5), 100);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn uniform_percentiles_land_close() {
        let h = Histogram::standalone();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.50) as f64;
        let p90 = h.percentile(0.90) as f64;
        let p95 = h.percentile(0.95) as f64;
        let p99 = h.percentile(0.99) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.07, "p50 = {p50}");
        assert!((p90 - 9_000.0).abs() / 9_000.0 < 0.07, "p90 = {p90}");
        assert!((p95 - 9_500.0).abs() / 9_500.0 < 0.07, "p95 = {p95}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.07, "p99 = {p99}");
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!((s.mean - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::standalone();
        let s = h.summary();
        assert_eq!(s, HistSummary::default());
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn concurrent_records_preserve_count_and_sum() {
        let h = Histogram::standalone();
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), threads * per_thread);
        let n = threads * per_thread;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), n - 1);
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let h = Histogram::standalone();
        for v in [1u64, 5, 9, 100, 1_000, 50_000, 1_000_000] {
            h.record(v);
        }
        let s = h.summary();
        assert!(
            s.p50 <= s.p90
                && s.p90 <= s.p95
                && s.p95 <= s.p99
                && s.p99 <= s.p999
                && s.p999 <= s.max
        );
    }

    #[test]
    fn record_duration_uses_nanoseconds() {
        let h = Histogram::standalone();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.sum(), 3_000);
    }
}
