//! Small statistical helpers shared by diagnostics and quantization:
//! percentiles, Pearson correlation, and summary statistics.

/// Summary statistics of a slice of f64 values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Minimum value (0 for empty input).
    pub min: f64,
    /// Maximum value (0 for empty input).
    pub max: f64,
    /// Arithmetic mean (0 for empty input).
    pub mean: f64,
    /// Population standard deviation (0 for empty input).
    pub std: f64,
}

/// Compute summary statistics over `values` in a single pass.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            count: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            std: 0.0,
        };
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        sum += v;
        sumsq += v * v;
    }
    let n = values.len() as f64;
    let mean = sum / n;
    let var = (sumsq / n - mean * mean).max(0.0);
    Summary {
        count: values.len(),
        min,
        max,
        mean,
        std: var.sqrt(),
    }
}

/// `values` without their NaNs, ascending. A NaN has no place in an order,
/// so it is left out rather than allowed to panic the sort; the rest sort
/// stably by `partial_cmp`, so `-0.0` and `0.0` keep their input order.
pub fn sorted_numbers(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were left out"));
    sorted
}

/// Percentile of `values` with linear interpolation, `p` in `[0, 1]`. NaNs
/// are left out ([`sorted_numbers`]); with none left the answer is 0.
///
/// Sorts a copy; callers on hot paths should pre-sort and use
/// [`percentile_sorted`].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted_numbers(values.iter().copied()), p)
}

/// Percentile over already-sorted data with linear interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Equi-depth quantile boundaries: `k` boundaries splitting the data into
/// `k + 1` buckets, NaNs left out ([`sorted_numbers`]).
pub fn quantile_boundaries(values: &[f64], k: usize) -> Vec<f64> {
    let sorted = sorted_numbers(values.iter().copied());
    (1..=k)
        .map(|i| percentile_sorted(&sorted, i as f64 / (k + 1) as f64))
        .collect()
}

/// Pearson correlation coefficient between two equal-length slices.
/// Returns 0 when either side has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal lengths");
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_boundaries_split_uniform_data() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = quantile_boundaries(&v, 3);
        assert_eq!(b.len(), 3);
        assert!((b[0] - 24.75).abs() < 1.0);
        assert!((b[1] - 49.5).abs() < 1.0);
        assert!((b[2] - 74.25).abs() < 1.0);
    }

    #[test]
    fn nans_are_left_out_of_the_order() {
        let v = [3.0, f64::NAN, 1.0, 2.0, -f64::NAN];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 1.0), 3.0);
        assert_eq!(percentile(&[f64::NAN], 0.5), 0.0);
        assert_eq!(
            quantile_boundaries(&v, 3),
            quantile_boundaries(&[3.0, 1.0, 2.0], 3)
        );
        // Equal under `partial_cmp`: the zeros keep their input order.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for zeros in [[-0.0, 0.0], [0.0, -0.0]] {
            let sorted = sorted_numbers([1.0, zeros[0], f64::NAN, zeros[1], -1.0]);
            assert_eq!(bits(sorted), bits(vec![-1.0, zeros[0], zeros[1], 1.0]));
        }
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [2.0, 3.0, 4.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }
}
