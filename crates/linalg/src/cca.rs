//! Canonical correlation analysis built on the SVD.
//!
//! Given centered data matrices `X (n x p)` and `Y (n x q)`, CCA finds
//! directions maximizing correlation between projections. We use the standard
//! SVD-based formulation: with thin SVDs `X = Ux Sx Vx^T`, `Y = Uy Sy Vy^T`,
//! the canonical correlations are the singular values of `Ux^T Uy`.

use crate::matrix::Matrix;
use crate::svd::thin_svd;

/// Result of a canonical correlation analysis.
#[derive(Clone, Debug)]
pub struct CcaResult {
    /// Canonical correlation coefficients in `[0, 1]`, non-increasing.
    pub correlations: Vec<f64>,
}

impl CcaResult {
    /// Mean canonical correlation — the "average cca coefficient" that the
    /// MISTIQUE paper reports in Table 2.
    pub fn mean_correlation(&self) -> f64 {
        if self.correlations.is_empty() {
            return 0.0;
        }
        self.correlations.iter().sum::<f64>() / self.correlations.len() as f64
    }
}

/// Compute CCA between `x` and `y` (same number of rows = observations).
///
/// Inputs are centered internally. Rank-deficient inputs are handled by
/// truncating to the numerical rank before correlating, which keeps the
/// correlations within `[0, 1]`.
///
/// # Panics
/// Panics if the row counts differ.
pub fn cca(x: &Matrix, y: &Matrix) -> CcaResult {
    assert_eq!(x.rows(), y.rows(), "CCA requires matched observations");
    let xc = x.center_columns();
    let yc = y.center_columns();

    let sx = thin_svd(&xc);
    let sy = thin_svd(&yc);
    let rx = sx.numerical_rank(1e-10);
    let ry = sy.numerical_rank(1e-10);
    if rx == 0 || ry == 0 {
        return CcaResult {
            correlations: vec![],
        };
    }
    let ux = sx.u.take_cols(rx);
    let uy = sy.u.take_cols(ry);

    let cross = ux.transpose().matmul(&uy);
    let sc = thin_svd(&cross);
    let k = rx.min(ry);
    let correlations = sc.s.iter().take(k).map(|&v| v.clamp(0.0, 1.0)).collect();
    CcaResult { correlations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_has_perfect_correlation() {
        let x = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[2.0, 1.0],
            &[3.0, 5.0],
            &[4.0, 3.0],
            &[0.0, 1.0],
        ]);
        let r = cca(&x, &x);
        assert!(!r.correlations.is_empty());
        for &c in &r.correlations {
            assert!(c > 1.0 - 1e-8, "correlation {c}");
        }
        assert!(r.mean_correlation() > 0.999);
    }

    #[test]
    fn linear_transform_preserves_correlation() {
        let x = Matrix::from_rows(&[
            &[1.0, 0.5],
            &[2.0, -1.0],
            &[3.0, 2.0],
            &[-1.0, 0.0],
            &[0.5, 1.5],
        ]);
        // y = x * A for invertible A: canonical correlations all 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, -1.0]]);
        let y = x.matmul(&a);
        let r = cca(&x, &y);
        for &c in &r.correlations {
            assert!(c > 1.0 - 1e-6, "correlation {c}");
        }
    }

    #[test]
    fn independent_noise_has_low_correlation() {
        let mut rng = mistique_rng::Rng::seed(12345);
        let mut next = || rng.range(-1.0..1.0);
        let n = 200;
        let mut xd = Vec::with_capacity(n * 2);
        let mut yd = Vec::with_capacity(n * 2);
        for _ in 0..n {
            xd.push(next());
            xd.push(next());
            yd.push(next());
            yd.push(next());
        }
        let x = Matrix::from_vec(n, 2, xd);
        let y = Matrix::from_vec(n, 2, yd);
        let r = cca(&x, &y);
        // With 200 independent samples, canonical correlations stay small.
        assert!(r.mean_correlation() < 0.35, "mean {}", r.mean_correlation());
    }

    #[test]
    fn constant_columns_yield_empty_result() {
        let x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let y = Matrix::from_rows(&[&[2.0], &[3.0], &[4.0]]);
        let r = cca(&x, &y);
        assert!(r.correlations.is_empty());
        assert_eq!(r.mean_correlation(), 0.0);
    }

    #[test]
    fn correlations_bounded_and_sorted() {
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 0.0],
            &[0.0, 1.0, 1.0],
            &[2.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
            &[3.0, -1.0, 0.5],
            &[0.5, 0.5, 2.0],
        ]);
        let y = Matrix::from_rows(&[
            &[1.1, 1.9],
            &[0.2, 1.2],
            &[2.1, -0.1],
            &[0.9, 1.0],
            &[2.9, -1.2],
            &[0.4, 0.7],
        ]);
        let r = cca(&x, &y);
        for &c in &r.correlations {
            assert!((0.0..=1.0).contains(&c));
        }
        for w in r.correlations.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }
}
