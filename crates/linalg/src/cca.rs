//! Canonical correlation analysis built on the SVD.
//!
//! Given data matrices `X (n x p)` and `Y (n x q)`, CCA finds directions
//! maximizing correlation between projections. We use the standard SVD-based
//! formulation: with `Ux`, `Uy` orthonormal bases of the centered inputs'
//! column spaces (their leading left singular vectors), the canonical
//! correlations are the singular values of `Ux^T Uy`. SVCCA is the same
//! computation with a stricter rule for how many vectors each basis keeps,
//! so both are built from the two helpers here: two tall decompositions and
//! one small one per comparison.

use crate::matrix::Matrix;
use crate::svd::{factor, numerical_rank};

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

/// Singular values below this fraction of the largest are numerically zero:
/// the directions of constant and linearly dependent columns.
pub(crate) const RANK_TOL: f64 = 1e-10;

/// Orthonormal basis (`n x r`) of the leading directions of `m`'s centered
/// columns: its first `r = rank(&s)` left singular vectors, `s` being the
/// centered matrix's singular values.
pub(crate) fn centered_basis(m: &Matrix, rank: impl FnOnce(&[f64]) -> usize) -> Matrix {
    let f = factor(&m.center_columns());
    f.u(rank(f.s()))
}

/// Canonical correlations between the subspaces spanned by the orthonormal
/// bases `ux` and `uy` (same row count): the singular values of `ux^T uy`,
/// accumulated one row's outer product at a time so both bases are read
/// once, in storage order. None when either subspace is empty.
pub(crate) fn subspace_correlations(ux: &Matrix, uy: &Matrix) -> Vec<f64> {
    let (rx, ry) = (ux.cols(), uy.cols());
    if rx == 0 || ry == 0 {
        return vec![];
    }
    let mut cross = Matrix::zeros(rx, ry);
    for (x_row, y_row) in ux.data().chunks_exact(rx).zip(uy.data().chunks_exact(ry)) {
        for (&x, out) in x_row.iter().zip(cross.data_mut().chunks_exact_mut(ry)) {
            for (o, &y) in out.iter_mut().zip(y_row) {
                *o += x * y;
            }
        }
    }
    let cross = factor(&cross);
    cross.s().iter().map(|c| c.clamp(0.0, 1.0)).collect()
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
    let ux = centered_basis(x, |s| numerical_rank(s, RANK_TOL));
    let uy = centered_basis(y, |s| numerical_rank(s, RANK_TOL));
    CcaResult {
        correlations: subspace_correlations(&ux, &uy),
    }
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
