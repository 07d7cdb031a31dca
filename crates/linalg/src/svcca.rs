//! SVCCA: Singular Vector Canonical Correlation Analysis (Alg. 2 of the
//! MISTIQUE paper, after Raghu et al. 2017).
//!
//! Procedure: SVD-truncate both activation matrices to the directions
//! explaining a variance fraction (0.99 in the paper), then run CCA between
//! the projected representations and report the canonical correlations.

use crate::cca::cca;
use crate::matrix::Matrix;
use crate::svd::thin_svd;

/// Result of an SVCCA comparison between two activation matrices.
#[derive(Clone, Debug)]
pub struct SvccaResult {
    /// Canonical correlations between the SVD-truncated representations.
    pub correlations: Vec<f64>,
    /// Directions kept for the first input.
    pub rank_a: usize,
    /// Directions kept for the second input.
    pub rank_b: usize,
}

impl SvccaResult {
    /// Mean canonical correlation — the similarity score reported in the paper.
    pub fn mean_correlation(&self) -> f64 {
        if self.correlations.is_empty() {
            return 0.0;
        }
        self.correlations.iter().sum::<f64>() / self.correlations.len() as f64
    }
}

/// Run SVCCA between activations `a` (n x p) and `b` (n x q), keeping SVD
/// directions that explain `variance_frac` of the variance (paper: 0.99).
///
/// # Panics
/// Panics if the row counts differ or `variance_frac` is outside `(0, 1]`.
pub fn svcca(a: &Matrix, b: &Matrix, variance_frac: f64) -> SvccaResult {
    assert_eq!(a.rows(), b.rows(), "SVCCA requires matched examples");
    assert!(
        variance_frac > 0.0 && variance_frac <= 1.0,
        "variance fraction must be in (0, 1]"
    );

    let proj_a = svd_project(a, variance_frac);
    let proj_b = svd_project(b, variance_frac);
    let (pa, ra) = proj_a;
    let (pb, rb) = proj_b;
    if ra == 0 || rb == 0 {
        return SvccaResult {
            correlations: vec![],
            rank_a: ra,
            rank_b: rb,
        };
    }
    let r = cca(&pa, &pb);
    SvccaResult {
        correlations: r.correlations,
        rank_a: ra,
        rank_b: rb,
    }
}

/// Center, SVD, and project onto the top directions explaining `frac` variance.
/// Returns the projected data (n x r) and the rank r kept.
fn svd_project(m: &Matrix, frac: f64) -> (Matrix, usize) {
    let centered = m.center_columns();
    let svd = thin_svd(&centered);
    let r = svd.rank_for_variance(frac).min(svd.numerical_rank(1e-10));
    if r == 0 {
        return (Matrix::zeros(m.rows(), 0), 0);
    }
    // Project: X * V_r gives the data expressed in the top singular directions.
    let vr = svd.v.take_cols(r);
    (centered.matmul(&vr), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_matrix(n: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = mistique_rng::Rng::seed(seed);
        let data = (0..n * c).map(|_| rng.range(-1.0..1.0)).collect();
        Matrix::from_vec(n, c, data)
    }

    #[test]
    fn same_representation_scores_one() {
        let a = noise_matrix(100, 8, 7);
        let r = svcca(&a, &a, 0.99);
        assert!(r.mean_correlation() > 0.999, "got {}", r.mean_correlation());
    }

    #[test]
    fn rotated_representation_scores_one() {
        let a = noise_matrix(120, 4, 11);
        // Orthogonal-ish transform (invertible): same subspace, same SVCCA.
        let t = Matrix::from_rows(&[
            &[0.5, 1.0, 0.0, 0.0],
            &[-1.0, 0.5, 0.0, 0.0],
            &[0.0, 0.0, 2.0, 1.0],
            &[0.0, 0.0, -0.5, 1.0],
        ]);
        let b = a.matmul(&t);
        let r = svcca(&a, &b, 0.999);
        assert!(r.mean_correlation() > 0.99, "got {}", r.mean_correlation());
    }

    #[test]
    fn unrelated_representations_score_low() {
        let a = noise_matrix(300, 5, 1);
        let b = noise_matrix(300, 5, 2);
        let r = svcca(&a, &b, 0.99);
        assert!(r.mean_correlation() < 0.4, "got {}", r.mean_correlation());
    }

    #[test]
    fn truncation_reduces_rank_for_low_rank_signal() {
        // One dominant direction plus tiny noise: 0.99 variance keeps ~1 direction.
        let n = 200;
        let mut data = Vec::with_capacity(n * 6);
        let mut rng = mistique_rng::Rng::seed(99);
        let mut next = || rng.range(-1.0..1.0);
        for _ in 0..n {
            let t = next() * 10.0;
            for j in 0..6 {
                data.push(t * (j as f64 + 1.0) + next() * 0.01);
            }
        }
        let a = Matrix::from_vec(n, 6, data);
        let r = svcca(&a, &a, 0.99);
        assert!(r.rank_a <= 2, "rank {}", r.rank_a);
    }

    #[test]
    #[should_panic(expected = "matched examples")]
    fn mismatched_rows_panic() {
        let a = Matrix::zeros(10, 2);
        let b = Matrix::zeros(12, 2);
        let _ = svcca(&a, &b, 0.99);
    }

    #[test]
    fn degenerate_constant_input() {
        let a = Matrix::from_vec(50, 3, vec![1.0; 150]);
        let b = noise_matrix(50, 3, 5);
        let r = svcca(&a, &b, 0.99);
        assert_eq!(r.rank_a, 0);
        assert_eq!(r.mean_correlation(), 0.0);
    }
}
