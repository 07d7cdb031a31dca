//! SVCCA: Singular Vector Canonical Correlation Analysis (Alg. 2 of the
//! MISTIQUE paper, after Raghu et al. 2017).
//!
//! Procedure: SVD-truncate both activation matrices to the directions
//! explaining a variance fraction (0.99 in the paper), then run CCA between
//! the truncated representations and report the canonical correlations.
//!
//! The truncated representation `X·V_r = U_r·S_r` spans the same subspace as
//! the orthonormal `U_r` the truncation's own SVD produced, and canonical
//! correlations depend on the subspaces only. So the CCA step decomposes
//! nothing tall again: it is the singular values of `U_aᵀ·U_b` — two tall
//! SVDs per comparison, not four.

use crate::cca::{centered_basis, subspace_correlations, RANK_TOL};
use crate::matrix::Matrix;
use crate::svd::{numerical_rank, rank_for_variance};

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
/// A pure, single-threaded function of its inputs: the same matrices give
/// the same bits on every call.
///
/// # Panics
/// Panics if the row counts differ or `variance_frac` is outside `(0, 1]`.
pub fn svcca(a: &Matrix, b: &Matrix, variance_frac: f64) -> SvccaResult {
    assert_eq!(a.rows(), b.rows(), "SVCCA requires matched examples");
    assert!(
        variance_frac > 0.0 && variance_frac <= 1.0,
        "variance fraction must be in (0, 1]"
    );

    // Alg. 2 lines 2-3: the top directions explaining `variance_frac` of the
    // variance, never past the numerical rank.
    let kept = |s: &[f64]| rank_for_variance(s, variance_frac).min(numerical_rank(s, RANK_TOL));
    let ua = centered_basis(a, kept);
    let ub = centered_basis(b, kept);
    SvccaResult {
        correlations: subspace_correlations(&ua, &ub),
        rank_a: ua.cols(),
        rank_b: ub.cols(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::jacobi_svd;

    fn noise_matrix(n: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = mistique_rng::Rng::seed(seed);
        let data = (0..n * c).map(|_| rng.range(-1.0..1.0)).collect();
        Matrix::from_vec(n, c, data)
    }

    /// SVCCA as it was before the two-decomposition rewrite, on the Jacobi
    /// reference SVD: project each centered input onto its kept right
    /// singular directions, then center and decompose the projections again
    /// inside CCA — four tall SVDs.
    fn svcca_by_four_decompositions(a: &Matrix, b: &Matrix, frac: f64) -> SvccaResult {
        let project = |m: &Matrix| {
            let centered = m.center_columns();
            let svd = jacobi_svd(&centered);
            let r = svd.rank_for_variance(frac).min(svd.numerical_rank(1e-10));
            (centered.matmul(&svd.v.take_cols(r)), r)
        };
        let basis = |projected: &Matrix| {
            let svd = jacobi_svd(&projected.center_columns());
            svd.u.take_cols(svd.numerical_rank(1e-10))
        };
        let ((pa, rank_a), (pb, rank_b)) = (project(a), project(b));
        let mut correlations = vec![];
        if rank_a > 0 && rank_b > 0 {
            let (ua, ub) = (basis(&pa), basis(&pb));
            if ua.cols() > 0 && ub.cols() > 0 {
                let cross = jacobi_svd(&ua.transpose().matmul(&ub));
                let k = ua.cols().min(ub.cols());
                correlations = cross.s[..k].iter().map(|c| c.clamp(0.0, 1.0)).collect();
            }
        }
        SvccaResult {
            correlations,
            rank_a,
            rank_b,
        }
    }

    /// `latent` factors mixed into `cols` neurons plus noise, clipped at
    /// zero, every fifth neuron dead (constant zero).
    fn relu_like(n: usize, cols: usize, latent: usize, noise: f64, seed: u64) -> Matrix {
        let mixed = noise_matrix(n, latent, seed).matmul(&noise_matrix(latent, cols, seed + 1));
        let jitter = noise_matrix(n, cols, seed + 2);
        let mut m = Matrix::zeros(n, cols);
        for i in 0..n {
            for j in (0..cols).filter(|j| j % 5 != 4) {
                m[(i, j)] = (mixed[(i, j)] + noise * jitter[(i, j)]).max(0.0);
            }
        }
        m
    }

    #[test]
    fn two_decompositions_meet_the_four_decomposition_reference() {
        let rotation = Matrix::from_rows(&[
            &[0.5, 1.0, 0.0, 0.0],
            &[-1.0, 0.5, 0.0, 0.0],
            &[0.0, 0.0, 2.0, 1.0],
            &[0.0, 0.0, -0.5, 1.0],
        ]);
        let low_rank = noise_matrix(300, 5, 21).matmul(&noise_matrix(5, 24, 22));
        let pairs = [
            (noise_matrix(100, 8, 7), noise_matrix(100, 8, 7), 0.99),
            (
                noise_matrix(120, 4, 11),
                noise_matrix(120, 4, 11).matmul(&rotation),
                0.999,
            ),
            (noise_matrix(300, 5, 1), noise_matrix(300, 5, 2), 0.99),
            (
                Matrix::from_vec(50, 3, vec![1.0; 150]),
                noise_matrix(50, 3, 5),
                0.99,
            ),
            // Wide: more neurons than examples.
            (noise_matrix(12, 30, 31), noise_matrix(12, 20, 32), 0.9),
            (
                relu_like(2000, 32, 12, 0.05, 40),
                relu_like(2000, 32, 12, 0.05, 50),
                0.99,
            ),
            (low_rank.clone(), relu_like(300, 24, 6, 0.0, 60), 0.99),
            (low_rank, noise_matrix(300, 24, 23), 1.0),
        ];
        for (i, (a, b, frac)) in pairs.iter().enumerate() {
            let got = svcca(a, b, *frac);
            let want = svcca_by_four_decompositions(a, b, *frac);
            assert_eq!(
                (got.rank_a, got.rank_b),
                (want.rank_a, want.rank_b),
                "pair {i}"
            );
            assert_eq!(got.correlations.len(), want.correlations.len(), "pair {i}");
            for (x, y) in got.correlations.iter().zip(&want.correlations) {
                assert!((0.0..=1.0).contains(x), "pair {i}: correlation {x}");
                assert!((x - y).abs() <= 1e-7, "pair {i}: {x} vs {y}");
            }
            let again = svcca(a, b, *frac);
            let bits = |r: &SvccaResult| -> Vec<u64> {
                r.correlations.iter().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&again), "pair {i}: not a pure function");
        }
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
