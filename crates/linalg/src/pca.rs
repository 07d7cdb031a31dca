//! Principal component analysis, built on the thin SVD.
//!
//! Diagnostic front-ends (ActiVis-style tools) project high-dimensional
//! activations to 2-D/3-D for display; PCA is the standard projection and is
//! also the first half of SVCCA (Alg. 2's SVD truncation step).

use crate::matrix::Matrix;
use crate::svd::thin_svd;

/// A fitted PCA: principal directions and explained variance.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Column means subtracted before projection.
    pub mean: Vec<f64>,
    /// Principal directions, `p x k` (columns are components).
    pub components: Matrix,
    /// Variance explained by each component, descending.
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit a `k`-component PCA on `data` (rows = observations).
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the number of columns, or `data` has no
    /// rows.
    pub fn fit(data: &Matrix, k: usize) -> Pca {
        assert!(data.rows() > 0, "PCA needs observations");
        assert!(k >= 1 && k <= data.cols(), "k must be in 1..=n_cols");
        let mean = data.col_means();
        let centered = data.center_columns();
        let svd = thin_svd(&centered);
        let n = data.rows() as f64;
        let components = svd.v.take_cols(k);
        let explained_variance = svd.s.iter().take(k).map(|s| s * s / n.max(1.0)).collect();
        Pca {
            mean,
            components,
            explained_variance,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }

    /// Fraction of total variance captured by the kept components (computed
    /// against the variance of `data`).
    pub fn explained_fraction(&self, data: &Matrix) -> f64 {
        let centered = data.center_columns();
        let n = data.rows() as f64;
        let total: f64 = centered.data().iter().map(|v| v * v).sum::<f64>() / n.max(1.0);
        if total == 0.0 {
            return 1.0;
        }
        self.explained_variance.iter().sum::<f64>() / total
    }

    /// Project observations into component space: `(X - mean) * W`, `n x k`.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.mean.len(), "feature count mismatch");
        let mut centered = data.clone();
        for i in 0..centered.rows() {
            for (j, m) in self.mean.iter().enumerate() {
                centered[(i, j)] -= m;
            }
        }
        centered.matmul(&self.components)
    }

    /// Map projected points back to the original space (lossy for `k < p`).
    pub fn inverse_transform(&self, projected: &Matrix) -> Matrix {
        let mut back = projected.matmul(&self.components.transpose());
        for i in 0..back.rows() {
            for (j, m) in self.mean.iter().enumerate() {
                back[(i, j)] += m;
            }
        }
        back
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(n: usize) -> Matrix {
        // Points along the direction (1, 2) plus tiny orthogonal noise.
        let mut data = Vec::with_capacity(n * 2);
        let mut rng = mistique_rng::Rng::seed(5);
        let mut rnd = move || rng.range(-0.5..1.5);
        for _ in 0..n {
            let t = rnd() * 10.0;
            let eps = rnd() * 0.01;
            data.push(t + 2.0 * eps);
            data.push(2.0 * t - eps);
        }
        Matrix::from_vec(n, 2, data)
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        let data = line_data(500);
        let pca = Pca::fit(&data, 1);
        assert!(pca.explained_fraction(&data) > 0.999);
        // Component parallel to (1, 2)/sqrt(5).
        let c = (pca.components[(0, 0)], pca.components[(1, 0)]);
        let dot = (c.0 + 2.0 * c.1).abs() / (5.0f64).sqrt();
        assert!(dot > 0.999, "component {c:?}");
    }

    #[test]
    fn transform_inverse_roundtrip_with_full_rank() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 2);
        let back = pca.inverse_transform(&pca.transform(&data));
        assert!(back.max_abs_diff(&data) < 1e-9);
    }

    #[test]
    fn lossy_reconstruction_error_matches_discarded_variance() {
        let data = line_data(200);
        let pca = Pca::fit(&data, 1);
        let back = pca.inverse_transform(&pca.transform(&data));
        // Only the tiny orthogonal noise is lost.
        assert!(back.max_abs_diff(&data) < 0.05);
    }

    #[test]
    fn explained_variance_descending() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 2);
        assert!(pca.explained_variance[0] >= pca.explained_variance[1]);
        assert_eq!(pca.k(), 2);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_components_panics() {
        Pca::fit(&line_data(10), 0);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn transform_wrong_width_panics() {
        let pca = Pca::fit(&line_data(10), 1);
        pca.transform(&Matrix::zeros(3, 5));
    }
}
