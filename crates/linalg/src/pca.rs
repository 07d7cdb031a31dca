//! Principal component analysis, built on the thin SVD.
//!
//! Diagnostic front-ends (ActiVis-style tools) project high-dimensional
//! activations to 2-D/3-D for display; PCA is the standard projection and is
//! also the first half of SVCCA (Alg. 2's SVD truncation step).

use crate::matrix::Matrix;
use crate::svd::factor;

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
    /// Panics if `k` is 0 or exceeds the number of columns or of rows (there
    /// are no more components than either), or `data` has no rows.
    pub fn fit(data: &Matrix, k: usize) -> Pca {
        Pca::fit_centered(data.col_means(), &data.center_columns(), k)
    }

    /// Fit on `data` and project it, centering once: the fitted PCA, its
    /// [`Pca::transform`] of `data` and its [`Pca::explained_fraction`] of
    /// `data`, all from the one centered copy the fit decomposes.
    ///
    /// # Panics
    /// As [`Pca::fit`].
    pub fn fit_project(data: &Matrix, k: usize) -> (Pca, Matrix, f64) {
        let centered = data.center_columns();
        let pca = Pca::fit_centered(data.col_means(), &centered, k);
        let projection = centered.matmul(&pca.components);
        let fraction = pca.fraction_of(&centered);
        (pca, projection, fraction)
    }

    fn fit_centered(mean: Vec<f64>, centered: &Matrix, k: usize) -> Pca {
        assert!(centered.rows() > 0, "PCA needs observations");
        assert!(
            k >= 1 && k <= centered.cols().min(centered.rows()),
            "k must be in 1..=min(n_rows, n_cols)"
        );
        // Only V and the singular values are used: no left vector is formed.
        let svd = factor(centered);
        let n = centered.rows() as f64;
        let components = svd.v(k);
        let explained_variance = svd.s()[..k].iter().map(|s| s * s / n.max(1.0)).collect();
        Pca {
            mean,
            components,
            explained_variance,
        }
    }

    /// Share of `centered`'s total variance the kept components explain.
    fn fraction_of(&self, centered: &Matrix) -> f64 {
        let n = centered.rows() as f64;
        let total: f64 = centered.data().iter().map(|v| v * v).sum::<f64>() / n.max(1.0);
        if total == 0.0 {
            return 1.0;
        }
        self.explained_variance.iter().sum::<f64>() / total
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }

    /// Fraction of total variance captured by the kept components (computed
    /// against the variance of `data`).
    pub fn explained_fraction(&self, data: &Matrix) -> f64 {
        self.fraction_of(&data.center_columns())
    }

    /// Project observations into component space: `(X - mean) * W`, `n x k`.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.mean.len(), "feature count mismatch");
        let mut centered = data.clone();
        for row in centered.data_mut().chunks_exact_mut(self.mean.len().max(1)) {
            for (v, m) in row.iter_mut().zip(&self.mean) {
                *v -= m;
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
    fn fit_project_is_fit_then_transform_and_fraction() {
        for (data, k) in [(line_data(200), 1), (line_data(37), 2)] {
            let (pca, projection, fraction) = Pca::fit_project(&data, k);
            let fitted = Pca::fit(&data, k);
            assert_eq!(pca.components, fitted.components);
            assert_eq!(pca.explained_variance, fitted.explained_variance);
            assert_eq!(projection, fitted.transform(&data));
            assert_eq!(fraction, fitted.explained_fraction(&data));
        }
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
