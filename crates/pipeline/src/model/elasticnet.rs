//! ElasticNet linear regression via cyclic coordinate descent.
//!
//! Minimizes `1/(2n) ||y - Xw - b||² + alpha * (l1_ratio * ||w||_1 +
//! (1 - l1_ratio)/2 * ||w||²)` — the same objective and parameterization as
//! scikit-learn's `ElasticNet`, which the Zillow pipelines P3/P4/P7–P10 use.

use super::Regressor;

/// ElasticNet hyper-parameters and fitted state.
#[derive(Clone, Debug)]
pub struct ElasticNet {
    /// Overall regularization strength.
    pub alpha: f64,
    /// Mix between L1 (1.0) and L2 (0.0).
    pub l1_ratio: f64,
    /// Convergence tolerance on the max coefficient update.
    pub tol: f64,
    /// Whether to standardize features before fitting.
    pub normalize: bool,
    max_iter: usize,
    // Fitted state.
    weights: Vec<f64>,
    intercept: f64,
    feat_mean: Vec<f64>,
    feat_scale: Vec<f64>,
}

impl ElasticNet {
    /// Create an unfitted model.
    pub fn new(alpha: f64, l1_ratio: f64, tol: f64, normalize: bool) -> ElasticNet {
        assert!((0.0..=1.0).contains(&l1_ratio), "l1_ratio in [0,1]");
        ElasticNet {
            alpha,
            l1_ratio,
            tol,
            normalize,
            max_iter: 500,
            weights: Vec::new(),
            intercept: 0.0,
            feat_mean: Vec::new(),
            feat_scale: Vec::new(),
        }
    }

    /// Fitted coefficients (in the original feature space when normalized).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Fit on a row-major `n x p` matrix and target `y`.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent or `n == 0`.
    #[allow(clippy::needless_range_loop)] // loops mirror the coordinate-descent math
    pub fn fit(&mut self, x: &[f64], n_features: usize, y: &[f64]) {
        let n = y.len();
        assert!(n > 0, "empty training set");
        assert_eq!(x.len(), n * n_features, "x shape mismatch");

        // Column stats for optional standardization.
        let mut mean = vec![0.0; n_features];
        let mut scale = vec![1.0; n_features];
        for row in 0..n {
            for (j, m) in mean.iter_mut().enumerate() {
                *m += x[row * n_features + j];
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        if self.normalize {
            let mut var = vec![0.0; n_features];
            for row in 0..n {
                for j in 0..n_features {
                    let d = x[row * n_features + j] - mean[j];
                    var[j] += d * d;
                }
            }
            for (s, v) in scale.iter_mut().zip(&var) {
                *s = (v / n as f64).sqrt().max(1e-12);
            }
        } else {
            mean.iter_mut().for_each(|m| *m = 0.0);
        }

        // Work in the (optionally) standardized space.
        let std_at = |row: usize, j: usize| (x[row * n_features + j] - mean[j]) / scale[j];

        let y_mean = y.iter().sum::<f64>() / n as f64;
        let mut w = vec![0.0; n_features];
        let mut residual: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Per-feature squared norms (constant across iterations).
        let mut col_sq = vec![0.0; n_features];
        for row in 0..n {
            for (j, c) in col_sq.iter_mut().enumerate() {
                let v = std_at(row, j);
                *c += v * v;
            }
        }

        let l1 = self.alpha * self.l1_ratio * n as f64;
        let l2 = self.alpha * (1.0 - self.l1_ratio) * n as f64;

        for _ in 0..self.max_iter {
            let mut max_delta = 0.0f64;
            for j in 0..n_features {
                if col_sq[j] == 0.0 {
                    continue;
                }
                // rho = x_j . (residual + w_j * x_j)
                let mut rho = 0.0;
                for row in 0..n {
                    rho += std_at(row, j) * residual[row];
                }
                rho += w[j] * col_sq[j];
                // Soft threshold.
                let new_w = soft_threshold(rho, l1) / (col_sq[j] + l2);
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for row in 0..n {
                        residual[row] -= delta * std_at(row, j);
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.tol {
                break;
            }
        }

        // Fold standardization back into original-space weights.
        let mut weights = vec![0.0; n_features];
        let mut intercept = y_mean;
        for j in 0..n_features {
            weights[j] = w[j] / scale[j];
            intercept -= w[j] * mean[j] / scale[j];
        }
        self.weights = weights;
        self.intercept = intercept;
        self.feat_mean = mean;
        self.feat_scale = scale;
    }
}

#[inline]
fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

impl Regressor for ElasticNet {
    fn predict(&self, x: &[f64], n_features: usize) -> Vec<f64> {
        assert_eq!(n_features, self.weights.len(), "feature count mismatch");
        x.chunks_exact(n_features)
            .map(|row| {
                self.intercept
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        // y = 3*x0 - 2*x1 + 1 with deterministic pseudo-noise.
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        let mut rng = mistique_rng::Rng::seed(11);
        let mut rnd = move || rng.range(-0.5..1.5);
        for _ in 0..n {
            let a = rnd() * 10.0;
            let b = rnd() * 10.0;
            x.push(a);
            x.push(b);
            y.push(3.0 * a - 2.0 * b + 1.0 + rnd() * 0.01);
        }
        (x, y)
    }

    #[test]
    fn recovers_linear_relationship_with_tiny_alpha() {
        let (x, y) = linear_data(500);
        let mut m = ElasticNet::new(1e-6, 0.5, 1e-8, true);
        m.fit(&x, 2, &y);
        assert!((m.weights()[0] - 3.0).abs() < 0.05, "w0 {}", m.weights()[0]);
        assert!((m.weights()[1] + 2.0).abs() < 0.05, "w1 {}", m.weights()[1]);
        assert!((m.intercept() - 1.0).abs() < 0.1, "b {}", m.intercept());
    }

    #[test]
    fn predictions_match_fit() {
        let (x, y) = linear_data(300);
        let mut m = ElasticNet::new(1e-6, 0.0, 1e-8, true);
        m.fit(&x, 2, &y);
        let preds = m.predict(&x, 2);
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn strong_l1_zeroes_irrelevant_features() {
        // x1 is pure noise uncorrelated with y.
        let n = 400;
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        let mut rng = mistique_rng::Rng::seed(3);
        let mut rnd = move || rng.range(-0.5..1.5);
        for _ in 0..n {
            let a = rnd() * 4.0;
            let noise = rnd() * 4.0;
            x.push(a);
            x.push(noise);
            y.push(2.0 * a);
        }
        let mut m = ElasticNet::new(0.5, 1.0, 1e-8, true);
        m.fit(&x, 2, &y);
        assert_eq!(m.weights()[1], 0.0, "noise feature should be zeroed");
        assert!(m.weights()[0] > 0.5, "signal survives");
    }

    #[test]
    fn constant_feature_is_ignored() {
        let n = 100;
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            x.push(5.0); // constant
            x.push(i as f64);
            y.push(i as f64);
        }
        let mut m = ElasticNet::new(1e-6, 0.5, 1e-8, true);
        m.fit(&x, 2, &y);
        assert_eq!(m.weights()[0], 0.0);
        let preds = m.predict(&x, 2);
        assert!((preds[50] - 50.0).abs() < 0.5);
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = linear_data(200);
        let mut a = ElasticNet::new(0.01, 0.5, 1e-6, true);
        let mut b = ElasticNet::new(0.01, 0.5, 1e-6, true);
        a.fit(&x, 2, &y);
        b.fit(&x, 2, &y);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_fit_panics() {
        let mut m = ElasticNet::new(0.1, 0.5, 1e-4, true);
        m.fit(&[], 2, &[]);
    }
}
