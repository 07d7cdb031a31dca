//! Gradient-boosted decision trees for regression (squared loss).
//!
//! Stands in for both XGBoost and LightGBM in the Zillow pipelines: the
//! template hyper-parameters of Table 4 (`eta`/`learning_rate`, `max_depth`,
//! `min_data`, `sub_feature`, `lambda`, `bagging_fraction`) map directly onto
//! [`GbdtParams`].

use mistique_rng::Rng;

use super::tree::{Presorted, RegressionTree, TreeParams};
use super::Regressor;

/// Boosting hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage (XGBoost `eta`, LightGBM `learning_rate`).
    pub learning_rate: f64,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Fraction of rows sampled per round (LightGBM `bagging_fraction`).
    pub bagging_fraction: f64,
    /// Seed for row/feature subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 30,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            bagging_fraction: 1.0,
            seed: 0,
        }
    }
}

/// A fitted boosted ensemble.
#[derive(Clone, Debug)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl Gbdt {
    /// Fit on row-major `x` (`n x p`) and target `y` with squared loss.
    pub fn fit(x: &[f64], n_features: usize, y: &[f64], params: &GbdtParams) -> Gbdt {
        let n = y.len();
        assert!(n > 0, "empty training set");
        assert_eq!(x.len(), n * n_features, "x shape mismatch");
        assert!(
            params.bagging_fraction > 0.0 && params.bagging_fraction <= 1.0,
            "bagging_fraction in (0,1]"
        );

        let base = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        let mut rng = Rng::seed(params.seed);

        // Without bagging every round fits on `x` itself: sort it once.
        let presorted = (params.bagging_fraction == 1.0).then(|| Presorted::new(x, n_features, n));

        for round in 0..params.n_rounds {
            // Squared-loss negative gradient = residual.
            let residual: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let seed = params.seed.wrapping_add(round as u64 + 1);

            let tree = match &presorted {
                Some(pre) => RegressionTree::fit_presorted(pre, &residual, &params.tree, seed),
                // Row bagging: fit the tree on a sample, apply to all rows.
                None => {
                    let mut rows: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut rows);
                    rows.truncate(((n as f64) * params.bagging_fraction).ceil() as usize);
                    let mut sx = Vec::with_capacity(rows.len() * n_features);
                    let mut sr = Vec::with_capacity(rows.len());
                    for &r in &rows {
                        sx.extend_from_slice(&x[r * n_features..(r + 1) * n_features]);
                        sr.push(residual[r]);
                    }
                    RegressionTree::fit(&sx, n_features, &sr, &params.tree, seed)
                }
            };
            let update = tree.predict(x);
            for (p, u) in pred.iter_mut().zip(&update) {
                *p += params.learning_rate * u;
            }
            trees.push(tree);
        }

        Gbdt {
            base,
            learning_rate: params.learning_rate,
            trees,
            n_features,
        }
    }
}

impl Regressor for Gbdt {
    fn predict(&self, x: &[f64], n_features: usize) -> Vec<f64> {
        assert_eq!(n_features, self.n_features, "feature count mismatch");
        let n = x.len() / n_features;
        let mut out = vec![self.base; n];
        for tree in &self.trees {
            for (o, u) in out.iter_mut().zip(tree.predict(x)) {
                *o += self.learning_rate * u;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::tree::reference;
    use super::*;

    fn friedman_like(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Nonlinear target: y = sin(x0 * 3) * 5 + x1^2, deterministic grid.
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 / n as f64) * 2.0 - 1.0;
            let b = ((i * 7 % n) as f64 / n as f64) * 2.0 - 1.0;
            x.push(a);
            x.push(b);
            y.push((a * 3.0).sin() * 5.0 + b * b);
        }
        (x, y)
    }

    fn mse(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
    }

    #[test]
    fn boosting_reduces_training_error() {
        let (x, y) = friedman_like(500);
        let small = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                n_rounds: 1,
                ..Default::default()
            },
        );
        let large = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                n_rounds: 80,
                ..Default::default()
            },
        );
        let e1 = mse(&small.predict(&x, 2), &y);
        let e80 = mse(&large.predict(&x, 2), &y);
        assert!(e80 < e1 * 0.3, "80 rounds {e80} vs 1 round {e1}");
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_like(800);
        let m = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                n_rounds: 100,
                learning_rate: 0.2,
                tree: TreeParams {
                    max_depth: 4,
                    min_samples_split: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let var = {
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64
        };
        let err = mse(&m.predict(&x, 2), &y);
        assert!(err < var * 0.05, "mse {err} vs var {var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(300);
        let params = GbdtParams {
            bagging_fraction: 0.7,
            seed: 9,
            ..Default::default()
        };
        let a = Gbdt::fit(&x, 2, &y, &params);
        let b = Gbdt::fit(&x, 2, &y, &params);
        assert_eq!(a.predict(&x, 2), b.predict(&x, 2));
    }

    #[test]
    fn different_hyperparams_give_different_predictions() {
        // The pipeline variants rely on this: only `pred` differs.
        let (x, y) = friedman_like(300);
        let a = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        let b = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                learning_rate: 0.3,
                ..Default::default()
            },
        );
        assert_ne!(a.predict(&x, 2), b.predict(&x, 2));
    }

    #[test]
    fn bagging_still_learns() {
        let (x, y) = friedman_like(500);
        let m = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                n_rounds: 60,
                bagging_fraction: 0.5,
                ..Default::default()
            },
        );
        let var = {
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64
        };
        assert!(mse(&m.predict(&x, 2), &y) < var * 0.3);
    }

    #[test]
    fn zero_rounds_predicts_mean() {
        let (x, y) = friedman_like(100);
        let m = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtParams {
                n_rounds: 0,
                ..Default::default()
            },
        );
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(m.predict(&x, 2).iter().all(|&p| (p - mean).abs() < 1e-12));
    }

    /// The boosting loop before presorting, on the reference tree fit.
    fn reference_fit(x: &[f64], n_features: usize, y: &[f64], params: &GbdtParams) -> Gbdt {
        let n = y.len();
        let base = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut trees = Vec::new();
        let mut rng = Rng::seed(params.seed);
        for round in 0..params.n_rounds {
            let residual: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let (mut sx, mut sr) = (x.to_vec(), residual.clone());
            if params.bagging_fraction < 1.0 {
                let mut rows: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut rows);
                rows.truncate(((n as f64) * params.bagging_fraction).ceil() as usize);
                sx = rows
                    .iter()
                    .flat_map(|&r| &x[r * n_features..(r + 1) * n_features])
                    .copied()
                    .collect();
                sr = rows.iter().map(|&r| residual[r]).collect();
            }
            let seed = params.seed.wrapping_add(round as u64 + 1);
            let tree = reference::fit(&sx, n_features, &sr, &params.tree, seed);
            for (p, u) in pred.iter_mut().zip(tree.predict(x)) {
                *p += params.learning_rate * u;
            }
            trees.push(tree);
        }
        Gbdt {
            base,
            learning_rate: params.learning_rate,
            trees,
            n_features,
        }
    }

    // Boosting on one presort (unbagged) or on a sample of it (bagged)
    // grows the reference's ensembles bit for bit, over the same matrices
    // as the tree property.
    #[test]
    fn presorted_boosting_matches_the_reference_bit_for_bit() {
        mistique_testkit::cases(400, 35, |g| {
            let n = g.len(1..150);
            let p = g.rng.range(1..=5usize);
            let x = reference::matrix(&mut g.rng, n, p);
            let y = reference::targets(&mut g.rng, n);
            let params = GbdtParams {
                n_rounds: g.rng.range(1..=6usize),
                learning_rate: [0.05, 0.3, 1.0][g.rng.range(0..3usize)],
                tree: TreeParams {
                    max_depth: g.rng.range(0..=6usize),
                    min_samples_split: g.rng.range(0..=20usize),
                    feature_fraction: [1.0, 0.6][g.rng.range(0..2usize)],
                    lambda: [0.0, 1.0][g.rng.range(0..2usize)],
                },
                bagging_fraction: [1.0, 1.0, 0.9, 0.6, 0.2][g.rng.range(0..5usize)],
                seed: g.rng.next_u64(),
            };
            let got = Gbdt::fit(&x, p, &y, &params);
            let want = reference_fit(&x, p, &y, &params);
            assert_eq!(got.base.to_bits(), want.base.to_bits());
            let arenas = |m: &Gbdt| m.trees.iter().map(reference::arena).collect::<Vec<_>>();
            assert_eq!(arenas(&got), arenas(&want), "n {n}, p {p}, {params:?}");
        });
    }
}
