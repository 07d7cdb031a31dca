//! Depth-limited regression trees (CART-style variance-reduction splits),
//! the weak learner inside the GBDT ensemble.

use mistique_rng::Rng;

/// Tree growth hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum examples in a node to consider splitting (LightGBM `min_data`).
    pub min_samples_split: usize,
    /// Fraction of features considered per split (LightGBM `sub_feature`).
    pub feature_fraction: f64,
    /// L2 regularization on leaf values (XGBoost `lambda`).
    pub lambda: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_samples_split: 20,
            feature_fraction: 1.0,
            lambda: 1.0,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree stored as a flat arena of nodes.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fit a tree on row-major `x` (`n x p`) against residual targets `y`.
    /// `seed` drives the per-split feature subsampling.
    pub fn fit(
        x: &[f64],
        n_features: usize,
        y: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let n = y.len();
        assert_eq!(x.len(), n * n_features, "x shape mismatch");
        assert!(n > 0, "empty training set");
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features,
        };
        let indices: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed(seed);
        tree.grow(x, y, indices, params, 0, &mut rng);
        tree
    }

    fn leaf_value(y: &[f64], idx: &[usize], lambda: f64) -> f64 {
        // Regularized mean, as in XGBoost's leaf weight: sum(g) / (n + lambda).
        let sum: f64 = idx.iter().map(|&i| y[i]).sum();
        sum / (idx.len() as f64 + lambda)
    }

    fn grow(
        &mut self,
        x: &[f64],
        y: &[f64],
        idx: Vec<usize>,
        params: &TreeParams,
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let make_leaf = |tree: &mut RegressionTree, idx: &[usize]| {
            tree.nodes.push(Node::Leaf {
                value: Self::leaf_value(y, idx, params.lambda),
            });
            tree.nodes.len() - 1
        };

        if depth >= params.max_depth || idx.len() < params.min_samples_split {
            return make_leaf(self, &idx);
        }

        // Candidate features under feature_fraction subsampling.
        let mut feats: Vec<usize> = (0..self.n_features).collect();
        rng.shuffle(&mut feats);
        let k = ((self.n_features as f64 * params.feature_fraction).ceil() as usize)
            .clamp(1, self.n_features);
        feats.truncate(k);

        // Best variance-reduction split across candidate features.
        let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
        let n = idx.len() as f64;
        let parent_score = total_sum * total_sum / n;

        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &feats {
            // Sort indices by the feature value; scan split points.
            let mut order: Vec<usize> = idx.clone();
            // total_cmp places NaN (missing) values last, so they fall into
            // the right branch of any split — matching predict_row's routing.
            order.sort_by(|&a, &b| {
                x[a * self.n_features + f].total_cmp(&x[b * self.n_features + f])
            });
            let mut left_sum = 0.0;
            let mut left_n = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_sum += y[i];
                left_n += 1.0;
                let cur = x[i * self.n_features + f];
                let next = x[order[w + 1] * self.n_features + f];
                if cur == next || !cur.is_finite() || !next.is_finite() {
                    continue; // no split between equal or non-finite values
                }
                let right_sum = total_sum - left_sum;
                let right_n = n - left_n;
                let score = left_sum * left_sum / (left_n + params.lambda)
                    + right_sum * right_sum / (right_n + params.lambda);
                let gain = score - parent_score;
                if best.map_or(gain > 1e-12, |(g, _, _)| gain > g) {
                    best = Some((gain, f, (cur + next) / 2.0));
                }
            }
        }
        let _ = total_sq;

        let Some((_, feature, threshold)) = best else {
            return make_leaf(self, &idx);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| x[i * self.n_features + feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            let all: Vec<usize> = left_idx.into_iter().chain(right_idx).collect();
            return make_leaf(self, &all);
        }

        // Reserve our slot, then grow children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(x, y, left_idx, params, depth + 1, rng);
        let right = self.grow(x, y, right_idx, params, depth + 1, rng);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Predict a single row (`row.len() == n_features`). NaN feature values
    /// follow the right branch (missing goes with "greater").
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        // The root is the first node pushed at depth 0 — which is the *last*
        // slot reserved... actually the root slot is index 0 only when the
        // root is a leaf; otherwise the root's slot is also 0 because grow()
        // reserves before recursing. Either way index 0 is the root.
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[*feature];
                    at = if v <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predict every row of a row-major matrix.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        x.chunks_exact(self.n_features)
            .map(|r| self.predict_row(r))
            .collect()
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        // y = 10 if x0 > 0.5 else -10, exactly learnable by one split.
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let v = i as f64 / n as f64;
            x.push(v);
            y.push(if v > 0.5 { 10.0 } else { -10.0 });
        }
        (x, y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data(200);
        let params = TreeParams {
            max_depth: 2,
            min_samples_split: 4,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, 1, &y, &params, 0);
        assert!((tree.predict_row(&[0.2]) + 10.0).abs() < 0.5);
        assert!((tree.predict_row(&[0.9]) - 10.0).abs() < 0.5);
    }

    #[test]
    fn depth_zero_is_single_leaf_mean() {
        let (x, y) = step_data(100);
        let params = TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, 1, &y, &params, 0);
        assert_eq!(tree.n_nodes(), 1);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((tree.predict_row(&[0.3]) - mean).abs() < 1e-9);
    }

    #[test]
    fn min_samples_split_limits_growth() {
        let (x, y) = step_data(10);
        let params = TreeParams {
            max_depth: 10,
            min_samples_split: 100, // never split
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, 1, &y, &params, 0);
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn two_feature_interaction() {
        // y = 5 iff x0 > 0 and x1 > 0, needs depth 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in -10..10 {
            for j in -10..10 {
                x.push(i as f64 + 0.5);
                x.push(j as f64 + 0.5);
                y.push(if i >= 0 && j >= 0 { 5.0 } else { 0.0 });
            }
        }
        let params = TreeParams {
            max_depth: 2,
            min_samples_split: 2,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, 2, &y, &params, 1);
        assert!((tree.predict_row(&[3.0, 3.0]) - 5.0).abs() < 0.5);
        assert!(tree.predict_row(&[-3.0, 3.0]).abs() < 0.5);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let (x, y) = step_data(20);
        let p0 = TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..Default::default()
        };
        let p_big = TreeParams {
            max_depth: 0,
            lambda: 100.0,
            ..Default::default()
        };
        let t0 = RegressionTree::fit(&x, 1, &y, &p0, 0);
        let tb = RegressionTree::fit(&x, 1, &y, &p_big, 0);
        assert!(tb.predict_row(&[0.1]).abs() <= t0.predict_row(&[0.1]).abs() + 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = step_data(300);
        let params = TreeParams {
            feature_fraction: 0.5,
            ..Default::default()
        };
        let a = RegressionTree::fit(&x, 1, &y, &params, 42);
        let b = RegressionTree::fit(&x, 1, &y, &params, 42);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn nan_features_route_right() {
        let (x, y) = step_data(200);
        let params = TreeParams {
            max_depth: 2,
            min_samples_split: 4,
            lambda: 0.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, 1, &y, &params, 0);
        // NaN <= t is false, so NaN follows the right (">") branch.
        let nan_pred = tree.predict_row(&[f64::NAN]);
        let right_pred = tree.predict_row(&[0.99]);
        assert_eq!(nan_pred, right_pred);
    }
}
