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

/// The total order `f64::total_cmp` sorts by, as an integer key.
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A training matrix with every feature's rows sorted once, so a fit scans
/// split points without sorting (the column blocks of XGBoost's exact
/// greedy algorithm). [`Gbdt::fit`](super::Gbdt::fit) sorts an unbagged
/// matrix once for all its rounds.
pub(crate) struct Presorted {
    n_rows: usize,
    n_features: usize,
    /// Column-major copy of the matrix: feature `f`'s values at
    /// `f * n_rows..(f + 1) * n_rows`.
    cols: Vec<f64>,
    /// Feature `f`'s rows at `f * n_rows..(f + 1) * n_rows`, ascending by
    /// `(value in f64::total_cmp order, row)`.
    order: Vec<u32>,
}

impl Presorted {
    /// Presort row-major `x` (`n_rows x n_features`).
    pub(crate) fn new(x: &[f64], n_features: usize, n_rows: usize) -> Presorted {
        assert_eq!(x.len(), n_rows * n_features, "x shape mismatch");
        assert!(u32::try_from(n_rows).is_ok(), "more than u32::MAX rows");
        let mut cols = Vec::with_capacity(x.len());
        let mut order = Vec::with_capacity(x.len());
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(n_rows);
        for f in 0..n_features {
            let col = (0..n_rows).map(|r| x[r * n_features + f]);
            cols.extend(col.clone());
            keyed.clear();
            keyed.extend(col.zip(0u32..).map(|(v, r)| (total_order_key(v), r)));
            // The pairs are distinct, so an unstable sort is the order a
            // stable sort by value gives an ascending row list.
            keyed.sort_unstable();
            order.extend(keyed.iter().map(|&(_, r)| r));
        }
        Presorted {
            n_rows,
            n_features,
            cols,
            order,
        }
    }
}

/// One tree's growth state. A node owns the same range `lo..hi` of every
/// feature's sorted rows and of `rows`; a split stably partitions each by
/// "goes left", so every child range stays sorted by `(value, row)` and
/// `rows` stays ascending. That fixes the fit's summation order (DESIGN.md
/// "Tree fit order contract").
struct Grower<'a> {
    pre: &'a Presorted,
    y: &'a [f64],
    params: &'a TreeParams,
    rng: Rng,
    nodes: Vec<Node>,
    /// A copy of `pre.order`, partitioned in place as the tree grows.
    order: Vec<u32>,
    /// Each node's rows, ascending.
    rows: Vec<u32>,
    goes_left: Vec<bool>,
    spill: Vec<u32>,
}

impl Grower<'_> {
    fn leaf(&mut self, lo: usize, hi: usize) -> usize {
        // Regularized mean, as in XGBoost's leaf weight: sum(g) / (n + lambda).
        let sum: f64 = self.rows[lo..hi].iter().map(|&i| self.y[i as usize]).sum();
        let value = sum / ((hi - lo) as f64 + self.params.lambda);
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (y, params) = (self.y, self.params);
        let (n_rows, n_features) = (self.pre.n_rows, self.pre.n_features);
        let m = hi - lo;
        if depth >= params.max_depth || m < params.min_samples_split {
            return self.leaf(lo, hi);
        }

        // Candidate features under feature_fraction subsampling.
        let mut feats: Vec<usize> = (0..n_features).collect();
        self.rng.shuffle(&mut feats);
        let k =
            ((n_features as f64 * params.feature_fraction).ceil() as usize).clamp(1, n_features);
        feats.truncate(k);

        // Best variance-reduction split across candidate features.
        let total_sum: f64 = self.rows[lo..hi].iter().map(|&i| y[i as usize]).sum();
        let n = m as f64;
        let parent_score = total_sum * total_sum / n;

        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &feats {
            // Scan the split points of the node's rows in value order. NaN
            // (missing) sorts last, so it falls into the right branch of any
            // split — matching predict_row's routing.
            let col = &self.pre.cols[f * n_rows..(f + 1) * n_rows];
            let order = &self.order[f * n_rows + lo..f * n_rows + hi];
            let mut left_sum = 0.0;
            let mut left_n = 0.0;
            for w in 0..m - 1 {
                let i = order[w] as usize;
                left_sum += y[i];
                left_n += 1.0;
                let cur = col[i];
                let next = col[order[w + 1] as usize];
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

        let Some((_, feature, threshold)) = best else {
            return self.leaf(lo, hi);
        };

        let col = &self.pre.cols[feature * n_rows..(feature + 1) * n_rows];
        let mut n_left = 0;
        for &i in &self.rows[lo..hi] {
            let left = col[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == m {
            return self.leaf(lo, hi);
        }
        // A child that will be a leaf reads only `rows`.
        let leaf = |m| depth + 1 >= params.max_depth || m < params.min_samples_split;
        self.partition(lo, hi, !(leaf(n_left) && leaf(m - n_left)));

        // Reserve our slot, then grow children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(lo, lo + n_left, depth + 1);
        let right = self.grow(lo + n_left, hi, depth + 1);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Stably partition `lo..hi` of `rows`, and of every feature's order
    /// when `features` is set, by `goes_left`: left rows first, each side
    /// in its previous order. Branch-free, as `goes_left` is a coin toss.
    fn partition(&mut self, lo: usize, hi: usize, features: bool) {
        let n_rows = self.pre.n_rows;
        let n_lists = if features { self.pre.n_features } else { 0 };
        let lists = std::iter::once(&mut self.rows[lo..hi]).chain(
            self.order
                .chunks_exact_mut(n_rows)
                .take(n_lists)
                .map(|list| &mut list[lo..hi]),
        );
        for list in lists {
            let (mut kept, mut spilled) = (0, 0);
            for w in 0..list.len() {
                let i = list[w];
                let left = self.goes_left[i as usize];
                list[kept] = i;
                self.spill[spilled] = i;
                kept += usize::from(left);
                spilled += usize::from(!left);
            }
            list[kept..].copy_from_slice(&self.spill[..spilled]);
        }
    }
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
        Self::fit_presorted(&Presorted::new(x, n_features, n), y, params, seed)
    }

    /// [`RegressionTree::fit`] on a matrix presorted by [`Presorted::new`].
    pub(crate) fn fit_presorted(
        pre: &Presorted,
        y: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let n = y.len();
        assert_eq!(pre.n_rows, n, "y length mismatch");
        assert!(n > 0, "empty training set");
        let mut grower = Grower {
            pre,
            y,
            params,
            rng: Rng::seed(seed),
            nodes: Vec::new(),
            order: pre.order.clone(),
            rows: (0..n as u32).collect(),
            goes_left: vec![false; n],
            spill: vec![0; n],
        };
        grower.grow(0, n, 0);
        RegressionTree {
            nodes: grower.nodes,
            n_features: pre.n_features,
        }
    }

    /// Predict a single row (`row.len() == n_features`). NaN feature values
    /// follow the right branch (missing goes with "greater").
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        // The root is node 0: a leaf root is the only node, and a split root
        // reserves slot 0 before its children are grown.
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

/// The fit before presorting, kept to pin the presorted fit bit for bit:
/// every node stably re-sorts its ascending rows per candidate feature.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn fit(
        x: &[f64],
        n_features: usize,
        y: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features,
        };
        let indices: Vec<usize> = (0..y.len()).collect();
        let mut rng = Rng::seed(seed);
        grow(&mut tree, x, y, indices, params, 0, &mut rng);
        tree
    }

    /// Every node's kind, value bits and links.
    pub(crate) fn arena(tree: &RegressionTree) -> Vec<[u64; 4]> {
        let node = |n: &Node| match *n {
            Node::Leaf { value } => [u64::MAX, value.to_bits(), 0, 0],
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => [
                feature as u64,
                threshold.to_bits(),
                left as u64,
                right as u64,
            ],
        };
        tree.nodes.iter().map(node).collect()
    }

    fn leaf_value(y: &[f64], idx: &[usize], lambda: f64) -> f64 {
        let sum: f64 = idx.iter().map(|&i| y[i]).sum();
        sum / (idx.len() as f64 + lambda)
    }

    fn grow(
        tree: &mut RegressionTree,
        x: &[f64],
        y: &[f64],
        idx: Vec<usize>,
        params: &TreeParams,
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let p = tree.n_features;
        let make_leaf = |tree: &mut RegressionTree, idx: &[usize]| {
            tree.nodes.push(Node::Leaf {
                value: leaf_value(y, idx, params.lambda),
            });
            tree.nodes.len() - 1
        };
        if depth >= params.max_depth || idx.len() < params.min_samples_split {
            return make_leaf(tree, &idx);
        }
        let mut feats: Vec<usize> = (0..p).collect();
        rng.shuffle(&mut feats);
        let k = ((p as f64 * params.feature_fraction).ceil() as usize).clamp(1, p);
        feats.truncate(k);

        let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
        let n = idx.len() as f64;
        let parent_score = total_sum * total_sum / n;
        let mut best: Option<(f64, usize, f64)> = None;
        for &f in &feats {
            let mut order: Vec<usize> = idx.clone();
            order.sort_by(|&a, &b| x[a * p + f].total_cmp(&x[b * p + f]));
            let mut left_sum = 0.0;
            let mut left_n = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_sum += y[i];
                left_n += 1.0;
                let cur = x[i * p + f];
                let next = x[order[w + 1] * p + f];
                if cur == next || !cur.is_finite() || !next.is_finite() {
                    continue;
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
        let Some((_, feature, threshold)) = best else {
            return make_leaf(tree, &idx);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| x[i * p + feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            let all: Vec<usize> = left_idx.into_iter().chain(right_idx).collect();
            return make_leaf(tree, &all);
        }
        let slot = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: 0.0 });
        let left = grow(tree, x, y, left_idx, params, depth + 1, rng);
        let right = grow(tree, x, y, right_idx, params, depth + 1, rng);
        tree.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Random targets: continuous, small integers, or cancelling ±1e16
    /// magnitudes, so a sum taken in another order lands on other bits and
    /// picks another split.
    pub(crate) fn targets(rng: &mut Rng, n: usize) -> Vec<f64> {
        const CANCEL: [f64; 4] = [1e16, -1e16, 1.0, -3.5];
        let kind = rng.range(0..3u32);
        (0..n)
            .map(|_| match kind {
                0 => rng.range(-5.0..5.0),
                1 => rng.range(-3..=3i64) as f64,
                _ => CANCEL[rng.range(0..CANCEL.len())],
            })
            .collect()
    }

    /// A random `n x p` row-major matrix whose columns are each constant,
    /// a few tied values (±0.0 among them), continuous, or edge-heavy (NaN,
    /// ±inf, ±MAX, so that `(cur + next) / 2` overflows, and any finite
    /// value).
    pub(crate) fn matrix(rng: &mut Rng, n: usize, p: usize) -> Vec<f64> {
        const TIES: [f64; 5] = [-1.5, -0.0, 0.0, 2.0, 7.25];
        let mut x = vec![0.0; n * p];
        for f in 0..p {
            let kind = rng.range(0..4u32);
            let constant = TIES[rng.range(0..TIES.len())];
            for r in 0..n {
                x[r * p + f] = match kind {
                    0 => constant,
                    1 => TIES[rng.range(0..TIES.len())],
                    2 => rng.range(-10.0..10.0),
                    _ => match rng.range(0..8u32) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => f64::MAX,
                        4 => -f64::MAX,
                        5 => mistique_testkit::finite_f64(rng),
                        _ => TIES[rng.range(0..TIES.len())],
                    },
                };
            }
        }
        x
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

    // The presorted fit grows the reference's trees bit for bit: every node,
    // threshold and leaf value, over heavy ties, ±0.0, NaN, ±inf, ±MAX,
    // constant columns, nodes under `min_samples_split`, `lambda = 0`,
    // feature subsampling and depths 0–6.
    #[test]
    fn presorted_fit_matches_the_reference_bit_for_bit() {
        mistique_testkit::cases(300, 34, |g| {
            let n = g.len(1..120);
            let p = g.rng.range(1..=6usize);
            let x = reference::matrix(&mut g.rng, n, p);
            let y = reference::targets(&mut g.rng, n);
            let params = TreeParams {
                max_depth: g.rng.range(0..=6usize),
                min_samples_split: g.rng.range(0..=30usize),
                feature_fraction: [1.0, 0.8, 0.5, 0.2][g.rng.range(0..4usize)],
                lambda: [0.0, 0.5, 1.0][g.rng.range(0..3usize)],
            };
            let seed = g.rng.next_u64();
            let got = RegressionTree::fit(&x, p, &y, &params, seed);
            let want = reference::fit(&x, p, &y, &params, seed);
            assert_eq!(
                reference::arena(&got),
                reference::arena(&want),
                "n {n}, p {p}, {params:?}"
            );
        });
    }
}
