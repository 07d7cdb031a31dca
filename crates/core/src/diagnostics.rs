//! Diagnostic queries (Table 1 / Table 5): implemented on top of
//! `get_intermediates`, as the paper's "common analytic functions applied on
//! top of the numpy array result".

use mistique_dataframe::DataFrame;
use mistique_linalg::stats::percentile;
use mistique_linalg::{svcca, Matrix, Pca, SvccaResult};

use crate::audit::{args_of, csv, AuditArgs};
use crate::capture::feature_column;
use crate::error::MistiqueError;
use crate::system::Mistique;

// The whole-frame diagnostics below read columns in place: cell by cell
// through `ColumnData::f64_at`, or one column at a time through
// `ColumnData::f64_view` and a scratch vector the walk reuses — never an f64
// copy of the frame. The benchmark's oracle recomputes their answers with
// its own loops and compares bits, so each keeps its summation order: a
// row's distance adds its columns in column order, a (group, column) sum adds
// its rows in row order.

/// Convert a fetched intermediate into a dense matrix (rows = examples),
/// gathered in the matrix's own row-major order so every write is the next
/// cell (scattering a column at a time measured 2.5x slower at 2000 x 256).
pub fn frame_to_matrix(frame: &DataFrame) -> Matrix {
    let n = frame.n_rows();
    let p = frame.n_cols();
    let mut data = Vec::with_capacity(n * p);
    for r in 0..n {
        data.extend(frame.columns().iter().map(|c| c.data.f64_at(r)));
    }
    Matrix::from_vec(n, p, data)
}

/// A fetched intermediate as the matrix an SVD takes: at least one row and
/// every cell finite (a NaN or ±inf cell — a saturated LP_QT column, a
/// missing TRAD value — has no decomposition to report).
fn decomposable(frame: &DataFrame, intermediate: &str) -> Result<Matrix, MistiqueError> {
    let m = frame_to_matrix(frame);
    if m.rows() == 0 {
        return Err(MistiqueError::Invalid(format!(
            "{intermediate} has no rows"
        )));
    }
    if let Some(at) = m.data().iter().position(|x| !x.is_finite()) {
        return Err(MistiqueError::Invalid(format!(
            "{intermediate} holds a non-finite value (row {}, column {})",
            at / m.cols(),
            frame.columns()[at % m.cols()].name
        )));
    }
    Ok(m)
}

/// POINTQ's arithmetic: the cell of the frame's first column at `row`.
fn point(frame: &DataFrame, row: usize) -> Result<f64, MistiqueError> {
    if row >= frame.n_rows() {
        return Err(MistiqueError::Invalid(format!("row {row} out of range")));
    }
    Ok(frame.columns()[0].data.f64_at(row))
}

/// ROW_DIFF's arithmetic: `(column, row_a - row_b)` for every column.
fn row_deltas(
    frame: &DataFrame,
    row_a: usize,
    row_b: usize,
) -> Result<Vec<(String, f64)>, MistiqueError> {
    if row_a >= frame.n_rows() || row_b >= frame.n_rows() {
        return Err(MistiqueError::Invalid("row out of range".into()));
    }
    Ok(frame
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.data.f64_at(row_a) - c.data.f64_at(row_b)))
        .collect())
}

/// VIS's arithmetic: the `n_groups x n_columns` matrix of per-group column
/// means, each (group, column) sum accumulated in row order.
fn group_means(frame: &DataFrame, groups: &[u8], n_groups: usize) -> Result<Matrix, MistiqueError> {
    let groups = &groups[..frame.n_rows().min(groups.len())];
    let p = frame.n_cols();
    let mut counts = vec![0usize; n_groups];
    for &g in groups {
        let g = g as usize;
        if g >= n_groups {
            return Err(MistiqueError::Invalid(format!("group {g} out of range")));
        }
        counts[g] += 1;
    }
    let mut sums = Matrix::zeros(n_groups, p);
    let mut scratch = Vec::new();
    for (j, c) in frame.columns().iter().enumerate() {
        for (&g, &x) in groups.iter().zip(c.data.f64_view(&mut scratch)) {
            sums[(g as usize, j)] += x;
        }
    }
    for g in 0..n_groups {
        if counts[g] > 0 {
            for j in 0..p {
                sums[(g, j)] /= counts[g] as f64;
            }
        }
    }
    Ok(sums)
}

/// KNN's arithmetic: the `k` rows nearest to `row` under L2 distance over
/// all columns, nearest first, equal distances by ascending row id. A row's
/// squared distance adds its columns in column order.
fn nearest_rows(
    frame: &DataFrame,
    row: usize,
    k: usize,
) -> Result<Vec<(usize, f64)>, MistiqueError> {
    let n = frame.n_rows();
    if row >= n {
        return Err(MistiqueError::Invalid(format!("row {row} out of range")));
    }
    let mut squared = vec![0.0f64; n];
    let mut scratch = Vec::new();
    for c in frame.columns() {
        let values = c.data.f64_view(&mut scratch);
        let q = values[row];
        for (acc, &x) in squared.iter_mut().zip(values) {
            *acc += (x - q) * (x - q);
        }
    }
    let mut dists: Vec<(usize, f64)> = squared
        .into_iter()
        .map(f64::sqrt)
        .enumerate()
        .filter(|&(i, _)| i != row)
        .collect();
    // The order a stable sort on distance gives, reached by selecting the k
    // smallest and sorting only those.
    let nearer = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    if 0 < k && k < dists.len() {
        dists.select_nth_unstable_by(k - 1, nearer);
    }
    dists.truncate(k);
    dists.sort_unstable_by(nearer);
    Ok(dists)
}

/// Per-row argmax over the frame's columns: the running maximum of every
/// row, one column at a time; only a strictly greater value replaces it, so
/// the first maximum wins.
fn argmax_rows(frame: &DataFrame) -> Result<Vec<usize>, MistiqueError> {
    let Some((first, rest)) = frame.columns().split_first() else {
        return Err(MistiqueError::Invalid("no columns".into()));
    };
    let mut scratch = Vec::new();
    let mut best_value = first.data.f64_view(&mut scratch).to_vec();
    let mut best = vec![0usize; best_value.len()];
    for (j, c) in rest.iter().enumerate() {
        let values = c.data.f64_view(&mut scratch);
        for ((value, at), &x) in best_value.iter_mut().zip(&mut best).zip(values) {
            if x > *value {
                *value = x;
                *at = j + 1;
            }
        }
    }
    Ok(best)
}

/// A histogram bucket for COL_DIST.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistBucket {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bucket).
    pub hi: f64,
    /// Number of values in the bucket.
    pub count: usize,
}

impl Mistique {
    /// The one entry point of every diagnostic: an audited call (`op` names
    /// the journal record, `args` is its lazily rendered fingerprint — see
    /// [`Mistique::audited`]) whose inner fetches report `op` as their
    /// query. The outermost label wins when diagnostics nest (e.g.
    /// `confusion_matrix` delegating to `argmax_predictions`).
    fn diag<T>(
        &mut self,
        op: &str,
        args: impl FnOnce() -> AuditArgs,
        body: impl FnOnce(&mut Mistique) -> Result<T, MistiqueError>,
    ) -> Result<T, MistiqueError> {
        self.audited(op, args, |sys| {
            let outer = sys.query_label.take();
            sys.query_label = outer.clone().or_else(|| Some(op.to_string()));
            let out = body(sys);
            sys.query_label = outer;
            out
        })
    }

    /// POINTQ: a single cell — e.g. "the activation of neuron-35 in layer-4
    /// for image-345".
    pub fn pointq(
        &mut self,
        intermediate: &str,
        column: &str,
        row: usize,
    ) -> Result<f64, MistiqueError> {
        let args = || args_of(&[("interm", &intermediate), ("col", &column), ("row", &row)]);
        self.diag("diag.pointq", args, |sys| {
            let r = sys.get_intermediate(intermediate, Some(&[column]), None)?;
            point(&r.frame, row)
        })
    }

    /// TOPK: the `k` rows with the highest values in one column — e.g. "the
    /// top-10 images that produce the highest activations for neuron-35".
    /// Returns `(row_id, value)` pairs, highest first.
    pub fn topk(
        &mut self,
        intermediate: &str,
        column: &str,
        k: usize,
    ) -> Result<Vec<(usize, f64)>, MistiqueError> {
        let args = || args_of(&[("interm", &intermediate), ("col", &column), ("k", &k)]);
        self.diag("diag.topk", args, |sys| {
            // Indexed fast path: the max-activation list answers without
            // touching the store whenever the planner would have chosen Read.
            if let Some(top) = sys.try_indexed_topk(intermediate, column, k) {
                return Ok(top);
            }
            let r = sys.get_intermediate(intermediate, Some(&[column]), None)?;
            let values = r.frame.columns()[0].data.to_f64();
            let mut pairs: Vec<(usize, f64)> = values.into_iter().enumerate().collect();
            pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
            pairs.truncate(k);
            Ok(pairs)
        })
    }

    /// COL_DIST: histogram of a column — e.g. "plot the error rates for all
    /// homes".
    pub fn col_dist(
        &mut self,
        intermediate: &str,
        column: &str,
        n_buckets: usize,
    ) -> Result<Vec<HistBucket>, MistiqueError> {
        let args = || {
            args_of(&[
                ("interm", &intermediate),
                ("col", &column),
                ("buckets", &n_buckets),
            ])
        };
        self.diag("diag.col_dist", args, |sys| {
            if n_buckets == 0 {
                return Err(MistiqueError::Invalid("need at least one bucket".into()));
            }
            let r = sys.get_intermediate(intermediate, Some(&[column]), None)?;
            let values: Vec<f64> = r.frame.columns()[0]
                .data
                .to_f64()
                .into_iter()
                .filter(|v| v.is_finite())
                .collect();
            if values.is_empty() {
                return Ok(vec![]);
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let width = ((hi - lo) / n_buckets as f64).max(f64::MIN_POSITIVE);
            let mut buckets: Vec<HistBucket> = (0..n_buckets)
                .map(|i| HistBucket {
                    lo: lo + width * i as f64,
                    hi: lo + width * (i + 1) as f64,
                    count: 0,
                })
                .collect();
            for v in values {
                let idx = (((v - lo) / width) as usize).min(n_buckets - 1);
                buckets[idx].count += 1;
            }
            Ok(buckets)
        })
    }

    /// COL_DIFF: rows whose values differ between two columns (possibly of
    /// different intermediates/models) — e.g. "find the examples whose
    /// predictions differed between CIFAR10_CNN and CIFAR10_VGG16".
    pub fn col_diff(
        &mut self,
        intermediate_a: &str,
        column_a: &str,
        intermediate_b: &str,
        column_b: &str,
        tolerance: f64,
    ) -> Result<Vec<usize>, MistiqueError> {
        let args = || {
            args_of(&[
                ("interm_a", &intermediate_a),
                ("col_a", &column_a),
                ("interm_b", &intermediate_b),
                ("col_b", &column_b),
                ("tol", &tolerance),
            ])
        };
        self.diag("diag.col_diff", args, |sys| {
            let a = sys.get_intermediate(intermediate_a, Some(&[column_a]), None)?;
            let b = sys.get_intermediate(intermediate_b, Some(&[column_b]), None)?;
            let va = a.frame.columns()[0].data.to_f64();
            let vb = b.frame.columns()[0].data.to_f64();
            let n = va.len().min(vb.len());
            Ok((0..n)
                .filter(|&i| (va[i] - vb[i]).abs() > tolerance)
                .collect())
        })
    }

    /// ROW_DIFF: per-column deltas between two rows — e.g. "compare features
    /// for Home-50 and Home-55".
    pub fn row_diff(
        &mut self,
        intermediate: &str,
        row_a: usize,
        row_b: usize,
    ) -> Result<Vec<(String, f64)>, MistiqueError> {
        let args = || {
            args_of(&[
                ("interm", &intermediate),
                ("row_a", &row_a),
                ("row_b", &row_b),
            ])
        };
        self.diag("diag.row_diff", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            row_deltas(&r.frame, row_a, row_b)
        })
    }

    /// VIS: per-group mean of every column — e.g. "plot the average
    /// activations for all neurons in layer-5 across all classes" (ActiVis).
    /// `groups[i]` is the group (class) of row `i`; returns a
    /// `n_groups x n_columns` matrix of means.
    pub fn vis(
        &mut self,
        intermediate: &str,
        groups: &[u8],
        n_groups: usize,
    ) -> Result<Matrix, MistiqueError> {
        let args = || {
            vec![
                ("interm", intermediate.to_string()),
                ("groups", csv(groups)),
                ("n_groups", n_groups.to_string()),
            ]
        };
        self.diag("diag.vis", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            group_means(&r.frame, groups, n_groups)
        })
    }

    /// KNN: the `k` nearest rows to `row` under L2 distance over all columns
    /// — e.g. "find performance for images similar to image-51". Excludes
    /// the query row itself. Returns `(row_id, distance)` pairs.
    pub fn knn(
        &mut self,
        intermediate: &str,
        row: usize,
        k: usize,
    ) -> Result<Vec<(usize, f64)>, MistiqueError> {
        let args = || args_of(&[("interm", &intermediate), ("row", &row), ("k", &k)]);
        self.diag("diag.knn", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            nearest_rows(&r.frame, row, k)
        })
    }

    /// SVCCA (Alg. 2): compare the representations of two intermediates —
    /// e.g. "similarity between the logits and the last conv layer".
    pub fn svcca(
        &mut self,
        intermediate_a: &str,
        intermediate_b: &str,
        variance_frac: f64,
    ) -> Result<SvccaResult, MistiqueError> {
        let args = || {
            args_of(&[
                ("interm_a", &intermediate_a),
                ("interm_b", &intermediate_b),
                ("var_frac", &variance_frac),
            ])
        };
        self.diag("diag.svcca", args, |sys| {
            if !(variance_frac > 0.0 && variance_frac <= 1.0) {
                return Err(MistiqueError::Invalid(format!(
                    "variance fraction {variance_frac} outside (0, 1]"
                )));
            }
            let a = sys.get_intermediate(intermediate_a, None, None)?;
            let b = sys.get_intermediate(intermediate_b, None, None)?;
            let ma = decomposable(&a.frame, intermediate_a)?;
            let mb = decomposable(&b.frame, intermediate_b)?;
            if ma.rows() != mb.rows() {
                return Err(MistiqueError::Invalid(format!(
                    "{intermediate_a} has {} rows, {intermediate_b} has {}: SVCCA compares the same examples",
                    ma.rows(),
                    mb.rows()
                )));
            }
            Ok(svcca(&ma, &mb, variance_frac))
        })
    }

    /// NetDissect (Alg. 3): interpretability score of one convolutional unit
    /// against a pixel-level concept mask. `unit` selects the channel; the
    /// intermediate's stored `shape` provides the map geometry;
    /// `concept_masks[i]` is the concept mask of image `i` at the stored
    /// resolution. Returns the intersection-over-union score.
    pub fn netdissect(
        &mut self,
        intermediate: &str,
        unit: usize,
        concept_masks: &[Vec<bool>],
        alpha: f64,
    ) -> Result<f64, MistiqueError> {
        let args = || {
            // Concept masks are pixel-level inputs too large to journal;
            // record a digest so replay can detect (and report) the
            // unreplayable call.
            let mut digest = 0u64;
            for mask in concept_masks {
                for &b in mask {
                    digest = crate::audit::fnv1a(digest, &[b as u8]);
                }
            }
            args_of(&[
                ("interm", &intermediate),
                ("unit", &unit),
                ("alpha", &alpha),
                ("masks_n", &concept_masks.len()),
                ("masks_digest", &format!("{digest:016x}")),
            ])
        };
        self.diag("diag.netdissect", args, |sys| {
            let shape = sys
                .metadata()
                .intermediate(intermediate)
                .ok_or_else(|| MistiqueError::UnknownIntermediate(intermediate.into()))?
                .shape
                .ok_or_else(|| MistiqueError::Invalid("intermediate has no map shape".into()))?;
            let (c, h, w) = shape;
            if unit >= c {
                return Err(MistiqueError::Invalid(format!(
                    "unit {unit} out of {c} channels"
                )));
            }
            let map_size = h * w;
            // Fetch only the columns of this unit's activation map.
            let wanted: Vec<String> = (unit * map_size..(unit + 1) * map_size)
                .map(feature_column)
                .collect();
            let refs: Vec<&str> = wanted.iter().map(|s| s.as_str()).collect();
            let r = sys.get_intermediate(intermediate, Some(&refs), None)?;
            let n = r.frame.n_rows();
            if concept_masks.len() < n {
                return Err(MistiqueError::Invalid("not enough concept masks".into()));
            }
            let masks = &concept_masks[..n];
            if masks.iter().any(|mask| mask.len() != map_size) {
                return Err(MistiqueError::Invalid("mask resolution mismatch".into()));
            }

            // T_k = (1 - alpha) percentile over all of the unit's
            // activations, gathered one map position (column) after another.
            let mut all: Vec<f64> = Vec::with_capacity(n * map_size);
            let mut scratch = Vec::new();
            for c in r.frame.columns() {
                all.extend_from_slice(c.data.f64_view(&mut scratch));
            }
            // A NaN has no rank among the activations T_k is a rank of.
            if let Some(at) = all.iter().position(|v| v.is_nan()) {
                return Err(MistiqueError::Invalid(format!(
                    "{intermediate} holds a NaN (row {}, column {})",
                    at % n,
                    wanted[at / n]
                )));
            }
            let t_k = percentile(&all, 1.0 - alpha);

            // IoU between binarized maps and concept masks.
            let mut inter = 0usize;
            let mut union = 0usize;
            for (j, col) in all.chunks_exact(n.max(1)).enumerate() {
                for (mask, &x) in masks.iter().zip(col) {
                    let active = x > t_k;
                    let concept = mask[j];
                    if active && concept {
                        inter += 1;
                    }
                    if active || concept {
                        union += 1;
                    }
                }
            }
            Ok(if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            })
        })
    }

    /// Per-row argmax over an intermediate's columns — class predictions
    /// from a softmax/logit layer.
    pub fn argmax_predictions(&mut self, intermediate: &str) -> Result<Vec<usize>, MistiqueError> {
        let args = || args_of(&[("interm", &intermediate)]);
        self.diag("diag.argmax_predictions", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            argmax_rows(&r.frame)
        })
    }

    /// Confusion matrix (Table 1: "compute the confusion matrix for the
    /// training dataset"): entry `(t, p)` counts examples of true class `t`
    /// predicted as class `p`. The intermediate must be a per-class score
    /// layer (softmax/logits).
    pub fn confusion_matrix(
        &mut self,
        intermediate: &str,
        labels: &[u8],
        n_classes: usize,
    ) -> Result<Vec<Vec<usize>>, MistiqueError> {
        let args = || {
            vec![
                ("interm", intermediate.to_string()),
                ("labels", csv(labels)),
                ("n_classes", n_classes.to_string()),
            ]
        };
        self.diag("diag.confusion_matrix", args, |sys| {
            let preds = sys.argmax_predictions(intermediate)?;
            let mut m = vec![vec![0usize; n_classes]; n_classes];
            for (i, &p) in preds.iter().enumerate().take(labels.len()) {
                let t = labels[i] as usize;
                if t >= n_classes || p >= n_classes {
                    return Err(MistiqueError::Invalid(format!(
                        "class out of range: true {t} pred {p}"
                    )));
                }
                m[t][p] += 1;
            }
            Ok(m)
        })
    }

    /// Classification accuracy against labels (argmax of the intermediate).
    pub fn accuracy(&mut self, intermediate: &str, labels: &[u8]) -> Result<f64, MistiqueError> {
        let args = || {
            vec![
                ("interm", intermediate.to_string()),
                ("labels", csv(labels)),
            ]
        };
        self.diag("diag.accuracy", args, |sys| {
            let preds = sys.argmax_predictions(intermediate)?;
            let n = preds.len().min(labels.len());
            if n == 0 {
                return Ok(0.0);
            }
            let hits = (0..n).filter(|&i| preds[i] == labels[i] as usize).count();
            Ok(hits as f64 / n as f64)
        })
    }

    /// Rows where `column > threshold` — the paper's Sec 8.3 example of a
    /// query only MISTIQUE can index ("find predictions for examples with
    /// neuron-50 activation > 0.5"). Combine with
    /// [`Mistique::get_rows`] to fetch the matching examples from any other
    /// intermediate.
    pub fn select_where_gt(
        &mut self,
        intermediate: &str,
        column: &str,
        threshold: f64,
    ) -> Result<Vec<usize>, MistiqueError> {
        let args = || {
            args_of(&[
                ("interm", &intermediate),
                ("col", &column),
                ("threshold", &threshold),
            ])
        };
        self.diag("diag.select_where_gt", args, |sys| {
            // Indexed fast path: zone maps prune blocks whose max cannot clear
            // the threshold; only the surviving blocks are read and filtered.
            if let Some(rows) = sys.try_indexed_select_gt(intermediate, column, threshold)? {
                return Ok(rows);
            }
            let r = sys.get_intermediate(intermediate, Some(&[column]), None)?;
            Ok(r.frame.columns()[0]
                .data
                .to_f64()
                .into_iter()
                .enumerate()
                .filter(|(_, v)| *v > threshold)
                .map(|(i, _)| i)
                .collect())
        })
    }

    /// Project an intermediate's representation onto its top `k` principal
    /// components — the 2-D/3-D scatter view ActiVis-style front-ends draw.
    /// Returns the `n x k` projection and the variance fraction captured.
    pub fn pca_projection(
        &mut self,
        intermediate: &str,
        k: usize,
    ) -> Result<(Matrix, f64), MistiqueError> {
        let args = || args_of(&[("interm", &intermediate), ("k", &k)]);
        self.diag("diag.pca_projection", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            let (n, p) = (r.frame.n_rows(), r.frame.n_cols());
            if k == 0 || k > n.min(p) {
                return Err(MistiqueError::Invalid(format!(
                    "k={k} out of range for {n} rows of {p} columns"
                )));
            }
            let m = decomposable(&r.frame, intermediate)?;
            let (_, projection, frac) = Pca::fit_project(&m, k);
            Ok((projection, frac))
        })
    }

    /// Mean of one column per group (Table 1: "compare model performance
    /// grouped by type of house"). Returns `(group, mean, count)` rows for
    /// groups 0..n_groups.
    pub fn group_metric(
        &mut self,
        intermediate: &str,
        column: &str,
        groups: &[u8],
        n_groups: usize,
    ) -> Result<Vec<(usize, f64, usize)>, MistiqueError> {
        let args = || {
            vec![
                ("interm", intermediate.to_string()),
                ("col", column.to_string()),
                ("groups", csv(groups)),
                ("n_groups", n_groups.to_string()),
            ]
        };
        self.diag("diag.group_metric", args, |sys| {
            let r = sys.get_intermediate(intermediate, Some(&[column]), None)?;
            let values = r.frame.columns()[0].data.to_f64();
            let mut sums = vec![0.0; n_groups];
            let mut counts = vec![0usize; n_groups];
            for (i, &v) in values.iter().enumerate().take(groups.len()) {
                let g = groups[i] as usize;
                if g >= n_groups {
                    return Err(MistiqueError::Invalid(format!("group {g} out of range")));
                }
                sums[g] += v;
                counts[g] += 1;
            }
            Ok((0..n_groups)
                .map(|g| {
                    let mean = if counts[g] > 0 {
                        sums[g] / counts[g] as f64
                    } else {
                        0.0
                    };
                    (g, mean, counts[g])
                })
                .collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MistiqueConfig, StorageStrategy};
    use mistique_nn::{simple_cnn, CifarLike};
    use mistique_pipeline::templates::zillow_pipelines;
    use mistique_pipeline::ZillowData;
    use std::sync::Arc;

    fn trad() -> (mistique_testkit::TempDir, Mistique, String) {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 50,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(ZillowData::generate(200, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        (dir, sys, id)
    }

    fn dnn() -> (mistique_testkit::TempDir, Mistique, String, Arc<CifarLike>) {
        let dir = mistique_testkit::tempdir().unwrap();
        let config = MistiqueConfig {
            row_block_size: 10,
            storage: StorageStrategy::Dedup,
            ..MistiqueConfig::default()
        };
        let mut sys = Mistique::open(dir.path(), config).unwrap();
        let data = Arc::new(CifarLike::generate(20, 5, 2));
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 9, 0, Arc::clone(&data), 10)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        (dir, sys, id, data)
    }

    /// A frame of 1–40 rows by 1–8 columns drawn over every `ColumnData`
    /// variant. Float columns mix values whose sums depend on their order
    /// with a few repeated ones (equal distances) and non-finite cells; some
    /// rows are copies of an earlier row (distance 0 to it, ties with it).
    /// One frame carries NaN cells or ±inf cells, never both: where a NaN
    /// cell meets the default NaN of `inf - inf`, which of the two payloads
    /// an addition keeps depends on its operand order, and that is the
    /// compiler's to pick.
    fn any_frame(g: &mut mistique_testkit::Gen) -> DataFrame {
        use mistique_dataframe::{Column, ColumnData};
        let n = g.len(1..41);
        let twin_of: Vec<usize> = (0..n)
            .map(|i| {
                if g.rng.chance(0.25) {
                    g.rng.range(0..=i)
                } else {
                    i
                }
            })
            .collect();
        let specials = if g.rng.chance(0.5) {
            [f64::NAN, f64::NAN]
        } else {
            [f64::INFINITY, f64::NEG_INFINITY]
        };
        let columns = (0..g.len(1..9))
            .map(|j| {
                let float = |rng: &mut mistique_rng::Rng| -> f64 {
                    match rng.range(0..12u32) {
                        0..=1 => specials[rng.range(0..2usize)],
                        2..=4 => [-1.0, 0.0, 0.5][rng.range(0..3usize)],
                        5 => rng.range(-1e6..1e6),
                        _ => rng.range(-1.0..1.0),
                    }
                };
                let rng = &mut g.rng;
                let mut data = match rng.range(0..7u32) {
                    0 => ColumnData::F32((0..n).map(|_| float(rng) as f32).collect()),
                    1 => ColumnData::F16(
                        (0..n)
                            .map(|_| mistique_quantize::f16::from_f32(float(rng) as f32).0)
                            .collect(),
                    ),
                    2 => ColumnData::F64((0..n).map(|_| float(rng)).collect()),
                    3 => ColumnData::I64((0..n).map(|_| rng.range(-1000..1000i64)).collect()),
                    4 => ColumnData::U8((0..n).map(|_| rng.range(0..=u8::MAX)).collect()),
                    5 => ColumnData::Bool((0..n).map(|_| rng.chance(0.5)).collect()),
                    _ => ColumnData::cat_from_strings(
                        &(0..n)
                            .map(|_| ["la", "sf", "nyc"][rng.range(0..3usize)])
                            .collect::<Vec<_>>(),
                    ),
                };
                data = data.gather(&twin_of);
                Column::new(format!("c{j}"), data)
            })
            .collect();
        DataFrame::from_columns(columns)
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    /// A pin, not a bug test: the in-place diagnostics answer bit for bit
    /// what the plain formulas over an f64 copy of the frame answer — the
    /// formulas the benchmark's oracle (e2e/src/ops.rs) holds the engine to.
    #[test]
    fn in_place_diagnostics_match_the_naive_formulas_bit_for_bit() {
        mistique_testkit::cases(300, 0xd1a6, |g| {
            let frame = any_frame(g);
            let cols: Vec<Vec<f64>> = frame.columns().iter().map(|c| c.data.to_f64()).collect();
            let (n, p) = (frame.n_rows(), frame.n_cols());

            let m = frame_to_matrix(&frame);
            assert_eq!((m.rows(), m.cols()), (n, p));
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(bits(m.col(j)), bits(col.iter().copied()));
            }

            let (a, b) = (g.rng.range(0..n), g.rng.range(0..n));
            assert_eq!(point(&frame, a).unwrap().to_bits(), cols[0][a].to_bits());
            assert!(point(&frame, n).is_err());
            let deltas = row_deltas(&frame, a, b).unwrap();
            let names: Vec<&str> = deltas.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(names, frame.column_names());
            assert_eq!(
                bits(deltas.iter().map(|d| d.1)),
                bits(cols.iter().map(|c| c[a] - c[b]))
            );
            assert!(row_deltas(&frame, a, n).is_err());

            // KNN: every distance, then a stable sort by distance alone.
            let mut all: Vec<(usize, f64)> = (0..n)
                .filter(|&i| i != a)
                .map(|i| {
                    let d: f64 = cols.iter().map(|c| (c[i] - c[a]).powi(2)).sum();
                    (i, d.sqrt())
                })
                .collect();
            all.sort_by(|x, y| x.1.total_cmp(&y.1));
            for k in [0, 1, n - 1, n + 5] {
                let got = nearest_rows(&frame, a, k).unwrap();
                let want = &all[..k.min(all.len())];
                assert_eq!(
                    got.iter().map(|h| (h.0, h.1.to_bits())).collect::<Vec<_>>(),
                    want.iter()
                        .map(|h| (h.0, h.1.to_bits()))
                        .collect::<Vec<_>>(),
                    "k={k}"
                );
            }
            assert!(nearest_rows(&frame, n, 1).is_err());

            // VIS: row-major accumulation, as the oracle's `group_means`.
            let n_groups = g.rng.range(1..5usize);
            let groups: Vec<u8> = (0..g.rng.range(0..n + 3))
                .map(|_| g.rng.range(0..n_groups) as u8)
                .collect();
            let rows = n.min(groups.len());
            let mut sums = vec![0.0f64; n_groups * p];
            let mut counts = vec![0usize; n_groups];
            for i in 0..rows {
                let grp = groups[i] as usize;
                counts[grp] += 1;
                for (j, col) in cols.iter().enumerate() {
                    sums[grp * p + j] += col[i];
                }
            }
            for grp in 0..n_groups {
                if counts[grp] > 0 {
                    for j in 0..p {
                        sums[grp * p + j] /= counts[grp] as f64;
                    }
                }
            }
            let means = group_means(&frame, &groups, n_groups).unwrap();
            assert_eq!(bits(means.data().iter().copied()), bits(sums));
            if rows > 0 {
                assert!(group_means(&frame, &groups, groups[0] as usize).is_err());
            }

            // Argmax: the first maximum, NaN never greater.
            let want: Vec<usize> = (0..n)
                .map(|i| {
                    let mut best = 0;
                    for (j, c) in cols.iter().enumerate() {
                        if c[i] > cols[best][i] {
                            best = j;
                        }
                    }
                    best
                })
                .collect();
            assert_eq!(argmax_rows(&frame).unwrap(), want);
        });
        assert!(argmax_rows(&DataFrame::new()).is_err());
    }

    // The next three panicked through the facade before `svcca` and
    // `pca_projection` validated their input.

    #[test]
    fn svcca_rejects_a_variance_fraction_outside_unit_interval() {
        let (_d, mut sys, id, _) = dnn();
        let interm = format!("{id}.layer8");
        for frac in [1.5, 0.0, -0.1, f64::NAN, f64::INFINITY] {
            let err = sys.svcca(&interm, &interm, frac).unwrap_err();
            assert!(matches!(err, MistiqueError::Invalid(_)), "{frac}: {err}");
        }
        assert!(sys.svcca(&interm, &interm, 1.0).is_ok());
    }

    #[test]
    fn svcca_rejects_intermediates_over_different_examples() {
        let (_d, mut sys, id, _) = dnn();
        let fewer = Arc::new(CifarLike::generate(10, 5, 2));
        let other = sys
            .register_dnn(Arc::new(simple_cnn(16)), 9, 1, fewer, 10)
            .unwrap();
        sys.log_intermediates(&other).unwrap();
        let err = sys
            .svcca(&format!("{id}.layer8"), &format!("{other}.layer8"), 0.99)
            .unwrap_err();
        let MistiqueError::Invalid(msg) = err else {
            panic!("expected Invalid, got {err}");
        };
        assert!(msg.contains("20 rows") && msg.contains("10"), "{msg}");
    }

    #[test]
    fn decompositions_reject_non_finite_cells_by_name() {
        // The Zillow properties table carries NaN `lot_size` cells.
        let (_d, mut sys, id) = trad();
        let interm = sys.intermediates_of(&id)[0].clone();
        for err in [
            sys.svcca(&interm, &interm, 0.99).map(|_| ()).unwrap_err(),
            sys.pca_projection(&interm, 2).map(|_| ()).unwrap_err(),
        ] {
            let MistiqueError::Invalid(msg) = err else {
                panic!("expected Invalid, got {err}");
            };
            assert!(msg.contains(&interm) && msg.contains("lot_size"), "{msg}");
        }
    }

    // Panicked in `percentile`'s sort before netdissect named the cell. A
    // TRAD intermediate has no activation map to dissect, so the NaN is a
    // planted pixel, which reaches every channel of layer 1 at map cell 0.
    #[test]
    fn netdissect_rejects_a_nan_cell_by_name() {
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(dir.path(), MistiqueConfig::default()).unwrap();
        let mut data = CifarLike::generate(20, 5, 2);
        data.images.data[3 * 32 * 32] = f32::NAN;
        let id = sys
            .register_dnn(Arc::new(simple_cnn(16)), 9, 0, Arc::new(data), 10)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interm = format!("{id}.layer1");
        let masks = vec![vec![false; 16 * 16]; 20];
        let err = sys.netdissect(&interm, 1, &masks, 0.1).unwrap_err();
        let MistiqueError::Invalid(msg) = err else {
            panic!("expected Invalid, got {err}");
        };
        assert!(
            msg.contains(&interm) && msg.contains("(row 1, column n256)"),
            "{msg}"
        );
    }

    #[test]
    fn pointq_returns_single_cell() {
        let (_d, mut sys, id) = trad();
        // properties table: parcel_id column of interm0.
        let interm = sys.intermediates_of(&id)[0].clone();
        let v = sys.pointq(&interm, "parcel_id", 7).unwrap();
        assert_eq!(v, 7.0);
        assert!(sys.pointq(&interm, "parcel_id", 10_000).is_err());
    }

    #[test]
    fn topk_sorted_descending() {
        let (_d, mut sys, id) = trad();
        let interm = sys.intermediates_of(&id)[0].clone();
        let top = sys.topk(&interm, "sqft", 5).unwrap();
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn col_dist_counts_all_rows() {
        let (_d, mut sys, id) = trad();
        let interm = sys.intermediates_of(&id)[0].clone();
        let hist = sys.col_dist(&interm, "bedrooms", 6).unwrap();
        let total: usize = hist.iter().map(|b| b.count).sum();
        assert_eq!(total, 200);
        assert!(sys.col_dist(&interm, "bedrooms", 0).is_err());
    }

    #[test]
    fn col_diff_finds_differing_predictions() {
        // Two P2 variants: predictions differ on most rows.
        let dir = mistique_testkit::tempdir().unwrap();
        let mut sys = Mistique::open(
            dir.path(),
            MistiqueConfig {
                row_block_size: 50,
                ..MistiqueConfig::default()
            },
        )
        .unwrap();
        let data = Arc::new(ZillowData::generate(150, 1));
        let pipes = zillow_pipelines();
        let a = sys
            .register_trad(
                pipes.iter().find(|p| p.id == "P2_v0").unwrap().clone(),
                Arc::clone(&data),
            )
            .unwrap();
        let b = sys
            .register_trad(
                pipes.iter().find(|p| p.id == "P2_v4").unwrap().clone(),
                data,
            )
            .unwrap();
        sys.log_intermediates(&a).unwrap();
        sys.log_intermediates(&b).unwrap();
        let pa = sys.intermediates_of(&a).last().unwrap().clone();
        let pb = sys.intermediates_of(&b).last().unwrap().clone();
        let diff = sys.col_diff(&pa, "pred", &pb, "pred", 1e-12).unwrap();
        assert!(
            !diff.is_empty(),
            "different hyper-parameters change predictions"
        );
        // Identical intermediates differ nowhere.
        let none = sys.col_diff(&pa, "pred", &pa, "pred", 0.0).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn row_diff_reports_every_column() {
        let (_d, mut sys, id) = trad();
        let interm = sys.intermediates_of(&id)[0].clone();
        let d = sys.row_diff(&interm, 0, 1).unwrap();
        assert_eq!(
            d.len(),
            sys.metadata().intermediate(&interm).unwrap().columns.len()
        );
        // parcel_id difference between rows 0 and 1 is exactly -1.
        let pid = d.iter().find(|(n, _)| n == "parcel_id").unwrap();
        assert_eq!(pid.1, -1.0);
    }

    #[test]
    fn vis_groups_by_class() {
        let (_d, mut sys, id, data) = dnn();
        let interm = format!("{id}.layer9"); // softmax output
        let m = sys.vis(&interm, &data.labels, 5).unwrap();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 10);
        // Per-class mean probabilities are valid probabilities.
        for g in 0..5 {
            for j in 0..10 {
                assert!((0.0..=1.0).contains(&m[(g, j)]));
            }
        }
    }

    #[test]
    fn knn_finds_same_class_neighbours() {
        let (_d, mut sys, id, data) = dnn();
        // Early layer representation clusters by class pattern.
        let interm = format!("{id}.layer1");
        let hits = sys.knn(&interm, 0, 3).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|&(i, _)| i != 0), "query row excluded");
        // Majority of the 3 nearest neighbours share class 0 (rows 5,10,15).
        let same_class = hits.iter().filter(|&&(i, _)| data.labels[i] == 0).count();
        assert!(same_class >= 2, "expected class structure, got {hits:?}");
    }

    #[test]
    fn svcca_identical_layers_score_one() {
        let (_d, mut sys, id, _) = dnn();
        let interm = format!("{id}.layer8");
        let r = sys.svcca(&interm, &interm, 0.99).unwrap();
        assert!(r.mean_correlation() > 0.999);
    }

    #[test]
    fn netdissect_perfect_concept_scores_high() {
        let (_d, mut sys, id, _) = dnn();
        let interm = format!("{id}.layer1");
        let meta = sys.metadata().intermediate(&interm).unwrap().clone();
        let (_c, h, w) = meta.shape.unwrap();
        // Build the concept directly from the unit's own top activations:
        // IoU must then be 1.0.
        let map_size = h * w;
        let wanted: Vec<String> = (0..map_size).map(|j| format!("n{j}")).collect();
        let refs: Vec<&str> = wanted.iter().map(|s| s.as_str()).collect();
        let frame = sys
            .get_intermediate(&interm, Some(&refs), None)
            .unwrap()
            .frame;
        let cols: Vec<Vec<f64>> = frame.columns().iter().map(|c| c.data.to_f64()).collect();
        let mut all: Vec<f64> = Vec::new();
        for c in &cols {
            all.extend_from_slice(c);
        }
        let t = percentile(&all, 0.9);
        let masks: Vec<Vec<bool>> = (0..frame.n_rows())
            .map(|i| cols.iter().map(|c| c[i] > t).collect())
            .collect();
        let iou = sys.netdissect(&interm, 0, &masks, 0.1).unwrap();
        assert!(iou > 0.99, "got {iou}");
        // An empty concept scores 0.
        let empty: Vec<Vec<bool>> = (0..frame.n_rows()).map(|_| vec![false; map_size]).collect();
        let zero = sys.netdissect(&interm, 0, &empty, 0.1).unwrap();
        assert!(zero < 0.01);
    }

    #[test]
    fn netdissect_validates_inputs() {
        let (_d, mut sys, id, _) = dnn();
        let interm = format!("{id}.layer1");
        assert!(sys.netdissect(&interm, 999, &[], 0.1).is_err());
        let bad_masks = vec![vec![true; 3]; 20];
        assert!(sys.netdissect(&interm, 0, &bad_masks, 0.1).is_err());
    }

    #[test]
    fn pca_projection_reduces_dimensions() {
        let (_d, mut sys, id, _) = dnn();
        let interm = format!("{id}.layer8");
        let p = sys.metadata().intermediate(&interm).unwrap().columns.len();
        let (proj, frac) = sys.pca_projection(&interm, 2).unwrap();
        assert_eq!(proj.rows(), 20);
        assert_eq!(proj.cols(), 2);
        assert!(frac > 0.0 && frac <= 1.0 + 1e-9, "fraction {frac}");
        assert!(p > 2);
        assert!(sys.pca_projection(&interm, 0).is_err());
        assert!(sys.pca_projection(&interm, p + 1).is_err());
        // Layer 1 is wider than the store is tall: no more components than rows.
        assert!(sys.pca_projection(&format!("{id}.layer1"), 21).is_err());
        assert_eq!(
            sys.pca_projection(&format!("{id}.layer1"), 20)
                .unwrap()
                .0
                .cols(),
            20
        );
    }

    #[test]
    fn select_where_gt_feeds_get_rows() {
        let (_d, mut sys, id, _) = dnn();
        // Rows where the first softmax output exceeds its median-ish value.
        let n_layers = sys.intermediates_of(&id).len();
        let softmax = format!("{id}.layer{n_layers}");
        let probs = sys
            .get_intermediate(&softmax, Some(&["n0"]), None)
            .unwrap()
            .frame
            .columns()[0]
            .data
            .to_f64();
        let t = 0.1;
        let rows = sys.select_where_gt(&softmax, "n0", t).unwrap();
        let expected: Vec<usize> = probs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > t)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rows, expected);
        if !rows.is_empty() {
            // Use the selected row ids against a *different* intermediate.
            let picked = sys.get_rows(&format!("{id}.layer8"), &rows, None).unwrap();
            assert_eq!(picked.frame.n_rows(), rows.len());
        }
    }
}
