//! Diagnostic queries (Table 1 / Table 5): implemented on top of
//! `get_intermediates`, as the paper's "common analytic functions applied on
//! top of the numpy array result".

use mistique_dataframe::DataFrame;
use mistique_linalg::stats::percentile;
use mistique_linalg::{svcca, Matrix, Pca, SvccaResult};

use crate::audit::{args_of, csv, AuditArgs};
use crate::error::MistiqueError;
use crate::system::Mistique;

/// Every column of a fetched frame as `f64` values.
fn f64_columns(frame: &DataFrame) -> Vec<Vec<f64>> {
    frame.columns().iter().map(|c| c.data.to_f64()).collect()
}

/// Convert a fetched intermediate into a dense matrix (rows = examples).
pub fn frame_to_matrix(frame: &DataFrame) -> Matrix {
    let n = frame.n_rows();
    let p = frame.n_cols();
    let cols = f64_columns(frame);
    let mut data = Vec::with_capacity(n * p);
    for r in 0..n {
        for col in &cols {
            data.push(col[r]);
        }
    }
    Matrix::from_vec(n, p, data)
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
            let values = r.frame.columns()[0].data.to_f64();
            values
                .get(row)
                .copied()
                .ok_or_else(|| MistiqueError::Invalid(format!("row {row} out of range")))
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
            if row_a >= r.frame.n_rows() || row_b >= r.frame.n_rows() {
                return Err(MistiqueError::Invalid("row out of range".into()));
            }
            Ok(r.frame
                .columns()
                .iter()
                .map(|c| {
                    let v = c.data.to_f64();
                    (c.name.clone(), v[row_a] - v[row_b])
                })
                .collect())
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
            args_of(&[
                ("interm", &intermediate),
                ("groups", &csv(groups)),
                ("n_groups", &n_groups),
            ])
        };
        self.diag("diag.vis", args, |sys| {
            let r = sys.get_intermediate(intermediate, None, None)?;
            let n = r.frame.n_rows().min(groups.len());
            let p = r.frame.n_cols();
            let mut sums = Matrix::zeros(n_groups, p);
            let mut counts = vec![0usize; n_groups];
            let cols = f64_columns(&r.frame);
            for i in 0..n {
                let g = groups[i] as usize;
                if g >= n_groups {
                    return Err(MistiqueError::Invalid(format!("group {g} out of range")));
                }
                counts[g] += 1;
                for (j, col) in cols.iter().enumerate() {
                    sums[(g, j)] += col[i];
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
            let n = r.frame.n_rows();
            if row >= n {
                return Err(MistiqueError::Invalid(format!("row {row} out of range")));
            }
            let cols = f64_columns(&r.frame);
            let mut dists: Vec<(usize, f64)> = (0..n)
                .filter(|&i| i != row)
                .map(|i| {
                    let d: f64 = cols.iter().map(|c| (c[i] - c[row]).powi(2)).sum();
                    (i, d.sqrt())
                })
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            dists.truncate(k);
            Ok(dists)
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
            let a = sys.get_intermediate(intermediate_a, None, None)?;
            let b = sys.get_intermediate(intermediate_b, None, None)?;
            let ma = frame_to_matrix(&a.frame);
            let mb = frame_to_matrix(&b.frame);
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
                .map(|j| format!("n{j}"))
                .collect();
            let refs: Vec<&str> = wanted.iter().map(|s| s.as_str()).collect();
            let r = sys.get_intermediate(intermediate, Some(&refs), None)?;
            let n = r.frame.n_rows();
            if concept_masks.len() < n {
                return Err(MistiqueError::Invalid("not enough concept masks".into()));
            }
            let cols = f64_columns(&r.frame);

            // T_k = (1 - alpha) percentile over all of the unit's activations.
            let mut all: Vec<f64> = Vec::with_capacity(n * map_size);
            for col in &cols {
                all.extend_from_slice(col);
            }
            let t_k = percentile(&all, 1.0 - alpha);

            // IoU between binarized maps and concept masks.
            let mut inter = 0usize;
            let mut union = 0usize;
            for (i, mask) in concept_masks.iter().enumerate().take(n) {
                if mask.len() != map_size {
                    return Err(MistiqueError::Invalid("mask resolution mismatch".into()));
                }
                for (j, col) in cols.iter().enumerate() {
                    let active = col[i] > t_k;
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
            let cols = f64_columns(&r.frame);
            if cols.is_empty() {
                return Err(MistiqueError::Invalid("no columns".into()));
            }
            Ok((0..r.frame.n_rows())
                .map(|i| {
                    let mut best = 0;
                    for (j, c) in cols.iter().enumerate() {
                        if c[i] > cols[best][i] {
                            best = j;
                        }
                    }
                    best
                })
                .collect())
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
            args_of(&[
                ("interm", &intermediate),
                ("labels", &csv(labels)),
                ("n_classes", &n_classes),
            ])
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
        let args = || args_of(&[("interm", &intermediate), ("labels", &csv(labels))]);
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
            let m = frame_to_matrix(&r.frame);
            if k == 0 || k > m.cols() {
                return Err(MistiqueError::Invalid(format!(
                    "k={k} out of range for {} columns",
                    m.cols()
                )));
            }
            let pca = Pca::fit(&m, k);
            let frac = pca.explained_fraction(&m);
            Ok((pca.transform(&m), frac))
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
            args_of(&[
                ("interm", &intermediate),
                ("col", &column),
                ("groups", &csv(groups)),
                ("n_groups", &n_groups),
            ])
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
