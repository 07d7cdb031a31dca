//! The query operations the benchmark issues, each with its reference
//! answer computed from in-memory frames — the answer oracle.
//!
//! Every operation runs through the engine's public facade; its answer is
//! flattened into an [`Answer`] and compared with what the same arithmetic
//! gives on the reference frame (`Pipeline::run` / `Model::forward_collect`
//! output the benchmark computed itself). Full-precision answers must be
//! bit-identical. Answers served from a lossy scheme are compared within
//! that scheme's `error_bound()`; where the scheme has no static bound only
//! the answer's shape is checked.

use std::collections::HashMap;
use std::sync::Arc;

use mistique_core::diagnostics::frame_to_matrix;
use mistique_core::{Mistique, MistiqueError};
use mistique_dataframe::DataFrame;

/// Query classes: each is homogeneous in access shape, so its median is not
/// an artefact of a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `get_rows`: 4 rows inside one RowBlock, 1 column.
    Rows,
    /// Whole-column, one-column diagnostics: `pointq`, `topk`, `col_dist`.
    Col,
    /// `select_where_gt` at the column's p99.9: the zone-map plan.
    Pruned,
    /// All-column diagnostics: `knn`, `row_diff`, `vis`.
    Frame,
    /// `svcca` between two intermediates: compute-bound.
    Svcca,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Rows,
        Class::Col,
        Class::Pruned,
        Class::Frame,
        Class::Svcca,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Rows => "rows",
            Class::Col => "col",
            Class::Pruned => "pruned",
            Class::Frame => "frame",
            Class::Svcca => "svcca",
        }
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Rows {
        interm: String,
        rows: Vec<usize>,
        col: String,
    },
    Pointq {
        interm: String,
        col: String,
        row: usize,
    },
    Topk {
        interm: String,
        col: String,
        k: usize,
    },
    ColDist {
        interm: String,
        col: String,
        buckets: usize,
    },
    Pruned {
        interm: String,
        col: String,
        threshold: f64,
    },
    Knn {
        interm: String,
        row: usize,
        k: usize,
    },
    RowDiff {
        interm: String,
        a: usize,
        b: usize,
    },
    Vis {
        interm: String,
        groups: Groups,
        n_groups: usize,
    },
    Svcca {
        a: String,
        b: String,
        frac: f64,
    },
}

/// The group of every row, for `vis`. Shared between operations, and
/// printed by size so a failure message stays one line.
#[derive(Clone)]
pub struct Groups(pub Arc<Vec<u8>>);

impl std::fmt::Debug for Groups {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{} rows>", self.0.len())
    }
}

/// An operation's answer in a comparable form.
#[derive(Clone, Debug)]
pub enum Answer {
    /// Position-wise comparable values (cells, deltas, means, correlations).
    Values(Vec<f64>),
    /// `(row id, value)` pairs in the engine's order (top-k, k-NN).
    Indexed(Vec<(usize, f64)>),
    /// Ascending row ids.
    RowIds(Vec<usize>),
    /// Histogram buckets `(lo, hi, count)`.
    Hist(Vec<(f64, f64, usize)>),
}

/// Largest magnitude a lossy scheme's static error bound covers: the
/// largest finite binary16 value.
pub const LOSSY_RANGE: f64 = 65504.0;

/// How closely an answer must match the reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tol {
    /// Lossless scheme or re-run: bit-identical.
    Exact,
    /// Lossy scheme with a static relative per-value bound.
    Rel(f64),
    /// Lossy scheme whose error depends on the data: shape only.
    Unbounded,
}

impl Tol {
    /// From `QueryReport::error_bound`.
    pub fn from_bound(bound: Option<f64>) -> Tol {
        match bound {
            Some(0.0) => Tol::Exact,
            Some(b) => Tol::Rel(b),
            None => Tol::Unbounded,
        }
    }

    /// The looser of two tolerances (an answer built from two fetches is
    /// only as exact as the worse one).
    pub fn weakest(self, other: Tol) -> Tol {
        match (self, other) {
            (Tol::Unbounded, _) | (_, Tol::Unbounded) => Tol::Unbounded,
            (Tol::Rel(a), Tol::Rel(b)) => Tol::Rel(a.max(b)),
            (Tol::Rel(a), Tol::Exact) | (Tol::Exact, Tol::Rel(a)) => Tol::Rel(a),
            (Tol::Exact, Tol::Exact) => Tol::Exact,
        }
    }

    /// Is one decoded value acceptable for the reference value `want`?
    /// `scale` is the magnitude the relative bound applies to (the value
    /// itself for a cell; a sum of magnitudes for a derived quantity). The
    /// bound of a lossy scheme holds inside its range only (LP_QT is
    /// binary16: anything beyond ±65504 decodes to ±inf), so a scale beyond
    /// [`LOSSY_RANGE`] accepts any value.
    pub fn close(self, got: f64, want: f64, scale: f64) -> bool {
        match self {
            Tol::Exact => got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            Tol::Rel(e) => {
                (got.is_nan() && want.is_nan())
                    || scale.is_nan()
                    || scale.abs() > LOSSY_RANGE
                    || (got - want).abs() <= e * scale.abs() + 1e-7
            }
            Tol::Unbounded => true,
        }
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

impl Answer {
    /// Bit-identical (NaN equals NaN)?
    pub fn same(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Values(a), Answer::Values(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_eq(*x, *y))
            }
            (Answer::Indexed(a), Answer::Indexed(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && bits_eq(x.1, y.1))
            }
            (Answer::RowIds(a), Answer::RowIds(b)) => a == b,
            (Answer::Hist(a), Answer::Hist(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| bits_eq(x.0, y.0) && bits_eq(x.1, y.1) && x.2 == y.2)
            }
            _ => false,
        }
    }
}

/// Reference frames by intermediate id.
pub type Refs = HashMap<String, DataFrame>;

fn ref_frame<'a>(refs: &'a Refs, interm: &str) -> &'a DataFrame {
    refs.get(interm)
        .unwrap_or_else(|| panic!("no reference frame for {interm}"))
}

fn ref_col(refs: &Refs, interm: &str, col: &str) -> Vec<f64> {
    ref_frame(refs, interm)
        .column(col)
        .unwrap_or_else(|| panic!("no reference column {interm}/{col}"))
        .data
        .to_f64()
}

fn ref_cols(refs: &Refs, interm: &str) -> Vec<Vec<f64>> {
    ref_frame(refs, interm)
        .columns()
        .iter()
        .map(|c| c.data.to_f64())
        .collect()
}

/// Top-k with the engine's ordering: value descending by `total_cmp`, ties
/// in ascending row order (a stable sort over the enumeration).
fn topk(values: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
    let mut pairs: Vec<(usize, f64)> = values.into_iter().enumerate().collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
    pairs.truncate(k);
    pairs
}

fn knn_distances(cols: &[Vec<f64>], row: usize) -> Vec<(usize, f64)> {
    let n = cols.first().map_or(0, Vec::len);
    (0..n)
        .filter(|&i| i != row)
        .map(|i| {
            let d: f64 = cols.iter().map(|c| (c[i] - c[row]).powi(2)).sum();
            (i, d.sqrt())
        })
        .collect()
}

fn row_norm(cols: &[Vec<f64>], row: usize) -> f64 {
    cols.iter().map(|c| c[row] * c[row]).sum::<f64>().sqrt()
}

fn histogram(values: &[f64], n_buckets: usize) -> Vec<(f64, f64, usize)> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return Vec::new();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / n_buckets as f64).max(f64::MIN_POSITIVE);
    let mut out: Vec<(f64, f64, usize)> = (0..n_buckets)
        .map(|i| (lo + width * i as f64, lo + width * (i + 1) as f64, 0))
        .collect();
    for v in finite {
        let idx = (((v - lo) / width) as usize).min(n_buckets - 1);
        out[idx].2 += 1;
    }
    out
}

fn group_means(cols: &[Vec<f64>], groups: &[u8], n_groups: usize) -> Vec<f64> {
    let p = cols.len();
    let n = cols.first().map_or(0, Vec::len).min(groups.len());
    let mut sums = vec![0.0f64; n_groups * p];
    let mut counts = vec![0usize; n_groups];
    for i in 0..n {
        let g = groups[i] as usize;
        counts[g] += 1;
        for (j, col) in cols.iter().enumerate() {
            sums[g * p + j] += col[i];
        }
    }
    for g in 0..n_groups {
        if counts[g] > 0 {
            for j in 0..p {
                sums[g * p + j] /= counts[g] as f64;
            }
        }
    }
    sums
}

fn svcca_values(r: &mistique_linalg::SvccaResult) -> Vec<f64> {
    let mut v = vec![r.rank_a as f64, r.rank_b as f64];
    v.extend_from_slice(&r.correlations);
    v
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Rows { .. } => Class::Rows,
            Op::Pointq { .. } | Op::Topk { .. } | Op::ColDist { .. } => Class::Col,
            Op::Pruned { .. } => Class::Pruned,
            Op::Knn { .. } | Op::RowDiff { .. } | Op::Vis { .. } => Class::Frame,
            Op::Svcca { .. } => Class::Svcca,
        }
    }

    /// Span name of the facade call in a traced run.
    pub fn span_name(&self) -> &'static str {
        match self.class() {
            Class::Rows => "op.rows",
            Class::Col => "op.col",
            Class::Pruned => "op.pruned",
            Class::Frame => "op.frame",
            Class::Svcca => "op.svcca",
        }
    }

    /// The intermediates the operation reads.
    pub fn intermediates(&self) -> Vec<&str> {
        match self {
            Op::Rows { interm, .. }
            | Op::Pointq { interm, .. }
            | Op::Topk { interm, .. }
            | Op::ColDist { interm, .. }
            | Op::Pruned { interm, .. }
            | Op::Knn { interm, .. }
            | Op::RowDiff { interm, .. }
            | Op::Vis { interm, .. } => vec![interm],
            Op::Svcca { a, b, .. } => vec![a, b],
        }
    }

    /// The one column a one-column operation reads (`None`: all columns).
    pub fn column(&self) -> Option<&str> {
        match self {
            Op::Rows { col, .. }
            | Op::Pointq { col, .. }
            | Op::Topk { col, .. }
            | Op::ColDist { col, .. }
            | Op::Pruned { col, .. } => Some(col),
            _ => None,
        }
    }

    /// Issue the operation through the engine's facade.
    pub fn run(&self, sys: &mut Mistique) -> Result<Answer, MistiqueError> {
        Ok(match self {
            Op::Rows { interm, rows, col } => {
                let r = sys.get_rows(interm, rows, Some(&[col.as_str()]))?;
                Answer::Values(r.frame.columns()[0].data.to_f64())
            }
            Op::Pointq { interm, col, row } => Answer::Values(vec![sys.pointq(interm, col, *row)?]),
            Op::Topk { interm, col, k } => Answer::Indexed(sys.topk(interm, col, *k)?),
            Op::ColDist {
                interm,
                col,
                buckets,
            } => Answer::Hist(
                sys.col_dist(interm, col, *buckets)?
                    .into_iter()
                    .map(|b| (b.lo, b.hi, b.count))
                    .collect(),
            ),
            Op::Pruned {
                interm,
                col,
                threshold,
            } => Answer::RowIds(sys.select_where_gt(interm, col, *threshold)?),
            Op::Knn { interm, row, k } => Answer::Indexed(sys.knn(interm, *row, *k)?),
            Op::RowDiff { interm, a, b } => Answer::Values(
                sys.row_diff(interm, *a, *b)?
                    .into_iter()
                    .map(|(_, d)| d)
                    .collect(),
            ),
            Op::Vis {
                interm,
                groups,
                n_groups,
            } => Answer::Values(sys.vis(interm, &groups.0, *n_groups)?.data().to_vec()),
            Op::Svcca { a, b, frac } => Answer::Values(svcca_values(&sys.svcca(a, b, *frac)?)),
        })
    }

    /// The reference answer: the engine's arithmetic on the reference frame.
    pub fn expected(&self, refs: &Refs) -> Answer {
        match self {
            Op::Rows { interm, rows, col } => {
                let v = ref_col(refs, interm, col);
                Answer::Values(rows.iter().map(|&r| v[r]).collect())
            }
            Op::Pointq { interm, col, row } => {
                Answer::Values(vec![ref_col(refs, interm, col)[*row]])
            }
            Op::Topk { interm, col, k } => Answer::Indexed(topk(ref_col(refs, interm, col), *k)),
            Op::ColDist {
                interm,
                col,
                buckets,
            } => Answer::Hist(histogram(&ref_col(refs, interm, col), *buckets)),
            Op::Pruned {
                interm,
                col,
                threshold,
            } => Answer::RowIds(
                ref_col(refs, interm, col)
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v > *threshold)
                    .map(|(i, _)| i)
                    .collect(),
            ),
            Op::Knn { interm, row, k } => {
                let mut d = knn_distances(&ref_cols(refs, interm), *row);
                d.sort_by(|a, b| a.1.total_cmp(&b.1));
                d.truncate(*k);
                Answer::Indexed(d)
            }
            Op::RowDiff { interm, a, b } => Answer::Values(
                ref_cols(refs, interm)
                    .iter()
                    .map(|c| c[*a] - c[*b])
                    .collect(),
            ),
            Op::Vis {
                interm,
                groups,
                n_groups,
            } => Answer::Values(group_means(&ref_cols(refs, interm), &groups.0, *n_groups)),
            Op::Svcca { a, b, frac } => {
                let ma = frame_to_matrix(ref_frame(refs, a));
                let mb = frame_to_matrix(ref_frame(refs, b));
                Answer::Values(svcca_values(&mistique_linalg::svcca(&ma, &mb, *frac)))
            }
        }
    }

    /// Check an answer against the reference. `expected` is the cached
    /// bit-exact reference answer.
    pub fn verify(
        &self,
        got: &Answer,
        expected: &Answer,
        tol: Tol,
        refs: &Refs,
    ) -> Result<(), String> {
        if tol == Tol::Exact {
            return if got.same(expected) {
                Ok(())
            } else {
                Err(format!("{self:?}: answer differs from the reference"))
            };
        }
        let fail = |what: &str| Err(format!("{self:?}: {what} (tolerance {tol:?})"));
        if tol == Tol::Unbounded {
            // No bound to hold the values to: the answer must still have
            // the reference's shape.
            let shaped = match (got, expected) {
                // The number of directions `svcca` keeps depends on the
                // values, so a lossy scheme may change its length.
                (Answer::Values(g), Answer::Values(_)) if matches!(self, Op::Svcca { .. }) => {
                    g.len() >= 2
                }
                (Answer::Values(g), Answer::Values(w)) => g.len() == w.len(),
                (Answer::Indexed(g), Answer::Indexed(w)) => g.len() == w.len(),
                (Answer::RowIds(g), Answer::RowIds(_)) => g.windows(2).all(|p| p[0] < p[1]),
                (Answer::Hist(g), Answer::Hist(w)) => {
                    g.len() == w.len() || g.is_empty() || w.is_empty()
                }
                _ => false,
            };
            return if shaped {
                Ok(())
            } else {
                fail("answer has the wrong shape")
            };
        }
        match (self, got, expected) {
            // Position-wise values: each within the bound of its reference.
            (Op::Rows { .. } | Op::Pointq { .. }, Answer::Values(g), Answer::Values(w)) => {
                if g.len() != w.len() || !g.iter().zip(w).all(|(g, w)| tol.close(*g, *w, *w)) {
                    return fail("cell outside the error bound");
                }
            }
            (Op::RowDiff { interm, a, b }, Answer::Values(g), Answer::Values(w)) => {
                let cols = ref_cols(refs, interm);
                let ok = g.len() == w.len()
                    && g.iter()
                        .zip(w)
                        .zip(&cols)
                        .all(|((g, w), c)| tol.close(*g, *w, c[*a].abs() + c[*b].abs()));
                if !ok {
                    return fail("row delta outside the error bound");
                }
            }
            (Op::Vis { interm, .. }, Answer::Values(g), Answer::Values(w)) => {
                // A mean of values each within e·|v| is within e·max|v|.
                let cols = ref_cols(refs, interm);
                let p = cols.len().max(1);
                let ok = g.len() == w.len()
                    && g.iter().zip(w).enumerate().all(|(i, (g, w))| {
                        // NaN or out-of-range cells make the mean unverifiable.
                        let peak = cols[i % p].iter().fold(0.0f64, |m, v| {
                            if v.is_nan() {
                                f64::INFINITY
                            } else {
                                m.max(v.abs())
                            }
                        });
                        tol.close(*g, *w, peak)
                    });
                if !ok {
                    return fail("group mean outside the error bound");
                }
            }
            (Op::Svcca { .. }, Answer::Values(g), Answer::Values(_)) => {
                // No per-value bound carries through an SVD: sanity band
                // (with room for the decomposition's own rounding).
                let ok = g.len() >= 2
                    && g[2..]
                        .iter()
                        .all(|c| c.is_finite() && (-1e-6..=1.0 + 1e-6).contains(c));
                if !ok {
                    return fail("correlations outside [0, 1]");
                }
            }
            (Op::Topk { interm, col, .. }, Answer::Indexed(g), Answer::Indexed(w)) => {
                let v = ref_col(refs, interm, col);
                let ok = g.len() == w.len()
                    && g.windows(2).all(|p| p[0].1.total_cmp(&p[1].1).is_ge())
                    && g.iter()
                        .all(|&(r, x)| r < v.len() && tol.close(x, v[r], v[r]));
                if !ok {
                    return fail("top-k entry outside the error bound");
                }
            }
            (Op::Knn { interm, row, .. }, Answer::Indexed(g), Answer::Indexed(w)) => {
                // Perturbing both vectors by at most e·‖x‖ moves their
                // distance by at most e·(‖x_r‖ + ‖x_q‖).
                let cols = ref_cols(refs, interm);
                let dist: HashMap<usize, f64> = knn_distances(&cols, *row).into_iter().collect();
                let q = row_norm(&cols, *row);
                let ok = g.len() == w.len()
                    && g.windows(2).all(|p| p[0].1.total_cmp(&p[1].1).is_le())
                    && g.iter().all(|&(r, d)| {
                        dist.get(&r)
                            .is_some_and(|&want| tol.close(d, want, row_norm(&cols, r) + q))
                    });
                if !ok {
                    return fail("neighbour distance outside the error bound");
                }
            }
            (
                Op::Pruned {
                    interm,
                    col,
                    threshold,
                },
                Answer::RowIds(g),
                Answer::RowIds(_),
            ) => {
                // Rows clearly above the threshold must be in, rows clearly
                // below must be out; rows within the bound may go either way.
                let v = ref_col(refs, interm, col);
                let ok = g.windows(2).all(|p| p[0] < p[1])
                    && g.iter().all(|&r| r < v.len())
                    && v.iter().enumerate().all(|(r, &x)| {
                        let listed = g.binary_search(&r).is_ok();
                        let decided = !tol.close(*threshold, x, x);
                        !decided || listed == (x > *threshold)
                    });
                if !ok {
                    return fail("selected rows disagree beyond the error bound");
                }
            }
            (Op::ColDist { interm, col, .. }, Answer::Hist(g), Answer::Hist(w)) => {
                // Out-of-range cells decode to ±inf and drop out of the
                // histogram: its range and mass cannot be checked then.
                if ref_col(refs, interm, col)
                    .iter()
                    .any(|v| v.abs() > LOSSY_RANGE)
                {
                    return Ok(());
                }
                let total = |h: &[(f64, f64, usize)]| h.iter().map(|b| b.2).sum::<usize>();
                let edges_ok = match (g.first(), g.last(), w.first(), w.last()) {
                    (Some(gf), Some(gl), Some(wf), Some(wl)) => {
                        tol.close(gf.0, wf.0, wf.0) && tol.close(gl.1, wl.1, wl.1)
                    }
                    (None, None, None, None) => true,
                    _ => false,
                };
                if g.len() != w.len() || total(g) != total(w) || !edges_ok {
                    return fail("histogram range or mass outside the error bound");
                }
            }
            _ => return fail("answer has the wrong shape"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_dataframe::Column;

    fn refs() -> Refs {
        let f = DataFrame::from_columns(vec![
            Column::f64("x", vec![1.0, 5.0, 3.0, f64::NAN, 5.0]),
            Column::f64("y", vec![0.0, 1.0, 2.0, 3.0, 4.0]),
        ]);
        HashMap::from([("m.i".to_string(), f)])
    }

    #[test]
    fn tolerance_from_error_bound() {
        assert_eq!(Tol::from_bound(Some(0.0)), Tol::Exact);
        assert_eq!(Tol::from_bound(Some(0.5)), Tol::Rel(0.5));
        assert_eq!(Tol::from_bound(None), Tol::Unbounded);
        assert_eq!(Tol::Exact.weakest(Tol::Rel(0.1)), Tol::Rel(0.1));
        assert_eq!(Tol::Rel(0.1).weakest(Tol::Rel(0.2)), Tol::Rel(0.2));
        assert_eq!(Tol::Rel(0.1).weakest(Tol::Unbounded), Tol::Unbounded);
    }

    #[test]
    fn exact_is_bitwise_and_nan_equals_nan() {
        assert!(Tol::Exact.close(0.1 + 0.2, 0.1 + 0.2, 1.0));
        assert!(!Tol::Exact.close(0.1 + 0.2, 0.3, 1.0));
        assert!(!Tol::Exact.close(0.0, -0.0, 1.0));
        assert!(Tol::Exact.close(f64::NAN, f64::NAN, 1.0));
    }

    #[test]
    fn relative_bound_scales_with_the_value() {
        let lp = Tol::Rel(1.0 / 2048.0);
        assert!(lp.close(1000.4, 1000.0, 1000.0));
        assert!(!lp.close(1000.6, 1000.0, 1000.0));
        assert!(lp.close(0.00000005, 0.0, 0.0), "absolute slack near zero");
        assert!(!lp.close(0.001, 0.0, 0.0));
        assert!(Tol::Unbounded.close(9.0, 1.0, 1.0));
    }

    #[test]
    fn reference_answers_follow_the_engines_ordering() {
        let refs = refs();
        let top = Op::Topk {
            interm: "m.i".into(),
            col: "x".into(),
            k: 3,
        };
        // NaN sorts above every number under total_cmp; ties keep row order.
        match top.expected(&refs) {
            Answer::Indexed(v) => {
                assert_eq!(v.iter().map(|p| p.0).collect::<Vec<_>>(), vec![3, 1, 4]);
            }
            other => panic!("{other:?}"),
        }
        let sel = Op::Pruned {
            interm: "m.i".into(),
            col: "x".into(),
            threshold: 2.0,
        };
        assert!(matches!(sel.expected(&refs), Answer::RowIds(r) if r == vec![1, 2, 4]));
        let hist = Op::ColDist {
            interm: "m.i".into(),
            col: "x".into(),
            buckets: 2,
        };
        assert!(
            matches!(hist.expected(&refs), Answer::Hist(h) if h.iter().map(|b| b.2).sum::<usize>() == 4)
        );
    }

    #[test]
    fn verify_accepts_within_bound_and_rejects_beyond() {
        let refs = refs();
        let op = Op::Rows {
            interm: "m.i".into(),
            rows: vec![1, 2],
            col: "y".into(),
        };
        let want = op.expected(&refs);
        let near = Answer::Values(vec![1.0004, 2.0]);
        let far = Answer::Values(vec![1.01, 2.0]);
        let lp = Tol::Rel(1.0 / 2048.0);
        assert!(op.verify(&want, &want, Tol::Exact, &refs).is_ok());
        assert!(op.verify(&near, &want, Tol::Exact, &refs).is_err());
        assert!(op.verify(&near, &want, lp, &refs).is_ok());
        assert!(op.verify(&far, &want, lp, &refs).is_err());
        assert!(op.verify(&far, &want, Tol::Unbounded, &refs).is_ok());
        let short = Answer::Values(vec![1.0]);
        assert!(op.verify(&short, &want, Tol::Unbounded, &refs).is_err());
        assert!(op
            .verify(&Answer::RowIds(vec![1]), &want, lp, &refs)
            .is_err());
    }

    #[test]
    fn svcca_under_a_lossy_scheme_may_keep_other_directions() {
        let refs = refs();
        let op = Op::Svcca {
            a: "m.i".into(),
            b: "m.i".into(),
            frac: 0.99,
        };
        let want = Answer::Values(vec![2.0, 2.0, 1.0, 0.5]);
        let fewer = Answer::Values(vec![1.0, 1.0, 0.9]);
        assert!(op.verify(&fewer, &want, Tol::Unbounded, &refs).is_ok());
        assert!(op.verify(&fewer, &want, Tol::Rel(0.01), &refs).is_ok());
        assert!(op.verify(&fewer, &want, Tol::Exact, &refs).is_err());
        let wild = Answer::Values(vec![1.0, 1.0, 1.5]);
        assert!(op.verify(&wild, &want, Tol::Rel(0.01), &refs).is_err());
        assert!(op
            .verify(&Answer::Values(vec![1.0]), &want, Tol::Unbounded, &refs)
            .is_err());
    }

    #[test]
    fn select_under_a_bound_only_judges_decided_rows() {
        let refs = refs();
        let op = Op::Pruned {
            interm: "m.i".into(),
            col: "y".into(),
            threshold: 2.0,
        };
        let want = op.expected(&refs);
        let tol = Tol::Rel(0.01);
        // Row 2 sits on the threshold: listed or not, both pass.
        assert!(op
            .verify(&Answer::RowIds(vec![3, 4]), &want, tol, &refs)
            .is_ok());
        assert!(op
            .verify(&Answer::RowIds(vec![2, 3, 4]), &want, tol, &refs)
            .is_ok());
        // Row 1 is clearly below, row 4 clearly above.
        assert!(op
            .verify(&Answer::RowIds(vec![1, 3, 4]), &want, tol, &refs)
            .is_err());
        assert!(op
            .verify(&Answer::RowIds(vec![3]), &want, tol, &refs)
            .is_err());
    }
}
