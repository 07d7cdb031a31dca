//! Thin singular value decomposition: Householder QR, then one-sided Jacobi
//! on the small triangular factor.
//!
//! One-sided Jacobi orthogonalizes the columns of its input by repeated
//! plane rotations; on convergence the column norms are the singular values.
//! It is simple and accurate, but every sweep costs `O(n² · m)` on an
//! `m x n` input, and SVCCA's inputs are tall (thousands of examples, tens to
//! hundreds of neurons). So a tall matrix is first reduced: `A = Q·R` by
//! Householder reflections on a column-major working copy (every inner loop
//! walks one contiguous column), Jacobi runs on the `n x n` factor
//! `R = U_R·S·Vᵀ`, and `U = Q·U_R` is formed by applying the reflectors to
//! only as many columns of `U_R` as the caller asks for. The sweeps then
//! cost `O(n³)` whatever the row count.
//!
//! A Gram-matrix route (`AᵀA = V·S²·Vᵀ`) would be cheaper still but squares
//! the condition number: SVCCA cuts its rank where `s < 1e-10 · s₀`, and
//! dead-ReLU (constant) columns must land below that cut, not at
//! `sqrt(1e-16) · s₀ = 1e-8 · s₀` above it. QR keeps singular values to
//! `O(eps) · s₀`.
//!
//! Everything here is a pure, single-threaded function of its input: the
//! same matrix decomposes to the same bits on every call.

use crate::matrix::Matrix;

/// Result of a thin SVD: `A = U * diag(s) * V^T` with `U` being `m x r`,
/// `s` of length `r`, and `V` being `n x r` where `r = min(m, n)`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m x r`, orthonormal columns.
    pub u: Matrix,
    /// Singular values in non-increasing order.
    pub s: Vec<f64>,
    /// Right singular vectors, `n x r`, orthonormal columns.
    pub v: Matrix,
}

/// Number of singular values in `s` above `tol * s[0]`.
pub(crate) fn numerical_rank(s: &[f64], tol: f64) -> usize {
    let cutoff = s.first().copied().unwrap_or(0.0) * tol;
    s.iter().take_while(|&&x| x > cutoff).count()
}

/// Smallest number of leading values of `s` holding `frac` of its total
/// squared mass.
pub(crate) fn rank_for_variance(s: &[f64], frac: f64) -> usize {
    let total: f64 = s.iter().map(|x| x * x).sum();
    if total == 0.0 {
        return 0;
    }
    let mut acc = 0.0;
    for (i, x) in s.iter().enumerate() {
        acc += x * x;
        if acc >= frac * total {
            return i + 1;
        }
    }
    s.len()
}

impl Svd {
    /// Number of singular values above `tol * s[0]`.
    pub fn numerical_rank(&self, tol: f64) -> usize {
        numerical_rank(&self.s, tol)
    }

    /// Smallest number of singular directions explaining `frac` of total
    /// squared singular mass. This is the truncation rule SVCCA uses
    /// ("directions explaining 99% variance", Alg. 2 line 2-3).
    pub fn rank_for_variance(&self, frac: f64) -> usize {
        rank_for_variance(&self.s, frac)
    }

    /// Reconstruct `U * diag(s) * V^T`.
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for (j, &sv) in self.s.iter().enumerate() {
                us[(i, j)] *= sv;
            }
        }
        us.matmul(&self.v.transpose())
    }
}

/// Compute the thin SVD of `a`.
///
/// A tall matrix (more rows than columns) always takes the QR-then-Jacobi
/// route of the module docs; a square one goes to Jacobi directly; a wide
/// one is decomposed as its transpose and swapped back.
///
/// Total on every input: a matrix holding NaN or ±inf decomposes to
/// non-finite singular values (NaN in, NaN out), never a panic.
pub fn thin_svd(a: &Matrix) -> Svd {
    let f = factor(a);
    let r = f.s().len();
    Svd {
        u: f.u(r),
        v: f.v(r),
        s: f.core.s,
    }
}

/// A thin SVD whose singular vectors are formed on request: the factor on
/// the input's long side is the one whose cost grows with that side, and
/// SVCCA keeps a fraction of its columns, PCA of a tall matrix none.
pub(crate) struct Factored {
    /// SVD of the square core: the `R` of the QR, or the input itself when
    /// it was square.
    core: Svd,
    /// The reflectors that carry `core.u` to the long side's length.
    qr: Option<Qr>,
    /// The input was wide: everything above describes its transpose.
    transposed: bool,
}

/// Decompose `a`, leaving its singular vectors in product form.
pub(crate) fn factor(a: &Matrix) -> Factored {
    let transposed = a.cols() > a.rows();
    let flipped;
    let tall = if transposed {
        flipped = a.transpose();
        &flipped
    } else {
        a
    };
    let qr = (tall.rows() > tall.cols()).then(|| Qr::factor(tall));
    let core = one_sided_jacobi(qr.as_ref().map(Qr::r).as_ref().unwrap_or(tall));
    Factored {
        core,
        qr,
        transposed,
    }
}

impl Factored {
    /// Singular values in non-increasing order.
    pub(crate) fn s(&self) -> &[f64] {
        &self.core.s
    }

    /// The first `r` left singular vectors.
    pub(crate) fn u(&self, r: usize) -> Matrix {
        if self.transposed {
            self.core.v.take_cols(r)
        } else {
            self.long_side(r)
        }
    }

    /// The first `r` right singular vectors.
    pub(crate) fn v(&self, r: usize) -> Matrix {
        if self.transposed {
            self.long_side(r)
        } else {
            self.core.v.take_cols(r)
        }
    }

    fn long_side(&self, r: usize) -> Matrix {
        match &self.qr {
            Some(qr) => qr.apply_q(&self.core.u, r),
            None => self.core.u.take_cols(r),
        }
    }
}

/// Dot product over four interleaved partial sums: the additions of a plain
/// running sum form one dependency chain, four chains keep the adder busy.
/// The summation order is fixed, so the result is still a pure function of
/// the inputs.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Apply the reflector `I - 2·v·vᵀ` (unit `v`) to `x` in place.
fn reflect(v: &[f64], x: &mut [f64]) {
    let d = 2.0 * dot(v, x);
    for (xi, vi) in x.iter_mut().zip(v) {
        *xi -= d * vi;
    }
}

/// Householder QR of a tall `m x n` matrix, in product form.
struct Qr {
    m: usize,
    n: usize,
    /// Column-major `m x n`. Column `k` holds `R[..k, k]` above the diagonal
    /// and, from the diagonal down, the unit vector of reflector `k` (all
    /// zeros when the column was already zero there: the identity).
    w: Vec<f64>,
    /// The diagonal of `R`.
    diag: Vec<f64>,
}

impl Qr {
    fn factor(a: &Matrix) -> Qr {
        let (m, n) = (a.rows(), a.cols());
        let mut w = column_major(a);
        let mut diag = vec![0.0; n];
        for k in 0..n {
            let (head, rest) = w.split_at_mut((k + 1) * m);
            let v = &mut head[k * m + k..];
            let norm = dot(v, v).sqrt();
            if norm == 0.0 {
                continue;
            }
            // Reflect column k onto -sign(x₀)·‖x‖·e₁: the sign that adds
            // magnitudes in v = x - alpha·e₁ instead of cancelling them.
            let alpha = if v[0] > 0.0 { -norm } else { norm };
            v[0] -= alpha;
            let vnorm = dot(v, v).sqrt();
            for x in v.iter_mut() {
                *x /= vnorm;
            }
            diag[k] = alpha;
            for col in rest.chunks_exact_mut(m) {
                reflect(v, &mut col[k..]);
            }
        }
        Qr { m, n, w, diag }
    }

    /// The upper-triangular factor as a dense `n x n` matrix.
    fn r(&self) -> Matrix {
        let mut r = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in 0..j {
                r[(i, j)] = self.w[j * self.m + i];
            }
            r[(j, j)] = self.diag[j];
        }
        r
    }

    /// `Q · x` for the first `cols` columns of the `n`-row matrix `x`
    /// (each padded with zeros to `m` rows), as a row-major `m x cols`
    /// matrix: `Q = H₀·H₁·…·Hₙ₋₁`, so the reflectors apply last to first.
    fn apply_q(&self, x: &Matrix, cols: usize) -> Matrix {
        let (m, n) = (self.m, self.n);
        let mut out = Matrix::zeros(m, cols);
        let mut col = vec![0.0; m];
        for j in 0..cols {
            for (i, c) in col.iter_mut().enumerate() {
                *c = if i < n { x[(i, j)] } else { 0.0 };
            }
            for k in (0..n).rev() {
                reflect(&self.w[k * m + k..(k + 1) * m], &mut col[k..]);
            }
            for (i, &c) in col.iter().enumerate() {
                out[(i, j)] = c;
            }
        }
        out
    }
}

/// One-sided Jacobi SVD of an `m x n` matrix with `m >= n`: the kernel
/// [`thin_svd`] runs on square inputs and on the `R` of tall ones, and the
/// reference its QR route is tested against. Sweeps a column-major copy, so
/// a column pair is two contiguous slices.
pub(crate) fn one_sided_jacobi(a: &Matrix) -> Svd {
    let m = a.rows();
    let n = a.cols();
    // Work on columns: u starts as a copy of A, v accumulates rotations.
    let mut u = column_major(a);
    let mut v = vec![0.0; n * n];
    for j in 0..n {
        v[j * n + j] = 1.0;
    }

    let eps = 1e-12;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (up, uq) = column_pair(&mut u, m, p, q);
                // Gram entries for the column pair (p, q).
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&x, &y) in up.iter().zip(uq.iter()) {
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                let denom = (app * aqq).sqrt();
                if denom != 0.0 {
                    // Not `f64::max`, which drops a NaN: it must stick, so
                    // that a matrix with a non-finite cell stops sweeping.
                    let ratio = apq.abs() / denom;
                    if ratio > off || ratio.is_nan() {
                        off = ratio;
                    }
                }
                if apq.abs() <= eps * denom {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(up, uq, c, s);
                let (vp, vq) = column_pair(&mut v, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if off < eps || off.is_nan() {
            break;
        }
    }

    // Column norms are singular values; normalize U's columns. `total_cmp`
    // orders NaN norms too (NaN in, NaN out).
    let mut sv: Vec<(f64, usize)> = u
        .chunks_exact(m.max(1))
        .take(n)
        .map(|col| col.iter().map(|x| x * x).sum::<f64>().sqrt())
        .zip(0..)
        .collect();
    sv.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (dst, &(norm, src)) in sv.iter().enumerate() {
        s.push(norm);
        if norm > 0.0 {
            for (i, x) in u[src * m..(src + 1) * m].iter().enumerate() {
                u_sorted[(i, dst)] = x / norm;
            }
        }
        for (i, &x) in v[src * n..(src + 1) * n].iter().enumerate() {
            v_sorted[(i, dst)] = x;
        }
    }
    Svd {
        u: u_sorted,
        s,
        v: v_sorted,
    }
}

/// The cells of `a` column after column.
fn column_major(a: &Matrix) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let mut out = vec![0.0; m * n];
    for (i, row) in a.data().chunks_exact(n.max(1)).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            out[j * m + i] = x;
        }
    }
    out
}

/// Columns `p < q` of a column-major matrix with `rows` rows, both mutable.
fn column_pair(data: &mut [f64], rows: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * rows);
    (&mut head[p * rows..(p + 1) * rows], &mut tail[..rows])
}

/// Rotate the column pair `(x, y)` by the plane rotation `(c, s)`.
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xi, *yi);
        *xi = c * a - s * b;
        *yi = s * a + c * b;
    }
}

/// The decomposition as it was before the QR route — Jacobi on the matrix
/// itself, a wide one through its transpose — which the numerical-contract
/// tests here and in `svcca.rs` hold the new route to.
#[cfg(test)]
pub(crate) fn jacobi_svd(a: &Matrix) -> Svd {
    if a.cols() > a.rows() {
        let t = one_sided_jacobi(&a.transpose());
        return Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        };
    }
    one_sided_jacobi(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mistique_testkit::{cases, Gen};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// A matrix of the shapes and pathologies SVCCA meets: 1–400 rows by
    /// 1–48 columns (so tall, square, wide and single-column), columns
    /// scaled over sixteen decades, and zero, constant and duplicated ones.
    fn contract_matrix(g: &mut Gen) -> Matrix {
        let m = g.len(1..401);
        let n = if g.rng.chance(0.1) {
            m.min(48)
        } else {
            g.len(1..49)
        };
        let mut a = Matrix::zeros(m, n);
        for j in 0..n {
            let scale = [1e-8, 1e-4, 1.0, 1.0, 1e4, 1e8][g.rng.range(0..6usize)];
            let kind = g.rng.range(0..10u32);
            let constant: f64 = g.rng.range(-1.0..1.0);
            let twin = g.rng.range(0..=j);
            for i in 0..m {
                a[(i, j)] = match kind {
                    0 => 0.0,
                    1 => constant * scale,
                    2 if twin < j => a[(i, twin)],
                    _ => g.rng.range(-1.0..1.0) * scale,
                };
            }
        }
        a
    }

    #[test]
    fn qr_route_meets_the_jacobi_reference() {
        cases(120, 0x5bd, |g| {
            let a = contract_matrix(g);
            let (m, n) = (a.rows(), a.cols());
            let got = thin_svd(&a);
            let want = jacobi_svd(&a);
            let r = m.min(n);
            assert_eq!((got.u.rows(), got.u.cols()), (m, r), "{m}x{n}");
            assert_eq!((got.v.rows(), got.v.cols()), (n, r), "{m}x{n}");
            assert_eq!(got.s.len(), r);

            let s0 = want.s[0];
            for (x, y) in got.s.iter().zip(&want.s) {
                assert!((x - y).abs() <= 1e-9 * s0, "{m}x{n}: {x} vs {y}");
            }
            assert!(got.s.windows(2).all(|w| w[0] >= w[1]), "{m}x{n}: unsorted");
            let norm = a.frobenius_norm();
            let diff = got.reconstruct().max_abs_diff(&a);
            assert!(diff <= 1e-8 * norm, "{m}x{n}: reconstruction off by {diff}");

            let rank = want.numerical_rank(1e-10);
            assert_eq!(got.numerical_rank(1e-10), rank, "{m}x{n}");
            assert_eq!(
                got.rank_for_variance(0.99),
                want.rank_for_variance(0.99),
                "{m}x{n}"
            );
            for basis in [&got.u, &got.v] {
                let kept = basis.take_cols(rank);
                let gram = kept.transpose().matmul(&kept);
                let off = gram.max_abs_diff(&Matrix::identity(rank));
                assert!(off <= 1e-8, "{m}x{n}: basis off orthonormal by {off}");
            }
        });
    }

    #[test]
    fn vectors_formed_on_request_are_the_full_decomposition_s() {
        cases(40, 0x6ee9, |g| {
            let a = contract_matrix(g);
            let full = thin_svd(&a);
            let f = factor(&a);
            assert_eq!(f.s(), &full.s[..]);
            let r = g.rng.range(0..=full.s.len());
            assert_eq!(f.u(r), full.u.take_cols(r));
            assert_eq!(f.v(r), full.v.take_cols(r));
        });
    }

    #[test]
    fn decomposition_is_a_pure_function() {
        let mut g = mistique_rng::Rng::seed(3);
        let a = Matrix::from_vec(300, 20, (0..6000).map(|_| g.range(-1.0..1.0)).collect());
        let (x, y) = (thin_svd(&a), thin_svd(&a));
        assert_eq!((x.u, x.s, x.v), (y.u, y.s, y.v));
    }

    #[test]
    fn non_finite_input_decomposes_without_panicking() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (m, n) in [(40, 6), (6, 6), (6, 40)] {
                let mut a = Matrix::zeros(m, n);
                for (i, x) in a.data_mut().iter_mut().enumerate() {
                    *x = (i % 7) as f64 - 3.0;
                }
                a[(m / 2, n / 2)] = bad;
                let svd = thin_svd(&a);
                assert_eq!(svd.s.len(), m.min(n));
                assert!(svd.s.iter().any(|x| !x.is_finite()), "{bad} in {m}x{n}");
            }
        }
    }

    #[test]
    fn svd_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]);
        let svd = thin_svd(&a);
        assert_close(svd.s[0], 3.0, 1e-10);
        assert_close(svd.s[1], 2.0, 1e-10);
    }

    #[test]
    fn svd_reconstructs_input() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[0.5, -1.0, 2.0],
        ]);
        let svd = thin_svd(&a);
        let r = svd.reconstruct();
        assert!(r.max_abs_diff(&a) < 1e-8, "diff {}", r.max_abs_diff(&a));
    }

    #[test]
    fn svd_wide_matrix_reconstructs() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0, -1.0], &[3.0, 1.0, 0.0, 0.5]]);
        let svd = thin_svd(&a);
        assert_eq!(svd.u.rows(), 2);
        assert_eq!(svd.v.rows(), 4);
        let r = svd.reconstruct();
        assert!(r.max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn u_columns_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0], &[4.0, -2.0]]);
        let svd = thin_svd(&a);
        let gram = svd.u.transpose().matmul(&svd.u);
        assert!(gram.max_abs_diff(&Matrix::identity(2)) < 1e-8);
    }

    #[test]
    fn singular_values_sorted_nonincreasing() {
        let a = Matrix::from_rows(&[
            &[0.1, 5.0, 0.2],
            &[0.3, -4.0, 0.1],
            &[9.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
        ]);
        let svd = thin_svd(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn rank_detection_on_rank_deficient_matrix() {
        // Third column = first + second: rank 2.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, 0.0, 2.0],
        ]);
        let svd = thin_svd(&a);
        assert_eq!(svd.numerical_rank(1e-9), 2);
    }

    #[test]
    fn variance_rank_rule() {
        let svd = Svd {
            u: Matrix::identity(3),
            s: vec![10.0, 1.0, 0.1],
            v: Matrix::identity(3),
        };
        // 10^2 = 100 out of 101.01 total => first direction alone explains ~99%.
        assert_eq!(svd.rank_for_variance(0.98), 1);
        assert_eq!(svd.rank_for_variance(0.999), 2);
        assert_eq!(svd.rank_for_variance(1.0), 3);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Matrix::zeros(3, 2);
        let svd = thin_svd(&a);
        assert!(svd.s.iter().all(|&x| x == 0.0));
        assert_eq!(svd.rank_for_variance(0.99), 0);
    }
}
