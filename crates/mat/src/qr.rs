//! Householder QR factorisation and least-squares solves.
//!
//! The paper's Modeler fits polynomials to measurements with SciPy's
//! `linalg.lstsq`.  This module is the from-scratch Rust substitute: a dense
//! Householder QR factorisation with an optional column-norm check, and
//! least-squares drivers that solve `min ||A x - b||_2` for tall systems.
//!
//! Model construction solves the *same* system against five right-hand sides
//! (one per statistical quantity), so the factorisation and the solve are
//! deliberately decoupled: [`QrFactorization::new`] factors once,
//! [`QrFactorization::solve_into`] back-solves any number of right-hand
//! sides against the shared factors, and the
//! rank-deficient ridge fallback ([`QrFactorization::ridge_factorization`])
//! is likewise derived from the stored `R` instead of re-reducing the
//! original matrix.

use crate::{MatError, Matrix, Result};

/// A Householder QR factorisation of an `m x n` matrix with `m >= n`.
///
/// The factorisation is stored LAPACK-style: the upper triangle of `factors`
/// holds `R`, the lower trapezoid holds the essential parts of the Householder
/// vectors, and `tau` holds the scalar reflector coefficients.
#[derive(Debug, Clone)]
pub struct QrFactorization {
    factors: Matrix,
    tau: Vec<f64>,
}

impl QrFactorization {
    /// Computes the QR factorisation of `a` (consumed).
    ///
    /// Returns an error if the matrix has more columns than rows.
    pub fn new(mut a: Matrix) -> Result<Self> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(MatError::dims(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        let mut tau = vec![0.0; n];
        // The reduction works on whole column slices: the inner loops below
        // are zips over contiguous `&[f64]` ranges, which the optimiser can
        // keep free of per-element bounds checks (this factorisation runs
        // once per region fit — it is the flop core of model construction).
        let ld = a.ld();
        let data = a.as_mut_slice();
        for k in 0..n {
            // Build the Householder reflector for column k, rows k..m.
            let (head, tail) = data.split_at_mut(k * ld + ld);
            let col_k = &mut head[k * ld..k * ld + m];
            let mut norm = 0.0;
            for &v in &col_k[k..] {
                norm += v * v;
            }
            norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = col_k[k];
            let beta = -alpha.signum() * norm;
            let tau_k = (beta - alpha) / beta;
            tau[k] = tau_k;
            let inv = 1.0 / (alpha - beta);
            for v in &mut col_k[k + 1..] {
                *v *= inv;
            }
            col_k[k] = beta;
            // Apply the reflector to the trailing columns: A <- (I - tau v v^T) A.
            let v_tail = &col_k[k + 1..];
            for j in (k + 1)..n {
                let col_j = &mut tail[(j - k - 1) * ld..(j - k - 1) * ld + m];
                let mut dot = col_j[k];
                for (&vi, &aj) in v_tail.iter().zip(&col_j[k + 1..]) {
                    dot += vi * aj;
                }
                dot *= tau_k;
                col_j[k] -= dot;
                for (&vi, aj) in v_tail.iter().zip(&mut col_j[k + 1..]) {
                    *aj -= vi * dot;
                }
            }
        }
        Ok(QrFactorization { factors: a, tau })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.factors.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.factors.cols()
    }

    /// Returns the upper-triangular factor `R` as a dense `n x n` matrix.
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        Matrix::from_fn(
            n,
            n,
            |i, j| if i <= j { self.factors.get(i, j) } else { 0.0 },
        )
    }

    /// Consumes the factorisation and returns the packed factor matrix,
    /// handing its backing buffer back to the caller (workspace recycling).
    pub fn into_factors(self) -> Matrix {
        self.factors
    }

    /// Applies `Q^T` to a vector in place (the vector must have `m` entries).
    pub fn apply_qt(&self, b: &mut [f64]) -> Result<()> {
        let m = self.rows();
        let n = self.cols();
        if b.len() != m {
            return Err(MatError::dims(format!(
                "apply_qt: vector has {} entries, expected {m}",
                b.len()
            )));
        }
        let ld = self.factors.ld();
        let data = self.factors.as_slice();
        for k in 0..n {
            let tau_k = self.tau[k];
            if tau_k == 0.0 {
                continue;
            }
            let v_tail = &data[k * ld + k + 1..k * ld + m];
            let mut dot = b[k];
            for (&vi, &bi) in v_tail.iter().zip(&b[k + 1..]) {
                dot += vi * bi;
            }
            dot *= tau_k;
            b[k] -= dot;
            for (&vi, bi) in v_tail.iter().zip(&mut b[k + 1..]) {
                *bi -= vi * dot;
            }
        }
        Ok(())
    }

    /// Solves `min ||A x - b||` in place against the stored factors.
    ///
    /// `b` (length `m`) is overwritten with `Q^T b`; the solution lands in
    /// `x` (length `n`).  This is the allocation-free core the multi-RHS
    /// drivers are built on.
    pub fn solve_into(&self, b: &mut [f64], x: &mut [f64]) -> Result<()> {
        let m = self.rows();
        let n = self.cols();
        if b.len() != m {
            return Err(MatError::dims(format!(
                "solve: rhs has {} entries, expected {m}",
                b.len()
            )));
        }
        if x.len() != n {
            return Err(MatError::dims(format!(
                "solve: solution has {} entries, expected {n}",
                x.len()
            )));
        }
        self.apply_qt(b)?;
        // Back substitution with R (row i of the upper triangle is a stride-ld
        // walk through the packed factors).
        let ld = self.factors.ld();
        let data = self.factors.as_slice();
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= data[j * ld + i] * x[j];
            }
            let d = data[i * ld + i];
            if d.abs() < 1e-300 {
                return Err(MatError::numerical(
                    "rank-deficient least-squares system (zero diagonal in R)",
                ));
            }
            x[i] = acc / d;
        }
        Ok(())
    }

    /// Solves the least-squares problem `min ||A x - b||` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut qtb = b.to_vec();
        let mut x = vec![0.0; self.cols()];
        self.solve_into(&mut qtb, &mut x)?;
        Ok(x)
    }

    /// QR factorisation of the ridge-regularised normal matrix
    /// `R^T R + lambda I` (which equals `A^T A + lambda I`, since `A = Q R`).
    ///
    /// This is the rank-deficient fallback: instead of re-reducing the
    /// original `m x n` matrix into fresh normal equations (`O(m n^2)` work
    /// plus a second traversal of `A`), the `n x n` normal matrix is derived
    /// from the already-computed `R` in `O(n^3)`.
    pub fn ridge_factorization(&self, lambda: f64) -> Result<QrFactorization> {
        let n = self.cols();
        let mut normal = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..=i.min(j) {
                    acc += self.factors.get(k, i) * self.factors.get(k, j);
                }
                if i == j {
                    acc += lambda;
                }
                normal.set(i, j, acc);
            }
        }
        QrFactorization::new(normal)
    }

    /// Computes `R^T y` from the leading `n` entries of `qtb` into `out`.
    ///
    /// With `qtb = Q^T b` this is `A^T b`, i.e. the right-hand side of the
    /// normal equations, again without touching the original matrix.
    pub fn rt_apply(&self, qtb: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.cols();
        if qtb.len() < n || out.len() != n {
            return Err(MatError::dims(format!(
                "rt_apply: got {} rhs / {} out entries for n = {n}",
                qtb.len(),
                out.len()
            )));
        }
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &q) in qtb.iter().enumerate().take(j + 1) {
                acc += self.factors.get(k, j) * q;
            }
            *o = acc;
        }
        Ok(())
    }

    /// Estimates the rank of the factored matrix by counting diagonal entries
    /// of `R` that are larger than `tol * max_diag`.
    pub fn rank(&self, tol: f64) -> usize {
        let n = self.cols();
        let mut max_diag: f64 = 0.0;
        for i in 0..n {
            max_diag = max_diag.max(self.factors.get(i, i).abs());
        }
        if max_diag == 0.0 {
            return 0;
        }
        (0..n)
            .filter(|&i| self.factors.get(i, i).abs() > tol * max_diag)
            .count()
    }
}

/// Ridge parameter applied when a least-squares system is numerically rank
/// deficient (mirrors the robustness of SVD-based `lstsq`).
pub const LSTSQ_RIDGE_LAMBDA: f64 = 1e-10;

/// Solves the dense least-squares problem `min_x ||A x - b||_2`.
///
/// `a` is an `m x n` matrix with `m >= n` (consumed — the factorisation
/// overwrites it in place, so no defensive copy is taken); `b` has `m`
/// entries.  A thin regularisation is applied when the system is numerically
/// rank deficient so the Modeler never aborts mid-fit on a degenerate sample
/// set.
pub fn lstsq(a: Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let qr = QrFactorization::new(a)?;
    let mut qtb = b.to_vec();
    let mut x = vec![0.0; qr.cols()];
    match qr.solve_into(&mut qtb, &mut x) {
        Ok(()) => Ok(x),
        // `solve_into` fails only in back substitution, after `qtb` already
        // holds `Q^T b`, so the ridge fallback can reuse it as-is.
        Err(MatError::Numerical { .. }) => ridge_solve_from(&qr, &qtb, LSTSQ_RIDGE_LAMBDA),
        Err(e) => Err(e),
    }
}

/// Ridge fallback of [`lstsq`]: solves
/// `(R^T R + lambda I) x = R^T (Q^T b)` from the stored factors.
fn ridge_solve_from(qr: &QrFactorization, qtb: &[f64], lambda: f64) -> Result<Vec<f64>> {
    let rqr = qr.ridge_factorization(lambda)?;
    let mut atb = vec![0.0; qr.cols()];
    qr.rt_apply(qtb, &mut atb)?;
    rqr.solve(&atb)
}

/// Ridge-regularised least squares: solves `(A^T A + lambda I) x = A^T b`.
///
/// Directly useful for noisy fits with nearly collinear basis functions; the
/// rank-deficient fallback inside [`lstsq`] computes the same system from the
/// QR factors instead of re-reducing `a`.
pub fn lstsq_regularized(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(MatError::dims(format!(
            "lstsq: rhs has {} entries, expected {m}",
            b.len()
        )));
    }
    // Normal equations; fine for the small n (< 10) used by polynomial fits.
    let mut ata = Matrix::zeros(n, n);
    let mut atb = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..m {
                acc += a.get(k, i) * a.get(k, j);
            }
            ata.set(i, j, acc + if i == j { lambda } else { 0.0 });
        }
        let mut acc = 0.0;
        for k in 0..m {
            acc += a.get(k, i) * b[k];
        }
        atb[i] = acc;
    }
    // Cholesky-free: solve with QR of the (small) normal matrix.
    let qr = QrFactorization::new(ata)?;
    qr.solve(&atb)
}

/// A reusable Vandermonde design-matrix builder for a fixed monomial basis.
///
/// Row filling uses a per-point **power ladder**: for every dimension the
/// powers `x^0 .. x^max_exp` are produced with one multiplication each, and
/// every matrix entry is then a product of ladder lookups — no `powi` per
/// entry.  The ladder scratch lives in the builder, so filling a matrix of
/// any size performs no allocation.
#[derive(Debug, Clone)]
pub struct DesignBuilder {
    dim: usize,
    /// Number of monomial terms (matrix columns).
    terms: usize,
    /// Term-major exponent table, `terms * dim` entries.
    exponents: Vec<u32>,
    /// Per-dimension largest exponent.
    max_exp: Vec<u32>,
    /// Ladder scratch, `dim * stride` entries with `stride = max(max_exp)+1`.
    pows: Vec<f64>,
    stride: usize,
    /// Power-column scratch for [`DesignBuilder::fill_matrix`]:
    /// `dim * stride` columns of `m` entries each, column `(d, e)` holding
    /// `x_d^e` for every point.
    powcols: Vec<f64>,
    /// Gather scratch for one coordinate column (`m` entries).
    xcol: Vec<f64>,
}

impl DesignBuilder {
    /// Creates a builder for the given monomial basis.
    ///
    /// Returns an error when the basis is empty or an exponent tuple does not
    /// match `dim`.  A zero-dimensional basis (the single empty tuple) is
    /// valid and produces all-ones columns, matching the constant fits the
    /// plain `powi` design loop supported.
    pub fn new(dim: usize, exponents: &[Vec<u32>]) -> Result<DesignBuilder> {
        if exponents.is_empty() {
            return Err(MatError::dims("design basis: empty input".to_string()));
        }
        let mut flat = Vec::with_capacity(exponents.len() * dim);
        let mut max_exp = vec![0u32; dim];
        for e in exponents {
            if e.len() != dim {
                return Err(MatError::dims(
                    "design_matrix: exponent arity does not match point dimension".to_string(),
                ));
            }
            for (d, &x) in e.iter().enumerate() {
                flat.push(x);
                max_exp[d] = max_exp[d].max(x);
            }
        }
        let stride = max_exp.iter().max().copied().unwrap_or(0) as usize + 1;
        Ok(DesignBuilder {
            dim,
            terms: exponents.len(),
            exponents: flat,
            max_exp,
            pows: vec![1.0; dim * stride],
            stride,
            powcols: Vec::new(),
            xcol: Vec::new(),
        })
    }

    /// Number of monomial terms (matrix columns).
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// Point dimensionality the basis expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Fills row `row` of `a` with the basis evaluated at `point`.
    ///
    /// Panics if the point arity or the matrix shape does not match the basis
    /// (`a` must have at least `row + 1` rows and exactly [`terms`] columns).
    ///
    /// [`terms`]: DesignBuilder::terms
    pub fn fill_row(&mut self, a: &mut Matrix, row: usize, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "design point has wrong arity");
        assert_eq!(a.cols(), self.terms(), "design matrix has wrong width");
        assert!(row < a.rows(), "design row out of range");
        for d in 0..self.dim {
            let ladder = &mut self.pows[d * self.stride..(d + 1) * self.stride];
            let mut p = 1.0;
            ladder[0] = 1.0;
            for e in 1..=self.max_exp[d] as usize {
                p *= point[d];
                ladder[e] = p;
            }
        }
        let ld = a.ld();
        let data = a.as_mut_slice();
        for t in 0..self.terms() {
            let exps = &self.exponents[t * self.dim..(t + 1) * self.dim];
            let mut v = 1.0;
            for (d, &e) in exps.iter().enumerate() {
                v *= self.pows[d * self.stride + e as usize];
            }
            data[t * ld + row] = v;
        }
    }

    /// Fills the whole design matrix from flat point-major coordinates
    /// (`a.rows() * dim` entries, point `i` at `points[i*dim..(i+1)*dim]`).
    ///
    /// Column-oriented counterpart of [`DesignBuilder::fill_row`] producing
    /// bit-identical values: per-dimension power **columns** are laddered once
    /// (`x^e = x^(e-1) * x`, the same multiplication chain as the row
    /// ladders), and each term column is then an elementwise product of power
    /// columns — contiguous loads and stores the optimiser can vectorise.
    pub fn fill_matrix(&mut self, a: &mut Matrix, points: &[f64]) {
        let m = a.rows();
        assert_eq!(points.len(), m * self.dim, "flat points have wrong length");
        assert_eq!(a.cols(), self.terms(), "design matrix has wrong width");
        self.powcols.clear();
        self.powcols.resize(self.dim * self.stride * m, 0.0);
        self.xcol.resize(m, 0.0);
        for d in 0..self.dim {
            for (i, x) in self.xcol.iter_mut().enumerate() {
                *x = points[i * self.dim + d];
            }
            let cols = &mut self.powcols[d * self.stride * m..(d + 1) * self.stride * m];
            let (ones, rest) = cols.split_at_mut(m);
            ones.fill(1.0);
            let mut prev: &[f64] = ones;
            let mut rest = rest;
            for _e in 1..=self.max_exp[d] as usize {
                let (cur, tail) = rest.split_at_mut(m);
                for ((c, &p), &x) in cur.iter_mut().zip(prev).zip(&self.xcol) {
                    *c = p * x;
                }
                prev = cur;
                rest = tail;
            }
        }
        let ld = a.ld();
        let data = a.as_mut_slice();
        for t in 0..self.terms() {
            let exps = &self.exponents[t * self.dim..(t + 1) * self.dim];
            let col = &mut data[t * ld..t * ld + m];
            let Some(&e0) = exps.first() else {
                // Zero-dimensional basis: the empty product is 1.
                col.fill(1.0);
                continue;
            };
            let first = &self.powcols[(e0 as usize) * m..(e0 as usize + 1) * m];
            col.copy_from_slice(first);
            for (d, &e) in exps.iter().enumerate().skip(1) {
                let offset = (d * self.stride + e as usize) * m;
                for (c, &p) in col.iter_mut().zip(&self.powcols[offset..offset + m]) {
                    *c *= p;
                }
            }
        }
    }
}

/// Builds the Vandermonde-style design matrix for a polynomial basis.
///
/// `points` holds one row per sample (each row is a point in `dim` dimensions)
/// and `exponents` lists the monomials as exponent tuples.  Entry `(s, t)` of
/// the result is `prod_d points[s][d] ^ exponents[t][d]`, computed via
/// [`DesignBuilder`]'s power ladder.
pub fn design_matrix(points: &[Vec<f64>], exponents: &[Vec<u32>]) -> Result<Matrix> {
    let m = points.len();
    let n = exponents.len();
    if m == 0 || n == 0 {
        return Err(MatError::dims("design_matrix: empty input".to_string()));
    }
    let dim = points[0].len();
    let mut builder = DesignBuilder::new(dim, exponents)?;
    let mut a = Matrix::zeros(m, n);
    for (s, p) in points.iter().enumerate() {
        if p.len() != dim {
            return Err(MatError::dims(
                "design_matrix: inconsistent point dimension".to_string(),
            ));
        }
        builder.fill_row(&mut a, s, p);
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    #[test]
    fn qr_reconstruction_r_is_triangular() {
        let a = Matrix::from_rows(
            4,
            3,
            &[
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 10.0, //
                2.0, -1.0, 0.5,
            ],
        )
        .unwrap();
        let qr = QrFactorization::new(a).unwrap();
        let r = qr.r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        assert_eq!(qr.rank(1e-12), 3);
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        assert!(QrFactorization::new(Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn exact_solve_square_system() {
        // A x = b with known x.
        let a = Matrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let mut b = vec![0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = lstsq(a, &b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10, "x[{i}] = {}", x[i]);
        }
    }

    #[test]
    fn overdetermined_quadratic_fit() {
        // Fit y = 2 + 3t + 0.5 t^2 through exact samples; lstsq must recover it.
        let ts: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let points: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t]).collect();
        let exps = vec![vec![0u32], vec![1], vec![2]];
        let a = design_matrix(&points, &exps).unwrap();
        let b: Vec<f64> = ts.iter().map(|&t| 2.0 + 3.0 * t + 0.5 * t * t).collect();
        let c = lstsq(a, &b).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-8);
        assert!((c[1] - 3.0).abs() < 1e-8);
        assert!((c[2] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let a =
            Matrix::from_rows(5, 2, &[1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        let b = vec![1.1, 1.9, 3.2, 3.9, 5.1];
        let x = lstsq(a.clone(), &b).unwrap();
        // residual r = b - A x must satisfy A^T r ~ 0
        let mut r = b.clone();
        for i in 0..5 {
            for j in 0..2 {
                r[i] -= a[(i, j)] * x[j];
            }
        }
        for j in 0..2 {
            let mut dot = 0.0;
            for i in 0..5 {
                dot += a[(i, j)] * r[i];
            }
            assert!(dot.abs() < 1e-10, "column {j} not orthogonal: {dot}");
        }
    }

    #[test]
    fn rank_deficient_falls_back_to_regularized() {
        // Two identical columns: plain QR solve would fail; lstsq must not.
        let a = Matrix::from_rows(4, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]).unwrap();
        let b = vec![2.0, 4.0, 6.0, 8.0];
        let x = lstsq(a.clone(), &b).unwrap();
        // Any solution with x0 + x1 = 2 is acceptable; check the fit quality.
        for i in 0..4 {
            let pred = a[(i, 0)] * x[0] + a[(i, 1)] * x[1];
            assert!((pred - b[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn factor_reusing_ridge_matches_normal_equation_ridge() {
        // The factor-derived ridge fallback (R^T R + lambda I) must agree with
        // the explicit normal-equation construction on the same system.
        let a = Matrix::from_rows(
            5,
            3,
            &[
                1.0, 1.0, 2.0, //
                1.0, 2.0, 4.0, //
                1.0, 3.0, 6.0, //
                1.0, 4.0, 8.0, //
                1.0, 5.0, 10.0,
            ],
        )
        .unwrap();
        let b = vec![1.0, 2.0, 2.5, 4.0, 5.5];
        let lambda = 1e-8;
        let via_factors = {
            let qr = QrFactorization::new(a.clone()).unwrap();
            let mut qtb = b.clone();
            qr.apply_qt(&mut qtb).unwrap();
            super::ridge_solve_from(&qr, &qtb, lambda).unwrap()
        };
        let via_normal = lstsq_regularized(&a, &b, lambda).unwrap();
        for (u, v) in via_factors.iter().zip(&via_normal) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn design_matrix_multivariate() {
        let points = vec![vec![2.0, 3.0], vec![1.0, 5.0]];
        let exps = vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]];
        let a = design_matrix(&points, &exps).unwrap();
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(0, 2)], 3.0);
        assert_eq!(a[(0, 3)], 6.0);
        assert_eq!(a[(1, 3)], 5.0);
        assert!(design_matrix(&[], &exps).is_err());
        assert!(design_matrix(&points, &[vec![1]]).is_err());
    }

    #[test]
    fn design_builder_ladder_matches_powi() {
        let points = vec![vec![0.3, 1.7], vec![2.0, -0.5], vec![1.0, 0.0]];
        let exps = vec![
            vec![0u32, 0],
            vec![3, 1],
            vec![1, 4],
            vec![2, 2],
            vec![5, 0],
        ];
        let a = design_matrix(&points, &exps).unwrap();
        for (s, p) in points.iter().enumerate() {
            for (t, e) in exps.iter().enumerate() {
                let reference = p[0].powi(e[0] as i32) * p[1].powi(e[1] as i32);
                let rel = (a[(s, t)] - reference).abs() / reference.abs().max(1e-300);
                assert!(rel < 1e-12, "entry ({s},{t}): {} vs {reference}", a[(s, t)]);
            }
        }
        let mut b = DesignBuilder::new(2, &exps).unwrap();
        assert_eq!(b.terms(), 5);
        assert_eq!(b.dim(), 2);
        // Refilling with the same builder reuses the ladder scratch.
        let mut m = Matrix::zeros(1, 5);
        b.fill_row(&mut m, 0, &[0.3, 1.7]);
        for t in 0..5 {
            assert_eq!(m[(0, t)], a[(0, t)]);
        }
        assert!(DesignBuilder::new(0, &exps).is_err());
        assert!(DesignBuilder::new(3, &exps).is_err());
    }

    #[test]
    fn zero_dimensional_basis_builds_ones_column() {
        // A dim-0 basis (single empty exponent tuple) is the constant fit's
        // design: one all-ones column, on both fill paths.
        let exps = vec![vec![]];
        let points = vec![vec![], vec![], vec![]];
        let a = design_matrix(&points, &exps).unwrap();
        for s in 0..3 {
            assert_eq!(a[(s, 0)], 1.0);
        }
        let mut builder = DesignBuilder::new(0, &exps).unwrap();
        assert_eq!(builder.terms(), 1);
        let mut m = Matrix::zeros(3, 1);
        builder.fill_matrix(&mut m, &[]);
        for s in 0..3 {
            assert_eq!(m[(s, 0)], 1.0);
        }
        let x = lstsq(a, &[2.0, 4.0, 6.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fill_matrix_is_bit_identical_to_fill_row() {
        let points: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![0.1 * i as f64, 1.0 - 0.13 * i as f64, (i as f64).sin()])
            .collect();
        let exps = vec![
            vec![0u32, 0, 0],
            vec![1, 0, 2],
            vec![2, 1, 0],
            vec![0, 3, 1],
            vec![2, 2, 2],
        ];
        let by_rows = design_matrix(&points, &exps).unwrap();
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        let mut builder = DesignBuilder::new(3, &exps).unwrap();
        let mut by_cols = Matrix::zeros(points.len(), exps.len());
        builder.fill_matrix(&mut by_cols, &flat);
        for s in 0..points.len() {
            for t in 0..exps.len() {
                assert_eq!(by_rows[(s, t)], by_cols[(s, t)], "entry ({s},{t})");
            }
        }
        // Refilling reuses the power-column scratch.
        builder.fill_matrix(&mut by_cols, &flat);
        assert_eq!(by_rows[(6, 4)], by_cols[(6, 4)]);
    }

    #[test]
    fn apply_qt_preserves_norm() {
        let a = Matrix::from_fn(6, 3, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64).sin());
        let qr = QrFactorization::new(a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| (i as f64) * 0.7 - 1.0).collect();
        let norm_before: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut qtb = b.clone();
        qr.apply_qt(&mut qtb).unwrap();
        let norm_after: f64 = qtb.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm_before - norm_after).abs() < 1e-10);
        assert!(qr.apply_qt(&mut [0.0; 3]).is_err());
    }

    #[test]
    fn qr_matches_naive_normal_equations_on_well_conditioned_fit() {
        // Cross-validate QR lstsq against the regularised normal-equation path.
        let points: Vec<Vec<f64>> = (1..30)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let exps = vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![2, 0], vec![0, 2]];
        let a = design_matrix(&points, &exps).unwrap();
        let b: Vec<f64> = points
            .iter()
            .map(|p| 1.0 + 2.0 * p[0] + 3.0 * p[1] + 0.1 * p[0] * p[0] - 0.2 * p[1] * p[1])
            .collect();
        let x1 = lstsq(a.clone(), &b).unwrap();
        let x2 = lstsq_regularized(&a, &b, 1e-12).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
        let _ = matmul(1.0, &a, &Matrix::zeros(exps.len(), 1)).unwrap();
    }

    #[test]
    fn into_factors_recycles_the_backing_buffer() {
        let a = Matrix::from_fn(4, 2, |i, j| (i + 2 * j) as f64 + 0.5);
        let qr = QrFactorization::new(a).unwrap();
        let factors = qr.into_factors();
        assert_eq!(factors.rows(), 4);
        assert_eq!(factors.cols(), 2);
        let data = factors.into_data();
        assert_eq!(data.len(), 8);
        // Round-trip: the buffer can back a fresh matrix without copying.
        let again = Matrix::from_data(4, 2, data).unwrap();
        assert_eq!(again.rows(), 4);
        assert!(Matrix::from_data(3, 2, vec![0.0; 5]).is_err());
        assert!(Matrix::from_data(0, 2, vec![]).is_err());
    }
}
