//! Owned column-major matrix storage.

use crate::{MatError, MatMut, MatRef, Rect, Result};

/// An owned, column-major `f64` matrix with an explicit leading dimension.
///
/// Storage follows the BLAS/LAPACK convention: element `(i, j)` lives at index
/// `j * ld + i` of the backing buffer, and the leading dimension `ld` may be
/// larger than the number of rows (the extra rows are padding that is never
/// touched by the numerical kernels but matters for performance, which is why
/// the paper's models treat leading dimensions as a distinct argument class).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    ld: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros with `ld == rows`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            ld: rows.max(1),
            data: vec![0.0; rows.max(1) * cols],
        }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every element.
    // lint: allow(panic-free): i < rows and j < cols by loop bounds
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a row-major slice of values (convenient in tests).
    ///
    /// Returns an error if `values.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, values: &[f64]) -> Result<Self> {
        if values.len() != rows * cols {
            return Err(MatError::dims(format!(
                "expected {} values for a {}x{} matrix, got {}",
                rows * cols,
                rows,
                cols,
                values.len()
            )));
        }
        Ok(Matrix::from_fn(rows, cols, |i, j| values[i * cols + j]))
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Wraps an existing column-major buffer as a `rows x cols` matrix with
    /// `ld == rows`, without copying.
    ///
    /// The inverse of [`Matrix::into_data`]; together they let hot loops
    /// (e.g. the fit engine's design-matrix workspace) recycle one allocation
    /// across many matrices.  Returns an error unless
    /// `data.len() == rows * cols` with `rows >= 1`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || data.len() != rows * cols {
            return Err(MatError::dims(format!(
                "from_data: buffer of {} values cannot back a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix {
            rows,
            cols,
            ld: rows,
            data,
        })
    }

    /// Consumes the matrix and returns its backing buffer (column-major,
    /// including any leading-dimension padding).
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the backing storage.
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the backing storage (including padding rows).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing storage (including padding rows).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reads element `(i, j)`; panics if out of bounds.
    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.ld + i]
    }

    /// Writes element `(i, j)`; panics if out of bounds.
    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.ld + i] = v;
    }

    /// Fills the whole matrix with a constant value.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.data[j * self.ld + i] = v;
            }
        }
    }

    /// Immutable view of the whole matrix.
    pub fn as_ref(&self) -> MatRef<'_> {
        // SAFETY: the buffer is ld * cols long and outlives the view.
        unsafe { MatRef::from_raw_parts(self.data.as_ptr(), self.rows, self.cols, self.ld) }
    }

    /// Mutable view of the whole matrix.
    pub fn as_mut(&mut self) -> MatMut<'_> {
        // SAFETY: the buffer is ld * cols long and outlives the view; the
        // `&mut self` borrow guarantees exclusivity.
        unsafe { MatMut::from_raw_parts(self.data.as_mut_ptr(), self.rows, self.cols, self.ld) }
    }

    /// Immutable view of the block described by `rect`.
    ///
    /// Returns an error if the block does not fit inside the matrix.
    pub fn block(&self, rect: Rect) -> Result<MatRef<'_>> {
        if !rect.fits_in(self.rows, self.cols) {
            return Err(MatError::oob(format!(
                "block {rect} does not fit in {}x{} matrix",
                self.rows, self.cols
            )));
        }
        let offset = rect.col * self.ld + rect.row;
        // SAFETY: the block fits, so every accessed index j*ld+i stays within
        // the allocation for i < rect.rows, j < rect.cols.
        Ok(unsafe {
            MatRef::from_raw_parts(
                self.data.as_ptr().add(offset),
                rect.rows,
                rect.cols,
                self.ld,
            )
        })
    }

    /// Mutable view of the block described by `rect`.
    pub fn block_mut(&mut self, rect: Rect) -> Result<MatMut<'_>> {
        if !rect.fits_in(self.rows, self.cols) {
            return Err(MatError::oob(format!(
                "block {rect} does not fit in {}x{} matrix",
                self.rows, self.cols
            )));
        }
        let offset = rect.col * self.ld + rect.row;
        // SAFETY: as in `block`, plus exclusivity from `&mut self`.
        Ok(unsafe {
            MatMut::from_raw_parts(
                self.data.as_mut_ptr().add(offset),
                rect.rows,
                rect.cols,
                self.ld,
            )
        })
    }

    /// Simultaneously borrows one mutable block and several immutable blocks of
    /// the same matrix.
    ///
    /// This is the safe entry point used by the in-place BLAS wrappers of
    /// `dla-blas` when all operands of a call (e.g. `L20 += L21 * L10`) are
    /// blocks of a single parent matrix.  The mutable block must not overlap
    /// any of the immutable blocks; the immutable blocks may overlap each
    /// other.
    pub fn split_one_mut(
        &mut self,
        mut_rect: Rect,
        ref_rects: &[Rect],
    ) -> Result<(MatMut<'_>, Vec<MatRef<'_>>)> {
        if !mut_rect.fits_in(self.rows, self.cols) {
            return Err(MatError::oob(format!(
                "mutable block {mut_rect} does not fit in {}x{} matrix",
                self.rows, self.cols
            )));
        }
        for r in ref_rects {
            if !r.fits_in(self.rows, self.cols) {
                return Err(MatError::oob(format!(
                    "block {r} does not fit in {}x{} matrix",
                    self.rows, self.cols
                )));
            }
            if r.overlaps(&mut_rect) {
                return Err(MatError::dims(format!(
                    "immutable block {r} overlaps mutable block {mut_rect}"
                )));
            }
        }
        let ld = self.ld;
        let base_mut = self.data.as_mut_ptr();
        let base_const = self.data.as_ptr();
        let m_off = mut_rect.col * ld + mut_rect.row;
        // SAFETY: the mutable block is disjoint (element-wise) from every
        // immutable block, so no element is reachable both mutably and
        // immutably.  All blocks fit inside the allocation.
        let mut_view = unsafe {
            MatMut::from_raw_parts(base_mut.add(m_off), mut_rect.rows, mut_rect.cols, ld)
        };
        let ref_views = ref_rects
            .iter()
            .map(|r| {
                let off = r.col * ld + r.row;
                unsafe { MatRef::from_raw_parts(base_const.add(off), r.rows, r.cols, ld) }
            })
            .collect();
        Ok((mut_view, ref_views))
    }

    /// Copies the contents of `src` into this matrix (dimensions must match).
    pub fn copy_from(&mut self, src: &Matrix) -> Result<()> {
        if self.rows != src.rows || self.cols != src.cols {
            return Err(MatError::dims(format!(
                "copy_from: destination is {}x{}, source is {}x{}",
                self.rows, self.cols, src.rows, src.cols
            )));
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.data[j * self.ld + i] = src.data[j * src.ld + i];
            }
        }
        Ok(())
    }

    /// Returns a newly allocated transpose of this matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        let mut acc: f64 = 0.0;
        for j in 0..self.cols {
            for i in 0..self.rows {
                acc = acc.max(self.data[j * self.ld + i].abs());
            }
        }
        acc
    }

    /// Returns `true` if every element of `self` and `other` differs by at most
    /// `tol` in absolute value.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                if (self.get(i, j) - other.get(i, j)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum element-wise absolute difference between `self` and `other`.
    ///
    /// Panics if the dimensions do not match.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: row mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: column mismatch");
        let mut acc: f64 = 0.0;
        for j in 0..self.cols {
            for i in 0..self.rows {
                acc = acc.max((self.get(i, j) - other.get(i, j)).abs());
            }
        }
        acc
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.ld + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.ld + i]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} (ld {})", self.rows, self.cols, self.ld)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.ld(), 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        m.set(2, 3, -1.0);
        assert_eq!(m[(2, 3)], -1.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
        // column-major storage: first column is [1, 4]
        assert_eq!(m.as_slice()[0], 1.0);
        assert_eq!(m.as_slice()[1], 4.0);
        assert!(Matrix::from_rows(2, 2, &[1.0]).is_err());
    }

    #[test]
    fn identity_and_transpose() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(1, 0)], 0.0);
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t[(0, 1)], 4.0);
    }

    #[test]
    fn block_views_respect_offsets() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let b = m.block(Rect::new(2, 3, 3, 2)).unwrap();
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(0, 0), 23.0);
        assert_eq!(b.get(2, 1), 44.0);
        assert!(m.block(Rect::new(4, 4, 3, 3)).is_err());
    }

    #[test]
    fn block_mut_writes_through() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut b = m.block_mut(Rect::new(1, 1, 2, 2)).unwrap();
            b.set(0, 0, 7.0);
            b.set(1, 1, 9.0);
        }
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(2, 2)], 9.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn split_one_mut_disjoint_blocks() {
        let mut m = Matrix::from_fn(6, 6, |i, j| (i + j) as f64);
        let (mut out, ins) = m
            .split_one_mut(
                Rect::new(4, 0, 2, 2),
                &[Rect::new(0, 0, 2, 2), Rect::new(2, 2, 2, 2)],
            )
            .unwrap();
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].get(1, 1), 2.0);
        assert_eq!(ins[1].get(0, 0), 4.0);
        out.set(0, 0, 99.0);
        assert_eq!(m[(4, 0)], 99.0);
    }

    #[test]
    fn split_one_mut_rejects_overlap() {
        let mut m = Matrix::zeros(6, 6);
        let res = m.split_one_mut(Rect::new(0, 0, 3, 3), &[Rect::new(2, 2, 2, 2)]);
        assert!(res.is_err());
        let res = m.split_one_mut(Rect::new(0, 0, 3, 3), &[Rect::new(10, 0, 2, 2)]);
        assert!(res.is_err());
    }

    #[test]
    fn copy_fill_norms() {
        let mut a = Matrix::zeros(3, 3);
        a.fill(2.0);
        assert_eq!(a.max_abs(), 2.0);
        let mut b = Matrix::zeros(3, 3);
        b.copy_from(&a).unwrap();
        assert!(b.approx_eq(&a, 0.0));
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = Matrix::zeros(2, 3);
        assert!(b.copy_from(&c).is_err());
        assert!(!b.approx_eq(&c, 1.0));
    }

    #[test]
    fn display_does_not_panic() {
        let m = Matrix::from_fn(10, 10, |i, j| (i * j) as f64);
        let s = format!("{m}");
        assert!(s.contains("Matrix 10x10"));
    }

    #[test]
    fn empty_matrices_are_ok() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        let b = m.block(Rect::new(0, 0, 0, 5)).unwrap();
        assert_eq!(b.rows(), 0);
    }
}
