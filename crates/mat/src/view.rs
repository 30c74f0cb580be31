//! Borrowed matrix views with a leading dimension.

use std::marker::PhantomData;

use crate::Rect;

/// An immutable view of a column-major matrix block.
///
/// The view stores a raw base pointer, the block dimensions and the leading
/// dimension of the *parent* storage; element `(i, j)` is read from
/// `ptr.add(j * ld + i)`.  Views are cheap to copy and are the operand type of
/// the BLAS kernels in `dla-blas`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a f64>,
}

/// A mutable view of a column-major matrix block.
pub struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut f64>,
}

// SAFETY: a MatRef only allows shared reads of f64 values, which is Sync/Send
// when the underlying borrow is; the PhantomData ties the lifetime correctly.
unsafe impl Send for MatRef<'_> {}
unsafe impl Sync for MatRef<'_> {}
// SAFETY: a MatMut is an exclusive borrow; sending it to another thread is as
// safe as sending `&mut [f64]`.
unsafe impl Send for MatMut<'_> {}

impl<'a> MatRef<'a> {
    /// Creates a view from raw parts.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads of `ld * (cols - 1) + rows` consecutive
    /// `f64` values (when `rows, cols > 0`) for the lifetime `'a`, and `ld >=
    /// rows` must hold.
    pub unsafe fn from_raw_parts(ptr: *const f64, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(ld >= rows || rows == 0);
        MatRef {
            ptr,
            rows,
            cols,
            ld: ld.max(1),
            _marker: PhantomData,
        }
    }

    /// Creates a view over a contiguous column-major slice (`ld == rows`).
    ///
    /// Panics if the slice is shorter than `rows * cols`.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert!(
            data.len() >= rows * cols,
            "slice too short for {rows}x{cols} view"
        );
        // SAFETY: length checked above; ld == rows.
        unsafe { MatRef::from_raw_parts(data.as_ptr(), rows, cols, rows.max(1)) }
    }

    /// Number of rows of the view.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the view.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the parent storage.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Returns `true` if the view has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Reads element `(i, j)`.
    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: bounds checked above, invariants guaranteed at construction.
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Reads element `(i, j)` without bounds checking.
    ///
    /// # Safety
    ///
    /// `i < rows` and `j < cols` must hold.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        *self.ptr.add(j * self.ld + i)
    }

    /// Sub-view described by `rect`; panics if the block does not fit.
    pub fn submatrix(&self, rect: Rect) -> MatRef<'a> {
        assert!(
            rect.fits_in(self.rows, self.cols),
            "submatrix {rect} out of bounds for {}x{} view",
            self.rows,
            self.cols
        );
        // SAFETY: the block fits within the parent view.
        unsafe {
            MatRef::from_raw_parts(
                self.ptr.add(rect.col * self.ld + rect.row),
                rect.rows,
                rect.cols,
                self.ld,
            )
        }
    }

    /// Copies the view into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

impl<'a> MatMut<'a> {
    /// Creates a mutable view from raw parts.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of `ld * (cols - 1) + rows`
    /// consecutive `f64` values for the lifetime `'a`, no other reference may
    /// access those elements during `'a`, and `ld >= rows` must hold.
    pub unsafe fn from_raw_parts(ptr: *mut f64, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(ld >= rows || rows == 0);
        MatMut {
            ptr,
            rows,
            cols,
            ld: ld.max(1),
            _marker: PhantomData,
        }
    }

    /// Creates a mutable view over a contiguous column-major slice (`ld == rows`).
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        assert!(
            data.len() >= rows * cols,
            "slice too short for {rows}x{cols} view"
        );
        // SAFETY: length checked above; exclusivity follows from &mut.
        unsafe { MatMut::from_raw_parts(data.as_mut_ptr(), rows, cols, rows.max(1)) }
    }

    /// Number of rows of the view.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the view.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the parent storage.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Returns `true` if the view has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Reads element `(i, j)`.
    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: bounds checked above.
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Writes element `(i, j)`.
    // lint: allow(panic-free): the bounds assert is the documented contract
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: bounds checked above; we hold the exclusive borrow.
        unsafe { *self.ptr.add(j * self.ld + i) = v }
    }

    /// Reads element `(i, j)` without bounds checking.
    ///
    /// # Safety
    ///
    /// `i < rows` and `j < cols` must hold.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        *self.ptr.add(j * self.ld + i)
    }

    /// Writes element `(i, j)` without bounds checking.
    ///
    /// # Safety
    ///
    /// `i < rows` and `j < cols` must hold.
    #[inline]
    pub unsafe fn set_unchecked(&mut self, i: usize, j: usize, v: f64) {
        *self.ptr.add(j * self.ld + i) = v
    }

    /// Immutable reborrow of this view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        // SAFETY: shares the invariants of self; the returned lifetime is tied
        // to the borrow of self, so no mutation can happen concurrently.
        unsafe { MatRef::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Mutable reborrow of this view with a shorter lifetime.
    #[inline]
    pub fn reborrow(&mut self) -> MatMut<'_> {
        // SAFETY: exclusive access is inherited from &mut self.
        unsafe { MatMut::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Splits this view into two disjoint mutable blocks.
    ///
    /// Panics if the blocks overlap or do not fit.
    pub fn split_two_mut(self, a: Rect, b: Rect) -> (MatMut<'a>, MatMut<'a>) {
        assert!(a.fits_in(self.rows, self.cols), "block {a} out of bounds");
        assert!(b.fits_in(self.rows, self.cols), "block {b} out of bounds");
        assert!(!a.overlaps(&b), "blocks {a} and {b} overlap");
        // SAFETY: the two blocks are element-disjoint, so handing out two
        // mutable views cannot alias; both fit in the parent.
        unsafe {
            (
                MatMut::from_raw_parts(
                    self.ptr.add(a.col * self.ld + a.row),
                    a.rows,
                    a.cols,
                    self.ld,
                ),
                MatMut::from_raw_parts(
                    self.ptr.add(b.col * self.ld + b.row),
                    b.rows,
                    b.cols,
                    self.ld,
                ),
            )
        }
    }

    /// Fills the view with a constant.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            for i in 0..self.rows {
                // SAFETY: loop bounds match the view dimensions.
                unsafe { self.set_unchecked(i, j, v) };
            }
        }
    }

    /// Copies `src` into this view (dimensions must match).
    pub fn copy_from_ref(&mut self, src: MatRef<'_>) {
        assert_eq!(self.rows, src.rows(), "copy_from_ref: row mismatch");
        assert_eq!(self.cols, src.cols(), "copy_from_ref: column mismatch");
        for j in 0..self.cols {
            for i in 0..self.rows {
                // SAFETY: loop bounds match both views' dimensions.
                unsafe { self.set_unchecked(i, j, src.get_unchecked(i, j)) };
            }
        }
    }

    /// Copies the view into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

impl std::fmt::Debug for MatRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatRef({}x{}, ld {})", self.rows, self.cols, self.ld)
    }
}

impl std::fmt::Debug for MatMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatMut({}x{}, ld {})", self.rows, self.cols, self.ld)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn ref_from_slice() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = MatRef::from_slice(&data, 2, 3);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 3);
        assert_eq!(v.ld(), 2);
        // column-major: (0,0)=1, (1,0)=2, (0,1)=3 ...
        assert_eq!(v.get(0, 0), 1.0);
        assert_eq!(v.get(1, 0), 2.0);
        assert_eq!(v.get(0, 1), 3.0);
        assert_eq!(v.get(1, 2), 6.0);
    }

    #[test]
    fn mut_from_slice_roundtrip() {
        let mut data = vec![0.0; 6];
        {
            let mut v = MatMut::from_slice(&mut data, 2, 3);
            v.set(1, 2, 42.0);
            v.set(0, 0, -1.0);
            assert_eq!(v.get(1, 2), 42.0);
        }
        assert_eq!(data[5], 42.0);
        assert_eq!(data[0], -1.0);
    }

    #[test]
    fn submatrix_of_view() {
        let m = Matrix::from_fn(5, 5, |i, j| (10 * i + j) as f64);
        let v = m.as_ref();
        let s = v.submatrix(Rect::new(1, 2, 3, 2));
        assert_eq!(s.get(0, 0), 12.0);
        assert_eq!(s.get(2, 1), 33.0);
        let owned = s.to_matrix();
        assert_eq!(owned[(2, 1)], 33.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_out_of_bounds_panics() {
        let m = Matrix::zeros(3, 3);
        let v = m.as_ref();
        let _ = v.submatrix(Rect::new(2, 2, 2, 2));
    }

    #[test]
    fn split_two_mut_disjoint() {
        let mut m = Matrix::zeros(4, 4);
        {
            let v = m.as_mut();
            let (mut a, mut b) = v.split_two_mut(Rect::new(0, 0, 2, 2), Rect::new(2, 2, 2, 2));
            a.fill(1.0);
            b.fill(2.0);
        }
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(3, 3)], 2.0);
        assert_eq!(m[(0, 3)], 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn split_two_mut_overlapping_panics() {
        let mut m = Matrix::zeros(4, 4);
        let v = m.as_mut();
        let _ = v.split_two_mut(Rect::new(0, 0, 3, 3), Rect::new(2, 2, 2, 2));
    }

    #[test]
    fn copy_from_ref_and_fill() {
        let src = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut dst = Matrix::zeros(3, 3);
        dst.as_mut().copy_from_ref(src.as_ref());
        assert!(dst.approx_eq(&src, 0.0));
        let mut v = dst.as_mut();
        v.fill(7.0);
        assert_eq!(dst[(2, 2)], 7.0);
    }

    #[test]
    fn reborrows() {
        let mut m = Matrix::zeros(2, 2);
        let mut v = m.as_mut();
        {
            let mut r = v.reborrow();
            r.set(0, 1, 3.0);
        }
        assert_eq!(v.as_ref().get(0, 1), 3.0);
        assert_eq!(v.get(0, 1), 3.0);
    }

    #[test]
    fn debug_formatting() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(format!("{:?}", m.as_ref()), "MatRef(2x3, ld 2)");
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(format!("{:?}", m.as_mut()), "MatMut(2x3, ld 2)");
    }
}
