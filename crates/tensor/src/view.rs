//! Borrowed matrix views and allocation-free GEMM kernels.
//!
//! The batched data plane of the OrcoDCS reproduction moves rounds of
//! sensing frames through codecs as **views over caller-owned memory**
//! instead of per-frame `Vec` allocations. [`MatView`] / [`MatViewMut`]
//! are the borrowed twins of [`Matrix`]: a shape plus a `&[f32]` /
//! `&mut [f32]`, constructible from a `Matrix`, a single row, or a
//! zero-copy row-range.
//!
//! The `_into` kernels ([`MatView::matmul_into`],
//! [`MatView::t_matmul_into`], [`MatView::matvec_into`],
//! [`MatView::t_matvec_into`], [`MatView::map_into`]) run the **same
//! blocked, row-parallel kernels** as the allocating [`Matrix`]
//! products — literally the same code, via a shared kernel layer — so
//! results are bit-identical to the owning API at any thread count,
//! while the output lands in a buffer the caller reuses across batches.
//!
//! ```
//! use orco_tensor::{MatView, Matrix};
//!
//! let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
//! let mut out = Matrix::zeros(0, 0); // reused across calls
//! out.reset(4, 2);
//! a.as_view().matmul_into(b.as_view(), out.as_view_mut());
//! assert_eq!(out, a.matmul(&b));
//! ```

use crate::error::TensorError;
use crate::matrix::Matrix;

/// Row-tile height for the blocked GEMM kernels: `B` is streamed once per
/// tile instead of once per output row. Must stay constant — per-row
/// summation order (ascending `k`) is what keeps results bit-identical
/// across thread counts.
pub(crate) const GEMM_ROW_TILE: usize = 4;

/// Minimum rows a worker thread must own before the GEMM kernels
/// parallelize; below this the spawn overhead dominates.
pub(crate) const GEMM_MIN_ROWS_PER_THREAD: usize = 8;

// ----------------------------------------------------------------------
// Shared kernels (used by both `Matrix` products and the `_into` API)
// ----------------------------------------------------------------------

/// `out[m×n] = a[m×k] · b[k×n]`, blocked and row-parallel. `out` must be
/// zeroed by the caller (the kernel accumulates).
pub(crate) fn matmul_kernel(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 || k == 0 {
        return;
    }
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        for (tile_idx, o_tile) in block.chunks_mut(GEMM_ROW_TILE * n).enumerate() {
            let i0 = first_row + tile_idx * GEMM_ROW_TILE;
            let tile_rows = o_tile.len() / n;
            for kk in 0..k {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (r, o_row) in o_tile.chunks_exact_mut(n).enumerate() {
                    let av = a[(i0 + r) * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
                debug_assert!(tile_rows <= GEMM_ROW_TILE);
            }
        }
    });
}

/// `out[m×n] = aᵀ · b` where `a` is `k×m` and `b` is `k×n`, row-parallel.
/// `out` must be zeroed by the caller (the kernel accumulates).
pub(crate) fn t_matmul_kernel(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 || k == 0 {
        return;
    }
    // out[i][j] = sum_k a[k][i] * b[k][j]
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        let rows_here = block.len() / n;
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (r, o_row) in block.chunks_exact_mut(n).enumerate() {
                let av = a_row[first_row + r];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
            debug_assert!(rows_here <= m);
        }
    });
}

// ----------------------------------------------------------------------
// MatView
// ----------------------------------------------------------------------

/// An immutable, borrowed, row-major `f32` matrix: shape plus `&[f32]`.
///
/// The read side of the zero-copy batch API: its `_into` methods run the
/// same blocked, row-parallel kernels as the allocating [`Matrix`]
/// products, so results are bit-identical to the owning API at any
/// thread count while the output lands in a caller-reused buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatView<'a> {
    /// Wraps a row-major buffer as a `rows`×`cols` view.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if
    /// `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Views a slice as a single-row matrix (`1 × len`) — the bridge from
    /// the per-frame API into the batched one.
    #[must_use]
    pub fn from_row(row: &'a [f32]) -> Self {
        Self { rows: 1, cols: row.len(), data: row }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view contains no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        let (cols, data) = (self.cols, self.data);
        (0..self.rows).map(move |r| &data[r * cols..(r + 1) * cols])
    }

    /// A zero-copy sub-view of rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the number of rows.
    #[must_use]
    pub fn rows_range(&self, range: std::ops::Range<usize>) -> MatView<'a> {
        assert!(range.end <= self.rows, "rows_range end {} > rows {}", range.end, self.rows);
        MatView {
            rows: range.len(),
            cols: self.cols,
            data: &self.data[range.start * self.cols..range.end * self.cols],
        }
    }

    /// Copies the view into an owned [`Matrix`].
    #[must_use]
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
            .expect("view shape is consistent by construction")
    }

    /// `out = self · other`, the allocation-free twin of
    /// [`Matrix::matmul`] (same blocked row-parallel kernel, bit-identical
    /// results). `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: MatView<'_>, out: MatViewMut<'_>) {
        assert!(
            self.cols == other.rows,
            "matmul_into shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        assert!(
            out.shape() == (self.rows, other.cols),
            "matmul_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.cols
        );
        out.data.fill(0.0);
        matmul_kernel(self.data, self.cols, other.data, other.cols, out.data);
    }

    /// `out = selfᵀ · other` without materializing the transpose — the
    /// allocation-free twin of [`Matrix::t_matmul`]. `out` is fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()` or `out` is not
    /// `self.cols() × other.cols()`.
    pub fn t_matmul_into(&self, other: MatView<'_>, out: MatViewMut<'_>) {
        assert!(
            self.rows == other.rows,
            "t_matmul_into shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        assert!(
            out.shape() == (self.cols, other.cols),
            "t_matmul_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.cols,
            other.cols
        );
        out.data.fill(0.0);
        t_matmul_kernel(self.data, self.cols, self.rows, other.data, other.cols, out.data);
    }

    /// `out = self · v`, the allocation-free twin of [`Matrix::matvec`]
    /// (same per-row dot products, bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec_into: vector length {} != cols {}",
            v.len(),
            self.cols
        );
        assert_eq!(
            out.len(),
            self.rows,
            "matvec_into: out length {} != rows {}",
            out.len(),
            self.rows
        );
        for (o, row) in out.iter_mut().zip(self.iter_rows()) {
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// `out = selfᵀ · v` without materializing the transpose. Each output
    /// element accumulates in ascending row order, so the result is
    /// bit-identical to `self.transpose().matvec(v)` — minus the
    /// transpose allocation the solvers used to pay per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn t_matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.rows,
            "t_matvec_into: vector length {} != rows {}",
            v.len(),
            self.rows
        );
        assert_eq!(
            out.len(),
            self.cols,
            "t_matvec_into: out length {} != cols {}",
            out.len(),
            self.cols
        );
        out.fill(0.0);
        for (row, &vk) in self.iter_rows().zip(v) {
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * vk;
            }
        }
    }

    /// Applies `f` element-wise into `out` — the allocation-free twin of
    /// [`Matrix::map`].
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: MatViewMut<'_>) {
        assert!(
            out.shape() == self.shape(),
            "map_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            self.cols
        );
        for (o, &v) in out.data.iter_mut().zip(self.data) {
            *o = f(v);
        }
    }
}

impl<'a> From<&'a Matrix> for MatView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.as_view()
    }
}

// ----------------------------------------------------------------------
// MatViewMut
// ----------------------------------------------------------------------

/// A mutable, borrowed, row-major `f32` matrix: shape plus `&mut [f32]`.
///
/// The write side of the zero-copy batch API: `_into` kernels land their
/// output here, so callers own (and reuse) every buffer.
#[derive(Debug, PartialEq)]
pub struct MatViewMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f32],
}

impl<'a> MatViewMut<'a> {
    /// Wraps a mutable row-major buffer as a `rows`×`cols` view.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if
    /// `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a mut [f32]) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Views a mutable slice as a single-row matrix (`1 × len`).
    #[must_use]
    pub fn from_row(row: &'a mut [f32]) -> Self {
        Self { rows: 1, cols: row.len(), data: row }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying mutable row-major buffer.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A read-only view of the same buffer.
    #[must_use]
    pub fn as_view(&self) -> MatView<'_> {
        MatView { rows: self.rows, cols: self.cols, data: self.data }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_fn(5, 3, |r, c| ((r * 7 + c) as f32 * 0.31).sin())
    }

    fn b() -> Matrix {
        Matrix::from_fn(3, 4, |r, c| ((r * 5 + c) as f32 * 0.17).cos())
    }

    #[test]
    fn view_construction_and_accessors() {
        let m = a();
        let v = m.as_view();
        assert_eq!(v.shape(), m.shape());
        assert_eq!(v.row(2), m.row(2));
        assert_eq!(v.len(), 15);
        assert!(!v.is_empty());
        assert_eq!(v.iter_rows().count(), 5);
        assert_eq!(v.to_matrix(), m);
        assert!(MatView::new(2, 2, &[0.0; 3]).is_err());
        let row = MatView::from_row(m.row(1));
        assert_eq!(row.shape(), (1, 3));
    }

    #[test]
    fn rows_range_is_zero_copy_and_matches_slice_rows() {
        let m = a();
        let v = m.as_view().rows_range(1..4);
        assert_eq!(v.to_matrix(), m.slice_rows(1..4));
        assert_eq!(m.view_rows(1..4), v);
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        let (a, b) = (a(), b());
        let mut out = Matrix::zeros(0, 0);
        out.reset(5, 4);
        // Pre-fill with garbage: the kernel must fully overwrite.
        out.as_mut_slice().fill(7.5);
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn t_matmul_into_bit_identical() {
        let a = a();
        let b = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 * 0.4 - 1.0);
        let mut out = Matrix::zeros(3, 2);
        out.as_mut_slice().fill(-3.0);
        a.as_view().t_matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out, a.t_matmul(&b));
    }

    #[test]
    fn matvec_variants_bit_identical() {
        let a = a();
        let v3 = [0.3f32, -1.0, 2.5];
        let v5 = [1.0f32, 0.0, -0.5, 2.0, 0.25];
        let mut out = vec![0.0f32; 5];
        a.as_view().matvec_into(&v3, &mut out);
        assert_eq!(out, a.matvec(&v3));
        let mut out_t = vec![9.0f32; 3];
        a.as_view().t_matvec_into(&v5, &mut out_t);
        assert_eq!(out_t, a.transpose().matvec(&v5));
    }

    #[test]
    fn map_into_applies_elementwise() {
        let m = a();
        let mut out = Matrix::zeros(5, 3);
        m.as_view().map_into(|v| v * 2.0 + 1.0, out.as_view_mut());
        assert_eq!(out, m.map(|v| v * 2.0 + 1.0));
    }

    #[test]
    fn mut_view_rows_and_fill() {
        let mut m = Matrix::zeros(2, 3);
        let mut v = m.as_view_mut();
        v.fill(1.0);
        v.row_mut(1)[2] = 5.0;
        assert_eq!(v.as_view().row(1), &[1.0, 1.0, 5.0]);
        assert_eq!(m[(1, 2)], 5.0);
        let mut buf = vec![0.0f32; 4];
        assert!(MatViewMut::new(2, 2, &mut buf).is_ok());
        let mut short = vec![0.0f32; 3];
        assert!(MatViewMut::new(2, 2, &mut short).is_err());
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(0, 2);
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out.shape(), (0, 2));
        let kless = Matrix::zeros(2, 0);
        let bless = Matrix::zeros(0, 4);
        let mut out2 = Matrix::filled(2, 4, 3.0);
        kless.as_view().matmul_into(bless.as_view(), out2.as_view_mut());
        assert_eq!(out2, Matrix::zeros(2, 4), "k = 0 product must still zero the buffer");
    }
}
