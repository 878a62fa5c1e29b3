//! Dense row-major `f32` matrix with the kernels GCN training needs.
//!
//! The matrix is deliberately minimal: a contiguous `Vec<f32>` plus shape.
//! The hot kernels (`matmul*`) use an i-k-j loop order so the innermost loop
//! walks both operands contiguously, add cache blocking so the streamed
//! operand is reused while it is still resident, and unroll the reduction
//! dimension into independent accumulator lanes so LLVM can autovectorize
//! the `f32` sums (a plain `acc += a * b` loop is a serial dependency
//! chain). Every kernel runs on the calling thread.
//!
//! Each public method here hoists the latched [`crate::simd::active`]
//! tier once and hands whole blocks of rows to the tier's kernels. The
//! products are row kernels — `matmul` the gather body over a dense index
//! list, `matmul_at_b` the scatter body over dense columns (the column body
//! for outputs narrower than one AVX2 vector; all in `rows.rs`),
//! `matmul_a_bt` the dot body in [`crate::simd`] — whose bits
//! depend only on the tier (`RDD_SIMD=off` gives the scalar order); the
//! row-wise softmax/entropy/elementwise kernels are [`crate::simd`]
//! dispatchers.

use crate::rows::{self, Columns, Gather, Scatter};
use crate::simd;
use rdd_obs::SpanCell;

/// Wall-time spans for the hot dense kernels; cumulative totals reach the
/// trace as `kernel` events at every `rdd_obs::flush()`. Disabled cost is
/// one atomic load per call.
static SPAN_MATMUL: SpanCell = SpanCell::new("matmul");
static SPAN_MATMUL_AT_B: SpanCell = SpanCell::new("matmul_at_b");
static SPAN_MATMUL_A_BT: SpanCell = SpanCell::new("matmul_a_bt");
static SPAN_TRANSPOSE: SpanCell = SpanCell::new("transpose");

/// Rows of the reduction dimension processed per cache block in `matmul`.
///
/// Bounds the slice of the right-hand operand that is streamed while the
/// output rows are revisited: `K_BLOCK * n * 4` bytes, which stays
/// L2-resident for the layer widths GCN training uses.
const K_BLOCK: usize = 256;

/// Output columns per cache block in `matmul_a_bt` (rows of `rhs` reused
/// across every output row).
const J_BLOCK: usize = 64;

/// Tile edge for the blocked `transpose`.
const T_TILE: usize = 32;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for i in 0..self.rows {
                writeln!(f, "  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector. Panics when the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    /// Element at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    /// Overwrite element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The backing row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, yielding its backing row-major storage (the
    /// workspace pool recycles buffers through this).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Dense matrix product `self @ rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out += self @ rhs` into a caller-owned (zero-filled) output.
    ///
    /// This is the pooled-buffer entry point: `out` must arrive zeroed
    /// (e.g. from `Workspace::take_zeroed`) and shaped `self.rows x rhs.cols`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch {:?} @ {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        let _span = SPAN_MATMUL.enter();
        let n = rhs.cols;
        let k_dim = self.cols;
        let tier = simd::active();
        // k-blocked: while the output rows are revisited, only `K_BLOCK`
        // rows of `rhs` are streamed, so they stay hot. Each row is a
        // gather over the dense index list `kb..ke`.
        let mut kb = 0;
        while kb < k_dim {
            let ke = (kb + K_BLOCK).min(k_dim);
            let a_rows = |i: usize| (&self.data[i * k_dim + kb..i * k_dim + ke], kb);
            let gather = Gather::new(&mut out.data, &rhs.data, n, a_rows);
            simd::run_rows(tier, &gather, 0..self.rows);
            kb = ke;
        }
    }

    /// `self^T @ rhs` without materializing the transpose.
    ///
    /// Used by backprop: for `C = A @ B`, `dB = A^T @ dC`.
    pub fn matmul_at_b(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_at_b_into(rhs, &mut out);
        out
    }

    /// `out += self^T @ rhs` into a caller-owned (zero-filled) output of
    /// shape `self.cols x rhs.cols`.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            rhs.rows,
            "matmul_at_b shape mismatch {:?}^T @ {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "matmul_at_b_into output shape mismatch"
        );
        // out is (self.cols x rhs.cols) and every input row k scatters into
        // all output rows, so the product is one scatter over the input rows
        // from row 0: each output element sums in one order. Input rows go
        // in quads: the quad's four `rhs` rows stay in registers while they
        // scatter into every output row, then leftover rows one at a time.
        let _span = SPAN_MATMUL_AT_B.enter();
        let n = rhs.cols;
        let tier = simd::active();
        if n < simd::NARROW {
            // Narrow head (a classifier's few classes): the column body
            // keeps groups of output rows in registers across the input
            // quads instead of reloading a narrow output row per quad.
            if n > 0 && self.cols > 0 {
                let columns = Columns::new(&mut out.data, &self.data, self.cols, &rhs.data, n);
                simd::run_rows(tier, &columns, 0..self.cols.div_ceil(rows::COLUMN_GROUP));
            }
            return;
        }
        let quads = self.rows / 4;
        let quad = |t: usize| {
            let k = 4 * t;
            let a = [
                self.row(k),
                self.row(k + 1),
                self.row(k + 2),
                self.row(k + 3),
            ];
            let b = [rhs.row(k), rhs.row(k + 1), rhs.row(k + 2), rhs.row(k + 3)];
            (a, 0, b)
        };
        simd::run_rows(tier, &Scatter::new(&mut out.data, n, quad), 0..quads);
        let single = |k: usize| ([self.row(k)], 0, [rhs.row(k)]);
        simd::run_rows(
            tier,
            &Scatter::new(&mut out.data, n, single),
            4 * quads..self.rows,
        );
    }

    /// `self @ rhs^T` without materializing the transpose.
    ///
    /// Used by backprop: for `C = A @ B`, `dA = dC @ B^T`.
    pub fn matmul_a_bt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_a_bt_into(rhs, &mut out);
        out
    }

    /// `out = self @ rhs^T` into a caller-owned output of shape
    /// `self.rows x rhs.rows`. Every element is overwritten, so the prior
    /// contents of `out` are irrelevant (a recycled buffer need not be
    /// zeroed).
    pub fn matmul_a_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_a_bt shape mismatch {:?} @ {:?}^T",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_a_bt_into output shape mismatch"
        );
        let _span = SPAN_MATMUL_A_BT.enter();
        let n = rhs.rows;
        let k_dim = self.cols;
        let tier = simd::active();
        // j-blocked so a `J_BLOCK`-row slice of `rhs` is reused across
        // every output row before the next slice streams in.
        let mut jb = 0;
        while jb < n {
            let je = (jb + J_BLOCK).min(n);
            simd::dot_rows(tier, &mut out.data, n, &self.data, k_dim, &rhs.data, jb..je);
            jb = je;
        }
    }

    /// Materialized transpose (tiled so both sides stay cache-resident).
    pub fn transpose(&self) -> Matrix {
        let _span = SPAN_TRANSPOSE.enter();
        let (in_rows, in_cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(in_cols, in_rows);
        let mut jb = 0;
        while jb < in_cols {
            let je = (jb + T_TILE).min(in_cols);
            let mut ib = 0;
            while ib < in_rows {
                let ie = (ib + T_TILE).min(in_rows);
                for j in jb..je {
                    for i in ib..ie {
                        out.data[j * in_rows + i] = self.data[i * in_cols + j];
                    }
                }
                ib = ie;
            }
            jb = je;
        }
        out
    }

    /// Element-wise `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        simd::add_assign(simd::active(), &mut self.data, &rhs.data);
    }

    /// Element-wise `self += scale * rhs`.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        simd::add_scaled_assign(simd::active(), &mut self.data, &rhs.data, scale);
    }

    /// Element-wise sum, returning a new matrix.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// Element-wise difference, returning a new matrix.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let mut out = self.clone();
        simd::mul_assign(simd::active(), &mut out.data, &rhs.data);
        out
    }

    /// Multiply every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        simd::scale_assign(simd::active(), &mut self.data, s);
    }

    /// A scaled copy.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// Apply `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Squared Frobenius norm `Σ x²`.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element of each row (ties resolve to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.argmax_rows_into(&mut out);
        out
    }

    /// [`Matrix::argmax_rows`] into a caller-owned scratch vector (cleared
    /// and refilled; capacity is reused across epochs).
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
    }

    /// Row-wise softmax, returning a new matrix whose rows sum to 1.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        let tier = simd::active();
        for i in 0..out.rows {
            simd::softmax_in_place(tier, out.row_mut(i));
        }
        out
    }

    /// Shannon entropy of each row, treating the row as a distribution.
    ///
    /// Rows are assumed non-negative; zero entries contribute zero (the
    /// `p ln p → 0` limit).
    pub fn row_entropy(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.row_entropy_into(&mut out);
        out
    }

    /// [`Matrix::row_entropy`] into a caller-owned scratch vector (cleared
    /// and refilled; capacity is reused across epochs).
    pub fn row_entropy_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.rows);
        let tier = simd::active();
        for i in 0..self.rows {
            out.push(simd::row_entropy(tier, self.row(i)));
        }
    }

    /// Vertical stack of row `indices` taken from `self`.
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Horizontal concatenation of `parts` (all must share the row count).
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        Matrix::hcat_into(parts, &mut out);
        out
    }

    /// [`Matrix::hcat`] into a caller-owned output. Every element is
    /// overwritten, so a recycled buffer need not be zeroed.
    pub fn hcat_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "hcat of zero matrices");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(out.shape(), (rows, cols), "hcat_into output shape mismatch");
        for i in 0..rows {
            let mut off = 0;
            let orow = out.row_mut(i);
            for p in parts {
                orow[off..off + p.cols].copy_from_slice(p.row(i));
                off += p.cols;
            }
        }
    }

    /// Maximum absolute element difference against `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Numerically-stable in-place softmax over a slice, on the latched
/// SIMD tier (`RDD_SIMD=off` gives the original scalar kernel).
pub fn softmax_in_place(row: &mut [f32]) {
    simd::softmax_in_place(simd::active(), row);
}

/// Numerically-stable in-place log-softmax over a slice, on the latched
/// SIMD tier (`RDD_SIMD=off` gives the original scalar kernel).
pub fn log_softmax_in_place(row: &mut [f32]) {
    simd::log_softmax_in_place(simd::active(), row);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::eye(2);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let fast = a.matmul_at_b(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 2, &(0..8).map(|x| x as f32).collect::<Vec<_>>());
        let fast = a.matmul_a_bt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = m(2, 3, &[1., 2., 3., -1., 0., 100.]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_extreme_values_stable() {
        let a = m(1, 3, &[1000., 1000., 1000.]);
        let s = a.softmax_rows();
        for &p in s.row(0) {
            assert!((p - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let mut row = [0.5f32, -1.0, 2.0, 0.0];
        let mut row2 = row;
        log_softmax_in_place(&mut row);
        softmax_in_place(&mut row2);
        for (l, p) in row.iter().zip(row2.iter()) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_ties_first() {
        let a = m(2, 3, &[1., 3., 3., 5., 2., 1.]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn row_entropy_uniform_is_ln_k() {
        let a = Matrix::full(1, 4, 0.25);
        let e = a.row_entropy();
        assert!((e[0] - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn row_entropy_onehot_is_zero() {
        let a = m(1, 3, &[1., 0., 0.]);
        assert!(a.row_entropy()[0].abs() < 1e-6);
    }

    #[test]
    fn hcat_concatenates() {
        let a = m(2, 1, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        let c = Matrix::hcat(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 3., 4.]);
        assert_eq!(c.row(1), &[2., 5., 6.]);
    }

    #[test]
    fn take_rows_selects() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let t = a.take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[5., 6.]);
        assert_eq!(t.row(1), &[1., 2.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn large_matmul_parallel_consistent() {
        // More rows than a power of two, spot-checked at both ends.
        let a = Matrix::from_fn(257, 31, |i, j| ((i * 7 + j * 13) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(31, 17, |i, j| ((i * 3 + j * 11) % 7) as f32 - 3.0);
        let c = a.matmul(&b);
        // Spot-check a few entries against a scalar loop.
        for &(i, j) in &[(0, 0), (128, 8), (256, 16)] {
            let mut acc = 0.0;
            for k in 0..31 {
                acc += a.get(i, k) * b.get(k, j);
            }
            assert!((c.get(i, j) - acc).abs() < 1e-4);
        }
    }
}
