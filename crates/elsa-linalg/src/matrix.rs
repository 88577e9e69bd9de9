//! A minimal row-major dense matrix.
//!
//! The ELSA pipeline works entirely with small dense matrices (`n × d` with
//! `n ≤ 2048`, `d = 64`). Both products, [`Matrix::matmul`] and
//! [`Matrix::matmul_transpose_b`], run one packed, register-blocked kernel:
//!
//! 1. the right operand is packed once per call into `f64` panels of `NR`
//!    columns, k-major inside each panel (lanes past the last column are
//!    zero and never stored);
//! 2. each block of `MR` left-operand rows is converted to `f64` once;
//! 3. a fixed-size `MR × NR` accumulator walks k in order over one panel.
//!
//! The blocking changes which outputs are computed together, never how one
//! is computed: every output element is a single sequential `f64` sum, in
//! k order, of exact `f32 × f32` products, rounded once to `f32`. That is
//! the arithmetic of the plain triple loop, so results are bit-identical to
//! it, and a `#[cfg(test)]` oracle battery in this module pins that.
//!
//! Large products are partitioned over `elsa-parallel` workers in `MR`-row
//! blocks. A block never splits a reduction, so parallel results are
//! bit-identical to serial ones for every worker count (and
//! `ELSA_THREADS=1` never spawns a thread).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Left-operand rows per register block: the unit the products fan out over.
const MR: usize = 2;
/// Right-operand columns per packed panel: the width of one accumulator row.
const NR: usize = 8;

/// A dense row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use elsa_linalg::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from explicit row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::default();
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out into a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · other`.
    ///
    /// Each element is one sequential `f64` sum, in k order, of exact
    /// `f32 × f32` products, started at `+0.0` and rounded once to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        // Sums start at +0.0, so an empty or all-(-0.0) sum is +0.0.
        self.gemm(&pack_panels(other, false), other.cols, 0.0)
    }

    /// Matrix product against a transposed right operand: `self · otherᵀ`.
    ///
    /// This is the natural layout for attention's `QKᵀ` (both `Q` and `K` are
    /// stored row-major as `n × d`). Each element equals
    /// [`ops::dot`](crate::ops::dot) of the two rows, rounded to `f32`, bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    #[must_use]
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        // Sums start at -0.0, as `Iterator::sum::<f64>` (and so `ops::dot`)
        // does, so an empty or all-(-0.0) dot product is -0.0.
        self.gemm(&pack_panels(other, true), other.rows, -0.0)
    }

    /// `self · B` for a right operand `B` (`self.cols() × n`) packed by
    /// [`pack_panels`]; every output element is one k-order `f64` sum started
    /// at `init`, rounded once to `f32`.
    fn gemm(&self, packed: &[f64], n: usize, init: f64) -> Matrix {
        let k = self.cols;
        let mut out = Matrix::zeros(self.rows, n);
        if out.data.is_empty() {
            return out;
        }
        let block = |b: usize, out_rows: &mut [f32]| {
            let lhs = &self.data[b * MR * k..][..out_rows.len() / n * k];
            if out_rows.len() == MR * n {
                row_block::<MR>(lhs, packed, init, out_rows);
            } else {
                // The last, partial block runs row by row.
                for (r, out_row) in out_rows.chunks_mut(n).enumerate() {
                    row_block::<1>(&lhs[r * k..][..k], packed, init, out_row);
                }
            }
        };
        let work = self.rows.saturating_mul(k).saturating_mul(n);
        if elsa_parallel::beneficial(work) {
            elsa_parallel::par_chunks_mut(&mut out.data, MR * n, block);
        } else {
            for (b, out_rows) in out.data.chunks_mut(MR * n).enumerate() {
                block(b, out_rows);
            }
        }
        out
    }

    /// Applies `f` to every row (`f(row_index, row)`), fanning rows out
    /// across worker threads when `work_hint` clears
    /// [`elsa_parallel::beneficial`]. Each row's computation is independent
    /// and internally unchanged, so results are bit-identical to the serial
    /// row-order loop regardless of worker count.
    ///
    /// `work_hint` is the caller's estimate of the total work, in the units
    /// of [`elsa_parallel::MIN_PARALLEL_WORK`] (rows × cols × the cost of one
    /// element in those units); below the threshold the loop runs inline.
    pub fn par_rows_mut(&mut self, work_hint: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
        if self.data.is_empty() {
            return;
        }
        if elsa_parallel::beneficial(work_hint) {
            elsa_parallel::par_chunks_mut(&mut self.data, self.cols, f);
        } else {
            for (i, row) in self.data.chunks_mut(self.cols).enumerate() {
                f(i, row);
            }
        }
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies `f` to every element, producing a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every element by `s`.
    #[must_use]
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Elementwise maximum absolute difference against another matrix of the
    /// same shape — the error metric used throughout the test-suite.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm of the difference, divided by the Frobenius norm of
    /// `self` — a scale-free relative error.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn relative_frobenius_error(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            num += f64::from(a - b) * f64::from(a - b);
            den += f64::from(*a) * f64::from(*a);
        }
        if den == 0.0 {
            if num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (num / den).sqrt()
        }
    }

    /// Vertical concatenation of two matrices with equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    #[must_use]
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Appends one row in place (amortized O(cols), no reallocation of
    /// earlier rows) — the growth primitive behind incremental decode
    /// sessions, where a context gains one key/value row per token.
    ///
    /// On a matrix with zero rows this sets the column count, so
    /// `Matrix::zeros(0, d)` grows into an `n × d` matrix row by row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` (for a matrix with at least one
    /// row) or `row.len() != cols` of an empty matrix constructed with an
    /// explicit column count.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Returns the sub-matrix consisting of rows `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the number of rows.
    #[must_use]
    pub fn row_slice(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(range.end <= self.rows, "row range out of bounds");
        Matrix {
            rows: range.len(),
            cols: self.cols,
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
        }
    }
}

/// Packs the right operand `B` of a product into `⌈n / NR⌉` panels of
/// `k × NR` `f64` values, k-major inside each panel; lanes past column `n`
/// stay zero. `B` is `rhs` (`k × n`) or, when `transposed`, `rhsᵀ`.
fn pack_panels(rhs: &Matrix, transposed: bool) -> Vec<f64> {
    let (k, n) = if transposed { (rhs.cols, rhs.rows) } else { (rhs.rows, rhs.cols) };
    let mut packed = vec![0.0; n.div_ceil(NR) * k * NR];
    for (r, row) in rhs.iter_rows().enumerate() {
        for (c, &x) in row.iter().enumerate() {
            let (kk, j) = if transposed { (c, r) } else { (r, c) };
            packed[(j / NR * k + kk) * NR + j % NR] = f64::from(x);
        }
    }
    packed
}

/// Computes `R` consecutive output rows (`out`, `R × n`) from the matching
/// left-operand rows (`lhs`, `R × k`): converts them to `f64` once, k-major,
/// then runs the micro-kernel against every panel.
fn row_block<const R: usize>(lhs: &[f32], packed: &[f64], init: f64, out: &mut [f32]) {
    let (k, n) = (lhs.len() / R, out.len() / R);
    let mut a = vec![0.0; R * k];
    for (kk, a_k) in a.chunks_exact_mut(R).enumerate() {
        for (r, slot) in a_k.iter_mut().enumerate() {
            *slot = f64::from(lhs[r * k + kk]);
        }
    }
    let panel_len = k * NR;
    for (p, j0) in (0..n).step_by(NR).enumerate() {
        let acc = micro_kernel::<R>(&a, &packed[p * panel_len..][..panel_len], init);
        let width = NR.min(n - j0);
        for (out_row, acc_row) in out.chunks_exact_mut(n).zip(&acc) {
            for (slot, &v) in out_row[j0..j0 + width].iter_mut().zip(acc_row) {
                *slot = v as f32;
            }
        }
    }
}

/// The register block: `R × NR` accumulators, each one sequential `f64` sum
/// over k of `a[k][r] · panel[k][c]`, started at `init`. Plain `*` and `+`:
/// an `f32 × f32` product is exact in `f64`, so each step rounds once, as
/// the scalar loop does.
fn micro_kernel<const R: usize>(a: &[f64], panel: &[f64], init: f64) -> [[f64; NR]; R] {
    let mut acc = [[init; NR]; R];
    for (a_k, b_k) in a.chunks_exact(R).zip(panel.chunks_exact(NR)) {
        for (acc_row, &x) in acc.iter_mut().zip(a_k) {
            for (slot, &y) in acc_row.iter_mut().zip(b_k) {
                *slot += x * y;
            }
        }
    }
    acc
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_grows_from_empty() {
        let mut m = Matrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        // Row-by-row growth is vstack, bit for bit.
        let stacked = m.row_slice(0..1).vstack(&m.row_slice(1..2));
        assert_eq!(m, stacked);
    }

    #[test]
    #[should_panic(expected = "push_row length mismatch")]
    fn push_row_rejects_wrong_width() {
        Matrix::zeros(2, 3).push_row(&[1.0]);
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
        assert_eq!(m.col(1), vec![1.0, 11.0, 21.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_fn(4, 4, |r, c| (r + 2 * c) as f32);
        assert_eq!(m.matmul(&Matrix::identity(4)), m);
        assert_eq!(Matrix::identity(4).matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_b_equals_explicit_transpose() {
        // Both run one kernel; only the start value differs, and no element
        // here is an all-(-0.0) sum, so the two agree bit for bit.
        let a = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(4, 7, |r, c| ((r * 3 + c) % 5) as f32);
        let fast = a.matmul_transpose_b(&b);
        let slow = a.matmul(&b.transpose());
        assert!(kernel_oracle::same_bits(&fast, &slow));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn map_and_scale() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(m.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        assert_eq!(m.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn error_metrics() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-7);
        assert!(a.relative_frobenius_error(&a) == 0.0);
        assert!(a.relative_frobenius_error(&b) > 0.0);
    }

    #[test]
    fn vstack_and_row_slice() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5.0, 6.0]);
        assert_eq!(s.row_slice(1..3), b);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = Matrix::default();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
        assert_eq!(m.as_slice().len(), 0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn display_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    /// The blocked kernel against the scalar loops it replaced, bit for bit.
    mod kernel_oracle {
        use crate::matrix::{Matrix, MR, NR};
        use crate::{ops, SeededRng};
        use elsa_testkit::prelude::*;

        /// The scalar `matmul`: one `acc = 0.0` column loop per element.
        fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows, b.cols);
            for i in 0..a.rows {
                for j in 0..b.cols {
                    let mut acc = 0.0f64;
                    for (k, &l) in a.row(i).iter().enumerate() {
                        acc += f64::from(l) * f64::from(b[(k, j)]);
                    }
                    out[(i, j)] = acc as f32;
                }
            }
            out
        }

        /// The scalar `matmul_transpose_b`: one `ops::dot` per element.
        fn oracle_matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
            Matrix::from_fn(a.rows, b.rows, |i, j| ops::dot(a.row(i), b.row(j)) as f32)
        }

        /// Same shape and the same bits everywhere, except that NaNs compare
        /// by NaN-ness only: Rust leaves a NaN's sign and payload unspecified.
        pub(super) fn same_bits(x: &Matrix, y: &Matrix) -> bool {
            (x.rows, x.cols) == (y.rows, y.cols) && first_mismatch(x, y).is_none()
        }

        /// Flat index of the first element whose bits differ (NaN by NaN-ness).
        fn first_mismatch(x: &Matrix, y: &Matrix) -> Option<usize> {
            x.data.iter().zip(&y.data).position(|(a, b)| {
                a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan())
            })
        }

        /// Every dimension the battery draws: the degenerate sizes, both
        /// sides of each block edge, and primes up to 71.
        const SHAPES: [usize; 28] = [
            0, 1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
            37, 41, 43, 47, 53, 59, 61, 67, 71,
        ];

        /// IEEE corner cases: signed zeros, subnormals, infinities, NaN, and
        /// magnitudes near `f32::MAX` whose products overflow `f32` but not
        /// `f64`.
        const SPECIALS: [f32; 12] = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            -f32::MAX,
            1.5e38,
            -3.0e36,
        ];

        /// A `rows × cols` matrix: `special_pct`% corner cases, the rest
        /// normal draws spread over 2^±20 so the summation order shows in
        /// the rounding.
        fn random_matrix(rng: &mut SeededRng, rows: usize, cols: usize, special_pct: usize) -> Matrix {
            Matrix::from_fn(rows, cols, |_, _| {
                if rng.index(100) < special_pct {
                    SPECIALS[rng.index(SPECIALS.len())]
                } else {
                    (rng.standard_normal() * 2f64.powi(rng.index(41) as i32 - 20)) as f32
                }
            })
        }

        /// Makes the last output element an all-(-0.0) sum: the last left
        /// row becomes +0.0 and the last column of `B` (`b`, or `bᵀ` when
        /// `transposed`) negative, so every product is `+0.0 × -x = -0.0`.
        fn pin_negative_zero_products(a: &mut Matrix, b: &mut Matrix, transposed: bool) {
            if let Some(last) = a.rows.checked_sub(1) {
                a.row_mut(last).fill(0.0);
            }
            if transposed {
                if let Some(last) = b.rows.checked_sub(1) {
                    b.row_mut(last).fill(-1.5);
                }
            } else if let Some(last) = b.cols.checked_sub(1) {
                for r in 0..b.rows {
                    b[(r, last)] = -1.5;
                }
            }
        }

        fn describe(got: &Matrix, want: &Matrix) -> String {
            match first_mismatch(got, want) {
                Some(i) => format!(
                    "element ({}, {}): kernel {:?} ({:#010x}), oracle {:?} ({:#010x})",
                    i / got.cols,
                    i % got.cols,
                    got.data[i],
                    got.data[i].to_bits(),
                    want.data[i],
                    want.data[i].to_bits()
                ),
                None => format!("shape {}x{} vs {}x{}", got.rows, got.cols, want.rows, want.cols),
            }
        }

        props! {
            config: Config::with_cases(192);

            // `matmul` equals the `acc = 0.0` column loop bit for bit.
            fn matmul_matches_scalar_oracle_bitwise(
                m in ints(0, SHAPES.len()),
                k in ints(0, SHAPES.len()),
                n in ints(0, SHAPES.len()),
                special_pct in ints(0, 41),
                zero_sum in bools(),
                seed in ints_u64(0, u64::MAX),
            ) {
                let (m, k, n) = (SHAPES[m], SHAPES[k], SHAPES[n]);
                let mut rng = SeededRng::new(seed);
                let mut a = random_matrix(&mut rng, m, k, special_pct);
                let mut b = random_matrix(&mut rng, k, n, special_pct);
                if zero_sum {
                    pin_negative_zero_products(&mut a, &mut b, false);
                }
                let (got, want) = (a.matmul(&b), oracle_matmul(&a, &b));
                prop_assert!(same_bits(&got, &want), "{m}x{k} · {k}x{n}: {}", describe(&got, &want));
            }

            // `matmul_transpose_b` equals `ops::dot` per element bit for bit.
            fn matmul_transpose_b_matches_dot_oracle_bitwise(
                m in ints(0, SHAPES.len()),
                k in ints(0, SHAPES.len()),
                n in ints(0, SHAPES.len()),
                special_pct in ints(0, 41),
                zero_sum in bools(),
                seed in ints_u64(0, u64::MAX),
            ) {
                let (m, k, n) = (SHAPES[m], SHAPES[k], SHAPES[n]);
                let mut rng = SeededRng::new(seed);
                let mut a = random_matrix(&mut rng, m, k, special_pct);
                let mut b = random_matrix(&mut rng, n, k, special_pct);
                if zero_sum {
                    pin_negative_zero_products(&mut a, &mut b, true);
                }
                let (got, want) = (a.matmul_transpose_b(&b), oracle_matmul_transpose_b(&a, &b));
                let shape = format!("{m}x{k} · ({n}x{k})ᵀ");
                prop_assert!(same_bits(&got, &want), "{shape}: {}", describe(&got, &want));
            }
        }

        #[test]
        fn sign_of_zero_is_pinned_per_entry_point() {
            // An all-(-0.0) sum: `matmul_transpose_b` starts at -0.0 like
            // `Iterator::sum`, `matmul` at +0.0 like its scalar loop.
            let a = Matrix::from_rows(&[&[0.0, 0.0]]);
            let b = Matrix::from_rows(&[&[-1.0, -2.0]]);
            assert_eq!(a.matmul_transpose_b(&b)[(0, 0)].to_bits(), (-0.0f32).to_bits());
            assert_eq!(a.matmul(&b.transpose())[(0, 0)].to_bits(), 0.0f32.to_bits());
            // An empty sum (k = 0) is the start value itself.
            let qk = Matrix::zeros(MR + 1, 0).matmul_transpose_b(&Matrix::zeros(NR + 1, 0));
            assert!(qk.as_slice().iter().all(|x| x.to_bits() == (-0.0f32).to_bits()));
            let pv = Matrix::zeros(MR + 1, 0).matmul(&Matrix::zeros(0, NR + 1));
            assert!(pv.as_slice().iter().all(|x| x.to_bits() == 0.0f32.to_bits()));
            assert_eq!((pv.rows(), pv.cols()), (MR + 1, NR + 1));
        }
    }
}
