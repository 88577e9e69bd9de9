//! Structured orthogonal transforms via Kronecker products (§III-C).
//!
//! Computing a `k`-bit SRP hash of a `d`-dimensional vector naively costs
//! `k·d` multiplications per vector. ELSA instead uses an orthogonal matrix
//! that is the Kronecker product of `m` small orthogonal factors; applying it
//! mode-by-mode costs only `m·d^{1+1/m}` multiplications:
//!
//! * `m = 2`, `d = k = 64`: two `8×8` factors, `2·64^{3/2} = 1024` multiplies
//!   (vs 4096 dense);
//! * `m = 3`, `d = k = 64`: three `4×4` factors, `3·64^{4/3} = 768` multiplies
//!   — the configuration the hash computation module implements in hardware.
//!
//! The implementation here is fully general: any number of factors, square or
//! not (`k ≠ d` works, per Zhang et al., *Fast Orthogonal Projection based on
//! Kronecker Product*, ICCV 2015), with an exact multiplication counter that
//! the hardware cost model consumes.
//!
//! # The block kernel
//!
//! [`KroneckerFactors::apply_each`] transforms many rows with one kernel. It
//! contracts the modes in factor order, each for a block of
//! [`BLOCK_ROWS`] rows at once, stored rows innermost so that one factor
//! weight multiplies a whole block; the rows past the last full block go
//! through the same kernel one at a time, and [`KroneckerFactors::apply`]
//! is that one-row case. The order of every output element's arithmetic is
//! pinned: one `f64` chain over the factor row's `j` in order, started at
//! `+0.0`, each `f32 × f32` product exact in `f64`, rounded once to `f32`
//! per mode. The blocking decides which rows are computed together, never
//! how one element is computed, so a row's image has the same bits in a
//! block, alone, and at any block position. Intermediates live in per-thread
//! scratch buffers, so a warm call allocates nothing.

use std::cell::Cell;

use crate::matrix::Matrix;
use crate::ops::grow;
use crate::orthogonal;
use crate::rng::SeededRng;

/// Rows the block kernel carries through each mode together, one per lane.
pub const BLOCK_ROWS: usize = 8;

thread_local! {
    /// The block kernel's two intermediate buffers. A call takes them and
    /// puts them back, so a warm call allocates nothing and a nested call
    /// on the same thread simply starts from empty ones.
    static SCRATCH: Cell<(Vec<f32>, Vec<f32>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// A linear map represented as the Kronecker product of small factors,
/// `A = A₁ ⊗ A₂ ⊗ … ⊗ A_m`, applied via efficient mode-wise contraction.
///
/// # Examples
///
/// ```
/// use elsa_linalg::{KroneckerFactors, Matrix};
///
/// let a1 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let a2 = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// let t = KroneckerFactors::new(vec![a1, a2]);
/// // (I ⊗ swap) x: swaps within each half.
/// assert_eq!(t.apply(&[1.0, 2.0, 3.0, 4.0]), vec![2.0, 1.0, 4.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KroneckerFactors {
    factors: Vec<Matrix>,
}

impl KroneckerFactors {
    /// Wraps an ordered list of factors.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty or any factor has a zero dimension.
    #[must_use]
    pub fn new(factors: Vec<Matrix>) -> Self {
        assert!(!factors.is_empty(), "at least one Kronecker factor required");
        for (i, f) in factors.iter().enumerate() {
            assert!(f.rows() > 0 && f.cols() > 0, "factor {i} has a zero dimension");
        }
        Self { factors }
    }

    /// Random orthogonal transform from explicit factor shapes
    /// `[(k₁,d₁), (k₂,d₂), …]`; the composite maps `∏dᵢ → ∏kᵢ` dimensions.
    /// Each factor has orthonormal rows (requires `kᵢ ≤ dᵢ`).
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty or some `kᵢ > dᵢ`.
    #[must_use]
    pub fn random_orthogonal(shapes: &[(usize, usize)], rng: &mut SeededRng) -> Self {
        assert!(!shapes.is_empty(), "at least one factor shape required");
        let factors = shapes
            .iter()
            .map(|&(k, d)| {
                assert!(k <= d, "orthonormal rows require k <= d per factor (got {k}x{d})");
                if k == d {
                    orthogonal::random_orthogonal_square(d, rng)
                } else {
                    orthogonal::random_orthogonal_projections(k, d, rng)
                }
            })
            .collect();
        Self { factors }
    }

    /// The paper's 2-way square construction: `√d × √d` factors.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not a perfect square.
    #[must_use]
    pub fn two_way_square(d: usize, rng: &mut SeededRng) -> Self {
        let s = integer_root(d, 2).unwrap_or_else(|| panic!("{d} is not a perfect square"));
        Self::random_orthogonal(&[(s, s), (s, s)], rng)
    }

    /// The paper's 3-way square construction (`d^{1/3}`-sized factors) — the
    /// hardware configuration for `d = 64` uses three `4×4` factors.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not a perfect cube.
    #[must_use]
    pub fn three_way_square(d: usize, rng: &mut SeededRng) -> Self {
        let s = integer_root(d, 3).unwrap_or_else(|| panic!("{d} is not a perfect cube"));
        Self::random_orthogonal(&[(s, s), (s, s), (s, s)], rng)
    }

    /// Borrow of the ordered factors.
    #[must_use]
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Input dimension `∏ cols(Aᵢ)`.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.factors.iter().map(Matrix::cols).product()
    }

    /// Output dimension `∏ rows(Aᵢ)`.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.factors.iter().map(Matrix::rows).product()
    }

    /// Exact number of scalar multiplications one [`KroneckerFactors::apply`]
    /// performs — the quantity the paper's hash-cost formulas
    /// (`2d^{3/2}`, `3d^{4/3}`) describe.
    #[must_use]
    pub fn multiplication_count(&self) -> usize {
        // Contract modes left to right: before contracting mode i, modes
        // 0..i already have output sizes, modes i.. still input sizes.
        let mut total = 0usize;
        for i in 0..self.factors.len() {
            let outer: usize = self.factors[..i].iter().map(Matrix::rows).product();
            let inner: usize = self.factors[i + 1..].iter().map(Matrix::cols).product();
            total += outer * inner * self.factors[i].rows() * self.factors[i].cols();
        }
        total
    }

    /// Applies the composite transform to a vector using mode-wise
    /// contraction (`multiplication_count()` scalar multiplies): the
    /// one-row case of [`apply_each`](Self::apply_each).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    #[must_use]
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.input_dim(), "input length mismatch");
        let mut y = Vec::with_capacity(self.output_dim());
        self.apply_each(x, |_, image| y.extend_from_slice(image));
        y
    }

    /// Applies the transform to every row of `rows` (row-major,
    /// `input_dim()` values per row) and hands `f` each row's index and
    /// image (`output_dim()` values), in row order.
    ///
    /// Full blocks of [`BLOCK_ROWS`] rows run through the modes together;
    /// the remaining rows run one at a time. Either way each output element
    /// is the chain the module docs pin, so every image has the bits of
    /// [`apply`](Self::apply) on its row. The image is borrowed from scratch
    /// space that the next row reuses.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `input_dim()`.
    pub fn apply_each(&self, rows: &[f32], mut f: impl FnMut(usize, &[f32])) {
        let d = self.input_dim();
        assert_eq!(rows.len() % d, 0, "input length mismatch");
        let (mut a, mut b) = SCRATCH.take();
        let mut blocks = rows.chunks_exact(BLOCK_ROWS * d);
        let mut first = 0;
        for block in blocks.by_ref() {
            self.block::<BLOCK_ROWS>(block, &mut a, &mut b, |lane, image| f(first + lane, image));
            first += BLOCK_ROWS;
        }
        for row in blocks.remainder().chunks_exact(d) {
            self.block::<1>(row, &mut a, &mut b, |_, image| f(first, image));
            first += 1;
        }
        SCRATCH.set((a, b));
    }

    /// Runs `R` rows (`rows`, row-major) through every mode, with `a` and
    /// `b` as ping-pong scratch, and hands `f` each lane's image.
    fn block<const R: usize>(
        &self,
        rows: &[f32],
        a: &mut Vec<f32>,
        b: &mut Vec<f32>,
        mut f: impl FnMut(usize, &[f32]),
    ) {
        // Interleave the rows: element `e` of lane `l` sits at `e·R + l`.
        let d = rows.len() / R;
        let src = grow(a, d * R);
        for (l, row) in rows.chunks_exact(d).enumerate() {
            for (e, &x) in row.iter().enumerate() {
                src[e * R + l] = x;
            }
        }
        let mut len = d;
        for (mode, factor) in self.factors.iter().enumerate() {
            let outer: usize = self.factors[..mode].iter().map(Matrix::rows).product();
            let inner: usize = self.factors[mode + 1..].iter().map(Matrix::cols).product();
            let out_len = outer * factor.rows() * inner;
            contract_block::<R>(&a[..len * R], grow(b, out_len * R), factor, inner);
            std::mem::swap(a, b);
            len = out_len;
        }
        // De-interleave into row-major images.
        let images = grow(b, len * R);
        for (e, lanes) in a[..len * R].chunks_exact(R).enumerate() {
            for (l, &y) in lanes.iter().enumerate() {
                images[l * len + e] = y;
            }
        }
        for (l, image) in images.chunks_exact(len).enumerate() {
            f(l, image);
        }
    }

    /// Materializes the dense `output_dim × input_dim` matrix
    /// `A₁ ⊗ A₂ ⊗ … ⊗ A_m` (test/verification path; `O(k·d)` memory).
    #[must_use]
    pub fn dense(&self) -> Matrix {
        let mut acc = self.factors[0].clone();
        for f in &self.factors[1..] {
            acc = kron(&acc, f);
        }
        acc
    }
}

/// Dense Kronecker product of two matrices.
///
/// `kron(A, B)[i·p + r, j·q + s] = A[i,j] · B[r,s]` for `B` of shape `p × q`.
///
/// # Examples
///
/// ```
/// use elsa_linalg::{kronecker::kron, Matrix};
/// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
/// let k = kron(&a, &b);
/// assert_eq!((k.rows(), k.cols()), (2, 2));
/// assert_eq!(k[(0, 1)], 6.0);
/// ```
#[must_use]
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (p, q) = (b.rows(), b.cols());
    Matrix::from_fn(a.rows() * p, a.cols() * q, |r, c| {
        a[(r / p, c / q)] * b[(r % p, c % q)]
    })
}

/// Contracts one mode of `R` interleaved lanes: `src` holds the tensor
/// `outer × c × inner`, lanes innermost, and `dst` receives
/// `outer × r × inner` for the `r × c` `factor`. Each output element of each
/// lane is one `f64` chain over `j` in factor-row order, started at `+0.0`,
/// rounded once to `f32`; the lanes only share the factor weight.
fn contract_block<const R: usize>(src: &[f32], dst: &mut [f32], factor: &Matrix, inner: usize) {
    let (r, c) = (factor.rows(), factor.cols());
    for (src_o, dst_o) in src.chunks_exact(c * inner * R).zip(dst.chunks_exact_mut(r * inner * R)) {
        for (weights, dst_i) in factor.iter_rows().zip(dst_o.chunks_exact_mut(inner * R)) {
            for (ii, out) in dst_i.chunks_exact_mut(R).enumerate() {
                let mut acc = [0.0f64; R];
                for (j, &w) in weights.iter().enumerate() {
                    let w = f64::from(w);
                    let x = &src_o[(j * inner + ii) * R..][..R];
                    for (sum, &x) in acc.iter_mut().zip(x) {
                        *sum += w * f64::from(x);
                    }
                }
                for (y, sum) in out.iter_mut().zip(acc) {
                    *y = sum as f32;
                }
            }
        }
    }
}

/// Returns `s` such that `s^m == n`, if it exists.
fn integer_root(n: usize, m: u32) -> Option<usize> {
    let mut s = (n as f64).powf(1.0 / f64::from(m)).round() as usize;
    // Guard against floating point under/overshoot.
    while s.pow(m) > n {
        s -= 1;
    }
    while (s + 1).pow(m) <= n {
        s += 1;
    }
    (s.pow(m) == n).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn random_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.standard_normal() as f32)
    }

    #[test]
    fn kron_identity() {
        let i2 = Matrix::identity(2);
        let i3 = Matrix::identity(3);
        assert_eq!(kron(&i2, &i3), Matrix::identity(6));
    }

    #[test]
    fn kron_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let k = kron(&a, &b);
        assert_eq!((k.rows(), k.cols()), (8, 15));
    }

    #[test]
    fn apply_matches_dense_two_way() {
        let mut rng = SeededRng::new(31);
        let t = KroneckerFactors::new(vec![random_matrix(8, 8, &mut rng), random_matrix(8, 8, &mut rng)]);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let fast = t.apply(&x);
        let dense = t.dense();
        let slow = dense.matmul(&Matrix::from_vec(64, 1, x)).col(0);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_matches_dense_three_way() {
        let mut rng = SeededRng::new(32);
        let t = KroneckerFactors::new(vec![
            random_matrix(4, 4, &mut rng),
            random_matrix(4, 4, &mut rng),
            random_matrix(4, 4, &mut rng),
        ]);
        let x: Vec<f32> = (0..64).map(|i| ((i * i) % 17) as f32 - 8.0).collect();
        let fast = t.apply(&x);
        let slow = t.dense().matmul(&Matrix::from_vec(64, 1, x)).col(0);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_matches_dense_nonsquare_factors() {
        let mut rng = SeededRng::new(33);
        // k != d: (2x4) ⊗ (3x5): maps 20 -> 6.
        let t = KroneckerFactors::new(vec![random_matrix(2, 4, &mut rng), random_matrix(3, 5, &mut rng)]);
        assert_eq!(t.input_dim(), 20);
        assert_eq!(t.output_dim(), 6);
        let x: Vec<f32> = (0..20).map(|i| (i as f32).cos()).collect();
        let fast = t.apply(&x);
        let slow = t.dense().matmul(&Matrix::from_vec(20, 1, x)).col(0);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn multiplication_counts_match_paper() {
        let mut rng = SeededRng::new(34);
        let two = KroneckerFactors::two_way_square(64, &mut rng);
        assert_eq!(two.multiplication_count(), 1024); // 2 * 64^1.5
        let three = KroneckerFactors::three_way_square(64, &mut rng);
        assert_eq!(three.multiplication_count(), 768); // 3 * 64^(4/3)
        // Dense equivalent would be d^2 = 4096.
        let dense = KroneckerFactors::new(vec![random_matrix(64, 64, &mut rng)]);
        assert_eq!(dense.multiplication_count(), 4096);
    }

    #[test]
    fn kronecker_of_orthogonal_is_orthogonal() {
        let mut rng = SeededRng::new(35);
        let t = KroneckerFactors::three_way_square(64, &mut rng);
        let residual = orthogonal::orthogonality_residual(&t.dense());
        assert!(residual < 1e-4, "residual {residual}");
    }

    #[test]
    fn orthogonal_kronecker_preserves_norm() {
        let mut rng = SeededRng::new(36);
        let t = KroneckerFactors::two_way_square(64, &mut rng);
        let x = rng.normal_vec(64);
        let y = t.apply(&x);
        assert!((ops::norm(&y) - ops::norm(&x)).abs() < 1e-4);
    }

    #[test]
    fn integer_root_detection() {
        assert_eq!(integer_root(64, 2), Some(8));
        assert_eq!(integer_root(64, 3), Some(4));
        assert_eq!(integer_root(63, 2), None);
        assert_eq!(integer_root(1, 3), Some(1));
    }

    #[test]
    #[should_panic(expected = "not a perfect cube")]
    fn three_way_rejects_non_cube() {
        let _ = KroneckerFactors::three_way_square(100, &mut SeededRng::new(1));
    }
}
