//! Sign random projection (SRP) binary hashing (§III-B, §III-C).
//!
//! A `k`-bit hash of a vector `x` is `sign(Ax)` bit-by-bit, where the rows of
//! `A` are orthogonal unit vectors. The Hamming distance between two hashes
//! is an unbiased estimator of the angular distance between the original
//! vectors (Charikar, STOC 2002): `θ ≈ π/k · hamming`.
//!
//! Two projection backends are provided:
//!
//! * [`SrpHasher::dense`] — an explicit `k × d` orthogonal matrix
//!   (Gram–Schmidt on Gaussian draws), costing `k·d` multiplies per hash;
//! * [`SrpHasher::kronecker`] — the paper's structured transform
//!   (§III-C), costing `m·d^{1+1/m}` multiplies (768 for the hardware's
//!   three-way `d = k = 64` configuration).
//!
//! Both are orthogonal, so their statistical quality is identical; the
//! Kronecker form exists purely to cut the hash-computation cost, and the
//! test-suite checks the two agree in estimator quality.
//!
//! # How rows are hashed
//!
//! Preprocessing hashes every key and query of an invocation, so many rows
//! are hashed at once; a decode step hashes one. Both go through the same
//! arithmetic, and a row's signature has the same bits either way:
//!
//! * **Kronecker** — `elsa_linalg::KroneckerFactors::apply_each`, the block
//!   kernel that contracts each mode for a block of rows at once (one `f64`
//!   chain per output element over the factor row in order, started at
//!   `+0.0`, rounded to `f32` per mode). Many rows fan out over workers in
//!   kernel-sized blocks; one row is the kernel's one-row case.
//! * **Dense** — many rows are the one product `X·Mᵀ`
//!   (`Matrix::matmul_transpose_b`, which fans out under its own gate);
//!   one row is `ops::dot` against each projection row. Both are one `f64`
//!   sum per element, in `d` order, started at `−0.0`, so they agree bit for
//!   bit.
//!
//! The signs are packed straight from the projected values, and a one-row
//! hash allocates nothing but its result. The root suite
//! `tests/hash_oracle.rs` pins both paths at 0 ulp against the per-mode and
//! per-dot loops they replaced.

use elsa_linalg::kronecker::{KroneckerFactors, BLOCK_ROWS};
use elsa_linalg::{ops, orthogonal, Matrix, SeededRng};

/// A packed `k`-bit binary embedding.
///
/// # Examples
///
/// ```
/// use elsa_core::BinaryHash;
/// let a = BinaryHash::from_bits(&[true, false, true, true]);
/// let b = BinaryHash::from_bits(&[true, true, true, false]);
/// assert_eq!(a.hamming(&b), 2);
/// assert_eq!(a.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryHash {
    words: Vec<u64>,
    len: usize,
}

impl BinaryHash {
    /// Builds a hash from explicit bits.
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Self { words, len: bits.len() }
    }

    /// Builds the hash from the signs of a projected vector
    /// (`bit = 1 ⇔ value ≥ 0`, matching the paper's `sign` convention).
    #[must_use]
    pub fn from_signs(projected: &[f32]) -> Self {
        let mut words = vec![0u64; projected.len().div_ceil(64)];
        pack_signs(projected, &mut words);
        Self { words, len: projected.len() }
    }

    /// Number of bits `k`.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// True if the hash has zero bits (never produced by a hasher).
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` as a bool.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance — the XOR-and-popcount the candidate selection
    /// module computes in one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the hashes have different lengths.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hash length mismatch");
        hamming_words(&self.words, &other.words)
    }

    /// Hamming distance to a signature given as raw packed words (one key's
    /// slice of [`crate::attention::PreprocessedKeys::signatures`]).
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly as long as [`as_words`](Self::as_words).
    #[must_use]
    pub fn hamming_words(&self, words: &[u64]) -> usize {
        assert_eq!(self.words.len(), words.len(), "hash length mismatch");
        hamming_words(&self.words, words)
    }

    /// The raw packed words (low bit = bit 0).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// Sets bit `i` of `words` (low bit = bit 0) exactly when
/// `projected[i] >= 0.0`, and clears every other bit.
fn pack_signs(projected: &[f32], words: &mut [u64]) {
    words.fill(0);
    for (i, &v) in projected.iter().enumerate() {
        words[i / 64] |= u64::from(v >= 0.0) << (i % 64);
    }
}

/// XOR-and-popcount over two equally long packed signatures.
pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum::<usize>()
}

impl std::fmt::Display for BinaryHash {
    /// Bits rendered LSB-first as `0`/`1` (e.g. `1011` for bits 0,2,3 set).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.bit(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl std::fmt::Binary for BinaryHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::LowerHex for BinaryHash {
    /// Packed words rendered low-word-first.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.words {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

/// Converts a Hamming distance into the SRP angle estimate `π/k · h`
/// (no bias correction; see [`crate::calibration`]).
#[must_use]
pub fn estimate_angle(hamming: usize, k: usize) -> f64 {
    std::f64::consts::PI * hamming as f64 / k as f64
}

/// Fan-out work of one Kronecker projection multiply in the block kernel,
/// in `elsa_parallel::MIN_PARALLEL_WORK` units.
const KRONECKER_WORK_PER_MULTIPLY: usize = 3;

/// The projection backend of a [`SrpHasher`].
#[derive(Debug, Clone)]
enum Projection {
    Dense(Matrix),
    Kronecker(KroneckerFactors),
}

/// A sign-random-projection hasher with orthogonal projections.
///
/// # Examples
///
/// ```
/// use elsa_core::SrpHasher;
/// use elsa_linalg::SeededRng;
///
/// let mut rng = SeededRng::new(3);
/// let hasher = SrpHasher::kronecker_three_way(64, &mut rng);
/// let h = hasher.hash(&vec![1.0f32; 64]);
/// assert_eq!(h.len(), 64);
/// assert_eq!(hasher.multiplication_count(), 768); // 3·64^(4/3)
/// ```
#[derive(Debug, Clone)]
pub struct SrpHasher {
    projection: Projection,
    k: usize,
    d: usize,
}

impl SrpHasher {
    /// A dense `k × d` orthogonal projection (batched Gram–Schmidt when
    /// `k > d`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `d == 0`.
    #[must_use]
    pub fn dense(k: usize, d: usize, rng: &mut SeededRng) -> Self {
        let m = orthogonal::random_orthogonal_projections(k, d, rng);
        Self { projection: Projection::Dense(m), k, d }
    }

    /// A dense projection whose rows are **independent Gaussian** directions
    /// (plain SRP, *not* orthogonalized) — kept as an ablation baseline for
    /// the §III-B claim that orthogonal projections estimate better.
    #[must_use]
    pub fn dense_gaussian(k: usize, d: usize, rng: &mut SeededRng) -> Self {
        let m = Matrix::from_fn(k, d, |_, _| rng.standard_normal() as f32);
        // Normalize rows to unit length (scale does not affect signs, but
        // keeps the matrix comparable in tests).
        let mut normalized = m;
        for r in 0..k {
            let n = elsa_linalg::ops::norm(normalized.row(r));
            if n > 0.0 {
                for v in normalized.row_mut(r) {
                    *v = (f64::from(*v) / n) as f32;
                }
            }
        }
        Self { projection: Projection::Dense(normalized), k, d }
    }

    /// The paper's two-way Kronecker projection (`√d × √d` factors,
    /// `2·d^{3/2}` multiplies; requires `d` to be a perfect square and
    /// `k = d`).
    #[must_use]
    pub fn kronecker_two_way(d: usize, rng: &mut SeededRng) -> Self {
        let t = KroneckerFactors::two_way_square(d, rng);
        Self { projection: Projection::Kronecker(t), k: d, d }
    }

    /// The hardware's three-way Kronecker projection (`d^{1/3}`-sized
    /// factors, `3·d^{4/3}` multiplies; requires `d` to be a perfect cube
    /// and `k = d`). For `d = 64`: three `4×4` factors, 768 multiplies.
    #[must_use]
    pub fn kronecker_three_way(d: usize, rng: &mut SeededRng) -> Self {
        let t = KroneckerFactors::three_way_square(d, rng);
        Self { projection: Projection::Kronecker(t), k: d, d }
    }

    /// A Kronecker projection from explicit factor shapes (supports `k ≠ d`).
    #[must_use]
    pub fn kronecker(shapes: &[(usize, usize)], rng: &mut SeededRng) -> Self {
        let t = KroneckerFactors::random_orthogonal(shapes, rng);
        let (k, d) = (t.output_dim(), t.input_dim());
        Self { projection: Projection::Kronecker(t), k, d }
    }

    /// Hash length `k`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Input dimension `d`.
    #[must_use]
    pub const fn dim(&self) -> usize {
        self.d
    }

    /// Scalar multiplications per hash (the quantity §III-C's efficient
    /// scheme minimizes; feeds the hardware cost model).
    #[must_use]
    pub fn multiplication_count(&self) -> usize {
        match &self.projection {
            Projection::Dense(m) => m.rows() * m.cols(),
            Projection::Kronecker(t) => t.multiplication_count(),
        }
    }

    /// The projected (pre-sign) vector — exposed for the quantized datapath
    /// in `elsa-sim`, which re-computes the projection in fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn project(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.d, "input dimension mismatch");
        match &self.projection {
            Projection::Dense(m) => m.iter_rows().map(|row| ops::dot(row, x) as f32).collect(),
            Projection::Kronecker(t) => t.apply(x),
        }
    }

    /// Packed `u64` words per signature: `⌈k / 64⌉`.
    #[must_use]
    pub(crate) const fn words(&self) -> usize {
        self.k.div_ceil(64)
    }

    /// Hashes one vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn hash(&self, x: &[f32]) -> BinaryHash {
        let mut words = vec![0; self.words()];
        self.hash_into(x, &mut words);
        BinaryHash { words, len: self.k }
    }

    /// Hashes one vector into `words` in place, allocating nothing:
    /// afterwards `words` equals `self.hash(x).as_words()`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `words.len() != self.words()`.
    pub(crate) fn hash_into(&self, x: &[f32], words: &mut [u64]) {
        assert_eq!(x.len(), self.d, "input dimension mismatch");
        assert_eq!(words.len(), self.words(), "signature word count mismatch");
        match &self.projection {
            Projection::Dense(m) => {
                words.fill(0);
                for (i, row) in m.iter_rows().enumerate() {
                    words[i / 64] |= u64::from(ops::dot(row, x) as f32 >= 0.0) << (i % 64);
                }
            }
            Projection::Kronecker(t) => t.apply_each(x, |_, y| pack_signs(y, words)),
        }
    }

    /// Hashes every row of a matrix (all keys, or all queries), one
    /// [`BinaryHash`] per row, bit-identical to [`hash`](Self::hash) on each
    /// row at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `m.cols() != self.dim()`.
    #[must_use]
    pub fn hash_rows(&self, m: &Matrix) -> Vec<BinaryHash> {
        self.hash_rows_flat(m)
            .chunks_exact(self.words())
            .map(|words| BinaryHash { words: words.to_vec(), len: self.k })
            .collect()
    }

    /// Hashes every row of a matrix into one flat store: row `r`'s signature
    /// is the `words()` packed words at `r · words()`, equal to
    /// [`hash_into`](Self::hash_into) on row `r`.
    ///
    /// A dense projection is one product `X·Mᵀ`, which fans out under the
    /// product's own gate. A Kronecker projection runs the block kernel over
    /// all rows; when the total projection cost is large enough, blocks of
    /// [`BLOCK_ROWS`] rows fan out across workers, each into its own slots.
    /// Either way the output is bit-identical to the serial loop at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `m.cols() != self.dim()`.
    #[must_use]
    pub(crate) fn hash_rows_flat(&self, m: &Matrix) -> Vec<u64> {
        assert_eq!(m.cols(), self.d, "input dimension mismatch");
        let w = self.words();
        let mut flat = vec![0; m.rows() * w];
        match &self.projection {
            Projection::Dense(p) => {
                let projected = m.matmul_transpose_b(p);
                for (y, words) in projected.iter_rows().zip(flat.chunks_exact_mut(w)) {
                    pack_signs(y, words);
                }
            }
            Projection::Kronecker(t) => {
                // Fills the signatures of the rows from `block · BLOCK_ROWS` on.
                let fill = |block: usize, words: &mut [u64]| {
                    let first = block * BLOCK_ROWS * self.d;
                    let rows = &m.as_slice()[first..][..words.len() / w * self.d];
                    t.apply_each(rows, |r, y| pack_signs(y, &mut words[r * w..][..w]));
                };
                let work = m
                    .rows()
                    .saturating_mul(t.multiplication_count())
                    .saturating_mul(KRONECKER_WORK_PER_MULTIPLY);
                if elsa_parallel::beneficial(work) {
                    elsa_parallel::par_chunks_mut(&mut flat, BLOCK_ROWS * w, fill);
                } else {
                    fill(0, &mut flat);
                }
            }
        }
        flat
    }

    /// The dense `k × d` projection matrix (materialized for Kronecker
    /// backends) — used by the quantized hardware datapath and by tests.
    #[must_use]
    pub fn dense_projection(&self) -> Matrix {
        match &self.projection {
            Projection::Dense(m) => m.clone(),
            Projection::Kronecker(t) => t.dense(),
        }
    }

    /// The Kronecker factors, if this hasher uses the structured transform.
    #[must_use]
    pub fn kronecker_factors(&self) -> Option<&KroneckerFactors> {
        match &self.projection {
            Projection::Dense(_) => None,
            Projection::Kronecker(t) => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_linalg::ops;

    #[test]
    fn hash_identical_vectors_distance_zero() {
        let mut rng = SeededRng::new(1);
        let hasher = SrpHasher::dense(64, 64, &mut rng);
        let x = rng.normal_vec(64);
        assert_eq!(hasher.hash(&x).hamming(&hasher.hash(&x)), 0);
    }

    #[test]
    fn hash_opposite_vectors_distance_k() {
        let mut rng = SeededRng::new(2);
        let hasher = SrpHasher::dense(64, 64, &mut rng);
        let x = rng.normal_vec(64);
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        let h = hasher.hash(&x).hamming(&hasher.hash(&neg));
        // Every projection flips sign except exact zeros (measure zero).
        assert!(h >= 62, "hamming {h}");
    }

    #[test]
    fn hamming_estimates_angle_unbiased() {
        // Average over many pairs: the estimator should track the true angle.
        let mut rng = SeededRng::new(3);
        let d = 64;
        let trials = 200;
        let mut err_sum = 0.0;
        for t in 0..trials {
            let hasher = SrpHasher::dense(64, d, &mut rng.fork(t));
            let a = rng.normal_vec(d);
            let b = rng.normal_vec(d);
            let true_angle = ops::angle_between(&a, &b);
            let est = estimate_angle(hasher.hash(&a).hamming(&hasher.hash(&b)), 64);
            err_sum += est - true_angle;
        }
        let bias = err_sum / trials as f64;
        assert!(bias.abs() < 0.05, "estimator bias {bias}");
    }

    #[test]
    fn kronecker_hash_quality_matches_dense() {
        // Mean absolute angle-estimation error of the Kronecker-structured
        // orthogonal projection must be statistically indistinguishable from
        // the dense orthogonal projection.
        let mut rng = SeededRng::new(4);
        let d = 64;
        let trials = 150;
        let mut dense_err = 0.0;
        let mut kron_err = 0.0;
        for t in 0..trials {
            let mut fork = rng.fork(t);
            let dense = SrpHasher::dense(64, d, &mut fork);
            let kron = SrpHasher::kronecker_three_way(d, &mut fork);
            let a = rng.normal_vec(d);
            let b = rng.normal_vec(d);
            let truth = ops::angle_between(&a, &b);
            dense_err +=
                (estimate_angle(dense.hash(&a).hamming(&dense.hash(&b)), 64) - truth).abs();
            kron_err +=
                (estimate_angle(kron.hash(&a).hamming(&kron.hash(&b)), 64) - truth).abs();
        }
        dense_err /= trials as f64;
        kron_err /= trials as f64;
        assert!(
            (dense_err - kron_err).abs() < 0.05,
            "dense {dense_err} vs kronecker {kron_err}"
        );
    }

    #[test]
    fn orthogonal_beats_gaussian_variance() {
        // §III-B: orthogonal projections reduce estimator error vs plain SRP.
        let mut rng = SeededRng::new(5);
        let d = 64;
        let trials = 400;
        let mut ortho_sq = 0.0;
        let mut gauss_sq = 0.0;
        for t in 0..trials {
            let mut fork = rng.fork(t);
            let ortho = SrpHasher::dense(64, d, &mut fork);
            let gauss = SrpHasher::dense_gaussian(64, d, &mut fork);
            let a = rng.normal_vec(d);
            let b = rng.normal_vec(d);
            let truth = ops::angle_between(&a, &b);
            let eo = estimate_angle(ortho.hash(&a).hamming(&ortho.hash(&b)), 64) - truth;
            let eg = estimate_angle(gauss.hash(&a).hamming(&gauss.hash(&b)), 64) - truth;
            ortho_sq += eo * eo;
            gauss_sq += eg * eg;
        }
        assert!(
            ortho_sq < gauss_sq,
            "orthogonal MSE {ortho_sq} should beat gaussian MSE {gauss_sq}"
        );
    }

    #[test]
    fn kronecker_multiplication_counts() {
        let mut rng = SeededRng::new(6);
        assert_eq!(SrpHasher::kronecker_three_way(64, &mut rng).multiplication_count(), 768);
        assert_eq!(SrpHasher::kronecker_two_way(64, &mut rng).multiplication_count(), 1024);
        assert_eq!(SrpHasher::dense(64, 64, &mut rng).multiplication_count(), 4096);
    }

    #[test]
    fn hash_rows_matches_single_hash() {
        let mut rng = SeededRng::new(7);
        let hasher = SrpHasher::kronecker_two_way(16, &mut rng);
        let m = Matrix::from_fn(5, 16, |_, _| rng.standard_normal() as f32);
        let hashes = hasher.hash_rows(&m);
        for (r, h) in hashes.iter().enumerate() {
            assert_eq!(*h, hasher.hash(m.row(r)));
        }
    }

    #[test]
    fn k_not_equal_d_supported() {
        let mut rng = SeededRng::new(8);
        // k = 32 bits from d = 64 inputs via (4x8)⊗(8x8) factors.
        let hasher = SrpHasher::kronecker(&[(4, 8), (8, 8)], &mut rng);
        assert_eq!(hasher.k(), 32);
        assert_eq!(hasher.dim(), 64);
        let h = hasher.hash(&rng.normal_vec(64));
        assert_eq!(h.len(), 32);
    }

    #[test]
    fn binary_hash_bit_access_and_words() {
        let bits: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let h = BinaryHash::from_bits(&bits);
        assert_eq!(h.len(), 70);
        assert_eq!(h.as_words().len(), 2);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(h.bit(i), b);
        }
    }

    #[test]
    fn sign_convention_zero_is_positive() {
        let h = BinaryHash::from_signs(&[0.0, -0.0, 1.0, -1.0]);
        assert!(h.bit(0)); // 0.0 >= 0
        assert!(h.bit(1)); // -0.0 >= 0 in IEEE comparison
        assert!(h.bit(2));
        assert!(!h.bit(3));
    }

    #[test]
    fn formatting_impls() {
        let h = BinaryHash::from_bits(&[true, false, true, true]);
        assert_eq!(format!("{h}"), "1011");
        assert_eq!(format!("{h:b}"), "1011");
        let hex = format!("{h:x}");
        assert_eq!(hex.len(), 16);
        assert!(hex.starts_with("000000000000000d")); // bits 0,2,3 -> 0b1101 = 0xd
    }

    #[test]
    #[should_panic(expected = "hash length mismatch")]
    fn hamming_rejects_length_mismatch() {
        let a = BinaryHash::from_bits(&[true; 8]);
        let b = BinaryHash::from_bits(&[true; 16]);
        let _ = a.hamming(&b);
    }

    #[test]
    fn dense_projection_of_kronecker_matches_apply() {
        let mut rng = SeededRng::new(9);
        let hasher = SrpHasher::kronecker_three_way(64, &mut rng);
        let dense = hasher.dense_projection();
        let x = rng.normal_vec(64);
        let via_dense: Vec<f32> =
            (0..64).map(|r| ops::dot(dense.row(r), &x) as f32).collect();
        let via_fast = hasher.project(&x);
        for (a, b) in via_dense.iter().zip(&via_fast) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}
