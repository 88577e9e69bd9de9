//! Vector kernels used by the attention pipeline.
//!
//! All reductions accumulate in `f64`, in a pinned order (index order, one
//! sequential sum), and are precise enough to serve as the "exact" reference
//! against which the approximation and the quantized datapath are judged.
//! The `f64` accumulator does not make a sum independent of its order — a
//! refactoring that reorders one changes its rounding — so the order itself
//! is part of each kernel's contract.
//!
//! [`attend_candidates`], the candidate-row kernel that ELSA's batch path
//! and decode sessions share, pins its order as: per candidate, one k-order
//! `f64` dot chain started at `-0.0` (as [`dot`]) over the query widened to
//! `f64` once per call, with the chains of four consecutive candidates
//! interleaved; then the body of [`softmax`] on the scores; then, per output
//! column, one `f32` chain over the candidates in candidate order, started
//! at `+0.0`, computed for a block of columns at a time. That column chain
//! is exactly what a zeroed row followed by one [`axpy`] per candidate
//! computes for the column. The `candidate_oracle` tests below check the
//! kernel bit for bit against that `dot` → `softmax` → `axpy` body.

use std::cell::Cell;

use crate::Matrix;

thread_local! {
    /// [`attend_candidates`]'s buffers: the query widened to `f64`, the
    /// scores (then the weights), and the exps. A call takes them and puts
    /// them back, so a warm call allocates nothing and a nested call on the
    /// same thread simply starts from empty ones.
    static SCRATCH: Cell<(Vec<f64>, Vec<f32>, Vec<f64>)> =
        const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Dot product with `f64` accumulation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(elsa_linalg::ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum()
}

/// Euclidean (L2) norm.
///
/// # Examples
///
/// ```
/// assert_eq!(elsa_linalg::ops::norm(&[3.0, 4.0]), 5.0);
/// ```
#[must_use]
pub fn norm(v: &[f32]) -> f64 {
    dot(v, v).sqrt()
}

/// Numerically-stable softmax: `exp(x_i - max) / Σ exp(x_j - max)`.
///
/// Returns an empty vector for empty input. All-equal inputs produce the
/// uniform distribution — including an input that is entirely `-∞` (a fully
/// masked score row), where the limit form `-∞ - -∞` would otherwise turn
/// the whole output into NaN. For the same reason a row whose maximum is
/// `+∞` (a score that overflowed `f32`) takes its limit: the weight splits
/// evenly over the `+∞` entries and every other entry gets 0.
///
/// # Examples
///
/// ```
/// let p = elsa_linalg::ops::softmax(&[0.0, 0.0]);
/// assert_eq!(p, vec![0.5, 0.5]);
/// let masked = elsa_linalg::ops::softmax(&[f32::NEG_INFINITY; 4]);
/// assert_eq!(masked, vec![0.25; 4]);
/// let overflowed = elsa_linalg::ops::softmax(&[f32::INFINITY, 1.0, f32::INFINITY]);
/// assert_eq!(overflowed, vec![0.5, 0.0, 0.5]);
/// ```
#[must_use]
pub fn softmax(scores: &[f32]) -> Vec<f32> {
    let mut weights = scores.to_vec();
    softmax_into(&mut weights, &mut vec![0.0; scores.len()]);
    weights
}

/// The body of [`softmax`], which [`attend_candidates`] runs too: replaces
/// `scores` by their weights, with `exps` (as long as `scores`) holding the
/// `f64` exps.
fn softmax_into(scores: &mut [f32], exps: &mut [f64]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        infinite_max_weights(scores, max);
        return;
    }
    for (e, &s) in exps.iter_mut().zip(scores.iter()) {
        *e = f64::from(s - max).exp();
    }
    let sum: f64 = exps.iter().sum();
    for (s, &e) in scores.iter_mut().zip(exps.iter()) {
        *s = (e / sum) as f32;
    }
}

/// Softmax's limit on a row whose maximum `max` is infinite: an even split
/// over the maxima with 0 everywhere else, where every entry of a `-∞` row
/// (each `-∞` or NaN) counts as a maximum, so that row comes out uniform.
fn infinite_max_weights(scores: &mut [f32], max: f32) {
    let is_max = |s: f32| max < 0.0 || s == max;
    let share = 1.0 / scores.iter().filter(|&&s| is_max(s)).count() as f32;
    for s in scores.iter_mut() {
        *s = if is_max(*s) { share } else { 0.0 };
    }
}

/// In-place softmax over a mutable slice (used by row-wise normalization in
/// hot loops to avoid an allocation per row). Same semantics as [`softmax`],
/// including the limits of a row whose maximum is `±∞`.
pub fn softmax_in_place(scores: &mut [f32]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        infinite_max_weights(scores, max);
        return;
    }
    let mut sum = 0.0f64;
    for s in scores.iter_mut() {
        let e = f64::from(*s - max).exp();
        *s = e as f32;
        sum += e;
    }
    let inv = (1.0 / sum) as f32;
    for s in scores.iter_mut() {
        *s *= inv;
    }
}

/// Index of the maximum element (first occurrence on ties); `None` on empty
/// input.
///
/// # Examples
///
/// ```
/// assert_eq!(elsa_linalg::ops::argmax(&[1.0, 5.0, 3.0]), Some(1));
/// assert_eq!(elsa_linalg::ops::argmax(&[]), None);
/// ```
#[must_use]
pub fn argmax(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if x <= b => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// `axpy`: `y += a * x`, elementwise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Candidates whose dot-product chains [`attend_candidates`] runs side by
/// side: enough independent chains to hide the latency of one `f64` add.
/// Six and eight lanes were slower on the 2-core reference host.
const LANES: usize = 4;

/// Output columns whose sums [`attend_candidates`] keeps in registers for
/// one walk over the candidate list.
const COLS: usize = 32;

/// One query's exact attention over a subset of key/value rows — the row the
/// ELSA attention computation module produces for the keys that survived
/// candidate selection. In pinned order:
///
/// 1. score `i` is `(dot(q, K[c_i]) · scale) as f32`, where each dot is one
///    k-order `f64` chain started at `-0.0`, exactly as [`dot`] computes it;
///    `q` is widened to `f64` once, which is exact, so every product is still
///    `f64::from(q_l) · K[c_i][l]`; the chains of four consecutive candidates
///    run interleaved, which changes when a product is added, never what it
///    is added to;
/// 2. the weights are [`softmax`] of the scores, computed in place by the
///    same body;
/// 3. output column `c` is one `f32` chain started at `+0.0` that adds
///    `w_i · V[c_i][c]` for each candidate in candidate order. The chains of
///    32 columns run together, their sums held in registers over the whole
///    candidate list; the columns past the last full block are zeroed and
///    take one [`axpy`] per candidate.
///
/// Step 3 is, column by column, the chain that zeroing `out` and then
/// running one [`axpy`] per candidate computes: `axpy` adds the same
/// `f32` product to the same running sum in the same order, and only
/// which columns share a pass differs. So the row is bit-identical to
/// `axpy`-accumulating `softmax` of `dot` scores. `keys` is the `n × d` key
/// matrix flattened row-major (`d = q.len()`), either as `f32` or widened to
/// `f64` once by the caller (the widening is exact). An empty candidate list
/// leaves `out` all zero. The buffers live in per-thread scratch, so a warm
/// call allocates nothing.
///
/// # Panics
///
/// Panics if `keys.len() != values.rows() · q.len()`, if
/// `out.len() != values.cols()`, or if a candidate index is not below
/// `values.rows()`.
pub fn attend_candidates<T: Copy + Into<f64>>(
    q: &[f32],
    keys: &[T],
    values: &Matrix,
    candidates: &[usize],
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(keys.len(), values.rows() * q.len(), "key/value row count mismatch");
    assert_eq!(out.len(), values.cols(), "output row length mismatch");
    let (mut wide, mut scores, mut exps) = SCRATCH.take();
    wide.clear();
    wide.extend(q.iter().map(|&x| f64::from(x)));
    let weights = grow(&mut scores, candidates.len());
    candidate_scores(&wide, keys, values.rows(), candidates, scale, weights);
    softmax_into(weights, grow(&mut exps, candidates.len()));
    weighted_sum(values, candidates, weights, out);
    SCRATCH.set((wide, scores, exps));
}

/// The first `len` values of a scratch buffer, grown (never shrunk) to hold
/// them.
pub(crate) fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Step 1 of [`attend_candidates`]: candidate `i`'s `f32` score into
/// `scores[i]`, for the query `q` already widened to `f64`.
fn candidate_scores<T: Copy + Into<f64>>(
    q: &[f64],
    keys: &[T],
    n: usize,
    candidates: &[usize],
    scale: f32,
    scores: &mut [f32],
) {
    let d = q.len();
    let row = |j: usize| {
        assert!(j < n, "candidate index {j} out of range ({n} keys)");
        &keys[j * d..][..d]
    };
    let scale = f64::from(scale);
    let mut lanes = candidates.chunks_exact(LANES);
    let mut slots = scores.chunks_exact_mut(LANES);
    for (c, s) in (&mut lanes).zip(&mut slots) {
        let dots = dot_lanes(q, std::array::from_fn::<_, LANES, _>(|l| row(c[l])));
        for (slot, dot) in s.iter_mut().zip(dots) {
            *slot = (dot * scale) as f32;
        }
    }
    for (&j, slot) in lanes.remainder().iter().zip(slots.into_remainder()) {
        let [dot] = dot_lanes(q, [row(j)]);
        *slot = (dot * scale) as f32;
    }
}

/// `L` dot products of `q` with `L` rows at once: each is one k-order `f64`
/// chain started at `-0.0` — [`dot`], bit for bit, since `q` holds the
/// widened query — and the `L` chains are independent, so their add
/// latencies overlap.
fn dot_lanes<T: Copy + Into<f64>, const L: usize>(q: &[f64], rows: [&[T]; L]) -> [f64; L] {
    let rows = rows.map(|r| &r[..q.len()]);
    let mut acc = [-0.0f64; L];
    for (i, &x) in q.iter().enumerate() {
        for (a, r) in acc.iter_mut().zip(&rows) {
            *a += x * r[i].into();
        }
    }
    acc
}

/// Step 3 of [`attend_candidates`]: `out[c]` is the `f32` chain
/// `+0.0 + w_0 · V[c_0][c] + w_1 · V[c_1][c] + …`, in candidate order. A
/// block of [`COLS`] columns is summed in registers over the whole list;
/// the remaining columns are zeroed and take one [`axpy`] per candidate.
fn weighted_sum(values: &Matrix, candidates: &[usize], weights: &[f32], out: &mut [f32]) {
    let mut blocks = out.chunks_exact_mut(COLS);
    let mut first = 0;
    for block in &mut blocks {
        let mut acc = [0.0f32; COLS];
        for (&j, &w) in candidates.iter().zip(weights) {
            let v = &values.row(j)[first..][..COLS];
            for (a, &x) in acc.iter_mut().zip(v) {
                *a += w * x;
            }
        }
        block.copy_from_slice(&acc);
        first += COLS;
    }
    let tail = blocks.into_remainder();
    // With `d_v` a multiple of `COLS`, the loop below would still walk
    // every candidate for nothing.
    if tail.is_empty() {
        return;
    }
    tail.fill(0.0);
    for (&j, &w) in candidates.iter().zip(weights) {
        axpy(w, &values.row(j)[first..], tail);
    }
}

/// The angle between two vectors in radians, in `[0, π]`.
///
/// Degenerate inputs (zero vectors) return `π/2` — the "uninformative" angle,
/// matching how a hash of a zero vector carries no angular information.
///
/// # Examples
///
/// ```
/// let theta = elsa_linalg::ops::angle_between(&[1.0, 0.0], &[0.0, 1.0]);
/// assert!((theta - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
/// ```
#[must_use]
pub fn angle_between(a: &[f32], b: &[f32]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0).acos()
}

/// Mean of a slice of `f64` values (0.0 for empty input).
#[must_use]
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `q`-th percentile (0 ≤ q ≤ 100) using linear interpolation between
/// order statistics; 0.0 for empty input.
///
/// Values are ordered by [`f64::total_cmp`], so a NaN input never panics:
/// positive NaNs sort above `+∞` and negative ones below `-∞`, and a
/// percentile that lands on or next to one is NaN.
///
/// # Examples
///
/// ```
/// let median = elsa_linalg::ops::percentile(&[1.0, 2.0, 3.0, 4.0], 50.0);
/// assert!((median - 2.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn dot_accumulates_in_f64() {
        // Alternating large/small values that would lose bits in f32.
        let a: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { 1e7 } else { -1e7 }).collect();
        let b = vec![1.0f32; 1000];
        assert_eq!(dot(&a, &b), 0.0);
    }

    #[test]
    fn norm_known() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let p = softmax(&[1.0, 3.0, 2.0, -5.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[1] > p[2] && p[2] > p[0] && p[0] > p[3]);
    }

    #[test]
    fn softmax_handles_large_scores() {
        let p = softmax(&[1000.0, 1000.0]);
        assert_eq!(p, vec![0.5, 0.5]);
        let p = softmax(&[-1000.0, 0.0]);
        assert!(p[1] > 0.999);
    }

    #[test]
    fn softmax_in_place_matches_softmax() {
        let scores = [0.3f32, -1.2, 4.4, 0.0, 2.2];
        let expected = softmax(&scores);
        let mut buf = scores;
        softmax_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
        let mut empty: [f32; 0] = [];
        softmax_in_place(&mut empty);
    }

    #[test]
    fn softmax_all_neg_infinity_is_uniform() {
        // A fully masked row must not collapse into NaNs (inf · 0 in the
        // normalization); the defined semantics is the uniform distribution.
        let p = softmax(&[f32::NEG_INFINITY; 5]);
        assert_eq!(p, vec![0.2; 5]);
        let mut buf = [f32::NEG_INFINITY; 5];
        softmax_in_place(&mut buf);
        assert_eq!(buf, [0.2; 5]);
    }

    #[test]
    fn softmax_pos_infinity_max_splits_over_the_infinities() {
        // A score that overflowed to +inf must not turn the row into NaNs
        // (inf - inf); the row's weight splits over its +inf entries.
        let cases: [(&[f32], &[f32]); 4] = [
            (&[f32::INFINITY, 1.0, f32::INFINITY], &[0.5, 0.0, 0.5]),
            (&[-3.0, f32::INFINITY, f32::NEG_INFINITY, 2.0], &[0.0, 1.0, 0.0, 0.0]),
            (&[f32::INFINITY; 4], &[0.25; 4]),
            (&[f32::INFINITY], &[1.0]),
        ];
        for (scores, expected) in cases {
            assert_eq!(softmax(scores), expected, "{scores:?}");
            let mut buf = scores.to_vec();
            softmax_in_place(&mut buf);
            assert_eq!(buf, expected, "{scores:?}");
        }
    }

    #[test]
    fn softmax_single_element() {
        assert_eq!(softmax(&[3.7]), vec![1.0]);
        assert_eq!(softmax(&[f32::NEG_INFINITY]), vec![1.0]);
        let mut one = [f32::NEG_INFINITY];
        softmax_in_place(&mut one);
        assert_eq!(one, [1.0]);
    }

    #[test]
    fn softmax_partial_neg_infinity_masks_entries() {
        // -inf entries get exactly zero mass; the rest renormalizes.
        let p = softmax(&[0.0, f32::NEG_INFINITY, 0.0]);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-6 && (p[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_ties_prefer_first() {
        assert_eq!(argmax(&[2.0, 2.0, 1.0]), Some(0));
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0f32, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn angle_between_known_values() {
        assert!(angle_between(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-6);
        let opposite = angle_between(&[1.0, 0.0], &[-1.0, 0.0]);
        assert!((opposite - std::f64::consts::PI).abs() < 1e-6);
        // Degenerate input.
        assert_eq!(angle_between(&[0.0, 0.0], &[1.0, 0.0]), std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert!((percentile(&v, 80.0) - 42.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_orders_nan_without_panicking() {
        // total_cmp puts a positive NaN above every number: the low
        // percentiles stay finite and the top one is NaN.
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!(percentile(&v, 100.0).is_nan());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    /// The candidate-row kernel against the row body it replaced, bit for
    /// bit: scores (sign of zero included) and output rows.
    mod candidate_oracle {
        use super::super::{attend_candidates, axpy, candidate_scores, dot, softmax, COLS, LANES};
        use crate::{Matrix, SeededRng};
        use elsa_testkit::prelude::*;

        /// Every head dimension the battery draws: empty, one, and both
        /// sides of one and two words of 64.
        const DIMS: [usize; 6] = [0, 1, 63, 64, 65, 128];
        /// Every value-row width the battery draws: empty, one, and both
        /// sides of one and two column blocks of the weighted sum.
        const VALUE_WIDTHS: [usize; 7] = [0, 1, COLS - 1, COLS, COLS + 1, 2 * COLS, 2 * COLS + 1];
        /// Score scales: the identity, `1/√64`, and one that is not a power
        /// of two.
        const SCALES: [f32; 3] = [1.0, 0.125, 0.3];
        /// Key rows the battery may plant: NaN, ±inf, and a huge finite row
        /// whose products overflow `f32` but not `f64`.
        const SPECIAL_ROWS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.0e38];
        /// The longest candidate list: every remainder of the interleave
        /// width, several times over.
        const MAX_CANDIDATES: usize = 17;

        /// The scores the pre-kernel row body computed.
        fn oracle_scores(q: &[f32], keys: &Matrix, cands: &[usize], scale: f32) -> Vec<f32> {
            cands.iter().map(|&j| (dot(q, keys.row(j)) * f64::from(scale)) as f32).collect()
        }

        /// The pre-kernel row body: `dot` scores, `softmax`, one `axpy` per
        /// candidate into a zero row.
        fn oracle_row(q: &[f32], keys: &Matrix, values: &Matrix, cands: &[usize], scale: f32) -> Vec<f32> {
            let mut out = vec![0.0f32; values.cols()];
            let weights = softmax(&oracle_scores(q, keys, cands, scale));
            for (&j, &w) in cands.iter().zip(&weights) {
                axpy(w, values.row(j), &mut out);
            }
            out
        }

        /// Same bits, except that NaNs compare by NaN-ness only: Rust leaves
        /// a NaN's sign and payload unspecified.
        fn same_bits(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        }

        /// [`candidate_scores`] for an `f32` query, widened as the kernel
        /// widens it.
        fn scores_of<T: Copy + Into<f64>>(q: &[f32], keys: &[T], n: usize, cands: &[usize], scale: f32) -> Vec<f32> {
            let wide: Vec<f64> = q.iter().map(|&x| f64::from(x)).collect();
            let mut scores = vec![0.0; cands.len()];
            candidate_scores(&wide, keys, n, cands, scale, &mut scores);
            scores
        }

        /// `n` key rows of dimension `d` and value rows of width `dv`, with
        /// the query: normal draws over 2^±8, `special_row` planted (a
        /// NaN/±inf/huge key row, when drawn), and — for `zero_sum` — a
        /// `+0.0` query against keys made negative, so every product is
        /// `-0.0` and every dot an all-`-0.0` sum, whose sign only the start
        /// value decides.
        fn inputs(
            rng: &mut SeededRng,
            n: usize,
            (d, dv): (usize, usize),
            special_row: Option<usize>,
            zero_sum: bool,
        ) -> (Vec<f32>, Matrix, Matrix) {
            let draw = |rng: &mut SeededRng| {
                (rng.standard_normal() * 2f64.powi(rng.index(17) as i32 - 8)) as f32
            };
            let mut q: Vec<f32> = (0..d).map(|_| draw(rng)).collect();
            let mut keys = Matrix::from_fn(n, d, |_, _| draw(rng));
            let values = Matrix::from_fn(n, dv, |_, _| draw(rng));
            if zero_sum {
                q.fill(0.0);
                for r in 0..n {
                    keys.row_mut(r).iter_mut().for_each(|x| *x = -x.abs() - 1.0);
                }
            }
            if let Some(s) = special_row {
                let row = rng.index(n);
                keys.row_mut(row).fill(SPECIAL_ROWS[s]);
            }
            (q, keys, values)
        }

        props! {
            config: Config::with_cases(256);

            // Scores and rows equal the pre-kernel body, for f32 keys and
            // for keys widened to f64, at every candidate count 0..=17 and
            // value widths on both sides of each column block.
            fn kernel_matches_row_body_bitwise(
                d in ints(0, DIMS.len()),
                dv in ints(0, VALUE_WIDTHS.len()),
                len in ints(0, MAX_CANDIDATES + 1),
                scale in ints(0, SCALES.len()),
                special in ints(0, SPECIAL_ROWS.len() + 2),
                zero_sum in bools(),
                seed in ints_u64(0, u64::MAX),
            ) {
                let (d, dv, scale) = (DIMS[d], VALUE_WIDTHS[dv], SCALES[scale]);
                let mut rng = SeededRng::new(seed);
                let n = 1 + rng.index(24);
                let (q, keys, values) = inputs(&mut rng, n, (d, dv), (special < SPECIAL_ROWS.len()).then_some(special), zero_sum);
                // Repeats allowed: the kernel takes any in-range list.
                let cands: Vec<usize> = (0..len).map(|_| rng.index(n)).collect();
                let widened: Vec<f64> = keys.as_slice().iter().map(|&x| f64::from(x)).collect();
                let want_scores = oracle_scores(&q, &keys, &cands, scale);
                let want_row = oracle_row(&q, &keys, &values, &cands, scale);
                let scores = scores_of(&q, keys.as_slice(), n, &cands, scale);
                prop_assert!(same_bits(&scores, &want_scores), "f32 keys, d={d}, {len} candidates: scores {scores:?}, oracle {want_scores:?}");
                let scores = scores_of(&q, &widened, n, &cands, scale);
                prop_assert!(same_bits(&scores, &want_scores), "f64 keys, d={d}, {len} candidates: scores {scores:?}, oracle {want_scores:?}");
                // A dirty output row must not leak in.
                let mut row = vec![f32::NAN; values.cols()];
                attend_candidates(&q, keys.as_slice(), &values, &cands, scale, &mut row);
                prop_assert!(same_bits(&row, &want_row), "f32 keys, d={d}, dv={dv}, {len} candidates: row {row:?}, oracle {want_row:?}");
                row.fill(-0.0);
                attend_candidates(&q, &widened, &values, &cands, scale, &mut row);
                prop_assert!(same_bits(&row, &want_row), "f64 keys, d={d}, dv={dv}, {len} candidates: row {row:?}, oracle {want_row:?}");
            }
        }

        #[test]
        fn every_lane_starts_at_negative_zero() {
            // An all-(-0.0) dot in every lane position and in the remainder.
            let d = 3;
            let keys = Matrix::from_fn(LANES + 1, d, |_, _| -2.0);
            let cands: Vec<usize> = (0..=LANES).collect();
            let scores = scores_of(&[0.0; 3], keys.as_slice(), keys.rows(), &cands, 1.0);
            assert!(scores.iter().all(|s| s.to_bits() == (-0.0f32).to_bits()), "{scores:?}");
        }

        #[test]
        #[should_panic(expected = "candidate index 3 out of range (3 keys)")]
        fn rejects_out_of_range_candidates() {
            let m = Matrix::zeros(3, 2);
            attend_candidates(&[0.0; 2], m.as_slice(), &m, &[0, 3], 1.0, &mut [0.0; 2]);
        }
    }
}
