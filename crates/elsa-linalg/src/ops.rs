//! Vector kernels used by the attention pipeline.
//!
//! All reductions accumulate in `f64`, in a pinned order (index order, one
//! sequential sum), and are precise enough to serve as the "exact" reference
//! against which the approximation and the quantized datapath are judged.
//! The `f64` accumulator does not make a sum independent of its order — a
//! refactoring that reorders one changes its rounding — so the order itself
//! is part of each kernel's contract.

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
/// the whole output into NaN.
///
/// # Examples
///
/// ```
/// let p = elsa_linalg::ops::softmax(&[0.0, 0.0]);
/// assert_eq!(p, vec![0.5, 0.5]);
/// let masked = elsa_linalg::ops::softmax(&[f32::NEG_INFINITY; 4]);
/// assert_eq!(masked, vec![0.25; 4]);
/// ```
#[must_use]
pub fn softmax(scores: &[f32]) -> Vec<f32> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return vec![1.0 / scores.len() as f32; scores.len()];
    }
    let exps: Vec<f64> = scores.iter().map(|&s| f64::from(s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| (e / sum) as f32).collect()
}

/// In-place softmax over a mutable slice (used by row-wise normalization in
/// hot loops to avoid an allocation per row). Same semantics as [`softmax`],
/// including the uniform output for an all-`-∞` row.
pub fn softmax_in_place(scores: &mut [f32]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        scores.fill(1.0 / scores.len() as f32);
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
}
