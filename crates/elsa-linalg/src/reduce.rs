//! Ordered float reductions — the one blessed accumulation order.
//!
//! Floating-point addition does not commute under rounding, so the *order*
//! of a reduction is part of the result. The workspace contract (bit-
//! identical outputs at any `ELSA_THREADS`, node count, or session replay)
//! therefore requires every float reduction to run in one pinned order:
//! left-to-right over the source iterator, exactly like `Iterator::sum`'s
//! sequential fold. These helpers *are* that order, written down once.
//!
//! The `elsa-lint` F1 rule (`reduction-order`) bans ad-hoc `.sum()`,
//! accumulating `.fold(...)`, and `+=`-in-loop float reductions in
//! deterministic crates, pointing here instead. Centralizing the order
//! means a future change (pairwise/Kahan summation, a parallel tree with a
//! fixed shape) happens in one reviewed place and every accounting surface
//! moves together — instead of 30 call sites drifting one by one.
//!
//! Replacing `xs.iter().map(f).sum::<f64>()` with
//! `sum_f64(xs.iter().map(f))` keeps the order — both are a sequential left
//! fold — but not the start value: the helpers fold from `+0.0`, while
//! `Iterator::sum` for floats folds from `-0.0`. The two agree bit for bit
//! except on an empty or all-`-0.0` input, which sums to `+0.0` here and to
//! `-0.0` there.

/// Sums `f64` values in iterator order: a sequential left fold from `+0.0`.
///
/// Bit-identical to `Iterator::sum::<f64>()` over the same iterator, except
/// that an empty or all-`-0.0` input sums to `+0.0` here and to `-0.0` there.
#[must_use]
pub fn sum_f64<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    values.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Sums `f32` values in iterator order: a sequential left fold from `+0.0`.
///
/// Bit-identical to `Iterator::sum::<f32>()` over the same iterator, except
/// that an empty or all-`-0.0` input sums to `+0.0` here and to `-0.0` there.
#[must_use]
pub fn sum_f32<I: IntoIterator<Item = f32>>(values: I) -> f32 {
    values.into_iter().fold(0.0, |acc, x| acc + x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_iterator_sum_bitwise() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.1 + 1.0 / (i as f64 + 1.0)).collect();
        let expected: f64 = xs.iter().copied().sum();
        assert_eq!(sum_f64(xs.iter().copied()).to_bits(), expected.to_bits());

        let ys: Vec<f32> = (0..1000).map(|i| (i as f32) * 0.3 - 7.25).collect();
        let expected32: f32 = ys.iter().copied().sum();
        assert_eq!(sum_f32(ys.iter().copied()).to_bits(), expected32.to_bits());

        // The one difference: the start value. `Iterator::sum` folds from
        // -0.0, the helpers from +0.0, which shows only when every term is
        // -0.0 (or there is none).
        for zeros in [&[][..], &[-0.0, -0.0][..]] {
            let iter_sum: f64 = zeros.iter().copied().sum();
            assert_eq!(iter_sum.to_bits(), (-0.0f64).to_bits());
            assert_eq!(sum_f64(zeros.iter().copied()).to_bits(), 0.0f64.to_bits());
            let iter_sum32: f32 = zeros.iter().map(|&z| z as f32).sum();
            assert_eq!(iter_sum32.to_bits(), (-0.0f32).to_bits());
            assert_eq!(sum_f32(zeros.iter().map(|&z| z as f32)).to_bits(), 0.0f32.to_bits());
        }
        // A single +0.0 term makes both +0.0.
        let mixed = [-0.0, 0.0, -0.0];
        let iter_mixed: f64 = mixed.iter().copied().sum();
        assert_eq!(iter_mixed.to_bits(), sum_f64(mixed.iter().copied()).to_bits());
    }

    #[test]
    fn sum_is_order_sensitive_which_is_the_point() {
        // The helper pins *an* order; reversing the input may change the
        // rounding, which is exactly why call sites must not pick their own.
        let xs = [1.0e16, 1.0, -1.0e16, 1.0];
        let forward = sum_f64(xs.iter().copied());
        let backward = sum_f64(xs.iter().rev().copied());
        assert_ne!(forward.to_bits(), backward.to_bits());
    }
}
