//! Lookup-table-based special functional units (§IV-E, *Special Functional Units*).
//!
//! The ELSA accelerator avoids iterative math hardware entirely: the exponent,
//! reciprocal and square-root functions are each a small table plus at most
//! one multiply, and the `cos(π/k·h − θ_bias)` needed by candidate selection
//! is a fully precomputed `k+1`-entry table indexed by the Hamming distance.

use crate::cfloat::CustomFloat;

/// Number of entries in the exponent / reciprocal tables, fixed by the paper.
pub const LUT_ENTRIES: usize = 32;

/// The exponent unit: computes `e^x` as
/// `2^frac((log2 e)·x) · 2^floor((log2 e)·x)` using a 32-entry table of
/// fractional powers of two.
///
/// The table stores `2^((i + 0.5)/32)` — the midpoint of each segment — which
/// halves the worst-case relative error versus storing the left edge
/// (≈1.1% instead of ≈2.2%).
///
/// # Examples
///
/// ```
/// use elsa_numeric::ExpUnit;
/// let unit = ExpUnit::new();
/// let y = unit.exp(1.0).to_f64();
/// assert!(((y - std::f64::consts::E) / std::f64::consts::E).abs() < 0.03);
/// ```
#[derive(Debug, Clone)]
pub struct ExpUnit {
    table: [f64; LUT_ENTRIES],
}

impl ExpUnit {
    /// Builds the unit, populating the 32-entry fractional-power table.
    #[must_use]
    pub fn new() -> Self {
        let mut table = [0.0; LUT_ENTRIES];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = f64::powf(2.0, (i as f64 + 0.5) / LUT_ENTRIES as f64);
        }
        Self { table }
    }

    /// Computes `e^x` in the custom floating-point output format.
    ///
    /// The decomposition is exact in hardware: `(log2 e)·x` is split into its
    /// integer part (which becomes the exponent field directly) and its
    /// fractional part (which indexes the table to produce the mantissa).
    #[must_use]
    pub fn exp(&self, x: f64) -> CustomFloat {
        let y = std::f64::consts::LOG2_E * x;
        let floor = y.floor();
        let frac = y - floor;
        let idx = ((frac * LUT_ENTRIES as f64) as usize).min(LUT_ENTRIES - 1);
        let mantissa = self.table[idx];
        CustomFloat::from_f64(mantissa * f64::powi(2.0, floor as i32))
    }

    /// Worst-case relative error of the unit (half a table segment in log2
    /// space, plus the output format's rounding).
    #[must_use]
    pub fn worst_case_relative_error() -> f64 {
        let seg = f64::powf(2.0, 0.5 / LUT_ENTRIES as f64) - 1.0;
        seg + CustomFloat::epsilon()
    }
}

impl Default for ExpUnit {
    fn default() -> Self {
        Self::new()
    }
}

/// The reciprocal unit: a 32-entry lookup over the 5-bit mantissa of a
/// [`CustomFloat`], with the exponent negated.
///
/// # Examples
///
/// ```
/// use elsa_numeric::{CustomFloat, ReciprocalUnit};
/// let unit = ReciprocalUnit::new();
/// let r = unit.reciprocal(CustomFloat::from_f32(4.0)).to_f64();
/// assert!((r - 0.25).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ReciprocalUnit {
    table: [f64; LUT_ENTRIES],
}

impl ReciprocalUnit {
    /// Builds the unit; entry `f` holds `1 / (1 + (f + 0.5)/32)`, the
    /// reciprocal of the midpoint of mantissa segment `f`.
    #[must_use]
    pub fn new() -> Self {
        let mut table = [0.0; LUT_ENTRIES];
        for (f, slot) in table.iter_mut().enumerate() {
            *slot = 1.0 / (1.0 + (f as f64 + 0.5) / LUT_ENTRIES as f64);
        }
        Self { table }
    }

    /// Computes `1/x` for a nonzero custom float.
    ///
    /// Returns the format's maximum value when `x` is zero — a hardware
    /// reciprocal has no trap mechanism, and the pipeline only ever divides
    /// by a sum of exponentials which is strictly positive.
    #[must_use]
    pub fn reciprocal(&self, x: CustomFloat) -> CustomFloat {
        if x.is_zero() {
            return CustomFloat::max_value();
        }
        let mant_recip = self.table[x.fraction() as usize];
        let exp = f64::powi(2.0, -(i32::from(x.biased_exponent()) - 511));
        let mag = mant_recip * exp;
        CustomFloat::from_f64(if x.is_negative() { -mag } else { mag })
    }

    /// Convenience: reciprocal of an `f64` routed through the custom format,
    /// as the output-division module sees it.
    #[must_use]
    pub fn reciprocal_f64(&self, x: f64) -> f64 {
        self.reciprocal(CustomFloat::from_f64(x)).to_f64()
    }
}

impl Default for ReciprocalUnit {
    fn default() -> Self {
        Self::new()
    }
}

/// The square-root unit, implementing the *tabulate and multiply* scheme
/// (Takagi 1998; Istoan & Pasca 2015): one table lookup providing both the
/// square root at a segment midpoint and its derivative, followed by a single
/// multiply-add correction.
///
/// Used by the norm computation module to produce `‖K_y‖ = sqrt(K_y · K_y)`.
///
/// # Examples
///
/// ```
/// use elsa_numeric::SqrtUnit;
/// let unit = SqrtUnit::new();
/// assert!((unit.sqrt(2.0) - std::f64::consts::SQRT_2).abs() < 1e-3);
/// assert_eq!(unit.sqrt(0.0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SqrtUnit {
    /// Segment midpoint square roots over m ∈ [1, 4).
    root: [f64; LUT_ENTRIES],
    /// Segment derivative `1/(2·sqrt(midpoint))` for the multiply step.
    slope: [f64; LUT_ENTRIES],
}

impl SqrtUnit {
    /// Builds the tables over the normalized mantissa range `[1, 4)`
    /// (two octaves, so the exponent can always be made even).
    #[must_use]
    pub fn new() -> Self {
        let mut root = [0.0; LUT_ENTRIES];
        let mut slope = [0.0; LUT_ENTRIES];
        let seg = 3.0 / LUT_ENTRIES as f64;
        for i in 0..LUT_ENTRIES {
            let mid = 1.0 + (i as f64 + 0.5) * seg;
            root[i] = mid.sqrt();
            slope[i] = 0.5 / mid.sqrt();
        }
        Self { root, slope }
    }

    /// Computes `sqrt(x)` for `x ≥ 0`; negative inputs return zero (the norm
    /// datapath squares its input first, so negatives cannot occur).
    #[must_use]
    pub fn sqrt(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        // Normalize to m * 4^e with m in [1, 4).
        let mut e = (x.log2() / 2.0).floor() as i32;
        let mut m = x / f64::powi(4.0, e);
        if m >= 4.0 {
            m /= 4.0;
            e += 1;
        } else if m < 1.0 {
            m *= 4.0;
            e -= 1;
        }
        let seg = 3.0 / LUT_ENTRIES as f64;
        let idx = (((m - 1.0) / seg) as usize).min(LUT_ENTRIES - 1);
        let mid = 1.0 + (idx as f64 + 0.5) * seg;
        // Tabulate (root) and multiply (slope correction).
        let r = self.root[idx] + (m - mid) * self.slope[idx];
        r * f64::powi(2.0, e)
    }

    /// Worst-case relative error of the first-order segment approximation.
    #[must_use]
    pub fn worst_case_relative_error() -> f64 {
        // |f''|/8 * seg^2 at m=1 where curvature is largest, f'' = -1/4 m^-3/2.
        let seg = 3.0 / LUT_ENTRIES as f64;
        seg * seg / 32.0 + 1e-12
    }
}

impl Default for SqrtUnit {
    fn default() -> Self {
        Self::new()
    }
}

/// The pre-populated `cos(max(0, π/k·h − θ_bias))` table of the candidate
/// selection module (§IV-C): `k+1` entries indexed by the Hamming distance
/// `h ∈ 0..=k`.
///
/// # Examples
///
/// ```
/// use elsa_numeric::CosLut;
/// let lut = CosLut::new(64, 0.127);
/// assert_eq!(lut.len(), 65);
/// assert_eq!(lut.value(0), 1.0);           // hamming 0 => angle clamps to 0
/// assert!(lut.value(32) < lut.value(16));  // monotone decreasing over [0, pi]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CosLut {
    values: Vec<f64>,
    k: usize,
    theta_bias: f64,
}

impl CosLut {
    /// Builds the table for hash length `k` and angle-correction bias
    /// `theta_bias` (§III-B, *Angle Correction*).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, theta_bias: f64) -> Self {
        assert!(k > 0, "hash length k must be positive");
        let values = (0..=k)
            .map(|h| {
                let angle = (std::f64::consts::PI / k as f64) * h as f64 - theta_bias;
                angle.max(0.0).cos()
            })
            .collect();
        Self { values, k, theta_bias }
    }

    /// The approximate `cos` of the angle estimated from Hamming distance `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h > k` (a Hamming distance larger than the hash length is
    /// impossible by construction).
    #[must_use]
    pub fn value(&self, h: usize) -> f64 {
        self.values[h]
    }

    /// Every entry, indexed by Hamming distance: `values()[h] == value(h)`.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of entries (`k + 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: the table has `k + 1 ≥ 2` entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The hash length this table was built for.
    #[must_use]
    pub const fn hash_length(&self) -> usize {
        self.k
    }

    /// The angle-correction bias baked into the table.
    #[must_use]
    pub const fn theta_bias(&self) -> f64 {
        self.theta_bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_unit_tracks_reference() {
        let unit = ExpUnit::new();
        let bound = ExpUnit::worst_case_relative_error() + 0.01;
        for i in -40..=40 {
            let x = f64::from(i) * 0.73;
            let approx = unit.exp(x).to_f64();
            let exact = x.exp();
            let rel = ((approx - exact) / exact).abs();
            assert!(rel < bound + 0.02, "exp({x}): rel err {rel}");
        }
    }

    #[test]
    fn exp_unit_output_in_custom_format() {
        let unit = ExpUnit::new();
        // e^60 ~ 1.1e26: far outside f16 range, must survive the custom format.
        let big = unit.exp(60.0).to_f64();
        assert!(big > 1e25 && big < 2e26);
        let small = unit.exp(-60.0).to_f64();
        assert!(small > 0.0 && small < 1e-25);
    }

    #[test]
    fn exp_unit_is_monotone_nondecreasing() {
        let unit = ExpUnit::new();
        let mut prev = 0.0;
        for i in -200..200 {
            let v = unit.exp(f64::from(i) * 0.1).to_f64();
            assert!(v >= prev, "exp not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    fn reciprocal_tracks_reference() {
        let unit = ReciprocalUnit::new();
        for &x in &[1.0, 1.5, 2.0, 3.7, 100.0, 0.004, 7e10] {
            let r = unit.reciprocal_f64(x);
            let rel = ((r - 1.0 / x) * x).abs();
            // one segment of the 32-entry mantissa table ~ 1.5% worst case
            assert!(rel < 0.04, "recip({x}): rel err {rel}");
        }
    }

    #[test]
    fn reciprocal_of_zero_saturates() {
        let unit = ReciprocalUnit::new();
        assert_eq!(unit.reciprocal(CustomFloat::zero()), CustomFloat::max_value());
    }

    #[test]
    fn reciprocal_preserves_sign() {
        let unit = ReciprocalUnit::new();
        assert!(unit.reciprocal(CustomFloat::from_f64(-2.0)).to_f64() < 0.0);
    }

    #[test]
    fn sqrt_tracks_reference() {
        let unit = SqrtUnit::new();
        for &x in &[1.0, 2.0, 3.0, 4.0, 10.0, 100.0, 4096.0, 0.25, 0.001, 123.456] {
            let r = unit.sqrt(x);
            let rel = ((r - x.sqrt()) / x.sqrt()).abs();
            assert!(rel < 1e-3, "sqrt({x}): rel err {rel}");
        }
    }

    #[test]
    fn sqrt_edge_cases() {
        let unit = SqrtUnit::new();
        assert_eq!(unit.sqrt(0.0), 0.0);
        assert_eq!(unit.sqrt(-5.0), 0.0);
        assert!((unit.sqrt(1.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sqrt_covers_key_norm_range() {
        // Norms of d=64 keys with |elem| <= 32: up to sqrt(64*1024) = 256.
        let unit = SqrtUnit::new();
        for i in 1..=256 {
            let x = f64::from(i * i);
            let r = unit.sqrt(x);
            assert!(((r - f64::from(i)) / f64::from(i)).abs() < 1e-3);
        }
    }

    #[test]
    fn cos_lut_matches_formula() {
        let k = 64;
        let bias = 0.127;
        let lut = CosLut::new(k, bias);
        for h in 0..=k {
            let angle = (std::f64::consts::PI / k as f64) * h as f64 - bias;
            let expect = angle.max(0.0).cos();
            assert!((lut.value(h) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn cos_lut_clamps_small_angles() {
        let lut = CosLut::new(64, 0.127);
        // h = 0,1,2 all give angle - bias <= 0 region boundaries:
        // pi/64 ~ 0.049: h<=2 -> angle <= 0.098 < 0.127 -> clamped to cos(0)=1.
        assert_eq!(lut.value(0), 1.0);
        assert_eq!(lut.value(1), 1.0);
        assert_eq!(lut.value(2), 1.0);
        assert!(lut.value(3) < 1.0);
    }

    #[test]
    fn cos_lut_sizes() {
        for k in [16, 32, 64, 128] {
            let lut = CosLut::new(k, 0.1);
            assert_eq!(lut.len(), k + 1);
            assert_eq!(lut.hash_length(), k);
            assert!(!lut.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn cos_lut_rejects_zero_k() {
        let _ = CosLut::new(0, 0.1);
    }
}
