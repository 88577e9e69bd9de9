//! Fixed-point number representation used across the ELSA datapath.
//!
//! The hardware represents different signals with different Q-formats (§IV-E):
//! matrix elements use a sign bit, 5 integer bits and 3 fraction bits; the
//! pre-defined hash matrices use a sign bit and 5 fraction bits. Downstream of
//! each multiplier/adder the hardware widens the *integer* part as needed so
//! that no overflow occurs while keeping the fraction bits fixed — we model
//! that by carrying the raw value in an `i64` together with its [`FixedSpec`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Describes a signed fixed-point format: `1` sign bit, `int_bits` integer
/// bits and `frac_bits` fraction bits.
///
/// The representable range is `[-2^int_bits, 2^int_bits - 2^-frac_bits]` and
/// the resolution is `2^-frac_bits`.
///
/// # Examples
///
/// ```
/// use elsa_numeric::FixedSpec;
/// let qkv = FixedSpec::new(5, 3);
/// assert_eq!(qkv.max_value(), 31.875);
/// assert_eq!(qkv.min_value(), -32.0);
/// assert_eq!(qkv.resolution(), 0.125);
/// assert_eq!(qkv.total_bits(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedSpec {
    int_bits: u32,
    frac_bits: u32,
}

impl FixedSpec {
    /// Creates a format with the given integer and fraction bit counts.
    ///
    /// # Panics
    ///
    /// Panics if `int_bits + frac_bits` exceeds 40 — beyond that the widening
    /// multiplication used internally could overflow `i64`, and no signal in
    /// the ELSA pipeline is anywhere near that wide.
    #[must_use]
    pub fn new(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            int_bits + frac_bits <= 40,
            "fixed point format too wide: {int_bits}+{frac_bits} bits"
        );
        Self { int_bits, frac_bits }
    }

    /// Format of key/query/value matrix elements: 1 sign + 5 int + 3 frac (9 bits).
    #[must_use]
    pub const fn qkv() -> Self {
        Self { int_bits: 5, frac_bits: 3 }
    }

    /// Format of the pre-defined hash matrix elements: 1 sign + 5 frac (6 bits).
    #[must_use]
    pub const fn hash_matrix() -> Self {
        Self { int_bits: 0, frac_bits: 5 }
    }

    /// Number of integer bits (excluding the sign bit).
    #[must_use]
    pub const fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fraction bits.
    #[must_use]
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total storage width including the sign bit.
    #[must_use]
    pub const fn total_bits(&self) -> u32 {
        1 + self.int_bits + self.frac_bits
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        (self.max_raw() as f64) / self.scale()
    }

    /// Smallest (most negative) representable value.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        (self.min_raw() as f64) / self.scale()
    }

    /// Distance between two adjacent representable values (`2^-frac_bits`).
    #[must_use]
    pub fn resolution(&self) -> f64 {
        1.0 / self.scale()
    }

    fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    fn max_raw(&self) -> i64 {
        (1i64 << (self.int_bits + self.frac_bits)) - 1
    }

    fn min_raw(&self) -> i64 {
        -(1i64 << (self.int_bits + self.frac_bits))
    }
}

impl fmt::Display for FixedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

/// A signed fixed-point value.
///
/// The raw integer is the real value multiplied by `2^frac_bits`. Arithmetic
/// widens exactly the way the hardware does: addition keeps the fraction
/// width and grows the integer part; multiplication produces
/// `frac_a + frac_b` fraction bits which the caller can [`Fixed::requantize`]
/// back down, mirroring a truncating/rounding hardware multiplier.
///
/// Conversions from `f32`/`f64` **saturate** at the format bounds — exactly
/// what a hardware quantizer does — and round to nearest (ties away from
/// zero).
///
/// # Examples
///
/// ```
/// use elsa_numeric::{Fixed, FixedSpec};
///
/// let spec = FixedSpec::qkv();
/// let a = Fixed::from_f64(1.5, spec);
/// let b = Fixed::from_f64(2.25, spec);
/// let sum = a + b;
/// assert_eq!(sum.to_f64(), 3.75);
///
/// // Multiplication widens the fraction field (3 + 3 = 6 bits)...
/// let prod = a * b;
/// assert_eq!(prod.spec().frac_bits(), 6);
/// assert_eq!(prod.to_f64(), 3.375);
/// // ...and can be requantized back to the storage format.
/// let stored = prod.requantize(spec);
/// assert_eq!(stored.to_f64(), 3.375); // exactly representable here
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    raw: i64,
    spec: FixedSpec,
}

impl Fixed {
    /// Zero in the given format.
    #[must_use]
    pub const fn zero(spec: FixedSpec) -> Self {
        Self { raw: 0, spec }
    }

    /// Quantizes an `f64`, rounding to nearest and saturating at the bounds.
    /// NaN quantizes to zero (hardware quantizers never see NaN; this keeps
    /// the function total).
    #[must_use]
    pub fn from_f64(value: f64, spec: FixedSpec) -> Self {
        if value.is_nan() {
            return Self::zero(spec);
        }
        let scaled = (value * spec.scale()).round();
        let raw = if scaled >= spec.max_raw() as f64 {
            spec.max_raw()
        } else if scaled <= spec.min_raw() as f64 {
            spec.min_raw()
        } else {
            scaled as i64
        };
        Self { raw, spec }
    }

    /// Quantizes an `f32` (see [`Fixed::from_f64`]).
    #[must_use]
    pub fn from_f32(value: f32, spec: FixedSpec) -> Self {
        Self::from_f64(f64::from(value), spec)
    }

    /// The raw scaled integer.
    #[must_use]
    pub const fn raw(&self) -> i64 {
        self.raw
    }

    /// The format this value is stored in.
    #[must_use]
    pub const fn spec(&self) -> FixedSpec {
        self.spec
    }

    /// Converts back to `f64` (always exact: the raw range fits in 41 bits).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        (self.raw as f64) / self.spec.scale()
    }

    /// Converts back to `f32`.
    #[must_use]
    pub fn to_f32(&self) -> f32 {
        self.to_f64() as f32
    }

    /// Re-rounds this value into a (usually narrower) target format,
    /// saturating on overflow — the hardware's requantization step after a
    /// multiplier or accumulator.
    #[must_use]
    pub fn requantize(&self, target: FixedSpec) -> Self {
        match target.frac_bits.cmp(&self.spec.frac_bits) {
            Ordering::Equal => {
                let raw = self.raw.clamp(target.min_raw(), target.max_raw());
                Self { raw, spec: target }
            }
            Ordering::Greater => {
                let shift = target.frac_bits - self.spec.frac_bits;
                let widened = self.raw << shift;
                let raw = widened.clamp(target.min_raw(), target.max_raw());
                Self { raw, spec: target }
            }
            Ordering::Less => {
                let shift = self.spec.frac_bits - target.frac_bits;
                // Round to nearest, ties away from zero.
                let half = 1i64 << (shift - 1);
                let rounded = if self.raw >= 0 {
                    (self.raw + half) >> shift
                } else {
                    -((-self.raw + half) >> shift)
                };
                let raw = rounded.clamp(target.min_raw(), target.max_raw());
                Self { raw, spec: target }
            }
        }
    }

    /// Widening addition: keeps the (common) fraction width, grows the
    /// integer field by one bit so the sum can never overflow.
    ///
    /// # Panics
    ///
    /// Panics if the operands carry different fraction widths — the hardware
    /// aligns binary points statically, so mixing them is a modelling bug.
    #[must_use]
    pub fn wide_add(&self, other: &Self) -> Self {
        assert_eq!(
            self.spec.frac_bits, other.spec.frac_bits,
            "cannot add fixed-point values with different fraction widths"
        );
        let spec = FixedSpec::new(self.spec.int_bits.max(other.spec.int_bits) + 1, self.spec.frac_bits);
        Self { raw: self.raw + other.raw, spec }
    }

    /// Widening multiplication: fraction widths add, integer widths add.
    #[must_use]
    pub fn wide_mul(&self, other: &Self) -> Self {
        let spec = FixedSpec::new(
            self.spec.int_bits + other.spec.int_bits + 1,
            self.spec.frac_bits + other.spec.frac_bits,
        );
        Self { raw: self.raw * other.raw, spec }
    }

    /// Absolute value (saturates `min_value` to `max_raw`, as hardware |x| does).
    #[must_use]
    pub fn abs(&self) -> Self {
        let raw = self.raw.checked_abs().unwrap_or(i64::MAX).min(self.spec.max_raw());
        Self { raw, spec: self.spec }
    }

    /// True if the value is negative (the sign bit of the representation).
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.raw < 0
    }
}

impl Add for Fixed {
    type Output = Fixed;

    fn add(self, rhs: Fixed) -> Fixed {
        self.wide_add(&rhs)
    }
}

impl Sub for Fixed {
    type Output = Fixed;

    fn sub(self, rhs: Fixed) -> Fixed {
        self.wide_add(&(-rhs))
    }
}

impl Mul for Fixed {
    type Output = Fixed;

    fn mul(self, rhs: Fixed) -> Fixed {
        self.wide_mul(&rhs)
    }
}

impl Neg for Fixed {
    type Output = Fixed;

    fn neg(self) -> Fixed {
        // -min_raw overflows the format by one step; widen by a bit to stay exact.
        if self.raw == self.spec.min_raw() {
            let spec = FixedSpec::new(self.spec.int_bits + 1, self.spec.frac_bits);
            Fixed { raw: -self.raw, spec }
        } else {
            Fixed { raw: -self.raw, spec: self.spec }
        }
    }
}

impl PartialEq for Fixed {
    fn eq(&self, other: &Self) -> bool {
        // Compare numeric values irrespective of format width.
        match self.spec.frac_bits.cmp(&other.spec.frac_bits) {
            Ordering::Equal => self.raw == other.raw,
            Ordering::Less => (self.raw << (other.spec.frac_bits - self.spec.frac_bits)) == other.raw,
            Ordering::Greater => self.raw == (other.raw << (self.spec.frac_bits - other.spec.frac_bits)),
        }
    }
}

impl Eq for Fixed {}

impl PartialOrd for Fixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fixed {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.spec.frac_bits.cmp(&other.spec.frac_bits) {
            Ordering::Equal => self.raw.cmp(&other.raw),
            Ordering::Less => (self.raw << (other.spec.frac_bits - self.spec.frac_bits)).cmp(&other.raw),
            Ordering::Greater => self.raw.cmp(&(other.raw << (self.spec.frac_bits - other.spec.frac_bits))),
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.spec)
    }
}

/// Key/query/value element in the storage format of §IV-E
/// (sign + 5 integer + 3 fraction bits).
///
/// A thin convenience wrapper over [`Fixed`] pinned to [`FixedSpec::qkv`].
///
/// # Examples
///
/// ```
/// use elsa_numeric::QkvFixed;
/// let x = QkvFixed::from_f32(-1.44);
/// assert_eq!(x.to_f32(), -1.5); // rounded to a multiple of 1/8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QkvFixed(Fixed);

impl QkvFixed {
    /// Quantizes an `f32` activation into the 9-bit storage format.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        Self(Fixed::from_f32(value, FixedSpec::qkv()))
    }

    /// The quantized value as `f32`.
    #[must_use]
    pub fn to_f32(&self) -> f32 {
        self.0.to_f32()
    }

    /// Access the underlying [`Fixed`] for widened arithmetic.
    #[must_use]
    pub fn as_fixed(&self) -> Fixed {
        self.0
    }

    /// Quantizes a whole slice in place, returning the quantized copies.
    #[must_use]
    pub fn quantize_slice(values: &[f32]) -> Vec<f32> {
        values.iter().map(|&v| Self::from_f32(v).to_f32()).collect()
    }
}

impl Default for QkvFixed {
    fn default() -> Self {
        Self(Fixed::zero(FixedSpec::qkv()))
    }
}

impl fmt::Display for QkvFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Hash-matrix element in the storage format of §IV-E (sign + 5 fraction bits).
///
/// # Examples
///
/// ```
/// use elsa_numeric::HashFixed;
/// let x = HashFixed::from_f32(0.49);
/// assert_eq!(x.to_f32(), 0.5); // resolution 1/32
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HashFixed(Fixed);

impl HashFixed {
    /// Quantizes an `f32` hash-matrix coefficient into the 6-bit format.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        Self(Fixed::from_f32(value, FixedSpec::hash_matrix()))
    }

    /// The quantized value as `f32`.
    #[must_use]
    pub fn to_f32(&self) -> f32 {
        self.0.to_f32()
    }

    /// Access the underlying [`Fixed`] for widened arithmetic.
    #[must_use]
    pub fn as_fixed(&self) -> Fixed {
        self.0
    }

    /// Quantizes a whole slice, returning the quantized copies.
    #[must_use]
    pub fn quantize_slice(values: &[f32]) -> Vec<f32> {
        values.iter().map(|&v| Self::from_f32(v).to_f32()).collect()
    }
}

impl Default for HashFixed {
    fn default() -> Self {
        Self(Fixed::zero(FixedSpec::hash_matrix()))
    }
}

impl fmt::Display for HashFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qkv_spec_matches_paper() {
        let spec = FixedSpec::qkv();
        assert_eq!(spec.total_bits(), 9);
        assert_eq!(spec.resolution(), 0.125);
        assert_eq!(spec.max_value(), 31.875);
        assert_eq!(spec.min_value(), -32.0);
    }

    #[test]
    fn hash_spec_matches_paper() {
        let spec = FixedSpec::hash_matrix();
        assert_eq!(spec.total_bits(), 6);
        assert_eq!(spec.resolution(), 1.0 / 32.0);
        assert!((spec.max_value() - 31.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_conversion() {
        let spec = FixedSpec::qkv();
        assert_eq!(Fixed::from_f64(1000.0, spec).to_f64(), 31.875);
        assert_eq!(Fixed::from_f64(-1000.0, spec).to_f64(), -32.0);
        assert_eq!(Fixed::from_f64(f64::NAN, spec).to_f64(), 0.0);
    }

    #[test]
    fn round_to_nearest() {
        let spec = FixedSpec::qkv();
        assert_eq!(Fixed::from_f64(0.0624, spec).to_f64(), 0.0); // 0.0624*8 = 0.4992 -> 0
        assert_eq!(Fixed::from_f64(0.07, spec).to_f64(), 0.125); // 0.07*8 = 0.56 -> 1
    }

    #[test]
    fn rounding_halfway() {
        let spec = FixedSpec::qkv();
        // 0.0625 scaled by 8 = 0.5 -> rounds away from zero to 1 -> 0.125
        assert_eq!(Fixed::from_f64(0.0625, spec).to_f64(), 0.125);
        assert_eq!(Fixed::from_f64(-0.0625, spec).to_f64(), -0.125);
    }

    #[test]
    fn addition_widens_int_field() {
        let spec = FixedSpec::qkv();
        let max = Fixed::from_f64(31.875, spec);
        let sum = max + max;
        assert_eq!(sum.to_f64(), 63.75);
        assert_eq!(sum.spec().int_bits(), 6);
        assert_eq!(sum.spec().frac_bits(), 3);
    }

    #[test]
    fn multiplication_widens_both_fields() {
        let a = Fixed::from_f64(31.875, FixedSpec::qkv());
        let b = Fixed::from_f64(-32.0, FixedSpec::qkv());
        let prod = a * b;
        assert_eq!(prod.to_f64(), 31.875 * -32.0);
        assert_eq!(prod.spec().frac_bits(), 6);
    }

    #[test]
    fn requantize_round_trip() {
        let wide = Fixed::from_f64(3.140625, FixedSpec::new(8, 6));
        let narrow = wide.requantize(FixedSpec::qkv());
        assert_eq!(narrow.to_f64(), 3.125);
        let widened = narrow.requantize(FixedSpec::new(8, 6));
        assert_eq!(widened.to_f64(), 3.125);
    }

    #[test]
    fn requantize_saturates() {
        let wide = Fixed::from_f64(100.0, FixedSpec::new(10, 3));
        let narrow = wide.requantize(FixedSpec::qkv());
        assert_eq!(narrow.to_f64(), 31.875);
    }

    #[test]
    fn negation_of_min_widens() {
        let spec = FixedSpec::qkv();
        let min = Fixed::from_f64(-32.0, spec);
        let neg = -min;
        assert_eq!(neg.to_f64(), 32.0);
    }

    #[test]
    fn ordering_across_formats() {
        let a = Fixed::from_f64(1.5, FixedSpec::qkv());
        let b = Fixed::from_f64(1.5, FixedSpec::new(5, 6));
        assert_eq!(a, b);
        let c = Fixed::from_f64(1.25, FixedSpec::new(5, 6));
        assert!(c < a);
    }

    #[test]
    fn qkv_wrapper_quantizes() {
        assert_eq!(QkvFixed::from_f32(3.17).to_f32(), 3.125);
        assert_eq!(QkvFixed::from_f32(-0.06).to_f32(), 0.0); // |-0.06*8| = 0.48 rounds to 0
        assert_eq!(QkvFixed::default().to_f32(), 0.0);
    }

    #[test]
    fn hash_wrapper_quantizes() {
        assert_eq!(HashFixed::from_f32(0.49).to_f32(), 0.5);
        // Saturates just below 1.
        assert!((HashFixed::from_f32(2.0).to_f32() - 31.0 / 32.0).abs() < 1e-6);
    }

    #[test]
    fn quantize_slice_matches_elementwise() {
        let data = [0.1f32, -0.2, 5.05, -31.99];
        let q = QkvFixed::quantize_slice(&data);
        for (orig, quant) in data.iter().zip(&q) {
            assert_eq!(*quant, QkvFixed::from_f32(*orig).to_f32());
        }
    }

    #[test]
    fn display_is_nonempty() {
        let x = Fixed::from_f64(1.0, FixedSpec::qkv());
        assert!(!format!("{x}").is_empty());
        assert!(!format!("{x:?}").is_empty());
        assert_eq!(format!("{}", FixedSpec::qkv()), "Q5.3");
    }
}
