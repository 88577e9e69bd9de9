//! Approximate similarity computation (§III-D).
//!
//! For a query `Q_x` and key `K_y`, the approximate (query-normalized)
//! similarity is
//!
//! ```text
//! Sim(Q_x/‖Q_x‖, K_y) ≈ ‖K_y‖ · cos(max(0, π/k·hamming(h(Q_x), h(K_y)) − θ_bias))
//! ```
//!
//! which estimates the dot product between the *normalized* query and the
//! key. Normalizing by the query is free at selection time because the same
//! query norm scales every key's similarity equally — it cancels against the
//! threshold, which was learned in the same normalized space.

use elsa_numeric::CosLut;

use crate::hashing::BinaryHash;

/// Computes the approximate similarity from a Hamming distance, a key norm,
/// and the correction bias — the arithmetic path of the candidate selection
/// module without the lookup table.
#[must_use]
pub fn approximate_similarity(hamming: usize, k: usize, key_norm: f64, theta_bias: f64) -> f64 {
    let angle = (std::f64::consts::PI * hamming as f64 / k as f64 - theta_bias).max(0.0);
    key_norm * angle.cos()
}

/// The LUT-based evaluator the hardware uses: `cos(max(0, π/k·h − θ_bias))`
/// is precomputed for every possible Hamming distance (`k + 1` entries), so
/// the per-key work is one table read and one multiply (§IV-C).
///
/// # Examples
///
/// ```
/// use elsa_core::similarity::SimilarityLut;
/// use elsa_core::BinaryHash;
///
/// let lut = SimilarityLut::new(4, 0.0);
/// let q = BinaryHash::from_bits(&[true, true, false, false]);
/// let k = BinaryHash::from_bits(&[true, false, false, false]);
/// let sim = lut.similarity(&q, &k, 2.0);
/// // hamming = 1, angle = pi/4, cos = √2/2, × norm 2
/// assert!((sim - std::f64::consts::SQRT_2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SimilarityLut {
    cos: CosLut,
}

impl SimilarityLut {
    /// Builds the evaluator for hash length `k` and bias `theta_bias`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, theta_bias: f64) -> Self {
        Self { cos: CosLut::new(k, theta_bias) }
    }

    /// Hash length `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.cos.hash_length()
    }

    /// The bias baked into the table.
    #[must_use]
    pub fn theta_bias(&self) -> f64 {
        self.cos.theta_bias()
    }

    /// Approximate similarity between hashed query and key
    /// (`‖K_y‖ · cosLUT[hamming]`).
    ///
    /// # Panics
    ///
    /// Panics if the hash lengths differ from `k`.
    #[must_use]
    pub fn similarity(&self, query_hash: &BinaryHash, key_hash: &BinaryHash, key_norm: f64) -> f64 {
        assert_eq!(query_hash.len(), self.k(), "query hash length mismatch");
        let h = query_hash.hamming(key_hash);
        self.cos.value(h) * key_norm
    }

    /// The table value for a raw Hamming distance (used by the cycle-level
    /// simulator, which tracks Hamming distances directly).
    #[must_use]
    pub fn cos_of_hamming(&self, hamming: usize) -> f64 {
        self.cos.value(hamming)
    }

    /// The whole table (`k + 1` entries, indexed by Hamming distance), for
    /// scans that look up one entry per key.
    #[must_use]
    pub(crate) fn table(&self) -> &[f64] {
        self.cos.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::SrpHasher;
    use elsa_linalg::{ops, SeededRng};

    #[test]
    fn lut_matches_direct_formula() {
        let k = 64;
        let bias = 0.127;
        let lut = SimilarityLut::new(k, bias);
        for h in 0..=k {
            let direct = approximate_similarity(h, k, 3.5, bias);
            assert!((lut.cos_of_hamming(h) * 3.5 - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn similarity_tracks_true_normalized_dot_product() {
        // The approximation should correlate strongly with (q/|q|)·k over
        // random pairs; with θ_bias it should mostly over-estimate.
        let mut rng = SeededRng::new(13);
        let d = 64;
        let hasher = SrpHasher::dense(64, d, &mut rng);
        let lut = SimilarityLut::new(64, crate::THETA_BIAS_D64_K64);
        let mut over = 0;
        let trials = 500;
        let mut abs_err = 0.0;
        for _ in 0..trials {
            let q = rng.normal_vec(d);
            let key = rng.normal_vec(d);
            let qn = ops::norm(&q);
            let truth = ops::dot(&q, &key) / qn;
            let approx = lut.similarity(&hasher.hash(&q), &hasher.hash(&key), ops::norm(&key));
            if approx >= truth {
                over += 1;
            }
            abs_err += (approx - truth).abs();
        }
        let over_frac = f64::from(over) / f64::from(trials);
        assert!(over_frac > 0.6, "over-estimation fraction {over_frac}");
        // Mean absolute error is small relative to the key norm scale (~8).
        assert!(abs_err / f64::from(trials) < 2.0);
    }

    #[test]
    fn zero_norm_key_has_zero_similarity() {
        let lut = SimilarityLut::new(8, 0.1);
        let h = BinaryHash::from_bits(&[true; 8]);
        assert_eq!(lut.similarity(&h, &h, 0.0), 0.0);
    }

    #[test]
    fn similarity_decreases_with_hamming() {
        let lut = SimilarityLut::new(64, 0.127);
        let mut prev = f64::INFINITY;
        for h in 0..=40 {
            // restrict to angles < pi where cos is decreasing
            let v = lut.cos_of_hamming(h);
            assert!(v <= prev + 1e-12, "not nonincreasing at {h}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "query hash length mismatch")]
    fn rejects_wrong_hash_length() {
        let lut = SimilarityLut::new(16, 0.0);
        let h = BinaryHash::from_bits(&[true; 8]);
        let _ = lut.similarity(&h, &h, 1.0);
    }
}
