//! Bit-level functional model of the quantized ELSA datapath (§IV-E).
//!
//! Where `elsa-core` computes the approximation in `f32`, this module pushes
//! the same algorithm through the number formats and LUT units the hardware
//! actually has:
//!
//! * Q/K/V elements quantized to sign + 5 int + 3 frac fixed point;
//! * hash-matrix coefficients quantized to sign + 5 frac fixed point
//!   (the dense `k × d` projection is materialized — hardware equivalently
//!   stores the three `4×4` Kronecker factors in 48 registers);
//! * key norms computed with the tabulate-and-multiply square root unit and
//!   stored as 8-bit integers (the 1-byte-per-key norm SRAM);
//! * attention scores exponentiated by the 32-entry-LUT [`ExpUnit`], with
//!   the running sum, the weighted accumulation and the final division all
//!   in the 16-bit [`CustomFloat`] format via the 32-entry reciprocal LUT.
//!
//! The paper's claim that this costs `< 0.2%` end-metric loss versus FP32 is
//! reproduced by experiment E11 (`quantization_impact` in `elsa-bench`).

use elsa_attention::exact::AttentionInputs;
use elsa_core::hashing::BinaryHash;
use elsa_core::{ElsaAttention, SelectionStats};
use elsa_linalg::Matrix;
use elsa_numeric::{CosLut, CustomFloat, ExpUnit, HashFixed, QkvFixed, ReciprocalUnit, SqrtUnit};

/// The quantized-datapath twin of [`ElsaAttention`].
///
/// Construct it from a trained `f32` operator with
/// [`QuantizedElsaAttention::from_reference`]; its `forward` produces what
/// the silicon would, so diffing against the `f32` operator isolates pure
/// quantization error.
#[derive(Debug)]
pub struct QuantizedElsaAttention {
    /// Dense projection with coefficients pre-quantized to the 6-bit format.
    projection: Matrix,
    k: usize,
    cos_lut: CosLut,
    threshold: f64,
    exp_unit: ExpUnit,
    recip_unit: ReciprocalUnit,
    sqrt_unit: SqrtUnit,
}

/// Largest storable 8-bit key norm.
const NORM_MAX: f64 = 255.0;

impl QuantizedElsaAttention {
    /// Quantizes the reference operator's parameters into the hardware
    /// formats.
    #[must_use]
    pub fn from_reference(reference: &ElsaAttention) -> Self {
        let dense = reference.params().hasher().dense_projection();
        let projection =
            Matrix::from_fn(dense.rows(), dense.cols(), |r, c| HashFixed::from_f32(dense[(r, c)]).to_f32());
        let k = reference.params().hasher().k();
        Self {
            projection,
            k,
            cos_lut: CosLut::new(k, reference.params().lut().theta_bias()),
            threshold: reference.threshold(),
            exp_unit: ExpUnit::new(),
            recip_unit: ReciprocalUnit::new(),
            sqrt_unit: SqrtUnit::new(),
        }
    }

    /// Quantizes an input matrix to the 9-bit Q/K/V storage format with the
    /// identity range scale (elements assumed pre-calibrated to ±32).
    #[must_use]
    pub fn quantize_inputs(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |r, c| QkvFixed::from_f32(m[(r, c)]).to_f32())
    }

    /// Quantizes with per-tensor range calibration: scales the tensor so its
    /// largest magnitude sits near the format's limit, then rounds. Returns
    /// the scaled-and-quantized matrix and the scale factor applied.
    #[must_use]
    pub fn quantize_inputs_scaled(m: &Matrix) -> (Matrix, f64) {
        let max = m.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = if max > 0.0 { f64::from(31.0 / max) } else { 1.0 };
        let q = Matrix::from_fn(m.rows(), m.cols(), |r, c| {
            QkvFixed::from_f32((f64::from(m[(r, c)]) * scale) as f32).to_f32()
        });
        (q, scale)
    }

    /// Hashes one (already quantized) vector through the quantized
    /// projection. All arithmetic is exact over the quantized values — the
    /// hardware's widened fixed-point datapath loses nothing before the sign.
    #[must_use]
    pub fn hash(&self, x: &[f32]) -> BinaryHash {
        let signs: Vec<f32> = (0..self.k)
            .map(|r| elsa_linalg::ops::dot(self.projection.row(r), x) as f32)
            .collect();
        BinaryHash::from_signs(&signs)
    }

    /// Key norm through the square-root unit, quantized to the 8-bit norm
    /// SRAM format.
    #[must_use]
    pub fn key_norm(&self, key: &[f32]) -> f64 {
        let sq = elsa_linalg::ops::dot(key, key);
        let norm = self.sqrt_unit.sqrt(sq);
        norm.round().clamp(0.0, NORM_MAX)
    }

    /// Full forward pass through the quantized datapath.
    ///
    /// Returns the output matrix (decoded to `f32`) and selection stats.
    ///
    /// Tensors are quantized with **per-tensor range scaling**: each of
    /// Q/K/V is scaled so its largest magnitude spans the 9-bit format
    /// before rounding, exactly as a deployed fixed-point accelerator would
    /// calibrate activation ranges. The score rescale `1/(α_q·α_k)` folds
    /// into the exponent unit's constant multiplier (which already applies
    /// `log2 e` in hardware), and the value rescale `1/α_v` folds into the
    /// output division — neither needs extra hardware. Hash bits and the
    /// norm-threshold comparison are scale-invariant, so candidate
    /// selection is unaffected by the calibration.
    #[must_use]
    pub fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        let (q, q_scale) = Self::quantize_inputs_scaled(inputs.query());
        let (k, k_scale) = Self::quantize_inputs_scaled(inputs.key());
        let (v, v_scale) = Self::quantize_inputs_scaled(inputs.value());
        let score_rescale = 1.0 / (q_scale * k_scale);
        let n = k.rows();
        let d_v = v.cols();

        // --- preprocessing phase ---
        let key_hashes: Vec<BinaryHash> = (0..n).map(|j| self.hash(k.row(j))).collect();
        let key_norms: Vec<f64> = (0..n).map(|j| self.key_norm(k.row(j))).collect();
        let max_norm = key_norms.iter().copied().fold(0.0f64, f64::max);
        let cutoff = self.threshold * max_norm;

        let mut stats = SelectionStats {
            total_pairs: q.rows() * n,
            num_queries: q.rows(),
            num_keys: n,
            ..SelectionStats::default()
        };
        let mut out = Matrix::zeros(q.rows(), d_v);

        // --- execution phase, one query at a time ---
        for i in 0..q.rows() {
            let qh = self.hash(q.row(i));
            // Candidate selection modules: LUT + multiply + compare per key.
            let mut candidates = Vec::new();
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                let sim = self.cos_lut.value(qh.hamming(&key_hashes[j])) * key_norms[j];
                if sim > cutoff {
                    candidates.push(j);
                }
                match best {
                    Some((_, b)) if sim <= b => {}
                    _ => best = Some((j, sim)),
                }
            }
            if candidates.is_empty() {
                candidates.push(best.expect("n > 0").0);
                stats.fallback_queries += 1;
            }
            stats.selected_pairs += candidates.len();

            // Attention computation module: fixed-point dot product, LUT
            // exponent, custom-float accumulation (Fig. 8).
            let mut sum_exp = CustomFloat::zero();
            let mut acc = vec![CustomFloat::zero(); d_v];
            for &j in &candidates {
                let score = elsa_linalg::ops::dot(q.row(i), k.row(j)) * score_rescale;
                let e = self.exp_unit.exp(score);
                sum_exp = sum_exp + e;
                for (c, slot) in acc.iter_mut().enumerate() {
                    *slot = *slot + e * CustomFloat::from_f32(v[(j, c)]);
                }
            }
            // Output division module: reciprocal LUT + m_o multipliers
            // (the value-range rescale folds into the same multiply).
            let recip = self.recip_unit.reciprocal(sum_exp);
            let row = out.row_mut(i);
            for (c, slot) in acc.iter().enumerate() {
                row[c] = (*slot * recip).to_f32() / v_scale as f32;
            }
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;

    fn peaked_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            let targets = rng.sample_indices(n, 3);
            for (rank, &t) in targets.iter().enumerate() {
                let w = if rank == 0 { 2.0 } else { 0.6 };
                for c in 0..d {
                    q[(i, c)] += w * k[(t, c)];
                }
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    fn reference(seed: u64, train: &AttentionInputs, p: f64) -> ElsaAttention {
        let mut rng = SeededRng::new(seed);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut rng), std::slice::from_ref(train), p)
    }

    #[test]
    fn quantized_inputs_are_on_grid() {
        let m = Matrix::from_rows(&[&[0.07f32, -3.33, 31.9, -40.0]]);
        let q = QuantizedElsaAttention::quantize_inputs(&m);
        assert_eq!(q.row(0), &[0.125, -3.375, 31.875, -32.0]);
    }

    #[test]
    fn quantized_datapath_error_is_small_with_full_selection() {
        // Isolate pure number-format error: with every key selected (p = 0
        // fallback) both paths process identical candidate sets, so the
        // difference is exactly the fixed-point + LUT + custom-float loss.
        let train = peaked_inputs(64, 64, 1);
        let test = peaked_inputs(64, 64, 2);
        let mut rng = SeededRng::new(3);
        let r = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
        let _ = &train;
        let quant = QuantizedElsaAttention::from_reference(&r);
        let (ref_out, _) = r.forward(&test);
        let (q_out, _) = quant.forward(&test);
        let rel = ref_out.relative_frobenius_error(&q_out);
        assert!(rel < 0.08, "pure datapath relative error {rel}");
    }

    #[test]
    fn quantized_output_tracks_reference_output_with_learned_threshold() {
        // With a learned threshold, marginal keys can flip selection between
        // the f32 and quantized paths; the end output must still track.
        // Each case: train and test input seeds, operator seed, bound.
        for (train_seed, test_seed, seed, bound) in [(1, 2, 3, 0.45), (7, 8, 9, 0.3)] {
            let train = peaked_inputs(64, 64, train_seed);
            let test = peaked_inputs(64, 64, test_seed);
            let r = reference(seed, &train, 1.0);
            let quant = QuantizedElsaAttention::from_reference(&r);
            let (ref_out, _) = r.forward(&test);
            let (q_out, _) = quant.forward(&test);
            let rel = ref_out.relative_frobenius_error(&q_out);
            assert!(rel < bound, "quantization-path relative error {rel} (seed {seed})");
        }
    }

    #[test]
    fn quantized_selection_close_to_reference_selection() {
        let train = peaked_inputs(64, 64, 5);
        let test = peaked_inputs(64, 64, 6);
        let r = reference(7, &train, 1.0);
        let quant = QuantizedElsaAttention::from_reference(&r);
        let (_, ref_stats) = r.forward(&test);
        let (_, q_stats) = quant.forward(&test);
        let diff = (ref_stats.candidate_fraction() - q_stats.candidate_fraction()).abs();
        assert!(diff < 0.12, "candidate fraction diverges by {diff}");
    }

    #[test]
    fn hash_mostly_agrees_with_reference_hasher() {
        let train = peaked_inputs(32, 64, 8);
        let r = reference(9, &train, 1.0);
        let quant = QuantizedElsaAttention::from_reference(&r);
        let mut rng = SeededRng::new(10);
        let mut total_hamming = 0usize;
        let trials = 50;
        for _ in 0..trials {
            let x = rng.normal_vec(64);
            let xq: Vec<f32> = x.iter().map(|&v| QkvFixed::from_f32(v).to_f32()).collect();
            let h_ref = r.params().hasher().hash(&x);
            let h_q = quant.hash(&xq);
            total_hamming += h_ref.hamming(&h_q);
        }
        // 6-bit matrix coefficients + 9-bit inputs flip only the bits whose
        // projections sit near zero.
        let avg = total_hamming as f64 / trials as f64;
        assert!(avg < 6.0, "avg hash disagreement {avg} bits of 64");
    }

    #[test]
    fn key_norm_is_8bit_and_accurate() {
        let train = peaked_inputs(16, 64, 11);
        let r = reference(12, &train, 1.0);
        let quant = QuantizedElsaAttention::from_reference(&r);
        let mut rng = SeededRng::new(13);
        for _ in 0..20 {
            let key: Vec<f32> = rng.normal_vec(64).iter().map(|&v| v * 2.0).collect();
            let kq: Vec<f32> = key.iter().map(|&v| QkvFixed::from_f32(v).to_f32()).collect();
            let norm = quant.key_norm(&kq);
            assert_eq!(norm, norm.round());
            assert!((0.0..=255.0).contains(&norm));
            let truth = elsa_linalg::ops::norm(&kq);
            assert!((norm - truth).abs() <= 1.0, "norm {norm} vs {truth}");
        }
    }

    #[test]
    fn softmax_weights_survive_custom_float() {
        // A query attending to identical keys must produce (near-)uniform
        // weights even through the LUT exponent and custom-float sum.
        let d = 64;
        let key_row: Vec<f32> = (0..d).map(|c| ((c % 5) as f32 - 2.0) * 0.5).collect();
        let rows: Vec<&[f32]> = (0..4).map(|_| key_row.as_slice()).collect();
        let k = Matrix::from_rows(&rows);
        let q = Matrix::from_rows(&[&key_row]);
        let v = Matrix::identity(4);
        let inputs = AttentionInputs::new(q, k, v);
        let train = peaked_inputs(32, 64, 20);
        let r = reference(21, &train, 0.0);
        let quant = QuantizedElsaAttention::from_reference(&r);
        let (out, _) = quant.forward(&inputs);
        for c in 0..4 {
            assert!((out[(0, c)] - 0.25).abs() < 0.03, "weight {} at {c}", out[(0, c)]);
        }
    }
}
