//! Deep (multi-layer) quality evaluation.
//!
//! The paper's accuracy numbers are *end-to-end*: the approximation error of
//! one attention sub-layer passes through many residual layers before it
//! reaches the metric, and residual streams absorb much of it. The
//! single-layer proxies in [`tasks`](crate::tasks) are deliberately harsher;
//! this module closes the protocol gap by stacking real transformer layers,
//! calibrating one threshold per sub-layer from an exact forward pass
//! (exactly the Fig. 6 procedure), and measuring probe agreement at the
//! **top of the stack** — so error attenuation/accumulation across depth is
//! part of the measurement. [`DeepProxyModel::calibrate`] is the workspace's
//! one implementation of §III-E's per-sub-layer threshold learning (384
//! thresholds for BERT-large, from one user-set `p`).

use elsa_attention::exact::{self, AttentionInputs};
use elsa_attention::{TransformerConfig, TransformerLayer};
use elsa_core::attention::{ElsaAttention, ElsaParams, SelectionStats};
use elsa_core::threshold::ThresholdLearner;
use elsa_linalg::{Matrix, SeededRng};

/// A stack of randomly initialized transformer layers whose attention
/// sub-layers can run exactly or through calibrated ELSA operators.
#[derive(Debug)]
pub struct DeepProxyModel {
    config: TransformerConfig,
    layers: Vec<TransformerLayer>,
}

impl DeepProxyModel {
    /// Builds the stack.
    ///
    /// # Panics
    ///
    /// Panics if the config's head dimension is not 64 (the hardware `d`).
    #[must_use]
    pub fn random(config: TransformerConfig, rng: &mut SeededRng) -> Self {
        assert_eq!(config.d_head(), 64, "deep proxy evaluation targets d = 64 heads");
        let layers = (0..config.num_layers).map(|_| TransformerLayer::random(&config, rng)).collect();
        Self { config, layers }
    }

    /// Builds the stack with symmetric attention projections (`W_K = W_Q`),
    /// which keep attention content-based and peaked at every depth — the
    /// regime trained models live in. Plain random projections wash the
    /// input structure out after one layer, making deep quality studies
    /// measure noise sensitivity instead of approximation quality.
    ///
    /// # Panics
    ///
    /// Panics if the config's head dimension is not 64.
    #[must_use]
    pub fn random_symmetric(config: TransformerConfig, gain: f64, rng: &mut SeededRng) -> Self {
        assert_eq!(config.d_head(), 64, "deep proxy evaluation targets d = 64 heads");
        let layers = (0..config.num_layers)
            .map(|_| TransformerLayer::random_symmetric(&config, gain, rng))
            .collect();
        Self { config, layers }
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Exact forward pass through every layer.
    #[must_use]
    pub fn forward_exact(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Calibrates one ELSA operator per attention sub-layer by running the
    /// exact model on `calibration_inputs` and feeding each sub-layer's
    /// projected Q/K/V to its threshold learner (§III-E / Fig. 6).
    #[must_use]
    pub fn calibrate(
        &self,
        calibration_inputs: &[Matrix],
        p: f64,
        rng: &mut SeededRng,
    ) -> Vec<ElsaAttention> {
        let scale = 1.0 / (self.config.d_head() as f32).sqrt();
        let params = ElsaParams::new(
            elsa_core::hashing::SrpHasher::kronecker_three_way(64, rng),
            elsa_core::THETA_BIAS_D64_K64,
            scale,
        );
        let mut learners: Vec<ThresholdLearner> = (0..self.config.attention_sublayers())
            .map(|_| ThresholdLearner::with_scale(p, scale))
            .collect();
        for x in calibration_inputs {
            let mut h = x.clone();
            for (l, layer) in self.layers.iter().enumerate() {
                for head in 0..self.config.num_heads {
                    let inputs = layer.attention().project_head(&h, head);
                    learners[l * self.config.num_heads + head].observe(&inputs);
                }
                h = layer.forward(&h);
            }
        }
        learners
            .into_iter()
            .map(|learner| {
                ElsaAttention::with_threshold(params.clone(), learner.learned_threshold())
            })
            .collect()
    }

    /// Approximate forward pass: every attention sub-layer runs through its
    /// calibrated operator. Returns the output and merged selection stats.
    ///
    /// # Panics
    ///
    /// Panics if `operators.len()` differs from the sub-layer count.
    #[must_use]
    pub fn forward_approx(
        &self,
        x: &Matrix,
        operators: &[ElsaAttention],
    ) -> (Matrix, SelectionStats) {
        assert_eq!(
            operators.len(),
            self.config.attention_sublayers(),
            "one operator per sub-layer required"
        );
        let scale = 1.0 / (self.config.d_head() as f32).sqrt();
        let mut h = x.clone();
        let mut stats = SelectionStats::default();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut head_idx = 0usize;
            h = layer.forward_with(&h, |inputs: &AttentionInputs| {
                let operator = &operators[l * self.config.num_heads + head_idx];
                head_idx += 1;
                let (cands, s) = operator.candidates(inputs);
                stats = stats.merged(&s);
                exact::attention_with_candidates(inputs, &cands, scale)
            });
        }
        (h, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::AttentionPatternConfig;
    use crate::tasks::ClassificationProbe;

    /// Clustered token embeddings => peaked, content-based attention.
    fn clustered_input(n: usize, d_model: usize, rng: &mut SeededRng) -> Matrix {
        let clusters = 8;
        let centers =
            Matrix::from_fn(clusters, d_model, |_, _| (rng.standard_normal() * 3.0) as f32);
        Matrix::from_fn(n, d_model, |r, c| {
            centers[(r % clusters, c)] + 0.3 * rng.standard_normal() as f32
        })
    }

    fn model(layers: usize, rng: &mut SeededRng) -> DeepProxyModel {
        DeepProxyModel::random(TransformerConfig::new(layers, 128, 2, 256, 64), rng)
    }

    #[test]
    fn calibration_yields_one_operator_per_sublayer() {
        let mut rng = SeededRng::new(1);
        let m = model(3, &mut rng);
        let cal = vec![clustered_input(48, 128, &mut rng)];
        let ops = m.calibrate(&cal, 1.0, &mut rng);
        assert_eq!(ops.len(), 6);
        assert!(ops.iter().all(|o| o.threshold().is_finite()));
    }

    #[test]
    fn approx_forward_tracks_exact_forward() {
        let mut rng = SeededRng::new(2);
        let m = model(2, &mut rng);
        let cal = vec![clustered_input(48, 128, &mut rng), clustered_input(48, 128, &mut rng)];
        let ops = m.calibrate(&cal, 0.5, &mut rng);
        let x = clustered_input(48, 128, &mut rng);
        let exact_out = m.forward_exact(&x);
        let (approx_out, stats) = m.forward_approx(&x, &ops);
        assert!(stats.candidate_fraction() < 1.0);
        let rel = exact_out.relative_frobenius_error(&approx_out);
        assert!(rel < 0.5, "deep relative error {rel}");
    }

    #[test]
    fn deeper_stacks_do_not_explode_error() {
        // Residual + layernorm keep the approximation error bounded with
        // depth (it must not grow multiplicatively).
        let _rng = SeededRng::new(3);
        let probe_rng = &mut SeededRng::new(4);
        let probe = ClassificationProbe::new(8, 128, probe_rng);
        let mut agreements = Vec::new();
        for depth in [1usize, 4] {
            let mut mrng = SeededRng::new(5);
            let m = model(depth, &mut mrng);
            let cal = vec![clustered_input(48, 128, &mut mrng)];
            let ops = m.calibrate(&cal, 1.0, &mut mrng);
            let x = clustered_input(48, 128, &mut mrng);
            let exact_out = m.forward_exact(&x);
            let (approx_out, _) = m.forward_approx(&x, &ops);
            agreements.push(probe.agreement(&exact_out, &approx_out));
        }
        assert!(agreements[1] > 0.5, "agreement at depth 4 = {}", agreements[1]);
    }

    #[test]
    #[should_panic(expected = "one operator per sub-layer")]
    fn rejects_wrong_operator_count() {
        let mut rng = SeededRng::new(6);
        let m = model(2, &mut rng);
        let x = clustered_input(16, 128, &mut rng);
        let _ = m.forward_approx(&x, &[]);
    }

    #[test]
    fn different_profiles_learn_different_thresholds() {
        // A peaked sub-layer and a flat sub-layer must end up with visibly
        // different thresholds — the reason per-sub-layer learning exists.
        let learned = |inputs: &AttentionInputs| {
            let mut learner = ThresholdLearner::new(1.0);
            learner.observe(inputs);
            learner.learned_threshold()
        };
        let peaked = AttentionPatternConfig::new(64, 64, 3, 2.5);
        let flat = AttentionPatternConfig {
            score_scale: 3.0,
            ..AttentionPatternConfig::new(64, 64, 12, 1.1)
        };
        let peaked_t = learned(&peaked.generate(&mut SeededRng::new(1)));
        let flat_t = learned(&flat.generate(&mut SeededRng::new(2)));
        assert!(peaked_t.is_finite() && flat_t.is_finite(), "peaked {peaked_t}, flat {flat_t}");
        assert!(
            (peaked_t - flat_t).abs() > 0.05,
            "peaked {peaked_t} vs flat {flat_t} should differ"
        );
    }
}
