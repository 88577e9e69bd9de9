//! Transformer-layer substrate: layer norm, feed-forward network, and the
//! encoder layer combining them with multi-head attention.
//!
//! The evaluation in the paper varies the FFN dimension (Fig. 2 shows the
//! self-attention runtime share growing as FFN width shrinks, per Wu et al.'s
//! *Lite Transformer* observation), so the layer is parameterized by an
//! explicit [`TransformerConfig`] rather than hard-coding BERT shapes.

use elsa_linalg::reduce::sum_f64;
use elsa_linalg::{Matrix, SeededRng};

use crate::multihead::MultiHeadAttention;

/// Static shape description of a transformer encoder stack — everything the
/// FLOP model and the workload generators need to know about a model.
///
/// # Examples
///
/// ```
/// use elsa_attention::TransformerConfig;
///
/// let bert_large = TransformerConfig::new(24, 1024, 16, 4096, 512);
/// assert_eq!(bert_large.d_head(), 64);
/// assert_eq!(bert_large.attention_sublayers(), 24 * 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Number of encoder layers.
    pub num_layers: usize,
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Number of attention heads per layer.
    pub num_heads: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Maximum sequence length the model is configured for.
    pub max_seq_len: usize,
}

impl TransformerConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or `d_model` is not divisible by
    /// `num_heads`.
    #[must_use]
    pub fn new(
        num_layers: usize,
        d_model: usize,
        num_heads: usize,
        d_ff: usize,
        max_seq_len: usize,
    ) -> Self {
        assert!(num_layers > 0 && d_model > 0 && num_heads > 0 && d_ff > 0 && max_seq_len > 0);
        assert_eq!(d_model % num_heads, 0, "d_model must be divisible by num_heads");
        Self { num_layers, d_model, num_heads, d_ff, max_seq_len }
    }

    /// Per-head dimension `d = d_model / num_heads`.
    #[must_use]
    pub const fn d_head(&self) -> usize {
        self.d_model / self.num_heads
    }

    /// Total number of self-attention sub-layers (`layers × heads`) — the
    /// granularity at which ELSA learns thresholds (384 for BERT-large).
    #[must_use]
    pub const fn attention_sublayers(&self) -> usize {
        self.num_layers * self.num_heads
    }

    /// Returns a copy with the FFN dimension scaled by `factor` (used for
    /// the Fig. 2 `FFN/4` variants). The result is clamped to at least 1.
    #[must_use]
    pub fn with_ffn_scaled(&self, factor: f64) -> Self {
        let d_ff = ((self.d_ff as f64 * factor).round() as usize).max(1);
        Self { d_ff, ..*self }
    }
}

/// Layer normalization with learned scale and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { gamma: vec![1.0; dim], beta: vec![0.0; dim], eps: 1e-5 }
    }

    /// Normalizes each row of `x` to zero mean / unit variance, then applies
    /// the affine parameters.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.gamma.len(), "layer norm dimension mismatch");
        let d = x.cols();
        let mut out = Matrix::zeros(x.rows(), d);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = sum_f64(row.iter().map(|&v| f64::from(v))) / d as f64;
            let var =
                sum_f64(row.iter().map(|&v| (f64::from(v) - mean).powi(2))) / d as f64;
            let inv = 1.0 / (var + f64::from(self.eps)).sqrt();
            let dst = out.row_mut(r);
            for i in 0..d {
                dst[i] = (((f64::from(row[i]) - mean) * inv) as f32) * self.gamma[i] + self.beta[i];
            }
        }
        out
    }
}

/// GELU activation (tanh approximation, as used by BERT).
#[must_use]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// A position-wise feed-forward network: `GELU(x·W₁ + b₁)·W₂ + b₂`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

impl FeedForward {
    /// Random Gaussian initialization scaled by `1/√fan_in`.
    #[must_use]
    pub fn random(d_model: usize, d_ff: usize, rng: &mut SeededRng) -> Self {
        let s1 = 1.0 / (d_model as f64).sqrt();
        let s2 = 1.0 / (d_ff as f64).sqrt();
        Self {
            w1: Matrix::from_fn(d_model, d_ff, |_, _| (rng.standard_normal() * s1) as f32),
            b1: vec![0.0; d_ff],
            w2: Matrix::from_fn(d_ff, d_model, |_, _| (rng.standard_normal() * s2) as f32),
            b2: vec![0.0; d_model],
        }
    }

    /// Applies the network row-wise.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.matmul(&self.w1);
        for r in 0..h.rows() {
            for (v, b) in h.row_mut(r).iter_mut().zip(&self.b1) {
                *v = gelu(*v + b);
            }
        }
        let mut out = h.matmul(&self.w2);
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&self.b2) {
                *v += b;
            }
        }
        out
    }
}

/// One transformer encoder layer: post-norm residual attention followed by a
/// post-norm residual FFN (the BERT arrangement).
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    attention: MultiHeadAttention,
    ffn: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl TransformerLayer {
    /// Builds a randomly initialized layer matching `config`.
    #[must_use]
    pub fn random(config: &TransformerConfig, rng: &mut SeededRng) -> Self {
        Self {
            attention: MultiHeadAttention::random(
                config.d_model,
                config.num_heads,
                config.d_head(),
                rng,
            ),
            ffn: FeedForward::random(config.d_model, config.d_ff, rng),
            norm1: LayerNorm::new(config.d_model),
            norm2: LayerNorm::new(config.d_model),
        }
    }

    /// Builds a layer whose attention uses symmetric projections
    /// (`W_K = W_Q`, see [`MultiHeadAttention::random_symmetric`]) with the
    /// given gain — preserves content-similarity structure through deep
    /// stacks.
    #[must_use]
    pub fn random_symmetric(config: &TransformerConfig, gain: f64, rng: &mut SeededRng) -> Self {
        Self {
            attention: MultiHeadAttention::random_symmetric(
                config.d_model,
                config.num_heads,
                config.d_head(),
                gain,
                rng,
            ),
            ffn: FeedForward::random(config.d_model, config.d_ff, rng),
            norm1: LayerNorm::new(config.d_model),
            norm2: LayerNorm::new(config.d_model),
        }
    }

    /// The attention block (exposed so workloads can extract per-head QKV).
    #[must_use]
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attention
    }

    /// Full forward pass with the exact attention kernel.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_with(x, crate::exact::scaled_attention)
    }

    /// Forward pass with a caller-supplied attention kernel — the seam the
    /// ELSA approximation plugs into at the model level.
    #[must_use]
    pub fn forward_with(
        &self,
        x: &Matrix,
        kernel: impl FnMut(&crate::exact::AttentionInputs) -> Matrix,
    ) -> Matrix {
        let attn = self.attention.forward_with(x, kernel);
        let res1 = add(x, &attn);
        let h = self.norm1.forward(&res1);
        let ff = self.ffn.forward(&h);
        let res2 = add(&h, &ff);
        self.norm2.forward(&res2)
    }
}

fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    Matrix::from_fn(a.rows(), a.cols(), |r, c| a[(r, c)] + b[(r, c)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_invariants() {
        let c = TransformerConfig::new(24, 1024, 16, 4096, 512);
        assert_eq!(c.d_head(), 64);
        assert_eq!(c.attention_sublayers(), 384); // the BERT-large number from §III-E
        assert_eq!(c.with_ffn_scaled(0.25).d_ff, 1024);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn config_rejects_indivisible_heads() {
        let _ = TransformerConfig::new(1, 100, 3, 128, 32);
    }

    #[test]
    fn layer_norm_normalizes() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = ln.forward(&x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_constant_row_is_finite() {
        let ln = LayerNorm::new(3);
        let y = ln.forward(&Matrix::from_rows(&[&[5.0, 5.0, 5.0]]));
        assert!(y.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn ffn_shapes() {
        let mut rng = SeededRng::new(5);
        let ffn = FeedForward::random(16, 64, &mut rng);
        let x = Matrix::from_fn(3, 16, |_, _| rng.standard_normal() as f32);
        let y = ffn.forward(&x);
        assert_eq!((y.rows(), y.cols()), (3, 16));
    }

    #[test]
    fn layer_forward_is_finite_and_shaped() {
        let mut rng = SeededRng::new(6);
        let config = TransformerConfig::new(1, 32, 2, 64, 16);
        let layer = TransformerLayer::random(&config, &mut rng);
        let x = Matrix::from_fn(10, 32, |_, _| rng.standard_normal() as f32);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (10, 32));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_forward_with_custom_kernel_differs() {
        let mut rng = SeededRng::new(7);
        let config = TransformerConfig::new(1, 32, 2, 64, 16);
        let layer = TransformerLayer::random(&config, &mut rng);
        let x = Matrix::from_fn(8, 32, |_, _| rng.standard_normal() as f32);
        let exact = layer.forward(&x);
        let zeroed = layer.forward_with(&x, |inputs| {
            Matrix::zeros(inputs.num_queries(), inputs.value().cols())
        });
        assert!(exact.max_abs_diff(&zeroed) > 1e-4);
    }
}
