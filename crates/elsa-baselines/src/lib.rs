//! Baseline device models for the ELSA evaluation (§V).
//!
//! The paper compares ELSA against an NVIDIA V100 GPU, an *ideal* dense
//! accelerator (100%-utilized multipliers, no approximation), the A³
//! attention accelerator (HPCA 2020), and Google's TPUv2. This crate adds a
//! post-publication competitor the 2021 baseline set lacks: a
//! FlashAttention-class streaming accelerator ([`FlashModel`]) with fused
//! exp·mult units and tiled online softmax, held iso-compute with ELSA. None of that
//! hardware is available here, so each device is an **analytic cost model**:
//! peak throughput × kernel-level efficiency, with memory-bandwidth and
//! kernel-launch terms where they matter. Efficiency constants are fit once,
//! to the *published* characteristics of each device on attention-shaped
//! kernels (see each module's docs), and then every experiment reads from
//! the same model — no per-figure tuning.
//!
//! All models report **latency in seconds for one self-attention invocation**
//! (one `n × d` head) plus batched-throughput helpers, so the Fig. 11
//! comparisons are apples-to-apples with the cycle-level ELSA simulator.
//!
//! Beside them sit the rival *algorithms*, which produce outputs and
//! attended-pair statistics comparable with ELSA's operator: [`reformer`]
//! (LSH bucketing, §V-E), [`local`] windows (§V-E), [`segmented`]
//! attention (the §I workaround) and [`pool`]ed KV (the long-context
//! frontier's compression rival). All of them finish with `elsa-attention`'s
//! exact kernels, so quality comparisons against ELSA are apples-to-apples.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod a3;
pub mod flash;
pub mod gpu;
pub mod ideal;
pub mod local;
pub mod pool;
pub mod reformer;
pub mod segmented;
pub mod tpu;

pub use a3::A3Model;
pub use flash::FlashModel;
pub use gpu::GpuModel;
pub use ideal::IdealAccelerator;
pub use local::LocalAttention;
pub use pool::{PoolMode, PoolStats, PooledKvAttention};
pub use reformer::{LshAttention, LshAttentionConfig};
pub use segmented::SegmentedAttention;
pub use tpu::TpuModel;

use elsa_core::SelectionStats;

/// A device that can run the self-attention kernel — the common interface
/// the benchmark harness tabulates.
pub trait AttentionDevice {
    /// Human-readable device name.
    fn name(&self) -> &str;

    /// Latency in seconds for one self-attention invocation of `n_real`
    /// actual entities on hardware that processes `n_padded` rows
    /// (GPU/TPU implementations pad; accelerators do not).
    fn attention_latency_s(&self, n_real: usize, n_padded: usize, d: usize) -> f64;

    /// Peak arithmetic throughput in FLOP/s (FP32-equivalent), used for the
    /// paper's iso-peak-FLOPS normalization.
    fn peak_flops(&self) -> f64;

    /// Invocations per second given a batch of identical invocations
    /// (default: simple reciprocal of latency; devices with batch
    /// parallelism override).
    fn attention_throughput(&self, n_real: usize, n_padded: usize, d: usize) -> f64 {
        1.0 / self.attention_latency_s(n_real, n_padded, d)
    }
}

/// The statistics of a candidate rival's per-query key sets over
/// `num_keys` keys, `fallback_queries` of them fallbacks.
fn selection_stats(candidates: &[Vec<usize>], num_keys: usize, fallback_queries: usize) -> SelectionStats {
    SelectionStats {
        total_pairs: candidates.len() * num_keys,
        selected_pairs: candidates.iter().map(Vec::len).sum(),
        num_queries: candidates.len(),
        num_keys,
        fallback_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_work() {
        let devices: Vec<Box<dyn AttentionDevice>> = vec![
            Box::new(GpuModel::v100()),
            Box::new(IdealAccelerator::paper()),
            Box::new(TpuModel::v2()),
            Box::new(FlashModel::paper()),
        ];
        for d in &devices {
            let t = d.attention_latency_s(512, 512, 64);
            assert!(t > 0.0, "{} latency {t}", d.name());
            assert!(d.peak_flops() > 0.0);
        }
    }
}
