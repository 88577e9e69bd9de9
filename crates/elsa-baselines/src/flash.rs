//! A FlashAttention-class streaming accelerator — the *modern exact*
//! competitor the 2021-era baseline set lacks.
//!
//! The model combines the tiled online-softmax dataflow (Dao et al. 2022)
//! with the hardware operators of the post-ELSA accelerator literature:
//! H-FA's log-domain accumulation and Low-Cost FlashAttention's fused
//! exponential-multiply units (see `PAPERS.md`). It is an analytic cost
//! model: those units enter only as lane counts and per-cycle throughput,
//! never as bit-level functional models, and no software kernel computes
//! its output. It is held **iso-compute with ELSA and the ideal
//! accelerator**: the same 528 multipliers at 1 GHz, twelve replicated
//! units — so any speedup it shows over the naive baseline is architectural
//! (no score-matrix spill), never a bigger-chip artifact.
//!
//! Cycle accounting is the roofline of three fully-overlapped engines, fed by
//! [`elsa_attention::flops::FlashAttentionOps`] so the FLOP/byte counts can
//! never diverge from the committed `BENCH_flash.json` accounting:
//!
//! * **multiply engine** — score + weighted-sum + renormalization FLOPs over
//!   `2 × multipliers` per cycle (one MAC = 2 FLOPs);
//! * **exp engine** — one fused exp·mult per lane per cycle across
//!   [`FlashModel::exp_mult_lanes`] lanes (the fusion is what lets the exp
//!   stream match the multiply array instead of stalling behind a separate
//!   multiplier pass);
//! * **memory engine** — compulsory HBM traffic plus tile reloads over
//!   [`FlashModel::hbm_bytes_per_cycle`].
//!
//! Like ELSA and the ideal accelerator — and unlike the GPU/TPU — it skips
//! padding rows.

use elsa_attention::flops::FlashAttentionOps;

use crate::AttentionDevice;

/// Analytic model of the streaming-attention accelerator.
///
/// # Examples
///
/// ```
/// use elsa_baselines::{AttentionDevice, FlashModel, IdealAccelerator};
/// let flash = FlashModel::paper();
/// // Iso-compute with the ideal dense accelerator...
/// assert_eq!(flash.peak_flops(), IdealAccelerator::paper().peak_flops());
/// // ...but slower per invocation: exact attention pays for renormalization
/// // and exponentials that the ideal model's pure-MAC count ignores.
/// let ideal = IdealAccelerator::paper();
/// assert!(flash.attention_latency_s(512, 512, 64) >= ideal.attention_latency_s(512, 512, 64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashModel {
    /// Number of multipliers (shared with ELSA-base: 528).
    pub multipliers: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Number of replicated units (matching ELSA's batch parallelism).
    pub num_units: usize,
    /// Fused exp·mult lanes: one `e^x · y` retired per lane per cycle.
    pub exp_mult_lanes: usize,
    /// Key/query tile rows buffered on chip.
    pub tile: usize,
    /// Sustained HBM bandwidth per unit, in bytes per cycle.
    pub hbm_bytes_per_cycle: f64,
}

impl FlashModel {
    /// The iso-compute configuration used in `BENCH_flash.json`: 528
    /// multipliers at 1 GHz and twelve units (identical to
    /// [`crate::IdealAccelerator::paper`]), 16 fused exp·mult lanes, 64-row
    /// tiles, and 64 B/cycle of HBM per unit (an HBM2-class budget: 900 GB/s
    /// chip-wide ÷ 12 units ≈ 75 B/cycle at 1 GHz, rounded down to a power
    /// of two).
    #[must_use]
    pub const fn paper() -> Self {
        Self {
            multipliers: 528,
            clock_ghz: 1.0,
            num_units: 12,
            exp_mult_lanes: 16,
            tile: 64,
            hbm_bytes_per_cycle: 64.0,
        }
    }

    /// The operation/byte counts for one `n × d` self-attention invocation
    /// at this model's tile size.
    #[must_use]
    pub fn ops(&self, n: usize, d: usize) -> FlashAttentionOps {
        FlashAttentionOps::count(n, n, d, d, self.tile)
    }

    /// Cycles for one `n × d` invocation on one unit: the bottleneck of the
    /// multiply, exp, and memory engines, each rounded up to whole cycles.
    #[must_use]
    pub fn attention_cycles(&self, n: usize, d: usize) -> u64 {
        let ops = self.ops(n, d);
        let mult_flops = ops.score_flops + ops.weighted_sum_flops + ops.renorm_flops
            + ops.division_flops;
        let mult = mult_flops.div_ceil(2 * self.multipliers as u64);
        let exp = ops.exp_ops.div_ceil(self.exp_mult_lanes as u64);
        let mem = (ops.total_bytes() as f64 / self.hbm_bytes_per_cycle).ceil() as u64;
        mult.max(exp).max(mem)
    }

    /// Which engine bounds the invocation: `"multiply"`, `"exp"`, or
    /// `"memory"` — the roofline diagnosis `BENCH_flash.json` reports.
    #[must_use]
    pub fn bottleneck(&self, n: usize, d: usize) -> &'static str {
        let ops = self.ops(n, d);
        let mult_flops = ops.score_flops + ops.weighted_sum_flops + ops.renorm_flops
            + ops.division_flops;
        let mult = mult_flops.div_ceil(2 * self.multipliers as u64);
        let exp = ops.exp_ops.div_ceil(self.exp_mult_lanes as u64);
        let mem = (ops.total_bytes() as f64 / self.hbm_bytes_per_cycle).ceil() as u64;
        if mem >= mult && mem >= exp {
            "memory"
        } else if mult >= exp {
            "multiply"
        } else {
            "exp"
        }
    }
}

impl AttentionDevice for FlashModel {
    fn name(&self) -> &str {
        "FlashAttention-class accelerator"
    }

    fn attention_latency_s(&self, n_real: usize, _n_padded: usize, d: usize) -> f64 {
        self.attention_cycles(n_real, d) as f64 * 1e-9 / self.clock_ghz
    }

    fn peak_flops(&self) -> f64 {
        2.0 * self.multipliers as f64 * self.clock_ghz * 1e9 * self.num_units as f64
    }

    fn attention_throughput(&self, n_real: usize, n_padded: usize, d: usize) -> f64 {
        self.num_units as f64 / self.attention_latency_s(n_real, n_padded, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealAccelerator;

    #[test]
    fn iso_compute_with_ideal() {
        assert_eq!(FlashModel::paper().peak_flops(), IdealAccelerator::paper().peak_flops());
    }

    #[test]
    fn never_faster_than_ideal_macs() {
        // The ideal model charges only the 2n²d MACs; flash charges those
        // plus exp/renorm/memory, so its cycle count dominates everywhere.
        let flash = FlashModel::paper();
        let ideal = IdealAccelerator::paper();
        for n in [16, 64, 128, 200, 512] {
            assert!(
                flash.attention_cycles(n, 64) >= ideal.attention_cycles(n, 64),
                "n={n}"
            );
        }
    }

    #[test]
    fn skips_padding() {
        let flash = FlashModel::paper();
        assert!(flash.attention_latency_s(128, 512, 64) < flash.attention_latency_s(512, 512, 64));
    }

    #[test]
    fn large_n_is_compute_bound_small_n_is_memory_bound() {
        // Streaming attention's arithmetic intensity grows with n: tiny
        // invocations are dominated by the compulsory Q/K/V transfer, large
        // ones by the n²-scaling multiply array.
        let flash = FlashModel::paper();
        assert_eq!(flash.bottleneck(16, 64), "memory");
        assert_eq!(flash.bottleneck(512, 64), "multiply");
    }

    #[test]
    fn throughput_scales_with_units() {
        let one = FlashModel { num_units: 1, ..FlashModel::paper() };
        let twelve = FlashModel::paper();
        let r = twelve.attention_throughput(512, 512, 64) / one.attention_throughput(512, 512, 64);
        assert!((r - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_match_roofline_by_hand() {
        let flash = FlashModel::paper();
        let ops = flash.ops(512, 64);
        let mult = (ops.score_flops + ops.weighted_sum_flops + ops.renorm_flops
            + ops.division_flops)
            .div_ceil(2 * 528);
        let exp = ops.exp_ops.div_ceil(16);
        let mem = (ops.total_bytes() as f64 / 64.0).ceil() as u64;
        assert_eq!(flash.attention_cycles(512, 64), mult.max(exp).max(mem));
    }
}
