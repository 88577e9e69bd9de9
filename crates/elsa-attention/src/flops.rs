//! Operation counting for transformer inference (§II-B, Fig. 2).
//!
//! The cost model distinguishes the *attention kernel* — the `QKᵀ`, softmax
//! and `S′V` steps that ELSA accelerates — from everything else in a layer
//! (QKV/output projections and the FFN), because the paper's Fig. 2 is
//! exactly the ratio between those two quantities and the GPU/TPU baselines
//! are driven by these counts.
//!
//! Conventions: one multiply-accumulate = 2 FLOPs; one exponential/special
//! function = 1 op (a single SFU instruction on GPU).

use crate::transformer::TransformerConfig;

/// Widens a dimension counter into `u128` so chained products of 64k-class
/// sequence lengths and model widths cannot overflow mid-expression.
const fn wide(x: usize) -> u128 {
    x as u128
}

/// Narrows a `u128` operation count back into the `u64` counter domain,
/// saturating instead of wrapping if a configuration ever exceeds it.
fn saturating_u64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Rounds a nonnegative `f64` operation estimate into the `u64` counter
/// domain.
fn rounded_u64(x: f64) -> u64 {
    // elsa-lint: allow(arithmetic-headroom) reason="float->int `as` saturates at the target bounds by definition in Rust, which is exactly the explicit failure story A1 asks for"
    x.round().max(0.0) as u64
}

/// FLOP breakdown for a single transformer encoder layer at sequence length
/// `n`.
///
/// # Examples
///
/// ```
/// use elsa_attention::{flops::LayerFlops, TransformerConfig};
///
/// let cfg = TransformerConfig::new(24, 1024, 16, 4096, 512);
/// let layer = LayerFlops::for_layer(&cfg, 512);
/// // The attention kernel is a minority of per-layer FLOPs at n = 512...
/// assert!(layer.attention_kernel() < layer.total() / 2);
/// // ...but grows quadratically with n.
/// let long = LayerFlops::for_layer(&cfg, 2048);
/// assert!(long.attention_kernel() > 15 * layer.attention_kernel());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerFlops {
    /// Q, K, V input projections: `3 · n · d_model²` MACs.
    pub qkv_projection: u64,
    /// Similarity computation `QKᵀ` over all heads: `n² · d_model` MACs.
    pub attention_scores: u64,
    /// Softmax: `heads · n²` exponentials plus normalization.
    pub softmax: u64,
    /// Weighted sum `S′V` over all heads: `n² · d_model` MACs.
    pub weighted_sum: u64,
    /// Output projection: `n · d_model²` MACs.
    pub output_projection: u64,
    /// Feed-forward network: `2 · n · d_model · d_ff` MACs.
    pub ffn: u64,
    /// Residual adds + layer norms: `~8 · n · d_model` FLOPs.
    pub other: u64,
}

impl LayerFlops {
    /// Counts FLOPs for one encoder layer of `config` at sequence length `n`.
    #[must_use]
    pub fn for_layer(config: &TransformerConfig, n: usize) -> Self {
        let n = wide(n);
        let dm = wide(config.d_model);
        let dff = wide(config.d_ff);
        let h = wide(config.num_heads);
        Self {
            qkv_projection: saturating_u64(2 * 3 * n * dm * dm),
            attention_scores: saturating_u64(2 * n * n * dm),
            // exp + divide per score entry, per head.
            softmax: saturating_u64(2 * h * n * n),
            weighted_sum: saturating_u64(2 * n * n * dm),
            output_projection: saturating_u64(2 * n * dm * dm),
            ffn: saturating_u64(2 * 2 * n * dm * dff),
            other: saturating_u64(8 * n * dm),
        }
    }

    /// FLOPs of the part ELSA accelerates: scores + softmax + weighted sum.
    #[must_use]
    pub fn attention_kernel(&self) -> u64 {
        self.attention_scores.saturating_add(self.softmax).saturating_add(self.weighted_sum)
    }

    /// FLOPs of everything ELSA leaves on the host.
    #[must_use]
    pub fn non_attention(&self) -> u64 {
        self.qkv_projection
            .saturating_add(self.output_projection)
            .saturating_add(self.ffn)
            .saturating_add(self.other)
    }

    /// Total per-layer FLOPs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.attention_kernel().saturating_add(self.non_attention())
    }

    /// Fraction of layer FLOPs spent in the attention kernel.
    #[must_use]
    pub fn attention_fraction(&self) -> f64 {
        self.attention_kernel() as f64 / self.total() as f64
    }
}

/// Operation count of the ELSA *approximate* attention pipeline for one
/// `n × d` attention head with hash length `k` (3-way Kronecker hashing) and
/// `c̄` average selected candidates per query — the paper's §III-D cost
/// accounting, used to show the algorithmic reduction against
/// [`rect_attention_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxAttentionOps {
    /// Preprocessing: key hashes (`3·n·d^{4/3}` MACs) + key norms (`n·d`
    /// MACs), `2·(3·n·d^{4/3} + n·d)` FLOPs.
    pub preprocessing_flops: u64,
    /// Query hashing: `3·n·d^{4/3}` MACs, `6·n·d^{4/3}` FLOPs.
    pub query_hash_flops: u64,
    /// Per-pair approximate similarity: Hamming (XOR+popcount, counted as 1
    /// op per pair) + LUT + 1 multiply.
    pub similarity_ops: u64,
    /// Exact attention restricted to candidates: `2·c̄·n·d` MACs,
    /// `4·c̄·n·d` FLOPs.
    pub selected_attention_flops: u64,
}

impl ApproxAttentionOps {
    /// Counts operations for `n` entities of dimension `d`, hash length `k`,
    /// with `avg_candidates` keys surviving selection per query.
    #[must_use]
    pub fn count(n: usize, d: usize, avg_candidates: f64) -> Self {
        Self::count_queries(n, n, d, avg_candidates)
    }

    /// The rectangular variant: `n_queries` queries over `n` keys — the
    /// long-context decode shape (`n_q ≪ n`), where preprocessing still
    /// hashes every *key* but query hashing, similarity and selected
    /// attention scale with `n_q`. `count_queries(n, n, ..)` is exactly
    /// [`count`](Self::count).
    #[must_use]
    pub fn count_queries(n_queries: usize, n: usize, d: usize, avg_candidates: f64) -> Self {
        let nq = wide(n_queries);
        let n128 = wide(n);
        let d128 = wide(d);
        let hash = u128::from(rounded_u64(3.0 * (d as f64).powf(4.0 / 3.0).round()));
        let c = avg_candidates.max(0.0);
        Self {
            preprocessing_flops: saturating_u64(2 * (n128 * hash + n128 * d128)),
            query_hash_flops: saturating_u64(2 * nq * hash),
            similarity_ops: saturating_u64(2 * nq * n128),
            selected_attention_flops: rounded_u64(4.0 * c * n_queries as f64 * d as f64),
        }
    }

    /// Total operation count.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.preprocessing_flops
            .saturating_add(self.query_hash_flops)
            .saturating_add(self.similarity_ops)
            .saturating_add(self.selected_attention_flops)
    }
}

/// Dense rectangular attention FLOPs for `n_q` queries over `n` keys of
/// dimension `d` with values of width `d_v`: scores `2·n_q·n·d`, softmax
/// `n_q·n`, weighted sum `2·n_q·n·d_v`.
#[must_use]
pub fn rect_attention_ops(n_q: usize, n: usize, d: usize, d_v: usize) -> u64 {
    let (nq, n, d, dv) = (wide(n_q), wide(n), wide(d), wide(d_v));
    saturating_u64(2 * nq * n * d + nq * n + 2 * nq * n * dv)
}

/// Operation counts for one pooled-KV invocation: `n_q` queries over `n`
/// keys of dimension `d` (values of dimension `d_v`), pooled to
/// `m = min(budget, n)` rows — the rival of `elsa_baselines::pool`.
///
/// # Examples
///
/// ```
/// use elsa_attention::flops::{rect_attention_ops, PooledAttentionOps};
///
/// let ops = PooledAttentionOps::count(16, 65536, 64, 64, 256);
/// // The dense attention term shrinks by the 256x compression ratio...
/// assert_eq!(ops.attention_flops * 256, rect_attention_ops(16, 65536, 64, 64));
/// // ...while pooling touches each input element exactly once.
/// assert_eq!(ops.pooling_flops, 65536 * 128 + 256 * 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledAttentionOps {
    /// Adaptive pooling: one accumulate per input K/V element
    /// (`n·(d + d_v)`) plus one divide per pooled element (`m·(d + d_v)`).
    pub pooling_flops: u64,
    /// Dense attention over the pooled sequence:
    /// [`rect_attention_ops`]`(n_q, m, d, d_v)`.
    pub attention_flops: u64,
    /// Compulsory HBM traffic in `f32` bytes: stream K/V once to pool,
    /// read Q and the pooled K/V for attention, write the output.
    pub bytes: u64,
    /// Pooled rows actually attended over.
    pub pooled: u64,
}

impl PooledAttentionOps {
    /// Counts operations for an `n_q × n` invocation pooled to
    /// `min(budget, n)` rows.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn count(n_queries: usize, n: usize, d: usize, d_v: usize, budget: usize) -> Self {
        assert!(budget > 0, "pooling budget must be positive");
        let m = budget.min(n);
        let (nq, n128, d128, dv, m128) = (wide(n_queries), wide(n), wide(d), wide(d_v), wide(m));
        let kv_width: u128 = d128 + dv;
        Self {
            pooling_flops: saturating_u64(n128 * kv_width + m128 * kv_width),
            attention_flops: rect_attention_ops(n_queries, m, d, d_v),
            // Stream K/V for pooling, write + re-read pooled K/V, read Q,
            // write the output.
            bytes: saturating_u64(4 * (n128 * kv_width + m128 * kv_width + nq * d128 + nq * dv)),
            pooled: saturating_u64(m128),
        }
    }

    /// Total arithmetic operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.pooling_flops.saturating_add(self.attention_flops)
    }
}

/// FLOP/byte accounting for the tiled online-softmax (FlashAttention-class)
/// streaming baseline — the hardware competitor modeled by
/// `elsa-baselines::FlashModel`.
///
/// The design point is the true single-pass recurrence, so this count
/// deliberately charges:
///
/// * **Renormalization multiplies** — whenever a later tile raises the
///   running maximum, the running sum (1 multiply) and the `d_v`-wide output
///   accumulator (`d_v` multiplies) are rescaled by `exp(m_old − m_new)`.
///   The worst case — charged here so the competitor can never be
///   undercounted — is a rescale after *every* tile past the first:
///   `n_q · (⌈n/tile⌉ − 1) · (d_v + 2)` FLOPs (the `+2` is the rescale
///   factor's own exponential and the sum update).
/// * **Tile-reload bytes** — for self-attention the K/V stream does not fit
///   on chip, so each of the `⌈n_q/q_tile⌉` query-tile passes re-reads all
///   `n · (d + d_v)` K/V elements from HBM. Only the first pass is compulsory
///   traffic; the rest is tiling overhead, reported separately in
///   [`tile_reload_bytes`](Self::tile_reload_bytes).
///
/// # Examples
///
/// ```
/// use elsa_attention::flops::{rect_attention_ops, FlashAttentionOps};
///
/// let ops = FlashAttentionOps::count(512, 512, 64, 64, 64);
/// // Compute matches the exact kernel to leading order...
/// assert!(ops.total_flops() > rect_attention_ops(512, 512, 64, 64));
/// // ...and renormalization is charged on top, never hidden.
/// assert!(ops.renorm_flops > 0);
/// // Workspace is O(n·d)-class, not the naive O(n²) score matrix.
/// assert!(ops.workspace_bytes < 512 * 512 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashAttentionOps {
    /// `QKᵀ` scores: `2 · n_q · n · d` FLOPs (f64-accumulated MACs).
    pub score_flops: u64,
    /// Exponentials: one per (query, key) pair, `n_q · n` ops.
    pub exp_ops: u64,
    /// Worst-case online-renormalization cost:
    /// `n_q · (⌈n/tile⌉ − 1) · (d_v + 2)` FLOPs (accumulator + sum rescale
    /// plus the correction factor's exponential, once per tile boundary).
    pub renorm_flops: u64,
    /// Weighted value sum `S′V`: `2 · n_q · n · d_v` FLOPs.
    pub weighted_sum_flops: u64,
    /// Final division (hidden inside the recurrence by FLASH-D, but charged
    /// here): `n_q · (d_v + 1)` FLOPs.
    pub division_flops: u64,
    /// Compulsory HBM traffic: read Q/K/V once, write the output once
    /// (`f32` elements).
    pub hbm_bytes: u64,
    /// Extra K/V re-read traffic from the `⌈n_q/q_tile⌉ − 1` repeat passes
    /// of a fixed-size on-chip query tile.
    pub tile_reload_bytes: u64,
    /// Peak on-chip workspace: one query tile plus running statistics and
    /// the `d_v`-wide accumulators — `O(tile · d)`, independent of `n`.
    pub workspace_bytes: u64,
}

impl FlashAttentionOps {
    /// Counts operations for `n_q` queries over `n` keys of dimension `d`
    /// with value width `d_v`, streaming key tiles of `tile` rows (clamped
    /// to `[1, n]`; the same tile is used for the query dimension).
    #[must_use]
    pub fn count(n_q: usize, n: usize, d: usize, d_v: usize, tile: usize) -> Self {
        let tile = tile.clamp(1, n.max(1));
        let (n_q128, n128, d128, dv128) = (wide(n_q), wide(n), wide(d), wide(d_v));
        let tile128 = wide(tile);
        let key_tiles = n128.div_ceil(tile128);
        let query_passes = n_q128.div_ceil(tile128);
        let kv_bytes: u128 = n128 * (d128 + dv128) * 4;
        Self {
            score_flops: saturating_u64(2 * n_q128 * n128 * d128),
            exp_ops: saturating_u64(n_q128 * n128),
            renorm_flops: saturating_u64(n_q128 * key_tiles.saturating_sub(1) * (dv128 + 2)),
            weighted_sum_flops: saturating_u64(2 * n_q128 * n128 * dv128),
            division_flops: saturating_u64(n_q128 * (dv128 + 1)),
            hbm_bytes: saturating_u64(n_q128 * d128 * 4 + kv_bytes + n_q128 * dv128 * 4),
            tile_reload_bytes: saturating_u64(query_passes.saturating_sub(1) * kv_bytes),
            workspace_bytes: saturating_u64(tile128 * (d128 + dv128 + 2) * 4 + dv128 * 4),
        }
    }

    /// Total FLOPs (exponentials counted as 1 op, per the crate convention).
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.score_flops
            .saturating_add(self.exp_ops)
            .saturating_add(self.renorm_flops)
            .saturating_add(self.weighted_sum_flops)
            .saturating_add(self.division_flops)
    }

    /// Total off-chip traffic: compulsory bytes plus tile reloads.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.hbm_bytes.saturating_add(self.tile_reload_bytes)
    }
}

/// Off-chip traffic of the *naive* exact kernel for the same problem: on top
/// of the compulsory Q/K/V/output transfers it spills and re-reads the
/// `n_q × n` `f32` score matrix twice (once after `QKᵀ`, once after softmax)
/// when it exceeds on-chip capacity — the memory term the streaming dataflow
/// exists to delete.
#[must_use]
pub fn naive_attention_bytes(n_q: usize, n: usize, d: usize, d_v: usize) -> u64 {
    let (n_q128, n128, d128, dv128) = (wide(n_q), wide(n), wide(d), wide(d_v));
    let io: u128 = n_q128 * d128 * 4 + n128 * (d128 + dv128) * 4 + n_q128 * dv128 * 4;
    let score_matrix: u128 = n_q128 * n128 * 4;
    saturating_u64(io + 4 * score_matrix)
}

/// Peak workspace in bytes of an exact kernel that streams each query row
/// over the keys, with `workers` rows in flight: each active row holds one
/// `f32` lane per key plus a `d_v`-wide `f64` accumulator — linear in `n`.
#[must_use]
pub fn streaming_workspace_bytes(n: usize, d_v: usize, workers: usize) -> u64 {
    saturating_u64(wide(workers.max(1)) * (wide(n) * 4 + wide(d_v) * 8))
}

/// Workspace in bytes of the naive exact kernel: the materialized
/// `num_queries × n` `f32` score matrix, `O(n²)` for self-attention.
#[must_use]
pub fn naive_workspace_bytes(num_queries: usize, n: usize) -> u64 {
    saturating_u64(wide(num_queries) * wide(n) * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert_large() -> TransformerConfig {
        TransformerConfig::new(24, 1024, 16, 4096, 512)
    }

    #[test]
    fn attention_fraction_grows_with_n() {
        let cfg = bert_large();
        let f512 = LayerFlops::for_layer(&cfg, 512).attention_fraction();
        let f2048 = LayerFlops::for_layer(&cfg, 2048).attention_fraction();
        assert!(f2048 > f512);
        // Paper Fig. 2: ~38% average at published n rises to ~64% at 4x.
        assert!(f512 > 0.05 && f512 < 0.5, "fraction at 512 = {f512}");
        // (FLOP share; the *runtime* share of Fig. 2 is higher because GPU
        // attention kernels run at lower efficiency than the dense GEMMs.)
        assert!(f2048 > 0.2, "fraction at 2048 = {f2048}");
    }

    #[test]
    fn attention_fraction_grows_when_ffn_shrinks() {
        let cfg = bert_large();
        let slim = cfg.with_ffn_scaled(0.25);
        let f_full = LayerFlops::for_layer(&cfg, 512).attention_fraction();
        let f_slim = LayerFlops::for_layer(&slim, 512).attention_fraction();
        assert!(f_slim > f_full);
    }

    #[test]
    fn attention_kernel_formula() {
        // n² d MACs for scores and n² d for weighted sum => 4 n² d FLOPs + softmax.
        let cfg = TransformerConfig::new(1, 64, 1, 256, 128);
        let l = LayerFlops::for_layer(&cfg, 128);
        assert_eq!(l.attention_scores, 2 * 128 * 128 * 64);
        assert_eq!(l.weighted_sum, 2 * 128 * 128 * 64);
        assert_eq!(l.softmax, 2 * 128 * 128);
    }

    #[test]
    fn approx_ops_beat_exact_when_candidates_few() {
        let n = 512;
        let d = 64;
        let exact = rect_attention_ops(n, n, d, d);
        let approx = ApproxAttentionOps::count(n, d, 0.2 * n as f64);
        assert!(
            approx.total() < exact / 2,
            "approx {} vs exact {exact}",
            approx.total()
        );
    }

    #[test]
    fn approx_preprocessing_matches_paper_formula() {
        // 3 n d^{4/3} + n d multiplications (§III-D), two FLOPs each.
        let ops = ApproxAttentionOps::count(512, 64, 100.0);
        assert_eq!(ops.preprocessing_flops, 2 * (512 * (3 * 256) + 512 * 64));
        assert_eq!(ops.query_hash_flops, 2 * 512 * 768);
        assert_eq!(ops.selected_attention_flops, 4 * 100 * 512 * 64);
    }

    #[test]
    fn rect_ops_formula() {
        assert_eq!(
            rect_attention_ops(16, 8192, 64, 64),
            2 * 16 * 8192 * 64 + 16 * 8192 + 2 * 16 * 8192 * 64
        );
        // Square case: 4·n²·d for the two products plus n² exps.
        assert_eq!(rect_attention_ops(128, 128, 64, 64), 4 * 128 * 128 * 64 + 128 * 128);
        // Pooling charges that account over the pooled rows.
        assert_eq!(
            PooledAttentionOps::count(16, 8192, 64, 32, 256).attention_flops,
            rect_attention_ops(16, 256, 64, 32)
        );
    }

    #[test]
    fn pooled_cost_fits_u64_at_64k() {
        let ops = PooledAttentionOps::count(65536, 65536, 64, 64, 1024);
        // Leading term is 4·n_q·m·d ≈ 1.7e13 — far from u64 overflow, and
        // far below the exact kernel's 5.5e11-per-row quadratic blowup.
        assert!(ops.total() < u64::MAX / 1024);
        assert!(ops.total() < rect_attention_ops(65536, 65536, 64, 64));
        assert_eq!(ops.pooled, 1024);
    }

    #[test]
    fn pooled_budget_monotonicity() {
        let tight = PooledAttentionOps::count(16, 16384, 64, 64, 64);
        let loose = PooledAttentionOps::count(16, 16384, 64, 64, 1024);
        assert!(tight.total() < loose.total());
        assert!(tight.bytes < loose.bytes);
    }

    #[test]
    fn flash_ops_formulas() {
        let ops = FlashAttentionOps::count(512, 512, 64, 64, 64);
        assert_eq!(ops.score_flops, 2 * 512 * 512 * 64);
        assert_eq!(ops.exp_ops, 512 * 512);
        // 8 key tiles => 7 rescale boundaries of (64 + 2) FLOPs per query.
        assert_eq!(ops.renorm_flops, 512 * 7 * 66);
        assert_eq!(ops.weighted_sum_flops, 2 * 512 * 512 * 64);
        assert_eq!(ops.division_flops, 512 * 65);
        // 8 query passes => 7 full K/V reloads.
        assert_eq!(ops.tile_reload_bytes, 7 * 512 * 128 * 4);
    }

    #[test]
    fn flash_charges_at_least_exact_compute() {
        // The streaming baseline can never be undercounted relative to the
        // naive kernel: same score/sum MACs, renormalization on top.
        for (n, d, tile) in [(128, 64, 8), (512, 64, 64), (200, 64, 64), (33, 16, 8)] {
            let flash = FlashAttentionOps::count(n, n, d, d, tile);
            assert!(
                flash.total_flops() > rect_attention_ops(n, n, d, d),
                "n={n} tile={tile}"
            );
        }
    }

    #[test]
    fn flash_single_tile_has_no_renorm_or_reload() {
        // When everything fits in one tile the recurrence never rescales and
        // K/V stream exactly once.
        let ops = FlashAttentionOps::count(128, 128, 64, 64, 128);
        assert_eq!(ops.renorm_flops, 0);
        assert_eq!(ops.tile_reload_bytes, 0);
    }

    #[test]
    fn flash_workspace_independent_of_n() {
        let small = FlashAttentionOps::count(128, 128, 64, 64, 64);
        let large = FlashAttentionOps::count(4096, 4096, 64, 64, 64);
        assert_eq!(small.workspace_bytes, large.workspace_bytes);
        // The naive kernel's traffic includes the O(n²) score-matrix spill.
        assert!(naive_attention_bytes(4096, 4096, 64, 64) > large.total_bytes());
    }

    #[test]
    fn workspace_accounting_is_linear_vs_quadratic() {
        // Streaming: 512·4 + 64·8 bytes per active row.
        assert_eq!(streaming_workspace_bytes(512, 64, 1), 512 * 4 + 64 * 8);
        assert_eq!(streaming_workspace_bytes(512, 64, 4), 4 * (512 * 4 + 64 * 8));
        // Naive: the full score matrix.
        assert_eq!(naive_workspace_bytes(512, 512), 512 * 512 * 4);
        // At the serving config's n_max = 200, even 8 rows in flight stay
        // far below the score matrix, and the gap widens quadratically:
        // 4x the keys, ~4x the ratio.
        let n = 200;
        let streaming = streaming_workspace_bytes(n, 64, 8);
        let naive = naive_workspace_bytes(n, n);
        assert!(streaming * 10 < naive, "streaming {streaming} B vs naive {naive} B");
        let big = naive_workspace_bytes(4 * n, 4 * n) as f64
            / streaming_workspace_bytes(4 * n, 64, 8) as f64;
        let small = naive as f64 / streaming as f64;
        assert!(big > 3.0 * small, "ratio {small} -> {big}");
        let n = 2048;
        assert!(streaming_workspace_bytes(n, 64, 8) * 64 < naive_workspace_bytes(n, n));
    }

    #[test]
    fn workspace_claims_hold_at_64k() {
        // At n = 64k the naive kernel's score matrix is 17.2 GB while the
        // streaming workspace stays around a megabyte — and both counts are
        // exact u64 arithmetic, no overflow, no saturation.
        let n = 65536;
        assert_eq!(naive_workspace_bytes(n, n), 17_179_869_184);
        assert_eq!(streaming_workspace_bytes(n, 64, 4), 4 * (65536 * 4 + 64 * 8));
        assert_eq!(streaming_workspace_bytes(n, 64, 4), 1_050_624);
        // O(n·d)-class vs O(n²): four orders of magnitude apart.
        assert!(streaming_workspace_bytes(n, 64, 4) * 10_000 < naive_workspace_bytes(n, n));
        // Rectangular decode shape: even 16 queries over 64k keys need a
        // 4 MB naive score matrix; streaming with 4 in-flight rows uses a
        // quarter of that, and its footprint never grows with n_q.
        assert_eq!(naive_workspace_bytes(16, n), 4_194_304);
        assert!(streaming_workspace_bytes(n, 64, 4) < naive_workspace_bytes(16, n));
    }

    #[test]
    fn smaller_tiles_cost_more_renorm_and_reload() {
        let coarse = FlashAttentionOps::count(512, 512, 64, 64, 128);
        let fine = FlashAttentionOps::count(512, 512, 64, 64, 8);
        assert!(fine.renorm_flops > coarse.renorm_flops);
        assert!(fine.tile_reload_bytes > coarse.tile_reload_bytes);
        assert!(fine.workspace_bytes < coarse.workspace_bytes);
    }

    #[test]
    fn rectangular_count_reduces_to_square_count() {
        for (n, d, c) in [(128usize, 64usize, 16.0), (512, 64, 50.0), (37, 16, 3.5)] {
            assert_eq!(
                ApproxAttentionOps::count_queries(n, n, d, c),
                ApproxAttentionOps::count(n, d, c)
            );
        }
    }

    #[test]
    fn rectangular_count_scales_query_terms_only() {
        let few = ApproxAttentionOps::count_queries(16, 65536, 64, 512.0);
        let full = ApproxAttentionOps::count_queries(65536, 65536, 64, 512.0);
        // Key preprocessing is shared; everything query-bound shrinks.
        assert_eq!(few.preprocessing_flops, full.preprocessing_flops);
        assert_eq!(few.similarity_ops, 2 * 16 * 65536);
        assert!(few.query_hash_flops < full.query_hash_flops);
        assert!(few.selected_attention_flops < full.selected_attention_flops);
    }

    #[test]
    fn counts_hold_exact_values_at_64k() {
        // Pin the 64k arithmetic: regressions here mean a cost model
        // overflowed or changed shape at the long-context extreme.
        // 4·n²·d + n² at n = 65536, d = 64 is n²·257.
        let exact = rect_attention_ops(65536, 65536, 64, 64);
        assert_eq!(exact, 65536 * 65536 * 257);
        let ops = ApproxAttentionOps::count(65536, 64, 1024.0);
        // hash = 3·round(64^(4/3)) = 3·256 = 768 MACs per vector.
        assert_eq!(ops.preprocessing_flops, 2 * 65536 * (768 + 64));
        assert_eq!(ops.similarity_ops, 2u64 * 65536 * 65536);
        assert_eq!(ops.selected_attention_flops, 4 * 1024 * 65536 * 64);
        assert!(ops.total() < exact);
        // The flash count's worst case also stays far inside u64.
        let flash = FlashAttentionOps::count(65536, 65536, 64, 64, 64);
        assert!(flash.total_flops() > exact);
        assert!(flash.total_flops() < u64::MAX / 1_000_000);
        assert!(naive_attention_bytes(65536, 65536, 64, 64) < u64::MAX / 1_000_000);
    }
}
