//! Tiled online-softmax **exact** attention — the FlashAttention-class
//! streaming kernel (Dao et al. 2022; modeled in hardware by H-FA and
//! Low-Cost FlashAttention, see `PAPERS.md`).
//!
//! [`flash_attention`] computes the same `softmax(QKᵀ·scale)·V` operator as
//! [`exact::attention_with_scale`](crate::exact::attention_with_scale), but
//! never materializes the `n_q × n` score matrix: each query row streams over
//! the keys in tiles of [`FlashConfig::tile`], maintaining a **running
//! maximum** and a **running sum of exponentials** across tiles, and then
//! accumulates the weighted value sum in a single `d_v`-wide register file.
//! Peak workspace is `O(n + d_v)` per active query row
//! ([`streaming_workspace_bytes`]) against the naive kernel's `O(n_q · n)`
//! score matrix ([`naive_workspace_bytes`]) — the reason it is the
//! memory-light functional form of the exact base pass
//! (`elsa-sim`'s `ElsaAccelerator::run_base_streaming`).
//!
//! # Numerical contract: 0 ulp, proven by schedule equality
//!
//! The classic single-pass FlashAttention recurrence *rescales* the running
//! sum and output accumulator by `exp(m_old − m_new)` whenever a later tile
//! raises the running maximum. That rescaling multiply rounds differently
//! for every tile size, so a kernel built on it can only ever be
//! "close to" the reference — and bit-stability across tile sizes (the
//! repo-wide determinism contract) would be unprovable.
//!
//! This kernel instead uses the *deferred-renormalization* (lazy-softmax)
//! schedule: the running maximum is folded to completion across all tiles
//! **before** any exponential is taken, so no accumulator is ever rescaled.
//! Every scalar operation is then literally the same operation, in the same
//! order, at the same precision as the naive pipeline
//! (`matmul_transpose_b → scale → softmax_in_place → matmul`):
//!
//! 1. `s_j = (Σ_k f64(q_k)·f64(K_jk)) as f32 · scale` — `f64`-accumulated
//!    dot in key order, cast, one `f32` scale multiply;
//! 2. `m = fold(-∞, f32::max)` over `s_0..s_{n-1}` in key order;
//! 3. `e_j = exp(f64(s_j − m))`, stored as `f32`; the running sum
//!    accumulates the *unrounded* `f64` exponentials in key order;
//! 4. `inv = (1/sum) as f32`; `w_j = (e_j as f32) · inv` in `f32`;
//! 5. `out_c = (Σ_j f64(w_j)·f64(V_jc)) as f32`, accumulated in key order.
//!
//! Tiling only blocks the loops; it never reassociates an accumulation and
//! never changes an operand. The kernel is therefore **bit-identical for
//! every tile size in `1..=n` and every `ELSA_THREADS`, and bit-identical
//! to the naive kernel** — a worst-case error bound of exactly **0 ulp**,
//! enforced (not just sampled) by `tests/flash_equivalence.rs`.
//!
//! The *cost* of the hardware single-pass schedule — the renormalization
//! multiplies this kernel deliberately defers, and the tile-reload traffic
//! of a fixed-size on-chip buffer — is still charged faithfully by the
//! FLOP/bytes model in [`crate::flops::FlashAttentionOps`] and by the
//! `elsa-baselines` `FlashModel` competitor; the functional kernel and the
//! cost model describe the same design point from the software and hardware
//! sides respectively.
//!
//! # Examples
//!
//! ```
//! use elsa_attention::exact::{self, AttentionInputs};
//! use elsa_attention::flash;
//! use elsa_linalg::{Matrix, SeededRng};
//!
//! let mut rng = SeededRng::new(7);
//! let mut mk = || Matrix::from_fn(33, 16, |_, _| rng.standard_normal() as f32);
//! let inputs = AttentionInputs::new(mk(), mk(), mk());
//!
//! let naive = exact::scaled_attention(&inputs);
//! let tiled = flash::flash_attention(&inputs, 1.0 / 4.0, flash::FlashConfig::new(8));
//! // Bit-identical, not merely close — n = 33 is not even divisible by 8.
//! assert_eq!(naive.as_slice(), tiled.as_slice());
//! ```

use elsa_linalg::{ops, Matrix};

use crate::exact::AttentionInputs;

/// Default key-tile size: matches the 64-row on-chip tile the
/// `elsa-baselines` `FlashModel` hardware competitor buffers, so the
/// software kernel and the cost model describe the same design point.
pub const DEFAULT_TILE: usize = 64;

/// Tiling parameters for the streaming kernel.
///
/// # Examples
///
/// ```
/// use elsa_attention::flash::FlashConfig;
/// assert_eq!(FlashConfig::default().tile, 64);
/// assert_eq!(FlashConfig::new(0).tile, 1); // clamped to at least one key
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashConfig {
    /// Number of keys processed per tile (clamped to `[1, n]` at run time).
    /// The output is bit-identical for every value; the tile only selects
    /// the modeled on-chip working set.
    pub tile: usize,
}

impl FlashConfig {
    /// A config with the given tile size (zero is clamped to one).
    #[must_use]
    pub fn new(tile: usize) -> Self {
        Self { tile: tile.max(1) }
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        Self { tile: DEFAULT_TILE }
    }
}

/// Tiled online-softmax exact attention `softmax(QKᵀ·scale)·V`.
///
/// Output is bit-identical to
/// [`exact::attention_with_scale`](crate::exact::attention_with_scale) for
/// every tile size and worker count (see the module docs for the proof
/// sketch, and `tests/flash_equivalence.rs` for the enforcement). Query rows
/// fan out over `elsa-parallel` workers; each row's streaming loop is
/// serial, so worker count is unobservable in the result.
#[must_use]
pub fn flash_attention(inputs: &AttentionInputs, scale: f32, config: FlashConfig) -> Matrix {
    let n = inputs.num_keys();
    let d_v = inputs.value().cols();
    let tile = config.tile.clamp(1, n);
    let mut out = Matrix::zeros(inputs.num_queries(), d_v);
    // Per query-key pair: a serial f64 dot and an accumulate, about four units
    // per element, and one f64 exp, about 32 (`elsa_parallel::MIN_PARALLEL_WORK`).
    let work = inputs
        .num_queries()
        .saturating_mul(n)
        .saturating_mul(4 * (inputs.dim() + d_v) + 32);
    out.par_rows_mut(work, |i, row| {
        stream_row(inputs, scale, tile, i, row);
    });
    out
}

/// Streaming kernel with the default tile size — the form
/// `ElsaAccelerator::run_base_streaming` calls.
#[must_use]
pub fn flash_attention_default(inputs: &AttentionInputs, scale: f32) -> Matrix {
    flash_attention(inputs, scale, FlashConfig::default())
}

/// One query row: three streaming passes over the key tiles, in key order.
fn stream_row(inputs: &AttentionInputs, scale: f32, tile: usize, i: usize, row: &mut [f32]) {
    let n = inputs.num_keys();
    let q = inputs.query().row(i);
    let key = inputs.key();
    let value = inputs.value();

    // Per-row workspace: one f32 lane per key (scores, then exponentials)
    // plus the f64 output accumulator — O(n + d_v), never O(n²).
    let mut lane = vec![0.0f32; n];
    let mut acc = vec![0.0f64; row.len()];

    // Pass 1 — scores and the running maximum, streamed tile by tile.
    // `running_max` after tile t is the online statistic m_t; folding it to
    // completion before pass 2 is the deferred-renormalization schedule.
    let mut running_max = f32::NEG_INFINITY;
    for tile_start in (0..n).step_by(tile) {
        let tile_end = (tile_start + tile).min(n);
        for j in tile_start..tile_end {
            // Same op sequence as matmul_transpose_b (f64 dot, f32 cast)
            // followed by Matrix::scale (f32 multiply).
            let s = (ops::dot(q, key.row(j)) as f32) * scale;
            lane[j] = s;
            running_max = running_max.max(s);
        }
    }

    // A fully masked row (all scores −∞, or NaN-only) is the uniform
    // distribution, exactly as ops::softmax_in_place defines it.
    if running_max == f32::NEG_INFINITY {
        let w = 1.0 / n as f32;
        accumulate_tiles(value, &mut acc, tile, |_| w);
        for (slot, &a) in row.iter_mut().zip(&acc) {
            *slot = a as f32;
        }
        return;
    }

    // Pass 2 — exponentials and the running sum, streamed tile by tile.
    // The sum accumulates the unrounded f64 exponentials in key order; the
    // f32 rounding only affects the stored per-key weight, matching
    // softmax_in_place bit for bit.
    let mut running_sum = 0.0f64;
    for tile_start in (0..n).step_by(tile) {
        let tile_end = (tile_start + tile).min(n);
        for j in tile_start..tile_end {
            let e = f64::from(lane[j] - running_max).exp();
            lane[j] = e as f32;
            // elsa-lint: allow(reduction-order) reason="online-softmax streaming accumulator: the key-sequential order IS the kernel schedule, pinned bitwise by the flash equivalence battery"
            running_sum += e;
        }
    }
    let inv = (1.0 / running_sum) as f32;

    // Pass 3 — weighted value sum, streamed tile by tile, f64 accumulation
    // per output column in key order (matmul's exact schedule).
    accumulate_tiles(value, &mut acc, tile, |j| lane[j] * inv);
    for (slot, &a) in row.iter_mut().zip(&acc) {
        *slot = a as f32;
    }
}

/// Streams the value rows tile by tile, adding `weight(j) · V_j` into the
/// f64 accumulator — per-column accumulation order is ascending key order,
/// identical to the naive `S′·V` matmul.
fn accumulate_tiles(value: &Matrix, acc: &mut [f64], tile: usize, weight: impl Fn(usize) -> f32) {
    let n = value.rows();
    for tile_start in (0..n).step_by(tile) {
        let tile_end = (tile_start + tile).min(n);
        for j in tile_start..tile_end {
            let w = weight(j);
            for (a, &v) in acc.iter_mut().zip(value.row(j)) {
                *a += f64::from(w) * f64::from(v);
            }
        }
    }
}

/// Peak per-invocation workspace of the streaming kernel in bytes, with
/// `workers` query rows in flight: each active row holds one `f32` lane per
/// key plus a `d_v`-wide `f64` accumulator. `O(n·d)`-class — linear in `n`.
#[must_use]
pub fn streaming_workspace_bytes(n: usize, d_v: usize, workers: usize) -> u64 {
    workers.max(1) as u64 * (n as u64 * 4 + d_v as u64 * 8)
}

/// Workspace of the naive kernel in bytes: the materialized `n_q × n` `f32`
/// score matrix. `O(n²)` for self-attention.
#[must_use]
pub fn naive_workspace_bytes(num_queries: usize, n: usize) -> u64 {
    num_queries as u64 * n as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use elsa_linalg::SeededRng;

    fn random_inputs(n_q: usize, n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let q = Matrix::from_fn(n_q, d, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bit_identical_to_naive_across_tile_sizes() {
        let inputs = random_inputs(21, 37, 16, 1);
        let naive = exact::attention_with_scale(&inputs, 0.25);
        for tile in [1, 2, 8, 16, 37, 64, 1000] {
            let tiled = flash_attention(&inputs, 0.25, FlashConfig::new(tile));
            assert_eq!(bits(&naive), bits(&tiled), "tile {tile}");
        }
    }

    #[test]
    fn unscaled_matches_naive_attention() {
        let inputs = random_inputs(12, 12, 8, 2);
        assert_eq!(
            bits(&exact::attention(&inputs)),
            bits(&flash_attention_default(&inputs, 1.0))
        );
    }

    #[test]
    fn single_key_copies_value_row() {
        let inputs = random_inputs(3, 1, 8, 3);
        let out = flash_attention(&inputs, 1.0, FlashConfig::new(1));
        for i in 0..3 {
            for (a, b) in out.row(i).iter().zip(inputs.value().row(0)) {
                // softmax over one key is exactly 1.0.
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fully_masked_row_is_uniform() {
        // Scores overflow f32 to −∞ for every key: q = 3e38·1, k = −3e38·1.
        let d = 4;
        let q = Matrix::from_fn(2, d, |_, _| 3.0e38);
        let k = Matrix::from_fn(5, d, |_, _| -3.0e38);
        let v = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let naive = exact::attention(&inputs);
        for tile in [1, 2, 5, 8] {
            let tiled = flash_attention(&inputs, 1.0, FlashConfig::new(tile));
            assert_eq!(bits(&naive), bits(&tiled), "tile {tile}");
        }
        // And the semantics really is the uniform mixture of value rows.
        let mean: f32 = (0..5).map(|r| inputs.value()[(r, 0)] * 0.2).sum();
        assert!((naive[(0, 0)] - mean).abs() < 1e-5);
    }

    #[test]
    fn rectangular_values_supported() {
        // d_v ≠ d: value width differs from key/query width.
        let mut rng = SeededRng::new(4);
        let q = Matrix::from_fn(5, 8, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(9, 8, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(9, 3, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let naive = exact::attention_with_scale(&inputs, 1.0);
        let tiled = flash_attention(&inputs, 1.0, FlashConfig::new(4));
        assert_eq!(bits(&naive), bits(&tiled));
    }

    #[test]
    fn workspace_accounting_is_linear_vs_quadratic() {
        // Streaming: 512·4 + 64·8 bytes per active row.
        assert_eq!(streaming_workspace_bytes(512, 64, 1), 512 * 4 + 64 * 8);
        assert_eq!(streaming_workspace_bytes(512, 64, 4), 4 * (512 * 4 + 64 * 8));
        // Naive: the full score matrix.
        assert_eq!(naive_workspace_bytes(512, 512), 512 * 512 * 4);
        // The asymptotic gap the streaming base pass relies on.
        let n = 2048;
        assert!(streaming_workspace_bytes(n, 64, 8) * 64 < naive_workspace_bytes(n, n));
    }

    #[test]
    fn workspace_claims_hold_at_64k() {
        // The long-context regime the docs promise: at n = 64k the naive
        // kernel's score matrix is 17.2 GB while the streaming kernel's
        // workspace stays around a megabyte — and both counts are exact
        // u64 arithmetic, no overflow, no saturation.
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
    fn tile_zero_is_clamped() {
        let inputs = random_inputs(4, 6, 8, 5);
        let a = flash_attention(&inputs, 1.0, FlashConfig::new(0));
        let b = flash_attention(&inputs, 1.0, FlashConfig::new(1));
        assert_eq!(bits(&a), bits(&b));
    }
}
