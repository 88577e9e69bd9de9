//! Pooled-KV attention: the rival approximation ELSA is benchmarked against.
//!
//! ESA/EASA-style accelerators attack the same `O(n²)` similarity wall as
//! ELSA from the opposite direction: instead of *selecting* candidates per
//! query, they *compress* the key/value sequence to a fixed budget `m ≪ n`
//! with adaptive pooling and run dense attention over it — no hashing, no
//! per-query selection, a cost independent of the attention pattern.
//!
//! [`PooledKvAttention`] models that rival behind ELSA's candidate-path
//! interface (`AttentionInputs` in, output matrix + stats out), so the
//! long-context frontier (`fig10_accuracy_vs_p`, `BENCH_longctx.json`)
//! scores both against the same exact reference on identical seeded
//! traces. Output segment `j` of `m` covers input rows
//! `⌊j·n/m⌋ .. ⌊(j+1)·n/m⌋`, tiling `[0, n)` with non-empty segments when
//! `m ≤ n`. Keys are reduced by [`PoolMode`], values are always averaged,
//! queries are untouched. Averages accumulate in `f64`, so a singleton
//! segment is an identity: with `budget ≥ n` the output is **bitwise
//! equal** to exact attention for both modes and at any `ELSA_THREADS`.
//! [`elsa_attention::flops::PooledAttentionOps`] counts the pooling pass,
//! the dense attention over the pooled rows, and the memory traffic.
//!
//! On the committed long-document traces at n ∈ {8k, 16k, 64k}, pooled-KV
//! is the cheapest rival (3–16% of exact FLOPs) but loses the ranking
//! (NDCG@10 ≤ 0.04, relative Frobenius error ≈ 1): uniform pooling washes
//! the planted relevant keys into their segment means, while ELSA holds
//! NDCG@10 = 1.0 at p = 1 and 0.9375–1.0 at p = 4.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_attention::flops::PooledAttentionOps;
use elsa_linalg::Matrix;

/// How key segments are reduced to one pooled row.
///
/// Values are always average-pooled regardless of the key mode: a max-pooled
/// value row would not approximate any convex combination the exact softmax
/// could produce, while the segment mean is the exact output in the limit of
/// uniform in-segment attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Segment mean (accumulated in `f64`, rounded once to `f32`).
    Average,
    /// Element-wise segment maximum — keeps the sharpest key feature per
    /// coordinate, trading score calibration for peak retention.
    Max,
}

impl PoolMode {
    /// Stable display name used in benchmark tables.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            PoolMode::Average => "avg",
            PoolMode::Max => "max",
        }
    }
}

/// Accounting for one pooled-KV invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Input key/value rows.
    pub n: usize,
    /// Pooled rows actually attended over: `min(budget, n)`.
    pub pooled: usize,
}

/// Deterministic pooled-KV attention with a fixed budget.
///
/// # Examples
///
/// ```
/// use elsa_attention::exact::{self, AttentionInputs};
/// use elsa_linalg::{Matrix, SeededRng};
/// use elsa_baselines::{PoolMode, PooledKvAttention};
///
/// let mut rng = SeededRng::new(9);
/// let inputs = AttentionInputs::new(
///     Matrix::from_fn(4, 8, |_, _| rng.standard_normal() as f32),
///     Matrix::from_fn(32, 8, |_, _| rng.standard_normal() as f32),
///     Matrix::from_fn(32, 8, |_, _| rng.standard_normal() as f32),
/// );
/// let pool = PooledKvAttention::new(8, PoolMode::Average);
/// let (out, stats) = pool.forward(&inputs);
/// assert_eq!(out.rows(), 4);
/// assert_eq!(stats.pooled, 8);
/// // A budget covering every key degenerates to exact attention, bitwise.
/// let (exact_out, _) = PooledKvAttention::new(32, PoolMode::Average).forward(&inputs);
/// assert_eq!(exact_out.max_abs_diff(&exact::attention(&inputs)), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledKvAttention {
    /// Target number of pooled key/value rows `m`.
    pub budget: usize,
    /// Key reduction mode.
    pub mode: PoolMode,
}

impl PooledKvAttention {
    /// Creates a pooled-KV model with the given budget and key mode.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn new(budget: usize, mode: PoolMode) -> Self {
        assert!(budget > 0, "pooling budget must be positive");
        Self { budget, mode }
    }

    /// Stable label for benchmark tables, e.g. `pooled-avg m=256`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("pooled-{} m={}", self.mode.name(), self.budget)
    }

    /// Runs attention over the pooled sequence: pools the key/value
    /// sequence down to `min(budget, n)` rows, leaving the queries
    /// untouched, then runs the same unscaled exact attention the ELSA
    /// candidate path reduces to.
    #[must_use]
    pub fn forward(&self, inputs: &AttentionInputs) -> (Matrix, PoolStats) {
        let n = inputs.num_keys();
        let m = self.budget.min(n);
        let pooled_k = pool_rows(inputs.key(), m, self.mode);
        let pooled_v = pool_rows(inputs.value(), m, PoolMode::Average);
        let pooled = AttentionInputs::new(inputs.query().clone(), pooled_k, pooled_v);
        (exact::attention(&pooled), PoolStats { n, pooled: m })
    }

    /// The FLOPs/bytes account for running this model on an `n_q × n × d`
    /// invocation (square value dimension).
    #[must_use]
    pub fn ops(&self, n_queries: usize, n: usize, d: usize) -> PooledAttentionOps {
        PooledAttentionOps::count(n_queries, n, d, d, self.budget)
    }
}

/// Adaptive-pools `input` down to `segments` rows. Segment `j` covers rows
/// `⌊j·n/s⌋ .. ⌊(j+1)·n/s⌋`, non-empty whenever `segments ≤ n`.
fn pool_rows(input: &Matrix, segments: usize, mode: PoolMode) -> Matrix {
    let n = input.rows();
    let d = input.cols();
    assert!(segments >= 1 && segments <= n, "need 1 <= segments <= rows");
    let mut out = Matrix::zeros(segments, d);
    for j in 0..segments {
        let start = j * n / segments;
        let end = (j + 1) * n / segments;
        let row = out.row_mut(j);
        match mode {
            PoolMode::Average => {
                let mut acc = vec![0.0f64; d];
                for i in start..end {
                    for (a, &x) in acc.iter_mut().zip(input.row(i)) {
                        *a += f64::from(x);
                    }
                }
                let inv = 1.0 / (end - start) as f64;
                for (o, a) in row.iter_mut().zip(&acc) {
                    *o = (a * inv) as f32;
                }
            }
            PoolMode::Max => {
                row.copy_from_slice(input.row(start));
                for i in start + 1..end {
                    for (o, &x) in row.iter_mut().zip(input.row(i)) {
                        if x > *o {
                            *o = x;
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_linalg::SeededRng;

    fn random_inputs(n_q: usize, n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        AttentionInputs::new(
            Matrix::from_fn(n_q, d, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32),
        )
    }

    #[test]
    fn full_budget_is_bitwise_exact() {
        let inputs = random_inputs(6, 40, 16, 3);
        for mode in [PoolMode::Average, PoolMode::Max] {
            let (out, stats) = PooledKvAttention::new(40, mode).forward(&inputs);
            assert_eq!(stats.pooled, 40);
            assert_eq!(out.max_abs_diff(&exact::attention(&inputs)), 0.0);
        }
        // Over-budget clamps to n and stays exact.
        let (out, stats) = PooledKvAttention::new(1000, PoolMode::Average).forward(&inputs);
        assert_eq!(stats.pooled, 40);
        assert_eq!(out.max_abs_diff(&exact::attention(&inputs)), 0.0);
    }

    #[test]
    fn segments_partition_rows() {
        // Max-pooling the identity reads the segments off `pool_rows`
        // itself: pooled row j holds 1 exactly in the columns of the rows
        // segment j covers. Non-divisible n: the segments must tile [0, n)
        // exactly, in order.
        for (n, m) in [(37usize, 8usize), (64, 5), (9, 9), (100, 1)] {
            let identity = Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
            let pooled = pool_rows(&identity, m, PoolMode::Max);
            let mut covered = 0usize;
            for j in 0..m {
                let rows: Vec<usize> = (0..n).filter(|&i| pooled[(j, i)] == 1.0).collect();
                assert!(!rows.is_empty(), "empty segment {j} of {m} over {n}");
                assert_eq!(rows[0], covered, "gap or overlap before segment {j} of {m} over {n}");
                let end = rows[0] + rows.len();
                assert_eq!(rows[rows.len() - 1], end - 1, "segment {j} of {m} over {n} has a hole");
                covered = end;
            }
            assert_eq!(covered, n, "segments of {m} over {n} stop short");
        }
    }

    #[test]
    fn average_pooling_averages() {
        let k = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f32);
        let pooled = pool_rows(&k, 2, PoolMode::Average);
        assert_eq!(pooled.row(0), &[1.0, 2.0]); // mean of rows 0,1
        assert_eq!(pooled.row(1), &[5.0, 6.0]); // mean of rows 2,3
        let maxed = pool_rows(&k, 2, PoolMode::Max);
        assert_eq!(maxed.row(0), &[2.0, 3.0]);
        assert_eq!(maxed.row(1), &[6.0, 7.0]);
    }

    #[test]
    fn forward_is_deterministic() {
        let inputs = random_inputs(4, 200, 32, 11);
        let pool = PooledKvAttention::new(16, PoolMode::Average);
        let (a, _) = pool.forward(&inputs);
        let (b, _) = pool.forward(&inputs);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn tighter_budgets_cost_less_and_approximate_worse() {
        let inputs = random_inputs(8, 256, 32, 7);
        let reference = exact::attention(&inputs);
        let loose = PooledKvAttention::new(128, PoolMode::Average);
        let tight = PooledKvAttention::new(8, PoolMode::Average);
        let (out_loose, _) = loose.forward(&inputs);
        let (out_tight, _) = tight.forward(&inputs);
        assert!(loose.ops(8, 256, 32).total() > tight.ops(8, 256, 32).total());
        let err_loose = reference.relative_frobenius_error(&out_loose);
        let err_tight = reference.relative_frobenius_error(&out_tight);
        assert!(
            err_tight > err_loose,
            "tight budget should hurt: {err_tight} vs {err_loose}"
        );
    }

    #[test]
    fn label_names_mode_and_budget() {
        let pool = PooledKvAttention::new(256, PoolMode::Max);
        assert_eq!(pool.label(), "pooled-max m=256");
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_zero_budget() {
        let _ = PooledKvAttention::new(0, PoolMode::Average);
    }
}
