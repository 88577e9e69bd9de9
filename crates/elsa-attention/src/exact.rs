//! The exact self-attention operator (§II-A) and its candidate-restricted
//! variant.
//!
//! Three steps: ① similarity `S = QKᵀ` (optionally scaled by `1/√d`),
//! ② row-wise softmax `S′`, ③ weighted sum `O = S′V`.
//!
//! [`attention_with_candidates`] computes the same operator restricted to a
//! per-query subset of keys — the semantics the ELSA approximation and the
//! hardware's attention computation module implement. Each row is one call
//! of the shared candidate-row kernel [`ops::attend_candidates`] (the one
//! `elsa-core`'s decode sessions run too), over the key matrix widened to
//! `f64` once per call; the widening is exact, so the widened and the `f32`
//! keys give the same bits. The kernel keeps its buffers in per-thread
//! scratch and sums 32 output columns at a time in registers, with the bits
//! of one `axpy` per candidate into a zeroed row. With every key selected
//! for every query it agrees with [`attention`] to within `1e-5` per element
//! (one of the crate's invariant tests), but not bit for bit: it normalizes
//! the softmax with an `f64` divide where [`attention`] multiplies by an
//! `f32` reciprocal, and it accumulates the weighted value rows in `f32`
//! where [`attention`]'s PV product sums in `f64`. On random `9 × 8` inputs
//! about half the elements differ, by at most a few `1e-7`.

use elsa_linalg::{ops, Matrix};

/// Validated `(Q, K, V)` input triple for one self-attention invocation.
///
/// `Q` is `n_q × d`; `K` and `V` are `n × d`. (Self-attention has `n_q = n`;
/// the type allows `n_q ≠ n` so tests can exercise single-query paths.)
///
/// # Examples
///
/// ```
/// use elsa_attention::AttentionInputs;
/// use elsa_linalg::Matrix;
///
/// let inputs = AttentionInputs::new(Matrix::zeros(3, 8), Matrix::zeros(5, 8), Matrix::zeros(5, 8));
/// assert_eq!(inputs.num_queries(), 3);
/// assert_eq!(inputs.num_keys(), 5);
/// assert_eq!(inputs.dim(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionInputs {
    query: Matrix,
    key: Matrix,
    value: Matrix,
}

impl AttentionInputs {
    /// Bundles the three matrices, validating their shapes.
    ///
    /// # Panics
    ///
    /// Panics if `key.rows() != value.rows()`, if `query.cols() != key.cols()`,
    /// or if any matrix is empty.
    #[must_use]
    pub fn new(query: Matrix, key: Matrix, value: Matrix) -> Self {
        assert!(query.rows() > 0 && key.rows() > 0, "attention inputs must be nonempty");
        assert_eq!(query.cols(), key.cols(), "query/key dimension mismatch");
        assert_eq!(key.rows(), value.rows(), "key/value row count mismatch");
        Self { query, key, value }
    }

    /// The query matrix (`n_q × d`).
    #[must_use]
    pub fn query(&self) -> &Matrix {
        &self.query
    }

    /// The key matrix (`n × d`).
    #[must_use]
    pub fn key(&self) -> &Matrix {
        &self.key
    }

    /// The value matrix (`n × d_v`).
    #[must_use]
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Number of queries `n_q`.
    #[must_use]
    pub fn num_queries(&self) -> usize {
        self.query.rows()
    }

    /// Number of keys/values `n`.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.key.rows()
    }

    /// Head dimension `d` (of queries and keys).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.query.cols()
    }

    /// Truncates to the first `n` keys/values and queries — used to strip the
    /// padding rows that GPU implementations add (§V-C, *Throughput*).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the current sizes or is zero.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Self {
        assert!(n > 0 && n <= self.num_keys() && n <= self.num_queries());
        Self {
            query: self.query.row_slice(0..n),
            key: self.key.row_slice(0..n),
            value: self.value.row_slice(0..n),
        }
    }
}

/// The raw (unnormalized) attention score matrix `S = QKᵀ · scale`.
///
/// The scale multiplies the product's rows in place: the same `f32`
/// multiply as [`Matrix::scale`], without a second `n_q × n` matrix.
#[must_use]
pub fn attention_scores(inputs: &AttentionInputs, scale: f32) -> Matrix {
    let mut scores = inputs.query().matmul_transpose_b(inputs.key());
    // One f32 multiply per element: about one unit of
    // `elsa_parallel::MIN_PARALLEL_WORK`.
    let work = scores.rows().saturating_mul(scores.cols());
    scores.par_rows_mut(work, |_, row| row.iter_mut().for_each(|s| *s *= scale));
    scores
}

/// Exact *unscaled* self-attention `softmax(QKᵀ)·V`, matching the paper's
/// formulation (ELSA's models fold any `1/√d` scaling into the projections;
/// see [`scaled_attention`] for the scaled variant).
#[must_use]
pub fn attention(inputs: &AttentionInputs) -> Matrix {
    attention_with_scale(inputs, 1.0)
}

/// Exact *scaled* self-attention `softmax(QKᵀ/√d)·V`.
#[must_use]
pub fn scaled_attention(inputs: &AttentionInputs) -> Matrix {
    attention_with_scale(inputs, 1.0 / (inputs.dim() as f32).sqrt())
}

/// Exact self-attention with an arbitrary score scale.
#[must_use]
pub fn attention_with_scale(inputs: &AttentionInputs, scale: f32) -> Matrix {
    let mut scores = attention_scores(inputs, scale);
    softmax_rows(&mut scores);
    scores.matmul(inputs.value())
}

/// Row-wise in-place softmax, fanned out across rows when the matrix is
/// large enough to pay for it. Each row is normalized by the same serial
/// kernel, so results are bit-identical at any worker count.
fn softmax_rows(scores: &mut Matrix) {
    // One f64 exp per element: about 32 matmul multiply-adds (see
    // `elsa_parallel::MIN_PARALLEL_WORK` for the unit).
    let work = scores.rows().saturating_mul(scores.cols()).saturating_mul(32);
    scores.par_rows_mut(work, |_, row| ops::softmax_in_place(row));
}

/// The row-wise softmax-normalized score matrix `S′` (kept separate because
/// threshold learning in `elsa-core` inspects it directly).
#[must_use]
pub fn normalized_scores(inputs: &AttentionInputs, scale: f32) -> Matrix {
    let mut scores = attention_scores(inputs, scale);
    softmax_rows(&mut scores);
    scores
}

/// Self-attention restricted to a per-query candidate set: for query `i`,
/// only keys in `candidates[i]` participate in the softmax and the weighted
/// sum — the computation ELSA's attention computation module performs for
/// the keys that survive candidate selection.
///
/// An empty candidate list for a query produces an all-zero output row
/// (callers are expected to guarantee non-empty candidate sets; `elsa-core`
/// always falls back to the top-scoring key).
///
/// # Panics
///
/// Panics if `candidates.len() != inputs.num_queries()` or any index is out
/// of range.
#[must_use]
pub fn attention_with_candidates(
    inputs: &AttentionInputs,
    candidates: &[Vec<usize>],
    scale: f32,
) -> Matrix {
    assert_eq!(
        candidates.len(),
        inputs.num_queries(),
        "one candidate list per query required"
    );
    let dv = inputs.value().cols();
    let mut out = Matrix::zeros(inputs.num_queries(), dv);
    // The keys widened to `f64` once, so no dot product converts a key
    // element again (the widening is exact, so the scores keep their bits).
    let keys: Vec<f64> = inputs.key().as_slice().iter().map(|&x| f64::from(x)).collect();
    // Per-query rows are independent; fan them out when the total candidate
    // volume is large. Each row's computation is the unchanged serial kernel,
    // so the result is bit-identical at any worker count. One element of a
    // candidate's dot chain or weighted sum costs about two matmul
    // multiply-adds (the unit of `elsa_parallel::MIN_PARALLEL_WORK`).
    let total_cands: usize = candidates.iter().map(Vec::len).sum();
    let work = total_cands.saturating_mul(2 * (inputs.dim() + dv));
    out.par_rows_mut(work, |i, row| {
        let q = inputs.query().row(i);
        let (values, cands) = (inputs.value(), &candidates[i]);
        ops::attend_candidates(q, &keys, values, cands, scale, row);
    });
    out
}

/// Convenience: the candidate lists that select *every* key for every query.
#[must_use]
pub fn full_candidates(num_queries: usize, num_keys: usize) -> Vec<Vec<usize>> {
    vec![(0..num_keys).collect(); num_queries]
}

/// The causal candidate lists: query `i` may attend keys `0..=i` only — the
/// masking used by autoregressive models and the sequential recommenders
/// (SASRec attends only to *previous* interactions).
#[must_use]
pub fn causal_candidates(num_queries: usize, num_keys: usize) -> Vec<Vec<usize>> {
    (0..num_queries).map(|i| (0..=i.min(num_keys - 1)).collect()).collect()
}

/// Exact *causal* self-attention: `softmax` over keys `0..=i` per query `i`.
#[must_use]
pub fn causal_attention(inputs: &AttentionInputs, scale: f32) -> Matrix {
    let cands = causal_candidates(inputs.num_queries(), inputs.num_keys());
    attention_with_candidates(inputs, &cands, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_linalg::SeededRng;

    fn random_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let q = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    #[test]
    fn output_shape() {
        let inputs = random_inputs(6, 8, 1);
        let out = attention(&inputs);
        assert_eq!((out.rows(), out.cols()), (6, 8));
    }

    #[test]
    fn output_rows_are_convex_combinations() {
        // With V = identity-like basis rows, each output row equals the
        // softmax weights and must be a probability distribution.
        let mut rng = SeededRng::new(2);
        let n = 5;
        let q = Matrix::from_fn(n, 4, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, 4, |_, _| rng.standard_normal() as f32);
        let v = Matrix::identity(n);
        let out = attention(&AttentionInputs::new(q, k, v));
        for r in 0..n {
            let sum: f32 = out.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(out.row(r).iter().all(|&w| (0.0..=1.0).contains(&w)));
        }
    }

    #[test]
    fn attention_attends_to_matching_key() {
        // Query 0 is strongly aligned with key 2: output ~ value row 2.
        let d = 8;
        let mut k = Matrix::zeros(4, d);
        for j in 0..4 {
            k[(j, j)] = 10.0;
        }
        let mut q = Matrix::zeros(1, d);
        q[(0, 2)] = 10.0;
        let v = Matrix::from_fn(4, 2, |r, _| r as f32);
        let out = attention(&AttentionInputs::new(q, k, v));
        assert!((out[(0, 0)] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn scaled_matches_manual_scale() {
        let inputs = random_inputs(7, 16, 3);
        let scaled = scaled_attention(&inputs);
        let manual = attention_with_scale(&inputs, 1.0 / 4.0);
        assert!(scaled.max_abs_diff(&manual) < 1e-6);
    }

    #[test]
    fn full_candidates_match_dense_attention() {
        let inputs = random_inputs(9, 8, 4);
        let dense = attention(&inputs);
        let cands = full_candidates(9, 9);
        let sparse = attention_with_candidates(&inputs, &cands, 1.0);
        // A tolerance, not bit equality: the two paths normalize and
        // accumulate differently (see the module doc).
        assert!(dense.max_abs_diff(&sparse) < 1e-5);
    }

    #[test]
    fn singleton_candidate_copies_value_row() {
        let inputs = random_inputs(3, 8, 5);
        let cands = vec![vec![2], vec![0], vec![1]];
        let out = attention_with_candidates(&inputs, &cands, 1.0);
        for (i, c) in [2usize, 0, 1].iter().enumerate() {
            for (a, b) in out.row(i).iter().zip(inputs.value().row(*c)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_candidates_zero_row() {
        let inputs = random_inputs(2, 4, 6);
        let out = attention_with_candidates(&inputs, &[vec![], vec![0]], 1.0);
        assert!(out.row(0).iter().all(|&x| x == 0.0));
        assert!(out.row(1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn candidate_order_is_irrelevant() {
        let full = random_inputs(4, 8, 7);
        let inputs = AttentionInputs::new(
            full.query().row_slice(0..1),
            full.key().clone(),
            full.value().clone(),
        );
        let a = attention_with_candidates(&inputs, &[vec![0, 1, 2]], 1.0);
        let b = attention_with_candidates(&inputs, &[vec![2, 0, 1]], 1.0);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn normalized_scores_rows_sum_to_one() {
        let inputs = random_inputs(5, 8, 8);
        let s = normalized_scores(&inputs, 1.0);
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_attention_masks_future_keys() {
        let inputs = random_inputs(6, 8, 10);
        let out = causal_attention(&inputs, 1.0);
        // Query 0 sees only key 0: its output is exactly value row 0.
        for (a, b) in out.row(0).iter().zip(inputs.value().row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
        // Last query sees everything: matches dense attention's last row.
        let dense = attention(&inputs);
        for (a, b) in out.row(5).iter().zip(dense.row(5)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_candidates_are_lower_triangular() {
        let cands = causal_candidates(4, 4);
        assert_eq!(cands[0], vec![0]);
        assert_eq!(cands[2], vec![0, 1, 2]);
        assert_eq!(cands[3].len(), 4);
    }

    #[test]
    fn truncation_strips_padding() {
        let inputs = random_inputs(8, 4, 9);
        let t = inputs.truncated(3);
        assert_eq!(t.num_queries(), 3);
        assert_eq!(t.num_keys(), 3);
        assert_eq!(t.query().row(0), inputs.query().row(0));
    }

    #[test]
    #[should_panic(expected = "query/key dimension mismatch")]
    fn rejects_dimension_mismatch() {
        let _ = AttentionInputs::new(Matrix::zeros(2, 4), Matrix::zeros(2, 8), Matrix::zeros(2, 8));
    }

    #[test]
    #[should_panic(expected = "key/value row count mismatch")]
    fn rejects_row_mismatch() {
        let _ = AttentionInputs::new(Matrix::zeros(2, 4), Matrix::zeros(2, 4), Matrix::zeros(3, 4));
    }
}
