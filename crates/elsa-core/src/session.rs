//! Streaming, query-at-a-time execution — the software mirror of the
//! hardware's flow (§IV-B), in two flavours:
//!
//! * [`ElsaSession`] borrows fixed key/value matrices, preprocesses them
//!   once, and then feeds queries one by one (the one-shot encoder flow).
//! * [`StreamingSession`] **owns** its KV state and grows it token by token
//!   via [`StreamingSession::append`]: each appended key hashes and norms
//!   *only itself* (`O(k)` work instead of the `O(n·k)` from-scratch
//!   preprocessing), which is the autoregressive-decode flow. Appending
//!   tokens `1..n` and then querying is bit-identical to building an
//!   [`ElsaSession`] over the final matrices — the equivalence battery in
//!   `tests/session_equivalence.rs` proves it 0-ulp across the workload
//!   zoo.
//!
//! Both sessions support *bounded* (causal) selection: restricting the scan
//! to a key prefix is free in hardware (the selection modules simply stop
//! earlier), and it is how the sequential recommenders (SASRec attends only
//! to previous interactions) run on ELSA. Candidate selection and the
//! candidate-restricted output row are computed by the *same* shared code
//! as the batch path ([`ElsaAttention::select_candidates_bounded`] and the
//! candidate-row kernel `elsa_linalg::ops::attend_candidates`, which the
//! sessions run on their own `f32` key rows), so the two session types and
//! `forward` cannot drift apart numerically. A decode step allocates only
//! the query's signature, its candidate list and its output row: the scan
//! works in stack buffers and the kernel in per-thread scratch.

use elsa_attention::exact::AttentionInputs;
use elsa_linalg::{ops, Matrix};

use crate::attention::{ElsaAttention, PreprocessedKeys, SelectionStats};

/// A preprocessed key/value context accepting a stream of queries.
///
/// # Examples
///
/// ```
/// use elsa_core::attention::{ElsaAttention, ElsaParams};
/// use elsa_core::session::ElsaSession;
/// use elsa_linalg::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(1);
/// let keys = Matrix::from_fn(32, 64, |_, _| rng.standard_normal() as f32);
/// let values = Matrix::from_fn(32, 64, |_, _| rng.standard_normal() as f32);
/// let operator = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
/// let mut session = ElsaSession::new(&operator, &keys, &values);
/// let q = rng.normal_vec(64);
/// let row = session.query(&q);
/// assert_eq!(row.len(), 64);
/// assert_eq!(session.stats().num_queries, 1);
/// ```
#[derive(Debug)]
pub struct ElsaSession<'a> {
    operator: &'a ElsaAttention,
    keys: &'a Matrix,
    values: &'a Matrix,
    pre: PreprocessedKeys,
    stats: SelectionStats,
}

impl<'a> ElsaSession<'a> {
    /// Preprocesses the keys (hashes + norms) for the given operator.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `values` have different row counts, the key
    /// dimension differs from the operator's, or `keys` is empty.
    #[must_use]
    pub fn new(operator: &'a ElsaAttention, keys: &'a Matrix, values: &'a Matrix) -> Self {
        assert!(keys.rows() > 0, "session needs at least one key");
        assert_eq!(keys.rows(), values.rows(), "key/value row mismatch");
        assert_eq!(keys.cols(), operator.params().hasher().dim(), "key dimension mismatch");
        let pre = PreprocessedKeys::compute(operator.params(), keys);
        let stats = SelectionStats {
            num_keys: keys.rows(),
            ..SelectionStats::default()
        };
        Self { operator, keys, values, pre, stats }
    }

    /// Number of keys in the context.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.keys.rows()
    }

    /// The preprocessing product (hashes/norms), for inspection.
    #[must_use]
    pub fn preprocessed(&self) -> &PreprocessedKeys {
        &self.pre
    }

    /// Accumulated selection statistics over all queries so far.
    #[must_use]
    pub const fn stats(&self) -> SelectionStats {
        self.stats
    }

    /// Processes one query against the full context, returning its output
    /// row.
    #[must_use]
    pub fn query(&mut self, q: &[f32]) -> Vec<f32> {
        self.query_bounded(q, self.keys.rows())
    }

    /// Processes one query restricted to the first `limit` keys (causal
    /// masking when `limit = position + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` or `limit > num_keys()`.
    #[must_use]
    pub fn query_bounded(&mut self, q: &[f32], limit: usize) -> Vec<f32> {
        let qh = self.operator.params().hasher().hash(q);
        let (candidates, fallback) = self.operator.select_candidates_bounded(&qh, &self.pre, limit);
        self.stats.total_pairs += limit;
        self.stats.selected_pairs += candidates.len();
        self.stats.num_queries += 1;
        self.stats.fallback_queries += usize::from(fallback);
        attend_candidates(self.operator, self.keys, self.values, q, &candidates)
    }
}

/// An append-only key/value context for autoregressive decode.
///
/// Unlike [`ElsaSession`] this session *owns* its matrices and preprocessing
/// state. [`append`](Self::append) hashes and norms only the new key
/// ([`PreprocessedKeys::append`]), so a decode step over an `n`-token
/// context costs `O(k)` hash work instead of the `O(n·k)` a from-scratch
/// [`PreprocessedKeys::compute`] pays. The running max-norm, signatures,
/// norms, candidate sets, and output rows are bit-identical to a session
/// built from the final matrices (see `tests/session_equivalence.rs`).
///
/// # Examples
///
/// ```
/// use elsa_core::attention::{ElsaAttention, ElsaParams};
/// use elsa_core::session::StreamingSession;
/// use elsa_linalg::SeededRng;
///
/// let mut rng = SeededRng::new(1);
/// let operator = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
/// let mut session = StreamingSession::new(&operator);
/// for _ in 0..8 {
///     let k = rng.normal_vec(64);
///     let v = rng.normal_vec(64);
///     session.append(&k, &v);
/// }
/// let q = rng.normal_vec(64);
/// let row = session.query(&q);
/// assert_eq!(row.len(), 64);
/// assert_eq!(session.num_keys(), 8);
/// ```
#[derive(Debug)]
pub struct StreamingSession<'a> {
    operator: &'a ElsaAttention,
    keys: Matrix,
    values: Matrix,
    pre: PreprocessedKeys,
    stats: SelectionStats,
}

impl<'a> StreamingSession<'a> {
    /// Creates an empty session whose value rows have the same dimension as
    /// the operator's key dimension (the common square case).
    #[must_use]
    pub fn new(operator: &'a ElsaAttention) -> Self {
        let d = operator.params().hasher().dim();
        Self::with_value_dim(operator, d)
    }

    /// Creates an empty session with an explicit value-row dimension
    /// (rectangular `d_v != d` contexts).
    #[must_use]
    pub fn with_value_dim(operator: &'a ElsaAttention, value_dim: usize) -> Self {
        let d = operator.params().hasher().dim();
        Self {
            operator,
            keys: Matrix::zeros(0, d),
            values: Matrix::zeros(0, value_dim),
            pre: PreprocessedKeys::empty(),
            stats: SelectionStats::default(),
        }
    }

    /// Appends one token: stores its key/value rows and incrementally
    /// extends the preprocessing state (hash, norm, running max-norm) for
    /// the new key only.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not match the operator's dimension or `value`
    /// does not match the session's value dimension.
    pub fn append(&mut self, key: &[f32], value: &[f32]) {
        self.pre.append(self.operator.params(), key);
        self.keys.push_row(key);
        self.values.push_row(value);
        self.stats.num_keys = self.keys.rows();
    }

    /// Appends every row of `keys`/`values` in order — a convenience for
    /// prompt prefill.
    ///
    /// # Panics
    ///
    /// Panics if the matrices have different row counts or their widths do
    /// not match the session's dimensions.
    pub fn append_rows(&mut self, keys: &Matrix, values: &Matrix) {
        assert_eq!(keys.rows(), values.rows(), "key/value row mismatch");
        for r in 0..keys.rows() {
            self.append(keys.row(r), values.row(r));
        }
    }

    /// Number of tokens appended so far.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.keys.rows()
    }

    /// `true` before the first [`append`](Self::append).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.rows() == 0
    }

    /// The incrementally maintained preprocessing product, for inspection.
    #[must_use]
    pub fn preprocessed(&self) -> &PreprocessedKeys {
        &self.pre
    }

    /// Accumulated selection statistics over all queries so far.
    #[must_use]
    pub const fn stats(&self) -> SelectionStats {
        self.stats
    }

    /// Approximate resident bytes of the cached state (KV rows + signatures
    /// + norms) — the quantity the serving-layer session cache accounts.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let kv = (self.keys.rows() * self.keys.cols() + self.values.rows() * self.values.cols())
            * core::mem::size_of::<f32>();
        let sig = self.keys.rows() * self.operator.params().hasher().k() / 8;
        let norms = self.keys.rows() * core::mem::size_of::<f64>();
        kv + sig + norms
    }

    /// Processes one query against the full appended context, returning its
    /// output row.
    ///
    /// # Panics
    ///
    /// Panics if no tokens have been appended yet.
    #[must_use]
    pub fn query(&mut self, q: &[f32]) -> Vec<f32> {
        self.query_bounded(q, self.keys.rows())
    }

    /// Processes one query restricted to the first `limit` appended tokens
    /// (causal masking when `limit = position + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` or `limit > num_keys()`.
    #[must_use]
    pub fn query_bounded(&mut self, q: &[f32], limit: usize) -> Vec<f32> {
        let qh = self.operator.params().hasher().hash(q);
        let (candidates, fallback) = self.operator.select_candidates_bounded(&qh, &self.pre, limit);
        self.stats.total_pairs += limit;
        self.stats.selected_pairs += candidates.len();
        self.stats.num_queries += 1;
        self.stats.fallback_queries += usize::from(fallback);
        attend_candidates(self.operator, &self.keys, &self.values, q, &candidates)
    }
}

/// Exact attention over the candidate rows: both session types call the
/// shared [`ops::attend_candidates`] kernel that the batch path
/// (`exact::attention_with_candidates`) runs too, on the sessions' own `f32`
/// key rows, so a query over the same candidates produces the same bits
/// regardless of which path selected them. The kernel widens the query
/// itself; the keys stay `f32`, since widening every key for one query would
/// cost more than it saves.
fn attend_candidates(
    operator: &ElsaAttention,
    keys: &Matrix,
    values: &Matrix,
    q: &[f32],
    candidates: &[usize],
) -> Vec<f32> {
    let mut out = vec![0.0; values.cols()];
    let scale = operator.params().scale();
    ops::attend_candidates(q, keys.as_slice(), values, candidates, scale, &mut out);
    out
}

/// Convenience for whole-invocation causal attention through the operator:
/// query `i` selects among keys `0..=i` only.
#[must_use]
pub fn forward_causal(
    operator: &ElsaAttention,
    inputs: &AttentionInputs,
) -> (Matrix, SelectionStats) {
    let mut session = ElsaSession::new(operator, inputs.key(), inputs.value());
    let mut out = Matrix::zeros(inputs.num_queries(), inputs.value().cols());
    for i in 0..inputs.num_queries() {
        let limit = (i + 1).min(inputs.num_keys());
        let row = session.query_bounded(inputs.query().row(i), limit);
        out.row_mut(i).copy_from_slice(&row);
    }
    (out, session.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::ElsaParams;
    use elsa_attention::exact;
    use elsa_linalg::SeededRng;

    fn setup(seed: u64) -> (ElsaAttention, Matrix, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let n = 48;
        let d = 64;
        let keys = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let values = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let queries = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let operator = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
        (operator, queries, keys, values)
    }

    #[test]
    fn streaming_matches_batch_forward() {
        let (operator, q, k, v) = setup(1);
        let inputs = AttentionInputs::new(q.clone(), k.clone(), v.clone());
        let (batch_out, batch_stats) = operator.forward(&inputs);
        let mut session = ElsaSession::new(&operator, &k, &v);
        for i in 0..q.rows() {
            let row = session.query(q.row(i));
            for (a, b) in row.iter().zip(batch_out.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        assert_eq!(session.stats().selected_pairs, batch_stats.selected_pairs);
    }

    #[test]
    fn causal_forward_matches_exact_causal_with_full_selection() {
        let (operator, q, k, v) = setup(2);
        let inputs = AttentionInputs::new(q, k, v);
        let (out, stats) = forward_causal(&operator, &inputs);
        let exact_out = exact::causal_attention(&inputs, 1.0);
        assert!(out.max_abs_diff(&exact_out) < 1e-5);
        // Lower-triangular pair count: n(n+1)/2.
        let n = inputs.num_keys();
        assert_eq!(stats.total_pairs, n * (n + 1) / 2);
    }

    #[test]
    fn bounded_query_never_sees_future_keys() {
        let (operator, q, mut k, v) = setup(3);
        // Poison the "future" keys: identical to the query direction so
        // they'd certainly be selected if visible.
        for j in 24..48 {
            for c in 0..64 {
                k[(j, c)] = q[(0, c)] * 3.0;
            }
        }
        let mut session = ElsaSession::new(&operator, &k, &v);
        let _ = session.query_bounded(q.row(0), 24);
        assert_eq!(session.stats().total_pairs, 24);
        assert!(session.stats().selected_pairs <= 24);
    }

    #[test]
    fn stats_accumulate_across_queries() {
        let (operator, q, k, v) = setup(4);
        let mut session = ElsaSession::new(&operator, &k, &v);
        let _ = session.query(q.row(0));
        let _ = session.query(q.row(1));
        assert_eq!(session.stats().num_queries, 2);
        assert_eq!(session.stats().total_pairs, 2 * k.rows());
    }

    #[test]
    #[should_panic(expected = "limit out of range")]
    fn rejects_zero_limit() {
        let (operator, q, k, v) = setup(5);
        let mut session = ElsaSession::new(&operator, &k, &v);
        let _ = session.query_bounded(q.row(0), 0);
    }

    #[test]
    fn appended_session_matches_borrowing_session_bitwise() {
        let (operator, q, k, v) = setup(6);
        let mut streaming = StreamingSession::new(&operator);
        streaming.append_rows(&k, &v);
        let mut fixed = ElsaSession::new(&operator, &k, &v);
        assert_eq!(streaming.preprocessed().signatures(), fixed.preprocessed().signatures());
        assert_eq!(
            streaming.preprocessed().max_norm().to_bits(),
            fixed.preprocessed().max_norm().to_bits()
        );
        for i in 0..q.rows() {
            let a = streaming.query(q.row(i));
            let b = fixed.query(q.row(i));
            let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
        assert_eq!(streaming.stats(), fixed.stats());
    }

    #[test]
    fn streaming_decode_prefix_matches_prefix_session() {
        // Decode-as-you-go: after appending j tokens, the streaming session
        // must match an ElsaSession built over exactly those j rows (both
        // see the same prefix max-norm).
        let (operator, q, k, v) = setup(7);
        let mut streaming = StreamingSession::new(&operator);
        for j in 0..k.rows() {
            streaming.append(k.row(j), v.row(j));
            let kp = Matrix::from_fn(j + 1, k.cols(), |r, c| k[(r, c)]);
            let vp = Matrix::from_fn(j + 1, v.cols(), |r, c| v[(r, c)]);
            let mut fixed = ElsaSession::new(&operator, &kp, &vp);
            let a = streaming.query(q.row(j % q.rows()));
            let b = fixed.query(q.row(j % q.rows()));
            let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "prefix {} diverged", j + 1);
        }
    }

    #[test]
    fn state_bytes_grows_linearly() {
        let (operator, _q, k, v) = setup(8);
        let mut streaming = StreamingSession::new(&operator);
        assert_eq!(streaming.state_bytes(), 0);
        streaming.append(k.row(0), v.row(0));
        let per_token = streaming.state_bytes();
        streaming.append_rows(
            &Matrix::from_fn(3, k.cols(), |r, c| k[(r + 1, c)]),
            &Matrix::from_fn(3, v.cols(), |r, c| v[(r + 1, c)]),
        );
        assert_eq!(streaming.state_bytes(), 4 * per_token);
    }

    #[test]
    #[should_panic(expected = "limit out of range")]
    fn empty_streaming_query_panics() {
        let mut rng = SeededRng::new(9);
        let operator = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
        let mut session = StreamingSession::new(&operator);
        let q = vec![0.0f32; 64];
        let _ = session.query(&q);
    }
}
