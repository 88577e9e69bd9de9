//! The end-to-end approximate self-attention operator (§III-D, Fig. 4).
//!
//! [`ElsaAttention`] owns everything a deployed (sub-)layer needs: the SRP
//! hasher (shared by keys and queries), the similarity lookup table with its
//! angle correction, and the learned threshold `t`. Its [`ElsaAttention::forward`]
//! walks the exact algorithm of Fig. 4:
//!
//! * **preprocessing** — hash every key, compute every key norm and
//!   `t·‖K_max‖`;
//! * **per query** — hash the query, compute approximate similarities against
//!   all keys, select candidates by threshold, run exact attention over the
//!   candidates only.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_linalg::{ops, Matrix, SeededRng};

use crate::calibration::{calibrate_theta_bias, CalibrationConfig};
use crate::hashing::{hamming_words, BinaryHash, SrpHasher};
use crate::similarity::SimilarityLut;
use crate::threshold::ThresholdLearner;

/// Keys the candidate scan handles per block: their Hamming distances and
/// the indices of their matches fit in stack buffers.
const SCAN_BLOCK: usize = 256;

/// Immutable algorithm parameters shared by every invocation of one
/// (sub-)layer: the hasher and the angle-corrected similarity table.
#[derive(Debug, Clone)]
pub struct ElsaParams {
    hasher: SrpHasher,
    lut: SimilarityLut,
    scale: f32,
}

impl ElsaParams {
    /// Builds parameters from an explicit hasher and bias.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    #[must_use]
    pub fn new(hasher: SrpHasher, theta_bias: f64, scale: f32) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let lut = SimilarityLut::new(hasher.k(), theta_bias);
        Self { hasher, lut, scale }
    }

    /// Convenience constructor for a `d`-dimensional head with `k` hash bits:
    /// picks the hardware's three-way Kronecker projection when possible
    /// (`k = d`, `d` a perfect cube), a dense orthogonal projection
    /// otherwise, and the paper's `θ_bias = 0.127` for `d = k = 64` (a quick
    /// calibration run for other shapes).
    #[must_use]
    pub fn for_dims(d: usize, k: usize, rng: &mut SeededRng) -> Self {
        let cube_root = (d as f64).cbrt().round() as usize;
        let hasher = if k == d && cube_root.pow(3) == d {
            SrpHasher::kronecker_three_way(d, rng)
        } else {
            SrpHasher::dense(k, d, rng)
        };
        let theta_bias = if d == 64 && k == 64 {
            crate::THETA_BIAS_D64_K64
        } else {
            let cfg = CalibrationConfig { d, k, pairs: 500, hasher_draws: 2, percentile: 80.0 };
            calibrate_theta_bias(&cfg, rng)
        };
        Self::new(hasher, theta_bias, 1.0)
    }

    /// The hasher.
    #[must_use]
    pub fn hasher(&self) -> &SrpHasher {
        &self.hasher
    }

    /// The similarity lookup table.
    #[must_use]
    pub fn lut(&self) -> &SimilarityLut {
        &self.lut
    }

    /// The score scale used when computing exact attention over candidates.
    #[must_use]
    pub const fn scale(&self) -> f32 {
        self.scale
    }
}

/// The per-invocation preprocessing product (§III-D *Preprocessing*; what the
/// hardware stores in the key hash / key norm SRAMs).
///
/// The key signatures live in one flat store of `n × ⌈k/64⌉` packed words,
/// key `j`'s at `j · ⌈k/64⌉`, so the candidate scan walks one contiguous
/// array instead of one heap allocation per key.
#[derive(Debug, Clone)]
pub struct PreprocessedKeys {
    signatures: Vec<u64>,
    /// The hash length `k` the signatures were made with. The flat store
    /// keeps no per-key length, so this is what rejects a key or query
    /// hashed with another `k`, as `BinaryHash::hamming` does per pair.
    bits: usize,
    norms: Vec<f64>,
    max_norm: f64,
}

impl PreprocessedKeys {
    /// Hashes all keys and computes all key norms.
    #[must_use]
    pub fn compute(params: &ElsaParams, keys: &Matrix) -> Self {
        let signatures = params.hasher.hash_rows_flat(keys);
        let norms: Vec<f64> = (0..keys.rows()).map(|r| ops::norm(keys.row(r))).collect();
        let max_norm = norms.iter().copied().fold(0.0f64, f64::max);
        Self { signatures, bits: params.hasher.k(), norms, max_norm }
    }

    /// The empty preprocessing state an incremental decode session starts
    /// from. Appending every row of a key matrix in order reproduces
    /// [`PreprocessedKeys::compute`] **bit-identically**: per-row hashing and
    /// norms use the same serial kernels, and the running `max` here is the
    /// same left fold over `f64::max` that `compute` performs
    /// (`tests/session_equivalence.rs` enforces this at 0 ulp).
    #[must_use]
    pub const fn empty() -> Self {
        Self { signatures: Vec::new(), bits: 0, norms: Vec::new(), max_norm: 0.0 }
    }

    /// Appends the preprocessing state for one key row: O(k) hash work and
    /// one norm, instead of the O(n·k) full recompute — the software mirror
    /// of the hardware writing one new entry into the key hash / key norm
    /// SRAMs during autoregressive decode.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not match the hasher's input dimension, or if
    /// the hasher's hash length differs from the one the stored signatures
    /// were made with.
    pub fn append(&mut self, params: &ElsaParams, key: &[f32]) {
        let hasher = &params.hasher;
        assert!(self.is_empty() || self.bits == hasher.k(), "hash length mismatch");
        self.bits = hasher.k();
        let start = self.signatures.len();
        self.signatures.resize(start + hasher.words(), 0);
        hasher.hash_into(key, &mut self.signatures[start..]);
        let norm = ops::norm(key);
        self.max_norm = self.max_norm.max(norm);
        self.norms.push(norm);
    }

    /// Number of preprocessed keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether no key has been preprocessed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Every key signature, in key order, as one flat store: key `j`'s
    /// `⌈k/64⌉` packed words (low bit = bit 0) start at `j · ⌈k/64⌉` and
    /// equal `SrpHasher::hash(key_j).as_words()`.
    #[must_use]
    pub fn signatures(&self) -> &[u64] {
        &self.signatures
    }

    /// Key `j`'s packed signature words.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[must_use]
    pub fn signature(&self, j: usize) -> &[u64] {
        let words = self.bits.div_ceil(64);
        &self.signatures[j * words..][..words]
    }

    /// Key norms, in key order.
    #[must_use]
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// `‖K_max‖`, the largest key norm.
    #[must_use]
    pub const fn max_norm(&self) -> f64 {
        self.max_norm
    }
}

/// Selection statistics for one forward pass — the quantities Fig. 10's bars
/// (candidate fraction) and the performance model (average candidates per
/// query, which bounds accelerator throughput) are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectionStats {
    /// Total query–key pairs inspected (`n_q · n`).
    pub total_pairs: usize,
    /// Pairs that survived candidate selection.
    pub selected_pairs: usize,
    /// Number of queries processed.
    pub num_queries: usize,
    /// Number of keys.
    pub num_keys: usize,
    /// Queries whose threshold selected nothing (arg-max fallback applied).
    pub fallback_queries: usize,
}

impl SelectionStats {
    /// Fraction of query–key pairs selected as candidates (the bar heights
    /// of Fig. 10).
    #[must_use]
    pub fn candidate_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.selected_pairs as f64 / self.total_pairs as f64
        }
    }

    /// Average selected candidates per query (`c` in §IV-D's pipeline
    /// analysis).
    #[must_use]
    pub fn avg_candidates_per_query(&self) -> f64 {
        if self.num_queries == 0 {
            0.0
        } else {
            self.selected_pairs as f64 / self.num_queries as f64
        }
    }

    /// Merges statistics from another pass (used when aggregating over heads
    /// / layers / batches).
    #[must_use]
    pub fn merged(&self, other: &SelectionStats) -> SelectionStats {
        SelectionStats {
            total_pairs: self.total_pairs + other.total_pairs,
            selected_pairs: self.selected_pairs + other.selected_pairs,
            num_queries: self.num_queries + other.num_queries,
            num_keys: self.num_keys.max(other.num_keys),
            fallback_queries: self.fallback_queries + other.fallback_queries,
        }
    }
}

/// A ready-to-run approximate attention operator for one (sub-)layer.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct ElsaAttention {
    params: ElsaParams,
    threshold: f64,
}

impl ElsaAttention {
    /// Builds the operator from an explicit learned threshold.
    #[must_use]
    pub fn with_threshold(params: ElsaParams, threshold: f64) -> Self {
        Self { params, threshold }
    }

    /// Learns the layer threshold from training invocations at approximation
    /// degree `p` (§III-E) and returns the deployed operator.
    #[must_use]
    pub fn learn(params: ElsaParams, training: &[AttentionInputs], p: f64) -> Self {
        let mut learner = ThresholdLearner::with_scale(p, params.scale);
        for inputs in training {
            learner.observe(inputs);
        }
        Self { params, threshold: learner.learned_threshold() }
    }

    /// The exact fallback the paper describes for `p = 0`: a threshold of
    /// `−∞` selects every key, making the operator bit-equivalent to exact
    /// attention (at the cost of `c = n`).
    #[must_use]
    pub fn exact_fallback(params: ElsaParams) -> Self {
        Self { params, threshold: f64::NEG_INFINITY }
    }

    /// The learned threshold `t`.
    #[must_use]
    pub const fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The algorithm parameters.
    #[must_use]
    pub fn params(&self) -> &ElsaParams {
        &self.params
    }

    /// Selects candidate key indices for one (already hashed) query —
    /// the candidate selection module's function (§IV-C). Falls back to the
    /// single best-approximate-similarity key if the threshold filters out
    /// everything, so downstream softmax is always well defined.
    ///
    /// Returns `(candidates, used_fallback)`.
    #[must_use]
    pub fn select_candidates(
        &self,
        query_hash: &BinaryHash,
        pre: &PreprocessedKeys,
    ) -> (Vec<usize>, bool) {
        self.select_candidates_bounded(query_hash, pre, pre.len())
    }

    /// [`select_candidates`](Self::select_candidates) restricted to the
    /// first `limit` keys — the causal/bounded-prefix form the selection
    /// modules implement by simply stopping the scan earlier. The cutoff
    /// still uses `t·‖K_max‖` over the *whole* preprocessed context (the
    /// hardware stores one max-norm register, not one per prefix).
    ///
    /// Shared verbatim by the batch path, [`crate::session::ElsaSession`],
    /// and [`crate::session::StreamingSession`], so all three select
    /// bit-identically by construction.
    ///
    /// The scan walks the flat signature store in blocks of 256 keys, two
    /// passes per block: the first writes every key's Hamming distance (an
    /// XOR and a popcount per word) into a stack buffer; the second runs the
    /// `f64` test `lut[h] · ‖K_j‖ > t·‖K_max‖` and compacts the matches
    /// without a data-dependent branch (store the index, then advance the
    /// count by the test's result). Only when nothing passes does a rescan
    /// find the fallback key: the first one of maximal approximate
    /// similarity. Nothing but the result is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` or `limit > pre.len()`, or if the query hash
    /// length differs from the operator's `k`.
    #[must_use]
    pub fn select_candidates_bounded(
        &self,
        query_hash: &BinaryHash,
        pre: &PreprocessedKeys,
        limit: usize,
    ) -> (Vec<usize>, bool) {
        assert!(limit > 0 && limit <= pre.len(), "limit out of range");
        assert_eq!(query_hash.len(), self.params.lut.k(), "query hash length mismatch");
        assert_eq!(pre.bits, query_hash.len(), "hash length mismatch");
        self.select_words(query_hash.as_words(), pre, limit)
    }

    /// The scan of [`select_candidates_bounded`](Self::select_candidates_bounded)
    /// for a query signature given as packed words; the caller has checked
    /// its length against the keys' and `limit` against their count.
    ///
    /// The selected keys are those with `sim > cutoff`, in key order; when
    /// none passes, the fallback is the first key of maximal `sim` (a key
    /// replaces the running best unless `sim <= best`, so a NaN replaces it
    /// and is replaced by the next key).
    fn select_words(&self, q: &[u64], pre: &PreprocessedKeys, limit: usize) -> (Vec<usize>, bool) {
        let lut = self.params.lut.table();
        let cutoff = self.threshold * pre.max_norm();
        let words = q.len();
        let norms = &pre.norms()[..limit];
        let signatures = &pre.signatures()[..limit * words];
        let mut selected = Vec::new();
        let mut distances = [0u32; SCAN_BLOCK];
        let mut picked = [0usize; SCAN_BLOCK];
        for (block, (norms, signatures)) in
            norms.chunks(SCAN_BLOCK).zip(signatures.chunks(SCAN_BLOCK * words)).enumerate()
        {
            let distances = &mut distances[..norms.len()];
            // Hashes of at most 64 bits (the paper's k = 64) take a one-word
            // arm, which LLVM vectorizes as a packed popcount; the general
            // arm gives the same distances.
            match *q {
                [q0] => {
                    for (h, &s) in distances.iter_mut().zip(signatures) {
                        *h = (q0 ^ s).count_ones();
                    }
                }
                _ => {
                    for (h, s) in distances.iter_mut().zip(signatures.chunks_exact(words)) {
                        *h = hamming_words(q, s) as u32;
                    }
                }
            }
            let first = block * SCAN_BLOCK;
            let mut count = 0;
            for (j, (&h, &norm)) in (first..).zip(distances.iter().zip(norms)) {
                picked[count] = j;
                count += usize::from(lut[h as usize] * norm > cutoff);
            }
            selected.extend_from_slice(&picked[..count]);
        }
        if !selected.is_empty() {
            return (selected, false);
        }
        let mut best: Option<(usize, f64)> = None;
        for (j, (s, &norm)) in signatures.chunks_exact(words).zip(norms).enumerate() {
            let sim = lut[hamming_words(q, s)] * norm;
            match best {
                Some((_, b)) if sim <= b => {}
                _ => best = Some((j, sim)),
            }
        }
        let j = best.expect("limit > 0 guarantees a best key").0;
        (vec![j], true)
    }

    /// Computes candidate lists for every query of an invocation: the keys'
    /// [`PreprocessedKeys::compute`], then
    /// [`candidates_with`](Self::candidates_with).
    #[must_use]
    pub fn candidates(&self, inputs: &AttentionInputs) -> (Vec<Vec<usize>>, SelectionStats) {
        self.candidates_with(inputs, &PreprocessedKeys::compute(&self.params, inputs.key()))
    }

    /// [`candidates`](Self::candidates) over keys already preprocessed:
    /// `pre` holds the signatures and norms of exactly `inputs`' keys, made
    /// by [`PreprocessedKeys::compute`] or carried over a session's earlier
    /// turns by [`PreprocessedKeys::append`] (which reproduces `compute`
    /// bit for bit). The keys are not hashed again.
    ///
    /// The queries are hashed in one call (the block kernels of
    /// [`SrpHasher`]); per-query selection then fans out across worker
    /// threads when the invocation is large enough. Per-query results are
    /// collected in query order and the statistics are folded serially in
    /// that same order, so both outputs are bit-identical to the serial
    /// loop at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `pre` holds another number of keys than `inputs`, or
    /// signatures of another hash length than the operator's.
    #[must_use]
    pub fn candidates_with(
        &self,
        inputs: &AttentionInputs,
        pre: &PreprocessedKeys,
    ) -> (Vec<Vec<usize>>, SelectionStats) {
        assert_eq!(pre.len(), inputs.num_keys(), "preprocessed key count mismatch");
        assert_eq!(pre.bits, self.params.hasher.k(), "hash length mismatch");
        let queries = self.params.hasher.hash_rows_flat(inputs.query());
        let words = self.params.hasher.words();
        let mut stats = SelectionStats {
            total_pairs: inputs.num_queries() * inputs.num_keys(),
            num_queries: inputs.num_queries(),
            num_keys: inputs.num_keys(),
            ..SelectionStats::default()
        };
        // Per query: one scan step per key, which costs about 16 matmul
        // multiply-adds (see `elsa_parallel::MIN_PARALLEL_WORK`).
        let work = inputs.num_queries().saturating_mul(inputs.num_keys()).saturating_mul(16);
        // `AttentionInputs` holds at least one key, and both signatures come
        // from this operator's hasher.
        let select_one =
            |i: usize| self.select_words(&queries[i * words..][..words], pre, pre.len());
        let per_query_results: Vec<(Vec<usize>, bool)> = if elsa_parallel::beneficial(work) {
            elsa_parallel::par_map_indexed(inputs.num_queries(), select_one)
        } else {
            (0..inputs.num_queries()).map(select_one).collect()
        };
        let mut all = Vec::with_capacity(inputs.num_queries());
        for (cand, fallback) in per_query_results {
            stats.selected_pairs += cand.len();
            stats.fallback_queries += usize::from(fallback);
            all.push(cand);
        }
        (all, stats)
    }

    /// Full approximate forward pass: candidate selection followed by exact
    /// attention restricted to the candidates.
    #[must_use]
    pub fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        let (cands, stats) = self.candidates(inputs);
        let out = exact::attention_with_candidates(inputs, &cands, self.params.scale);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let q = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    /// Inputs where each query strongly attends to a few planted keys —
    /// the regime the approximation is designed for.
    fn peaked_inputs(n: usize, d: usize, relevant: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            // Query = weight-decayed sum of its relevant keys + small noise:
            // real attention rows have one dominant key and a short tail.
            let targets = rng.sample_indices(n, relevant);
            for (rank, &t) in targets.iter().enumerate() {
                let w = if rank == 0 { 2.0 } else { 0.6 };
                for c in 0..d {
                    q[(i, c)] += w * k[(t, c)];
                }
            }
            for c in 0..d {
                q[(i, c)] += 0.3 * rng.standard_normal() as f32;
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    #[test]
    fn exact_fallback_matches_exact_attention() {
        let inputs = random_inputs(32, 64, 1);
        let mut rng = SeededRng::new(2);
        let elsa = ElsaAttention::exact_fallback(ElsaParams::for_dims(64, 64, &mut rng));
        let (out, stats) = elsa.forward(&inputs);
        let exact = exact::attention(&inputs);
        assert!(out.max_abs_diff(&exact) < 1e-4);
        assert_eq!(stats.selected_pairs, 32 * 32);
        assert!((stats.candidate_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approximation_reduces_candidates_on_peaked_data() {
        let train = peaked_inputs(64, 64, 4, 10);
        let test = peaked_inputs(64, 64, 4, 11);
        let mut rng = SeededRng::new(3);
        let elsa = ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut rng), &[train], 1.0);
        let (_, stats) = elsa.forward(&test);
        assert!(
            stats.candidate_fraction() < 0.6,
            "candidate fraction {}",
            stats.candidate_fraction()
        );
        assert!(stats.selected_pairs >= 64, "every query keeps at least one key");
    }

    #[test]
    fn approximate_output_close_to_exact_on_peaked_data() {
        let train = peaked_inputs(64, 64, 4, 20);
        let test = peaked_inputs(64, 64, 4, 21);
        let mut rng = SeededRng::new(4);
        let elsa = ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut rng), &[train], 1.0);
        let (approx, _) = elsa.forward(&test);
        let exact = exact::attention(&test);
        let rel = exact.relative_frobenius_error(&approx);
        // The learned threshold sits exactly at the weakest "relevant" key,
        // so some marginal keys are lost — the paper's own accuracy-vs-p
        // trade-off (Fig. 10). What matters is that the output stays close.
        assert!(rel < 0.35, "relative output error {rel}");
    }

    #[test]
    fn larger_p_selects_fewer_candidates() {
        let train = peaked_inputs(96, 64, 6, 30);
        let test = peaked_inputs(96, 64, 6, 31);
        let mut rng = SeededRng::new(5);
        let params = ElsaParams::for_dims(64, 64, &mut rng);
        let frac = |p: f64| {
            let elsa = ElsaAttention::learn(params.clone(), std::slice::from_ref(&train), p);
            elsa.forward(&test).1.candidate_fraction()
        };
        let f_half = frac(0.5);
        let f_two = frac(2.0);
        let f_eight = frac(8.0);
        assert!(f_half >= f_two, "{f_half} < {f_two}");
        assert!(f_two >= f_eight, "{f_two} < {f_eight}");
    }

    #[test]
    fn fallback_guarantees_nonempty_candidates() {
        // An absurdly high threshold forces the fallback for every query.
        let inputs = random_inputs(16, 64, 6);
        let mut rng = SeededRng::new(7);
        let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(64, 64, &mut rng), 1e9);
        let (cands, stats) = elsa.candidates(&inputs);
        assert!(cands.iter().all(|c| c.len() == 1));
        assert_eq!(stats.fallback_queries, 16);
    }

    #[test]
    fn selected_keys_have_high_true_scores() {
        // Recall check: keys with large softmax scores should rarely be
        // dropped at conservative p.
        let train = peaked_inputs(64, 64, 3, 40);
        let test = peaked_inputs(64, 64, 3, 41);
        let mut rng = SeededRng::new(8);
        let elsa = ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut rng), &[train], 0.5);
        let (cands, _) = elsa.candidates(&test);
        let scores = exact::normalized_scores(&test, 1.0);
        let n = test.num_keys();
        let mut relevant = 0usize;
        let mut captured = 0usize;
        for i in 0..test.num_queries() {
            for j in 0..n {
                if scores[(i, j)] > 2.0 / n as f32 {
                    relevant += 1;
                    if cands[i].contains(&j) {
                        captured += 1;
                    }
                }
            }
        }
        let recall = captured as f64 / relevant.max(1) as f64;
        assert!(recall > 0.85, "recall of relevant keys {recall}");
    }

    #[test]
    fn stats_merge() {
        let a = SelectionStats {
            total_pairs: 100,
            selected_pairs: 20,
            num_queries: 10,
            num_keys: 10,
            fallback_queries: 1,
        };
        let b = SelectionStats {
            total_pairs: 300,
            selected_pairs: 60,
            num_queries: 30,
            num_keys: 10,
            fallback_queries: 0,
        };
        let m = a.merged(&b);
        assert_eq!(m.total_pairs, 400);
        assert_eq!(m.selected_pairs, 80);
        assert!((m.candidate_fraction() - 0.2).abs() < 1e-12);
        assert!((m.avg_candidates_per_query() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SelectionStats::default();
        assert_eq!(s.candidate_fraction(), 0.0);
        assert_eq!(s.avg_candidates_per_query(), 0.0);
    }
}
