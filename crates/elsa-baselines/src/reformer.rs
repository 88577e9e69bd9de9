//! Reformer-style LSH attention (Kitaev, Kaiser, Levskaya — ICLR 2020).
//!
//! Queries and keys are bucketed by a sign-random-projection hash; each
//! query attends only to keys in its own bucket, unioned over several
//! independent hashing rounds. This is the same LSH machinery ELSA builds
//! on — the crucial difference is *how the reduction is exploited*: Reformer
//! runs on commercial hardware and pays sorting/gather overheads that ELSA's
//! specialized selection pipeline avoids, which is exactly the paper's §V-E
//! argument. [`LshAttention::wall_clock_model_s`] quantifies it.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::hashing::SrpHasher;
use elsa_core::SelectionStats;
use elsa_linalg::{Matrix, SeededRng};

/// Configuration of the LSH attention baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshAttentionConfig {
    /// Hash bits per round (`2^bits` buckets).
    pub bucket_bits: usize,
    /// Independent hashing rounds whose candidate sets are unioned.
    pub rounds: usize,
}

impl Default for LshAttentionConfig {
    fn default() -> Self {
        Self { bucket_bits: 4, rounds: 2 }
    }
}

/// The LSH-bucketed attention operator.
///
/// # Examples
///
/// ```
/// use elsa_baselines::{LshAttention, LshAttentionConfig};
/// use elsa_linalg::{Matrix, SeededRng};
/// use elsa_attention::AttentionInputs;
///
/// let mut rng = SeededRng::new(0);
/// let lsh = LshAttention::new(64, LshAttentionConfig::default(), &mut rng);
/// let mut mk = || Matrix::from_fn(32, 64, |_, _| rng.standard_normal() as f32);
/// let inputs = AttentionInputs::new(mk(), mk(), mk());
/// let (out, stats) = lsh.forward(&inputs);
/// assert_eq!(out.rows(), 32);
/// assert!(stats.candidate_fraction() <= 1.0);
/// ```
#[derive(Debug)]
pub struct LshAttention {
    hashers: Vec<SrpHasher>,
    config: LshAttentionConfig,
}

impl LshAttention {
    /// Draws `rounds` independent `bucket_bits`-bit hashers for dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bits == 0`, `bucket_bits > 24`, or `rounds == 0`.
    #[must_use]
    pub fn new(d: usize, config: LshAttentionConfig, rng: &mut SeededRng) -> Self {
        assert!(config.bucket_bits > 0 && config.bucket_bits <= 24, "unreasonable bucket bits");
        assert!(config.rounds > 0, "need at least one round");
        let hashers = (0..config.rounds)
            .map(|_| SrpHasher::dense(config.bucket_bits, d, rng))
            .collect();
        Self { hashers, config }
    }

    /// Bucket id of a vector under round `r`.
    fn bucket(&self, round: usize, x: &[f32]) -> usize {
        let h = self.hashers[round].hash(x);
        let mut id = 0usize;
        for b in 0..h.len() {
            id |= usize::from(h.bit(b)) << b;
        }
        id
    }

    /// Computes the per-query candidate sets (union over rounds of
    /// same-bucket keys). Queries whose buckets are empty in every round
    /// fall back to attending their positional neighbour set `{i}` clamped
    /// into range (Reformer always attends within its own chunk).
    ///
    /// Each query's list concatenates its buckets' members over the rounds,
    /// then is sorted and deduplicated. Only the bucket-id hashing fans out
    /// across worker threads, so the sets are identical at any worker count.
    #[must_use]
    pub fn candidates(&self, inputs: &AttentionInputs) -> (Vec<Vec<usize>>, SelectionStats) {
        let n = inputs.num_keys();
        let nq = inputs.num_queries();
        let d = inputs.dim();
        let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); nq];
        // Per row one hash of `bucket_bits × d` dense projection multiplies,
        // about seven units each (see `elsa_parallel::MIN_PARALLEL_WORK`).
        let row_work = self.config.bucket_bits.saturating_mul(d).saturating_mul(7);
        for round in 0..self.config.rounds {
            // Bucket ids for all keys and queries (the parallelizable part).
            let ids = |m: &Matrix| -> Vec<usize> {
                if elsa_parallel::beneficial(m.rows().saturating_mul(row_work)) {
                    elsa_parallel::par_map_indexed(m.rows(), |i| self.bucket(round, m.row(i)))
                } else {
                    (0..m.rows()).map(|i| self.bucket(round, m.row(i))).collect()
                }
            };
            let (key_ids, query_ids) = (ids(inputs.key()), ids(inputs.query()));
            // Bucket all keys once, serially in key order. BTreeMap rather
            // than HashMap: the map is only ever probed by key (never
            // iterated), but the deterministic-crate policy (elsa-lint D2)
            // bans hash-ordered containers outright so order can never leak
            // into candidate sets through a future refactor.
            let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (j, &id) in key_ids.iter().enumerate() {
                buckets.entry(id).or_default().push(j);
            }
            for (list, id) in candidates.iter_mut().zip(&query_ids) {
                if let Some(members) = buckets.get(id) {
                    list.extend_from_slice(members);
                }
            }
        }
        let mut fallback_queries = 0;
        for (i, list) in candidates.iter_mut().enumerate() {
            if list.is_empty() {
                fallback_queries += 1;
                list.push(i.min(n - 1));
            } else {
                list.sort_unstable();
                list.dedup();
            }
        }
        let stats = crate::selection_stats(&candidates, n, fallback_queries);
        (candidates, stats)
    }

    /// Full forward pass: bucket, union, exact attention over candidates.
    #[must_use]
    pub fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        let (cands, stats) = self.candidates(inputs);
        (exact::attention_with_candidates(inputs, &cands, 1.0), stats)
    }

    /// Modeled wall-clock on commercial hardware (the V100's 14 TFLOPS):
    /// hashing + **bucket sort** (`rounds · n log n` with Reformer's large
    /// constant: segmented sorts, gathers, re-chunking) + gathered attention
    /// at low efficiency. This is what makes Reformer lose below `n ≈ 2048`
    /// despite the arithmetic reduction (§V-E).
    #[must_use]
    pub fn wall_clock_model_s(&self, n: usize, d: usize, avg_candidates: f64) -> f64 {
        let peak = crate::GpuModel::v100().peak_flops;
        let nf = n as f64;
        let hash =
            (2.0 * 2.0 * nf * self.config.bucket_bits as f64 * d as f64 * self.config.rounds as f64)
                / (peak * 0.3);
        // Sorting + chunk bookkeeping: ~10 ns per element per log-level per
        // round (measured Reformer overheads are of this order on V100).
        let sort = self.config.rounds as f64 * nf * nf.log2().max(1.0) * 10.0e-9;
        let attn = 4.0 * avg_candidates * nf * d as f64 / (peak * 0.05);
        hash + sort + attn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuModel;

    fn clustered_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        // Keys in a few directions; queries near their cluster's direction.
        let mut rng = SeededRng::new(seed);
        let clusters = 8;
        let centers = Matrix::from_fn(clusters, d, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, d, |r, c| {
            2.0 * centers[(r % clusters, c)] + 0.4 * rng.standard_normal() as f32
        });
        let q = Matrix::from_fn(n, d, |r, c| {
            2.0 * centers[(r % clusters, c)] + 0.4 * rng.standard_normal() as f32
        });
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    #[test]
    fn buckets_reduce_candidates() {
        let mut rng = SeededRng::new(1);
        let lsh = LshAttention::new(64, LshAttentionConfig { bucket_bits: 4, rounds: 1 }, &mut rng);
        let inputs = clustered_inputs(128, 64, 2);
        let (_, stats) = lsh.forward(&inputs);
        assert!(stats.candidate_fraction() < 0.6, "{}", stats.candidate_fraction());
        assert!(stats.selected_pairs >= 128);
    }

    #[test]
    fn more_rounds_more_recall_more_candidates() {
        let mut rng = SeededRng::new(3);
        let one = LshAttention::new(64, LshAttentionConfig { bucket_bits: 4, rounds: 1 }, &mut rng);
        let mut rng = SeededRng::new(3);
        let four = LshAttention::new(64, LshAttentionConfig { bucket_bits: 4, rounds: 4 }, &mut rng);
        let inputs = clustered_inputs(128, 64, 4);
        let (_, s1) = one.forward(&inputs);
        let (_, s4) = four.forward(&inputs);
        assert!(s4.candidate_fraction() >= s1.candidate_fraction());
    }

    #[test]
    fn same_cluster_keys_are_found() {
        // The query's own cluster (high-attention keys) should be captured.
        let mut rng = SeededRng::new(5);
        let lsh = LshAttention::new(64, LshAttentionConfig { bucket_bits: 3, rounds: 4 }, &mut rng);
        let inputs = clustered_inputs(64, 64, 6);
        let (cands, _) = lsh.candidates(&inputs);
        let mut captured = 0usize;
        let mut total = 0usize;
        for (i, set) in cands.iter().enumerate() {
            // Keys of the same cluster as query i:
            for j in (i % 8..64).step_by(8) {
                total += 1;
                if set.contains(&j) {
                    captured += 1;
                }
            }
        }
        let recall = captured as f64 / total as f64;
        assert!(recall > 0.7, "same-cluster recall {recall}");
    }

    #[test]
    fn output_close_to_exact_on_clustered_data() {
        let mut rng = SeededRng::new(7);
        let lsh = LshAttention::new(64, LshAttentionConfig { bucket_bits: 3, rounds: 4 }, &mut rng);
        let inputs = clustered_inputs(96, 64, 8);
        let (out, _) = lsh.forward(&inputs);
        let exact_out = exact::attention(&inputs);
        let rel = exact_out.relative_frobenius_error(&out);
        assert!(rel < 0.35, "relative error {rel}");
    }

    #[test]
    fn wall_clock_crossover_near_2048(/* §V-E: no speedup below ~2048 */) {
        let mut rng = SeededRng::new(9);
        let lsh = LshAttention::new(64, LshAttentionConfig::default(), &mut rng);
        let gpu = GpuModel::v100();
        // Below 2048: LSH attention on GPU is NOT faster than dense.
        for n in [256usize, 512, 1024] {
            let dense = gpu.attention_kernel_time_s(n, 64);
            let sparse = lsh.wall_clock_model_s(n, 64, 0.15 * n as f64);
            assert!(sparse >= dense * 0.9, "n={n}: sparse {sparse} vs dense {dense}");
        }
        // Well above: the asymptotics finally win.
        let n = 8192;
        let dense = gpu.attention_kernel_time_s(n, 64);
        let sparse = lsh.wall_clock_model_s(n, 64, 0.05 * n as f64);
        assert!(sparse < dense, "n={n}: sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn candidate_sets_are_sorted_and_replay_identically() {
        // Regression guard for the bucket-map container: candidate sets must
        // be a pure function of the inputs with ascending key order — no
        // trace of any map's iteration order may reach the output.
        let mut rng = SeededRng::new(11);
        let lsh = LshAttention::new(32, LshAttentionConfig::default(), &mut rng);
        let inputs = clustered_inputs(96, 32, 12);
        let (a, stats_a) = lsh.candidates(&inputs);
        let (b, stats_b) = lsh.candidates(&inputs);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(a.iter().all(|set| set.windows(2).all(|w| w[0] < w[1])), "unsorted candidates");
    }

    #[test]
    fn fallback_queries_get_a_candidate() {
        // Adversarial: zero-norm keys hash arbitrarily; every query still
        // ends with a nonempty set.
        let mut rng = SeededRng::new(10);
        let lsh = LshAttention::new(8, LshAttentionConfig { bucket_bits: 6, rounds: 1 }, &mut rng);
        let q = Matrix::from_fn(4, 8, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(4, 8, |_, _| rng.standard_normal() as f32);
        let v = Matrix::zeros(4, 8);
        let (cands, _) = lsh.candidates(&AttentionInputs::new(q, k, v));
        assert!(cands.iter().all(|c| !c.is_empty()));
    }

    /// The direct definition of the candidate sets, ascending by
    /// construction: key `j` is a candidate of query `i` iff their bucket
    /// ids match in some round, and a query that matches no key falls back
    /// to `{min(i, n − 1)}`. Returns the sets and the number of fallbacks.
    fn definition(lsh: &LshAttention, inputs: &AttentionInputs) -> (Vec<Vec<usize>>, usize) {
        let n = inputs.num_keys();
        let ids = |m: &Matrix, r: usize| -> Vec<usize> { (0..m.rows()).map(|i| lsh.bucket(r, m.row(i))).collect() };
        let rounds: Vec<_> = (0..lsh.config.rounds).map(|r| (ids(inputs.query(), r), ids(inputs.key(), r))).collect();
        let sets: Vec<Vec<usize>> = (0..inputs.num_queries())
            .map(|i| (0..n).filter(|&j| rounds.iter().any(|(q, k)| q[i] == k[j])).collect())
            .collect();
        let fallbacks = sets.iter().filter(|set| set.is_empty()).count();
        let sets = sets.into_iter().enumerate().map(|(i, set)| if set.is_empty() { vec![i.min(n - 1)] } else { set });
        (sets.collect(), fallbacks)
    }

    #[test]
    fn candidates_match_the_definition_at_any_worker_count() {
        let random = |n_q: usize, n: usize, d: usize, seed: u64| {
            let mut rng = SeededRng::new(seed);
            let mut mk = |rows| Matrix::from_fn(rows, d, |_, _| rng.standard_normal() as f32);
            AttentionInputs::new(mk(n_q), mk(n), mk(n))
        };
        // (bucket bits, rounds, inputs, whether the hashing fans out): the
        // 1200-row cases hash their keys and queries above the fan-out gate
        // at four workers, the rest below it; the 6-bit cases leave queries
        // whose buckets no key shares.
        let cases = [
            (4, 2, clustered_inputs(96, 64, 21), false),
            (4, 2, clustered_inputs(1200, 128, 22), true),
            (4, 3, random(97, 97, 64, 23), false),
            (4, 2, random(1200, 1200, 128, 24), true),
            (6, 1, random(40, 9, 16, 25), false),
            (6, 2, random(3, 30, 8, 26), false),
        ];
        let mut any_fallback = false;
        for (bucket_bits, rounds, inputs, fans_out) in cases {
            // The call site's hint: seven units per projection multiply.
            for rows in [inputs.num_queries(), inputs.num_keys()] {
                let work = rows * bucket_bits * inputs.dim() * 7;
                let crosses = elsa_parallel::with_threads(4, || elsa_parallel::beneficial(work));
                assert_eq!(crosses, fans_out, "{rows} rows, {bucket_bits} bits: hashing work {work}");
            }
            let lsh = LshAttention::new(inputs.dim(), LshAttentionConfig { bucket_bits, rounds }, &mut SeededRng::new(27));
            let (expected, fallbacks) = definition(&lsh, &inputs);
            any_fallback |= fallbacks > 0;
            for threads in [1, 4] {
                let (sets, stats) = elsa_parallel::with_threads(threads, || lsh.candidates(&inputs));
                assert_eq!(sets, expected, "{bucket_bits} bits x {rounds}, threads {threads}");
                assert_eq!(stats.fallback_queries, fallbacks);
                assert_eq!(stats.selected_pairs, expected.iter().map(Vec::len).sum::<usize>());
            }
        }
        assert!(any_fallback, "no case reached the fallback");
    }
}
