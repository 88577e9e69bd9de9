//! Generative model of attention inputs with controllable peakedness.
//!
//! Trained transformer attention heads concentrate most of each softmax row
//! on a handful of keys (one dominant token plus a short tail — Clark et
//! al., *What does BERT look at?*, 2019). The generator plants exactly that
//! structure: each query is a weighted combination of its `num_relevant`
//! target keys plus noise, rescaled so the dominant raw score reaches
//! `score_scale`. With `score_scale ≈ ln(n) + const`, the dominant key holds
//! most of the softmax mass while the ~n background keys collectively stay
//! small — the regime in which ELSA's approximation (and real attention
//! sparsity) operates.

use elsa_attention::exact::AttentionInputs;
use elsa_linalg::{ops, Matrix, SeededRng};

use crate::sessions::turn_query_rows;

/// Where a query's planted target keys are drawn from.
///
/// [`TargetStructure::Global`] is the original generator (targets uniform
/// over all `n` keys). The two structured variants model the long-context
/// regimes of `crate::longctx`: locality-windowed attention for
/// long-document decoding and passage-concentrated attention for
/// retrieval-augmented generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetStructure {
    /// Targets drawn uniformly over all `n` keys.
    Global,
    /// Causal locality: query `i` stands at position `n − n_queries + i`
    /// (the trailing decode positions of the document) and draws its
    /// targets from the `window` keys ending at its own position.
    Local {
        /// Size of the trailing attention window, in keys.
        window: usize,
    },
    /// Retrieval: each query draws all of its targets from one contiguous
    /// passage of `passage_len` keys whose offset is sampled per query —
    /// the score mass of the row concentrates inside that passage.
    Passage {
        /// Length of the relevant passage, in keys.
        passage_len: usize,
    },
}

/// Parameters of the synthetic attention workload generator.
///
/// # Examples
///
/// ```
/// use elsa_workloads::AttentionPatternConfig;
/// use elsa_linalg::SeededRng;
///
/// let cfg = AttentionPatternConfig::new(128, 64, 4, 2.0);
/// let inputs = cfg.generate(&mut SeededRng::new(0));
/// assert_eq!(inputs.num_keys(), 128);
/// assert_eq!(inputs.dim(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionPatternConfig {
    /// Number of (real) entities `n`.
    pub n_real: usize,
    /// Number of query rows generated (`n_q`). Equal to `n_real` for the
    /// classic self-attention workloads; the long-context zoo uses
    /// `n_queries ≪ n_real` (a few decode queries over a huge context).
    pub n_queries: usize,
    /// Head dimension `d`.
    pub d: usize,
    /// Relevant keys planted per query.
    pub num_relevant: usize,
    /// Weight ratio of the dominant relevant key to the secondary ones.
    pub dominance: f32,
    /// Standard deviation of the additive query noise direction.
    pub noise: f32,
    /// Raw attention score of the dominant key (softmax logit).
    pub score_scale: f32,
    /// Where each query's targets are drawn from.
    pub structure: TargetStructure,
}

impl AttentionPatternConfig {
    /// Creates a configuration with a `score_scale` calibrated to the
    /// sequence length (`ln n + 2 + dominance`), which keeps the background
    /// softmax mass small at any `n`.
    ///
    /// # Panics
    ///
    /// Panics if `num_relevant == 0` or `num_relevant > n_real`, or any
    /// dimension is zero.
    #[must_use]
    pub fn new(n_real: usize, d: usize, num_relevant: usize, dominance: f32) -> Self {
        assert!(n_real > 0 && d > 0, "dimensions must be positive");
        assert!(
            (1..=n_real).contains(&num_relevant),
            "num_relevant must be in 1..=n_real"
        );
        Self {
            n_real,
            n_queries: n_real,
            d,
            num_relevant,
            dominance,
            noise: 0.5,
            score_scale: (n_real as f32).ln() + 2.0 + dominance,
            structure: TargetStructure::Global,
        }
    }

    /// Samples the planted target keys for query `i` according to the
    /// configured [`TargetStructure`]. Targets are sorted ascending within
    /// the structured windows (the `sample_indices` contract), with the
    /// first returned index acting as the dominant key.
    fn sample_targets(&self, i: usize, rng: &mut SeededRng) -> Vec<usize> {
        let n = self.n_real;
        match self.structure {
            TargetStructure::Global => rng.sample_indices(n, self.num_relevant),
            TargetStructure::Local { window } => {
                let pos = n - self.n_queries + i;
                let start = (pos + 1).saturating_sub(window.max(1));
                let span = pos + 1 - start;
                let mut targets = rng.sample_indices(span, self.num_relevant.min(span));
                for t in &mut targets {
                    *t += start;
                }
                targets
            }
            TargetStructure::Passage { passage_len } => {
                let span = passage_len.clamp(1, n);
                let start = rng.index(n - span + 1);
                let mut targets = rng.sample_indices(span, self.num_relevant.min(span));
                for t in &mut targets {
                    *t += start;
                }
                targets
            }
        }
    }

    /// Checks the generator's preconditions: positive dimensions, at least
    /// one query row, `num_relevant` in `1..=n_real`, finite `dominance`,
    /// `noise` and `score_scale` (else every query is NaN or infinite), and
    /// under [`TargetStructure::Local`] no more query rows than keys
    /// (queries stand at document positions). [`generate_prefix`](Self::generate_prefix)
    /// asserts them; the trace parser reports them per line.
    ///
    /// # Errors
    ///
    /// Returns the first violated precondition.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_real == 0 || self.d == 0 {
            return Err("dimensions must be positive");
        }
        if self.n_queries == 0 {
            return Err("n_queries must be positive");
        }
        if !(1..=self.n_real).contains(&self.num_relevant) {
            return Err("num_relevant must be in 1..=n_real");
        }
        if !(self.dominance.is_finite() && self.noise.is_finite() && self.score_scale.is_finite()) {
            return Err("dominance, noise and score_scale must be finite");
        }
        if matches!(self.structure, TargetStructure::Local { .. }) && self.n_queries > self.n_real {
            return Err(
                "Local structure places queries at document positions: n_queries <= n_real",
            );
        }
        Ok(())
    }

    /// Generates one attention invocation (`Q` is `n_queries × d`; `K`, `V`
    /// are `n × d`): the whole-invocation
    /// [`generate_prefix`](Self::generate_prefix).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`validate`](Self::validate).
    #[must_use]
    pub fn generate(&self, rng: &mut SeededRng) -> AttentionInputs {
        self.generate_prefix(rng, self.n_real)
    }

    /// Generates the first `len` tokens of the invocation
    /// [`generate`](Self::generate) draws from the same state: key and value
    /// rows `0..len` and the query rows that stand below position `len`
    /// (query row `i` stands at `n − n_q + i`; see [`turn_query_rows`]),
    /// bit for bit the rows `generate` returns there.
    ///
    /// Every key row is drawn and kept until the queries are built, because
    /// a query's planted targets may lie past `len` and its direction is a
    /// sum of its target keys. The value rows past `len` are skipped with
    /// [`SeededRng::skip_normals`] (two raw draws per pair of normals, no
    /// transcendental call), so the query rows are drawn from the state
    /// `generate` draws them from. Generation stops after the last query
    /// row the prefix holds, so below `n_real` the generator is left short
    /// of where `generate` leaves it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`validate`](Self::validate), if
    /// `len` is 0 or exceeds `n_real`, or if no query row stands below
    /// `len`.
    #[must_use]
    pub fn generate_prefix(&self, rng: &mut SeededRng, len: usize) -> AttentionInputs {
        if let Err(reason) = self.validate() {
            panic!("{reason}");
        }
        let n = self.n_real;
        let d = self.d;
        assert!((1..=n).contains(&len), "prefix length {len} outside 1..={n}");
        let rows = turn_query_rows(n, self.n_queries, len, len).map_or(0, |rows| rows.end);
        assert!(rows > 0, "no query row stands below position {len}");
        let keys = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let values = Matrix::from_fn(len, d, |_, _| rng.standard_normal() as f32);
        rng.skip_normals((n - len) * d);
        let mut queries = Matrix::zeros(rows, d);
        for i in 0..rows {
            let targets = self.sample_targets(i, rng);
            let mut direction = vec![0.0f32; d];
            for (rank, &t) in targets.iter().enumerate() {
                let w = if rank == 0 { self.dominance } else { 1.0 };
                ops::axpy(w, keys.row(t), &mut direction);
            }
            for v in direction.iter_mut() {
                *v += self.noise * rng.standard_normal() as f32;
            }
            // Rescale so the dominant raw score hits score_scale exactly.
            let dominant_score = ops::dot(&direction, keys.row(targets[0]));
            let alpha = if dominant_score.abs() > 1e-9 {
                f64::from(self.score_scale) / dominant_score
            } else {
                1.0
            };
            let row = queries.row_mut(i);
            for (dst, &src) in row.iter_mut().zip(&direction) {
                *dst = (f64::from(src) * alpha) as f32;
            }
        }
        let mut keys = keys.into_vec();
        keys.truncate(len * d);
        AttentionInputs::new(queries, Matrix::from_vec(len, d, keys), values)
    }

    /// Generates a batch of independent invocations.
    #[must_use]
    pub fn generate_batch(&self, count: usize, rng: &mut SeededRng) -> Vec<AttentionInputs> {
        (0..count).map(|_| self.generate(rng)).collect()
    }

    /// Measures the fraction of keys whose softmax-normalized score exceeds
    /// `p/n` — the paper's relevance criterion — averaged over the queries
    /// of one generated invocation. Used for calibration tests.
    #[must_use]
    pub fn relevant_fraction(&self, inputs: &AttentionInputs, p: f64) -> f64 {
        let scores = elsa_attention::exact::normalized_scores(inputs, 1.0);
        let n = inputs.num_keys();
        let cutoff = (p / n as f64) as f32;
        let mut count = 0usize;
        for i in 0..scores.rows() {
            count += scores.row(i).iter().filter(|&&s| s > cutoff).count();
        }
        count as f64 / (scores.rows() * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_attention::exact;

    #[test]
    fn shapes_and_determinism() {
        let cfg = AttentionPatternConfig::new(64, 32, 3, 2.0);
        let a = cfg.generate(&mut SeededRng::new(5));
        let b = cfg.generate(&mut SeededRng::new(5));
        assert_eq!(a, b);
        assert_eq!(a.num_keys(), 64);
        assert_eq!(a.dim(), 32);
    }

    #[test]
    fn dominant_score_is_calibrated() {
        let cfg = AttentionPatternConfig::new(128, 64, 4, 2.0);
        let inputs = cfg.generate(&mut SeededRng::new(6));
        let scores = exact::attention_scores(&inputs, 1.0);
        // The planted dominant key scores exactly score_scale, so the row
        // max is at least that; occasionally a secondary key with a lucky
        // cross-correlation edges slightly higher.
        for i in 0..inputs.num_queries() {
            let max = scores.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert!(
                max >= cfg.score_scale - 1e-3 && max < cfg.score_scale + 8.0,
                "query {i} max score {max} vs target {}",
                cfg.score_scale
            );
        }
    }

    #[test]
    fn softmax_mass_is_concentrated() {
        let cfg = AttentionPatternConfig::new(256, 64, 5, 2.0);
        let inputs = cfg.generate(&mut SeededRng::new(7));
        let scores = exact::normalized_scores(&inputs, 1.0);
        // Top-8 keys per row should hold the large majority of the mass.
        let mut captured = 0.0f64;
        for i in 0..inputs.num_queries() {
            let mut row: Vec<f32> = scores.row(i).to_vec();
            row.sort_by(|a, b| b.partial_cmp(a).unwrap());
            captured += row[..8].iter().map(|&x| f64::from(x)).sum::<f64>();
        }
        captured /= inputs.num_queries() as f64;
        assert!(captured > 0.6, "top-8 softmax mass {captured}");
    }

    #[test]
    fn relevant_fraction_in_sparse_regime() {
        // The p=1 relevance bar should mark only a few percent of keys —
        // softmax rows are genuinely sparse at n=512.
        let cfg = AttentionPatternConfig::new(512, 64, 6, 2.0);
        let inputs = cfg.generate(&mut SeededRng::new(8));
        let frac = cfg.relevant_fraction(&inputs, 1.0);
        assert!((0.002..=0.2).contains(&frac), "relevant fraction {frac}");
    }

    #[test]
    fn larger_p_marks_fewer_keys_relevant() {
        let cfg = AttentionPatternConfig::new(256, 64, 6, 2.0);
        let inputs = cfg.generate(&mut SeededRng::new(9));
        let f1 = cfg.relevant_fraction(&inputs, 0.5);
        let f2 = cfg.relevant_fraction(&inputs, 4.0);
        assert!(f1 >= f2);
    }

    #[test]
    fn flatter_profile_spreads_mass() {
        let peaky = AttentionPatternConfig::new(128, 64, 3, 2.5);
        let flat = AttentionPatternConfig {
            score_scale: 4.0,
            ..AttentionPatternConfig::new(128, 64, 12, 1.1)
        };
        let mut rng = SeededRng::new(10);
        let pi = peaky.generate(&mut rng);
        let fi = flat.generate(&mut rng);
        assert!(flat.relevant_fraction(&fi, 1.0) > peaky.relevant_fraction(&pi, 1.0));
    }

    #[test]
    #[should_panic(expected = "num_relevant")]
    fn rejects_zero_relevant() {
        let _ = AttentionPatternConfig::new(10, 4, 0, 1.0);
    }

    #[test]
    fn few_queries_generate_rectangular_inputs() {
        let cfg = AttentionPatternConfig {
            n_queries: 4,
            ..AttentionPatternConfig::new(256, 32, 3, 2.0)
        };
        let inputs = cfg.generate(&mut SeededRng::new(11));
        assert_eq!(inputs.num_queries(), 4);
        assert_eq!(inputs.num_keys(), 256);
        // Replay is still bit-identical.
        assert_eq!(inputs, cfg.generate(&mut SeededRng::new(11)));
    }

    #[test]
    fn local_structure_concentrates_mass_in_trailing_window() {
        let window = 32;
        let cfg = AttentionPatternConfig {
            n_queries: 4,
            structure: TargetStructure::Local { window },
            ..AttentionPatternConfig::new(256, 32, 3, 2.0)
        };
        let inputs = cfg.generate(&mut SeededRng::new(12));
        let scores = exact::normalized_scores(&inputs, 1.0);
        // Each query's softmax mass concentrates inside its own trailing
        // window [pos + 1 − window, pos].
        for i in 0..inputs.num_queries() {
            let pos = cfg.n_real - cfg.n_queries + i;
            let start = (pos + 1).saturating_sub(window);
            let in_window: f64 = scores.row(i)[start..=pos].iter().map(|&x| f64::from(x)).sum();
            assert!(in_window > 0.5, "query {i}: window mass {in_window}");
        }
    }

    #[test]
    fn passage_structure_concentrates_mass_in_one_passage() {
        let plen = 32;
        let cfg = AttentionPatternConfig {
            n_queries: 3,
            structure: TargetStructure::Passage { passage_len: plen },
            ..AttentionPatternConfig::new(512, 32, 4, 3.0)
        };
        let inputs = cfg.generate(&mut SeededRng::new(13));
        let scores = exact::normalized_scores(&inputs, 1.0);
        // Some length-plen window holds most of each row's mass.
        for i in 0..inputs.num_queries() {
            let row = scores.row(i);
            let mut prefix = vec![0.0f64; row.len() + 1];
            for (j, &s) in row.iter().enumerate() {
                prefix[j + 1] = prefix[j] + f64::from(s);
            }
            let best = (0..=row.len() - plen)
                .map(|s| prefix[s + plen] - prefix[s])
                .fold(0.0f64, f64::max);
            assert!(best > 0.5, "query {i}: best passage mass {best}");
        }
    }

    #[test]
    #[should_panic(expected = "n_queries must be positive")]
    fn rejects_zero_queries() {
        let cfg = AttentionPatternConfig {
            n_queries: 0,
            ..AttentionPatternConfig::new(16, 8, 2, 1.0)
        };
        let _ = cfg.generate(&mut SeededRng::new(0));
    }

    #[test]
    #[should_panic(expected = "prefix length 17 outside 1..=16")]
    fn rejects_a_prefix_past_the_invocation() {
        let cfg = AttentionPatternConfig::new(16, 8, 2, 1.0);
        let _ = cfg.generate_prefix(&mut SeededRng::new(0), 17);
    }

    #[test]
    #[should_panic(expected = "no query row stands below position 12")]
    fn rejects_a_prefix_without_a_query_row() {
        // Four query rows stand at positions 12..16.
        let cfg = AttentionPatternConfig {
            n_queries: 4,
            ..AttentionPatternConfig::new(16, 8, 2, 1.0)
        };
        let _ = cfg.generate_prefix(&mut SeededRng::new(0), 12);
    }
}
