//! The model–dataset combinations of the evaluation (§V-A) and the
//! accuracy-evaluation loop behind Fig. 10.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::attention::{ElsaAttention, ElsaParams, SelectionStats};
use elsa_linalg::reduce::sum_f64;
use elsa_linalg::SeededRng;

use crate::datasets::DatasetKind;
use crate::models::ModelKind;
use crate::synthetic::AttentionPatternConfig;
use crate::tasks::{self, ClassificationProbe};
use crate::trace::TraceEntry;

/// One model–dataset pairing from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// The model.
    pub model: ModelKind,
    /// The dataset.
    pub dataset: DatasetKind,
}

impl Workload {
    /// The twelve combinations the paper evaluates: the three NLP models on
    /// SQuAD v1.1/v2.0 and RACE, RoBERTa additionally on IMDB, and the two
    /// recommenders on MovieLens-1M.
    #[must_use]
    pub fn all() -> Vec<Workload> {
        let mut out = Vec::new();
        for model in [ModelKind::BertLarge, ModelKind::RobertaLarge, ModelKind::AlbertLarge] {
            for dataset in [DatasetKind::SquadV11, DatasetKind::SquadV20, DatasetKind::Race] {
                out.push(Workload { model, dataset });
            }
        }
        out.push(Workload { model: ModelKind::RobertaLarge, dataset: DatasetKind::Imdb });
        out.push(Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M });
        out.push(Workload { model: ModelKind::Bert4Rec, dataset: DatasetKind::MovieLens1M });
        out
    }

    /// `"MODEL / DATASET"` display name.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{} / {}", self.model.name(), self.dataset.name())
    }

    /// The padded model input length (`n`) for this workload.
    #[must_use]
    pub fn padded_length(&self) -> usize {
        self.dataset.model_input_length().min(self.model.config().max_seq_len)
    }

    /// The synthetic attention-pattern generator for one invocation with
    /// `n_real` real entities, using the model's peakedness profile.
    #[must_use]
    pub fn pattern_config(&self, n_real: usize) -> AttentionPatternConfig {
        let (num_relevant, dominance) = self.model.attention_profile();
        AttentionPatternConfig::new(n_real, 64, num_relevant.min(n_real), dominance)
    }

    /// Samples one replayable [`TraceEntry`]: a real length drawn from the
    /// dataset's distribution (capped at the padded length) plus an
    /// independent per-entry generator seed derived from `label`.
    ///
    /// This is the single sampling point shared by
    /// [`WorkloadTrace::record`](crate::trace::WorkloadTrace::record) and by
    /// online arrival generators (`elsa-serve`), so a recorded offline trace
    /// and a live request stream draw request shapes from exactly the same
    /// distribution.
    #[must_use]
    pub fn sample_entry(&self, rng: &mut SeededRng, label: u64) -> TraceEntry {
        let n_real = self.dataset.sample_real_length(rng).min(self.padded_length());
        TraceEntry {
            pattern: self.pattern_config(n_real),
            seed: rng.fork(label).uniform().to_bits(),
        }
    }

    /// Samples a real length and generates one attention invocation.
    #[must_use]
    pub fn generate_invocation(&self, rng: &mut SeededRng) -> AttentionInputs {
        let n_real = self
            .dataset
            .sample_real_length(rng)
            .min(self.padded_length());
        self.pattern_config(n_real).generate(rng)
    }

    /// Generates a batch of invocations.
    #[must_use]
    pub fn generate_batch(&self, count: usize, rng: &mut SeededRng) -> Vec<AttentionInputs> {
        (0..count).map(|_| self.generate_invocation(rng)).collect()
    }

    /// Number of probe classes for the proxy metric (see
    /// [`crate::tasks`]): a 16-way probe stands in for SQuAD span
    /// selection, RACE is 4-way multiple choice, IMDB binary.
    #[must_use]
    pub const fn probe_classes(&self) -> usize {
        match self.dataset {
            DatasetKind::SquadV11 | DatasetKind::SquadV20 => 16,
            DatasetKind::Race => 4,
            DatasetKind::Imdb => 2,
            DatasetKind::MovieLens1M => 0, // NDCG path, no probe
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The outcome of evaluating one workload at one approximation degree `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyEvaluation {
    /// The degree of approximation evaluated.
    pub p: f64,
    /// Proxy metric relative to exact attention (1.0 = no loss).
    pub metric: f64,
    /// Aggregated selection statistics over the test batch.
    pub stats: SelectionStats,
}

impl AccuracyEvaluation {
    /// Accuracy loss versus the exact baseline, in percentage points.
    #[must_use]
    pub fn loss_percent(&self) -> f64 {
        (1.0 - self.metric) * 100.0
    }
}

/// Runs the Fig. 10 protocol for one workload and one `p`: learn the
/// threshold on `train` invocations, evaluate the proxy metric and the
/// candidate fraction on `test` invocations.
///
/// # Panics
///
/// Panics if `train` or `test` is empty.
#[must_use]
pub fn evaluate_workload(
    workload: &Workload,
    p: f64,
    train: &[AttentionInputs],
    test: &[AttentionInputs],
    seed: u64,
) -> AccuracyEvaluation {
    assert!(!train.is_empty() && !test.is_empty(), "need train and test data");
    let mut rng = SeededRng::new(seed);
    let params = ElsaParams::for_dims(64, 64, &mut rng);
    let operator = ElsaAttention::learn(params, train, p);
    let probe = (workload.probe_classes() >= 2)
        .then(|| ClassificationProbe::new(workload.probe_classes(), 64, &mut rng));
    let mut metrics = Vec::with_capacity(test.len());
    let mut stats = SelectionStats::default();
    for inputs in test {
        let exact_out = exact::attention(inputs);
        let (approx_out, s) = operator.forward(inputs);
        stats = stats.merged(&s);
        metrics.push(match &probe {
            Some(probe) => probe.agreement(&exact_out, &approx_out),
            None => tasks::ndcg_at_k(&exact_out, &approx_out, inputs.value(), 10),
        });
    }
    AccuracyEvaluation { p, metric: sum_f64(metrics) / test.len() as f64, stats }
}

/// The p-grid the sweep experiments use (Fig. 10's x-axis).
pub const P_GRID: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_workloads() {
        let all = Workload::all();
        assert_eq!(all.len(), 12);
        let names: std::collections::BTreeSet<String> = all.iter().map(Workload::name).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn recommenders_use_ndcg_path() {
        let w = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        assert_eq!(w.probe_classes(), 0);
        assert_eq!(w.padded_length(), 200);
    }

    #[test]
    fn generated_invocations_respect_lengths() {
        let w = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 };
        let mut rng = SeededRng::new(1);
        for _ in 0..5 {
            let inv = w.generate_invocation(&mut rng);
            assert!(inv.num_keys() <= 512);
            assert!(inv.num_keys() >= 16);
            assert_eq!(inv.dim(), 64);
        }
    }

    #[test]
    fn evaluation_monotone_in_p_roughly() {
        // Smaller p => higher metric (less aggressive approximation). Use a
        // small n so the test stays fast in debug builds.
        let w = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 };
        let cfg = w.pattern_config(128);
        let mut rng = SeededRng::new(2);
        let train = cfg.generate_batch(2, &mut rng);
        let test = cfg.generate_batch(2, &mut rng);
        let conservative = evaluate_workload(&w, 0.5, &train, &test, 3);
        let aggressive = evaluate_workload(&w, 8.0, &train, &test, 3);
        assert!(
            conservative.metric >= aggressive.metric - 0.02,
            "metric(p=0.5)={} < metric(p=8)={}",
            conservative.metric,
            aggressive.metric
        );
        assert!(
            conservative.stats.candidate_fraction() >= aggressive.stats.candidate_fraction(),
            "candidate fraction should shrink with p"
        );
        // Conservative approximation keeps the proxy metric high.
        assert!(conservative.metric > 0.9, "metric {}", conservative.metric);
    }
}
