//! The assembled accelerator: algorithm + performance + energy in one call.

use elsa_attention::exact::AttentionInputs;
use elsa_core::attention::PreprocessedKeys;
use elsa_core::{ElsaAttention, SelectionStats};
use elsa_linalg::Matrix;

use crate::config::AcceleratorConfig;
use crate::cost::EnergyBreakdown;
use crate::cycle::{self, CycleReport};
use crate::fit::FitError;

/// Everything one self-attention invocation produced on the accelerator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The attention output matrix.
    pub output: Matrix,
    /// Candidate-selection statistics.
    pub stats: SelectionStats,
    /// Cycle counts (preprocessing / execution / drain).
    pub cycles: CycleReport,
    /// Activity-based energy breakdown.
    pub energy: EnergyBreakdown,
}

impl RunReport {
    /// Wall-clock latency of the invocation in seconds.
    #[must_use]
    pub fn latency_s(&self, config: &AcceleratorConfig) -> f64 {
        self.cycles.seconds(config)
    }
}

/// One ELSA accelerator driving a trained [`ElsaAttention`] operator.
///
/// # Examples
///
/// ```
/// use elsa_sim::{AcceleratorConfig, ElsaAccelerator};
/// use elsa_core::attention::{ElsaAttention, ElsaParams};
/// use elsa_attention::AttentionInputs;
/// use elsa_linalg::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(1);
/// let mut mk = || Matrix::from_fn(64, 64, |_, _| rng.standard_normal() as f32);
/// let inputs = AttentionInputs::new(mk(), mk(), mk());
///
/// let operator = ElsaAttention::learn(
///     ElsaParams::for_dims(64, 64, &mut SeededRng::new(2)),
///     &[inputs.clone()],
///     1.0,
/// );
/// let accel = ElsaAccelerator::new(AcceleratorConfig::paper(), operator);
/// let report = accel.run(&inputs);
/// assert!(report.cycles.total() > 0);
/// ```
#[derive(Debug)]
pub struct ElsaAccelerator {
    config: AcceleratorConfig,
    operator: ElsaAttention,
}

impl ElsaAccelerator {
    /// Pairs a pipeline configuration with a trained operator.
    ///
    /// # Panics
    ///
    /// Panics if the operator's dimensions do not fit the hardware
    /// (`d` mismatch or `k` mismatch), or the config is inconsistent.
    #[must_use]
    pub fn new(config: AcceleratorConfig, operator: ElsaAttention) -> Self {
        match Self::try_new(config, operator) {
            Ok(accel) => accel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`new`](Self::new): rejects an operator/hardware misfit
    /// as a typed error instead of crashing, so deployment-time validation
    /// can be routed to the caller (the serving stack in `elsa-serve`
    /// builds on this).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] when the config is inconsistent or the
    /// operator's `d`/`k` do not match the hardware.
    pub fn try_new(config: AcceleratorConfig, operator: ElsaAttention) -> Result<Self, FitError> {
        config.try_validate()?;
        let operator_d = operator.params().hasher().dim();
        if operator_d != config.d {
            return Err(FitError::OperatorDim { operator_d, hardware_d: config.d });
        }
        let operator_k = operator.params().hasher().k();
        if operator_k != config.k {
            return Err(FitError::OperatorHashLength { operator_k, hardware_k: config.k });
        }
        Ok(Self { config, operator })
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The algorithm operator.
    #[must_use]
    pub fn operator(&self) -> &ElsaAttention {
        &self.operator
    }

    /// Runs one invocation with the approximation enabled.
    ///
    /// # Panics
    ///
    /// Panics if the invocation exceeds the hardware's `n_max` or its head
    /// dimension differs from the configured `d`.
    #[must_use]
    pub fn run(&self, inputs: &AttentionInputs) -> RunReport {
        match self.try_run(inputs) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`run`](Self::run): a malformed invocation (too many
    /// keys, wrong head dimension) is reported as a typed error rather than
    /// taking down the whole serving process.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::RequestTooLarge`] or [`FitError::RequestDim`].
    pub fn try_run(&self, inputs: &AttentionInputs) -> Result<RunReport, FitError> {
        self.try_check_fit(inputs)?;
        let pre = PreprocessedKeys::compute(self.operator.params(), inputs.key());
        self.try_run_with(inputs, &pre)
    }

    /// [`try_run`](Self::try_run) over keys already preprocessed: `pre` holds
    /// the signatures and norms of exactly `inputs`' keys, made by
    /// [`PreprocessedKeys::compute`] or carried over a session's earlier
    /// turns by [`PreprocessedKeys::append`], the software form of the key
    /// hash / key norm SRAMs keeping a decode session's earlier keys. The
    /// report is the one `try_run` returns, bit for bit: `try_run` is this
    /// call after `compute`, and the cycle model still charges the
    /// preprocessing of every key.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::RequestTooLarge`] or [`FitError::RequestDim`].
    ///
    /// # Panics
    ///
    /// Panics if `pre` holds another number of keys than `inputs`, or
    /// signatures of another hash length than the operator's.
    pub fn try_run_with(
        &self,
        inputs: &AttentionInputs,
        pre: &PreprocessedKeys,
    ) -> Result<RunReport, FitError> {
        self.try_check_fit(inputs)?;
        let (candidates, stats) = self.operator.candidates_with(inputs, pre);
        let output = elsa_attention::exact::attention_with_candidates(
            inputs,
            &candidates,
            self.operator.params().scale(),
        );
        Ok(self.report(inputs, output, stats, &candidates))
    }

    /// Runs one invocation with the approximation *disabled*
    /// (the ELSA-base configuration: every key processed for every query).
    #[must_use]
    pub fn run_base(&self, inputs: &AttentionInputs) -> RunReport {
        self.check_fit(inputs);
        let n = inputs.num_keys();
        let candidates = elsa_attention::exact::full_candidates(inputs.num_queries(), n);
        let stats = SelectionStats {
            total_pairs: inputs.num_queries() * n,
            selected_pairs: inputs.num_queries() * n,
            num_queries: inputs.num_queries(),
            num_keys: n,
            fallback_queries: 0,
        };
        let output = elsa_attention::exact::attention(inputs);
        self.report(inputs, output, stats, &candidates)
    }

    fn check_fit(&self, inputs: &AttentionInputs) {
        if let Err(e) = self.try_check_fit(inputs) {
            panic!("{e}");
        }
    }

    /// Checks whether an invocation fits this accelerator without running it
    /// (the dispatch-time admission check of the serving stack).
    ///
    /// # Errors
    ///
    /// Returns [`FitError::RequestTooLarge`] or [`FitError::RequestDim`].
    pub fn try_check_fit(&self, inputs: &AttentionInputs) -> Result<(), FitError> {
        if inputs.num_keys() > self.config.n_max {
            return Err(FitError::RequestTooLarge {
                n: inputs.num_keys(),
                n_max: self.config.n_max,
            });
        }
        if inputs.dim() != self.config.d {
            return Err(FitError::RequestDim {
                input_d: inputs.dim(),
                hardware_d: self.config.d,
            });
        }
        Ok(())
    }

    fn report(
        &self,
        inputs: &AttentionInputs,
        output: Matrix,
        stats: SelectionStats,
        candidates: &[Vec<usize>],
    ) -> RunReport {
        let n = inputs.num_keys();
        let cycles = cycle::simulate_execution(&self.config, n, candidates, false);
        let energy = EnergyBreakdown::from_run(
            &self.config,
            &cycles,
            inputs.num_queries(),
            stats.selected_pairs,
            n,
        );
        RunReport { output, stats, cycles, energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;

    fn peaked_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            let targets = rng.sample_indices(n, 3);
            for (rank, &t) in targets.iter().enumerate() {
                let w = if rank == 0 { 2.0 } else { 0.6 };
                for c in 0..d {
                    q[(i, c)] += w * k[(t, c)];
                }
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    fn accelerator(train: &AttentionInputs, p: f64, seed: u64) -> ElsaAccelerator {
        let operator = ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(seed)),
            std::slice::from_ref(train),
            p,
        );
        ElsaAccelerator::new(AcceleratorConfig::paper(), operator)
    }

    #[test]
    fn approximate_run_is_faster_and_cheaper_than_base() {
        let train = peaked_inputs(128, 64, 1);
        let test = peaked_inputs(128, 64, 2);
        let accel = accelerator(&train, 2.0, 3);
        let approx = accel.run(&test);
        let base = accel.run_base(&test);
        assert!(approx.cycles.total() < base.cycles.total());
        assert!(approx.energy.total_j() < base.energy.total_j());
        assert!(approx.stats.candidate_fraction() < 1.0);
        assert!((base.stats.candidate_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn base_output_matches_exact() {
        let train = peaked_inputs(64, 64, 4);
        let test = peaked_inputs(64, 64, 5);
        let accel = accelerator(&train, 1.0, 6);
        let base = accel.run_base(&test);
        let exact = elsa_attention::exact::attention(&test);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base.output), bits(&exact));
    }

    #[test]
    fn latency_positive_and_scaled_by_clock() {
        let train = peaked_inputs(64, 64, 10);
        let test = peaked_inputs(64, 64, 11);
        let accel = accelerator(&train, 1.0, 12);
        let report = accel.run(&test);
        let t1 = report.latency_s(accel.config());
        let mut cfg2 = *accel.config();
        cfg2.clock_ghz = 2.0;
        let t2 = report.cycles.seconds(&cfg2);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds hardware n_max")]
    fn rejects_oversized_invocation() {
        let train = peaked_inputs(64, 64, 13);
        let accel = accelerator(&train, 1.0, 14);
        let big = peaked_inputs(1024, 64, 15);
        let _ = accel.run(&big);
    }

    #[test]
    fn try_run_reports_misfit_without_panicking() {
        let train = peaked_inputs(64, 64, 16);
        let accel = accelerator(&train, 1.0, 17);
        let big = peaked_inputs(1024, 64, 18);
        assert_eq!(
            accel.try_run(&big).err(),
            Some(FitError::RequestTooLarge { n: 1024, n_max: 512 })
        );
        let narrow = peaked_inputs(27, 27, 19);
        assert_eq!(
            accel.try_check_fit(&narrow),
            Err(FitError::RequestDim { input_d: 27, hardware_d: 64 })
        );
        // A fitting invocation goes through the same checked path.
        let small = peaked_inputs(64, 64, 20);
        assert!(accel.try_run(&small).is_ok());
    }

    #[test]
    fn try_new_reports_operator_misfit() {
        let train = peaked_inputs(64, 64, 21);
        let operator = ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(22)),
            std::slice::from_ref(&train),
            1.0,
        );
        let narrow_hw = AcceleratorConfig { d: 32, k: 32, ..AcceleratorConfig::paper() };
        assert_eq!(
            ElsaAccelerator::try_new(narrow_hw, operator.clone()).err(),
            Some(FitError::OperatorDim { operator_d: 64, hardware_d: 32 })
        );
        let bad_cfg = AcceleratorConfig { n_max: 510, ..AcceleratorConfig::paper() };
        assert!(matches!(
            ElsaAccelerator::try_new(bad_cfg, operator).err(),
            Some(FitError::Config { .. })
        ));
    }
}
