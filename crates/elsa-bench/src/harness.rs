//! Workload-level evaluation driver shared by the figure binaries.

use elsa_attention::exact::AttentionInputs;
use elsa_baselines::{A3Model, AttentionDevice, GpuModel, IdealAccelerator, TpuModel};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};
use elsa_workloads::workload::{evaluate_workload, AccuracyEvaluation, Workload, P_GRID};

/// The four ELSA operating points of §V-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElsaPoint {
    /// No approximation (`p = 0` fallback).
    Base,
    /// Worst-case accuracy loss ≤ 1% (0.5% NDCG for recommenders).
    Conservative,
    /// Loss ≤ 2.5% (1.0% for recommenders).
    Moderate,
    /// Loss ≤ 5% (2.0% for recommenders).
    Aggressive,
}

impl ElsaPoint {
    /// All four points in presentation order.
    #[must_use]
    pub const fn all() -> [ElsaPoint; 4] {
        [ElsaPoint::Base, ElsaPoint::Conservative, ElsaPoint::Moderate, ElsaPoint::Aggressive]
    }

    /// Display name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            ElsaPoint::Base => "ELSA-base",
            ElsaPoint::Conservative => "ELSA-conservative",
            ElsaPoint::Moderate => "ELSA-moderate",
            ElsaPoint::Aggressive => "ELSA-aggressive",
        }
    }

    /// The accuracy-loss budget (percentage points) for a workload, or
    /// `None` for the base point.
    #[must_use]
    pub fn loss_budget(&self, workload: &Workload) -> Option<f64> {
        let rec = workload.model.is_recommender();
        match self {
            ElsaPoint::Base => None,
            ElsaPoint::Conservative => Some(if rec { 0.5 } else { 1.0 }),
            ElsaPoint::Moderate => Some(if rec { 1.0 } else { 2.5 }),
            ElsaPoint::Aggressive => Some(if rec { 2.0 } else { 5.0 }),
        }
    }
}

/// Performance/energy results for one ELSA operating point on one workload.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Which operating point.
    pub point: ElsaPoint,
    /// The approximation degree chosen for it (0 for base).
    pub p: f64,
    /// Measured proxy-accuracy loss in percentage points (0 for base).
    pub loss_percent: f64,
    /// Fraction of query–key pairs selected as candidates.
    pub candidate_fraction: f64,
    /// Mean latency of one self-attention invocation on one accelerator.
    pub latency_s: f64,
    /// Fraction of the latency spent preprocessing (Fig. 11(b) hatching).
    pub preprocessing_fraction: f64,
    /// Mean energy per invocation (one accelerator incl. external memories).
    pub energy_j: f64,
    /// Mean per-module dynamic energy, Table I order.
    pub module_energy_j: Vec<(&'static str, f64)>,
    /// Mean static (leakage) energy per invocation.
    pub static_energy_j: f64,
    /// Invocation throughput of the full twelve-accelerator set.
    pub throughput_per_s: f64,
}

/// One workload's results across devices and ELSA points.
#[derive(Debug, Clone)]
pub struct WorkloadPerf {
    /// The workload.
    pub workload: Workload,
    /// Mean number of real (non-padding) entities over the test batch.
    pub mean_real_len: f64,
    /// Padded model input length.
    pub padded_len: usize,
    /// GPU latency per invocation (pays for padding).
    pub gpu_latency_s: f64,
    /// GPU energy per invocation.
    pub gpu_energy_j: f64,
    /// Ideal-accelerator latency per invocation (real entities only).
    pub ideal_latency_s: f64,
    /// TPU latency per invocation (pays for padding).
    pub tpu_latency_s: f64,
    /// Results for base / conservative / moderate / aggressive.
    pub points: Vec<PointResult>,
}

impl WorkloadPerf {
    /// The result for a given point.
    ///
    /// # Panics
    ///
    /// Panics if the point was not evaluated.
    #[must_use]
    pub fn point(&self, point: ElsaPoint) -> &PointResult {
        self.points.iter().find(|p| p.point == point).expect("point evaluated")
    }

    /// GPU invocation throughput (the GPU processes one batched invocation
    /// stream; throughput is the reciprocal of its per-invocation latency).
    #[must_use]
    pub fn gpu_throughput_per_s(&self) -> f64 {
        1.0 / self.gpu_latency_s
    }

    /// Ideal-accelerator throughput with the paper's twelve units.
    #[must_use]
    pub fn ideal_throughput_per_s(&self) -> f64 {
        IdealAccelerator::paper().num_units as f64 / self.ideal_latency_s
    }
}

/// Training invocations per workload for threshold learning (kept small
/// enough that every figure binary finishes in seconds, large enough to be
/// stable).
const TRAIN_BATCHES: usize = 2;

/// Test invocations per workload for accuracy and performance measurement.
const TEST_BATCHES: usize = 4;

/// Base RNG seed of every harness evaluation.
pub const SEED: u64 = 2021;

/// Sweeps the approximation degree over [`P_GRID`] for one workload,
/// returning one accuracy evaluation per grid point (Fig. 10's data).
#[must_use]
pub fn sweep_p(workload: &Workload) -> Vec<AccuracyEvaluation> {
    let (train, test) = generate_split(workload);
    P_GRID.iter().map(|&p| evaluate_workload(workload, p, &train, &test, SEED ^ 0xACC)).collect()
}

/// Generates the train/test invocation batches for a workload.
#[must_use]
pub fn generate_split(workload: &Workload) -> (Vec<AttentionInputs>, Vec<AttentionInputs>) {
    let mut rng = SeededRng::new(SEED ^ hash_name(&workload.name()));
    let train = workload.generate_batch(TRAIN_BATCHES, &mut rng);
    let test = workload.generate_batch(TEST_BATCHES, &mut rng);
    (train, test)
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs the full device comparison for one workload: GPU / ideal / TPU
/// latencies plus cycle-level ELSA results at all four operating points.
#[must_use]
pub fn evaluate_workload_perf(workload: &Workload) -> WorkloadPerf {
    let (train, test) = generate_split(workload);
    let padded = workload.padded_length();
    let mean_real_len =
        test.iter().map(|i| i.num_keys() as f64).sum::<f64>() / test.len() as f64;

    // Sweep once; pick operating points from the same evaluations.
    let sweep: Vec<AccuracyEvaluation> = P_GRID
        .iter()
        .map(|&p| evaluate_workload(workload, p, &train, &test, SEED ^ 0xACC))
        .collect();

    let config = AcceleratorConfig { n_max: padded.div_ceil(4) * 4, ..AcceleratorConfig::paper() };
    let mut points = Vec::new();
    for point in ElsaPoint::all() {
        let (p, loss) = match point.loss_budget(workload) {
            None => (0.0, 0.0),
            Some(budget) => {
                let chosen = sweep
                    .iter().rfind(|e| e.loss_percent() <= budget)
                    .unwrap_or(&sweep[0]);
                (chosen.p, chosen.loss_percent())
            }
        };
        let mut rng = SeededRng::new(SEED ^ 0xE15A);
        let params = ElsaParams::for_dims(64, 64, &mut rng);
        let operator = if point == ElsaPoint::Base {
            ElsaAttention::exact_fallback(params)
        } else {
            ElsaAttention::learn(params, &train, p)
        };
        let accel = ElsaAccelerator::new(config, operator);
        let mut latency = 0.0;
        let mut preproc = 0.0;
        let mut energy = 0.0;
        let mut static_energy = 0.0;
        let mut cand = 0.0;
        let mut module_energy: Vec<(&'static str, f64)> = Vec::new();
        for inputs in &test {
            let report =
                if point == ElsaPoint::Base { accel.run_base(inputs) } else { accel.run(inputs) };
            latency += report.cycles.seconds(&config);
            preproc += report.cycles.preprocessing_fraction();
            energy += report.energy.total_j();
            static_energy += report.energy.static_energy_j;
            cand += report.stats.candidate_fraction();
            if module_energy.is_empty() {
                module_energy = report.energy.per_module.clone();
            } else {
                for (slot, (_, j)) in module_energy.iter_mut().zip(&report.energy.per_module) {
                    slot.1 += j;
                }
            }
        }
        let count = test.len() as f64;
        for slot in module_energy.iter_mut() {
            slot.1 /= count;
        }
        points.push(PointResult {
            point,
            p,
            loss_percent: loss,
            candidate_fraction: cand / count,
            latency_s: latency / count,
            preprocessing_fraction: preproc / count,
            energy_j: energy / count,
            module_energy_j: module_energy,
            static_energy_j: static_energy / count,
            throughput_per_s: config.num_accelerators as f64 / (latency / count),
        });
    }

    let gpu = GpuModel::v100();
    let ideal = IdealAccelerator::paper();
    let tpu = TpuModel::v2();
    let ideal_latency = test
        .iter()
        .map(|i| ideal.attention_latency_s(i.num_keys(), padded, 64))
        .sum::<f64>()
        / test.len() as f64;
    WorkloadPerf {
        workload: *workload,
        mean_real_len,
        padded_len: padded,
        gpu_latency_s: gpu.attention_latency_s(padded, padded, 64),
        gpu_energy_j: gpu.attention_energy_j(padded, 64),
        ideal_latency_s: ideal_latency,
        tpu_latency_s: tpu.attention_latency_s(padded, padded, 64),
        points,
    }
}

/// Evaluates every workload of the paper (12 combinations).
#[must_use]
pub fn evaluate_all() -> Vec<WorkloadPerf> {
    Workload::all().iter().map(evaluate_workload_perf).collect()
}

/// The A³ comparison data for §V-E (E8).
#[derive(Debug, Clone, Copy)]
pub struct A3Comparison {
    /// A³'s speedup over its own base from approximation.
    pub a3_speedup: f64,
    /// ELSA-conservative speedup over ELSA-base.
    pub elsa_conservative_speedup: f64,
    /// ELSA-moderate speedup over ELSA-base.
    pub elsa_moderate_speedup: f64,
}

/// Computes the §V-E comparison on a BERT/SQuADv1.1-like workload.
#[must_use]
pub fn compare_a3(perf: &WorkloadPerf) -> A3Comparison {
    let a3 = A3Model::paper();
    let n = perf.mean_real_len.round() as usize;
    let a3_speedup =
        a3.base_execution_cycles(n) as f64 / a3.approx_execution_cycles(n) as f64;
    let base = perf.point(ElsaPoint::Base).latency_s;
    A3Comparison {
        a3_speedup,
        elsa_conservative_speedup: base / perf.point(ElsaPoint::Conservative).latency_s,
        elsa_moderate_speedup: base / perf.point(ElsaPoint::Moderate).latency_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_workloads::{DatasetKind, ModelKind};

    /// A fast workload for harness tests (n = 200 recommender).
    fn fast_workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    /// One evaluation of the fast workload, shared by the tests that only
    /// read it (each evaluation takes seconds in a debug build).
    fn fast_perf() -> &'static WorkloadPerf {
        static PERF: std::sync::OnceLock<WorkloadPerf> = std::sync::OnceLock::new();
        PERF.get_or_init(|| evaluate_workload_perf(&fast_workload()))
    }

    #[test]
    fn perf_points_ordered_by_aggressiveness() {
        let perf = fast_perf();
        let base = perf.point(ElsaPoint::Base);
        let cons = perf.point(ElsaPoint::Conservative);
        let aggr = perf.point(ElsaPoint::Aggressive);
        assert!((base.candidate_fraction - 1.0).abs() < 1e-9);
        assert!(cons.candidate_fraction <= 1.0);
        assert!(aggr.candidate_fraction <= cons.candidate_fraction + 1e-9);
        assert!(aggr.latency_s <= cons.latency_s + 1e-12);
        assert!(cons.latency_s <= base.latency_s + 1e-12);
        // The §V-C operating-point rule: each point's loss is within its
        // budget, or nothing on the grid was and it fell back to the most
        // conservative p.
        for result in &perf.points {
            if let Some(budget) = result.point.loss_budget(&fast_workload()) {
                assert!(
                    result.loss_percent <= budget || result.p == P_GRID[0],
                    "{}: loss {} over budget {budget} at p = {}",
                    result.point.name(),
                    result.loss_percent,
                    result.p
                );
            }
        }
    }

    #[test]
    fn elsa_base_beats_gpu() {
        let perf = fast_perf();
        let base = perf.point(ElsaPoint::Base);
        assert!(
            base.throughput_per_s > perf.gpu_throughput_per_s(),
            "ELSA-base {} <= GPU {}",
            base.throughput_per_s,
            perf.gpu_throughput_per_s()
        );
    }

    #[test]
    fn sweep_has_one_eval_per_grid_point() {
        let sweep = sweep_p(&fast_workload());
        assert_eq!(sweep.len(), P_GRID.len());
        for (e, &p) in sweep.iter().zip(&P_GRID) {
            assert_eq!(e.p, p);
        }
    }

    #[test]
    fn a3_comparison_shape() {
        let cmp = compare_a3(fast_perf());
        assert!((cmp.a3_speedup - 1.85).abs() < 0.05);
        assert!(cmp.elsa_conservative_speedup >= 1.0);
        assert!(cmp.elsa_moderate_speedup + 1e-9 >= cmp.elsa_conservative_speedup);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = fast_perf();
        let b = evaluate_workload_perf(&fast_workload());
        assert_eq!(a.gpu_latency_s, b.gpu_latency_s);
        assert_eq!(a.point(ElsaPoint::Moderate).latency_s, b.point(ElsaPoint::Moderate).latency_s);
    }
}
