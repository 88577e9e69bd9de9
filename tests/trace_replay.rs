//! Integration: recorded workload traces replay to bit-identical
//! experiment results across the whole stack.

use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::attention::exact;
use elsa::linalg::{Matrix, SeededRng};
use elsa::sim::{AcceleratorConfig, ElsaAccelerator};
use elsa::workloads::trace::WorkloadTrace;
use elsa::workloads::{DatasetKind, ModelKind, Workload};

fn workload() -> Workload {
    Workload { model: ModelKind::Bert4Rec, dataset: DatasetKind::MovieLens1M }
}

#[test]
fn trace_replay_reproduces_accelerator_results() {
    let mut rng = SeededRng::new(123);
    let trace = WorkloadTrace::record(&workload(), 3, &mut rng);
    // Serialize / reparse, as if the trace were stored next to results.
    let text = trace.to_text();
    let replayed = WorkloadTrace::from_text(&text).expect("well-formed trace");

    let run = |trace: &WorkloadTrace| {
        let invocations = trace.materialize();
        let operator = ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(7)),
            &invocations[..1],
            1.0,
        );
        let accel = ElsaAccelerator::new(
            AcceleratorConfig { n_max: 200, ..AcceleratorConfig::paper() },
            operator,
        );
        invocations
            .iter()
            .map(|inv| {
                let report = accel.run(inv);
                (report.cycles.total(), report.stats.selected_pairs, report.output)
            })
            .collect::<Vec<_>>()
    };
    let original = run(&trace);
    let again = run(&replayed);
    assert_eq!(original.len(), again.len());
    for ((c1, s1, o1), (c2, s2, o2)) in original.iter().zip(&again) {
        assert_eq!(c1, c2, "cycle counts must replay exactly");
        assert_eq!(s1, s2, "selection must replay exactly");
        assert_eq!(o1, o2, "outputs must replay bit-identically");
    }
}

#[test]
fn traces_capture_variable_lengths() {
    let mut rng = SeededRng::new(124);
    let trace = WorkloadTrace::record(&workload(), 16, &mut rng);
    let lengths: std::collections::HashSet<usize> =
        trace.entries.iter().map(|e| e.pattern.n_real).collect();
    assert!(lengths.len() > 3, "length sampler should vary: {lengths:?}");
    assert!(lengths.iter().all(|&n| n <= 200));
}

#[test]
fn overflowing_score_scale_replays_to_finite_outputs() {
    // A score scale near f32::MAX overflows some scores to +inf. Softmax
    // splits such a row's weight over its +inf entries, so neither the
    // exact reference nor the ELSA operator may emit a non-finite value.
    let text = "elsa-trace v1 d=64\nn=16 relevant=2 dominance=1 noise=0.5 score_scale=3e38 seed=1\n";
    let trace = WorkloadTrace::from_text(text).expect("the entry validates");
    let inputs = &trace.materialize()[0];
    let finite = |m: &Matrix| m.as_slice().iter().all(|v| v.is_finite());
    assert!(finite(&exact::attention(inputs)), "exact attention");
    let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(7));
    let learned = ElsaAttention::learn(params.clone(), std::slice::from_ref(inputs), 1.0);
    for operator in [learned, ElsaAttention::exact_fallback(params)] {
        assert!(finite(&operator.forward(inputs).0), "threshold {}", operator.threshold());
    }
}
