//! §E-LONGCTX battery — the long-context workload zoo, the pooled-KV rival,
//! and the serving-side skew model. Rules under test:
//!
//! * **Trace round-trip stability** — every longctx trace (locality- and
//!   passage-structured, rectangular `n_q ≪ n`) survives
//!   `to_text → from_text` exactly, and legacy traces keep their byte
//!   format (the structured fields are emitted only when non-default).
//! * **Length-mix accounting** — sampled lengths come only from the mix's
//!   components, hit every component at the configured sample sizes, and
//!   replay bit-identically from the seed.
//! * **Cross-thread bitwise replay** — ELSA candidate selection and forward
//!   output on long-context invocations are bit-identical at
//!   `ELSA_THREADS ∈ {1, 2, 4}`, and so is the pooled-KV rival.
//! * **Pooled-KV degeneracy** — with `budget ≥ n` the rival's output equals
//!   exact attention bitwise; tighter budgets strictly reduce its analytic
//!   operation count.
//! * **Skew model sanity** — on the 66-vs-64k extreme-skew mix the padded
//!   discipline burns strictly more busy time than the bucketed one, and
//!   row accounting is conserved across disciplines.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test longctx`.

use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::linalg::{Matrix, SeededRng};
use elsa::parallel::with_threads;
use elsa::baselines::{PoolMode, PooledKvAttention};
use elsa::serve::skew::compare_batching;
use elsa::serve::{BatchPolicy, ServiceEstimator};
use elsa::sim::AcceleratorConfig;
use elsa::workloads::longctx::{zoo, LengthMix, LongCtxKind, LONG_LENGTHS};
use elsa::workloads::WorkloadTrace;
use elsa_testkit::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

props! {
    config: Config::with_cases(16);

    // Longctx traces round-trip through the text format exactly, at any
    // length in the zoo range and for both structured families.
    fn longctx_traces_round_trip(
        kind_idx in ints(0, 1),
        n in ints(600, 70_000),
        count in ints(1, 4),
        seed in ints_u64(1, 1 << 32),
    ) {
        let kind = LongCtxKind::all()[kind_idx];
        let mut rng = SeededRng::new(seed);
        let trace = kind.record_trace(n, count, &mut rng);
        let text = trace.to_text();
        let back = WorkloadTrace::from_text(&text).expect("longctx trace parses");
        prop_assert_eq!(&trace, &back, "{} n={}", kind.name(), n);
        // Rectangular entries always carry their query count explicitly.
        prop_assert!(text.contains("queries="), "missing queries= in:\n{}", text);
        // A second serialization is byte-identical (stability, not just
        // equality of the parsed value).
        prop_assert_eq!(text, back.to_text());
    }

    // Length mixes draw only configured lengths, with deterministic replay.
    fn length_mix_accounting(
        tiny_w in ints(1, 99),
        count in ints(50, 400),
        seed in ints_u64(1, 1 << 32),
    ) {
        let w = tiny_w as f64 / 100.0;
        let mix = LengthMix::new(vec![(66, w), (8192, 1.0 - w + 0.01), (65536, 0.25)]);
        let lengths = mix.sample_lengths(count, &mut SeededRng::new(seed));
        prop_assert_eq!(lengths.len(), count);
        prop_assert!(lengths.iter().all(|n| [66usize, 8192, 65536].contains(n)));
        let replay = mix.sample_lengths(count, &mut SeededRng::new(seed));
        prop_assert_eq!(lengths, replay);
        // Expectation stays inside the component hull.
        let e = mix.expected_length();
        prop_assert!(e > 66.0 && e < 65536.0, "expected length {}", e);
    }

    // The pooled rival is bitwise-exact when the budget covers every key,
    // and bit-identical across worker counts at real budgets.
    fn pooled_rival_degenerates_and_replays(
        n in ints(32, 256),
        n_q in ints(1, 16),
        budget in ints(4, 32),
        seed in ints_u64(1, 1 << 32),
    ) {
        let mut rng = SeededRng::new(seed);
        let inputs = elsa::attention::exact::AttentionInputs::new(
            Matrix::from_fn(n_q, 32, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, 32, |_, _| rng.standard_normal() as f32),
            Matrix::from_fn(n, 32, |_, _| rng.standard_normal() as f32),
        );
        for mode in [PoolMode::Average, PoolMode::Max] {
            let exact_pool = PooledKvAttention::new(n, mode);
            let (full, stats) = exact_pool.forward(&inputs);
            prop_assert_eq!(stats.pooled, n);
            prop_assert_eq!(
                bits(&full),
                bits(&elsa::attention::exact::attention(&inputs)),
                "budget=n must be exact, mode {:?}", mode
            );
            let pool = PooledKvAttention::new(budget, mode);
            let reference = with_threads(1, || pool.forward(&inputs).0);
            for workers in THREAD_COUNTS {
                let out = with_threads(workers, || pool.forward(&inputs).0);
                prop_assert_eq!(bits(&reference), bits(&out), "threads={}", workers);
            }
            prop_assert!(pool.ops(n_q, n, 32).total() < exact_pool.ops(n_q, n, 32).total());
        }
    }
}

/// ELSA candidate selection and forward output on a real zoo invocation
/// (n = 8192, debug-buildable) replay bit-identically at every worker count.
#[test]
fn elsa_longctx_selection_is_thread_invariant() {
    for kind in LongCtxKind::all() {
        let mut rng = SeededRng::new(0xE15A);
        let trace = kind.record_trace(8192, 2, &mut rng);
        let train = trace.entries[0].materialize();
        let test = trace.entries[1].materialize();
        let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(7));
        let operator =
            with_threads(1, || ElsaAttention::learn(params, &[train], 1.0));
        let (ref_cands, ref_stats) = with_threads(1, || operator.candidates(&test));
        let (ref_out, _) = with_threads(1, || operator.forward(&test));
        assert!(ref_stats.candidate_fraction() < 1.0, "{}", kind.name());
        for workers in THREAD_COUNTS {
            let (cands, stats) = with_threads(workers, || operator.candidates(&test));
            assert_eq!(ref_cands, cands, "{} threads={workers}", kind.name());
            assert_eq!(
                ref_stats.candidate_fraction(),
                stats.candidate_fraction(),
                "{} threads={workers}",
                kind.name()
            );
            let (out, _) = with_threads(workers, || operator.forward(&test));
            assert_eq!(bits(&ref_out), bits(&out), "{} threads={workers}", kind.name());
        }
    }
}

/// The zoo is a pure function of its seed and covers the advertised grid.
#[test]
fn zoo_is_replayable_and_complete() {
    let a = zoo(2, 0xA11CE);
    let b = zoo(2, 0xA11CE);
    assert_eq!(a, b);
    assert_eq!(a.len(), LongCtxKind::all().len() * LONG_LENGTHS.len());
    for (label, trace) in &a {
        let back = WorkloadTrace::from_text(&trace.to_text()).expect("parses");
        assert_eq!(trace, &back, "{label}");
    }
}

/// Extreme 66-vs-64k skew: padded batching burns strictly more accelerator
/// time, bucketed adds zero padding, and real rows are conserved.
#[test]
fn extreme_skew_favors_bucketed_batching() {
    let mix = LengthMix::extreme_skew();
    let lengths = mix.sample_lengths(256, &mut SeededRng::new(0x5EED));
    assert!(lengths.contains(&65536), "tail must appear");
    let estimator = ServiceEstimator::new(
        AcceleratorConfig { n_max: 65536, ..AcceleratorConfig::paper() },
        0.1,
    );
    let policy =
        BatchPolicy { max_batch: 8, max_wait_ns: 0, length_buckets: vec![128, 8192, usize::MAX] };
    let cmp = compare_batching(&lengths, &policy, &estimator);
    assert!(cmp.bucketed_gain() > 1.0, "gain {}", cmp.bucketed_gain());
    assert_eq!(cmp.bucketed.padded_rows, 0);
    assert!(cmp.padded.padded_rows > 0);
    assert_eq!(cmp.bucketed.real_rows, cmp.padded.real_rows);
    assert_eq!(cmp.bucketed.requests, 256);
    // Deterministic at any thread count: the model is pure arithmetic.
    for workers in THREAD_COUNTS {
        let again = with_threads(workers, || compare_batching(&lengths, &policy, &estimator));
        assert_eq!(cmp, again, "threads={workers}");
    }
}
