//! `prefill_elsa` and `prefill_exact`: one square self-attention invocation
//! per op (n = 1024, d = 64, BERT-large / SQuAD v1.1 attention profile),
//! closed loop with one caller. Each op gets a fresh seeded input generated
//! outside the timed region. `prefill_elsa` times `ElsaAttention::forward`;
//! `prefill_exact` times `exact::attention_with_scale` on the same inputs at
//! the same scale. Each path is the other's bypass: exact attention is
//! almost all `elsa-linalg` matmul, ELSA uses none of it.

use std::time::Instant;

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::attention::{ElsaAttention, ElsaParams, PreprocessedKeys, SelectionStats};
use elsa_linalg::{ops, Matrix, SeededRng};
use elsa_workloads::{AttentionPatternConfig, DatasetKind, ModelKind, Workload};

use crate::clock::cpu_time;
use crate::host;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{Run, Size, STREAM_MEASURE, STREAM_TRAIN};

/// Held-out invocations the threshold is learned from (at p = 1.0).
const TRAIN_INPUTS: usize = 4;
/// The first ops, whose ELSA-against-exact error is averaged into
/// `prefill_rel_err`. A fixed set, so the value repeats exactly for a seed.
const ERR_OPS: u64 = 8;
/// Relative Frobenius error an ELSA output may not exceed against exact
/// attention on this profile.
const MAX_REL_ERR: f64 = 0.25;
/// Ops timed serially and at the default worker count for the speed-ups.
const SPEEDUP_OPS: u64 = 3;

fn pattern(run: &Run) -> AttentionPatternConfig {
    let n = match run.size {
        Size::Full => 1024,
        Size::Small => 128,
    };
    Workload {
        model: ModelKind::BertLarge,
        dataset: DatasetKind::SquadV11,
    }
    .pattern_config(n)
}

/// Learns the operator's threshold on held-out inputs.
pub fn setup(run: &Run) -> ElsaAttention {
    let mut rng = SeededRng::new(run.seed).fork(STREAM_TRAIN);
    let params = ElsaParams::for_dims(64, 64, &mut rng.fork(0));
    let train = pattern(run).generate_batch(TRAIN_INPUTS, &mut rng);
    ElsaAttention::learn(params, &train, 1.0)
}

/// The seeded input of op `i`.
fn input(run: &Run, i: u64, tr: &mut Tracer) -> AttentionInputs {
    let pat = pattern(run);
    let mut rng = SeededRng::new(run.seed).fork(STREAM_MEASURE).fork(i);
    tr.span("elsa-workloads.generate", |_| pat.generate(&mut rng))
}

fn finite(m: &Matrix) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Wall-clock seconds `f` takes: fan-out speed-ups are wall-time ratios.
fn wall_time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `forward` rebuilt from its public parts, one span per part.
fn elsa_traced(
    op: &ElsaAttention,
    inputs: &AttentionInputs,
    tr: &mut Tracer,
) -> (Matrix, SelectionStats) {
    let params = op.params();
    let hashes = tr.span("elsa-core.hash", |_| {
        params.hasher().hash_rows(inputs.query())
    });
    let pre = tr.span("elsa-core.norm", |_| {
        PreprocessedKeys::compute(params, inputs.key())
    });
    let selected = tr.span("elsa-core.select", |_| {
        elsa_parallel::par_map_indexed(inputs.num_queries(), |i| {
            op.select_candidates(&hashes[i], &pre)
        })
    });
    let mut stats = SelectionStats {
        total_pairs: inputs.num_queries() * inputs.num_keys(),
        num_queries: inputs.num_queries(),
        num_keys: inputs.num_keys(),
        ..SelectionStats::default()
    };
    let mut candidates = Vec::with_capacity(selected.len());
    for (cand, fallback) in selected {
        stats.selected_pairs += cand.len();
        stats.fallback_queries += usize::from(fallback);
        candidates.push(cand);
    }
    let out = tr.span("elsa-attention.cand_attend", |_| {
        exact::attention_with_candidates(inputs, &candidates, params.scale())
    });
    (out, stats)
}

/// `attention_with_scale` rebuilt from its public parts, one span per part.
fn exact_traced(inputs: &AttentionInputs, scale: f32, tr: &mut Tracer) -> Matrix {
    let mut scores = tr.span("elsa-linalg.qk", |_| {
        inputs.query().matmul_transpose_b(inputs.key()).scale(scale)
    });
    // The same work hint the library passes, so the fan-out decision matches.
    let work = scores
        .rows()
        .saturating_mul(scores.cols())
        .saturating_mul(8);
    tr.span("elsa-linalg.softmax", |_| {
        scores.par_rows_mut(work, |_, row| ops::softmax_in_place(row))
    });
    tr.span("elsa-linalg.av", |_| scores.matmul(inputs.value()))
}

/// Median one-worker wall time ÷ median default-worker wall time of `f`
/// over the first few inputs.
fn speedup(run: &Run, tr: &mut Tracer, f: impl Fn(&AttentionInputs)) -> f64 {
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for i in 0..SPEEDUP_OPS {
        let inputs = input(run, i, tr);
        serial.push(wall_time(|| elsa_parallel::with_threads(1, || f(&inputs))).1);
        parallel.push(wall_time(|| elsa_parallel::with_threads(run.workers, || f(&inputs))).1);
    }
    report::median(&serial) / report::median(&parallel)
}

/// Fills the trace-quality metrics: overhead of a traced op over an
/// untraced one, and the share of the untraced op the layer spans cover.
fn trace_quality(out: &mut Outcome, tr: &Tracer, traced_s: &[f64]) {
    let untraced = report::median(&out.op_s);
    out.layer(
        "trace.overhead_frac",
        report::median(traced_s) / untraced - 1.0,
    );
    let per_op = tr.layer_self_s_under("bench.op") / traced_s.len() as f64;
    out.layer("trace.coverage", per_op / untraced);
}

pub fn run_elsa(run: &Run, op: &ElsaAttention, tr: &mut Tracer) -> Outcome {
    let scale = op.params().scale();
    let mut out = Outcome::default();
    let mut errs = Vec::new();
    let mut first = SelectionStats::default();
    let mut traced_s = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < ERR_OPS || !run.expired(start) {
        tr.set_op(i);
        let inputs = input(run, i, tr);
        let speed = host::speed_scale();
        let ((y, stats), dt) = cpu_time(|| op.forward(&inputs));
        out.op(dt, speed);
        let mut ok = finite(&y);
        if i < ERR_OPS {
            let err = exact::attention_with_scale(&inputs, scale).relative_frobenius_error(&y);
            ok &= err < MAX_REL_ERR;
            errs.push(err);
            first = first.merged(&stats);
        }
        if tr.enabled() {
            let (yt, st) = tr.span("bench.op", |tr| elsa_traced(op, &inputs, tr));
            traced_s.push(tr.last_s("bench.op"));
            ok &= bits_equal(&y, &yt) && st == stats;
        }
        out.check(ok, &format!("prefill_elsa op {i}"));
        i += 1;
    }
    let n = out.op_s.len();
    out.named(
        "prefill_elsa_ms_p50",
        report::median(&out.op_ref_s) * 1e3,
        "ms",
        n,
    );
    out.named(
        "prefill_elsa_ms_p90",
        report::percentile(&out.op_ref_s, 90.0) * 1e3,
        "ms",
        n,
    );
    out.named("prefill_rel_err", report::mean(&errs), "ratio", errs.len());
    out.named(
        "candidate_fraction",
        first.candidate_fraction(),
        "ratio",
        errs.len(),
    );
    out.note("threshold", op.threshold());
    if tr.enabled() {
        let totals = tr.totals();
        let ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_s() * 1e3 / t.calls as f64)
        };
        out.layer("elsa-core.hash_ms", ms("elsa-core.hash"));
        out.layer("elsa-core.norm_ms", ms("elsa-core.norm"));
        out.layer("elsa-core.select_ms", ms("elsa-core.select"));
        out.layer(
            "elsa-attention.cand_attend_ms",
            ms("elsa-attention.cand_attend"),
        );
        out.layer("elsa-workloads.generate_ms", ms("elsa-workloads.generate"));
        let per_op_pairs = first.total_pairs as f64 / ERR_OPS as f64;
        let per_op_selected = first.selected_pairs as f64 / ERR_OPS as f64;
        out.layer(
            "elsa-core.select_pairs_per_us",
            per_op_pairs / (ms("elsa-core.select") * 1e3),
        );
        out.layer(
            "elsa-attention.cand_pairs_per_us",
            per_op_selected / (ms("elsa-attention.cand_attend") * 1e3),
        );
        out.layer("elsa-core.candidate_fraction", first.candidate_fraction());
        out.layer(
            "elsa-core.fallback_queries",
            first.fallback_queries as f64 / ERR_OPS as f64,
        );
        trace_quality(&mut out, tr, &traced_s);
        let sp = speedup(run, tr, |x| {
            std::hint::black_box(op.forward(x));
        });
        out.layer("elsa-parallel.elsa_speedup", sp);
    }
    out
}

pub fn run_exact(run: &Run, op: &ElsaAttention, tr: &mut Tracer) -> Outcome {
    let scale = op.params().scale();
    let mut out = Outcome::default();
    let mut errs = Vec::new();
    let mut traced_s = Vec::new();
    let mut shape = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut i = 0u64;
    while i < ERR_OPS || !run.expired(start) {
        tr.set_op(i);
        let inputs = input(run, i, tr);
        let speed = host::speed_scale();
        let (y, dt) = cpu_time(|| exact::attention_with_scale(&inputs, scale));
        out.op(dt, speed);
        shape = (inputs.num_queries(), inputs.num_keys(), inputs.dim());
        let mut ok = finite(&y);
        if i < ERR_OPS {
            let err = y.relative_frobenius_error(&op.forward(&inputs).0);
            ok &= err < MAX_REL_ERR;
            errs.push(err);
        }
        if tr.enabled() {
            let yt = tr.span("bench.op", |tr| exact_traced(&inputs, scale, tr));
            traced_s.push(tr.last_s("bench.op"));
            ok &= bits_equal(&y, &yt);
        }
        out.check(ok, &format!("prefill_exact op {i}"));
        i += 1;
    }
    let n = out.op_s.len();
    out.named(
        "prefill_exact_ms_p50",
        report::median(&out.op_ref_s) * 1e3,
        "ms",
        n,
    );
    out.named(
        "prefill_exact_ms_p90",
        report::percentile(&out.op_ref_s, 90.0) * 1e3,
        "ms",
        n,
    );
    out.named("prefill_rel_err", report::mean(&errs), "ratio", errs.len());
    if tr.enabled() {
        let totals = tr.totals();
        let ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_s() * 1e3 / t.calls as f64)
        };
        let (nq, nk, d) = shape;
        let flops = 2.0 * (nq * nk * d) as f64;
        out.layer("elsa-linalg.qk_ms", ms("elsa-linalg.qk"));
        out.layer("elsa-linalg.softmax_ms", ms("elsa-linalg.softmax"));
        out.layer("elsa-linalg.av_ms", ms("elsa-linalg.av"));
        out.layer(
            "elsa-linalg.qk_gflops",
            flops / (ms("elsa-linalg.qk") * 1e-3) * 1e-9,
        );
        out.layer(
            "elsa-linalg.av_gflops",
            flops / (ms("elsa-linalg.av") * 1e-3) * 1e-9,
        );
        out.layer("elsa-workloads.generate_ms", ms("elsa-workloads.generate"));
        trace_quality(&mut out, tr, &traced_s);
        let sp = speedup(run, tr, |x| {
            std::hint::black_box(exact::attention_with_scale(x, scale));
        });
        out.layer("elsa-parallel.exact_speedup", sp);
    }
    out
}
