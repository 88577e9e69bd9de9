//! `decode`: long-context incremental decode, closed loop with one caller
//! running sessions back to back. Each session appends a 4096-token prompt
//! with `StreamingSession::append_rows` and runs a first `query` (time to
//! first token), then 1024 decode steps of one `append` plus one `query`
//! (time per output token). Inputs follow the long-document locality
//! profile. Single-row calls never fan out, so this workload bypasses
//! `elsa-linalg` matmul and `elsa-parallel`.

use std::time::Instant;

use elsa_attention::exact::AttentionInputs;
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_core::session::{ElsaSession, StreamingSession};
use elsa_linalg::SeededRng;
use elsa_workloads::{AttentionPatternConfig, LongCtxKind};

use crate::clock::{cpu_ns, cpu_time};
use crate::host;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{Run, Size, STREAM_MEASURE, STREAM_TRAIN};

/// Held-out sessions the threshold is learned from (at p = 1.0).
const TRAIN_INPUTS: usize = 2;
/// Every this many steps (and at the last step) the decode row is checked
/// against a from-scratch `ElsaSession` over the same context.
const CHECK_EVERY: usize = 128;

/// `(prompt tokens, decode steps)`.
fn shape(run: &Run) -> (usize, usize) {
    match run.size {
        Size::Full => (4096, 1024),
        Size::Small => (256, 32),
    }
}

/// Query `i` stands at position `prompt − 1 + i`: query 0 reads the prompt,
/// query `i ≥ 1` reads the context right after decode step `i` appended its
/// token.
fn pattern(run: &Run) -> AttentionPatternConfig {
    let (prompt, steps) = shape(run);
    AttentionPatternConfig {
        n_queries: steps + 1,
        ..LongCtxKind::LongDocument.pattern(prompt + steps)
    }
}

pub fn setup(run: &Run) -> ElsaAttention {
    let mut rng = SeededRng::new(run.seed).fork(STREAM_TRAIN);
    let params = ElsaParams::for_dims(64, 64, &mut rng.fork(0));
    let train = pattern(run).generate_batch(TRAIN_INPUTS, &mut rng);
    ElsaAttention::learn(params, &train, 1.0)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Decode row `i` recomputed from scratch over the first `len` tokens.
fn from_scratch(op: &ElsaAttention, inputs: &AttentionInputs, len: usize, i: usize) -> Vec<f32> {
    let keys = inputs.key().row_slice(0..len);
    let values = inputs.value().row_slice(0..len);
    ElsaSession::new(op, &keys, &values).query(inputs.query().row(i))
}

/// Per-session timings.
struct Session {
    ttft_s: f64,
    tpot_s: Vec<f64>,
    ok: bool,
    candidates_per_token: f64,
    state_bytes_per_token: f64,
}

/// One untraced session.
fn session(run: &Run, op: &ElsaAttention, inputs: &AttentionInputs) -> Session {
    let (prompt, steps) = shape(run);
    let keys = inputs.key().row_slice(0..prompt);
    let values = inputs.value().row_slice(0..prompt);
    let mut s = StreamingSession::new(op);
    let (first, ttft_s) = cpu_time(|| {
        s.append_rows(&keys, &values);
        s.query(inputs.query().row(0))
    });
    let mut ok = first.iter().all(|v| v.is_finite());
    let mut tpot_s = Vec::with_capacity(steps);
    for i in 1..=steps {
        let pos = prompt - 1 + i;
        let t = cpu_ns();
        s.append(inputs.key().row(pos), inputs.value().row(pos));
        let y = s.query(inputs.query().row(i));
        tpot_s.push((cpu_ns() - t) as f64 * 1e-9);
        if i % CHECK_EVERY == 0 || i == steps {
            ok &= bits_equal(&y, &from_scratch(op, inputs, pos + 1, i));
        }
    }
    let stats = s.stats();
    Session {
        ttft_s,
        tpot_s,
        ok,
        candidates_per_token: stats.avg_candidates_per_query(),
        state_bytes_per_token: s.state_bytes() as f64 / s.num_keys() as f64,
    }
}

/// One traced session: the same calls inside spans, plus a separate hash
/// and select on each step's query so the query's own hash and select can
/// be told apart from its candidate attention. Those probes run outside the
/// step span.
fn traced_session(
    run: &Run,
    op: &ElsaAttention,
    inputs: &AttentionInputs,
    tr: &mut Tracer,
) -> (Vec<f64>, bool) {
    let (prompt, steps) = shape(run);
    let keys = inputs.key().row_slice(0..prompt);
    let values = inputs.value().row_slice(0..prompt);
    let mut s = StreamingSession::new(op);
    let first = tr.span("bench.ttft", |tr| {
        tr.span("elsa-core.append_rows", |_| s.append_rows(&keys, &values));
        tr.span("elsa-attention.first_query", |_| {
            s.query(inputs.query().row(0))
        })
    });
    let mut ok = first.iter().all(|v| v.is_finite());
    let mut step_s = Vec::with_capacity(steps);
    for i in 1..=steps {
        let pos = prompt - 1 + i;
        let q = inputs.query().row(i);
        let y = tr.span("bench.op", |tr| {
            tr.span("elsa-core.append", |_| {
                s.append(inputs.key().row(pos), inputs.value().row(pos))
            });
            tr.span("elsa-attention.query", |_| s.query(q))
        });
        step_s.push(tr.last_s("bench.op"));
        let hash = tr.span("elsa-core.query_hash", |_| op.params().hasher().hash(q));
        let (cand, _) = tr.span("elsa-core.query_select", |_| {
            op.select_candidates_bounded(&hash, s.preprocessed(), s.num_keys())
        });
        std::hint::black_box(cand);
        if i % CHECK_EVERY == 0 || i == steps {
            ok &= bits_equal(&y, &from_scratch(op, inputs, pos + 1, i));
        }
    }
    (step_s, ok)
}

pub fn run(run: &Run, op: &ElsaAttention, tr: &mut Tracer) -> Outcome {
    let pat = pattern(run);
    let mut out = Outcome::default();
    let mut ttft = Vec::new();
    let mut traced_s = Vec::new();
    let mut first_session = None;
    let start = Instant::now();
    let mut k = 0u64;
    // At least two sessions, so a traced run has one untraced and one
    // traced session.
    while k < 2 || !run.expired(start) {
        tr.set_op(k);
        let mut rng = SeededRng::new(run.seed).fork(STREAM_MEASURE).fork(k);
        let inputs = tr.span("elsa-workloads.generate", |_| pat.generate(&mut rng));
        let ok = if tr.enabled() && k % 2 == 1 {
            let (step_s, ok) = traced_session(run, op, &inputs, tr);
            traced_s.extend(step_s);
            ok
        } else {
            // One probe per session: a token is shorter than the probe.
            let scale = host::speed_scale();
            let s = session(run, op, &inputs);
            ttft.push(s.ttft_s * scale);
            for &dt in &s.tpot_s {
                out.op(dt, scale);
            }
            first_session.get_or_insert((s.candidates_per_token, s.state_bytes_per_token));
            s.ok
        };
        out.check(ok, &format!("decode session {k}"));
        k += 1;
    }
    let (cands, state_bytes) = first_session.expect("session 0 is untraced");
    let n = out.op_s.len();
    out.named(
        "decode_ttft_ms_p50",
        report::median(&ttft) * 1e3,
        "ms",
        ttft.len(),
    );
    out.named(
        "decode_tpot_ms_p50",
        report::median(&out.op_ref_s) * 1e3,
        "ms",
        n,
    );
    out.named(
        "decode_tpot_ms_p99",
        report::percentile(&out.op_ref_s, 99.0) * 1e3,
        "ms",
        n,
    );
    out.named("candidates_per_token", cands, "count", 1);
    out.note("threshold", op.threshold());
    if tr.enabled() {
        let totals = tr.totals();
        let us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_s() * 1e6 / t.calls as f64)
        };
        let steps_traced = traced_s.len() as f64;
        let query_us = us("elsa-attention.query");
        out.layer("elsa-core.append_us", us("elsa-core.append"));
        out.layer("elsa-core.query_hash_us", us("elsa-core.query_hash"));
        out.layer("elsa-core.query_select_us", us("elsa-core.query_select"));
        out.layer(
            "elsa-attention.decode_attend_us",
            query_us - us("elsa-core.query_hash") - us("elsa-core.query_select"),
        );
        out.layer("elsa-core.candidates_per_token", cands);
        out.layer("elsa-core.state_bytes_per_token", state_bytes);
        out.layer(
            "elsa-workloads.generate_ms",
            us("elsa-workloads.generate") * 1e-3,
        );
        let untraced = report::median(&out.op_s);
        out.layer(
            "trace.overhead_frac",
            report::median(&traced_s) / untraced - 1.0,
        );
        out.layer(
            "trace.coverage",
            tr.layer_self_s_under("bench.op") / steps_traced / untraced,
        );
    }
    out
}
