//! Equivalence battery gating the incremental decode path
//! (`elsa::algorithm::StreamingSession`). The claim under test is the one
//! that makes append-token KV/hash caching trustworthy: a session grown by
//! appending tokens `1..n` — hashing and norming only each new key, `O(k)`
//! work per step — is **bit-identical** (0 ulp, never an epsilon) to an
//! [`ElsaSession`] that preprocesses the final matrices from scratch, in
//! every observable:
//!
//! * **State** — SRP signatures, per-key norms, and the running max-norm
//!   register compare equal bit-for-bit.
//! * **Selection** — the candidate set (and the arg-max fallback flag) of
//!   every query is identical, in both full-context and bounded (causal)
//!   mode.
//! * **Outputs** — every output row matches `to_bits`-exactly, at
//!   `ELSA_THREADS ∈ {1, 2, 4}` (the repo-wide determinism contract).
//!
//! The battery also carries the serving-cache property tests (the
//! [`SessionRegistry`] accounting + eviction invariants behind
//! `elsa-serve`'s bounded decode cache) and the PR 2 regression: an
//! all-`-inf`-score query must keep the defined uniform-softmax behavior on
//! the streaming path, and a zero-length bounded prefix must fail with the
//! documented panic rather than undefined output.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test session_equivalence`.

use elsa::algorithm::{ElsaAttention, ElsaParams, ElsaSession, StreamingSession};
use elsa::linalg::{ops, Matrix, SeededRng};
use elsa::parallel::with_threads;
use elsa::serve::{CacheConfig, EvictionPolicy, SessionRegistry};
use elsa::workloads::Workload;
use elsa_testkit::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn f32_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn random_context(n: usize, d: usize, seed: u64) -> (ElsaAttention, Matrix, Matrix, Matrix) {
    let mut rng = SeededRng::new(seed);
    let keys = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
    let values = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
    let queries = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
    let operator = ElsaAttention::with_threshold(ElsaParams::for_dims(d, d, &mut rng), 0.4);
    (operator, queries, keys, values)
}

/// The full 0-ulp comparison: appended state vs from-scratch state, then
/// candidate sets and output rows for every query, full-context and causal.
fn assert_streaming_equals_from_scratch(
    operator: &ElsaAttention,
    queries: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    label: &str,
) {
    let mut streaming = StreamingSession::with_value_dim(operator, values.cols());
    for r in 0..keys.rows() {
        streaming.append(keys.row(r), values.row(r));
    }
    let mut fixed = ElsaSession::new(operator, keys, values);

    // State: signatures, norms, max-norm register — all bitwise.
    assert_eq!(
        streaming.preprocessed().signatures(),
        fixed.preprocessed().signatures(),
        "{label}: signatures diverged"
    );
    assert_eq!(
        f64_bits(streaming.preprocessed().norms()),
        f64_bits(fixed.preprocessed().norms()),
        "{label}: key norms diverged"
    );
    assert_eq!(
        streaming.preprocessed().max_norm().to_bits(),
        fixed.preprocessed().max_norm().to_bits(),
        "{label}: max-norm register diverged"
    );

    let n = keys.rows();
    let hasher = operator.params().hasher();
    for i in 0..queries.rows() {
        let q = queries.row(i);
        let qh = hasher.hash(q);
        // Selection: identical candidate sets and fallback flags, for the
        // full context and for the causal prefix of this position.
        for limit in [n, (i + 1).min(n)] {
            let from_stream =
                operator.select_candidates_bounded(&qh, streaming.preprocessed(), limit);
            let from_scratch =
                operator.select_candidates_bounded(&qh, fixed.preprocessed(), limit);
            assert_eq!(
                from_stream, from_scratch,
                "{label}: candidate set diverged at query {i} limit {limit}"
            );
        }
        // Outputs: bitwise, full-context and bounded.
        let full_a = streaming.query(q);
        let full_b = fixed.query(q);
        assert_eq!(
            f32_bits(&full_a),
            f32_bits(&full_b),
            "{label}: full-context output row {i} diverged"
        );
        let limit = (i + 1).min(n);
        let causal_a = streaming.query_bounded(q, limit);
        let causal_b = fixed.query_bounded(q, limit);
        assert_eq!(
            f32_bits(&causal_a),
            f32_bits(&causal_b),
            "{label}: causal output row {i} (limit {limit}) diverged"
        );
    }
    assert_eq!(streaming.stats(), fixed.stats(), "{label}: selection stats diverged");
}

/// The acceptance-criteria sweep: every workload in the zoo, appended
/// token-by-token vs preprocessed from scratch, at threads {1, 2, 4}.
#[test]
fn workload_zoo_appended_state_bit_identical_to_from_scratch() {
    for workload in Workload::all() {
        for workers in THREAD_COUNTS {
            with_threads(workers, || {
                let mut rng = SeededRng::new(0x5E55_0001);
                let inputs = workload.generate_invocation(&mut rng);
                let d = inputs.dim();
                let operator =
                    ElsaAttention::with_threshold(ElsaParams::for_dims(d, d, &mut rng), 0.4);
                assert_streaming_equals_from_scratch(
                    &operator,
                    inputs.query(),
                    inputs.key(),
                    inputs.value(),
                    &format!("{workload} (threads={workers})"),
                );
            });
        }
    }
}

/// Thread invariance of the streaming path on its own terms: the state and
/// outputs produced under every worker count match the single-thread run
/// bit-for-bit (appending is serial by construction; the contract is that
/// nothing about the surrounding pool changes its arithmetic).
#[test]
fn streaming_state_and_outputs_thread_invariant() {
    let run = || {
        let (operator, q, k, v) = random_context(61, 64, 0x5E55_0002);
        let mut session = StreamingSession::new(&operator);
        let mut outputs: Vec<u64> = Vec::new();
        for r in 0..k.rows() {
            session.append(k.row(r), v.row(r));
            outputs.extend(
                f32_bits(&session.query_bounded(q.row(r), r + 1)).iter().map(|&b| u64::from(b)),
            );
        }
        outputs.extend(f64_bits(session.preprocessed().norms()));
        outputs.push(session.preprocessed().max_norm().to_bits());
        outputs
    };
    let reference = with_threads(1, run);
    for workers in THREAD_COUNTS {
        assert_eq!(reference, with_threads(workers, run), "threads={workers}");
    }
}

/// Single-token and prime-n corners, decode-as-you-go: after *every*
/// append `j`, the streaming session matches a from-scratch session over
/// exactly the first `j` rows (both see the same prefix max-norm — the
/// hardware's single max-norm register semantics).
#[test]
fn single_token_and_prime_n_decode_corners() {
    // n = 1: one append, one key; the query's softmax over one candidate is
    // exactly 1.0, so the output is the value row bit-for-bit.
    let (operator, q, k, v) = random_context(1, 27, 0x5E55_0003);
    let mut one = StreamingSession::with_value_dim(&operator, v.cols());
    one.append(k.row(0), v.row(0));
    let out = one.query(q.row(0));
    assert_eq!(f32_bits(&out), f32_bits(v.row(0)), "n=1 output is the value row");

    // n = 97 (prime): nothing about the growth pattern aligns with any
    // internal chunking; check the full per-prefix ladder.
    let (operator, q, k, v) = random_context(97, 64, 0x5E55_0004);
    let mut streaming = StreamingSession::new(&operator);
    for j in 0..k.rows() {
        streaming.append(k.row(j), v.row(j));
        let kp = Matrix::from_fn(j + 1, k.cols(), |r, c| k[(r, c)]);
        let vp = Matrix::from_fn(j + 1, v.cols(), |r, c| v[(r, c)]);
        let mut fixed = ElsaSession::new(&operator, &kp, &vp);
        let a = streaming.query(q.row(j));
        let b = fixed.query(q.row(j));
        assert_eq!(f32_bits(&a), f32_bits(&b), "prefix {} diverged", j + 1);
        assert_eq!(
            streaming.preprocessed().max_norm().to_bits(),
            fixed.preprocessed().max_norm().to_bits(),
            "prefix {} max-norm diverged",
            j + 1
        );
    }
}

// ---------------------------------------------------------------------------
// PR 2 regression: defined behavior on degenerate scores.
// ---------------------------------------------------------------------------

/// A query whose score against every visible key overflows `f32` to `-inf`
/// must keep PR 2's defined uniform-softmax semantics on the streaming
/// path: no panic, no NaN — the output is the uniform average of the
/// candidate value rows, bit-identical between the appended and the
/// from-scratch session.
#[test]
fn fully_masked_scores_keep_uniform_softmax_on_streaming_path() {
    let d = 8;
    let n = 12;
    let mut rng = SeededRng::new(0x5E55_0005);
    // Keys share one sign with huge magnitude; the opposing query drives
    // every f64 dot product far past f32::MAX, so the `as f32` cast in the
    // score path saturates to -inf for every key.
    let keys =
        Matrix::from_fn(n, d, |_, _| -(3.0e38 / d as f32) * (1.0 + rng.uniform() as f32));
    let values = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
    let q = vec![3.0e38f32; d];
    let operator = ElsaAttention::with_threshold(ElsaParams::for_dims(d, d, &mut rng), 0.4);

    let mut streaming = StreamingSession::new(&operator);
    streaming.append_rows(&keys, &values);
    let mut fixed = ElsaSession::new(&operator, &keys, &values);

    let a = streaming.query(&q);
    let b = fixed.query(&q);
    assert!(a.iter().all(|x| x.is_finite()), "masked query produced non-finite output");
    assert_eq!(f32_bits(&a), f32_bits(&b), "masked query diverged between paths");

    // Reconstruct the uniform-softmax expectation over the exact candidate
    // set the operator selected: -inf scores → 1/m weights (PR 2).
    let qh = operator.params().hasher().hash(&q);
    let (candidates, _) = operator.select_candidates_bounded(&qh, fixed.preprocessed(), n);
    let weights = ops::softmax(&vec![f32::NEG_INFINITY; candidates.len()]);
    assert!(weights.iter().all(|&w| w == 1.0 / candidates.len() as f32));
    let mut expected = vec![0.0f32; d];
    for (&j, &w) in candidates.iter().zip(&weights) {
        ops::axpy(w, values.row(j), &mut expected);
    }
    assert_eq!(f32_bits(&a), f32_bits(&expected), "masked query is not the uniform average");
}

/// A bounded prefix of length 0 has no keys to attend to: the documented
/// behavior is the `"limit out of range"` panic, not silent output.
#[test]
#[should_panic(expected = "limit out of range")]
fn zero_length_bounded_prefix_panics_with_documented_message() {
    let (operator, q, k, v) = random_context(6, 16, 0x5E55_0006);
    let mut streaming = StreamingSession::with_value_dim(&operator, v.cols());
    streaming.append_rows(&k, &v);
    let _ = streaming.query_bounded(q.row(0), 0);
}

// ---------------------------------------------------------------------------
// Serving-cache properties (the eviction model behind elsa-serve).
// ---------------------------------------------------------------------------

props! {
    config: Config::with_cases(24);

    // Accounting safety under arbitrary commit/remove interleavings, for
    // both policies: resident bytes always equal the sum over the cached
    // sessions (so the unsigned total can never underflow), the capacity
    // bound holds after every commit, and the high-water mark dominates.
    fn registry_accounting_is_exact_and_bounded(
        cap_tokens in ints(1, 80),
        steps in ints(10, 120),
        seed in ints_u64(1, 1 << 32),
    ) {
        let per = SessionRegistry::per_token_bytes(64, 64);
        let cap = cap_tokens as u64 * per;
        for policy in [EvictionPolicy::Lru, EvictionPolicy::SloAware] {
            let mut reg = SessionRegistry::new(
                CacheConfig { capacity_bytes: Some(cap), policy },
                64,
                64,
            );
            let mut rng = SeededRng::new(seed);
            for _ in 0..steps {
                let session = rng.index(12) as u64;
                if rng.uniform() < 0.2 {
                    reg.remove(session);
                } else {
                    let len = 1 + rng.index(40);
                    reg.commit(session, len);
                    prop_assert!(
                        reg.total_bytes() <= cap,
                        "over capacity: {} > {} ({:?})", reg.total_bytes(), cap, policy
                    );
                }
                let recomputed: u64 =
                    reg.cached_sessions().iter().map(|&(_, len)| len as u64 * per).sum();
                prop_assert_eq!(recomputed, reg.total_bytes(), "accounting drift ({:?})", policy);
                prop_assert!(reg.peak_bytes() >= reg.total_bytes());
                prop_assert_eq!(reg.num_cached(), reg.cached_sessions().len());
            }
        }
    }

    // The functional half of the eviction contract: a session whose state
    // was evicted and rebuilt from scratch on its next turn is bit-identical
    // to one that was never evicted — state, candidate sets, and outputs.
    fn evicted_then_rebuilt_session_is_bit_identical(
        n in ints(2, 48),
        evict_at in ints(1, 47),
        seed in ints_u64(1, 1 << 32),
    ) {
        let d = 32;
        let (operator, q, k, v) = random_context(n, d, seed);
        let evict_at = evict_at.min(n - 1);
        // Never evicted: one session, appended 1..n.
        let mut kept = StreamingSession::with_value_dim(&operator, d);
        kept.append_rows(&k, &v);
        // Evicted after `evict_at` tokens: the incremental state is dropped
        // wholesale and rebuilt from the same rows, then decode continues.
        let mut rebuilt = StreamingSession::with_value_dim(&operator, d);
        for r in 0..evict_at {
            rebuilt.append(k.row(r), v.row(r));
        }
        drop(rebuilt); // the eviction
        let mut rebuilt = StreamingSession::with_value_dim(&operator, d);
        rebuilt.append_rows(&k, &v); // from-scratch rebuild + remaining decode
        prop_assert_eq!(
            kept.preprocessed().signatures(),
            rebuilt.preprocessed().signatures()
        );
        prop_assert_eq!(
            f64_bits(kept.preprocessed().norms()),
            f64_bits(rebuilt.preprocessed().norms())
        );
        prop_assert_eq!(
            kept.preprocessed().max_norm().to_bits(),
            rebuilt.preprocessed().max_norm().to_bits()
        );
        for i in 0..q.rows().min(4) {
            let a = kept.query(q.row(i));
            let b = rebuilt.query(q.row(i));
            prop_assert_eq!(f32_bits(&a), f32_bits(&b), "query {} diverged", i);
        }
    }

    // Victim choice is pure bookkeeping (BTreeMap + monotone counter), so
    // the entire cache trajectory — who is resident, byte totals, eviction
    // counts — replays identically at every thread count.
    fn victim_choice_is_replay_deterministic_across_threads(
        cap_tokens in ints(2, 40),
        steps in ints(5, 60),
        seed in ints_u64(1, 1 << 32),
    ) {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::SloAware] {
            let trajectory = |workers: usize| {
                with_threads(workers, || {
                    let per = SessionRegistry::per_token_bytes(64, 64);
                    let mut reg = SessionRegistry::new(
                        CacheConfig { capacity_bytes: Some(cap_tokens as u64 * per), policy },
                        64,
                        64,
                    );
                    let mut rng = SeededRng::new(seed);
                    let mut log = Vec::new();
                    for _ in 0..steps {
                        let session = rng.index(10) as u64;
                        let len = 1 + rng.index(16);
                        let evicted = reg.commit(session, len);
                        log.push((evicted, reg.total_bytes(), reg.cached_sessions()));
                    }
                    log
                })
            };
            let reference = trajectory(1);
            for workers in THREAD_COUNTS {
                prop_assert_eq!(
                    reference.clone(),
                    trajectory(workers),
                    "{:?} trajectory diverged at threads={}", policy, workers
                );
            }
        }
    }
}
