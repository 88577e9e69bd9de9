//! 0-ulp oracle battery for ELSA's candidate path.
//!
//! Candidate selection scans a flat signature store in blocks of 256 keys
//! (Hamming distances first, then a branch-free compaction), and the
//! candidate rows run one kernel (`elsa_linalg::ops::attend_candidates`:
//! interleaved dot chains, then a weighted sum over blocks of 32 output
//! columns). Both must reproduce, bit for bit, the code they replaced, which
//! lives on here as the oracles:
//!
//! * [`oracle_select`] — one `BinaryHash` per key, `SimilarityLut::similarity`
//!   per pair, `push` on `sim > t·‖K_max‖`, and a running first arg-max for
//!   the fallback;
//! * [`oracle_row`] — `ops::dot` scores, `ops::softmax`, one `ops::axpy` per
//!   candidate.
//!
//! Every property compares candidate lists, fallback flags, selection
//! statistics and output bits (NaNs by NaN-ness: Rust leaves a NaN's sign
//! and payload unspecified) across hash lengths on both sides of a word
//! boundary, scan limits of 1, a prime and `n`, thresholds of `−∞`, learned
//! and `1e9`, NaN and ±inf key rows, all-identical keys, and scales ≠ 1. The
//! kernel's own score-level oracle (sign of zero included) is the
//! `candidate_oracle` module in `crates/elsa-linalg/src/ops.rs`.
//!
//! The drawn shapes stay below the fan-out gate and inside one scan block,
//! so they run serially at any worker count. A fixed grid of key counts
//! around one and two scan blocks (255 to 513, with value rows spanning two
//! column blocks and a remainder) covers the block edges. One fixed case is
//! large enough for selection and the candidate rows to cross the gate, and
//! asserts that they do: run under `ELSA_THREADS=4`, it checks the
//! fanned-out path. Hashing that fans out is checked against its own
//! oracles by `tests/hash_oracle.rs`.
//!
//! Reproduce a failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --release --test candidate_oracle`.

use elsa::algorithm::attention::{ElsaAttention, ElsaParams, PreprocessedKeys, SelectionStats};
use elsa::algorithm::session::{self, ElsaSession, StreamingSession};
use elsa::algorithm::{BinaryHash, SrpHasher};
use elsa::attention::exact::{self, AttentionInputs};
use elsa::linalg::{ops, Matrix, SeededRng};
use elsa::parallel::{beneficial, with_threads};
use elsa_testkit::prelude::*;

/// Hash lengths: one bit, both sides of one word, two words.
const BITS: [usize; 5] = [1, 63, 64, 65, 128];
/// Head dimension of every drawn input.
const D: usize = 16;
/// Value-row width.
const DV: usize = 8;
/// Score scales: the identity and two that are not.
const SCALES: [f32; 3] = [1.0, 0.25, 0.3];
/// The longest explicit candidate list: every remainder of the kernel's
/// interleave width, several times over.
const MAX_CANDIDATES: usize = 17;

/// How the key matrix is drawn.
#[derive(Clone, Copy, Debug)]
enum Keys {
    Normal,
    /// One row of NaN, `+∞` or `−∞`.
    Special(f32),
    /// Every row the same: every similarity ties.
    Identical,
}

const KEY_KINDS: [Keys; 5] = [
    Keys::Normal,
    Keys::Special(f32::NAN),
    Keys::Special(f32::INFINITY),
    Keys::Special(f32::NEG_INFINITY),
    Keys::Identical,
];

/// The selection loop the flat scan replaced, over per-key hashes.
fn oracle_select(
    op: &ElsaAttention,
    qh: &BinaryHash,
    key_hashes: &[BinaryHash],
    norms: &[f64],
    max_norm: f64,
    limit: usize,
) -> (Vec<usize>, bool) {
    let cutoff = op.threshold() * max_norm;
    let mut selected = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for (j, (hash, &norm)) in key_hashes.iter().zip(norms).take(limit).enumerate() {
        let sim = op.params().lut().similarity(qh, hash, norm);
        if sim > cutoff {
            selected.push(j);
        }
        match best {
            Some((_, b)) if sim <= b => {}
            _ => best = Some((j, sim)),
        }
    }
    if selected.is_empty() {
        (vec![best.expect("limit > 0").0], true)
    } else {
        (selected, false)
    }
}

/// The candidate row body the shared kernel replaced.
fn oracle_row(q: &[f32], keys: &Matrix, values: &Matrix, cands: &[usize], scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; values.cols()];
    if cands.is_empty() {
        return out;
    }
    let scores: Vec<f32> = cands
        .iter()
        .map(|&j| (ops::dot(q, keys.row(j)) * f64::from(scale)) as f32)
        .collect();
    let weights = ops::softmax(&scores);
    for (&j, &w) in cands.iter().zip(&weights) {
        ops::axpy(w, values.row(j), &mut out);
    }
    out
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The largest prime `<= n`, or 1.
fn prime_at_most(n: usize) -> usize {
    (2..=n).rev().find(|&p| (2..p).all(|f| p % f != 0)).unwrap_or(1)
}

fn random_matrix(rng: &mut SeededRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.standard_normal() as f32)
}

/// Square inputs of `n` tokens, with value rows `dv` wide and the key
/// matrix drawn as `kind` says.
fn draw_inputs(rng: &mut SeededRng, n: usize, dv: usize, kind: Keys) -> AttentionInputs {
    let q = random_matrix(rng, n, D);
    let mut k = random_matrix(rng, n, D);
    match kind {
        Keys::Normal => {}
        Keys::Special(x) => k.row_mut(rng.index(n)).fill(x),
        Keys::Identical => {
            let row = k.row(0).to_vec();
            for r in 1..n {
                k.row_mut(r).copy_from_slice(&row);
            }
        }
    }
    AttentionInputs::new(q, k, random_matrix(rng, n, dv))
}

/// The operator for threshold kind `t`: `−∞` (every key), learned at
/// `p = 1` on held-out inputs, or `1e9` (every query falls back).
fn operator(params: ElsaParams, t: usize, rng: &mut SeededRng, n: usize) -> ElsaAttention {
    match t {
        0 => ElsaAttention::exact_fallback(params),
        1 => ElsaAttention::learn(params, &[draw_inputs(rng, n, DV, Keys::Normal)], 1.0),
        _ => ElsaAttention::with_threshold(params, 1e9),
    }
}

/// The oracle's preprocessing: per-key hashes, norms and the max-norm fold.
fn oracle_keys(op: &ElsaAttention, keys: &Matrix) -> (Vec<BinaryHash>, Vec<f64>, f64) {
    let hashes: Vec<BinaryHash> = keys.iter_rows().map(|r| op.params().hasher().hash(r)).collect();
    let norms: Vec<f64> = keys.iter_rows().map(ops::norm).collect();
    let max_norm = norms.iter().copied().fold(0.0f64, f64::max);
    (hashes, norms, max_norm)
}

/// `Err(message())` unless `ok`.
fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// Compares the preprocessing, selection at each of `limits` for every
/// query, and the batch forward pass (lists, stats, output bits) of `op` on
/// `inputs` with the oracles.
fn check_selection_and_forward(op: &ElsaAttention, inputs: &AttentionInputs, limits: &[usize]) -> Result<(), String> {
    let (n, n_q) = (inputs.num_keys(), inputs.num_queries());
    let scale = op.params().scale();
    let (hashes, norms, max_norm) = oracle_keys(op, inputs.key());
    let query_hashes: Vec<BinaryHash> = inputs.query().iter_rows().map(|q| op.params().hasher().hash(q)).collect();

    let pre = PreprocessedKeys::compute(op.params(), inputs.key());
    let flat: Vec<u64> = hashes.iter().flat_map(|h| h.as_words().to_vec()).collect();
    ensure(pre.signatures() == &flat[..], || "signature store".into())?;
    ensure(f64_bits(pre.norms()) == f64_bits(&norms), || "norms".into())?;
    ensure(pre.max_norm().to_bits() == max_norm.to_bits(), || "max norm".into())?;

    for &limit in limits {
        for (i, qh) in query_hashes.iter().enumerate() {
            let got = op.select_candidates_bounded(qh, &pre, limit);
            let want = oracle_select(op, qh, &hashes, &norms, max_norm, limit);
            ensure(got == want, || format!("query {i}, limit {limit}: {got:?} vs {want:?}"))?;
        }
    }

    let (out, stats) = op.forward(inputs);
    let (lists, list_stats) = op.candidates(inputs);
    let mut want_stats = SelectionStats {
        total_pairs: n_q * n,
        num_queries: n_q,
        num_keys: n,
        ..SelectionStats::default()
    };
    for (i, (list, qh)) in lists.iter().zip(&query_hashes).enumerate() {
        let q = inputs.query().row(i);
        let (cands, fallback) = oracle_select(op, qh, &hashes, &norms, max_norm, n);
        want_stats.selected_pairs += cands.len();
        want_stats.fallback_queries += usize::from(fallback);
        let want = oracle_row(q, inputs.key(), inputs.value(), &cands, scale);
        ensure(same_bits(out.row(i), &want), || format!("row {i}: {:?} vs {want:?}", out.row(i)))?;
        ensure(list == &cands, || format!("list {i}: {list:?} vs {cands:?}"))?;
    }
    ensure(stats == want_stats, || format!("forward stats {stats:?} vs {want_stats:?}"))?;
    ensure(list_stats == want_stats, || format!("candidate stats {list_stats:?} vs {want_stats:?}"))
}

props! {
    config: Config::with_cases(160);

    // Selection at every limit, and the batch forward pass (lists, stats,
    // output bits), against the oracles.
    fn selection_and_forward_match_the_oracles_bitwise(
        bits in ints(0, BITS.len()),
        n in ints(1, 41),
        threshold in ints(0, 3),
        keys in ints(0, KEY_KINDS.len()),
        scale in ints(0, SCALES.len()),
        seed in ints_u64(0, u64::MAX),
    ) {
        let (k, kind, scale) = (BITS[bits], KEY_KINDS[keys], SCALES[scale]);
        let mut rng = SeededRng::new(seed);
        let params = ElsaParams::new(SrpHasher::dense(k, D, &mut rng), 0.127, scale);
        let op = operator(params, threshold, &mut rng, n);
        let inputs = draw_inputs(&mut rng, n, DV, kind);
        let result = check_selection_and_forward(&op, &inputs, &[1, prime_at_most(n), n]);
        prop_assert!(result.is_ok(), "{kind:?}, k={k}: {}", result.unwrap_err());
    }

    // Both session types — causal through `ElsaSession`, full-context
    // decode through `StreamingSession` — against the oracles.
    fn sessions_match_the_oracles_bitwise(
        bits in ints(0, BITS.len()),
        n in ints(1, 33),
        threshold in ints(0, 3),
        keys in ints(0, KEY_KINDS.len()),
        scale in ints(0, SCALES.len()),
        seed in ints_u64(0, u64::MAX),
    ) {
        let (k, kind, scale) = (BITS[bits], KEY_KINDS[keys], SCALES[scale]);
        let mut rng = SeededRng::new(seed);
        let params = ElsaParams::new(SrpHasher::dense(k, D, &mut rng), 0.127, scale);
        let op = operator(params, threshold, &mut rng, n);
        let inputs = draw_inputs(&mut rng, n, DV, kind);
        let (hashes, norms, max_norm) = oracle_keys(&op, inputs.key());

        let (causal, causal_stats) = session::forward_causal(&op, &inputs);
        let mut streaming = StreamingSession::with_value_dim(&op, DV);
        streaming.append_rows(inputs.key(), inputs.value());
        let mut want_causal = SelectionStats { num_keys: n, ..SelectionStats::default() };
        for i in 0..n {
            let q = inputs.query().row(i);
            let qh = op.params().hasher().hash(q);
            let (cands, fallback) = oracle_select(&op, &qh, &hashes, &norms, max_norm, i + 1);
            want_causal.total_pairs += i + 1;
            want_causal.selected_pairs += cands.len();
            want_causal.num_queries += 1;
            want_causal.fallback_queries += usize::from(fallback);
            let want = oracle_row(q, inputs.key(), inputs.value(), &cands, scale);
            prop_assert!(same_bits(causal.row(i), &want), "{kind:?}, k={k}, causal row {i}");

            let (cands, _) = oracle_select(&op, &qh, &hashes, &norms, max_norm, n);
            let want = oracle_row(q, inputs.key(), inputs.value(), &cands, scale);
            let got = streaming.query(q);
            prop_assert!(same_bits(&got, &want), "{kind:?}, k={k}, streaming row {i}");
        }
        prop_assert_eq!(causal_stats, want_causal);
        let mut fixed = ElsaSession::new(&op, inputs.key(), inputs.value());
        for i in 0..n {
            let _ = fixed.query(inputs.query().row(i));
        }
        prop_assert_eq!(streaming.stats(), fixed.stats());
    }

    // Explicit candidate lists of every length 0..=17 (repeats allowed)
    // through the batch kernel, against the row oracle.
    fn candidate_lists_of_every_length_match_the_row_oracle(
        n in ints(1, 25),
        keys in ints(0, KEY_KINDS.len()),
        scale in ints(0, SCALES.len()),
        seed in ints_u64(0, u64::MAX),
    ) {
        let (kind, scale) = (KEY_KINDS[keys], SCALES[scale]);
        let mut rng = SeededRng::new(seed);
        let base = draw_inputs(&mut rng, n, DV, kind);
        let queries = random_matrix(&mut rng, MAX_CANDIDATES + 1, D);
        let inputs = AttentionInputs::new(queries, base.key().clone(), base.value().clone());
        let lists: Vec<Vec<usize>> = (0..=MAX_CANDIDATES)
            .map(|len| (0..len).map(|_| rng.index(n)).collect())
            .collect();
        let out = exact::attention_with_candidates(&inputs, &lists, scale);
        for (i, cands) in lists.iter().enumerate() {
            let want = oracle_row(inputs.query().row(i), inputs.key(), inputs.value(), cands, scale);
            prop_assert!(same_bits(out.row(i), &want), "{kind:?}, {} candidates: {:?} vs {want:?}", cands.len(), out.row(i));
        }
    }
}

#[test]
fn scan_block_edges_match_the_oracles() {
    // Key counts around one and two scan blocks of 256, with limits on both
    // sides of the first block's end, on both scan arms (one word and two),
    // at every threshold kind, with and without a NaN key row. The value
    // rows span two column blocks of the weighted sum and a remainder. The
    // threshold is learned on 64 tokens, and only the first 16 queries of
    // each invocation run, to keep the case cheap in a debug build.
    for (case, n) in [255, 256, 257, 513].into_iter().enumerate() {
        let limits: Vec<usize> = [1, 256, 257, n].into_iter().filter(|&l| l <= n).collect();
        for k in [64, 65] {
            for threshold in 0..3 {
                for kind in [Keys::Normal, Keys::Special(f32::NAN)] {
                    let mut rng = SeededRng::new((case * 1000 + k * 10 + threshold) as u64);
                    let params = ElsaParams::new(SrpHasher::dense(k, D, &mut rng), 0.127, 0.25);
                    let op = operator(params, threshold, &mut rng, 64);
                    let full = draw_inputs(&mut rng, n, 65, kind);
                    let inputs = AttentionInputs::new(
                        full.query().row_slice(0..16),
                        full.key().clone(),
                        full.value().clone(),
                    );
                    if let Err(e) = check_selection_and_forward(&op, &inputs, &limits) {
                        panic!("n={n}, k={k}, threshold kind {threshold}, {kind:?}: {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn identical_keys_fall_back_to_the_first_of_the_tied_keys() {
    let mut rng = SeededRng::new(7);
    let params = ElsaParams::new(SrpHasher::dense(64, D, &mut rng), 0.127, 1.0);
    let op = ElsaAttention::with_threshold(params, 1e9);
    let inputs = draw_inputs(&mut rng, 9, DV, Keys::Identical);
    let (lists, stats) = op.candidates(&inputs);
    assert!(lists.iter().all(|c| c == &[0]), "{lists:?}");
    assert_eq!(stats.fallback_queries, 9);
}

#[test]
fn forward_above_the_fan_out_gate_matches_the_oracles() {
    let n = 384;
    let mut rng = SeededRng::new(11);
    let params = ElsaParams::new(SrpHasher::dense(64, D, &mut rng), 0.127, 0.25);
    let op = operator(params, 1, &mut rng, n);
    let inputs = draw_inputs(&mut rng, n, DV, Keys::Normal);
    let (out, stats) = op.forward(&inputs);
    // The call sites' work hints: 16 units per scanned key, two per element
    // of a candidate's dot and weighted sum.
    for work in [n * 16 * n, stats.selected_pairs * 2 * (D + DV)] {
        assert!(with_threads(4, || beneficial(work)), "work {work} no longer crosses the gate");
    }
    let (hashes, norms, max_norm) = oracle_keys(&op, inputs.key());
    let mut want_stats = SelectionStats {
        total_pairs: n * n,
        num_queries: n,
        num_keys: n,
        ..SelectionStats::default()
    };
    for i in 0..n {
        let q = inputs.query().row(i);
        let qh = op.params().hasher().hash(q);
        let (cands, fallback) = oracle_select(&op, &qh, &hashes, &norms, max_norm, n);
        want_stats.selected_pairs += cands.len();
        want_stats.fallback_queries += usize::from(fallback);
        let want = oracle_row(q, inputs.key(), inputs.value(), &cands, 0.25);
        assert!(same_bits(out.row(i), &want), "row {i}");
    }
    assert_eq!(stats, want_stats);
}
