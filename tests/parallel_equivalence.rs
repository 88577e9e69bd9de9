//! Equivalence battery for the deterministic parallel execution layer.
//!
//! Every property compares a computation pinned to one worker thread against
//! the same computation at 2, 4, or 8 workers and requires **bit-for-bit**
//! equality (`f32::to_bits`, never an epsilon): `elsa-parallel` promises that
//! worker count is unobservable in results, and these tests are that promise.
//!
//! The gate (`elsa_parallel::beneficial`) only affects scheduling, so a
//! shape below `elsa_parallel::MIN_PARALLEL_WORK` would compare the serial
//! path with itself. Every drawn shape is therefore large enough to cross
//! the gate, and each property asserts that it does, using the work hint of
//! the call sites it drives; each also has one fixed case that sweeps every
//! worker count at one such shape. A raised gate fails these assertions
//! instead of quietly turning the battery serial-only.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test parallel_equivalence`.

use elsa::attention::exact::{self, AttentionInputs};
use elsa::attention::MultiHeadAttention;
use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::algorithm::SrpHasher;
use elsa::linalg::{Matrix, SeededRng};
use elsa::parallel::{beneficial, with_threads, MIN_PARALLEL_WORK};
use elsa_testkit::prelude::*;

/// The worker counts the battery sweeps: serial plus three parallel widths.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.standard_normal() as f32)
}

/// Exact bit pattern of a matrix — the only equality these tests accept.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Whether a call site's work hint clears the fan-out gate at four workers.
fn crosses_gate(work: usize) -> bool {
    with_threads(4, || beneficial(work))
}

/// `Matrix::gemm`'s hint: one unit per multiply-add.
fn matmul_work(m: usize, k: usize, n: usize) -> usize {
    m * k * n
}

/// `exact::scaled_attention`'s softmax rows' hint: 32 units per exp.
fn softmax_work(n: usize) -> usize {
    n * n * 32
}

/// `MultiHeadAttention::forward_par`'s head fan-out hint: three
/// n×d_model×d_head projections per head.
fn multihead_work(n: usize, heads: usize, d_head: usize) -> usize {
    heads * 3 * n * (heads * d_head) * d_head
}

/// `SrpHasher::hash_rows`' hint: 3 units per Kronecker projection multiply,
/// or, for a dense projection, the `X·Mᵀ` product's own.
fn hash_work(rows: usize, hasher: &SrpHasher) -> usize {
    match hasher.kronecker_factors() {
        Some(_) => rows * hasher.multiplication_count() * 3,
        None => matmul_work(rows, hasher.dim(), hasher.k()),
    }
}

/// The fewest rows whose hashing crosses the gate.
fn hash_gate_rows(hasher: &SrpHasher) -> usize {
    MIN_PARALLEL_WORK.div_ceil(hash_work(1, hasher))
}

/// The two hashers the hashing properties draw from: the hardware's
/// three-way Kronecker projection and a dense one, both 64 × 64.
fn hasher(kronecker: bool, rng: &mut SeededRng) -> SrpHasher {
    if kronecker {
        SrpHasher::kronecker_three_way(64, rng)
    } else {
        SrpHasher::dense(64, 64, rng)
    }
}

/// `ElsaAttention::candidates`' per-query hint: 16 units per scanned key
/// (queries are hashed before, in one call).
fn selection_work(n: usize) -> usize {
    n * 16 * n
}

/// `exact::attention_with_candidates`' hint: two units per element of each
/// candidate's dot (`d`) and weighted sum (`dv`).
fn candidate_attention_work(selected_pairs: usize, d: usize, dv: usize) -> usize {
    selected_pairs * 2 * (d + dv)
}

/// Asserts that a call site's work hint clears the fan-out gate at four
/// workers, then that `run` gives the serial bits at every worker count.
fn assert_fans_out_and_matches<R: PartialEq + std::fmt::Debug>(work: usize, run: impl Fn() -> R) {
    assert!(crosses_gate(work), "work {work} no longer crosses the gate");
    let serial = with_threads(1, &run);
    for workers in WORKER_COUNTS {
        assert_eq!(with_threads(workers, &run), serial, "workers={workers}");
    }
}

#[test]
fn matmul_fixed_case_fans_out() {
    let (m, k, n) = (130, 129, 131);
    let mut rng = SeededRng::new(1);
    let (a, b) = (random_matrix(m, k, &mut rng), random_matrix(k, n, &mut rng));
    assert_fans_out_and_matches(matmul_work(m, k, n), || bits(&a.matmul(&b)));
}

#[test]
fn matmul_transpose_b_fixed_case_fans_out() {
    let (m, k, n) = (130, 129, 131);
    let mut rng = SeededRng::new(2);
    let (a, b) = (random_matrix(m, k, &mut rng), random_matrix(n, k, &mut rng));
    assert_fans_out_and_matches(matmul_work(m, k, n), || bits(&a.matmul_transpose_b(&b)));
}

#[test]
fn exact_attention_fixed_case_fans_out() {
    let (n, d) = (260, 40);
    let mut rng = SeededRng::new(3);
    let inputs = AttentionInputs::new(
        random_matrix(n, d, &mut rng),
        random_matrix(n, d, &mut rng),
        random_matrix(n, d, &mut rng),
    );
    assert!(crosses_gate(matmul_work(n, d, n)));
    assert_fans_out_and_matches(softmax_work(n), || bits(&exact::scaled_attention(&inputs)));
}

#[test]
fn multihead_forward_fixed_case_fans_out() {
    let (n, heads, d_head) = (192, 4, 16);
    let mut rng = SeededRng::new(4);
    let mha = MultiHeadAttention::random(heads * d_head, heads, d_head, &mut rng);
    let x = random_matrix(n, heads * d_head, &mut rng);
    assert_fans_out_and_matches(multihead_work(n, heads, d_head), || bits(&mha.forward(&x)));
}

#[test]
fn hash_signatures_fixed_case_fans_out() {
    let mut rng = SeededRng::new(5);
    for kronecker in [true, false] {
        let hasher = hasher(kronecker, &mut rng);
        let rows = hash_gate_rows(&hasher) + 3;
        let m = random_matrix(rows, 64, &mut rng);
        assert_fans_out_and_matches(hash_work(rows, &hasher), || hasher.hash_rows(&m));
    }
}

#[test]
fn elsa_forward_fixed_case_fans_out() {
    let n = 370;
    let mut rng = SeededRng::new(6);
    let inputs = AttentionInputs::new(
        random_matrix(n, 64, &mut rng),
        random_matrix(n, 64, &mut rng),
        random_matrix(n, 64, &mut rng),
    );
    let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(64, 64, &mut rng), 0.1);
    // The candidate rows fan out too. Hashing 370 rows stays below the gate;
    // the hashing tests above fan it out.
    let (_, stats) = elsa.forward(&inputs);
    assert!(crosses_gate(candidate_attention_work(stats.selected_pairs, 64, 64)), "{stats:?}");
    assert_fans_out_and_matches(selection_work(n), || {
        let (out, stats) = elsa.forward(&inputs);
        (bits(&out), stats)
    });
}

props! {
    config: Config::with_cases(24);

    fn matmul_bits_equal_across_worker_counts(
        m in ints(128, 160),
        k in ints(128, 160),
        n in ints(128, 160),
        widx in ints(1, 4),
    ) {
        prop_assert!(crosses_gate(matmul_work(m, k, n)));
        let mut rng = SeededRng::new((m * 1_000_000 + k * 1_000 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let serial = with_threads(1, || a.matmul(&b));
        let parallel = with_threads(WORKER_COUNTS[widx], || a.matmul(&b));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn matmul_transpose_b_bits_equal_across_worker_counts(
        m in ints(128, 160),
        k in ints(128, 160),
        n in ints(128, 160),
        widx in ints(1, 4),
    ) {
        prop_assert!(crosses_gate(matmul_work(m, k, n)));
        let mut rng = SeededRng::new((n * 1_000_000 + m * 1_000 + k) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let serial = with_threads(1, || a.matmul_transpose_b(&b));
        let parallel = with_threads(WORKER_COUNTS[widx], || a.matmul_transpose_b(&b));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn exact_attention_bits_equal_across_worker_counts(
        n in ints(260, 300),
        d in ints(32, 48),
        widx in ints(1, 4),
    ) {
        // Both products and the softmax rows fan out; the one-unit scale
        // pass stays serial at these sizes.
        prop_assert!(crosses_gate(matmul_work(n, d, n)) && crosses_gate(softmax_work(n)));
        let mut rng = SeededRng::new((n * 10_000 + d) as u64);
        let inputs = AttentionInputs::new(
            random_matrix(n, d, &mut rng),
            random_matrix(n, d, &mut rng),
            random_matrix(n, d, &mut rng),
        );
        let serial = with_threads(1, || exact::scaled_attention(&inputs));
        let parallel = with_threads(WORKER_COUNTS[widx], || exact::scaled_attention(&inputs));
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    fn multihead_forward_bits_equal_across_worker_counts(
        extra_rows in ints(0, 16),
        heads in ints(2, 5),
        widx in ints(1, 4),
    ) {
        // The fewest rows whose projections cross the gate, plus a few:
        // longer inputs only add attention work the property does not need.
        let d_head = 32;
        let n = MIN_PARALLEL_WORK.div_ceil(multihead_work(1, heads, d_head)) + extra_rows;
        prop_assert!(crosses_gate(multihead_work(n, heads, d_head)));
        let d_model = heads * d_head;
        let mut rng = SeededRng::new((n * 100 + heads) as u64);
        let mha = MultiHeadAttention::random(d_model, heads, d_head, &mut rng);
        let x = random_matrix(n, d_model, &mut rng);
        let serial = with_threads(1, || mha.forward(&x));
        let parallel = with_threads(WORKER_COUNTS[widx], || mha.forward(&x));
        prop_assert_eq!(bits(&serial), bits(&parallel));
        // The stateful-kernel path must agree with the parallel path too.
        let stateful = with_threads(WORKER_COUNTS[widx], || {
            mha.forward_with(&x, exact::scaled_attention)
        });
        prop_assert_eq!(bits(&serial), bits(&stateful));
    }

    fn hash_signatures_equal_across_worker_counts(
        kronecker in bools(),
        extra_rows in ints(0, 64),
        widx in ints(1, 4),
    ) {
        let mut rng = SeededRng::new(extra_rows as u64);
        let hasher = hasher(kronecker, &mut rng);
        // The fewest rows that cross the gate (about 910 Kronecker or 512
        // dense rows), plus a few.
        let rows = hash_gate_rows(&hasher) + extra_rows;
        prop_assert!(crosses_gate(hash_work(rows, &hasher)));
        let m = random_matrix(rows, 64, &mut rng);
        let serial = with_threads(1, || hasher.hash_rows(&m));
        let parallel = with_threads(WORKER_COUNTS[widx], || hasher.hash_rows(&m));
        prop_assert_eq!(serial, parallel);
    }

    fn elsa_forward_bits_and_stats_equal_across_worker_counts(
        n in ints(363, 403),
        widx in ints(1, 4),
    ) {
        let mut rng = SeededRng::new(n as u64);
        let inputs = AttentionInputs::new(
            random_matrix(n, 64, &mut rng),
            random_matrix(n, 64, &mut rng),
            random_matrix(n, 64, &mut rng),
        );
        let mut prng = SeededRng::new(n as u64 + 1);
        let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(64, 64, &mut prng), 0.1);
        let (serial_out, serial_stats) = with_threads(1, || elsa.forward(&inputs));
        // Selection and the candidate rows fan out; hashing this few rows
        // does not (the hashing property covers it).
        prop_assert!(crosses_gate(selection_work(n)));
        prop_assert!(crosses_gate(candidate_attention_work(serial_stats.selected_pairs, 64, 64)));
        let (par_out, par_stats) =
            with_threads(WORKER_COUNTS[widx], || elsa.forward(&inputs));
        prop_assert_eq!(bits(&serial_out), bits(&par_out));
        prop_assert_eq!(serial_stats, par_stats);
    }
}
