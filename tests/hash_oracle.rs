//! 0-ulp oracle battery for SRP hashing.
//!
//! Many rows are hashed through block kernels: the Kronecker projection runs
//! `KroneckerFactors::apply_each`, which contracts each mode for a block of
//! rows at once, and the dense projection is one product `X·Mᵀ`
//! (`Matrix::matmul_transpose_b`). One row runs the Kronecker kernel's
//! one-row case, or one `ops::dot` per projection row. All of them must
//! reproduce, bit for bit, the per-row code they replaced, which lives on
//! here as the oracles:
//!
//! * [`contract_mode`] — one mode of the Kronecker transform for one row,
//!   one `f64` chain per output element over the factor row in order,
//!   started at `+0.0` and rounded once to `f32`; [`oracle_project`] runs it
//!   mode by mode;
//! * the dense projection — `ops::dot` of the row with each projection row,
//!   rounded to `f32`;
//! * [`oracle_words`] — bit `i` set exactly when projected value `i` is
//!   `>= 0.0`.
//!
//! Every property compares the projected values (the sign of zero included;
//! NaNs by NaN-ness, since Rust leaves a NaN's sign and payload unspecified)
//! and the signature words of the one-row and the many-row paths, over the
//! three-way and two-way square Kronecker shapes, `(4×8)⊗(8×8)`,
//! `(2×4)⊗(3×5)`, dense projections with `k` ∈ {1, 63, 64, 65, 128} and the
//! Gaussian dense ablation. Row counts are 1, a block minus one, a block, a
//! block plus one and a prime; rows hold normals, NaN, ±inf, ±0.0,
//! subnormals and ±3e38, mixed magnitudes, zeros signed against one
//! projection row (so every product of that row's chains is `−0.0`, and
//! only a chain started at `+0.0` ends at `+0.0`), and terms that cancel
//! exactly in one chain (so a chain summed in another order ends elsewhere;
//! see [`cancelling_row`]).
//!
//! The drawn row counts stay below the fan-out gate. One fixed case per
//! backend hashes the fewest rows whose work crosses it, and asserts that it
//! does: run under `ELSA_THREADS=4`, it checks the fanned-out path.
//!
//! Reproduce a failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --release --test hash_oracle`.

use elsa::algorithm::SrpHasher;
use elsa::linalg::kronecker::BLOCK_ROWS;
use elsa::linalg::{ops, Matrix, SeededRng};
use elsa::parallel::{beneficial, with_threads, MIN_PARALLEL_WORK};
use elsa_testkit::prelude::*;

/// Input dimension of the square and dense backends.
const D: usize = 64;

/// A projection backend of the battery.
#[derive(Clone, Copy, Debug)]
enum Backend {
    ThreeWay,
    TwoWay,
    /// A Kronecker projection from explicit factor shapes.
    Kronecker([(usize, usize); 2]),
    /// A dense orthogonal projection with `k` bits.
    Dense(usize),
    DenseGaussian,
}

const BACKENDS: [Backend; 10] = [
    Backend::ThreeWay,
    Backend::TwoWay,
    Backend::Kronecker([(4, 8), (8, 8)]),
    Backend::Kronecker([(2, 4), (3, 5)]),
    Backend::Dense(1),
    Backend::Dense(63),
    Backend::Dense(64),
    Backend::Dense(65),
    Backend::Dense(128),
    Backend::DenseGaussian,
];

/// Row counts: one row, both sides of one block, and a prime.
const ROWS: [usize; 5] = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 37];

/// Values no ordinary draw produces: NaN, ±inf, ±0.0, subnormals, ±3e38.
const CORNERS: [f32; 10] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, -1e-40, 3e38, -3e38, 1.5];

/// Magnitudes from overflow to underflow: the `f32` rounding of every
/// mode meets its extremes.
const MAGNITUDES: [f32; 8] = [3e38, -3e38, 1.0, -1.0, 1e-30, -1e-30, 1e-40, -1e-40];

fn hasher(backend: Backend, rng: &mut SeededRng) -> SrpHasher {
    match backend {
        Backend::ThreeWay => SrpHasher::kronecker_three_way(D, rng),
        Backend::TwoWay => SrpHasher::kronecker_two_way(D, rng),
        Backend::Kronecker(shapes) => SrpHasher::kronecker(&shapes, rng),
        Backend::Dense(k) => SrpHasher::dense(k, D, rng),
        Backend::DenseGaussian => SrpHasher::dense_gaussian(D, D, rng),
    }
}

/// Work of hashing `rows` rows in the fan-out gate's units: the Kronecker
/// hint (3 units per projection multiply), or the dense product's own (one
/// unit per multiply-add).
fn hash_work(hasher: &SrpHasher, rows: usize) -> usize {
    match hasher.kronecker_factors() {
        Some(_) => rows * hasher.multiplication_count() * 3,
        None => rows * hasher.dim() * hasher.k(),
    }
}

/// Contracts tensor mode `mode` of `data` (shape `dims`) with `factor`
/// (`r × c`, where `dims[mode] == c`), producing the tensor with
/// `dims[mode] -> r` in row-major order: the kernel the block kernel
/// replaced.
fn contract_mode(data: &[f32], dims: &[usize], mode: usize, factor: &Matrix) -> Vec<f32> {
    let c = dims[mode];
    let r = factor.rows();
    let outer: usize = dims[..mode].iter().product();
    let inner: usize = dims[mode + 1..].iter().product();
    let mut out = vec![0.0f32; outer * r * inner];
    for o in 0..outer {
        for ir in 0..r {
            let frow = factor.row(ir);
            for ii in 0..inner {
                let mut acc = 0.0f64;
                for (j, &f) in frow.iter().enumerate() {
                    acc += f64::from(f) * f64::from(data[(o * c + j) * inner + ii]);
                }
                out[(o * r + ir) * inner + ii] = acc as f32;
            }
        }
    }
    out
}

/// The projected (pre-sign) vector of one row, by the replaced code.
fn oracle_project(hasher: &SrpHasher, x: &[f32]) -> Vec<f32> {
    match hasher.kronecker_factors() {
        Some(t) => {
            let mut data = x.to_vec();
            let mut dims: Vec<usize> = t.factors().iter().map(Matrix::cols).collect();
            for (mode, factor) in t.factors().iter().enumerate() {
                data = contract_mode(&data, &dims, mode, factor);
                dims[mode] = factor.rows();
            }
            data
        }
        None => {
            let m = hasher.dense_projection();
            (0..hasher.k()).map(|r| ops::dot(m.row(r), x) as f32).collect()
        }
    }
}

/// The packed signature of a projected vector.
fn oracle_words(projected: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; projected.len().div_ceil(64)];
    for (i, &v) in projected.iter().enumerate() {
        if v >= 0.0 {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A row on which one chain of the first mode (of the projection, for a
/// dense backend) sums `P`, `−P` and a term `s` far below `P`'s last bit,
/// at random positions, and nothing else is nonzero. In order, the chain
/// ends at `s` only if `s` comes after `−P`, and at `0` otherwise, so over
/// a few such rows an exchange of any two terms changes some result, unless
/// the two are a chain's first two, whose order IEEE addition cannot see.
/// Later modes multiply that one element by single weights, so the
/// difference reaches the output.
fn cancelling_row(hasher: &SrpHasher, rng: &mut SeededRng) -> Vec<f32> {
    // The chain's weights, and where its terms sit in the input row.
    let (weights, stride, offset) = match hasher.kronecker_factors() {
        Some(t) => {
            let first = &t.factors()[0];
            let inner = hasher.dim() / first.cols();
            (first.row(rng.index(first.rows())).to_vec(), inner, rng.index(inner))
        }
        None => (hasher.dense_projection().row(rng.index(hasher.k())).to_vec(), 1, 0),
    };
    let mut x = vec![0.0f32; hasher.dim()];
    let terms = rng.sample_indices(weights.len(), 3);
    let (p, q, r) = (terms[0].min(terms[1]), terms[0].max(terms[1]), terms[2]);
    // `w_p · w_q` and `−w_q · w_p`: exact in `f64`, so they cancel exactly.
    x[p * stride + offset] = weights[q];
    x[q * stride + offset] = -weights[p];
    x[r * stride + offset] = 1e-30;
    x
}

/// `rows` input rows of the hasher's dimension, each drawn as one of the
/// kinds the module docs list.
fn draw_rows(hasher: &SrpHasher, rows: usize, rng: &mut SeededRng) -> Matrix {
    let d = hasher.dim();
    let projection = hasher.dense_projection();
    let mut m = Matrix::zeros(rows, d);
    for r in 0..rows {
        let kind = rng.index(5);
        if kind == 4 {
            m.row_mut(r).copy_from_slice(&cancelling_row(hasher, rng));
            continue;
        }
        let target = projection.row(rng.index(hasher.k())).to_vec();
        for (j, slot) in m.row_mut(r).iter_mut().enumerate() {
            *slot = match kind {
                0 => rng.standard_normal() as f32,
                1 if rng.index(2) == 0 => CORNERS[rng.index(CORNERS.len())],
                1 => rng.standard_normal() as f32,
                2 => MAGNITUDES[rng.index(MAGNITUDES.len())],
                _ => 0.0f32.copysign(-target[j]),
            };
        }
    }
    m
}

/// Compares every path of `hasher` on `m` with the oracles.
fn check(hasher: &SrpHasher, m: &Matrix) -> Result<(), String> {
    let want: Vec<Vec<f32>> = m.iter_rows().map(|x| oracle_project(hasher, x)).collect();
    // One row at a time.
    for (r, (x, want)) in m.iter_rows().zip(&want).enumerate() {
        let got = hasher.project(x);
        if !same_bits(&got, want) {
            return Err(format!("project, row {r}: {got:?} vs {want:?}"));
        }
        if hasher.hash(x).as_words() != oracle_words(want) {
            return Err(format!("hash, row {r}"));
        }
    }
    // Many rows at once: the projected values of the block path...
    let mut block: Vec<Vec<f32>> = Vec::with_capacity(m.rows());
    match hasher.kronecker_factors() {
        Some(t) => t.apply_each(m.as_slice(), |r, y| {
            assert_eq!(r, block.len(), "images arrive in row order");
            block.push(y.to_vec());
        }),
        None => {
            let projected = m.matmul_transpose_b(&hasher.dense_projection());
            block.extend(projected.iter_rows().map(<[f32]>::to_vec));
        }
    }
    if block.len() != m.rows() {
        return Err(format!("{} images for {} rows", block.len(), m.rows()));
    }
    for (r, (got, want)) in block.iter().zip(&want).enumerate() {
        if !same_bits(got, want) {
            return Err(format!("block, row {r}: {got:?} vs {want:?}"));
        }
    }
    // ...and its signatures.
    for (r, (h, want)) in hasher.hash_rows(m).iter().zip(&want).enumerate() {
        if h.as_words() != oracle_words(want) || h.len() != hasher.k() {
            return Err(format!("hash_rows, row {r}"));
        }
    }
    Ok(())
}

props! {
    config: Config::with_cases(160);

    fn projections_and_signatures_match_the_oracles_bitwise(
        backend in ints(0, BACKENDS.len()),
        rows in ints(0, ROWS.len()),
        seed in ints_u64(0, u64::MAX),
    ) {
        let (backend, rows) = (BACKENDS[backend], ROWS[rows]);
        let mut rng = SeededRng::new(seed);
        let hasher = hasher(backend, &mut rng);
        let m = draw_rows(&hasher, rows, &mut rng);
        let result = check(&hasher, &m);
        prop_assert!(result.is_ok(), "{backend:?}, {rows} rows: {}", result.unwrap_err());
    }
}

#[test]
fn every_backend_above_the_fan_out_gate_matches_the_oracles() {
    for (i, &backend) in BACKENDS.iter().enumerate() {
        let mut rng = SeededRng::new(i as u64);
        let hasher = hasher(backend, &mut rng);
        let rows = MIN_PARALLEL_WORK / hash_work(&hasher, 1) + 1;
        assert!(
            with_threads(4, || beneficial(hash_work(&hasher, rows))),
            "{backend:?}: {rows} rows no longer cross the gate"
        );
        let m = draw_rows(&hasher, rows, &mut rng);
        if let Err(e) = check(&hasher, &m) {
            panic!("{backend:?}, {rows} rows: {e}");
        }
    }
}
