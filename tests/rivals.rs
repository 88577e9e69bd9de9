//! Adversarial shapes for every functional rival in `elsa::baselines` —
//! local windows, fixed segments, Reformer-style LSH and pooled KV — at
//! `n ∈ {1, 2, 97}` keys, `n_q ∈ {1, n, n + 3}` queries and head dimensions
//! `d ∈ {1, 63, 65}`, plus one larger shape on which each rival's work
//! crosses the fan-out gate at four workers. At the ambient worker count
//! (`ELSA_THREADS`) every candidate list is sorted, deduplicated, in range
//! and non-empty, every output is finite, and pooling with a budget `≥ n`
//! is bitwise equal to `exact::attention`; lists and output bits equal
//! their `with_threads(1)` and `with_threads(4)` runs.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --release --test rivals`.

use elsa::attention::exact::{self, AttentionInputs};
use elsa::baselines::{LocalAttention, LshAttention, LshAttentionConfig, PoolMode, PooledKvAttention, SegmentedAttention};
use elsa::linalg::{Matrix, SeededRng};
use elsa::parallel::{beneficial, with_threads};
use elsa_testkit::prelude::*;

type Lists = Vec<Vec<usize>>;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn draw_inputs(rng: &mut SeededRng, n_q: usize, n: usize, d: usize) -> AttentionInputs {
    let mut draw = |rows: usize| Matrix::from_fn(rows, d, |_, _| rng.standard_normal() as f32);
    AttentionInputs::new(draw(n_q), draw(n), draw(n))
}

/// Runs one rival at the ambient worker count and checks its candidate
/// lists (one per query, none for pooling), its finite output, and that
/// both equal their one- and four-worker runs. Returns lists and bits.
fn check(name: &str, inputs: &AttentionInputs, run: impl Fn() -> (Lists, Matrix)) -> Result<(Lists, Vec<u32>), CaseError> {
    let (n, (lists, out)) = (inputs.num_keys(), run());
    let out = bits(&out);
    prop_assert!(lists.is_empty() || lists.len() == inputs.num_queries(), "{}: {} lists", name, lists.len());
    for (i, list) in lists.iter().enumerate() {
        let well_formed = !list.is_empty() && list.windows(2).all(|w| w[0] < w[1]) && list[list.len() - 1] < n;
        prop_assert!(well_formed, "{} query {}: {:?} is not a sorted set of keys < {}", name, i, list, n);
    }
    prop_assert!(out.iter().all(|&v| f32::from_bits(v).is_finite()), "{}: non-finite output", name);
    for threads in [1, 4] {
        let (again, again_out) = with_threads(threads, &run);
        prop_assert!(again == lists && bits(&again_out) == out, "{} differs at {} workers", name, threads);
    }
    Ok((lists, out))
}

/// [`check`] for pooling at `budget`, plus `stats.pooled = min(budget, n)`
/// and, when `budget ≥ n`, bitwise equality with `exact::attention`.
fn check_pooled(inputs: &AttentionInputs, budget: usize, mode: PoolMode, shape: &str) -> CaseResult {
    let (n, pool) = (inputs.num_keys(), PooledKvAttention::new(budget, mode));
    let name = format!("{} {shape}", pool.label());
    prop_assert_eq!(pool.forward(inputs).1.pooled, budget.min(n), "{}", name);
    let (_, out) = check(&name, inputs, || (Lists::new(), pool.forward(inputs).0))?;
    prop_assert!(budget < n || out == bits(&exact::attention(inputs)), "{}: budget >= n must be exact", name);
    Ok(())
}

props! {
    config: Config::with_cases(4);

    fn every_rival_holds_its_contracts_on_adversarial_shapes(seed in ints_u64(1, 1 << 32)) {
        let mut rng = SeededRng::new(seed);
        let keys = [1, 2, 97];
        let shapes = keys.into_iter().flat_map(|n| [(1, n), (n, n), (n + 3, n)]);
        for (n_q, n, d) in shapes.flat_map(|(n_q, n)| [1, 63, 65].map(|d| (n_q, n, d))) {
            let inputs = draw_inputs(&mut rng, n_q, n, d);
            let shape = format!("n_q={n_q} n={n} d={d}");
            for (window, globals) in [(1, 0), (3, 2)] {
                let local = LocalAttention::new(window, globals);
                let name = format!("local +-{window} g{globals} {shape}");
                check(&name, &inputs, || (local.candidates(&inputs).0, local.forward(&inputs).0))?;
            }
            for segment_len in [1, 4, 64] {
                let seg = SegmentedAttention::new(segment_len);
                let name = format!("segmented {segment_len} {shape}");
                check(&name, &inputs, || (seg.candidates(&inputs).0, seg.forward(&inputs).0))?;
            }
            // Six bits leave most buckets empty, so queries fall back.
            for (bucket_bits, rounds) in [(3, 2), (6, 1)] {
                let config = LshAttentionConfig { bucket_bits, rounds };
                let lsh = LshAttention::new(d, config, &mut SeededRng::new(seed ^ 1));
                let name = format!("lsh {bucket_bits}x{rounds} {shape}");
                check(&name, &inputs, || (lsh.candidates(&inputs).0, lsh.forward(&inputs).0))?;
            }
            for budget in [1, n.div_ceil(2), n, n + 5] {
                check_pooled(&inputs, budget, PoolMode::Average, &shape)?;
                check_pooled(&inputs, budget, PoolMode::Max, &shape)?;
            }
        }
    }
}

#[test]
fn every_rival_is_worker_invariant_above_the_fan_out_gate() {
    let (n, d) = (512, 128);
    let inputs = draw_inputs(&mut SeededRng::new(0x6A7E), n, n, d);
    // The call sites' hints: two units per element of a candidate's dot and
    // weighted sum, seven per projection multiply of LSH hashing, and one
    // per multiply-add of pooling's score product and 32 per softmax element.
    let crosses_the_gate = |work: usize| with_threads(4, || beneficial(work));
    let rows_fan_out = |lists: &Lists| crosses_the_gate(lists.iter().map(Vec::len).sum::<usize>() * 2 * (d + d));
    let local = LocalAttention::new(8, 2);
    let (lists, _) = check("local +-8 g2", &inputs, || (local.candidates(&inputs).0, local.forward(&inputs).0)).unwrap();
    assert!(rows_fan_out(&lists), "local candidate rows stay serial");
    let seg = SegmentedAttention::new(64);
    let (lists, _) = check("segmented 64", &inputs, || (seg.candidates(&inputs).0, seg.forward(&inputs).0)).unwrap();
    assert!(rows_fan_out(&lists), "segmented candidate rows stay serial");
    let lsh = LshAttention::new(d, LshAttentionConfig { bucket_bits: 6, rounds: 2 }, &mut SeededRng::new(0x6A7F));
    let (lists, _) = check("lsh 6x2", &inputs, || (lsh.candidates(&inputs).0, lsh.forward(&inputs).0)).unwrap();
    assert!(rows_fan_out(&lists) && crosses_the_gate(n * 6 * d * 7), "LSH stays serial");
    let m = n / 2;
    assert!(crosses_the_gate(n * d * m) && crosses_the_gate(n * m * 32), "pooled attention stays serial");
    for mode in [PoolMode::Average, PoolMode::Max] {
        check_pooled(&inputs, m, mode, "n_q=512 n=512 d=128").unwrap();
    }
}
