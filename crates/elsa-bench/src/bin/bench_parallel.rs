//! **E-PAR** — serial vs parallel attention-pipeline baseline, emitted as
//! JSON for the committed `BENCH_parallel.json` at the repo root.
//!
//! Capture: `cargo run --release -p elsa-bench --bin bench_parallel > BENCH_parallel.json`
//!
//! Measures the exact attention kernel and the full ELSA approximate
//! pipeline (hash → candidate selection → candidate attention) at
//! n ∈ {128, 512, 2048}, each pinned to one worker and then run at four
//! workers via `elsa_parallel::with_threads`. Inputs are seeded, so the
//! *computed values* are identical across runs and worker counts (that
//! equivalence is separately enforced by `tests/parallel_equivalence.rs`);
//! only the timings vary with the host.
//!
//! A second table, `crossover`, times the software crossover on one worker:
//! ELSA `forward` against exact `attention_with_scale` at
//! n ∈ {128, 512, 1024, 2048, 4096, 8192}, on the BERT-large / SQuAD v1.1
//! attention profile with the threshold learned at p = 1 on a held-out
//! input of the same n (the wall-clock benchmark's prefill operator).
//!
//! Within each row the two sides' samples alternate (serial and parallel,
//! or ELSA and exact), so host drift during a capture does not land on one
//! side.
//!
//! The emitted `host_cores` field records `available_parallelism()` at
//! capture time: speedup from 4 workers requires ≥ 4 physical cores, and on
//! a single-core host the parallel path can only measure its scheduling
//! overhead (speedup ≤ 1).

use std::time::Instant;

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::{Matrix, SeededRng};
use elsa_workloads::{DatasetKind, ModelKind, Workload};

const D: usize = 64;
const PARALLEL_WORKERS: usize = 4;
const SIZES: [usize; 3] = [128, 512, 2048];
const CROSSOVER_SIZES: [usize; 6] = [128, 512, 1024, 2048, 4096, 8192];

fn random_inputs(n: usize, seed: u64) -> AttentionInputs {
    let mut rng = SeededRng::new(seed);
    let mk = |rng: &mut SeededRng| Matrix::from_fn(n, D, |_, _| rng.standard_normal() as f32);
    AttentionInputs::new(mk(&mut rng), mk(&mut rng), mk(&mut rng))
}

/// Wall-clock seconds of one run of `f`.
fn time_s(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall-clock seconds of `samples` runs each of `a` and `b`, after
/// one warmup run of each. The samples alternate, `a` first on even rounds
/// and `b` first on odd ones, so host drift during the capture lands on
/// both sides alike.
fn paired_medians_s(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for round in 0..samples {
        if round % 2 == 0 {
            ta.push(time_s(&mut a));
            tb.push(time_s(&mut b));
        } else {
            tb.push(time_s(&mut b));
            ta.push(time_s(&mut a));
        }
    }
    (median(ta), median(tb))
}

struct Row {
    kernel: &'static str,
    n: usize,
    serial_median_s: f64,
    parallel_median_s: f64,
}

/// One-worker ELSA against exact attention at one n.
struct Crossover {
    n: usize,
    candidate_fraction: f64,
    elsa_median_s: f64,
    exact_median_s: f64,
}

/// Times ELSA `forward` and exact `attention_with_scale` on one worker at
/// `n`, on the BERT-large / SQuAD v1.1 profile with the threshold learned
/// at p = 1 on one held-out input.
fn crossover(n: usize) -> Crossover {
    let pattern = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 }
        .pattern_config(n);
    let mut rng = SeededRng::new(21);
    let params = ElsaParams::for_dims(D, D, &mut rng.fork(0));
    let train = pattern.generate_batch(1, &mut rng.fork(1));
    let inputs = pattern.generate(&mut rng.fork(2));
    elsa_parallel::with_threads(1, || {
        let operator = ElsaAttention::learn(params, &train, 1.0);
        let scale = operator.params().scale();
        let samples = match n {
            ..=512 => 7,
            513..=2048 => 3,
            _ => 1,
        };
        let candidate_fraction = operator.forward(&inputs).1.candidate_fraction();
        let (elsa_median_s, exact_median_s) = paired_medians_s(
            samples,
            || {
                std::hint::black_box(operator.forward(&inputs));
            },
            || {
                std::hint::black_box(exact::attention_with_scale(&inputs, scale));
            },
        );
        Crossover { n, candidate_fraction, elsa_median_s, exact_median_s }
    })
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut rows: Vec<Row> = Vec::new();

    for &n in &SIZES {
        let samples = if n >= 2048 { 3 } else { 7 };
        let inputs = random_inputs(n, 11);
        let at = |workers: usize| {
            elsa_parallel::with_threads(workers, || {
                std::hint::black_box(exact::scaled_attention(&inputs));
            });
        };
        let (serial, parallel) = paired_medians_s(samples, || at(1), || at(PARALLEL_WORKERS));
        rows.push(Row { kernel: "exact_attention", n, serial_median_s: serial, parallel_median_s: parallel });
    }

    let operator = ElsaAttention::with_threshold(
        ElsaParams::for_dims(D, D, &mut SeededRng::new(12)),
        0.3,
    );
    for &n in &SIZES {
        let samples = if n >= 2048 { 3 } else { 7 };
        let inputs = random_inputs(n, 13);
        let at = |workers: usize| {
            elsa_parallel::with_threads(workers, || {
                std::hint::black_box(operator.forward(&inputs));
            });
        };
        let (serial, parallel) = paired_medians_s(samples, || at(1), || at(PARALLEL_WORKERS));
        rows.push(Row { kernel: "elsa_pipeline", n, serial_median_s: serial, parallel_median_s: parallel });
    }

    let crossovers: Vec<Crossover> = CROSSOVER_SIZES.iter().map(|&n| crossover(n)).collect();

    println!("{{");
    println!("  \"bench\": \"parallel_attention_pipeline\",");
    println!(
        "  \"capture_command\": \"cargo run --release -p elsa-bench --bin bench_parallel > BENCH_parallel.json\","
    );
    println!("  \"d\": {D},");
    println!("  \"parallel_workers\": {PARALLEL_WORKERS},");
    println!("  \"host_cores\": {host_cores},");
    println!(
        "  \"note\": \"speedup = serial_median_s / parallel_median_s; values are bit-identical across worker counts (tests/parallel_equivalence.rs), so only timing differs. A >= 2x speedup at 4 workers requires a host with >= 4 cores; on host_cores < 4 the parallel column measures scheduling overhead instead.\","
    );
    println!("  \"results\": [");
    let last = rows.len() - 1;
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.serial_median_s / r.parallel_median_s;
        let comma = if i == last { "" } else { "," };
        println!(
            "    {{ \"kernel\": \"{}\", \"n\": {}, \"serial_median_s\": {:.6}, \"parallel_median_s\": {:.6}, \"speedup\": {:.3} }}{comma}",
            r.kernel, r.n, r.serial_median_s, r.parallel_median_s, speedup
        );
    }
    println!("  ],");
    println!(
        "  \"crossover_note\": \"one worker; BERT-large / SQuAD v1.1 profile, threshold learned at p = 1; elsa_over_exact < 1 means the ELSA operator is faster than the exact attention it approximates\","
    );
    println!("  \"crossover\": [");
    let last = crossovers.len() - 1;
    for (i, c) in crossovers.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!(
            "    {{ \"n\": {}, \"candidate_fraction\": {:.4}, \"elsa_median_s\": {:.6}, \"exact_median_s\": {:.6}, \"elsa_over_exact\": {:.3} }}{comma}",
            c.n, c.candidate_fraction, c.elsa_median_s, c.exact_median_s, c.elsa_median_s / c.exact_median_s
        );
    }
    println!("  ]");
    println!("}}");
}
