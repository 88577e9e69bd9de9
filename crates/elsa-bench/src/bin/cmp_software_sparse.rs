//! **§V-E discussion** — ELSA versus *software* sparse attention
//! (Reformer-style LSH bucketing, Longformer-style local windows) on the
//! same synthetic workload: quality at equal attended-pair budgets, plus
//! the wall-clock story ("Reformer fails to achieve any speedup for
//! sequence length less than 2048").
//!
//! Run: `cargo run --release -p elsa-bench --bin cmp_software_sparse`

use elsa_attention::exact;
use elsa_baselines::{GpuModel, LocalAttention, LshAttention, LshAttentionConfig};
use elsa_bench::table::{fmt, Table};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_workloads::tasks::ClassificationProbe;
use elsa_workloads::AttentionPatternConfig;

fn main() {
    let n = 512;
    let d = 64;
    let mut rng = SeededRng::new(30);
    let pattern = AttentionPatternConfig::new(n, d, 6, 2.0);
    let train = pattern.generate_batch(2, &mut rng);
    let test = pattern.generate_batch(3, &mut rng);
    let probe = ClassificationProbe::new(16, d, &mut rng);

    println!("§V-E — ELSA vs software sparse attention (n = 512, content-based relevance)\n");
    let mut table = Table::new(&["scheme", "attended pairs (%)", "metric (%)"]);

    let mut eval = |name: String, cands_fn: &mut dyn FnMut(&elsa_attention::AttentionInputs) -> Vec<Vec<usize>>| {
        let mut metric = 0.0;
        let mut frac = 0.0;
        for inputs in &test {
            let cands = cands_fn(inputs);
            let selected: usize = cands.iter().map(Vec::len).sum();
            frac += selected as f64 / (inputs.num_queries() * inputs.num_keys()) as f64;
            let out = exact::attention_with_candidates(inputs, &cands, 1.0);
            metric += probe.agreement(&exact::attention(inputs), &out);
        }
        let count = test.len() as f64;
        table.row(&[name, fmt(frac / count * 100.0, 1), fmt(metric / count * 100.0, 2)]);
    };

    // ELSA at p = 1 and p = 2.
    for p in [1.0, 2.0] {
        let mut op_rng = SeededRng::new(31);
        let operator =
            ElsaAttention::learn(ElsaParams::for_dims(d, d, &mut op_rng), &train, p);
        eval(format!("ELSA (p = {p})"), &mut |inputs| operator.candidates(inputs).0);
    }
    // Reformer-style LSH at two budgets.
    for (bits, rounds) in [(4usize, 2usize), (3, 4)] {
        let mut lsh_rng = SeededRng::new(32);
        let lsh = LshAttention::new(d, LshAttentionConfig { bucket_bits: bits, rounds }, &mut lsh_rng);
        eval(format!("LSH ({bits} bits x {rounds} rounds)"), &mut |inputs| {
            lsh.candidates(inputs).0
        });
    }
    // Local windows at two budgets.
    for window in [32usize, 64] {
        let local = LocalAttention::new(window, 2);
        eval(format!("local (window +-{window})"), &mut |inputs| local.candidates(inputs).0);
    }
    table.print();
    println!(
        "\nthe planted relevance here is content-based and position-free, so the\nstatic local pattern pays a large quality penalty at equal budget, and LSH\nneeds several rounds to match ELSA's norm-aware thresholding\n"
    );

    // Wall-clock story on commercial hardware.
    let gpu = GpuModel::v100();
    let mut lsh_rng = SeededRng::new(33);
    let lsh = LshAttention::new(d, LshAttentionConfig::default(), &mut lsh_rng);
    println!("modeled V100 wall-clock: dense vs Reformer-style LSH attention");
    let mut wc = Table::new(&["n", "dense (us)", "LSH (us)", "LSH speedup"]);
    for n in [512usize, 1024, 2048, 4096, 8192] {
        let dense = gpu.attention_kernel_time_s(n, d);
        let sparse = lsh.wall_clock_model_s(n, d, 0.1 * n as f64);
        wc.row(&[
            n.to_string(),
            fmt(dense * 1e6, 0),
            fmt(sparse * 1e6, 0),
            format!("{:.2}x", dense / sparse),
        ]);
    }
    wc.print();
    println!(
        "\npaper: 'Reformer fails to achieve any speedup for sequence length less\nthan 2048, due to its huge constant in their time complexity'"
    );
}
