//! **Ablation / §III-E motivation** — threshold-based candidate selection
//! (ELSA) versus an oracle top-k over the *approximate* similarities with
//! the same average candidate budget. Top-k needs an `n log n` sort the
//! hardware cannot stream; the question is how much quality the threshold
//! gives up for its O(1)-per-key implementability.
//!
//! Run: `cargo run --release -p elsa-bench --bin ablation_topk`

use elsa_attention::exact::{self, AttentionInputs};
use elsa_bench::table::{fmt, Table};
use elsa_core::attention::{ElsaAttention, ElsaParams, PreprocessedKeys};
use elsa_linalg::{Matrix, SeededRng};
use elsa_workloads::tasks::ClassificationProbe;
use elsa_workloads::AttentionPatternConfig;

/// Top-k selection over approximate similarities, same budget per query.
fn topk_candidates(operator: &ElsaAttention, inputs: &AttentionInputs, k: usize) -> Vec<Vec<usize>> {
    let pre = PreprocessedKeys::compute(operator.params(), inputs.key());
    let lut = operator.params().lut();
    let hasher = operator.params().hasher();
    (0..inputs.num_queries())
        .map(|i| {
            let qh = hasher.hash(inputs.query().row(i));
            let mut sims: Vec<(usize, f64)> = pre
                .norms()
                .iter()
                .enumerate()
                .map(|(j, &norm)| (j, lut.cos_of_hamming(qh.hamming_words(pre.signature(j))) * norm))
                .collect();
            sims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarity"));
            sims.truncate(k.max(1));
            sims.into_iter().map(|(j, _)| j).collect()
        })
        .collect()
}

fn main() {
    let d = 64;
    let n = 256;
    let mut rng = SeededRng::new(14);
    let cfg = AttentionPatternConfig::new(n, d, 6, 2.0);
    let train = cfg.generate_batch(2, &mut rng);
    let test = cfg.generate_batch(3, &mut rng);
    let probe = ClassificationProbe::new(16, d, &mut rng);
    println!("Ablation — learned threshold vs top-k selection (equal budget)\n");
    let mut table = Table::new(&[
        "p",
        "threshold metric (%)",
        "budget (cand/query)",
        "top-k metric (%)",
        "gap (pp)",
    ]);
    for p in [0.5, 1.0, 2.0, 4.0] {
        let mut rng2 = SeededRng::new(15);
        let params = ElsaParams::for_dims(d, d, &mut rng2);
        let operator = ElsaAttention::learn(params, &train, p);
        let mut thr_metric = 0.0;
        let mut topk_metric = 0.0;
        let mut budget = 0.0;
        for inputs in &test {
            let exact_out = exact::attention(inputs);
            let (thr_out, stats) = operator.forward(inputs);
            let k = stats.avg_candidates_per_query().round().max(1.0) as usize;
            budget += k as f64;
            let cands = topk_candidates(&operator, inputs, k);
            let topk_out: Matrix = exact::attention_with_candidates(inputs, &cands, 1.0);
            thr_metric += probe.agreement(&exact_out, &thr_out);
            topk_metric += probe.agreement(&exact_out, &topk_out);
        }
        let count = test.len() as f64;
        table.row(&[
            fmt(p, 1),
            fmt(thr_metric / count * 100.0, 2),
            fmt(budget / count, 1),
            fmt(topk_metric / count * 100.0, 2),
            fmt((topk_metric - thr_metric) / count * 100.0, 2),
        ]);
    }
    table.print();
    println!(
        "\nthe threshold trades a small quality gap for a streaming, sort-free\nimplementation (one compare per key per cycle, §III-E's motivation)"
    );
}
