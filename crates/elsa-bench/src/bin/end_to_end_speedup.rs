//! **E13 / §V-C "Impact on End-to-End Performance"** — model-level speedup
//! when ELSA-conservative accelerators handle the self-attention while the
//! GPU runs the rest of each layer, at the published max input length and
//! at 4× that length.
//!
//! Paper: 1.4–2.5× end-to-end at default lengths; 2.4–5.0× at 4× lengths.
//!
//! Run: `cargo run --release -p elsa-bench --bin end_to_end_speedup`

use elsa_baselines::GpuModel;
use elsa_bench::harness::{evaluate_workload_perf, ElsaPoint};
use elsa_bench::table::{fmt, Table};
use elsa_workloads::{DatasetKind, ModelKind, Workload};

/// End-to-end speedup with attention offloaded to ELSA: Amdahl over the
/// attention fraction, with the offloaded attention time taken from the
/// cycle simulation (per head, all heads across 12 accelerators).
fn speedup(
    gpu: &GpuModel,
    model: ModelKind,
    elsa_attention_latency_s: f64,
    seq_scale: f64,
) -> f64 {
    let cfg = model.config();
    let n = (cfg.max_seq_len as f64 * seq_scale) as usize;
    let gpu_attention = gpu.attention_kernel_time_s(n, cfg.d_head()) * cfg.num_heads as f64;
    let other = gpu.non_attention_layer_time_s(&cfg, n);
    // ELSA runs heads across its 12 accelerators; scale the measured
    // per-invocation latency to this sequence length (quadratic exec phase).
    let heads_per_round = 12.0f64.min(cfg.num_heads as f64);
    let scale = seq_scale * seq_scale;
    let elsa_attention =
        elsa_attention_latency_s * scale * (cfg.num_heads as f64 / heads_per_round);
    (gpu_attention + other) / (elsa_attention + other)
}

fn main() {
    let gpu = GpuModel::v100();
    println!("§V-C — end-to-end model speedup with ELSA-conservative attention\n");
    let mut table = Table::new(&["model", "speedup @ 1x len", "speedup @ 4x len"]);
    let pairs = [
        (ModelKind::BertLarge, DatasetKind::SquadV11),
        (ModelKind::RobertaLarge, DatasetKind::SquadV11),
        (ModelKind::AlbertLarge, DatasetKind::SquadV11),
        (ModelKind::SasRec, DatasetKind::MovieLens1M),
        (ModelKind::Bert4Rec, DatasetKind::MovieLens1M),
    ];
    for (model, dataset) in pairs {
        let perf = evaluate_workload_perf(&Workload { model, dataset });
        let lat = perf.point(ElsaPoint::Conservative).latency_s;
        table.row(&[
            model.name().to_string(),
            format!("{}x", fmt(speedup(&gpu, model, lat, 1.0), 2)),
            format!("{}x", fmt(speedup(&gpu, model, lat, 4.0), 2)),
        ]);
    }
    table.print();
    println!("\npaper: 1.4-2.5x at default max input length; 2.4-5.0x at 4x length");
}
