//! **E9 / §V-E** — peak-FLOPS-normalized comparison with Google TPUv2 on
//! the ALBERT workloads.
//!
//! Paper numbers: ELSA-base is 8.3× / 6.4× / 2.4× better than TPU on
//! SQuAD v1.1 / v2.0 / RACE (peak-normalized), ELSA-moderate 27.8× / 20.9×
//! / 8.0×; the TPU itself measures 5.5× / 6.7× / 5.4× better than the GPU.
//!
//! Run: `cargo run --release -p elsa-bench --bin cmp_tpu`

use elsa_baselines::{AttentionDevice, GpuModel, TpuModel};
use elsa_bench::harness::{evaluate_workload_perf, ElsaPoint};
use elsa_bench::table::{fmt, Table};
use elsa_sim::AcceleratorConfig;
use elsa_workloads::{DatasetKind, ModelKind, Workload};

fn main() {
    let tpu = TpuModel::v2();
    let gpu = GpuModel::v100();
    let elsa_peak = AcceleratorConfig::paper().aggregate_peak_ops_per_second();
    println!("§V-E — ELSA vs TPUv2 on ALBERT (peak-FLOPS-normalized throughput)\n");
    let mut table = Table::new(&[
        "dataset",
        "TPU vs GPU",
        "ELSA-base vs TPU",
        "ELSA-moderate vs TPU",
    ]);
    for dataset in [DatasetKind::SquadV11, DatasetKind::SquadV20, DatasetKind::Race] {
        let workload = Workload { model: ModelKind::AlbertLarge, dataset };
        let perf = evaluate_workload_perf(&workload);
        let padded = perf.padded_len;
        // Peak-normalized throughput: invocations/s divided by peak FLOPS.
        let tpu_norm = 1.0 / (tpu.attention_latency_s(padded, padded, 64) * tpu.peak_flops());
        let gpu_norm = 1.0 / (perf.gpu_latency_s * gpu.peak_flops());
        let base_norm = perf.point(ElsaPoint::Base).throughput_per_s / elsa_peak;
        let mod_norm = perf.point(ElsaPoint::Moderate).throughput_per_s / elsa_peak;
        table.row(&[
            dataset.name().to_string(),
            fmt(tpu_norm / gpu_norm, 1),
            fmt(base_norm / tpu_norm, 1),
            fmt(mod_norm / tpu_norm, 1),
        ]);
    }
    table.print();
    println!(
        "\npaper: TPU vs GPU 5.5/6.7/5.4; ELSA-base vs TPU 8.3/6.4/2.4;\nELSA-moderate vs TPU 27.8/20.9/8.0 (SQuADv1.1 / SQuADv2.0 / RACE)"
    );
}
