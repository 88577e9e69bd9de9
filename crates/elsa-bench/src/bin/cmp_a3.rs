//! **E8 / §V-E** — comparison with the A³ accelerator on a
//! BERT / SQuAD v1.1-like workload.
//!
//! Paper numbers: A³'s approximation gives 1.85× over its own base at 1.3%
//! accuracy loss; ELSA-conservative/moderate give 2.76×/3.72× over
//! ELSA-base at <1%/<2.5% loss (5.96×/8.04× better raw speedup after
//! accounting for baselines). A³'s host-side sort preprocessing also stops
//! it from scaling to multiple accelerators.
//!
//! Run: `cargo run --release -p elsa-bench --bin cmp_a3`

use elsa_baselines::A3Model;
use elsa_bench::harness::{compare_a3, evaluate_workload_perf};
use elsa_bench::table::{fmt, Table};
use elsa_workloads::{DatasetKind, ModelKind, Workload};

fn main() {
    let workload = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 };
    let perf = evaluate_workload_perf(&workload);
    let cmp = compare_a3(&perf);
    println!("§V-E — ELSA vs A3 on {}\n", workload.name());
    let mut table = Table::new(&["metric", "A3", "ELSA-conservative", "ELSA-moderate"]);
    table.row(&[
        "speedup over own base".into(),
        format!("{:.2}x", cmp.a3_speedup),
        format!("{:.2}x", cmp.elsa_conservative_speedup),
        format!("{:.2}x", cmp.elsa_moderate_speedup),
    ]);
    table.row(&[
        "relative advantage vs A3".into(),
        "1.00x".into(),
        format!("{:.2}x", cmp.elsa_conservative_speedup / cmp.a3_speedup),
        format!("{:.2}x", cmp.elsa_moderate_speedup / cmp.a3_speedup),
    ]);
    table.print();
    println!("paper: A3 1.85x; ELSA 2.76x / 3.72x over its base\n");

    // Preprocessing scaling pathology.
    let a3 = A3Model::paper();
    let n = perf.mean_real_len.round() as usize;
    println!("A3 preprocessing share of total time vs number of accelerators:");
    let mut scaling = Table::new(&["units", "total time (us)", "preprocessing share (%)"]);
    for units in [1usize, 2, 4, 8, 12] {
        let total = a3.total_time_s(n, 64, units, true);
        let share = a3.preprocessing_time_s(n, 64) / total;
        scaling.row(&[units.to_string(), fmt(total * 1e6, 1), fmt(share * 100.0, 1)]);
    }
    scaling.print();
    println!(
        "\nELSA's preprocessing runs on-accelerator and replicates with it; A3's\nhost-side column sort does not (and needs 2x key-matrix storage: factor {}).",
        a3.preprocessing_storage_factor()
    );
}
