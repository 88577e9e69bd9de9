//! **E7 / Fig. 13(b)** — per-module energy breakdown of one self-attention
//! invocation, for ELSA-base / conservative / moderate / aggressive
//! (the paper's stacked bars), averaged over the NLP workloads.
//!
//! Run: `cargo run --release -p elsa-bench --bin fig13b_energy_breakdown`

use elsa_bench::harness::{evaluate_workload_perf, ElsaPoint};
use elsa_bench::table::{fmt, Table};
use elsa_workloads::{DatasetKind, ModelKind, Workload};

fn main() {
    let workload = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 };
    let perf = evaluate_workload_perf(&workload);
    println!(
        "Fig. 13(b) — energy breakdown per invocation, {} (µJ)\n",
        workload.name()
    );
    let module_names: Vec<&'static str> =
        perf.point(ElsaPoint::Base).module_energy_j.iter().map(|(n, _)| *n).collect();
    let mut headers: Vec<&str> = vec!["module"];
    for p in ElsaPoint::all() {
        headers.push(p.name());
    }
    let mut table = Table::new(&headers);
    for (i, name) in module_names.iter().enumerate() {
        let mut row = vec![(*name).to_string()];
        for point in ElsaPoint::all() {
            let j = perf.point(point).module_energy_j[i].1;
            row.push(fmt(j * 1e6, 2));
        }
        table.row(&row);
    }
    let mut static_row = vec!["(static, all modules)".to_string()];
    let mut total_row = vec!["TOTAL".to_string()];
    for point in ElsaPoint::all() {
        let p = perf.point(point);
        static_row.push(fmt(p.static_energy_j * 1e6, 2));
        total_row.push(fmt(p.energy_j * 1e6, 2));
    }
    table.row(&static_row);
    table.row(&total_row);
    table.print();
    println!(
        "\npaper: approximation cuts total energy mainly by shrinking the attention\ncomputation, output division and external memory energy, despite adding the\nhash/selection hardware"
    );
}
