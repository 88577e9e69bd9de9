//! **E4 / Fig. 11(b)** — average latency of one self-attention operation,
//! normalized to the ideal accelerator, with the preprocessing share
//! (the hatched area in the paper's figure).
//!
//! Run: `cargo run --release -p elsa-bench --bin fig11b_latency`

use elsa_bench::harness::{evaluate_all, ElsaPoint};
use elsa_bench::table::{fmt, geomean, Table};

fn main() {
    let results = evaluate_all();
    println!("Fig. 11(b) — normalized self-attention latency (ideal accelerator = 1)\n");
    let mut table = Table::new(&[
        "workload",
        "ELSA-base",
        "conservative",
        "moderate",
        "aggressive",
        "preproc % (base)",
    ]);
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for perf in &results {
        let ideal = perf.ideal_latency_s;
        let rel = [
            perf.point(ElsaPoint::Base).latency_s / ideal,
            perf.point(ElsaPoint::Conservative).latency_s / ideal,
            perf.point(ElsaPoint::Moderate).latency_s / ideal,
            perf.point(ElsaPoint::Aggressive).latency_s / ideal,
        ];
        for (acc, r) in per_point.iter_mut().zip(rel) {
            acc.push(r);
        }
        table.row(&[
            perf.workload.name(),
            fmt(rel[0], 2),
            fmt(rel[1], 2),
            fmt(rel[2], 2),
            fmt(rel[3], 2),
            fmt(perf.point(ElsaPoint::Base).preprocessing_fraction * 100.0, 1),
        ]);
    }
    table.row(&[
        "GEOMEAN".into(),
        fmt(geomean(&per_point[0]), 2),
        fmt(geomean(&per_point[1]), 2),
        fmt(geomean(&per_point[2]), 2),
        fmt(geomean(&per_point[3]), 2),
        "-".into(),
    ]);
    table.print();
    println!(
        "\npaper: ELSA-base 1.03x of ideal; conservative 0.38x, moderate 0.29x,\naggressive 0.26x; preprocessing is a small share of total time"
    );
}
