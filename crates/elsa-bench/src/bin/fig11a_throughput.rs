//! **E3 / Fig. 11(a)** — self-attention throughput normalized to the GPU,
//! for the ideal accelerator and the four ELSA operating points, per
//! workload, with geometric means.
//!
//! Run: `cargo run --release -p elsa-bench --bin fig11a_throughput`

use elsa_bench::harness::{evaluate_all, ElsaPoint};
use elsa_bench::table::{fmt_factor, geomean, Table};

fn main() {
    let results = evaluate_all();
    println!("Fig. 11(a) — normalized self-attention throughput (GPU = 1)\n");
    let mut table = Table::new(&[
        "workload",
        "mean real n",
        "ideal",
        "ELSA-base",
        "conservative",
        "moderate",
        "aggressive",
    ]);
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for perf in &results {
        let gpu = perf.gpu_throughput_per_s();
        let speedups = [
            perf.ideal_throughput_per_s() / gpu,
            perf.point(ElsaPoint::Base).throughput_per_s / gpu,
            perf.point(ElsaPoint::Conservative).throughput_per_s / gpu,
            perf.point(ElsaPoint::Moderate).throughput_per_s / gpu,
            perf.point(ElsaPoint::Aggressive).throughput_per_s / gpu,
        ];
        for (acc, s) in per_point.iter_mut().zip(speedups) {
            acc.push(s);
        }
        table.row(&[
            perf.workload.name(),
            format!("{:.0}/{}", perf.mean_real_len, perf.padded_len),
            fmt_factor(speedups[0]),
            fmt_factor(speedups[1]),
            fmt_factor(speedups[2]),
            fmt_factor(speedups[3]),
            fmt_factor(speedups[4]),
        ]);
    }
    table.row(&[
        "GEOMEAN".into(),
        "-".into(),
        fmt_factor(geomean(&per_point[0])),
        fmt_factor(geomean(&per_point[1])),
        fmt_factor(geomean(&per_point[2])),
        fmt_factor(geomean(&per_point[3])),
        fmt_factor(geomean(&per_point[4])),
    ]);
    table.print();
    println!(
        "\npaper: ELSA-base 7.99-43.93x per workload; geomeans 57x / 73x / 81x for\nconservative / moderate / aggressive (58.1x headline geomean)"
    );
}
