//! **E6 / Fig. 13(a)** — energy efficiency (performance per watt) of the
//! ELSA configurations, normalized to the GPU.
//!
//! Per-invocation energy is the activity-based estimate from the cycle
//! simulation (one accelerator + its external memories); the GPU's is its
//! modeled kernel time × its measured ~240 W draw.
//!
//! Run: `cargo run --release -p elsa-bench --bin fig13a_energy_efficiency`

use elsa_bench::harness::{evaluate_all, ElsaPoint};
use elsa_bench::table::{fmt_factor, geomean, Table};

fn main() {
    let results = evaluate_all();
    println!("Fig. 13(a) — normalized energy efficiency (perf/W, GPU = 1)\n");
    let mut table =
        Table::new(&["workload", "ELSA-base", "conservative", "moderate", "aggressive"]);
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for perf in &results {
        // perf/W == 1 / (energy per invocation); normalize by the GPU's.
        let ratios = [
            perf.gpu_energy_j / perf.point(ElsaPoint::Base).energy_j,
            perf.gpu_energy_j / perf.point(ElsaPoint::Conservative).energy_j,
            perf.gpu_energy_j / perf.point(ElsaPoint::Moderate).energy_j,
            perf.gpu_energy_j / perf.point(ElsaPoint::Aggressive).energy_j,
        ];
        for (acc, r) in per_point.iter_mut().zip(ratios) {
            acc.push(r);
        }
        table.row(&[
            perf.workload.name(),
            fmt_factor(ratios[0]),
            fmt_factor(ratios[1]),
            fmt_factor(ratios[2]),
            fmt_factor(ratios[3]),
        ]);
    }
    table.row(&[
        "GEOMEAN".into(),
        fmt_factor(geomean(&per_point[0])),
        fmt_factor(geomean(&per_point[1])),
        fmt_factor(geomean(&per_point[2])),
        fmt_factor(geomean(&per_point[3])),
    ]);
    table.print();
    println!(
        "\npaper geomeans: base 442x, conservative 1265x, moderate 1726x, aggressive 2093x"
    );
}
