//! Serving simulation: a burst of variable-length MovieLens-style requests
//! through the twelve-accelerator deployment, with latency percentiles —
//! the deployment-facing view of the paper's batch-level parallelism
//! (§IV-D) and padding-free execution (§V-C).
//!
//! Run: `cargo run --release --example serving`

use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::fault::FaultPlan;
use elsa::linalg::reduce::sum_f64;
use elsa::linalg::SeededRng;
use elsa::serve::{OnlineServer, ServeConfig, SessionTrace};
use elsa::sim::AcceleratorConfig;
use elsa::workloads::trace::WorkloadTrace;
use elsa::workloads::{DatasetKind, ModelKind, Workload};

fn main() {
    let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
    let mut rng = SeededRng::new(88);
    let train = workload.generate_batch(2, &mut rng);
    // The whole burst arrives at t = 0; immediate dispatch serves it
    // first-come first-served onto whichever accelerator frees first.
    let requests = SessionTrace::simultaneous(&WorkloadTrace::record(&workload, 96, &mut rng));

    let operator =
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(89)), &train, 1.0);
    let server = OnlineServer::new(
        AcceleratorConfig { n_max: 200, ..AcceleratorConfig::paper() },
        operator,
        FaultPlan::none(),
        ServeConfig::immediate(),
    );

    println!(
        "serving {} {} requests over 12 ELSA accelerators\n",
        requests.len(),
        workload.name()
    );
    let report = server.serve(&requests).expect("operator fits the hardware");
    let lens: Vec<usize> = report.records.iter().map(|r| r.n_real).collect();
    println!(
        "request lengths: min {} / max {} (padding-free execution)",
        lens.iter().min().expect("nonempty"),
        lens.iter().max().expect("nonempty")
    );
    let total_service_s = sum_f64(report.records.iter().map(|r| r.service_s));
    println!(
        "mean service time: {:.2} us",
        total_service_s / report.served_count() as f64 * 1e6
    );
    for q in [50.0, 95.0, 99.0] {
        println!(
            "p{q:>2.0} completion latency: {:.2} us",
            report.completion_percentile_s(q) * 1e6
        );
    }
    println!("throughput: {:.0} requests/s", report.throughput_per_s());
    println!(
        "\nshort histories finish early because ELSA processes only real entities;\na padded GPU batch would pin every request to worst-case latency"
    );
}
