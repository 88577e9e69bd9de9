//! **E-FAULT** — graceful-degradation sweep under injected faults, emitted
//! as JSON for the committed `BENCH_fault.json` at the repo root.
//!
//! Capture: `cargo run --release -p elsa-bench --bin bench_fault > BENCH_fault.json`
//!
//! A 48-request batch (a recorded trace, all arriving at t = 0) is served
//! by `OnlineServer` under `ServeConfig::immediate()` — first-come
//! first-served onto the unit that frees first — while one fault class at
//! a time is injected at increasing rates. Each row reports the p99
//! completion latency, the degraded fraction, the failed fraction, and
//! mean retries. Latencies come from the simulator's deterministic virtual
//! clock and nothing reads a wall clock, so the file reproduces
//! byte-for-byte on any host (`scripts/verify.sh` diffs it).

use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_fault::{FaultPlan, FaultRates};
use elsa_linalg::SeededRng;
use elsa_serve::{OnlineServer, ServeConfig, SessionTrace};
use elsa_sim::AcceleratorConfig;
use elsa_workloads::trace::WorkloadTrace;
use elsa_workloads::{DatasetKind, ModelKind, Workload};

const BATCH: usize = 48;
const PLAN_SEED: u64 = 0xE15A_FA11;

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

struct SweepRow {
    fault: &'static str,
    rate: f64,
    p99_s: f64,
    degraded_fraction: f64,
    failed_fraction: f64,
    mean_retries: f64,
}

fn main() {
    let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
    let operator = {
        let mut rng = SeededRng::new(20);
        let train = workload.generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(21)), &train, 1.0)
    };
    let recorded = WorkloadTrace::record(&workload, BATCH, &mut SeededRng::new(22));
    let batch = SessionTrace::simultaneous(&recorded);

    let sweeps: [(&'static str, fn(f64) -> FaultRates); 3] = [
        ("transient", |r| FaultRates { transient: r, ..FaultRates::none() }),
        ("straggler", |r| FaultRates {
            straggler: r,
            straggler_max_factor: 4.0,
            ..FaultRates::none()
        }),
        ("corrupt", |r| FaultRates { corrupt: r, ..FaultRates::none() }),
    ];
    let mut rows: Vec<SweepRow> = Vec::new();
    for (fault, rates) in sweeps {
        for rate in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let server = OnlineServer::new(
                config(),
                operator.clone(),
                FaultPlan::seeded(PLAN_SEED, rates(rate)),
                ServeConfig::immediate(),
            );
            let report = server.serve(&batch).expect("no unit death in the sweep");
            let n = report.offered_count() as f64;
            rows.push(SweepRow {
                fault,
                rate,
                p99_s: report.completion_percentile_s(99.0),
                degraded_fraction: report.degraded_count() as f64 / n,
                failed_fraction: report.failed_count() as f64 / n,
                mean_retries: report.total_retries() as f64 / n,
            });
        }
    }

    println!("{{");
    println!("  \"bench\": \"fault_injection_serving\",");
    println!(
        "  \"capture_command\": \"cargo run --release -p elsa-bench --bin bench_fault > BENCH_fault.json\","
    );
    println!("  \"batch\": {BATCH},");
    println!("  \"num_accelerators\": 4,");
    println!("  \"plan_seed\": {PLAN_SEED},");
    println!(
        "  \"note\": \"a recorded batch arriving at t = 0, served by OnlineServer under ServeConfig::immediate(); latencies are the simulator's deterministic virtual clock, so this file reproduces byte-for-byte on any host.\","
    );
    println!("  \"sweep\": [");
    let last = rows.len() - 1;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!(
            "    {{ \"fault\": \"{}\", \"rate\": {:.2}, \"p99_completion_s\": {:.6}, \"degraded_fraction\": {:.4}, \"failed_fraction\": {:.4}, \"mean_retries\": {:.4} }}{comma}",
            r.fault, r.rate, r.p99_s, r.degraded_fraction, r.failed_fraction, r.mean_retries
        );
    }
    println!("  ]");
    println!("}}");
}
