//! **E-SERVE** — online serving λ-sweep and batching-mode comparison,
//! emitted as JSON for the committed `BENCH_serve.json` at the repo root.
//!
//! Capture: `cargo run --release -p elsa-bench --bin bench_serve > BENCH_serve.json`
//!
//! Two measurements, both on the simulator's deterministic virtual clock
//! (no host wall-clock anywhere, so the JSON reproduces bit-for-bit on any
//! machine):
//!
//! 1. **λ sweep** — one seeded request sequence replayed at increasing
//!    offered load (the arrival generator's forked PRNG streams keep the
//!    shapes fixed while λ compresses the timeline), reporting queue-delay
//!    p50/p95/p99, SLO attainment, shed/timeout fractions, and served
//!    throughput per load point. The sweep brackets the pool's saturation
//!    point from 0.25× to 8×.
//! 2. **Bucketed vs padded batching** — the same overloaded trace served
//!    under ELSA's length-bucketed (no padding) batching and under the
//!    GPU-style pad-to-batch-max emulation, reporting the padding-waste
//!    fraction and the throughput gap.

use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_fault::FaultPlan;
use elsa_linalg::SeededRng;
use elsa_serve::clock::secs_to_ns;
use elsa_serve::{
    ArrivalConfig, Backpressure, BatchPolicy, BatcherMode, OnlineServer, ServeConfig, ServeReport,
    ServiceEstimator, SessionTrace,
};
use elsa_sim::AcceleratorConfig;
use elsa_workloads::{DatasetKind, ModelKind, Workload};

const COUNT: usize = 160;
const TRACE_SEED: u64 = 0x5E4E_BE4C;

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

fn workload() -> Workload {
    Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
}

fn operator() -> ElsaAttention {
    let mut rng = SeededRng::new(30);
    let train = workload().generate_batch(1, &mut rng);
    ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(31)), &train, 1.0)
}

fn trace_at(lambda: f64, slo_ns: Option<u64>) -> SessionTrace {
    SessionTrace::poisson(
        &workload(),
        &ArrivalConfig { lambda_per_s: lambda, count: COUNT, slo_ns, burst: None },
        &mut SeededRng::new(TRACE_SEED),
    )
}

struct SweepRow {
    lambda: f64,
    load_factor: f64,
    qd_p50_s: f64,
    qd_p95_s: f64,
    qd_p99_s: f64,
    slo_attainment: f64,
    shed_fraction: f64,
    timed_out_fraction: f64,
    throughput_per_s: f64,
}

fn mode_summary(report: &ServeReport) -> (f64, f64, f64) {
    (
        report.throughput_per_s(),
        report.queue_delay_percentile_s(99.0),
        report.bucket_stats.iter().map(|s| s.padded_rows).sum::<u64>() as f64
            / report.bucket_stats.iter().map(|s| s.real_rows + s.padded_rows).sum::<u64>().max(1)
                as f64,
    )
}

fn main() {
    let operator = operator();
    let cfg = config();

    // Calibrate the saturation point from a light-load unbatched run: mean
    // service over the actual request mix, pool capacity = units / mean.
    let probe_server =
        OnlineServer::new(cfg, operator.clone(), FaultPlan::none(), ServeConfig::immediate());
    let probe = probe_server.serve(&trace_at(1_000.0, None)).expect("healthy pool");
    let mean_service_s = probe.records.iter().map(|r| r.service_s).sum::<f64>()
        / probe.records.len() as f64;
    let lambda_star = cfg.num_accelerators as f64 / mean_service_s;
    // Deadline: 6x the mean service time — tight enough that queueing past
    // saturation visibly burns it, loose enough that light load meets it.
    let slo_ns = secs_to_ns(6.0 * mean_service_s);
    let analytic = ServiceEstimator::new(cfg, 0.25);

    // 1. λ sweep at fixed shapes.
    let serve_config = ServeConfig {
        queue_capacity: Some(24),
        backpressure: Backpressure::ShedNewest,
        batch: BatchPolicy::single_bucket(4, slo_ns / 4),
        shed_unmeetable: true,
        ..ServeConfig::default()
    };
    let server = OnlineServer::new(cfg, operator.clone(), FaultPlan::none(), serve_config);
    let mut rows: Vec<SweepRow> = Vec::new();
    for load_factor in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let lambda = load_factor * lambda_star;
        let report = server.serve(&trace_at(lambda, Some(slo_ns))).expect("healthy pool");
        let n = report.offered_count() as f64;
        rows.push(SweepRow {
            lambda,
            load_factor,
            qd_p50_s: report.queue_delay_percentile_s(50.0),
            qd_p95_s: report.queue_delay_percentile_s(95.0),
            qd_p99_s: report.queue_delay_percentile_s(99.0),
            slo_attainment: report.slo_attainment(),
            shed_fraction: report.shed_count() as f64 / n,
            timed_out_fraction: report.timed_out_count() as f64 / n,
            throughput_per_s: report.throughput_per_s(),
        });
    }

    // 2. Bucketed vs padded batching on an overloaded mixed-length trace.
    let batch_trace = trace_at(4.0 * lambda_star, None);
    let serve_mode = |mode| {
        let server = OnlineServer::new(
            cfg,
            operator.clone(),
            FaultPlan::none(),
            ServeConfig {
                batch: BatchPolicy::single_bucket(8, slo_ns),
                mode,
                ..ServeConfig::default()
            },
        );
        server.serve(&batch_trace).expect("healthy pool")
    };
    let (bucketed_tp, bucketed_qd99, bucketed_waste) =
        mode_summary(&serve_mode(BatcherMode::Bucketed));
    let (padded_tp, padded_qd99, padded_waste) = mode_summary(&serve_mode(BatcherMode::Padded));
    let gain_pct = (bucketed_tp / padded_tp - 1.0) * 100.0;

    println!("{{");
    println!("  \"bench\": \"online_serving\",");
    println!(
        "  \"capture_command\": \"cargo run --release -p elsa-bench --bin bench_serve > BENCH_serve.json\","
    );
    println!("  \"workload\": \"{}\",", workload().name());
    println!("  \"trace_count\": {COUNT},");
    println!("  \"trace_seed\": {TRACE_SEED},");
    println!("  \"num_accelerators\": {},", cfg.num_accelerators);
    println!(
        "  \"note\": \"all latencies and throughputs are the simulator's deterministic virtual clock; the JSON reproduces bit-for-bit on any host. One seeded request sequence is replayed at every lambda (forked PRNG streams fix the shapes), so load points compare like with like.\","
    );
    println!("  \"calibration\": {{");
    println!("    \"mean_service_s\": {mean_service_s:.9},");
    println!("    \"measured_sustainable_lambda_per_s\": {lambda_star:.1},");
    println!(
        "    \"analytic_sustainable_lambda_per_s\": {:.1},",
        analytic.sustainable_lambda_per_s(
            (probe.records.iter().map(|r| r.n_real).sum::<usize>() / probe.records.len()).max(1)
        )
    );
    println!("    \"slo_ns\": {slo_ns}");
    println!("  }},");
    println!("  \"lambda_sweep\": [");
    let last = rows.len() - 1;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!(
            "    {{ \"load_factor\": {:.2}, \"lambda_per_s\": {:.1}, \"queue_delay_p50_s\": {:.9}, \"queue_delay_p95_s\": {:.9}, \"queue_delay_p99_s\": {:.9}, \"slo_attainment\": {:.4}, \"shed_fraction\": {:.4}, \"timed_out_fraction\": {:.4}, \"throughput_per_s\": {:.1} }}{comma}",
            r.load_factor,
            r.lambda,
            r.qd_p50_s,
            r.qd_p95_s,
            r.qd_p99_s,
            r.slo_attainment,
            r.shed_fraction,
            r.timed_out_fraction,
            r.throughput_per_s
        );
    }
    println!("  ],");
    println!("  \"batching\": {{");
    println!("    \"load_factor\": 4.0,");
    println!("    \"max_batch\": 8,");
    println!("    \"bucketed\": {{ \"throughput_per_s\": {bucketed_tp:.1}, \"queue_delay_p99_s\": {bucketed_qd99:.9}, \"padding_waste\": {bucketed_waste:.4} }},");
    println!("    \"padded\": {{ \"throughput_per_s\": {padded_tp:.1}, \"queue_delay_p99_s\": {padded_qd99:.9}, \"padding_waste\": {padded_waste:.4} }},");
    println!("    \"bucketed_throughput_gain_pct\": {gain_pct:.2}");
    println!("  }}");
    println!("}}");
}
