//! Acceptance battery for the online serving subsystem (`elsa-serve`).
//!
//! Four promises are under test, per the serving design:
//!
//! * **(a) Determinism** — the same seeded arrival trace produces a
//!   bit-identical `ServeReport` (`f64::to_bits`, never an epsilon) at any
//!   `ELSA_THREADS`, including under a chaotic fault plan.
//! * **(b) Offline equivalence** — with an unbounded queue, no batching
//!   wait, batch size 1, and a simultaneous trace, the online pipeline's
//!   per-request records are bit-identical to the offline FIFO oracle
//!   shared with the fault-tolerance battery (`tests/common`).
//! * **(c) Overload behavior** — accounting is exact
//!   (`offered = served + shed + timed-out + failed`) at every load, and
//!   SLO attainment degrades monotonically across increasing λ on the
//!   *same* request sequence (the arrival generator's forked streams keep
//!   shapes fixed while λ compresses the timeline).
//! * **(d) Padding waste** — length-bucketed (ELSA) batching sustains at
//!   least the throughput of the pad-to-batch-max (GPU-style) emulation on
//!   a mixed-length trace, because padding only ever adds rows.
//! * **(e) Multi-turn sessions** — with session-affinity batching and a
//!   bounded decode cache in play, the exact-accounting identity
//!   (`offered = served + shed + timed-out + failed`, and
//!   `hits + cold + stale = served`) still holds and the whole
//!   [`ServeReport`], cache statistics included, is bit-identical across
//!   worker counts; the degenerate configuration (capacity = ∞,
//!   single-turn traces) serves the same records and bucket accounting as
//!   [`OnlineServer::serve`], which runs no cache.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test online_serving`.

mod common;

use std::sync::OnceLock;

use common::{fifo_reference, record_bits};
use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::fault::{FaultPlan, FaultRates};
use elsa::linalg::SeededRng;
use elsa::parallel::with_threads;
use elsa::serve::{
    ArrivalConfig, Backpressure, BatchPolicy, BatcherMode, CacheConfig, EvictionPolicy,
    OnlineServer, Outcome, ServeConfig, ServeReport, SessionArrivalConfig, SessionTrace,
};
use elsa::sim::{AcceleratorConfig, ElsaAccelerator};
use elsa::workloads::trace::WorkloadTrace;
use elsa::workloads::{DatasetKind, LongCtxKind, ModelKind, Workload};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

fn workload() -> Workload {
    Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
}

/// One learned operator shared by the whole battery (learning is the
/// expensive step and is orthogonal to the serving layer).
fn operator() -> &'static ElsaAttention {
    static OPERATOR: OnceLock<ElsaAttention> = OnceLock::new();
    OPERATOR.get_or_init(|| {
        let mut rng = SeededRng::new(0x5E4E);
        let train = workload().generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(0x5E4F)), &train, 1.0)
    })
}

/// Bit-exact projection of a serve report: every `f64` as raw bits.
fn report_bits(report: &ServeReport) -> Vec<(usize, u64, u64, u64, u32, String)> {
    report
        .records
        .iter()
        .map(|r| {
            (
                r.n_real,
                r.queue_delay_s.to_bits(),
                r.service_s.to_bits(),
                r.completion_s.to_bits(),
                r.retries,
                format!("{:?}", r.outcome),
            )
        })
        .collect()
}

// ---- (a) cross-thread determinism ----

#[test]
fn serve_report_is_bit_identical_across_worker_counts() {
    let trace = SessionTrace::poisson(
        &workload(),
        &ArrivalConfig { slo_ns: Some(500_000), ..ArrivalConfig::poisson(120_000.0, 40) },
        &mut SeededRng::new(0xA11CE),
    );
    let serve_config = ServeConfig {
        queue_capacity: Some(16),
        backpressure: Backpressure::ShedNewest,
        batch: BatchPolicy { max_batch: 4, max_wait_ns: 50_000, length_buckets: vec![96, 200] },
        shed_unmeetable: true,
        ..ServeConfig::default()
    };
    let server =
        OnlineServer::new(config(), operator().clone(), FaultPlan::none(), serve_config);
    let baseline = with_threads(1, || server.serve(&trace).expect("healthy pool"));
    for workers in WORKER_COUNTS {
        let report = with_threads(workers, || server.serve(&trace).expect("healthy pool"));
        assert_eq!(report_bits(&baseline), report_bits(&report), "{workers} workers diverged");
        assert_eq!(baseline, report, "{workers} workers diverged beyond the bit projection");
    }
}

#[test]
fn chaotic_fault_plan_stays_deterministic_across_worker_counts() {
    let trace = SessionTrace::poisson(
        &workload(),
        &ArrivalConfig::poisson(150_000.0, 32),
        &mut SeededRng::new(0xB0B),
    );
    let server = OnlineServer::new(
        config(),
        operator().clone(),
        FaultPlan::seeded(0xC4A05, FaultRates::chaotic()),
        ServeConfig::default(),
    );
    match with_threads(1, || server.serve(&trace)) {
        Ok(baseline) => {
            for workers in WORKER_COUNTS {
                let report =
                    with_threads(workers, || server.serve(&trace).expect("matched baseline"));
                assert_eq!(report_bits(&baseline), report_bits(&report));
                assert_eq!(baseline, report);
            }
        }
        Err(err) => {
            // A plan that kills the whole pool must fail identically too.
            for workers in WORKER_COUNTS {
                assert_eq!(with_threads(workers, || server.serve(&trace)).unwrap_err(), err);
            }
        }
    }
}

// ---- (b) offline equivalence ----

#[test]
fn degenerate_online_pipeline_matches_offline_server_bit_for_bit() {
    let recorded = WorkloadTrace::record(&workload(), 20, &mut SeededRng::new(0xD1CE));
    let accel = ElsaAccelerator::new(config(), operator().clone());
    let offline = fifo_reference(&accel, FaultPlan::none(), &recorded.materialize());
    let online_server = OnlineServer::new(
        config(),
        operator().clone(),
        FaultPlan::none(),
        ServeConfig::immediate(),
    );
    let online =
        online_server.serve(&SessionTrace::simultaneous(&recorded)).expect("healthy pool");
    assert_eq!(record_bits(&online.records), record_bits(&offline));
}

// ---- (c) overload: exact accounting + monotone SLO degradation ----

#[test]
fn overload_accounting_is_exact_and_slo_degrades_monotonically_in_lambda() {
    // The three loads share one seed: the arrival generator's forked
    // streams keep the request sequence fixed while λ compresses the
    // timeline, so attainment across loads compares like with like.
    // Saturation for this pool is ≈ 2M req/s (4 units, ≈ 1.9 µs/request on
    // the approximate pipeline): the sweep crosses it from comfortably
    // under to 10× over.
    let lambdas = [800_000.0, 8_000_000.0, 20_000_000.0];
    let serve_config = ServeConfig {
        queue_capacity: Some(12),
        backpressure: Backpressure::ShedNewest,
        batch: BatchPolicy::single_bucket(4, 4_000),
        shed_unmeetable: true,
        ..ServeConfig::default()
    };
    let server =
        OnlineServer::new(config(), operator().clone(), FaultPlan::none(), serve_config);
    let mut attainments = Vec::new();
    for lambda in lambdas {
        let trace = SessionTrace::poisson(
            &workload(),
            &ArrivalConfig { slo_ns: Some(12_000), ..ArrivalConfig::poisson(lambda, 80) },
            &mut SeededRng::new(0x10AD),
        );
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(
            report.served_count()
                + report.shed_count()
                + report.timed_out_count()
                + report.failed_count(),
            report.offered_count(),
            "accounting must be exact at λ = {lambda}"
        );
        assert_eq!(report.offered_count(), 80);
        // Every record belongs to exactly one outcome class by construction;
        // spot-check the partition is honest, not just the counters.
        let by_match = report
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    Outcome::Served { .. }
                        | Outcome::ShedQueueFull
                        | Outcome::ShedUnmeetable
                        | Outcome::TimedOut
                        | Outcome::Failed
                )
            })
            .count();
        assert_eq!(by_match, 80);
        attainments.push(report.slo_attainment());
    }
    assert!(
        attainments.windows(2).all(|w| w[0] >= w[1]),
        "SLO attainment must not improve with load: {attainments:?}"
    );
    assert!(
        attainments[0] > attainments[2],
        "8× overload must strictly degrade attainment: {attainments:?}"
    );
    assert!(attainments[0] > 0.9, "light load should mostly meet the SLO: {attainments:?}");
}

// ---- (d) bucketed vs padded throughput ----

#[test]
fn bucketed_batching_sustains_at_least_padded_throughput() {
    // High λ and a wide-open batch window force full batches of mixed
    // lengths — the worst case for pad-to-max.
    let trace = SessionTrace::poisson(
        &workload(),
        &ArrivalConfig::poisson(1_000_000.0, 48),
        &mut SeededRng::new(0xFAD),
    );
    let serve = |mode| {
        let server = OnlineServer::new(
            config(),
            operator().clone(),
            FaultPlan::none(),
            ServeConfig {
                batch: BatchPolicy::single_bucket(8, 2_000_000),
                mode,
                ..ServeConfig::default()
            },
        );
        server.serve(&trace).expect("healthy pool")
    };
    let bucketed = serve(BatcherMode::Bucketed);
    let padded = serve(BatcherMode::Padded);
    assert_eq!(bucketed.served_count(), 48);
    assert_eq!(padded.served_count(), 48);
    assert!(
        padded.bucket_stats[0].padded_rows > 0,
        "the trace must actually mix lengths for this comparison to bite"
    );
    assert_eq!(bucketed.bucket_stats[0].padded_rows, 0, "ELSA pays no padding");
    let (b, p) = (bucketed.throughput_per_s(), padded.throughput_per_s());
    assert!(
        b >= p,
        "bucketed throughput {b} must be at least padded throughput {p}"
    );
    // Per-request: padding can only add work.
    for (bu, pa) in bucketed.records.iter().zip(&padded.records) {
        assert!(pa.service_s >= bu.service_s, "request {} got cheaper when padded", bu.id);
    }
}

// ---- (e) multi-turn sessions: eviction rebuilds + degenerate equivalence ----

#[test]
fn multi_turn_accounting_is_exact_under_eviction_and_replays_across_threads() {
    // Eight interleaved sessions (resident peak ≈ 185 KB unbounded) against
    // a 60 KB cache — room for roughly two of them: evictions (and the
    // stale rebuilds they force) are guaranteed to be in play, which is
    // exactly when the accounting identities must not bend.
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 100_000.0,
            sessions: 8,
            slo_ns: Some(2_000_000),
            max_decode_turns: Some(5),
        },
        &mut SeededRng::new(0x5E55),
    );
    let server = OnlineServer::new(
        config(),
        operator().clone(),
        FaultPlan::none(),
        ServeConfig {
            batch: BatchPolicy { max_batch: 4, max_wait_ns: 50_000, length_buckets: vec![96, 200] },
            shed_unmeetable: true,
            ..ServeConfig::default()
        },
    );
    for policy in [EvictionPolicy::Lru, EvictionPolicy::SloAware] {
        let cache = CacheConfig { capacity_bytes: Some(60_000), policy };
        let baseline =
            with_threads(1, || server.serve_sessions(&trace, cache).expect("healthy pool"));
        // Accounting identity over the turn outcomes...
        let serve = &baseline;
        assert_eq!(
            serve.served_count()
                + serve.shed_count()
                + serve.timed_out_count()
                + serve.failed_count(),
            serve.offered_count(),
            "turn accounting must be exact ({policy:?})"
        );
        assert_eq!(serve.offered_count(), trace.len());
        // ...and over the cache classification of the served turns.
        let cache_stats = baseline.cache.expect("served with a cache");
        assert_eq!(
            cache_stats.hits + cache_stats.cold + cache_stats.stale,
            serve.served_count() as u64,
            "every served turn is exactly one of hit/cold/stale ({policy:?})"
        );
        assert!(cache_stats.evictions > 0, "the bound must actually evict ({policy:?})");
        assert!(
            cache_stats.stale > 0 && cache_stats.rebuilt_tokens > 0,
            "evicted sessions must pay a from-scratch rebuild on return ({policy:?})"
        );
        assert!(cache_stats.hits > 0, "surviving sessions must still hit ({policy:?})");
        assert!(cache_stats.peak_bytes <= 60_000 + 200 * 528, "peak before eviction bound");
        // The whole report — records, bucket stats, cache stats — replays
        // bit-identically at every worker count.
        for workers in WORKER_COUNTS {
            let report =
                with_threads(workers, || server.serve_sessions(&trace, cache).expect("healthy"));
            assert_eq!(report_bits(&baseline), report_bits(&report));
            assert_eq!(baseline, report, "{workers} workers diverged ({policy:?})");
        }
    }
}

#[test]
fn degenerate_session_serving_matches_plain_online_server_bitwise() {
    // Single-turn sessions + an unbounded cache must collapse onto the
    // plain pipeline: same records, same bucket stats, bit for bit — the
    // session layer is a pure extension, not a reinterpretation. Only the
    // cache statistics differ, by design: `serve` runs no cache. The
    // long-context entries run fewer query rows than they have keys.
    let mut traces = vec![SessionTrace::poisson(
        &workload(),
        &ArrivalConfig { slo_ns: Some(500_000), ..ArrivalConfig::poisson(150_000.0, 36) },
        &mut SeededRng::new(0x5E56),
    )];
    for kind in LongCtxKind::all() {
        let recorded = kind.record_trace(192, 3, &mut SeededRng::new(0x5E57));
        traces.push(SessionTrace::simultaneous(&recorded));
    }
    let server = OnlineServer::new(
        config(),
        operator().clone(),
        FaultPlan::none(),
        ServeConfig {
            queue_capacity: Some(16),
            backpressure: Backpressure::ShedNewest,
            batch: BatchPolicy { max_batch: 4, max_wait_ns: 50_000, length_buckets: vec![96, 200] },
            shed_unmeetable: true,
            ..ServeConfig::default()
        },
    );
    for trace in &traces {
        for workers in WORKER_COUNTS {
            let (plain, session) = with_threads(workers, || {
                (
                    server.serve(trace).expect("healthy pool"),
                    server.serve_sessions(trace, CacheConfig::unbounded()).expect("healthy pool"),
                )
            });
            assert_eq!(report_bits(&plain), report_bits(&session), "threads={workers}");
            assert_eq!(plain.records, session.records, "threads={workers}");
            assert_eq!(plain.bucket_stats, session.bucket_stats, "threads={workers}");
            assert_eq!(plain.cache, None, "threads={workers}");
            // One-turn sessions can never hit or go stale, and nothing evicts.
            let cache = session.cache.expect("served with a cache");
            assert_eq!(cache.hits, 0);
            assert_eq!(cache.stale, 0);
            assert_eq!(cache.evictions, 0);
            assert_eq!(cache.cold, plain.served_count() as u64);
        }
    }
}
