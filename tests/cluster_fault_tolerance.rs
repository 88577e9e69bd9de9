//! Acceptance battery for fault-tolerant cluster serving (`elsa-cluster`).
//!
//! The fleet's promises, per the cluster design:
//!
//! * **(a) Transparency** — a one-node zero-fault fleet is bit-identical
//!   to the single-node [`OnlineServer::serve`] under every routing
//!   policy: the cluster machinery costs nothing when idle.
//! * **(b) Determinism** — under full chaos (unit faults, node death,
//!   stragglers, flapping, hedging, autoscaling, session caching) the
//!   [`ClusterReport`] replays bit-identically (`f64::to_bits`, never an
//!   epsilon) at any `ELSA_THREADS`, and twice-run fleets agree at every
//!   node count and policy. Quarantine decisions — node-level and
//!   unit-level health snapshots — replay identically too.
//! * **(c) Exact accounting** — `offered = served + shed + timed-out +
//!   failed` at every load and fault mix; every request is finished
//!   exactly once even when hedge copies race and nodes die mid-queue.
//! * **(d) Monotone degradation** — killing a nested prefix of the fleet
//!   (`NodeFaultPlan::kill_first`, 0 → 50 % loss) never improves SLO
//!   attainment on the same trace.
//! * **(e) Failover semantics** — consistent hashing keeps sessions
//!   node-affine while the fleet is healthy; a node death moves its
//!   sessions to the surviving ring and the decode-cache rebuild cost is
//!   paid honestly (stale rebuilds appear only in the death run).
//! * **(f) Degraded-mode machinery** — hedges fire on straggler nodes and
//!   never double-count; flapped nodes are quarantined, probed, and
//!   reinstated; the autoscaler grows the active set under overload and
//!   absorbs a node death.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test cluster_fault_tolerance`.

use std::sync::OnceLock;

use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::cluster::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, HedgeConfig, RoutePolicy,
    fleet_sessions,
};
use elsa::fault::{FaultPlan, FaultRates, NodeFaultPlan, NodeFaultRates};
use elsa::linalg::SeededRng;
use elsa::parallel::with_threads;
use elsa::serve::clock::secs_to_ns;
use elsa::serve::{
    ArrivalConfig, Backpressure, BatchPolicy, CacheConfig, OnlineServer, Outcome, ServeConfig,
    ServeReport, SessionArrivalConfig, SessionTrace,
};
use elsa::sim::AcceleratorConfig;
use elsa::workloads::{DatasetKind, FleetMix, LongCtxKind, ModelKind, Workload};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const POLICIES: [RoutePolicy; 3] =
    [RoutePolicy::ConsistentHash, RoutePolicy::LeastLoaded, RoutePolicy::PowerOfTwoChoices];

fn config() -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
}

fn workload() -> Workload {
    Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
}

/// Recommender-only mix: both components pad to 200 (the battery's
/// `n_max`) and share the 64-dim head the operator was learned for, so one
/// fleet serves the whole mix. (`FleetMix::production` mixes in 512-length
/// NLP traffic, which needs a bigger accelerator than this battery buys.)
fn rec_mix() -> FleetMix {
    FleetMix::new(vec![
        (workload(), 3.0),
        (Workload { model: ModelKind::Bert4Rec, dataset: DatasetKind::MovieLens1M }, 1.0),
    ])
}

/// One learned operator shared by the whole battery (learning is the
/// expensive step and is orthogonal to the cluster layer).
fn operator() -> &'static ElsaAttention {
    static OPERATOR: OnceLock<ElsaAttention> = OnceLock::new();
    OPERATOR.get_or_init(|| {
        let mut rng = SeededRng::new(0x5E4E);
        let train = workload().generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(0x5E4F)), &train, 1.0)
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: Some(16),
        backpressure: Backpressure::ShedNewest,
        batch: BatchPolicy { max_batch: 4, max_wait_ns: 50_000, length_buckets: vec![96, 200] },
        shed_unmeetable: true,
        ..ServeConfig::default()
    }
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

/// Bit-exact projection of a whole cluster report: records, router stats,
/// scale events, and per-node accounting, every `f64` as raw bits.
#[allow(clippy::type_complexity)]
fn cluster_bits(
    report: &ClusterReport,
) -> (
    Vec<(usize, u64, u64, u64, u32, String, Option<usize>, u32, bool)>,
    (u64, u64, u64, u64, u64, u64, u64, u64, u64),
    Vec<(u64, usize, usize, u64)>,
    Vec<(usize, usize, Option<u64>, u64, bool, String)>,
) {
    let records = report
        .records
        .iter()
        .map(|r| {
            (
                r.record.n_real,
                r.record.queue_delay_s.to_bits(),
                r.record.service_s.to_bits(),
                r.record.completion_s.to_bits(),
                r.record.retries,
                format!("{:?}", r.record.outcome),
                r.node,
                r.reroutes,
                r.hedged,
            )
        })
        .collect();
    let s = report.router;
    let router = (
        s.admissions,
        s.refused,
        s.reroutes,
        s.router_finished,
        s.hedges,
        s.hedge_wins,
        s.hedge_wasted_s.to_bits(),
        s.probes,
        s.reinstatements,
    );
    let scale = report
        .scale_events
        .iter()
        .map(|e| (e.t_ns, e.from_active, e.to_active, e.backlog_s.to_bits()))
        .collect();
    let nodes = report
        .nodes
        .iter()
        .map(|n| {
            (
                n.decided,
                n.won,
                n.died_at_ns,
                n.service_scale.to_bits(),
                n.active_at_end,
                format!("{:?}{:?}", n.unit_health, n.cache),
            )
        })
        .collect();
    (records, router, scale, nodes)
}

/// The accounting identity every run must satisfy, plus the partition
/// audit: every record is in exactly one outcome class.
fn assert_exact_accounting(report: &ClusterReport, offered: usize, label: &str) {
    assert_eq!(report.offered_count(), offered, "{label}: offered");
    assert_eq!(
        report.served_count()
            + report.shed_count()
            + report.timed_out_count()
            + report.failed_count(),
        report.offered_count(),
        "{label}: accounting must be exact"
    );
    // Node-finished and router-finished partition the record set.
    let node_finished = report.records.iter().filter(|r| r.node.is_some()).count();
    let router_finished = report.records.iter().filter(|r| r.node.is_none()).count();
    assert_eq!(node_finished + router_finished, offered, "{label}: finish partition");
    assert_eq!(
        router_finished as u64, report.router.router_finished,
        "{label}: router-finished stat must match the records"
    );
    // Hedge accounting: one flag per admitted hedge copy, wins only among
    // hedged requests, wasted time non-negative.
    let hedged = report.records.iter().filter(|r| r.hedged).count() as u64;
    assert_eq!(hedged, report.router.hedges, "{label}: hedge flags vs stat");
    assert!(report.router.hedge_wins <= report.router.hedges, "{label}: wins exceed hedges");
    assert!(report.router.hedge_wasted_s >= 0.0, "{label}: negative hedge waste");
}

// ---- (a) one-node transparency ----

#[test]
fn one_node_zero_fault_cluster_matches_the_single_node_server_bitwise() {
    // The long-context entries run fewer query rows than they have keys.
    let mut traces = vec![SessionTrace::poisson(
        &workload(),
        &ArrivalConfig { slo_ns: Some(500_000), ..ArrivalConfig::poisson(150_000.0, 36) },
        &mut SeededRng::new(0xC1A0),
    )];
    for kind in LongCtxKind::all() {
        let recorded = kind.record_trace(192, 3, &mut SeededRng::new(0xC1A1));
        traces.push(SessionTrace::simultaneous(&recorded));
    }
    let server = OnlineServer::new(config(), operator().clone(), FaultPlan::none(), serve_config());
    for trace in &traces {
        let plain = server.serve(trace).expect("healthy pool");
        let offered = trace.len();
        for policy in POLICIES {
            let cluster = Cluster::new(
                ClusterConfig { policy, ..ClusterConfig::baseline(1, config(), serve_config()) },
                operator().clone(),
            );
            let report = cluster.serve(trace).expect("healthy fleet");
            let projected = report.to_serve_report();
            assert_eq!(report_bits(&plain), report_bits(&projected), "{policy:?}");
            assert_eq!(plain, projected, "{policy:?}: diverged beyond the bit projection");
            // The fleet machinery must have stayed completely idle.
            assert_eq!(report.router.admissions, offered as u64, "{policy:?}");
            assert_eq!(report.router.refused, 0, "{policy:?}");
            assert_eq!(report.router.reroutes, 0, "{policy:?}");
            assert_eq!(report.router.router_finished, 0, "{policy:?}");
            assert_eq!(report.router.hedges, 0, "{policy:?}");
            assert!(report.scale_events.is_empty(), "{policy:?}");
            assert!(report.records.iter().all(|r| r.node == Some(0) && !r.hedged), "{policy:?}");
            assert_exact_accounting(&report, offered, "one-node");
        }
    }
}

// ---- (b) determinism under chaos, across threads and fleet shapes ----

#[test]
fn chaos_report_replays_bit_identically_across_worker_counts() {
    // Everything at once: a mixed-workload trace, unit-level chaos forked
    // per node, node deaths + stragglers + flapping, probes, hedging,
    // autoscaling, and per-node decode caches.
    let trace = fleet_sessions(
        &rec_mix(),
        &SessionArrivalConfig {
            lambda_per_s: 900_000.0,
            sessions: 12,
            slo_ns: Some(100_000),
            max_decode_turns: Some(2),
        },
        &mut SeededRng::new(0xC1A05),
    );
    let horizon = trace.requests.last().expect("non-empty").arrival_ns;
    let cluster_config = ClusterConfig {
        initial_active: Some(4),
        cache: Some(CacheConfig::unbounded()),
        policy: RoutePolicy::PowerOfTwoChoices,
        unit_faults: FaultPlan::seeded(0xC4A05, FaultRates::chaotic()),
        node_faults: NodeFaultPlan::seeded(
            0xFA11,
            NodeFaultRates { death: 0.25, slow: 0.35, slow_max_factor: 3.0, flap: 0.35 },
            horizon,
        )
        .with_flap_window(8_000, 3_000),
        node_quarantine_after: 1,
        max_reroutes: 5,
        retry_backoff_ns: 1_000,
        probe_period_ns: Some(5_000),
        hedge: Some(HedgeConfig::aggressive()),
        autoscale: Some(AutoscaleConfig::p95(6_000, 6e-6, 5e-7, 6)),
        ..ClusterConfig::baseline(6, config(), serve_config())
    };
    let cluster = Cluster::new(cluster_config, operator().clone());
    let baseline = with_threads(1, || cluster.serve(&trace).expect("fleet survives"));
    assert_exact_accounting(&baseline, trace.len(), "chaos");
    for workers in THREAD_COUNTS {
        let report = with_threads(workers, || cluster.serve(&trace).expect("fleet survives"));
        assert_eq!(cluster_bits(&baseline), cluster_bits(&report), "{workers} workers diverged");
        assert_eq!(baseline, report, "{workers} workers diverged beyond the bit projection");
        // Satellite regression: quarantine decisions replay identically —
        // the router's node-level health and every node's unit-level
        // health snapshot are bit-for-bit the same at any thread count.
        assert_eq!(baseline.node_health, report.node_health, "{workers} workers: node health");
        for (a, b) in baseline.nodes.iter().zip(&report.nodes) {
            assert_eq!(a.unit_health, b.unit_health, "{workers} workers: node {} units", a.node);
        }
    }
}

#[test]
fn determinism_holds_at_every_node_count_and_policy() {
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 1_200_000.0,
            sessions: 10,
            slo_ns: Some(50_000),
            max_decode_turns: Some(2),
        },
        &mut SeededRng::new(0xC1A06),
    );
    let horizon = trace.requests.last().expect("non-empty").arrival_ns;
    for nodes in [1usize, 2, 6] {
        for policy in POLICIES {
            let cluster = Cluster::new(
                ClusterConfig {
                    policy,
                    node_faults: NodeFaultPlan::seeded(
                        0xFA12,
                        NodeFaultRates { death: 0.3, flap: 0.2, ..NodeFaultRates::none() },
                        horizon,
                    ),
                    node_quarantine_after: 1,
                    retry_backoff_ns: 1_000,
                    probe_period_ns: Some(6_000),
                    ..ClusterConfig::baseline(nodes, config(), serve_config())
                },
                operator().clone(),
            );
            let first = cluster.serve(&trace).expect("fleet survives");
            let second = cluster.serve(&trace).expect("fleet survives");
            assert_eq!(
                cluster_bits(&first),
                cluster_bits(&second),
                "{nodes} nodes / {policy:?} did not replay"
            );
            assert_eq!(first, second, "{nodes} nodes / {policy:?}");
            assert_exact_accounting(&first, trace.len(), "replay");
        }
    }
}

// ---- (d) monotone SLO degradation under nested node loss ----

#[test]
fn slo_attainment_degrades_monotonically_as_the_fleet_loses_nodes() {
    // `kill_first` kill sets are nested (k's victims ⊂ k+1's), so the
    // sweep compares like with like: same trace, same routing, strictly
    // less capacity. 0 → 2 of 4 nodes is the 0 → 50 % loss contract: the
    // fleet runs at 80 % of healthy saturation, so each death pushes the
    // survivors past capacity (1.07×, then 1.6×).
    //
    // Calibration runs on the *same* request shapes the sweep serves (the
    // session generator's forked streams keep shapes fixed while λ
    // changes): a firehosed one-node fleet measures saturated per-node
    // throughput and mean turn service, and λ/SLO derive from those — the
    // test tracks the simulator's cost model instead of hard-coding
    // nanosecond magnitudes.
    let nodes = 4usize;
    let sweep_serve = ServeConfig {
        queue_capacity: None,
        batch: BatchPolicy::single_bucket(4, 500),
        ..serve_config()
    };
    let shapes = |lambda_per_s: f64, slo_ns: Option<u64>| {
        SessionTrace::generate(
            &workload(),
            &SessionArrivalConfig { lambda_per_s, sessions: 96, slo_ns, max_decode_turns: Some(1) },
            &mut SeededRng::new(0xC1A07),
        )
    };
    let one_node = Cluster::new(
        ClusterConfig::baseline(1, config(), sweep_serve.clone()),
        operator().clone(),
    );
    let cal = one_node
        .serve(&shapes(100_000_000.0, None))
        .expect("healthy fleet")
        .to_serve_report();
    let capacity = cal.throughput_per_s();
    let served: Vec<f64> = cal
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served { .. }))
        .map(|r| r.service_s)
        .collect();
    assert!(!served.is_empty(), "calibration run served nothing");
    let mean = served.iter().sum::<f64>() / served.len() as f64;
    let trace = shapes(0.8 * nodes as f64 * capacity, Some(secs_to_ns(4.0 * mean)));
    let horizon = trace.requests.last().expect("non-empty").arrival_ns;
    let kill_at = horizon / 8;
    let mut attainments = Vec::new();
    for kill in [0usize, 1, 2] {
        let cluster = Cluster::new(
            ClusterConfig {
                policy: RoutePolicy::LeastLoaded,
                node_faults: NodeFaultPlan::kill_first(kill, kill_at),
                retry_backoff_ns: secs_to_ns(mean).max(1),
                ..ClusterConfig::baseline(nodes, config(), sweep_serve.clone())
            },
            operator().clone(),
        );
        let report = cluster.serve(&trace).expect("fleet survives");
        assert_exact_accounting(&report, trace.len(), "kill sweep");
        for node in 0..nodes {
            assert_eq!(
                report.nodes[node].died_at_ns,
                (node < kill).then_some(kill_at),
                "kill={kill} node={node}"
            );
        }
        attainments.push(report.slo_attainment());
    }
    assert!(
        attainments.windows(2).all(|w| w[0] >= w[1] - 1e-12),
        "SLO attainment must not improve as nodes die: {attainments:?}"
    );
    assert!(
        attainments[0] > attainments[2],
        "losing half the fleet must strictly degrade attainment: {attainments:?}"
    );
    assert!(attainments[0] > 0.8, "the healthy fleet should mostly meet the SLO: {attainments:?}");
}

// ---- (e) failover: session affinity and the honest rebuild cost ----

#[test]
fn failover_moves_sessions_to_the_surviving_ring_and_pays_the_rebuild() {
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 800_000.0,
            sessions: 10,
            slo_ns: Some(100_000),
            max_decode_turns: Some(3),
        },
        &mut SeededRng::new(0xC1A08),
    );
    let horizon = trace.requests.last().expect("non-empty").arrival_ns;
    let build = |node_faults: NodeFaultPlan| {
        Cluster::new(
            ClusterConfig {
                cache: Some(CacheConfig::unbounded()),
                node_faults,
                retry_backoff_ns: 500,
                ..ClusterConfig::baseline(4, config(), serve_config())
            },
            operator().clone(),
        )
    };
    let healthy = build(NodeFaultPlan::none()).serve(&trace).expect("healthy fleet");
    assert_exact_accounting(&healthy, trace.len(), "healthy");
    // While the fleet is healthy, consistent hashing keeps every session
    // on one node: an unbounded cache never goes stale.
    let healthy_cache = healthy.cache().expect("caches configured");
    assert_eq!(healthy_cache.stale, 0, "healthy fleet must never rebuild");
    assert!(healthy_cache.hits > 0, "decode turns must hit the cache");
    for session in trace.requests.iter().map(|r| r.session) {
        let nodes: Vec<Option<usize>> = healthy
            .records
            .iter()
            .filter(|r| trace.requests[r.record.id].session == session && r.node.is_some())
            .map(|r| r.node)
            .collect();
        assert!(
            nodes.windows(2).all(|w| w[0] == w[1]),
            "session {session} split across nodes while healthy: {nodes:?}"
        );
    }
    // Kill one node mid-trace: its sessions re-route to the surviving arc
    // and their next decode turn pays a stale rebuild (the dead node's
    // cache died with it).
    let death = build(NodeFaultPlan::kill_first(1, horizon / 3)).serve(&trace).expect("fleet");
    assert_exact_accounting(&death, trace.len(), "death");
    assert_eq!(death.nodes[0].died_at_ns, Some(horizon / 3));
    let death_cache = death.cache().expect("caches configured");
    assert!(
        death_cache.stale > 0 && death_cache.rebuilt_tokens > 0,
        "failover must pay the rebuild: {death_cache:?}"
    );
    assert!(
        death.records.iter().all(|r| r.node != Some(0)
            || trace.requests[r.record.id].arrival_ns < horizon / 3),
        "the dead node decided a request offered after its death"
    );
}

// ---- (f) hedging, flapping/probes, autoscaling ----

#[test]
fn hedges_fire_on_straggler_nodes_without_double_counting() {
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 1_000_000.0,
            sessions: 24,
            slo_ns: Some(10_000),
            max_decode_turns: Some(0),
        },
        &mut SeededRng::new(0xC1A09),
    );
    let cluster = Cluster::new(
        ClusterConfig {
            policy: RoutePolicy::LeastLoaded,
            node_faults: NodeFaultPlan::seeded(
                0xFA13,
                NodeFaultRates { slow: 0.9, slow_max_factor: 4.0, ..NodeFaultRates::none() },
                1_000_000,
            ),
            hedge: Some(HedgeConfig::aggressive()),
            retry_backoff_ns: 500,
            ..ClusterConfig::baseline(3, config(), serve_config())
        },
        operator().clone(),
    );
    let report = cluster.serve(&trace).expect("fleet survives");
    assert_exact_accounting(&report, trace.len(), "hedging");
    assert!(
        report.nodes.iter().any(|n| n.service_scale > 1.0),
        "the plan must actually produce stragglers"
    );
    assert!(report.router.hedges > 0, "tight deadlines on slow nodes must hedge");
    assert!(report.served_count() > 0, "the fleet must still serve");
    // No deaths, no flaps: nothing is refused or evacuated, so admissions
    // are exactly one primary per request plus one copy per hedge — and
    // the merged records still count each request once.
    assert_eq!(report.router.refused, 0);
    assert_eq!(report.router.reroutes, 0);
    assert_eq!(
        report.router.admissions,
        trace.len() as u64 + report.router.hedges,
        "admissions = one primary per request + hedge copies"
    );
}

#[test]
fn flapping_nodes_are_quarantined_probed_and_reinstated() {
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 300_000.0,
            sessions: 14,
            slo_ns: Some(150_000),
            max_decode_turns: Some(0),
        },
        &mut SeededRng::new(0xC1A0A),
    );
    let cluster = Cluster::new(
        ClusterConfig {
            node_faults: NodeFaultPlan::seeded(
                0xFA14,
                NodeFaultRates { flap: 1.0, ..NodeFaultRates::none() },
                1_000_000,
            )
            .with_flap_window(20_000, 8_000),
            node_quarantine_after: 1,
            max_reroutes: 6,
            retry_backoff_ns: 1_000,
            probe_period_ns: Some(4_000),
            ..ClusterConfig::baseline(3, config(), serve_config())
        },
        operator().clone(),
    );
    let baseline = with_threads(1, || cluster.serve(&trace).expect("fleet survives"));
    assert_exact_accounting(&baseline, trace.len(), "flapping");
    assert!(baseline.router.refused > 0, "flapped nodes must refuse dispatches");
    assert!(baseline.router.probes > 0, "probes must run");
    assert!(baseline.router.reinstatements > 0, "probes must reinstate recovered nodes");
    assert!(baseline.served_count() > 0, "the fleet must ride out the flaps");
    // The quarantine/reinstate dance replays bit-identically across
    // thread counts (satellite regression, behavioral flavor).
    for workers in THREAD_COUNTS {
        let report = with_threads(workers, || cluster.serve(&trace).expect("fleet survives"));
        assert_eq!(baseline.node_health, report.node_health, "{workers} workers");
        assert_eq!(cluster_bits(&baseline), cluster_bits(&report), "{workers} workers");
    }
}

#[test]
fn autoscaler_grows_the_active_set_under_overload_and_absorbs_a_death() {
    // Two active nodes face ~2.5× their capacity, then one of them dies.
    // With autoscaling the fleet recruits spares; without it the lone
    // survivor drowns. The autoscaled fleet must do no worse.
    let trace = SessionTrace::generate(
        &workload(),
        &SessionArrivalConfig {
            lambda_per_s: 5_000_000.0,
            sessions: 24,
            slo_ns: Some(30_000),
            max_decode_turns: Some(1),
        },
        &mut SeededRng::new(0xC1A0B),
    );
    let horizon = trace.requests.last().expect("non-empty").arrival_ns;
    let build = |autoscale: Option<AutoscaleConfig>| {
        Cluster::new(
            ClusterConfig {
                initial_active: Some(2),
                policy: RoutePolicy::LeastLoaded,
                node_faults: NodeFaultPlan::kill_first(1, horizon / 2),
                retry_backoff_ns: 500,
                autoscale,
                ..ClusterConfig::baseline(10, config(), serve_config())
            },
            operator().clone(),
        )
    };
    let scaled =
        build(Some(AutoscaleConfig::p95(1_500, 2e-6, 1e-8, 10))).serve(&trace).expect("fleet");
    let fixed = build(None).serve(&trace).expect("fleet");
    assert_exact_accounting(&scaled, trace.len(), "autoscaled");
    assert_exact_accounting(&fixed, trace.len(), "fixed");
    assert!(
        scaled.scale_events.iter().any(|e| e.to_active > e.from_active),
        "overload must trigger a scale-up: {:?}",
        scaled.scale_events
    );
    let active_at_end = scaled.nodes.iter().filter(|n| n.active_at_end).count();
    assert!(active_at_end > 2, "the active set must have grown, got {active_at_end}");
    assert!(
        scaled.served_count() >= fixed.served_count(),
        "autoscaling must not serve less: {} vs {}",
        scaled.served_count(),
        fixed.served_count()
    );
    assert!(
        scaled.slo_attainment() >= fixed.slo_attainment(),
        "autoscaling must not degrade attainment: {} vs {}",
        scaled.slo_attainment(),
        fixed.slo_attainment()
    );
    // The recovery curve the bench plots: attainment per arrival window.
    let timeline = scaled.attainment_timeline(horizon / 4);
    assert!(!timeline.is_empty(), "deadline-carrying trace must yield a timeline");
    assert!(timeline.windows(2).all(|w| w[0].0 < w[1].0), "windows must be ordered");
}
