//! `serve`: a seeded multi-turn session trace over the production fleet mix
//! replayed through a 4-node cluster with consistent-hash routing, a session
//! cache small enough to evict, and one node killed a third of the way in.
//! A run cycles over several such traces.
//! Arrivals follow an open-loop schedule in virtual time, offered at 1.2×
//! the fleet's saturation throughput, which set-up measures with a firehose
//! probe. The host replay is a batch: each op is one `Cluster::serve` call.
//! This is the only workload that goes through input materialization,
//! `elsa-sim`, `elsa-serve` and `elsa-cluster`.

use std::time::Instant;

use elsa_cluster::{fleet_sessions, Cluster, ClusterConfig, ClusterReport};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_fault::{FaultPlan, NodeFaultPlan};
use elsa_linalg::{ops, SeededRng};
use elsa_serve::clock::secs_to_ns;
use elsa_serve::{
    prepare_turns, BatchPolicy, CacheConfig, CacheStats, OnlineServer, Outcome as TurnOutcome,
    ServeConfig, SessionArrivalConfig, SessionTrace,
};
use elsa_sim::{cycle, AcceleratorConfig, ElsaAccelerator, EnergyBreakdown};
use elsa_workloads::{turn_inputs, FleetMix};

use crate::clock::cpu_time;
use crate::host;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{Run, Size, STREAM_CALIBRATE, STREAM_MEASURE, STREAM_TRAIN};

const NODES: usize = 4;
/// Held-out mix samples the threshold is learned from (at p = 1.0).
const TRAIN_INPUTS: u64 = 16;
/// Offered load as a multiple of the measured fleet saturation.
const LOAD: f64 = 1.2;
/// Arrival rate of the firehose probe: every turn is queued at once.
const FIREHOSE_PER_S: f64 = 1e9;
/// The SLO as a multiple of the mean turn service time.
const SLO_SERVICE_MULTIPLE: f64 = 4.0;
/// Sessions in the firehose probe's trace.
const PROBE_SESSIONS: usize = 128;
/// Session-cache budget per node: a few sessions' worth of state.
const CACHE_BYTES: u64 = 256 * 1024;
/// Traces whose turns the serial per-turn pass covers.
const TURN_PASS_TRACES: usize = 4;
/// Traces, and repeats on each, over which a traced run splits a replay
/// into `prepare_turns` and the event loops.
const LOOP_TRACES: usize = 3;
const LOOP_REPEATS: usize = 5;

/// `(traces, sessions per trace, decode turns per session)`. Ops cycle over
/// several short traces rather than one long one: there are enough replays
/// in a run for a 90th percentile, the set's cost stays close to the mix's
/// mean at any seed, and peak memory does not grow with the set.
fn shape(run: &Run) -> (usize, usize, usize) {
    match run.size {
        Size::Full => (32, 32, 2),
        Size::Small => (2, 8, 1),
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy::single_bucket(4, 500),
        ..ServeConfig::default()
    }
}

/// One trace and the fleet that replays it: the node dies a third of the
/// way into this trace's arrivals.
#[derive(Debug)]
struct Scenario {
    trace: SessionTrace,
    cluster: Cluster,
}

/// Everything a replay needs, built in set-up.
#[derive(Debug)]
pub struct Fixture {
    operator: ElsaAttention,
    accel_config: AcceleratorConfig,
    scenarios: Vec<Scenario>,
    cache: CacheConfig,
    trace_gen_s: f64,
    lambda_per_s: f64,
    slo_ns: u64,
}

pub fn setup(run: &Run) -> Fixture {
    let mix = FleetMix::production();
    let accel_config = AcceleratorConfig {
        n_max: mix.max_padded_length(),
        num_accelerators: 4,
        ..AcceleratorConfig::paper()
    };
    let (traces, sessions, turns) = shape(run);

    let mut rng = SeededRng::new(run.seed).fork(STREAM_TRAIN);
    let params = ElsaParams::for_dims(64, 64, &mut rng.fork(0));
    let train: Vec<_> = (0..TRAIN_INPUTS)
        .map(|i| mix.sample_entry(&mut rng, i).materialize())
        .collect();
    let operator = ElsaAttention::learn(params, &train, 1.0);

    // Firehose probe on a trace of its own: served throughput is the
    // fleet's saturation, and the mean turn service time sets the SLO.
    let probe_trace = fleet_sessions(
        &mix,
        &SessionArrivalConfig {
            lambda_per_s: FIREHOSE_PER_S,
            sessions: PROBE_SESSIONS,
            slo_ns: None,
            max_decode_turns: Some(turns),
        },
        &mut SeededRng::new(run.seed).fork(STREAM_CALIBRATE),
    );
    let probe = Cluster::new(
        ClusterConfig::baseline(NODES, accel_config, serve_config()),
        operator.clone(),
    )
    .serve(&probe_trace)
    .expect("the probe trace fits the fleet");
    let served: Vec<f64> = probe
        .records
        .iter()
        .filter(|r| matches!(r.record.outcome, TurnOutcome::Served { .. }))
        .map(|r| r.record.service_s)
        .collect();
    let mean_service_s = report::mean(&served);
    let slo_ns = secs_to_ns(SLO_SERVICE_MULTIPLE * mean_service_s);
    let lambda_per_s = LOAD * probe.throughput_per_s();

    let cache = CacheConfig::lru(CACHE_BYTES);
    let mut measure = SeededRng::new(run.seed).fork(STREAM_MEASURE);
    let mut trace_gen_s = 0.0;
    let scenarios = (0..traces)
        .map(|t| {
            let (trace, dt) = cpu_time(|| {
                fleet_sessions(
                    &mix,
                    &SessionArrivalConfig {
                        lambda_per_s,
                        sessions,
                        slo_ns: Some(slo_ns),
                        max_decode_turns: Some(turns),
                    },
                    &mut measure.fork(t as u64),
                )
            });
            trace_gen_s += dt;
            let horizon = trace.requests.last().map_or(0, |r| r.arrival_ns);
            let cluster = Cluster::new(
                ClusterConfig {
                    cache: Some(cache),
                    node_faults: NodeFaultPlan::kill_first(1, horizon / 3),
                    retry_backoff_ns: secs_to_ns(mean_service_s).max(1),
                    ..ClusterConfig::baseline(NODES, accel_config, serve_config())
                },
                operator.clone(),
            );
            Scenario { trace, cluster }
        })
        .collect();
    Fixture {
        operator,
        accel_config,
        scenarios,
        cache,
        trace_gen_s,
        lambda_per_s,
        slo_ns,
    }
}

/// The virtual-clock results of one replay; a host-only change must leave
/// every field identical.
#[derive(Debug, Clone, PartialEq)]
struct SimSummary {
    offered: usize,
    served: usize,
    shed: usize,
    timed_out: usize,
    failed: usize,
    slo_met: usize,
    /// Queue delays of the served turns, in trace order.
    served_delays_s: Vec<f64>,
}

impl SimSummary {
    fn of(r: &ClusterReport) -> Self {
        Self {
            offered: r.offered_count(),
            served: r.served_count(),
            shed: r.shed_count(),
            timed_out: r.timed_out_count(),
            failed: r.failed_count(),
            slo_met: r.records.iter().filter(|c| c.record.slo_met()).count(),
            served_delays_s: r
                .records
                .iter()
                .filter(|c| matches!(c.record.outcome, TurnOutcome::Served { .. }))
                .map(|c| c.record.queue_delay_s)
                .collect(),
        }
    }

    fn accounted(&self) -> bool {
        self.offered == self.served + self.shed + self.timed_out + self.failed
    }
}

/// Serial pass over every turn of the first few traces, as `prepare_turns`
/// does it, with one span per library call. Returns the turn count and the
/// mean simulated cycles per turn. The cycle and energy models are timed
/// again on their own, outside `try_run`, from the turn's candidate lists.
fn turn_pass(f: &Fixture, accel: &ElsaAccelerator, tr: &mut Tracer) -> (usize, f64) {
    let mut cycles = 0u64;
    let mut turns = 0usize;
    for turn in f
        .scenarios
        .iter()
        .take(TURN_PASS_TRACES)
        .flat_map(|s| &s.trace.requests)
    {
        let full = tr.span("elsa-workloads.materialize", |_| turn.entry.materialize());
        let inputs = tr.span("elsa-workloads.turn_inputs", |_| {
            turn_inputs(&full, turn.prefix_len, turn.appended)
        });
        let run = tr
            .span("elsa-sim.try_run", |_| accel.try_run(&inputs))
            .expect("turn fits the hardware");
        cycles += run.cycles.total();
        turns += 1;
        if tr.enabled() {
            let (candidates, stats) = f.operator.candidates(&inputs);
            let n = inputs.num_keys();
            let model = tr.span("elsa-sim.cycle_model", |_| {
                cycle::simulate_execution(&f.accel_config, n, &candidates, false)
            });
            let energy = tr.span("elsa-sim.energy", |_| {
                EnergyBreakdown::from_run(
                    &f.accel_config,
                    &model,
                    inputs.num_queries(),
                    stats.selected_pairs,
                    n,
                )
            });
            std::hint::black_box(energy);
        }
    }
    (turns, cycles as f64 / turns as f64)
}

/// Replays scenario after scenario in rounds until the time is up. Only whole
/// rounds run, so every scenario weighs the same in the replay times. In a
/// traced run each scenario is replayed twice in a row, untraced then inside
/// a `Cluster::serve` span, so the two are compared on the same trace.
pub fn run(run: &Run, f: &Fixture, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let k_count = f.scenarios.len();
    let per_scenario = if tr.enabled() { 2 } else { 1 };
    let mut first: Vec<Option<SimSummary>> = vec![None; k_count];
    let mut reports = Vec::new();
    // Per scenario: untraced and traced replay times (traced runs only).
    let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); k_count];
    let mut turns_replayed = 0usize;
    let start = Instant::now();
    let mut k = 0usize;
    let round = per_scenario * k_count;
    while k < round || !k.is_multiple_of(round) || !run.expired(start) {
        tr.set_op(k as u64);
        let s = (k / per_scenario) % k_count;
        let scenario = &f.scenarios[s];
        let traced = tr.enabled() && k % 2 == 1;
        let report = if traced {
            let r = tr.span("bench.op", |tr| {
                tr.span("elsa-cluster.serve", |_| {
                    scenario.cluster.serve(&scenario.trace)
                })
            });
            pairs[s].1.push(tr.last_s("bench.op"));
            r
        } else {
            let scale = host::speed_scale();
            let (r, dt) = cpu_time(|| scenario.cluster.serve(&scenario.trace));
            out.op(dt, scale);
            turns_replayed += scenario.trace.len();
            pairs[s].0.push(dt);
            r
        };
        let ok = match report {
            Ok(r) => {
                let sim = SimSummary::of(&r);
                let same = *first[s].get_or_insert_with(|| sim.clone()) == sim;
                let ok = sim.accounted() && sim.offered == scenario.trace.len() && same;
                if traced && reports.len() == s {
                    reports.push(r);
                }
                ok
            }
            Err(e) => {
                eprintln!("replay {k}: {e}");
                false
            }
        };
        out.check(ok, &format!("serve replay {k} (trace {s})"));
        k += 1;
    }

    let accel =
        ElsaAccelerator::try_new(f.accel_config, f.operator.clone()).expect("operator fits");
    let (pass_turns, cycles_per_turn) = turn_pass(f, &accel, tr);
    let sims: Vec<SimSummary> = first
        .into_iter()
        .map(|s| s.expect("every trace replayed"))
        .collect();
    let turns: usize = f.scenarios.iter().map(|s| s.trace.len()).sum();
    let offered: usize = sims.iter().map(|s| s.offered).sum();
    let delays: Vec<f64> = sims
        .iter()
        .flat_map(|s| s.served_delays_s.iter().copied())
        .collect();
    let slo_attainment = sims.iter().map(|s| s.slo_met).sum::<usize>() as f64 / offered as f64;
    let qd_p99_s = if delays.is_empty() {
        0.0
    } else {
        ops::percentile(&delays, 99.0)
    };
    // Every scenario is replayed the same number of times (± 1), so this is
    // turns per CPU second, at the reference speed, over the scenario set.
    let replays = out.op_s.len();
    out.named(
        "serve_turns_per_s",
        turns_replayed as f64 / out.op_ref_s.iter().sum::<f64>(),
        "1/s",
        replays,
    );
    out.named("sim_slo_attainment", slo_attainment, "ratio", offered);
    out.named("sim_qd_p99_ms", qd_p99_s * 1e3, "ms", delays.len());
    out.named("cycles_per_turn", cycles_per_turn, "cycles", pass_turns);
    out.note("traces", k_count);
    out.note("turns", turns);
    out.note("lambda_per_s", f.lambda_per_s);
    out.note("slo_ns", f.slo_ns);
    out.note(
        "generator_lateness",
        "none: the host replay is a batch over a virtual-time schedule; queue delay counts from each turn's scheduled arrival",
    );

    if tr.enabled() {
        // The engine and fleet loops are a few percent of a replay, so each
        // is read as the median, over repeated back-to-back pairs on a few
        // traces, of the call minus the `prepare_turns` just before it, all on
        // one worker so that fan-out scheduling noise does not swamp them.
        let server = OnlineServer::new(
            f.accel_config,
            f.operator.clone(),
            FaultPlan::none(),
            serve_config(),
        );
        // The fan-out speed-up of `prepare_turns` is a ratio of wall times.
        let (mut wall_default, mut wall_serial, mut serial, mut engine, mut fleet) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for scenario in f.scenarios.iter().take(LOOP_TRACES) {
            let requests = &scenario.trace.requests;
            let prepare = |tr: &mut Tracer| {
                let prepared = tr.span("elsa-serve.prepare", |_| {
                    prepare_turns(&accel, &f.accel_config, requests)
                });
                std::hint::black_box(prepared.expect("turns fit"));
                tr.last_s("elsa-serve.prepare")
            };
            for _ in 0..LOOP_REPEATS {
                let t = Instant::now();
                elsa_parallel::with_threads(run.workers, || prepare(tr));
                wall_default.push(t.elapsed().as_secs_f64());
                elsa_parallel::with_threads(1, || {
                    let t = Instant::now();
                    let p = prepare(tr);
                    wall_serial.push(t.elapsed().as_secs_f64());
                    serial.push(p);
                    let one = tr.span("elsa-serve.serve_sessions", |_| {
                        server.serve_sessions(&scenario.trace, f.cache)
                    });
                    std::hint::black_box(one.expect("trace fits one node"));
                    engine.push(tr.last_s("elsa-serve.serve_sessions") - p);
                    let p = prepare(tr);
                    let all = tr.span("elsa-cluster.serve", |_| {
                        scenario.cluster.serve(&scenario.trace)
                    });
                    std::hint::black_box(all.expect("trace fits the fleet"));
                    fleet.push(tr.last_s("elsa-cluster.serve") - p);
                });
            }
        }

        let totals = tr.totals();
        let us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_s() * 1e6 / t.calls as f64)
        };
        out.layer(
            "elsa-workloads.materialize_us_per_turn",
            us("elsa-workloads.materialize"),
        );
        out.layer("elsa-workloads.trace_gen_s", f.trace_gen_s);
        out.layer("elsa-sim.try_run_us_per_turn", us("elsa-sim.try_run"));
        out.layer(
            "elsa-sim.cycle_model_us_per_turn",
            us("elsa-sim.cycle_model"),
        );
        out.layer("elsa-sim.energy_us_per_turn", us("elsa-sim.energy"));
        out.layer("elsa-sim.cycles_per_turn", cycles_per_turn);
        out.layer("elsa-serve.prepare_s", report::median(&serial));
        out.layer("elsa-serve.engine_loop_s", report::median(&engine));
        out.layer(
            "elsa-parallel.prepare_speedup",
            report::median(&wall_serial) / report::median(&wall_default),
        );
        let mut cache = CacheStats::default();
        let (mut requests, mut batches, mut reroutes, mut refused, mut finished) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in &reports {
            let c = r.cache().unwrap_or_default();
            cache.hits += c.hits;
            cache.cold += c.cold;
            cache.stale += c.stale;
            cache.evictions += c.evictions;
            cache.rebuilt_tokens += c.rebuilt_tokens;
            for b in r.nodes.iter().flat_map(|n| &n.bucket_stats) {
                requests += b.requests;
                batches += b.batches;
            }
            reroutes += r.router.reroutes;
            refused += r.router.refused;
            finished += r.router.router_finished;
        }
        let shed: usize = sims.iter().map(|s| s.shed).sum();
        let timed_out: usize = sims.iter().map(|s| s.timed_out).sum();
        out.layer("elsa-serve.cache_hit_rate", cache.hit_rate());
        out.layer("elsa-serve.evictions", cache.evictions as f64);
        out.layer("elsa-serve.rebuilt_tokens", cache.rebuilt_tokens as f64);
        out.layer(
            "elsa-serve.batch_fill_mean",
            requests as f64 / batches.max(1) as f64,
        );
        out.layer("elsa-serve.shed_frac", shed as f64 / offered as f64);
        out.layer(
            "elsa-serve.timed_out_frac",
            timed_out as f64 / offered as f64,
        );
        out.layer("elsa-cluster.fleet_loop_s", report::median(&fleet));
        out.layer("elsa-cluster.reroutes", reroutes as f64);
        out.layer("elsa-cluster.refused", refused as f64);
        out.layer("elsa-cluster.router_finished", finished as f64);
        let traced_total: f64 = pairs.iter().map(|p| report::median(&p.1)).sum();
        let untraced_total: f64 = pairs.iter().map(|p| report::median(&p.0)).sum();
        let replays_traced: usize = pairs.iter().map(|p| p.1.len()).sum();
        out.layer("trace.overhead_frac", traced_total / untraced_total - 1.0);
        out.layer(
            "trace.coverage",
            tr.layer_self_s_under("bench.op")
                / replays_traced as f64
                / (untraced_total / k_count as f64),
        );
    }
    out
}
