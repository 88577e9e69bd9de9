//! Chaos battery for the fault-injection layer and the serving engine.
//!
//! Batch serving is `OnlineServer` under `ServeConfig::immediate()` on an
//! all-at-t=0 `SessionTrace::simultaneous` trace. Four promises are under
//! test, per the fault-tolerance design:
//!
//! * **(a) Zero faults are free** — with a zero-fault [`FaultPlan`], the
//!   records are bit-for-bit identical (`f64::to_bits`, never an epsilon)
//!   to an independent FIFO fold over per-request cycle-seconds, at every
//!   worker count and pool size.
//! * **(b) Failover completes everything** — under injected unit death
//!   with at least one survivor, every request is served with no retries,
//!   exactly as a zero-fault pool of the survivors alone would serve it.
//! * **(c) Corruption never escapes** — injected corruption never fails a
//!   request; it degrades exactly the corrupted requests to exact
//!   attention, charged the approximate run plus the exact base run.
//! * **(d) Chaos replays** — under every fault class at once, the records
//!   are bit-identical at 1 and 4 worker threads and every request is
//!   accounted for exactly once.
//!
//! Reproduce any failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --test fault_tolerance`.

mod common;

use std::sync::OnceLock;

use common::{fifo_reference, record_bits};
use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
use elsa::attention::exact::AttentionInputs;
use elsa::fault::{FaultPlan, FaultRates};
use elsa::linalg::SeededRng;
use elsa::parallel::with_threads;
use elsa::serve::{OnlineServer, RuntimeError, ServeConfig, ServeReport, SessionTrace};
use elsa::sim::{AcceleratorConfig, ElsaAccelerator};
use elsa::workloads::trace::WorkloadTrace;
use elsa::workloads::{DatasetKind, ModelKind, Workload};
use elsa_testkit::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const UNIT_COUNTS: [usize; 3] = [1, 4, 12];

fn config(units: usize) -> AcceleratorConfig {
    AcceleratorConfig { n_max: 200, num_accelerators: units, ..AcceleratorConfig::paper() }
}

/// One learned operator shared by the whole battery (learning is the
/// expensive step and is orthogonal to the fault layer).
fn operator() -> &'static ElsaAttention {
    static OPERATOR: OnceLock<ElsaAttention> = OnceLock::new();
    OPERATOR.get_or_init(|| {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let mut rng = SeededRng::new(0xE15A);
        let train = workload.generate_batch(1, &mut rng);
        ElsaAttention::learn(ElsaParams::for_dims(64, 64, &mut SeededRng::new(0xE15B)), &train, 1.0)
    })
}

/// A recorded batch: the all-at-t=0 trace the server replays, and the
/// materialized inputs the oracles run directly.
fn batch(count: usize, seed: u64) -> (SessionTrace, Vec<AttentionInputs>) {
    let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
    let recorded = WorkloadTrace::record(&workload, count, &mut SeededRng::new(seed));
    (SessionTrace::simultaneous(&recorded), recorded.materialize())
}

/// Batch serving on `units` accelerators under `plan`, at `workers` threads.
fn serve(
    units: usize,
    plan: FaultPlan,
    trace: &SessionTrace,
    workers: usize,
) -> Result<ServeReport, RuntimeError> {
    let server =
        OnlineServer::new(config(units), operator().clone(), plan, ServeConfig::immediate());
    with_threads(workers, || server.serve(trace))
}

/// The accelerator the oracles run directly.
fn accelerator(units: usize) -> ElsaAccelerator {
    ElsaAccelerator::new(config(units), operator().clone())
}

props! {
    config: Config::with_cases(6);

    // (a) A zero-fault plan is bit-identical to the FIFO reference at every
    // worker count.
    fn zero_fault_plan_is_bit_identical_to_plain_serving(
        count in ints(6, 20),
        batch_seed in ints_u64(1, 1 << 32),
        uidx in ints(0, 3),
    ) {
        let units = UNIT_COUNTS[uidx];
        let (trace, requests) = batch(count, batch_seed);
        let reference =
            record_bits(&fifo_reference(&accelerator(units), FaultPlan::none(), &requests));
        for workers in WORKER_COUNTS {
            let report = serve(units, FaultPlan::none(), &trace, workers)
                .expect("zero-fault plan cannot fail");
            prop_assert_eq!(&record_bits(&report.records), &reference, "{} workers", workers);
        }
    }

    // (b) Unit death with >= 1 survivor: every request is served with no
    // retries, exactly as a zero-fault pool of the survivors serves it.
    fn unit_death_fails_over_and_accounts_for_every_request(
        count in ints(6, 14),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        // 10%–90% death rate, derived from the plan seed (the props! tuple
        // generator carries at most four dimensions).
        let death_pct = 10 + plan_seed % 81;
        let rates = FaultRates { unit_death: death_pct as f64 / 100.0, ..FaultRates::none() };
        let plan = FaultPlan::seeded(plan_seed, rates);
        let (trace, requests) = batch(count, batch_seed);
        let units = 4;
        match serve(units, plan, &trace, WORKER_COUNTS[widx]) {
            Err(RuntimeError::NoHealthyUnits) => {
                // The plan killed the whole pool: the error is the contract.
                prop_assert!((0..units).all(|u| plan.unit_dead(u)));
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(report) => {
                let survivors = (0..units).filter(|&u| !plan.unit_dead(u)).count();
                prop_assert!(survivors > 0);
                prop_assert_eq!(report.served_count(), count);
                prop_assert_eq!(report.total_retries(), 0);
                let pool = fifo_reference(&accelerator(survivors), FaultPlan::none(), &requests);
                prop_assert_eq!(record_bits(&report.records), record_bits(&pool));
            }
        }
    }

    // (c) Injected corruption never fails a request: it degrades exactly
    // the requests the plan corrupts on the unit they land on, charging
    // the approximate run plus the exact base run.
    fn corruption_always_degrades_to_exact_and_never_serves_nan(
        count in ints(4, 10),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        // 20%–100% corruption rate, derived from the plan seed.
        let corrupt_pct = 20 + plan_seed % 81;
        let rates = FaultRates { corrupt: corrupt_pct as f64 / 100.0, ..FaultRates::none() };
        let plan = FaultPlan::seeded(plan_seed, rates);
        let (trace, requests) = batch(count, batch_seed);
        let report = serve(4, plan, &trace, WORKER_COUNTS[widx])
            .expect("corruption is survivable");
        prop_assert_eq!(
            record_bits(&report.records),
            record_bits(&fifo_reference(&accelerator(4), plan, &requests))
        );
    }

    // Forced corruption (rate 1.0) degrades every request, each charged
    // bit-for-bit the approximate run plus the exact base run the oracle
    // takes from `run_base`, at any worker count.
    fn forced_corruption_charges_every_request_the_run_base_bitwise(
        count in ints(4, 10),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
        widx in ints(0, 4),
    ) {
        let plan = FaultPlan::seeded(plan_seed, FaultRates { corrupt: 1.0, ..FaultRates::none() });
        let (trace, requests) = batch(count, batch_seed);
        let report = serve(4, plan, &trace, WORKER_COUNTS[widx])
            .expect("corruption is survivable");
        prop_assert_eq!(report.degraded_count(), count);
        prop_assert_eq!(
            record_bits(&report.records),
            record_bits(&fifo_reference(&accelerator(4), plan, &requests))
        );
    }

    // (d) Full chaos: every fault class at once; the report accounts for
    // 100% of requests and replays identically at 1 and 4 worker threads.
    fn chaotic_plans_account_for_every_request_and_replay(
        count in ints(6, 12),
        batch_seed in ints_u64(1, 1 << 32),
        plan_seed in ints_u64(1, 1 << 32),
    ) {
        let plan = FaultPlan::seeded(plan_seed, FaultRates::chaotic());
        let (trace, _) = batch(count, batch_seed);
        match (serve(4, plan, &trace, 1), serve(4, plan, &trace, 4)) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (Ok(serial), Ok(parallel)) => {
                prop_assert_eq!(record_bits(&serial.records), record_bits(&parallel.records));
                prop_assert_eq!(serial.offered_count(), count);
                prop_assert_eq!(
                    serial.served_count()
                        + serial.shed_count()
                        + serial.timed_out_count()
                        + serial.failed_count(),
                    count
                );
                prop_assert!(serial.degraded_count() <= serial.served_count());
                // NaN-free aggregate metrics even under chaos.
                for q in [50.0, 95.0, 99.0] {
                    prop_assert!(!serial.completion_percentile_s(q).is_nan());
                }
                prop_assert!(!serial.throughput_per_s().is_nan());
            }
            (a, b) => prop_assert!(false, "outcomes diverged across worker counts: {a:?} vs {b:?}"),
        }
    }
}
