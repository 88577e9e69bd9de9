//! The serving event loop: admission → batching → SLO-aware dispatch.
//!
//! [`OnlineServer`] has one request path. [`OnlineServer::serve_sessions`]
//! replays a [`SessionTrace`] through the full online pipeline on the
//! virtual clock with a decode cache; [`OnlineServer::serve`] replays it
//! with none. A plain trace ([`SessionTrace::poisson`]) holds single-turn
//! sessions: as in the paper's host interface, each request is one whole
//! self-attention invocation. Either way the pipeline is:
//!
//! 1. **Precompute** (the only parallel stage): [`prepare_turns`] runs
//!    every turn's approximate pipeline once — service seconds,
//!    numeric-guard verdict, inputs — fanned out over worker threads and
//!    returned in arrival order, so the report is bit-identical at any
//!    `ELSA_THREADS`.
//! 2. **Admission**: arrivals enter the bounded
//!    [`AdmissionQueue`](crate::queue::AdmissionQueue); a full queue
//!    triggers the configured [`Backpressure`] policy.
//! 3. **Batching**: a length bucket dispatches when it holds
//!    `max_batch` requests or its oldest waiter has queued `max_wait_ns`.
//! 4. **Dispatch**: each batch member routes to the accelerator unit that
//!    frees first, through the engine's failover loop — transient retries,
//!    straggler slowdowns, quarantine with probation, corruption degrading
//!    to exact attention — plus two deadline outcomes: a request whose
//!    deadline passed while it queued is **timed out**, and (optionally) a
//!    request whose estimated completion would overshoot its deadline is
//!    **shed** before it wastes accelerator time.
//!
//! Batch serving is the degenerate case: [`ServeConfig::immediate`] on a
//! [`SessionTrace::simultaneous`] trace dispatches every request alone at
//! t = 0, first-come first-served onto the unit that frees first.
//!
//! Every arrival produces exactly one [`OnlineRecord`], so
//! `offered = served + shed + timed-out + failed` holds by construction
//! (and is asserted).
//!
//! Multi-turn traces use two more pieces of the same engine: **session
//! affinity** (every turn of a session dispatches through the bucket pinned
//! at the session's first admission, so one conversation never straddles
//! batching queues) and the **decode cache** (a [`SessionRegistry`](crate::SessionRegistry)
//! deciding per turn whether the incremental `StreamingSession` state is
//! resident — a hit pays only the appended tokens' preprocessing cycles, a
//! miss pays the full from-scratch rebuild). A single-turn session has
//! nothing to reuse, so neither changes anything for a plain trace. The
//! cache changes *charged service time only*; functional outputs are
//! byte-identical either way.

use elsa_core::ElsaAttention;
use elsa_fault::FaultPlan;
use elsa_linalg::ops;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};

use crate::batcher::{BatchPolicy, BatcherMode, BucketStats};
use crate::clock::ns_to_secs;
use crate::engine::{prepare_turns, session_admissions, unit_health, NodeEngine};
use crate::error::RuntimeError;
use crate::queue::Backpressure;
use crate::session::{CacheConfig, CacheStats, SessionTrace};

/// Full configuration of the online pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity shared across buckets (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// What happens to arrivals when the queue is full.
    pub backpressure: Backpressure,
    /// Batch-formation policy.
    pub batch: BatchPolicy,
    /// How batches are charged: real lengths (ELSA) or padded (GPU
    /// emulation).
    pub mode: BatcherMode,
    /// Shed a request at dispatch when its estimated completion (earliest
    /// unit availability + its measured service time) overshoots its
    /// deadline, instead of burning accelerator time on a guaranteed miss.
    pub shed_unmeetable: bool,
    /// Failed attempts per request before the dispatcher gives up.
    pub max_retries: u32,
    /// Consecutive faults on one unit before it is quarantined.
    pub quarantine_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            backpressure: Backpressure::Block,
            batch: BatchPolicy::single_bucket(8, 100_000),
            mode: BatcherMode::Bucketed,
            shed_unmeetable: false,
            max_retries: 16,
            quarantine_after: 3,
        }
    }
}

impl ServeConfig {
    /// No queueing, no batching, no shedding: dispatch every request alone
    /// the moment it arrives. On a [`SessionTrace::simultaneous`] trace
    /// this is batch serving: requests go first-come first-served to the
    /// unit that frees first.
    #[must_use]
    pub fn immediate() -> Self {
        Self { batch: BatchPolicy::immediate(), ..Self::default() }
    }
}

/// How one request left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed on an accelerator (possibly degraded to exact attention).
    Served {
        /// The numeric guard tripped and the request fell back to the
        /// accelerator's exact base mode.
        degraded: bool,
    },
    /// Dropped by [`Backpressure`] on a full admission queue.
    ShedQueueFull,
    /// Dropped at dispatch: its deadline was provably unmeetable.
    ShedUnmeetable,
    /// Its deadline expired while it waited in the queue.
    TimedOut,
    /// The dispatcher gave up (retry budget exhausted or pool dead).
    Failed,
}

/// Accounting for one request of an online trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineRecord {
    /// Trace id (arrival-order index).
    pub id: usize,
    /// Real sequence length.
    pub n_real: usize,
    /// Length bucket the request was routed to.
    pub bucket: usize,
    /// Arrival instant.
    pub arrival_ns: u64,
    /// Absolute deadline, if the request carried an SLO.
    pub deadline_ns: Option<u64>,
    /// Virtual instant at which the outcome was decided (batch dispatch or
    /// shed).
    pub decided_ns: u64,
    /// Arrival to accelerator start (served) or to the shed/timeout
    /// decision (everything else), in seconds.
    pub queue_delay_s: f64,
    /// Accelerator busy seconds actually charged (0 when not served).
    pub service_s: f64,
    /// Seconds from the virtual origin to completion (served) or to the
    /// give-up/shed instant.
    pub completion_s: f64,
    /// Failed attempts before the final outcome.
    pub retries: u32,
    /// How the request left the pipeline.
    pub outcome: Outcome,
}

impl OnlineRecord {
    /// Whether the request was served within its deadline. Deadline-free
    /// served requests count as met; everything unserved as missed.
    #[must_use]
    pub fn slo_met(&self) -> bool {
        matches!(self.outcome, Outcome::Served { .. })
            && self.deadline_ns.is_none_or(|d| self.completion_s <= ns_to_secs(d))
    }
}

/// The full outcome of one online trace.
///
/// Latency and throughput figures are computed over the served requests
/// only: a dropped or failed request has no meaningful completion latency.
/// Empty and all-dropped reports yield `0.0`, never `NaN`. `PartialEq`
/// compares every `f64` exactly, which is what the cross-thread
/// determinism test relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request records, in arrival (id) order.
    pub records: Vec<OnlineRecord>,
    /// Dispatch accounting per length bucket.
    pub bucket_stats: Vec<BucketStats>,
    /// Hit/miss/eviction accounting of the decode cache; `None` when the
    /// trace was served without one.
    pub cache: Option<CacheStats>,
}

impl ServeReport {
    fn served(&self) -> impl Iterator<Item = &OnlineRecord> {
        self.records.iter().filter(|r| matches!(r.outcome, Outcome::Served { .. }))
    }

    /// Requests offered to the pipeline.
    #[must_use]
    pub fn offered_count(&self) -> usize {
        self.records.len()
    }

    /// Requests served (including degraded).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.served().count()
    }

    /// Served requests that degraded to exact attention.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Served { degraded: true }))
            .count()
    }

    /// Requests dropped by queue backpressure.
    #[must_use]
    pub fn shed_queue_full_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::ShedQueueFull).count()
    }

    /// Requests shed at dispatch as unmeetable.
    #[must_use]
    pub fn shed_unmeetable_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::ShedUnmeetable).count()
    }

    /// All load-shedding drops (queue-full + unmeetable).
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.shed_queue_full_count() + self.shed_unmeetable_count()
    }

    /// Requests whose deadline expired in the queue.
    #[must_use]
    pub fn timed_out_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::TimedOut).count()
    }

    /// Requests the dispatcher gave up on.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == Outcome::Failed).count()
    }

    /// Total failed attempts across all requests.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.retries)).sum()
    }

    /// Percentile of one field over the served requests. `q` is clamped to
    /// `[0, 100]` before it reaches `ops::percentile`, so an out-of-range
    /// quantile degrades to the min or max, never to an out-of-bounds rank;
    /// `0.0` when nothing was served.
    fn served_percentile(&self, field: impl Fn(&OnlineRecord) -> f64, q: f64) -> f64 {
        let values: Vec<f64> = self.served().map(field).collect();
        if values.is_empty() {
            0.0
        } else {
            ops::percentile(&values, q.clamp(0.0, 100.0))
        }
    }

    /// Queue-delay percentile over the served requests (`q` clamped to
    /// `[0, 100]`); `0.0` when nothing was served.
    #[must_use]
    pub fn queue_delay_percentile_s(&self, q: f64) -> f64 {
        self.served_percentile(|r| r.queue_delay_s, q)
    }

    /// Completion-time percentile over the served requests (`q` clamped to
    /// `[0, 100]`); `0.0` when nothing was served.
    #[must_use]
    pub fn completion_percentile_s(&self, q: f64) -> f64 {
        self.served_percentile(|r| r.completion_s, q)
    }

    /// Fraction of deadline-carrying requests served within their deadline;
    /// `1.0` when no request carried a deadline (nothing to miss).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let (met, total) = self
            .records
            .iter()
            .filter(|r| r.deadline_ns.is_some())
            .fold((0usize, 0usize), |(m, t), r| (m + usize::from(r.slo_met()), t + 1));
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }

    /// Served requests divided by the last served completion; `0.0` when
    /// nothing was served.
    #[must_use]
    pub fn throughput_per_s(&self) -> f64 {
        let makespan = self.served().map(|r| r.completion_s).fold(0.0f64, f64::max);
        if makespan == 0.0 {
            0.0
        } else {
            self.served_count() as f64 / makespan
        }
    }
}

/// The online serving front-end: one operator, one accelerator pool, one
/// fault plan, one serving configuration.
#[derive(Debug)]
pub struct OnlineServer {
    /// Built once at construction (which is what validates the operator
    /// against the hardware) and shared by every replay.
    accel: ElsaAccelerator,
    plan: FaultPlan,
    config: ServeConfig,
}

impl OnlineServer {
    /// Builds the server.
    ///
    /// # Panics
    ///
    /// Panics if the operator does not fit the hardware or the batch policy
    /// is malformed; see [`OnlineServer::try_new`] for the non-panicking
    /// form.
    #[must_use]
    pub fn new(
        accel_config: AcceleratorConfig,
        operator: ElsaAttention,
        plan: FaultPlan,
        config: ServeConfig,
    ) -> Self {
        match Self::try_new(accel_config, operator, plan, config) {
            Ok(server) => server,
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_new is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the server, reporting a malformed configuration as a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBatchPolicy`] when the batch policy is
    /// malformed (zero batch size, non-ascending bucket bounds), and
    /// [`RuntimeError::Misfit`] when the hardware configuration is invalid
    /// or the operator's dimensions do not match it.
    pub fn try_new(
        accel_config: AcceleratorConfig,
        operator: ElsaAttention,
        plan: FaultPlan,
        config: ServeConfig,
    ) -> Result<Self, RuntimeError> {
        config.batch.try_validate()?;
        let accel = ElsaAccelerator::try_new(accel_config, operator)?;
        Ok(Self { accel, plan, config })
    }

    /// The serving configuration.
    #[must_use]
    pub const fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The governing fault plan.
    #[must_use]
    pub const fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replays a trace through the pipeline with no decode cache, so the
    /// report's `cache` is `None`. On a plain trace
    /// ([`SessionTrace::poisson`], [`SessionTrace::simultaneous`]) each
    /// request is a single-turn session: the whole invocation in one turn.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoHealthyUnits`] when the fault plan killed
    /// every unit, or [`RuntimeError::Request`] when a turn does not fit
    /// the hardware, is malformed
    /// ([`FitError::MalformedTurn`](elsa_sim::FitError::MalformedTurn)),
    /// holds no query row at its appended positions
    /// ([`FitError::NoQueryRow`](elsa_sim::FitError::NoQueryRow)) or has an
    /// entry that fails
    /// [`AttentionPatternConfig::validate`](elsa_workloads::AttentionPatternConfig::validate)
    /// ([`FitError::InvalidEntry`](elsa_sim::FitError::InvalidEntry)); the
    /// trace is rejected before any virtual time passes.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival or its ids are not the
    /// arrival-order indices (both are guaranteed by every [`SessionTrace`]
    /// constructor).
    pub fn serve(&self, trace: &SessionTrace) -> Result<ServeReport, RuntimeError> {
        self.replay(trace, None)
    }

    /// Replays a multi-turn session trace through the pipeline with session
    /// affinity and the decode cache model (see the module docs); the
    /// report's `cache` holds the cache's statistics. The cache
    /// affects charged service times only — each turn's functional output is
    /// computed from its full inputs regardless — so the accounting
    /// invariant `offered = served + shed + timed-out + failed` and the
    /// bit-identical-at-any-`ELSA_THREADS` contract carry over unchanged.
    ///
    /// A turn is a **hit** when its session was last served with exactly
    /// `prefix_len - appended` tokens of context and its state is still
    /// resident: it is charged the run's cycles with full-context
    /// preprocessing replaced by preprocessing of only the appended tokens.
    /// Anything else (first turns, evicted sessions, sessions desynchronized
    /// by a dropped turn) pays the full from-scratch cost. The registry
    /// commits only when a turn is actually served.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineServer::serve`].
    ///
    /// # Panics
    ///
    /// Same as [`OnlineServer::serve`].
    pub fn serve_sessions(
        &self,
        trace: &SessionTrace,
        cache: CacheConfig,
    ) -> Result<ServeReport, RuntimeError> {
        self.replay(trace, Some(cache))
    }

    /// The one replay behind [`serve`](Self::serve) and
    /// [`serve_sessions`](Self::serve_sessions): trace checks, the pool's
    /// health, the precompute, then the serial virtual-clock event loop on
    /// one [`NodeEngine`], with a decode cache when `cache` is set.
    ///
    /// # Panics
    ///
    /// Panics on a malformed trace (see [`serve`](Self::serve)), or if the
    /// engine leaves any request unaccounted — the exact-accounting
    /// invariant (`offered = served + shed + timed-out + failed`) that the
    /// resulting [`ServeReport`] must never paper over.
    fn replay(
        &self,
        trace: &SessionTrace,
        cache: Option<CacheConfig>,
    ) -> Result<ServeReport, RuntimeError> {
        let reqs = &trace.requests;
        assert!(
            reqs.iter().zip(reqs.iter().skip(1)).all(|(a, b)| a.arrival_ns <= b.arrival_ns),
            "trace must be sorted by arrival time"
        );
        assert!(
            reqs.iter().enumerate().all(|(i, r)| r.id == i),
            "trace ids must be arrival-order indices"
        );
        let units = self.accel.config().num_accelerators;
        let health = unit_health(&self.plan, units, self.config.quarantine_after);
        if health.num_available() == 0 {
            return Err(RuntimeError::NoHealthyUnits);
        }
        let prepared = prepare_turns(&self.accel, self.accel.config(), reqs)?;
        let mut engine = NodeEngine::new(
            &self.accel,
            self.accel.config(),
            self.plan,
            &self.config,
            &prepared,
            health,
        );
        if let Some(cache) = cache {
            engine = engine.with_sessions(cache, reqs);
        }
        for request in session_admissions(&self.config.batch, reqs) {
            engine.flush_expired(request.arrival_ns);
            engine.advance_to(request.arrival_ns);
            engine.admit(request);
        }
        engine.flush_expired(u64::MAX);

        let parts = engine.into_parts();
        let records = parts
            .slots
            .into_iter()
            .enumerate()
            // elsa-lint: allow(panic-policy) reason="exact-accounting invariant: every request is finished exactly once; a hole here is a bug the ServeReport must not paper over"
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("request {i} left unaccounted")))
            .collect();
        Ok(ServeReport { records, bucket_stats: parts.bucket_stats, cache: parts.cache })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalConfig;
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    fn workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    fn operator(seed: u64) -> ElsaAttention {
        let mut rng = SeededRng::new(seed);
        let train = workload().generate_batch(1, &mut rng);
        ElsaAttention::learn(
            ElsaParams::for_dims(64, 64, &mut SeededRng::new(seed + 1)),
            &train,
            1.0,
        )
    }

    fn config() -> AcceleratorConfig {
        AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
    }

    fn trace(count: usize, lambda: f64, slo_ns: Option<u64>, seed: u64) -> SessionTrace {
        let cfg = ArrivalConfig { lambda_per_s: lambda, count, slo_ns, burst: None };
        SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(seed))
    }

    #[test]
    fn every_request_is_accounted_exactly_once() {
        let server = OnlineServer::new(
            config(),
            operator(1),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(4),
                backpressure: Backpressure::ShedNewest,
                shed_unmeetable: true,
                ..ServeConfig::default()
            },
        );
        let trace = trace(64, 200_000.0, Some(100_000), 2);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.offered_count(), 64);
        assert_eq!(
            report.served_count()
                + report.shed_count()
                + report.timed_out_count()
                + report.failed_count(),
            64,
            "exact accounting"
        );
        // Records come back in arrival order.
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    #[test]
    fn light_load_serves_everything_within_slo() {
        let server =
            OnlineServer::new(config(), operator(3), FaultPlan::none(), ServeConfig::immediate());
        // λ far below saturation, generous SLO.
        let trace = trace(24, 1_000.0, Some(crate::clock::NANOS_PER_SEC), 4);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 24);
        assert_eq!(report.slo_attainment(), 1.0);
        assert!(report.queue_delay_percentile_s(99.0) < 1e-3);
        assert!(report.throughput_per_s() > 0.0);
    }

    #[test]
    fn shed_oldest_prefers_the_head_of_the_queue() {
        // One unit, capacity 2, huge batch window: the queue fills and the
        // oldest waiters get dropped.
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: 1, ..config() },
            operator(5),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(2),
                backpressure: Backpressure::ShedOldest,
                batch: BatchPolicy::single_bucket(64, u64::MAX / 2),
                ..ServeConfig::default()
            },
        );
        let trace = trace(12, 1_000_000.0, None, 6);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.shed_queue_full_count(), 10, "capacity 2 of 12 survive");
        let shed: Vec<usize> = report
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::ShedQueueFull)
            .map(|r| r.id)
            .collect();
        assert_eq!(shed, (0..10).collect::<Vec<_>>(), "head drop sheds the oldest");
    }

    #[test]
    fn block_backpressure_never_sheds() {
        let server = OnlineServer::new(
            config(),
            operator(7),
            FaultPlan::none(),
            ServeConfig {
                queue_capacity: Some(2),
                backpressure: Backpressure::Block,
                batch: BatchPolicy::single_bucket(8, 1_000_000),
                ..ServeConfig::default()
            },
        );
        let trace = trace(32, 500_000.0, None, 8);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 32);
        assert_eq!(report.shed_count(), 0);
    }

    #[test]
    fn unmeetable_deadlines_are_shed_not_burned() {
        // Impossible SLO: shorter than any service time. With shedding on,
        // every request is dropped before occupying a unit.
        let server = OnlineServer::new(
            config(),
            operator(9),
            FaultPlan::none(),
            ServeConfig { shed_unmeetable: true, ..ServeConfig::immediate() },
        );
        let trace = trace(8, 1_000.0, Some(10), 10);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.shed_unmeetable_count(), 8);
        assert_eq!(report.slo_attainment(), 0.0);
        assert_eq!(report.throughput_per_s(), 0.0);
    }

    #[test]
    fn batching_waits_are_bounded_by_the_window() {
        let max_wait_ns = 2_000_000; // 2 ms
        let server = OnlineServer::new(
            config(),
            operator(11),
            FaultPlan::none(),
            ServeConfig {
                batch: BatchPolicy::single_bucket(64, max_wait_ns),
                ..ServeConfig::default()
            },
        );
        // λ low enough that batches form by expiry, not by max_batch.
        let trace = trace(16, 5_000.0, None, 12);
        let report = server.serve(&trace).expect("healthy pool");
        assert_eq!(report.served_count(), 16);
        for r in &report.records {
            assert!(
                r.decided_ns <= r.arrival_ns + max_wait_ns,
                "request {} dispatched {}ns after arrival",
                r.id,
                r.decided_ns - r.arrival_ns
            );
        }
        let stats = &report.bucket_stats[0];
        assert!(stats.batches < 16, "batching actually grouped requests");
        assert!(stats.mean_fill() > 1.0);
    }

    #[test]
    fn dead_pool_is_a_typed_error() {
        let plan = FaultPlan::seeded(
            13,
            elsa_fault::FaultRates { unit_death: 1.0, ..elsa_fault::FaultRates::none() },
        );
        let server = OnlineServer::new(config(), operator(14), plan, ServeConfig::default());
        assert_eq!(
            server.serve(&trace(4, 1_000.0, None, 15)).unwrap_err(),
            RuntimeError::NoHealthyUnits
        );
    }

    #[test]
    fn oversized_request_is_rejected_up_front() {
        // n_max = 200 but BertLarge pads to 384 real entities sometimes; use
        // a tiny n_max to force the misfit deterministically.
        let server = OnlineServer::new(
            AcceleratorConfig { n_max: 8, ..config() },
            operator(16),
            FaultPlan::none(),
            ServeConfig::default(),
        );
        let err = server.serve(&trace(6, 1_000.0, None, 17)).unwrap_err();
        assert!(matches!(err, RuntimeError::Request { .. }));
    }

    #[test]
    fn padded_mode_charges_at_least_the_real_cost() {
        let trace = trace(24, 1_000_000.0, None, 18);
        let serve = |mode| {
            let server = OnlineServer::new(
                config(),
                operator(19),
                FaultPlan::none(),
                ServeConfig {
                    batch: BatchPolicy::single_bucket(8, 1_000_000),
                    mode,
                    ..ServeConfig::default()
                },
            );
            server.serve(&trace).expect("healthy pool")
        };
        let bucketed = serve(BatcherMode::Bucketed);
        let padded = serve(BatcherMode::Padded);
        assert_eq!(bucketed.served_count(), padded.served_count());
        for (b, p) in bucketed.records.iter().zip(&padded.records) {
            assert!(p.service_s >= b.service_s, "padding can only add work");
        }
        assert!(padded.bucket_stats[0].padded_rows > 0, "mixed lengths actually padded");
        assert_eq!(bucketed.bucket_stats[0].padded_rows, 0, "ELSA pays no padding");
        assert_eq!(bucketed.bucket_stats[0].padding_waste(), 0.0);
    }

    #[test]
    fn multi_turn_sessions_hit_the_cache() {
        use crate::session::SessionArrivalConfig;
        let server =
            OnlineServer::new(config(), operator(21), FaultPlan::none(), ServeConfig::default());
        let cfg = SessionArrivalConfig {
            lambda_per_s: 5_000.0,
            sessions: 4,
            slo_ns: None,
            max_decode_turns: Some(3),
        };
        let trace = SessionTrace::generate(&workload(), &cfg, &mut SeededRng::new(22));
        let r = server.serve_sessions(&trace, CacheConfig::unbounded()).expect("healthy");
        assert_eq!(r.offered_count(), trace.len());
        assert_eq!(
            r.served_count() + r.shed_count() + r.timed_out_count() + r.failed_count(),
            trace.len(),
            "exact accounting"
        );
        // Unbounded cache, nothing dropped: every decode turn after its
        // prefill is a hit, one cold start per session, no staleness.
        let cache = r.cache.expect("served with a cache");
        assert_eq!(cache.cold, 4);
        assert_eq!(cache.hits as usize, trace.len() - 4);
        assert_eq!(cache.stale, 0);
        assert_eq!(cache.evictions, 0);
        assert!(cache.peak_bytes > 0);
        // A hit decode turn is charged strictly less than its from-scratch
        // precompute (the skipped context re-hashing).
        let hit_turn = r
            .records
            .iter()
            .zip(&trace.requests)
            .find(|(rec, req)| {
                req.appended == 1 && matches!(rec.outcome, Outcome::Served { degraded: false })
            })
            .map(|(rec, _)| rec)
            .expect("some decode turn served cleanly");
        assert!(hit_turn.service_s > 0.0);
    }

    #[test]
    fn single_turn_unbounded_sessions_match_plain_serving_bitwise() {
        let make = || {
            OnlineServer::new(
                config(),
                operator(23),
                FaultPlan::none(),
                ServeConfig {
                    batch: BatchPolicy::single_bucket(4, 500_000),
                    ..ServeConfig::default()
                },
            )
        };
        let arrivals = trace(24, 50_000.0, Some(5_000_000), 24);
        let plain = make().serve(&arrivals).expect("healthy");
        let sessions = make().serve_sessions(&arrivals, CacheConfig::unbounded()).expect("healthy");
        // The cache statistics are the one field that differs by design.
        assert_eq!(plain.cache, None);
        assert_eq!(plain.records, sessions.records, "degenerate session serving is bit-identical");
        assert_eq!(plain.bucket_stats, sessions.bucket_stats);
        let cache = sessions.cache.expect("served with a cache");
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.cold, sessions.served_count() as u64);
    }

    #[test]
    fn dropped_turns_force_stale_rebuilds() {
        use crate::session::SessionArrivalConfig;
        // An SLO so tight that some turns time out in the queue on one unit:
        // the following turn of that session must be stale, never a hit.
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: 1, ..config() },
            operator(25),
            FaultPlan::none(),
            ServeConfig { shed_unmeetable: true, ..ServeConfig::default() },
        );
        let cfg = SessionArrivalConfig {
            lambda_per_s: 500_000.0,
            sessions: 3,
            slo_ns: Some(40_000),
            max_decode_turns: Some(4),
        };
        let trace = SessionTrace::generate(&workload(), &cfg, &mut SeededRng::new(26));
        let r = server.serve_sessions(&trace, CacheConfig::unbounded()).expect("healthy");
        assert_eq!(
            r.served_count() + r.shed_count() + r.timed_out_count() + r.failed_count(),
            trace.len(),
            "exact accounting under drops"
        );
        assert!(r.shed_count() + r.timed_out_count() > 0, "overload actually dropped turns");
        // Cache classification only covers served turns.
        let cache = r.cache.expect("served with a cache");
        assert_eq!(cache.hits + cache.cold + cache.stale, r.served_count() as u64);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let server =
            OnlineServer::new(config(), operator(20), FaultPlan::none(), ServeConfig::default());
        let report = server.serve(&SessionTrace { requests: Vec::new() }).expect("empty is fine");
        assert_eq!(report.offered_count(), 0);
        assert_eq!(report.slo_attainment(), 1.0);
        assert_eq!(report.queue_delay_percentile_s(99.0), 0.0);
        assert_eq!(report.completion_percentile_s(99.0), 0.0);
        assert_eq!(report.throughput_per_s(), 0.0);
    }

    #[test]
    fn permanent_transients_exhaust_the_retry_budget() {
        let plan = FaultPlan::seeded(
            6,
            elsa_fault::FaultRates { transient: 1.0, ..elsa_fault::FaultRates::none() },
        );
        let serve_config =
            ServeConfig { max_retries: 2, quarantine_after: 100, ..ServeConfig::immediate() };
        let server = OnlineServer::new(config(), operator(7), plan, serve_config);
        let recorded =
            elsa_workloads::WorkloadTrace::record(&workload(), 3, &mut SeededRng::new(8));
        let report =
            server.serve(&SessionTrace::simultaneous(&recorded)).expect("pool itself is healthy");
        assert_eq!(report.failed_count(), 3);
        assert_eq!(report.served_count(), 0);
        assert!(
            report.records.iter().all(|r| r.outcome == Outcome::Failed && r.retries == 3),
            "budget: 1 + max_retries"
        );
        for value in [
            report.throughput_per_s(),
            report.completion_percentile_s(50.0),
            report.completion_percentile_s(99.0),
            report.queue_delay_percentile_s(99.0),
        ] {
            assert_eq!(value, 0.0, "all-failed reports read 0, never NaN");
        }
    }

    #[test]
    fn try_new_rejects_misfit_operator_without_panicking() {
        let config = AcceleratorConfig { d: 32, ..AcceleratorConfig::paper() };
        let err =
            OnlineServer::try_new(config, operator(27), FaultPlan::none(), ServeConfig::default())
                .expect_err("operator d = 64 vs 32");
        assert!(err.to_string().contains("does not fit hardware d"));
    }

    #[test]
    fn completion_percentiles_cover_served_requests_only() {
        // One unit and an impossible SLO on half the pool's work: the shed
        // requests carry their decision instant as completion, which must
        // not drag the served percentiles down.
        let server = OnlineServer::new(
            AcceleratorConfig { num_accelerators: 1, ..config() },
            operator(28),
            FaultPlan::none(),
            ServeConfig { shed_unmeetable: true, ..ServeConfig::immediate() },
        );
        let report = server.serve(&trace(12, 1e9, Some(5_000), 29)).expect("healthy pool");
        assert!(report.served_count() > 0 && report.shed_count() > 0, "mixed outcomes");
        let served: Vec<f64> = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Served { .. }))
            .map(|r| r.completion_s)
            .collect();
        let min = served.iter().copied().fold(f64::INFINITY, f64::min);
        let max = served.iter().copied().fold(0.0, f64::max);
        assert_eq!(report.completion_percentile_s(-10.0), min);
        assert_eq!(report.completion_percentile_s(250.0), max);
        let p50 = report.completion_percentile_s(50.0);
        let p99 = report.completion_percentile_s(99.0);
        assert!(min <= p50 && p50 <= p99 && p99 <= max);
    }
}
