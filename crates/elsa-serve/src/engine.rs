//! The node-embeddable serving engine.
//!
//! [`NodeEngine`] is the serial virtual-clock event loop behind
//! [`OnlineServer`](crate::dispatch::OnlineServer), extracted as a public
//! API so a higher layer (the `elsa-cluster` fleet) can embed one engine
//! per node and drive admissions itself. The split is exact: the server's
//! one replay (behind both `serve` and `serve_sessions`) runs on this type
//! unchanged, so a single externally-driven engine is bit-identical to the
//! in-process server.
//!
//! The engine owns everything that happens *after* routing: the bounded
//! admission queue, length-bucketed batch formation, SLO checks, and the
//! per-unit failover loop (transient retries, stragglers, quarantine,
//! degradation to exact attention). It never decides *which* engine a
//! request reaches — that is the caller's routing policy — and it exposes
//! the hooks a router needs:
//!
//! * [`NodeEngine::backlog_s`] — the instantaneous per-unit backlog
//!   (busy seconds remaining + queued service), the load signal for
//!   least-loaded routing and queue-delay autoscaling;
//! * [`NodeEngine::evacuate`] — drain the queue without recording
//!   outcomes, so a dying node's waiters can be re-routed;
//! * [`NodeEngine::with_sessions`] — attach a decode cache, sized by the
//!   operator's hasher (the one way to attach one, for the lone server and
//!   for every fleet node);
//! * [`NodeEngine::clear_session_cache`] — model the loss of a dead
//!   node's decode cache (its sessions rebuild from scratch elsewhere);
//! * [`NodeEngine::with_service_scale`] — a uniform slow-node factor
//!   (scale `1.0` is bit-transparent: `x × 1.0 ≡ x` for every finite
//!   charge, preserving the healthy-path equivalence).
//!
//! It is the only dispatcher in the workspace, and it serves only session
//! turns: a plain request is a single-turn session, and batch serving is
//! the same engine on an all-at-t=0 trace under
//! [`ServeConfig::immediate`], so retry, quarantine, straggler and
//! degradation semantics live in exactly one function, `dispatch_one`.
//!
//! Precompute stays outside the engine in [`prepare_turns`], the one
//! precompute of every serving path and its only parallel stage: fanned
//! out under an `elsa_parallel` work gate over sessions and returned in
//! arrival order, so reports are bit-identical at any `ELSA_THREADS` no
//! matter how many engines share the prepared slice. It computes only what
//! a session's turns read: each context up to the longest prefix its turns
//! read, and each key's hash and norm once per session, carried from turn
//! to turn as the hardware's key hash and norm SRAMs keep them.

use std::collections::BTreeMap;
use std::ops::Range;

use elsa_attention::exact::AttentionInputs;
use elsa_core::attention::PreprocessedKeys;
use elsa_fault::{FaultPlan, HealthSnapshot, HealthTracker, SATURATION_LIMIT};
use elsa_linalg::reduce::sum_f64;
use elsa_linalg::Matrix;
use elsa_sim::cycle::simulate_execution_base;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator, FitError, RunReport};
use elsa_workloads::sessions::{slice_turn, turn_query_rows};
use elsa_workloads::trace::TraceEntry;

use crate::batcher::{BatchPolicy, BatcherMode, BucketStats};
use crate::clock::{ns_to_secs, VirtualClock};
use crate::dispatch::{OnlineRecord, Outcome, ServeConfig};
use crate::error::RuntimeError;
use crate::queue::{AdmissionQueue, Backpressure, QueuedRequest};
use crate::session::{CacheConfig, CacheStats, SessionRegistry, SessionTurnRequest};

/// One request's thread-independent precompute: the materialized inputs,
/// the measured service seconds (full and cache-hit variants), and the
/// numeric-guard verdict.
#[derive(Debug)]
pub struct PreparedRequest {
    /// The materialized attention inputs (kept for padded-timing runs and
    /// the shape of the degraded exact-attention charge).
    pub inputs: AttentionInputs,
    /// Service seconds of the full from-scratch run.
    pub service_s: f64,
    /// Service seconds when the session cache holds the expected prefix:
    /// the run's cycles with the full-context preprocessing replaced by
    /// preprocessing of only the appended tokens. Never charged to a
    /// session's first turn, so never to a plain (single-turn) request.
    pub hit_service_s: f64,
    /// Whether the numeric guard tripped on the approximate result.
    pub trips: bool,
}

/// The numeric guard: a result is untrustworthy when a non-empty query set
/// selected nothing or any output value is non-finite or saturated. One
/// predicate catches NaN, ±∞ and the fixed-point saturation sentinel:
/// `!(v.abs() < SATURATION_LIMIT)`.
fn guard_trips(report: &RunReport) -> bool {
    (report.stats.num_queries > 0 && report.stats.selected_pairs == 0)
        || report.output.as_slice().iter().any(|v| !(v.abs() < SATURATION_LIMIT))
}

/// Σ n²·d across shapes at about six `elsa_parallel::MIN_PARALLEL_WORK` units each.
fn precompute_work(shapes: impl Iterator<Item = (usize, usize)>) -> usize {
    shapes.map(|(n, d)| n.saturating_mul(n).saturating_mul(d).saturating_mul(6)).sum()
}

/// Surfaces the first misfit of a precompute fan-out as a typed error.
fn collect_prepared(
    runs: Vec<Result<PreparedRequest, FitError>>,
) -> Result<Vec<PreparedRequest>, RuntimeError> {
    let mut prepared = Vec::with_capacity(runs.len());
    for (index, run) in runs.into_iter().enumerate() {
        prepared.push(run.map_err(|source| RuntimeError::Request { index, source })?);
    }
    Ok(prepared)
}

/// The query rows `turn` runs, decided on its entry before anything is
/// materialized: first the turn's shape ([`turn_query_rows`]), then whether
/// the entry can be generated at all
/// ([`AttentionPatternConfig::validate`](elsa_workloads::AttentionPatternConfig::validate)).
fn turn_rows(turn: &SessionTurnRequest) -> Result<Range<usize>, FitError> {
    let (prefix_len, appended) = (turn.prefix_len, turn.appended);
    let n_real = turn.entry.pattern.n_real;
    match turn_query_rows(n_real, turn.entry.pattern.n_queries, prefix_len, appended) {
        None => Err(FitError::MalformedTurn { prefix_len, appended, n_real }),
        Some(rows) if rows.is_empty() => Err(FitError::NoQueryRow { prefix_len, appended }),
        Some(rows) => match turn.entry.pattern.validate() {
            Ok(()) => Ok(rows),
            Err(reason) => Err(FitError::InvalidEntry { reason }),
        },
    }
}

/// Precomputes every turn of a session trace: full-cost and cache-hit
/// service seconds per turn, computing only what the turns read.
///
/// The turns are grouped by session, sessions in order of their first
/// arrival, and the sessions fan out under an `elsa_parallel` work gate. A
/// worker first decides each of its session's turns on the entry's shape
/// ([`turn_query_rows`]) and then on the entry itself
/// ([`AttentionPatternConfig::validate`](elsa_workloads::AttentionPatternConfig::validate)):
/// a malformed turn, one with no query row at its appended positions and
/// one whose entry cannot be generated get their error and read nothing.
/// The other turns run in arrival order. Consecutive ones on the same entry
/// share one context, materialized once and only up to the longest prefix
/// they read ([`TraceEntry::materialize_prefix`]). They also share one key
/// preprocessing: the first turn that fits computes it for its prefix, and
/// a later turn appends only its new keys
/// ([`PreprocessedKeys::append`](elsa_core::attention::PreprocessedKeys::append)),
/// as the hardware writes a decode step's key into its key hash and norm
/// SRAMs, then runs [`ElsaAccelerator::try_run_with`]. A turn whose entry
/// differs starts a new context, and one whose prefix is shorter than the
/// keys in hand preprocesses its prefix afresh. Each worker drops its
/// context before the next session, so one context per worker is alive at
/// a time.
///
/// Every turn's result is the per-turn computation's (the whole
/// invocation materialized, sliced by [`turn_inputs`](elsa_workloads::turn_inputs),
/// run by [`ElsaAccelerator::try_run`]), bit for bit, and results come back
/// in turn order, so they are identical at any `ELSA_THREADS`. A plain
/// request is a single-turn session
/// ([`SessionTrace::poisson`](crate::SessionTrace::poisson)), so this is the
/// precompute of every serving path.
///
/// # Errors
///
/// Returns [`RuntimeError::Request`] for the first turn, in turn order,
/// that is malformed ([`FitError::MalformedTurn`]), has no query row at its
/// appended positions ([`FitError::NoQueryRow`]), has an entry that fails
/// [`AttentionPatternConfig::validate`](elsa_workloads::AttentionPatternConfig::validate)
/// ([`FitError::InvalidEntry`]; a parsed trace never holds one), or does
/// not fit the hardware.
pub fn prepare_turns(
    accel: &ElsaAccelerator,
    accel_config: &AcceleratorConfig,
    turns: &[SessionTurnRequest],
) -> Result<Vec<PreparedRequest>, RuntimeError> {
    let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut sessions: Vec<Vec<usize>> = Vec::new();
    for (i, turn) in turns.iter().enumerate() {
        let slot = *slot_of.entry(turn.session).or_insert_with(|| {
            sessions.push(Vec::new());
            sessions.len() - 1
        });
        sessions[slot].push(i);
    }
    let params = accel.operator().params();
    let run_session = |s: usize| -> Vec<(usize, Result<PreparedRequest, FitError>)> {
        let mut runs = Vec::with_capacity(sessions[s].len());
        let mut fitting = Vec::with_capacity(sessions[s].len());
        for &i in &sessions[s] {
            match turn_rows(&turns[i]) {
                Ok(rows) => fitting.push((i, rows)),
                Err(source) => runs.push((i, Err(source))),
            }
        }
        let mut context: Option<(TraceEntry, AttentionInputs)> = None;
        let mut carried: Option<PreprocessedKeys> = None;
        for (k, (i, rows)) in fitting.iter().enumerate() {
            let request = &turns[*i];
            let context = match context {
                Some((entry, ref full)) if entry == request.entry => full,
                _ => {
                    // This turn and the fitting turns after it on the same
                    // entry read no key past the longest of their prefixes.
                    let len = fitting[k..]
                        .iter()
                        .map(|(j, _)| &turns[*j])
                        .take_while(|t| t.entry == request.entry)
                        .map(|t| t.prefix_len)
                        .fold(request.prefix_len, usize::max);
                    carried = None;
                    &context.insert((request.entry, request.entry.materialize_prefix(len))).1
                }
            };
            let inputs = slice_turn(context, rows.clone(), request.prefix_len);
            let run = accel.try_check_fit(&inputs).and_then(|()| {
                let keys = inputs.key();
                let pre = match carried.take() {
                    Some(mut pre) if pre.len() <= keys.rows() => {
                        for r in pre.len()..keys.rows() {
                            pre.append(params, keys.row(r));
                        }
                        pre
                    }
                    _ => PreprocessedKeys::compute(params, keys),
                };
                let run = accel.try_run_with(&inputs, &pre);
                carried = Some(pre);
                run
            });
            runs.push((
                *i,
                run.map(|run| {
                    let hit_cycles = run.cycles.total() - run.cycles.preprocessing
                        + accel_config.preprocessing_cycles(request.appended);
                    PreparedRequest {
                        service_s: run.cycles.seconds(accel_config),
                        hit_service_s: hit_cycles as f64 * accel_config.cycle_time_s(),
                        trips: guard_trips(&run),
                        inputs,
                    }
                }),
            ));
        }
        runs
    };
    let work =
        precompute_work(turns.iter().map(|r| (r.entry.pattern.n_real, r.entry.pattern.d)));
    let per_session = if elsa_parallel::beneficial(work) && sessions.len() > 1 {
        elsa_parallel::par_map_indexed(sessions.len(), run_session)
    } else {
        (0..sessions.len()).map(run_session).collect()
    };
    // Back to turn order: every turn belongs to exactly one session.
    let mut runs: Vec<Option<Result<PreparedRequest, FitError>>> =
        std::iter::repeat_with(|| None).take(turns.len()).collect();
    for (i, run) in per_session.into_iter().flatten() {
        runs[i] = Some(run);
    }
    collect_prepared(runs.into_iter().flatten().collect())
}

/// Builds the admission entries of a session trace with **session
/// affinity**: the bucket is pinned when a session is first admitted (by
/// its prefill length) and every later turn follows it, even after the
/// context outgrows the bucket's bound. The pin map is deliberately
/// separate from the eviction registry — losing cached state must not
/// reshuffle a conversation across queues.
#[must_use]
pub fn session_admissions(
    batch: &BatchPolicy,
    turns: &[SessionTurnRequest],
) -> Vec<QueuedRequest> {
    let mut affinity: BTreeMap<u64, usize> = BTreeMap::new();
    turns
        .iter()
        .map(|request| {
            let bucket = *affinity
                .entry(request.session)
                .or_insert_with(|| batch.bucket_of(request.prefix_len));
            QueuedRequest {
                id: request.id,
                arrival_ns: request.arrival_ns,
                deadline_ns: request.deadline_ns,
                n_real: request.prefix_len,
                bucket,
            }
        })
        .collect()
}

/// A fresh unit-health tracker for a pool of `units` accelerators with
/// every plan-dead unit already marked dead. The caller decides what an
/// all-dead pool means: a lone server rejects it, a fleet marks the node
/// dead on arrival.
#[must_use]
pub fn unit_health(plan: &FaultPlan, units: usize, quarantine_after: u32) -> HealthTracker {
    let mut health = HealthTracker::new(units, quarantine_after);
    for unit in (0..units).filter(|&unit| plan.unit_dead(unit)) {
        health.mark_dead(unit);
    }
    health
}

/// Session bookkeeping threaded through one engine run: the node's decode
/// cache registry plus hit/cold/stale classification against the trace's
/// turns.
#[derive(Debug)]
struct SessionBook<'a> {
    registry: SessionRegistry,
    /// The trace's turns, indexed by request id.
    meta: &'a [SessionTurnRequest],
    hits: u64,
    cold: u64,
    stale: u64,
    rebuilt_tokens: u64,
}

impl SessionBook<'_> {
    /// Whether the turn's session holds exactly the prefix the turn expects
    /// (read-only; the registry is committed only when the turn is served).
    fn is_hit(&self, m: &SessionTurnRequest) -> bool {
        let expected = m.prefix_len - m.appended;
        expected > 0 && self.registry.cached_len(m.session) == Some(expected)
    }

    /// The book's final cache statistics.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            cold: self.cold,
            stale: self.stale,
            rebuilt_tokens: self.rebuilt_tokens,
            evictions: self.registry.evictions(),
            peak_bytes: self.registry.peak_bytes(),
        }
    }
}

/// Everything one engine run leaves behind: the per-request record slots
/// (indexed by trace id; `None` where this engine never finished the
/// request), per-bucket dispatch accounting, cache statistics when session
/// serving was on, and the final unit-health snapshot.
#[derive(Debug)]
pub struct NodeParts {
    /// One slot per trace id; `Some` exactly where this engine decided the
    /// request's outcome.
    pub slots: Vec<Option<OnlineRecord>>,
    /// Dispatch accounting per length bucket.
    pub bucket_stats: Vec<BucketStats>,
    /// Decode-cache behavior, when the engine carried a decode cache
    /// ([`NodeEngine::with_sessions`]).
    pub cache: Option<CacheStats>,
    /// Unit health at the end of the run.
    pub health: HealthSnapshot,
}

/// Mutable state of one serving run: the serial event loop of one node.
#[derive(Debug)]
pub struct NodeEngine<'a> {
    accel: &'a ElsaAccelerator,
    accel_config: &'a AcceleratorConfig,
    plan: FaultPlan,
    cfg: &'a ServeConfig,
    prepared: &'a [PreparedRequest],
    clock: VirtualClock,
    queue: AdmissionQueue,
    free_at: Vec<f64>,
    health: HealthTracker,
    slots: Vec<Option<OnlineRecord>>,
    stats: Vec<BucketStats>,
    sessions: Option<SessionBook<'a>>,
    service_scale: f64,
}

impl<'a> NodeEngine<'a> {
    /// A fresh engine over an accelerator pool. `prepared` is the *whole*
    /// trace's precompute, indexed by request id — an engine that serves
    /// only a routed subset still sizes its record slots to the full
    /// trace, so fleet-level merges are a positional union.
    #[must_use]
    pub fn new(
        accel: &'a ElsaAccelerator,
        accel_config: &'a AcceleratorConfig,
        plan: FaultPlan,
        cfg: &'a ServeConfig,
        prepared: &'a [PreparedRequest],
        health: HealthTracker,
    ) -> Self {
        let units = accel_config.num_accelerators;
        Self {
            accel,
            accel_config,
            plan,
            cfg,
            prepared,
            clock: VirtualClock::new(),
            queue: AdmissionQueue::new(cfg.batch.num_buckets(), cfg.queue_capacity),
            free_at: vec![0.0f64; units],
            health,
            slots: (0..prepared.len()).map(|_| None).collect(),
            stats: cfg
                .batch
                .length_buckets
                .iter()
                .map(|&bound| BucketStats { bound, ..BucketStats::default() })
                .collect(),
            sessions: None,
            service_scale: 1.0,
        }
    }

    /// Attaches the decode cache model: a [`SessionRegistry`] sized by the
    /// operator's hasher under `cache`, classifying each served turn against
    /// `turns` (the whole trace's turns, indexed by request id — an engine
    /// serving a routed subset still indexes into the shared slice).
    #[must_use]
    pub fn with_sessions(mut self, cache: CacheConfig, turns: &'a [SessionTurnRequest]) -> Self {
        let hasher = self.accel.operator().params().hasher();
        let registry = SessionRegistry::new(cache, hasher.dim(), hasher.k());
        self.sessions = Some(SessionBook {
            registry,
            meta: turns,
            hits: 0,
            cold: 0,
            stale: 0,
            rebuilt_tokens: 0,
        });
        self
    }

    /// Applies a uniform slow-node factor to every charged service time.
    /// Scale `1.0` is bit-transparent (`x × 1.0 ≡ x` for finite `x`), so a
    /// healthy node's records are unchanged by this hook existing.
    ///
    /// # Panics
    ///
    /// Panics unless `scale ≥ 1` and finite.
    #[must_use]
    pub fn with_service_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0 && scale.is_finite(), "service scale must be ≥ 1, got {scale}");
        self.service_scale = scale;
        self
    }

    /// Current virtual instant.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the engine's clock (monotone; panics on a backward step).
    pub fn advance_to(&mut self, t_ns: u64) {
        self.clock.advance_to(t_ns);
    }

    /// Instantaneous backlog in seconds per available unit: remaining busy
    /// time on the units plus the full-cost service of everything queued,
    /// divided by the available-unit count (`+∞` when no unit is
    /// available). This is the router's load signal — a *pure read* of
    /// engine state, so routing policies built on it stay deterministic.
    #[must_use]
    pub fn backlog_s(&self) -> f64 {
        let avail = self.health.available_units();
        if avail.is_empty() {
            return f64::INFINITY;
        }
        let now_s = self.clock.now_s();
        let busy = sum_f64(avail.iter().map(|&u| (self.free_at[u] - now_s).max(0.0)));
        let queued = sum_f64(
            self.queue.iter().map(|r| self.prepared[r.id].service_s * self.service_scale),
        );
        (busy + queued) / avail.len() as f64
    }

    /// Drains every queued request *without* recording an outcome, in
    /// global arrival order (ties by id) — the evacuation path when this
    /// node dies and its waiters must be re-routed by the caller.
    pub fn evacuate(&mut self) -> Vec<QueuedRequest> {
        let mut evacuated = Vec::with_capacity(self.queue.len());
        for bucket in 0..self.cfg.batch.num_buckets() {
            evacuated.extend(self.queue.drain_bucket(bucket, usize::MAX));
        }
        evacuated.sort_by_key(|r| (r.arrival_ns, r.id));
        evacuated
    }

    /// Drops every resident session from the node's decode cache (the
    /// node died; its incremental state is gone). Lifetime counters
    /// (evictions, peak bytes) survive — they are accounting, not state.
    pub fn clear_session_cache(&mut self) {
        if let Some(s) = &mut self.sessions {
            s.registry.clear();
        }
    }

    /// Consumes the engine, returning its records and accounting.
    #[must_use]
    pub fn into_parts(self) -> NodeParts {
        NodeParts {
            health: self.health.snapshot(),
            cache: self.sessions.as_ref().map(SessionBook::stats),
            slots: self.slots,
            bucket_stats: self.stats,
        }
    }

    /// Dispatches every bucket whose batching window expires at or before
    /// `horizon_ns`, in expiry order, advancing the clock to each expiry.
    pub fn flush_expired(&mut self, horizon_ns: u64) {
        while let Some((expiry, bucket)) = self.queue.earliest_expiry(self.cfg.batch.max_wait_ns)
        {
            if expiry > horizon_ns {
                break;
            }
            self.clock.advance_to(expiry.max(self.clock.now_ns()));
            self.dispatch_bucket(bucket);
        }
    }

    /// Admits one arrival at the current instant, applying backpressure if
    /// the queue is full and dispatching its bucket if that fills it.
    pub fn admit(&mut self, request: QueuedRequest) {
        if self.queue.is_full() {
            match self.cfg.backpressure {
                Backpressure::ShedNewest => {
                    let now_s = self.clock.now_s();
                    self.finish(request, 0.0, 0.0, now_s, 0, Outcome::ShedQueueFull);
                    return;
                }
                Backpressure::ShedOldest => {
                    // elsa-lint: allow(panic-policy) reason="is_full() implies the queue is nonempty, so an oldest victim always exists"
                    let victim = self.queue.pop_oldest().expect("full queue is nonempty");
                    let now_s = self.clock.now_s();
                    let delay = now_s - ns_to_secs(victim.arrival_ns);
                    self.finish(victim, delay, 0.0, now_s, 0, Outcome::ShedQueueFull);
                }
                Backpressure::Block => {
                    // elsa-lint: allow(panic-policy) reason="is_full() implies the queue is nonempty, so an oldest bucket always exists"
                    let bucket = self.queue.oldest_bucket().expect("full queue is nonempty");
                    self.dispatch_bucket(bucket);
                }
            }
        }
        self.queue.push(request);
        if self.queue.bucket_len(request.bucket) >= self.cfg.batch.max_batch {
            self.dispatch_bucket(request.bucket);
        }
    }

    /// Forms a batch from one bucket at the current instant and dispatches
    /// its members in FIFO order.
    fn dispatch_bucket(&mut self, bucket: usize) {
        let batch = self.queue.drain_bucket(bucket, self.cfg.batch.max_batch);
        if batch.is_empty() {
            return;
        }
        self.stats[bucket].batches += 1;
        self.stats[bucket].requests += batch.len() as u64;
        // Padding is a formation-time decision: the batch maximum is fixed
        // over everything drained, before deadline checks, exactly as a
        // pad-to-max kernel launch would be shaped.
        let padded_n = match self.cfg.mode {
            BatcherMode::Bucketed => 0,
            BatcherMode::Padded => batch.iter().map(|r| r.n_real).max().unwrap_or(0),
        };
        for request in batch {
            self.stats[bucket].real_rows += request.n_real as u64;
            let charged = match self.cfg.mode {
                BatcherMode::Bucketed => self.bucketed_service_s(request.id),
                BatcherMode::Padded => {
                    self.stats[bucket].padded_rows += (padded_n - request.n_real) as u64;
                    self.padded_service_s(request.id, padded_n)
                }
            };
            self.dispatch_one(request, charged * self.service_scale);
        }
    }

    /// The bucketed (real-length) service seconds of one request: the
    /// cache-discounted hit cost when session serving holds the expected
    /// prefix, the full precomputed cost otherwise. Read-only — the
    /// registry commits in [`commit_session`](Self::commit_session), which
    /// runs before the next request of the batch is charged, so the
    /// classification made here is the one committed.
    fn bucketed_service_s(&self, id: usize) -> f64 {
        match &self.sessions {
            Some(s) if s.is_hit(&s.meta[id]) => self.prepared[id].hit_service_s,
            _ => self.prepared[id].service_s,
        }
    }

    /// Session bookkeeping for one *served* turn: classify hit/cold/stale
    /// against the registry, then commit the session's new context length
    /// (or release it on its final turn). Dropped turns never reach this,
    /// so a shed/timed-out/failed turn leaves the cached state behind —
    /// the session's next turn then misses and rebuilds from scratch.
    fn commit_session(&mut self, id: usize) {
        let Some(s) = &mut self.sessions else { return };
        let m = &s.meta[id];
        let expected = m.prefix_len - m.appended;
        if expected == 0 {
            s.cold += 1;
        } else if s.registry.cached_len(m.session) == Some(expected) {
            s.hits += 1;
        } else {
            s.stale += 1;
            s.rebuilt_tokens += expected as u64;
        }
        if m.last_turn {
            s.registry.remove(m.session);
        } else {
            s.registry.commit(m.session, m.prefix_len);
        }
    }

    /// The service seconds of one request padded (with zero rows) to
    /// `padded_n` entities — the GPU-emulation cost. Falls back to the
    /// precomputed time when no padding is needed.
    fn padded_service_s(&self, id: usize, padded_n: usize) -> f64 {
        let p = &self.prepared[id];
        if padded_n <= p.inputs.num_keys() {
            return p.service_s;
        }
        let pad = |m: &Matrix| m.vstack(&Matrix::zeros(padded_n - m.rows(), m.cols()));
        let padded = AttentionInputs::new(
            pad(p.inputs.query()),
            pad(p.inputs.key()),
            pad(p.inputs.value()),
        );
        self.accel.run(&padded).cycles.seconds(self.accel_config)
    }

    /// Routes one request through deadline checks and the failover loop.
    fn dispatch_one(&mut self, request: QueuedRequest, charged_service: f64) {
        let now_ns = self.clock.now_ns();
        let now_s = self.clock.now_s();
        let waited_s = now_s - ns_to_secs(request.arrival_ns);
        if let Some(deadline) = request.deadline_ns {
            if deadline < now_ns {
                self.finish(request, waited_s, 0.0, now_s, 0, Outcome::TimedOut);
                return;
            }
            if self.cfg.shed_unmeetable {
                let earliest = self
                    .health
                    .available_units()
                    .into_iter()
                    .map(|u| self.free_at[u])
                    .min_by(f64::total_cmp);
                if let Some(earliest) = earliest {
                    if earliest.max(now_s) + charged_service > ns_to_secs(deadline) {
                        self.finish(request, waited_s, 0.0, now_s, 0, Outcome::ShedUnmeetable);
                        return;
                    }
                }
            }
        }
        let mut retries = 0u32;
        let mut attempt = 0u32;
        loop {
            // FIFO over survivors: the available unit that frees first
            // (first minimum, so ties keep the lowest unit index).
            let Some(unit) = self.health.available_units().into_iter().min_by(|&a, &b| {
                self.free_at[a].total_cmp(&self.free_at[b])
            }) else {
                // Quarantine is probation, not death: reinstate and retry
                // (circuit-breaker half-open), unless the pool is truly
                // dead.
                for u in 0..self.free_at.len() {
                    self.health.reinstate(u);
                }
                if self.health.num_available() == 0 {
                    let gave_up = self.free_at.iter().copied().fold(now_s, f64::max);
                    self.finish(request, waited_s, 0.0, gave_up, retries, Outcome::Failed);
                    return;
                }
                continue;
            };
            let start = self.free_at[unit].max(now_s);
            let slowdown = self.plan.straggler_factor(unit, request.id);
            if self.plan.transient_fault(unit, request.id, attempt) {
                // The failed attempt still occupied the unit.
                self.free_at[unit] = start + charged_service * slowdown;
                self.health.record_fault(unit);
                retries += 1;
                attempt += 1;
                if retries > self.cfg.max_retries {
                    let gave_up = self.free_at[unit];
                    self.finish(request, waited_s, 0.0, gave_up, retries, Outcome::Failed);
                    return;
                }
                continue;
            }
            self.health.record_success(unit);
            // Degrade on a naturally untrustworthy result (the precomputed
            // guard verdict) or on planned corruption: every
            // `CorruptionKind` trips `guard_trips` once injected (pinned by
            // `every_corruption_kind_trips_the_guard` below), so the plan is
            // asked instead of poisoning a copy of the result.
            let (service_s, degraded) = if self.prepared[request.id].trips
                || self.plan.corruption(unit, request.id).is_some()
            {
                // Exact fallback on the base datapath: the engine models
                // timing only, so it charges the base run's cycles without
                // computing the output (the same cycles `run_base` reports).
                let inputs = &self.prepared[request.id].inputs;
                let base = simulate_execution_base(
                    self.accel_config,
                    inputs.num_keys(),
                    inputs.num_queries(),
                );
                ((charged_service + base.seconds(self.accel_config)) * slowdown, true)
            } else {
                (charged_service * slowdown, false)
            };
            self.free_at[unit] = start + service_s;
            let completion_s = self.free_at[unit];
            let queue_delay_s = start - ns_to_secs(request.arrival_ns);
            self.commit_session(request.id);
            self.finish(
                request,
                queue_delay_s,
                service_s,
                completion_s,
                retries,
                Outcome::Served { degraded },
            );
            return;
        }
    }

    /// Writes the single record a request is allowed.
    fn finish(
        &mut self,
        request: QueuedRequest,
        queue_delay_s: f64,
        service_s: f64,
        completion_s: f64,
        retries: u32,
        outcome: Outcome,
    ) {
        let slot = &mut self.slots[request.id];
        assert!(slot.is_none(), "request {} accounted twice", request.id);
        *slot = Some(OnlineRecord {
            id: request.id,
            n_real: request.n_real,
            bucket: request.bucket,
            arrival_ns: request.arrival_ns,
            deadline_ns: request.deadline_ns,
            decided_ns: self.clock.now_ns(),
            queue_delay_s,
            service_s,
            completion_s,
            retries,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionArrivalConfig, SessionTrace};
    use elsa_core::attention::{ElsaAttention, ElsaParams};
    use elsa_fault::inject::corrupt_report;
    use elsa_fault::{CorruptionKind, FaultRates};
    use elsa_linalg::SeededRng;
    use elsa_workloads::sessions::turn_inputs;
    use elsa_workloads::{AttentionPatternConfig, DatasetKind, LongCtxKind, ModelKind, Workload};

    fn session_workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    /// An accelerator with room for `n_max` keys, its operator learned on
    /// one held-out invocation.
    fn session_accelerator(n_max: usize) -> (ElsaAccelerator, AcceleratorConfig) {
        let mut rng = SeededRng::new(31);
        let train = session_workload().generate_batch(1, &mut rng);
        let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(32));
        let config = AcceleratorConfig { n_max, num_accelerators: 4, ..AcceleratorConfig::paper() };
        (ElsaAccelerator::new(config, ElsaAttention::learn(params, &train, 1.0)), config)
    }

    /// A trace of `sessions` sessions of up to four turns whose turns
    /// interleave.
    fn interleaved_trace(sessions: usize) -> SessionTrace {
        let config = SessionArrivalConfig {
            lambda_per_s: 5_000.0,
            sessions,
            slo_ns: None,
            max_decode_turns: Some(3),
        };
        let trace = SessionTrace::generate(&session_workload(), &config, &mut SeededRng::new(33));
        let first = trace.requests[0].session;
        let mut rest = trace.requests.iter().skip_while(|t| t.session == first);
        let back = rest.any(|t| t.session == first);
        assert!(back, "the first session's turns interleave with the others'");
        trace
    }

    /// The per-turn precompute that `prepare_turns` replaced: every turn
    /// materializes the whole invocation and preprocesses its own keys.
    fn per_turn_reference(
        accel: &ElsaAccelerator,
        accel_config: &AcceleratorConfig,
        turns: &[SessionTurnRequest],
    ) -> Result<Vec<PreparedRequest>, RuntimeError> {
        let runs = turns
            .iter()
            .map(|request| {
                let (prefix_len, appended) = (request.prefix_len, request.appended);
                let pattern = request.entry.pattern;
                let (n_real, n_q) = (pattern.n_real, pattern.n_queries);
                match turn_query_rows(n_real, n_q, prefix_len, appended) {
                    None => return Err(FitError::MalformedTurn { prefix_len, appended, n_real }),
                    Some(rows) if rows.is_empty() => {
                        return Err(FitError::NoQueryRow { prefix_len, appended })
                    }
                    Some(_) => {}
                }
                pattern.validate().map_err(|reason| FitError::InvalidEntry { reason })?;
                let full = request.entry.materialize();
                let inputs = turn_inputs(&full, prefix_len, appended);
                let run = accel.try_run(&inputs)?;
                let hit_cycles = run.cycles.total() - run.cycles.preprocessing
                    + accel_config.preprocessing_cycles(appended);
                Ok(PreparedRequest {
                    service_s: run.cycles.seconds(accel_config),
                    hit_service_s: hit_cycles as f64 * accel_config.cycle_time_s(),
                    trips: guard_trips(&run),
                    inputs,
                })
            })
            .collect();
        collect_prepared(runs)
    }

    /// Checks every field `prepare_turns` returns for `turns`, at one and
    /// four workers, against [`per_turn_reference`].
    fn assert_matches_the_per_turn_reference(turns: &[SessionTurnRequest], n_max: usize) {
        let (accel, config) = session_accelerator(n_max);
        let want = per_turn_reference(&accel, &config, turns).expect("every turn fits");
        for workers in [1, 4] {
            let got = elsa_parallel::with_threads(workers, || prepare_turns(&accel, &config, turns))
                .expect("every turn fits");
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.inputs, w.inputs, "turn {i}, {workers} workers");
                assert_eq!(g.trips, w.trips, "turn {i}, {workers} workers");
                assert_eq!(g.service_s.to_bits(), w.service_s.to_bits(), "turn {i}");
                assert_eq!(g.hit_service_s.to_bits(), w.hit_service_s.to_bits(), "turn {i}");
            }
        }
    }

    #[test]
    fn grouped_precompute_matches_the_per_turn_reference() {
        assert_matches_the_per_turn_reference(&interleaved_trace(6).requests, 200);
    }

    /// Sessions whose contexts are not read to the end by square turns
    /// alone: fewer query rows than keys (long documents, retrieval), more
    /// (a whole-invocation turn runs the extra rows), a prefill that is the
    /// longest prefix of its session, a prefix shorter than the keys in
    /// hand, and a session that changes entry and back.
    #[test]
    fn grouped_precompute_matches_the_reference_on_uneven_sessions() {
        let mut rng = SeededRng::new(34);
        let [document, retrieval] =
            LongCtxKind::all().map(|kind| kind.record_trace(192, 1, &mut rng).entries[0]);
        let wide = TraceEntry {
            pattern: AttentionPatternConfig {
                n_queries: 48,
                ..AttentionPatternConfig::new(40, 64, 3, 2.0)
            },
            seed: 35,
        };
        let square =
            |seed| TraceEntry { pattern: AttentionPatternConfig::new(32, 64, 4, 2.0), seed };
        let (a, b) = (square(36), square(37));
        let shapes = [
            (0, document, 186, 186),
            (1, retrieval, 189, 189),
            (2, wide, 30, 30),
            (0, document, 187, 1),
            (3, wide, 37, 37),
            (4, wide, 40, 40),
            (1, retrieval, 190, 1),
            (5, document, 192, 192),
            (6, a, 20, 20),
            (3, wide, 38, 1),
            (6, a, 21, 1),
            (7, a, 12, 12),
            (0, document, 188, 1),
            (6, a, 15, 15),
            (7, b, 14, 14),
            (7, a, 13, 1),
        ];
        let turns: Vec<SessionTurnRequest> = shapes
            .iter()
            .enumerate()
            .map(|(id, &(session, entry, prefix_len, appended))| SessionTurnRequest {
                id,
                arrival_ns: id as u64,
                deadline_ns: None,
                session,
                prefix_len,
                appended,
                last_turn: false,
                entry,
            })
            .collect();
        assert_matches_the_per_turn_reference(&turns, 200);
    }

    #[test]
    fn grouped_precompute_reports_the_first_misfit_in_turn_order() {
        let n_max = 200;
        let trace = interleaved_trace(6).requests;
        // Two misfits: the last turn of the first session to arrive, and
        // an earlier turn of another session. Walking the sessions in order
        // meets the first one first; turn order puts the second one first.
        let first_session = trace[0].session;
        let late = trace.iter().rposition(|t| t.session == first_session).expect("a turn");
        let early = trace[..late]
            .iter()
            .position(|t| t.session != first_session)
            .expect("the sessions interleave");
        // A 192-token long document runs 16 query rows, at positions
        // 176..192, so a 100-token prefill of it has no query row.
        let document =
            LongCtxKind::LongDocument.record_trace(192, 1, &mut SeededRng::new(8)).entries[0];
        let (accel, config) = session_accelerator(n_max);
        // Too large for the hardware, no query row, the three malformed
        // shapes (a prefix past the invocation, nothing appended, and more
        // appended than the prefix holds) and an entry the generator
        // rejects. Before any materialization, none of the last five may
        // reach the generator.
        for misfit_kind in 0..6 {
            let mut turns = trace.clone();
            for misfit in [late, early] {
                let t = &mut turns[misfit];
                match misfit_kind {
                    0 => {
                        let session = t.session;
                        for t in turns.iter_mut().filter(|t| t.session == session) {
                            t.entry.pattern.n_real = n_max + 1;
                            t.entry.pattern.n_queries = n_max + 1;
                        }
                        turns[misfit].prefix_len = n_max + 1;
                    }
                    1 => (t.entry, t.prefix_len, t.appended) = (document, 100, 100),
                    2 => t.prefix_len = t.entry.pattern.n_real + 1,
                    3 => t.appended = 0,
                    4 => t.appended = t.prefix_len + 1,
                    _ => t.entry.pattern.num_relevant = t.entry.pattern.n_real + 10,
                }
            }
            let t = &turns[early];
            let (prefix_len, appended, n_real) = (t.prefix_len, t.appended, t.entry.pattern.n_real);
            let source = match misfit_kind {
                0 => FitError::RequestTooLarge { n: n_max + 1, n_max },
                1 => FitError::NoQueryRow { prefix_len: 100, appended: 100 },
                5 => FitError::InvalidEntry { reason: "num_relevant must be in 1..=n_real" },
                _ => FitError::MalformedTurn { prefix_len, appended, n_real },
            };
            let want = per_turn_reference(&accel, &config, &turns).expect_err("two turns misfit");
            assert_eq!(want, RuntimeError::Request { index: early, source }, "kind {misfit_kind}");
            for workers in [1, 4] {
                let got =
                    elsa_parallel::with_threads(workers, || prepare_turns(&accel, &config, &turns));
                assert_eq!(got.expect_err("two turns misfit"), want, "{workers} workers");
            }
        }
    }

    /// The engine degrades on `plan.corruption(..).is_some()` without
    /// poisoning the result, trusting that injected corruption of any kind
    /// would trip the guard. This is the ground truth behind that trust.
    #[test]
    fn every_corruption_kind_trips_the_guard() {
        let mut rng = SeededRng::new(1);
        let mut mk = |n: usize| Matrix::from_fn(n, 64, |_, _| rng.standard_normal() as f32);
        let train = AttentionInputs::new(mk(64), mk(64), mk(64));
        let inputs = AttentionInputs::new(mk(48), mk(48), mk(48));
        let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(2));
        let operator = ElsaAttention::learn(params, &[train], 1.0);
        let accel = ElsaAccelerator::new(AcceleratorConfig::paper(), operator);
        let clean = accel.run(&inputs);
        assert!(!guard_trips(&clean), "a clean result passes the guard");

        use CorruptionKind::{EmptyCandidates, NegInf, Nan, PosInf, SaturatedFixed};
        let plan = FaultPlan::seeded(21, FaultRates { corrupt: 1.0, ..FaultRates::none() });
        for kind in [Nan, PosInf, NegInf, SaturatedFixed, EmptyCandidates] {
            // Exhaustive on purpose: a new kind must be added to the list.
            match kind {
                Nan | PosInf | NegInf | SaturatedFixed | EmptyCandidates => {}
            }
            for (unit, request) in [(0, 0), (1, 7), (3, 23)] {
                let mut poisoned = clean.clone();
                corrupt_report(&mut poisoned, kind, &plan, unit, request);
                assert!(guard_trips(&poisoned), "{kind:?} at ({unit}, {request}) evades the guard");
            }
        }
    }
}
