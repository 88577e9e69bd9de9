//! The fleet: N serving nodes behind one deterministic front-end.
//!
//! [`Cluster::serve`] replays a session trace through a provisioned fleet
//! of [`NodeEngine`]s — each node an accelerator pool with its own forked
//! unit-fault stream, queue, batcher, and decode cache — under a single
//! serial event loop on the shared virtual clock. The loop interleaves
//! five deterministic event kinds, ordered by `(time, kind, sequence)`:
//!
//! 1. **node death** — the node's queue is evacuated (no records), its
//!    decode cache is lost, and every orphaned request re-enters routing
//!    with backoff;
//! 2. **health probes** — seeded liveness checks that quarantine flapping
//!    nodes and reinstate them when they come back;
//! 3. **autoscale ticks** — backlog-percentile watermark decisions over
//!    the active set;
//! 4. **arrivals** — routed by the configured [`RoutePolicy`], with
//!    deadline-aware hedging onto the policy's next-best node;
//! 5. **retries** — bounded re-routes (exponential backoff) after a
//!    refused dispatch or an evacuation.
//!
//! Determinism contract: for a fixed trace, routing policy, and seeds, the
//! resulting [`ClusterReport`] is bit-identical at any `ELSA_THREADS` (the
//! only parallel stage is the shared order-preserving precompute) and for
//! any node count the report is a pure function of the configuration. A
//! one-node fleet with zero fault plans and no hedging/autoscaling is
//! bit-identical to [`OnlineServer::serve`](elsa_serve::OnlineServer) on
//! the same trace — the fleet machinery is provably transparent when idle.

use std::collections::BTreeMap;

use elsa_core::ElsaAttention;
use elsa_fault::{FaultPlan, HealthTracker, NodeFaultPlan};
use elsa_linalg::ops;
use elsa_serve::clock::ns_to_secs;
use elsa_serve::{
    prepare_turns, session_admissions, unit_health, CacheConfig, NodeEngine, NodeParts,
    OnlineRecord, Outcome, PreparedRequest, QueuedRequest, RuntimeError, ServeConfig, SessionTrace,
    SessionTurnRequest,
};
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};

use crate::autoscale::{AutoscaleConfig, ScaleEvent};
use crate::report::{ClusterRecord, ClusterReport, NodeReport, RouterStats};
use crate::router::{HedgeConfig, RoutePolicy, Router};

/// Seed of the router's ring and sampling streams.
const ROUTER_SEED: u64 = 0xC105_7E12;

/// Virtual ring positions per node (consistent hashing).
const VNODES: usize = 16;

/// Full configuration of a serving fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Provisioned nodes (the autoscaler can only activate what exists).
    pub nodes: usize,
    /// Nodes active at t = 0 (`None` = all provisioned nodes).
    pub initial_active: Option<usize>,
    /// Per-node accelerator pool configuration.
    pub accel: AcceleratorConfig,
    /// Per-node serving configuration (queue, batcher, SLO policy).
    pub serve: ServeConfig,
    /// Per-node decode-cache budget (`None` = no session caching).
    pub cache: Option<CacheConfig>,
    /// Front-end routing policy.
    pub policy: RoutePolicy,
    /// Unit-level (accelerator) fault plan; forked into an independent
    /// stream per node, so node 3's stragglers are uncorrelated with node
    /// 7's at the same seed.
    pub unit_faults: FaultPlan,
    /// Node-level fault plan: whole-node death, slow nodes, flapping.
    pub node_faults: NodeFaultPlan,
    /// Consecutive refused dispatches before the router quarantines a node.
    pub node_quarantine_after: u32,
    /// Re-routes per request before the router gives up.
    pub max_reroutes: u32,
    /// Base retry backoff; attempt `k` waits `backoff × 2^(k−1)`.
    pub retry_backoff_ns: u64,
    /// Health-probe period (`None` = no probes; flapped nodes then return
    /// only via the mass-reinstate path when the fleet runs empty).
    pub probe_period_ns: Option<u64>,
    /// Deadline-aware request hedging (`None` = off).
    pub hedge: Option<HedgeConfig>,
    /// Elastic autoscaling (`None` = the active set is fixed).
    pub autoscale: Option<AutoscaleConfig>,
}

impl ClusterConfig {
    /// A healthy fixed-size fleet: consistent-hash routing, no faults, no
    /// caching, no hedging, no autoscaling. The configuration under which
    /// a one-node cluster must be bit-identical to the single-node server.
    #[must_use]
    pub fn baseline(nodes: usize, accel: AcceleratorConfig, serve: ServeConfig) -> Self {
        Self {
            nodes,
            initial_active: None,
            accel,
            serve,
            cache: None,
            policy: RoutePolicy::ConsistentHash,
            unit_faults: FaultPlan::none(),
            node_faults: NodeFaultPlan::none(),
            node_quarantine_after: 2,
            max_reroutes: 4,
            retry_backoff_ns: 500_000,
            probe_period_ns: None,
            hedge: None,
            autoscale: None,
        }
    }
}

/// A provisioned fleet: one operator deployed on every node.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    /// Built once at construction (which is what validates the operator
    /// against the hardware) and shared by every node of every replay.
    accel: ElsaAccelerator,
}

impl Cluster {
    /// Builds the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the operator does not fit the hardware or a configuration
    /// invariant is violated; see [`Cluster::try_new`].
    #[must_use]
    pub fn new(config: ClusterConfig, operator: ElsaAttention) -> Self {
        match Self::try_new(config, operator) {
            Ok(cluster) => cluster,
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_new is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the fleet, reporting a malformed serving configuration or an
    /// operator/hardware misfit as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBatchPolicy`] when the per-node batch
    /// policy is malformed, and [`RuntimeError::Misfit`] when the hardware
    /// configuration is invalid or the operator's dimensions do not match
    /// it.
    ///
    /// # Panics
    ///
    /// Panics on a zero-node fleet, a malformed autoscale configuration, or
    /// `initial_active` exceeding the provisioned node count — construction
    /// bugs, not inputs.
    pub fn try_new(config: ClusterConfig, operator: ElsaAttention) -> Result<Self, RuntimeError> {
        assert!(config.nodes > 0, "a fleet needs at least one node");
        if let Some(initial) = config.initial_active {
            assert!(
                initial >= 1 && initial <= config.nodes,
                "initial_active {initial} outside 1..={}",
                config.nodes
            );
        }
        config.serve.batch.try_validate()?;
        if let Some(a) = &config.autoscale {
            a.validate();
        }
        let accel = ElsaAccelerator::try_new(config.accel, operator)?;
        Ok(Self { config, accel })
    }

    /// The fleet configuration.
    #[must_use]
    pub const fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Replays a session trace through the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Request`] when a turn is malformed, does not
    /// fit the hardware, holds no query row at its appended positions or
    /// carries an entry that fails
    /// [`AttentionPatternConfig::validate`](elsa_workloads::AttentionPatternConfig::validate)
    /// (rejected before any virtual time passes; see
    /// [`prepare_turns`]).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival or its ids are not the
    /// arrival-order indices (guaranteed by every [`SessionTrace`]
    /// constructor).
    pub fn serve(&self, trace: &SessionTrace) -> Result<ClusterReport, RuntimeError> {
        let reqs = &trace.requests;
        assert!(
            reqs.iter().zip(reqs.iter().skip(1)).all(|(a, b)| a.arrival_ns <= b.arrival_ns),
            "session trace must be sorted by arrival time"
        );
        assert!(
            trace.requests.iter().enumerate().all(|(i, r)| r.id == i),
            "session trace ids must be arrival-order indices"
        );
        // The one parallel stage: shared, order-preserving, node-agnostic.
        let prepared = prepare_turns(&self.accel, &self.config.accel, &trace.requests)?;
        let admissions = session_admissions(&self.config.serve.batch, &trace.requests);

        let n = self.config.nodes;
        let mut node_health = HealthTracker::new(n, self.config.node_quarantine_after);
        let mut engines: Vec<NodeEngine<'_>> = Vec::with_capacity(n);
        let mut slow = Vec::with_capacity(n);
        let mut died_at: Vec<Option<u64>> = vec![None; n];
        for node in 0..n {
            // Satellite fix carried into the fleet: one seeded plan, one
            // *independent* stream per node — node 3's transients never
            // correlate with node 7's.
            let plan = self.config.unit_faults.fork(node as u64);
            let health = unit_health(
                &plan,
                self.config.accel.num_accelerators,
                self.config.serve.quarantine_after,
            );
            if health.num_available() == 0 {
                // Every accelerator dead at provisioning: the node is dead
                // on arrival (a fleet tolerates it; a lone server errors).
                node_health.mark_dead(node);
                died_at[node] = Some(0);
            }
            let scale = self.config.node_faults.slow_factor(node);
            slow.push(scale);
            let mut engine = NodeEngine::new(
                &self.accel,
                &self.config.accel,
                plan,
                &self.config.serve,
                &prepared,
                health,
            )
            .with_service_scale(scale);
            if let Some(cache) = self.config.cache {
                engine = engine.with_sessions(cache, &trace.requests);
            }
            engines.push(engine);
        }

        let initial_active = self.config.initial_active.unwrap_or(n).min(n);
        let mut active = vec![false; n];
        for flag in active.iter_mut().take(initial_active) {
            *flag = true;
        }

        let fleet = Fleet {
            cfg: &self.config,
            router: Router::new(self.config.policy, ROUTER_SEED, n, VNODES),
            engines,
            prepared: &prepared,
            turns: &trace.requests,
            admissions,
            node_health,
            active,
            died_at,
            slow,
            assignments: vec![Vec::new(); trace.requests.len()],
            first_node: vec![None; trace.requests.len()],
            reroutes: vec![0u32; trace.requests.len()],
            hedged: vec![false; trace.requests.len()],
            router_slots: vec![None; trace.requests.len()],
            stats: RouterStats::default(),
            scale_events: Vec::new(),
            events: BTreeMap::new(),
            seq: 0,
        };
        Ok(fleet.run())
    }
}

/// Event kinds, in same-instant processing order: deaths strike before the
/// front-end acts, probes and scaling see the post-death fleet, arrivals
/// route before same-instant retries.
const PRIO_DEATH: u8 = 0;
const PRIO_PROBE: u8 = 1;
const PRIO_TICK: u8 = 2;
const PRIO_ARRIVAL: u8 = 3;
const PRIO_RETRY: u8 = 4;

/// One fleet-loop event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Node `.0` dies now.
    Death(usize),
    /// Periodic health probe over the fleet.
    Probe,
    /// Autoscaler decision point.
    Tick,
    /// Request `.0` arrives.
    Arrival(usize),
    /// Request `.0` re-enters routing, avoiding node `.1` if set.
    Retry(usize, Option<usize>),
}

/// The running fleet: engines plus every piece of front-end state.
struct Fleet<'a> {
    cfg: &'a ClusterConfig,
    router: Router,
    engines: Vec<NodeEngine<'a>>,
    prepared: &'a [PreparedRequest],
    turns: &'a [SessionTurnRequest],
    admissions: Vec<QueuedRequest>,
    /// Node-level health as the router sees it (quarantine on refused
    /// dispatches, permanent death).
    node_health: HealthTracker,
    active: Vec<bool>,
    died_at: Vec<Option<u64>>,
    slow: Vec<f64>,
    /// Nodes currently holding a live or finished copy of each request.
    assignments: Vec<Vec<usize>>,
    /// First node each request was admitted to (hedge-win attribution).
    first_node: Vec<Option<usize>>,
    reroutes: Vec<u32>,
    hedged: Vec<bool>,
    /// Outcomes the router decided itself (never reached a node).
    router_slots: Vec<Option<OnlineRecord>>,
    stats: RouterStats,
    scale_events: Vec<ScaleEvent>,
    /// The event queue, ordered by `(t, priority, sequence)`. A `BTreeMap`
    /// keyed on that triple is a deterministic priority queue.
    events: BTreeMap<(u64, u8, u64), Event>,
    seq: u64,
}

impl std::fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("nodes", &self.engines.len())
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl Fleet<'_> {
    fn push(&mut self, t: u64, prio: u8, event: Event) {
        self.events.insert((t, prio, self.seq), event);
        self.seq += 1;
    }

    /// Seeds the queue and drives it dry.
    fn run(mut self) -> ClusterReport {
        let horizon = self.admissions.last().map_or(0, |r| r.arrival_ns);
        for id in 0..self.admissions.len() {
            let t = self.admissions[id].arrival_ns;
            self.push(t, PRIO_ARRIVAL, Event::Arrival(id));
        }
        for node in 0..self.engines.len() {
            if self.died_at[node].is_some() {
                continue; // dead on arrival; no event needed
            }
            if let Some(t) = self.cfg.node_faults.death_time(node) {
                self.push(t, PRIO_DEATH, Event::Death(node));
            }
        }
        if let Some(period) = self.cfg.probe_period_ns {
            assert!(period > 0, "probe period must be positive");
            let mut t = period;
            while t <= horizon.saturating_add(period) {
                self.push(t, PRIO_PROBE, Event::Probe);
                t = t.saturating_add(period);
            }
        }
        if let Some(scale) = self.cfg.autoscale {
            let mut t = scale.tick_ns;
            while t <= horizon.saturating_add(scale.tick_ns) {
                self.push(t, PRIO_TICK, Event::Tick);
                t = t.saturating_add(scale.tick_ns);
            }
        }

        while let Some((&key, _)) = self.events.iter().next() {
            let Some(event) = self.events.remove(&key) else { break };
            let t = key.0;
            match event {
                Event::Death(node) => self.handle_death(node, t),
                Event::Probe => {
                    self.flush_all(t);
                    self.handle_probe(t);
                }
                Event::Tick => {
                    self.flush_all(t);
                    self.handle_tick(t);
                }
                Event::Arrival(id) => {
                    self.flush_all(t);
                    self.try_admit(id, t, None);
                }
                Event::Retry(id, avoid) => {
                    self.flush_all(t);
                    self.handle_retry(id, t, avoid);
                }
            }
        }
        self.finish_run()
    }

    /// Flushes every live engine's expired batches up to `t` and aligns
    /// its clock — the same `flush; advance; act` cadence as the
    /// single-node event loop, which is what keeps a one-node fleet
    /// bit-identical to [`elsa_serve::OnlineServer`].
    fn flush_all(&mut self, t: u64) {
        for node in 0..self.engines.len() {
            if self.died_at[node].is_none() {
                self.engines[node].flush_expired(t);
                self.engines[node].advance_to(t);
            }
        }
    }

    /// Node death: batches due strictly before `t` still dispatch, then
    /// the queue is evacuated (no records — the requests are not done,
    /// they are orphaned), the decode cache is lost, and every orphan
    /// whose only copy lived here re-enters routing with backoff.
    fn handle_death(&mut self, node: usize, t: u64) {
        if self.died_at[node].is_some() {
            return;
        }
        self.engines[node].flush_expired(t.saturating_sub(1));
        let orphans = self.engines[node].evacuate();
        self.engines[node].clear_session_cache();
        self.died_at[node] = Some(t);
        self.node_health.mark_dead(node);
        for orphan in orphans {
            self.assignments[orphan.id].retain(|&held| held != node);
            if self.assignments[orphan.id].is_empty() && self.router_slots[orphan.id].is_none() {
                self.schedule_retry(orphan.id, t, Some(node));
            }
            // A surviving hedge copy elsewhere keeps the request alive; the
            // orphaned copy is simply dropped.
        }
    }

    /// Seeded liveness sweep: probe every non-dead node against the fault
    /// plan's ground truth, reinstating quarantined nodes that answer and
    /// charging faults to nodes that do not.
    fn handle_probe(&mut self, t: u64) {
        for node in 0..self.engines.len() {
            if self.died_at[node].is_some() {
                continue;
            }
            self.stats.probes += 1;
            if self.cfg.node_faults.is_up(node, t) {
                if self.node_health.is_available(node) {
                    self.node_health.record_success(node);
                } else {
                    self.node_health.reinstate(node);
                    self.stats.reinstatements += 1;
                }
            } else {
                let _ = self.node_health.record_fault(node);
            }
        }
    }

    /// Watermark autoscaling over the live active set's backlog percentile.
    fn handle_tick(&mut self, t: u64) {
        let Some(scale) = self.cfg.autoscale else { return };
        let n = self.engines.len();
        let backlogs: Vec<f64> = (0..n)
            .filter(|&node| self.active[node] && self.died_at[node].is_none())
            .map(|node| self.engines[node].backlog_s())
            .collect();
        let active_count = backlogs.len();
        let p = if backlogs.is_empty() {
            f64::INFINITY
        } else {
            ops::percentile(&backlogs, scale.percentile)
        };
        let max_active = scale.max_active.min(n);
        if p > scale.high_backlog_s && active_count < max_active {
            let mut added = 0;
            for node in 0..n {
                if added == scale.step || active_count + added >= max_active {
                    break;
                }
                if !self.active[node] && self.died_at[node].is_none() {
                    self.active[node] = true;
                    added += 1;
                }
            }
            if added > 0 {
                self.scale_events.push(ScaleEvent {
                    t_ns: t,
                    from_active: active_count,
                    to_active: active_count + added,
                    backlog_s: p,
                });
            }
        } else if p < scale.low_backlog_s && active_count > scale.min_active {
            let mut removed = 0;
            for node in (0..n).rev() {
                if removed == scale.step || active_count - removed <= scale.min_active {
                    break;
                }
                if self.active[node] && self.died_at[node].is_none() {
                    // Graceful drain: no new routes; the queue keeps
                    // flushing until empty.
                    self.active[node] = false;
                    removed += 1;
                }
            }
            if removed > 0 {
                self.scale_events.push(ScaleEvent {
                    t_ns: t,
                    from_active: active_count,
                    to_active: active_count - removed,
                    backlog_s: p,
                });
            }
        }
    }

    /// Nodes the router may target right now.
    fn eligible(&self, avoid: Option<usize>) -> Vec<usize> {
        (0..self.engines.len())
            .filter(|&node| {
                self.active[node]
                    && self.node_health.is_available(node)
                    && Some(node) != avoid
            })
            .collect()
    }

    /// Bounded retry with exponential backoff; exhausting the budget is a
    /// router-decided failure.
    fn schedule_retry(&mut self, id: usize, t: u64, avoid: Option<usize>) {
        self.reroutes[id] += 1;
        self.stats.reroutes += 1;
        let attempt = self.reroutes[id];
        if attempt > self.cfg.max_reroutes {
            self.finish_router(id, t, Outcome::Failed);
            return;
        }
        let backoff =
            self.cfg.retry_backoff_ns.saturating_mul(1u64 << (attempt.min(20) - 1));
        self.push(t.saturating_add(backoff), PRIO_RETRY, Event::Retry(id, avoid));
    }

    /// A retry wakes up: the request may have been resolved meanwhile (a
    /// hedge copy won) or its deadline may have lapsed during backoff.
    fn handle_retry(&mut self, id: usize, t: u64, avoid: Option<usize>) {
        if self.router_slots[id].is_some() || !self.assignments[id].is_empty() {
            return;
        }
        if let Some(deadline) = self.admissions[id].deadline_ns {
            if deadline < t {
                self.finish_router(id, t, Outcome::TimedOut);
                return;
            }
        }
        self.try_admit(id, t, avoid);
    }

    /// Routes one request: pick a target, refuse-and-retry if it is down,
    /// admit otherwise, and hedge when the deadline budget looks tight.
    fn try_admit(&mut self, id: usize, t: u64, avoid: Option<usize>) {
        let loads: Vec<f64> = (0..self.engines.len())
            .map(|node| {
                if self.died_at[node].is_some() {
                    f64::INFINITY
                } else {
                    self.engines[node].backlog_s()
                }
            })
            .collect();
        let mut eligible = self.eligible(avoid);
        if eligible.is_empty() {
            eligible = self.eligible(None);
        }
        if eligible.is_empty() {
            // Quarantine is probation, not death (same half-open semantics
            // as the unit-level dispatcher): with nothing left to route to,
            // reinstate the whole quarantined set and try once more.
            for node in 0..self.engines.len() {
                self.node_health.reinstate(node);
            }
            eligible = self.eligible(None);
        }
        let session = self.turns[id].session;
        let Some((primary, alternate)) =
            self.router.pick(session, id, self.reroutes[id], &eligible, &loads)
        else {
            // Every node is dead: the fleet itself has failed.
            self.finish_router(id, t, Outcome::Failed);
            return;
        };
        if !self.cfg.node_faults.is_up(primary, t) {
            // Refused dispatch: the node was down at the instant the router
            // reached for it. Charge its health and back off elsewhere.
            self.stats.refused += 1;
            let _ = self.node_health.record_fault(primary);
            self.schedule_retry(id, t, Some(primary));
            return;
        }
        self.node_health.record_success(primary);
        self.admit_to(primary, id);
        if let (Some(hedge), Some(deadline)) = (self.cfg.hedge, self.admissions[id].deadline_ns) {
            if !self.hedged[id] {
                if let Some(alternate) = alternate {
                    let estimate_s =
                        loads[primary] + self.prepared[id].service_s * self.slow[primary];
                    let remaining_s = ns_to_secs(deadline.saturating_sub(t));
                    if remaining_s > 0.0
                        && estimate_s > hedge.budget_fraction * remaining_s
                        && self.cfg.node_faults.is_up(alternate, t)
                    {
                        self.admit_to(alternate, id);
                        self.hedged[id] = true;
                        self.stats.hedges += 1;
                    }
                }
            }
        }
    }

    fn admit_to(&mut self, node: usize, id: usize) {
        self.stats.admissions += 1;
        self.assignments[id].push(node);
        if self.first_node[id].is_none() {
            self.first_node[id] = Some(node);
        }
        self.engines[node].admit(self.admissions[id]);
    }

    /// Writes the single router-decided record a request is allowed.
    fn finish_router(&mut self, id: usize, t: u64, outcome: Outcome) {
        let request = self.admissions[id];
        let slot = &mut self.router_slots[id];
        assert!(slot.is_none(), "request {id} router-finished twice");
        self.stats.router_finished += 1;
        *slot = Some(OnlineRecord {
            id,
            n_real: request.n_real,
            bucket: request.bucket,
            arrival_ns: request.arrival_ns,
            deadline_ns: request.deadline_ns,
            decided_ns: t,
            queue_delay_s: ns_to_secs(t) - ns_to_secs(request.arrival_ns),
            service_s: 0.0,
            completion_s: ns_to_secs(t),
            retries: self.reroutes[id],
            outcome,
        });
    }

    /// Drains every surviving queue, merges per-node records (hedge pairs
    /// collapse to their winner), and audits exact accounting: every
    /// request finished exactly once, nowhere twice, nowhere zero.
    ///
    /// # Panics
    ///
    /// Panics if the accounting audit fails — a request no node and no
    /// router finished, or one finished by both. Either is a fleet bug the
    /// [`ClusterReport`] must never paper over.
    fn finish_run(mut self) -> ClusterReport {
        for node in 0..self.engines.len() {
            if self.died_at[node].is_none() {
                self.engines[node].flush_expired(u64::MAX);
            }
        }
        let parts: Vec<NodeParts> = self.engines.into_iter().map(NodeEngine::into_parts).collect();
        let mut records = Vec::with_capacity(self.admissions.len());
        let mut won = vec![0usize; parts.len()];
        for id in 0..self.admissions.len() {
            let candidates: Vec<(usize, OnlineRecord)> = (0..parts.len())
                .filter_map(|node| parts[node].slots[id].map(|record| (node, record)))
                .collect();
            let meta = (self.reroutes[id], self.hedged[id]);
            match (candidates.is_empty(), self.router_slots[id]) {
                (true, Some(record)) => {
                    records.push(ClusterRecord {
                        record,
                        node: None,
                        reroutes: meta.0,
                        hedged: meta.1,
                    });
                }
                (false, None) => {
                    let (node, record) = merge_copies(&candidates);
                    won[node] += 1;
                    if self.hedged[id] {
                        if self.first_node[id] != Some(node) {
                            self.stats.hedge_wins += 1;
                        }
                        for &(loser, loss) in &candidates {
                            if loser != node {
                                self.stats.hedge_wasted_s += loss.service_s;
                            }
                        }
                    }
                    records.push(ClusterRecord {
                        record,
                        node: Some(node),
                        reroutes: meta.0,
                        hedged: meta.1,
                    });
                }
                (true, None) => {
                    // elsa-lint: allow(panic-policy) reason="exact-accounting invariant: a request no node and no router finished is a bug the report must not paper over"
                    panic!("request {id} left unaccounted");
                }
                (false, Some(_)) => {
                    // elsa-lint: allow(panic-policy) reason="exact-accounting invariant: a node record and a router record for the same request is a double-finish bug"
                    panic!("request {id} finished by both a node and the router");
                }
            }
        }
        let nodes: Vec<NodeReport> = parts
            .into_iter()
            .enumerate()
            .map(|(node, part)| NodeReport {
                node,
                decided: part.slots.iter().filter(|s| s.is_some()).count(),
                won: won[node],
                bucket_stats: part.bucket_stats,
                cache: part.cache,
                unit_health: part.health,
                died_at_ns: self.died_at[node],
                service_scale: self.slow[node],
                active_at_end: self.active[node],
            })
            .collect();
        ClusterReport {
            records,
            nodes,
            router: self.stats,
            scale_events: self.scale_events,
            node_health: self.node_health.snapshot(),
        }
    }
}

/// The winner among a request's copies: a served copy beats any dropped
/// one, earlier completion beats later, ties to the lower node index.
///
/// # Panics
///
/// Panics on an empty candidate set (the caller only dispatches requests
/// that at least one node finished).
fn merge_copies(candidates: &[(usize, OnlineRecord)]) -> (usize, OnlineRecord) {
    let mut best = candidates[0];
    for &(node, record) in &candidates[1..] {
        let challenger = (outcome_rank(record.outcome), record.completion_s, node);
        let incumbent = (outcome_rank(best.1.outcome), best.1.completion_s, best.0);
        let ordering = challenger
            .0
            .cmp(&incumbent.0)
            .then(challenger.1.total_cmp(&incumbent.1))
            .then(challenger.2.cmp(&incumbent.2));
        if ordering.is_lt() {
            best = (node, record);
        }
    }
    best
}

const fn outcome_rank(outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Served { .. } => 0,
        Outcome::TimedOut | Outcome::ShedQueueFull | Outcome::ShedUnmeetable => 1,
        Outcome::Failed => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_core::attention::ElsaParams;
    use elsa_linalg::SeededRng;
    use elsa_serve::{BatchPolicy, SessionArrivalConfig};
    use elsa_sim::FitError;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    fn operator(seed: u64) -> ElsaAttention {
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let train = workload.generate_batch(1, &mut SeededRng::new(seed));
        let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(seed + 1));
        ElsaAttention::learn(params, &train, 1.0)
    }

    fn accel() -> AcceleratorConfig {
        AcceleratorConfig { n_max: 200, num_accelerators: 4, ..AcceleratorConfig::paper() }
    }

    #[test]
    fn try_new_rejects_a_malformed_batch_policy_without_panicking() {
        let serve = ServeConfig {
            batch: BatchPolicy { max_batch: 0, ..BatchPolicy::single_bucket(8, 1_000) },
            ..ServeConfig::default()
        };
        let err = Cluster::try_new(ClusterConfig::baseline(2, accel(), serve), operator(1))
            .expect_err("max_batch = 0");
        assert_eq!(err, RuntimeError::InvalidBatchPolicy { reason: "max_batch must be positive" });
    }

    #[test]
    fn try_new_rejects_a_misfit_operator_without_panicking() {
        let config = ClusterConfig::baseline(
            2,
            AcceleratorConfig { d: 32, ..accel() },
            ServeConfig::default(),
        );
        let err = Cluster::try_new(config, operator(3)).expect_err("operator d = 64 vs 32");
        assert!(err.to_string().contains("does not fit hardware d"));
    }

    #[test]
    fn serve_rejects_an_entry_the_generator_cannot_build_without_panicking() {
        // `SessionTrace`'s fields are public, so a hand-built turn can carry
        // an entry that no parsed trace holds: more relevant keys than keys.
        let workload = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let arrivals = SessionArrivalConfig {
            lambda_per_s: 5_000.0,
            sessions: 4,
            slo_ns: None,
            max_decode_turns: Some(2),
        };
        let mut trace = SessionTrace::generate(&workload, &arrivals, &mut SeededRng::new(5));
        let index = trace.requests.len() / 2;
        let pattern = &mut trace.requests[index].entry.pattern;
        pattern.num_relevant = pattern.n_real + 10;
        let config = ClusterConfig::baseline(2, accel(), ServeConfig::default());
        let err = Cluster::new(config, operator(7)).serve(&trace).expect_err("invalid entry");
        let source = FitError::InvalidEntry { reason: "num_relevant must be in 1..=n_real" };
        assert_eq!(err, RuntimeError::Request { index, source });
    }
}
