//! Fleet-level accounting.
//!
//! A cluster run must account for every offered request *exactly once* —
//! that is the invariant the chaos battery audits. The report keeps three
//! views of the same run: the merged per-request [`ClusterRecord`]s (the
//! winner of each hedged pair, plus router-decided failures), the per-node
//! [`NodeReport`]s (dispatch accounting, decode-cache behavior, unit
//! health, death time), and the [`RouterStats`] of the front-end itself.
//! [`ClusterReport::to_serve_report`] projects the merged records, summed
//! bucket accounting and summed cache statistics onto the single-node
//! [`ServeReport`], which is how the battery proves a one-node zero-fault
//! cluster bit-identical to
//! [`OnlineServer::serve`](elsa_serve::OnlineServer::serve).

use elsa_fault::HealthSnapshot;
use elsa_serve::{BucketStats, CacheStats, OnlineRecord, Outcome, ServeReport};

use crate::autoscale::ScaleEvent;

/// One request's fleet-level outcome: the winning record plus the routing
/// metadata the single-node record cannot express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRecord {
    /// The winning per-request record (bit-identical to a single-node
    /// record when no fleet machinery touched the request).
    pub record: OnlineRecord,
    /// Node that decided the outcome; `None` when the router itself gave
    /// up (no eligible node, retry budget exhausted, or deadline expiry
    /// during re-routing).
    pub node: Option<usize>,
    /// Times the request was re-routed (refused dispatches + evacuations).
    pub reroutes: u32,
    /// Whether a hedge copy was admitted for this request.
    pub hedged: bool,
}

/// Front-end accounting: what the router did, fleet-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterStats {
    /// Successful admissions to a node (including hedge copies).
    pub admissions: u64,
    /// Dispatches refused because the target was down at that instant.
    pub refused: u64,
    /// Re-route attempts scheduled (with backoff) after a refusal or an
    /// evacuation.
    pub reroutes: u64,
    /// Requests the router itself finished as failed/timed-out (never
    /// reached a node, or exhausted the retry budget).
    pub router_finished: u64,
    /// Hedge copies admitted.
    pub hedges: u64,
    /// Hedged requests whose *secondary* copy won.
    pub hedge_wins: u64,
    /// Service seconds burned by losing hedge copies.
    pub hedge_wasted_s: f64,
    /// Health probes executed (node-checks, not ticks).
    pub probes: u64,
    /// Quarantined nodes reinstated by a probe.
    pub reinstatements: u64,
}

/// One node's end-of-run accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node index in the provisioned fleet.
    pub node: usize,
    /// Requests whose outcome this node decided (before hedge merging).
    pub decided: usize,
    /// Requests whose merged cluster record this node won.
    pub won: usize,
    /// Dispatch accounting per length bucket.
    pub bucket_stats: Vec<BucketStats>,
    /// Decode-cache behavior, when session caching was configured.
    pub cache: Option<CacheStats>,
    /// Unit-level health at the end of the run.
    pub unit_health: HealthSnapshot,
    /// When the node died, if it did.
    pub died_at_ns: Option<u64>,
    /// The straggler factor the fault plan assigned (`1.0` = healthy).
    pub service_scale: f64,
    /// Whether the autoscaler left the node active at the end of the run.
    pub active_at_end: bool,
}

/// Everything one cluster run leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Merged per-request outcomes, indexed by request id.
    pub records: Vec<ClusterRecord>,
    /// Per-node accounting, indexed by node.
    pub nodes: Vec<NodeReport>,
    /// Front-end accounting.
    pub router: RouterStats,
    /// Autoscaler decisions that changed the active set, in time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Node-level health at the end of the run (quarantine/death as the
    /// *router* saw it).
    pub node_health: HealthSnapshot,
}

impl ClusterReport {
    /// Requests offered to the fleet.
    #[must_use]
    pub fn offered_count(&self) -> usize {
        self.records.len()
    }

    /// Requests served (possibly degraded).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.outcome_count(|o| matches!(o, Outcome::Served { .. }))
    }

    /// Requests shed (queue-full or provably unmeetable).
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.outcome_count(|o| matches!(o, Outcome::ShedQueueFull | Outcome::ShedUnmeetable))
    }

    /// Requests whose deadline expired before dispatch.
    #[must_use]
    pub fn timed_out_count(&self) -> usize {
        self.outcome_count(|o| matches!(o, Outcome::TimedOut))
    }

    /// Requests the fleet gave up on.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.outcome_count(|o| matches!(o, Outcome::Failed))
    }

    fn outcome_count(&self, pred: impl Fn(Outcome) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r.record.outcome)).count()
    }

    /// Fraction of deadline-carrying requests that met their deadline
    /// (`1.0` when none carried one).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        self.to_serve_report().slo_attainment()
    }

    /// Queue-delay percentile over served requests, fleet-wide.
    #[must_use]
    pub fn queue_delay_percentile_s(&self, q: f64) -> f64 {
        self.to_serve_report().queue_delay_percentile_s(q)
    }

    /// Served requests divided by the last served completion instant.
    #[must_use]
    pub fn throughput_per_s(&self) -> f64 {
        self.to_serve_report().throughput_per_s()
    }

    /// Aggregated decode-cache statistics across nodes (`None` when no
    /// node carried a session cache). Counters are summed; `peak_bytes` is
    /// the summed per-node peak — an upper bound on simultaneous residency.
    #[must_use]
    pub fn cache(&self) -> Option<CacheStats> {
        let per_node: Vec<&CacheStats> =
            self.nodes.iter().filter_map(|n| n.cache.as_ref()).collect();
        if per_node.is_empty() {
            return None;
        }
        Some(per_node.iter().fold(CacheStats::default(), |acc, c| CacheStats {
            hits: acc.hits.saturating_add(c.hits),
            cold: acc.cold.saturating_add(c.cold),
            stale: acc.stale.saturating_add(c.stale),
            rebuilt_tokens: acc.rebuilt_tokens.saturating_add(c.rebuilt_tokens),
            evictions: acc.evictions.saturating_add(c.evictions),
            peak_bytes: acc.peak_bytes.saturating_add(c.peak_bytes),
        }))
    }

    /// Projects the merged records onto the single-node [`ServeReport`].
    /// Per-bucket stats are element-wise sums across nodes (every node runs
    /// the same batch policy, so bounds align), and the cache statistics are
    /// [`cache`](Self::cache). On a one-node zero-fault fleet this is
    /// bit-identical to the node's own report.
    #[must_use]
    pub fn to_serve_report(&self) -> ServeReport {
        let records: Vec<OnlineRecord> = self.records.iter().map(|r| r.record).collect();
        let mut bucket_stats: Vec<BucketStats> = Vec::new();
        for node in &self.nodes {
            if bucket_stats.is_empty() {
                bucket_stats = node.bucket_stats.clone();
                continue;
            }
            for (acc, s) in bucket_stats.iter_mut().zip(&node.bucket_stats) {
                debug_assert_eq!(acc.bound, s.bound, "bucket bounds diverged across nodes");
                acc.requests = acc.requests.saturating_add(s.requests);
                acc.batches = acc.batches.saturating_add(s.batches);
                acc.padded_rows = acc.padded_rows.saturating_add(s.padded_rows);
                acc.real_rows = acc.real_rows.saturating_add(s.real_rows);
            }
        }
        ServeReport { records, bucket_stats, cache: self.cache() }
    }

    /// SLO attainment per arrival window: `(window_start_ns, attainment)`
    /// for each `window_ns`-wide slice of the arrival timeline that saw at
    /// least one deadline-carrying request. This is the recovery curve the
    /// node-death experiment plots — attainment dips when nodes die and
    /// climbs back as failover and autoscaling absorb the loss.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn attainment_timeline(&self, window_ns: u64) -> Vec<(u64, f64)> {
        assert!(window_ns > 0, "window must be positive");
        let mut windows: Vec<(u64, usize, usize)> = Vec::new();
        for r in &self.records {
            if r.record.deadline_ns.is_none() {
                continue;
            }
            let start = r.record.arrival_ns - r.record.arrival_ns % window_ns;
            let met = usize::from(r.record.slo_met());
            match windows.iter_mut().find(|w| w.0 == start) {
                Some(w) => {
                    w.1 = w.1.saturating_add(met);
                    w.2 = w.2.saturating_add(1);
                }
                None => windows.push((start, met, 1)),
            }
        }
        windows.sort_unstable_by_key(|w| w.0);
        windows.into_iter().map(|(start, met, total)| (start, met as f64 / total as f64)).collect()
    }
}
