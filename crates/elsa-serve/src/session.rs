//! Multi-turn session traces and the decode KV/hash cache model.
//!
//! A [`SessionTrace`] is the one trace type of the serving stack: every
//! arrival is the *next turn* of a live session (a prompt prefill or a
//! single-token decode step). [`SessionTrace::generate`] interleaves the turn
//! schedules of [`elsa_workloads::sessions`] specs under Poisson arrivals
//! with seeded random session picks; three independent PRNG streams (shapes,
//! times, picks) are forked from one seed, so a trace replays bit-for-bit.
//! A plain request is the single-turn case: [`SessionTrace::poisson`] and
//! [`SessionTrace::simultaneous`] ([`arrival`](crate::arrival)) emit each
//! request as its own session whose only turn is the whole invocation.
//!
//! The cache model: a [`SessionRegistry`] accounts the resident bytes of
//! every live session's incremental state (KV rows + SRP signatures +
//! norms, [`per_token_bytes`](SessionRegistry::per_token_bytes) per token)
//! against an optional capacity bound. A turn whose session still holds
//! exactly the expected prefix is a **hit** and pays only the appended
//! tokens' preprocessing; a first turn is **cold**; a turn whose cached
//! state was evicted (or diverged because an earlier turn was dropped) is
//! **stale** and pays the full from-scratch rebuild. When a commit pushes
//! the registry over capacity, the configured [`EvictionPolicy`] picks
//! victims deterministically.

use std::collections::BTreeMap;

use elsa_workloads::sessions::{record_sessions, SessionSpec, SessionTurn};
use elsa_workloads::trace::TraceEntry;
use elsa_workloads::Workload;

use crate::clock::secs_to_ns;
use elsa_linalg::SeededRng;

/// Configuration of one generated session trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionArrivalConfig {
    /// Mean turn arrival rate in turns per second (> 0), across all
    /// sessions.
    pub lambda_per_s: f64,
    /// Number of concurrent sessions to interleave.
    pub sessions: usize,
    /// Per-turn latency SLO: the deadline is `arrival + slo_ns`.
    pub slo_ns: Option<u64>,
    /// Truncate each session to its prefill plus at most this many decode
    /// turns (`None` = decode every remaining token). Bounds trace size for
    /// tests without changing the per-turn semantics.
    pub max_decode_turns: Option<usize>,
}

/// One turn of a session trace: the next-token (or prefill) request of a
/// live session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTurnRequest {
    /// Index in arrival order (the identity records are keyed on).
    pub id: usize,
    /// Arrival instant on the virtual clock.
    pub arrival_ns: u64,
    /// Absolute completion deadline, if the turn carries an SLO.
    pub deadline_ns: Option<u64>,
    /// The session this turn belongs to.
    pub session: u64,
    /// Context length (keys/values) after this turn.
    pub prefix_len: usize,
    /// Tokens this turn appends: the token positions
    /// `prefix_len - appended .. prefix_len`. The turn runs the query rows
    /// of `entry` that stand at those positions
    /// ([`turn_inputs`](elsa_workloads::turn_inputs)); for a square entry
    /// that is `appended` rows.
    pub appended: usize,
    /// Whether this is the session's final turn (its state can be dropped
    /// once served).
    pub last_turn: bool,
    /// The replayable full-context shape the turn's inputs are sliced from.
    pub entry: TraceEntry,
}

/// A replayable stream of timed session turns, sorted by arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The turns in arrival order.
    pub requests: Vec<SessionTurnRequest>,
}

impl SessionTrace {
    /// Generates a multi-turn trace: records `config.sessions` session
    /// specs from the workload, then interleaves their turns
    /// ([`SessionTrace::interleave`]).
    ///
    /// # Panics
    ///
    /// Panics if `lambda_per_s` is not strictly positive and finite.
    #[must_use]
    pub fn generate(
        workload: &Workload,
        config: &SessionArrivalConfig,
        rng: &mut SeededRng,
    ) -> Self {
        // Independent streams, same convention as `SessionTrace::poisson`:
        // shapes must not shift when λ or the pick sequence changes.
        let mut shape_rng = rng.fork(0x5EAE_0001);
        let mut time_rng = rng.fork(0x5EAE_0002);
        let mut pick_rng = rng.fork(0x5EAE_0003);
        let specs = record_sessions(workload, config.sessions, &mut shape_rng);
        Self::interleave(&specs, config, &mut time_rng, &mut pick_rng)
    }

    /// Emits the turns of `specs` under Poisson arrivals at
    /// `config.lambda_per_s` (gaps drawn from `time_rng`), each time
    /// picking a uniformly random session that still has turns left (from
    /// `pick_rng`). Each session is truncated to its prefill plus
    /// `config.max_decode_turns` decode turns. A session's turns therefore
    /// appear in schedule order but interleaved with every other session's
    /// — the access pattern an LRU cache actually faces. Ids are the
    /// arrival-order indices; `config.sessions` is not read (the specs are
    /// the sessions).
    ///
    /// # Panics
    ///
    /// Panics if `lambda_per_s` is not strictly positive and finite.
    #[must_use]
    pub fn interleave(
        specs: &[SessionSpec],
        config: &SessionArrivalConfig,
        time_rng: &mut SeededRng,
        pick_rng: &mut SeededRng,
    ) -> Self {
        assert!(
            config.lambda_per_s > 0.0 && config.lambda_per_s.is_finite(),
            "offered load must be positive, got {}",
            config.lambda_per_s
        );
        let schedules: Vec<Vec<SessionTurn>> = specs
            .iter()
            .map(|s| {
                let mut turns = s.turns();
                if let Some(m) = config.max_decode_turns {
                    turns.truncate(1 + m);
                }
                turns
            })
            .collect();
        let mut alive: Vec<usize> = (0..specs.len()).filter(|&s| !schedules[s].is_empty()).collect();
        let mut next_turn = vec![0usize; specs.len()];
        let mut t_ns = 0u64;
        let mut requests = Vec::new();
        while !alive.is_empty() {
            // Exponential inter-arrival: -ln(1-U)/rate, U ∈ [0, 1).
            let dt_s = -(1.0 - time_rng.uniform()).ln() / config.lambda_per_s;
            t_ns = t_ns.saturating_add(secs_to_ns(dt_s));
            let slot = pick_rng.index(alive.len());
            let s = alive[slot];
            let turn = schedules[s][next_turn[s]];
            next_turn[s] += 1;
            let last_turn = next_turn[s] == schedules[s].len();
            if last_turn {
                // `Vec::remove` keeps the remaining order stable, so the
                // pick stream replays identically.
                alive.remove(slot);
            }
            requests.push(SessionTurnRequest {
                id: requests.len(),
                arrival_ns: t_ns,
                deadline_ns: config.slo_ns.map(|slo| t_ns.saturating_add(slo)),
                session: specs[s].session,
                prefix_len: turn.prefix_len,
                appended: turn.appended,
                last_turn,
                entry: specs[s].entry,
            });
        }
        Self { requests }
    }

    /// Number of turns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Which session loses its cached state when the registry is over capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-served session (classic LRU; ties broken
    /// by session id, though the monotone touch counter makes ties
    /// impossible in practice).
    Lru,
    /// SLO-aware: evict the session whose from-scratch rebuild is cheapest
    /// (smallest cached prefix, then least recent, then id) — minimizing
    /// the worst extra latency any future turn can be charged.
    SloAware,
}

/// Capacity bound + victim policy of the session cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Resident-byte budget across all sessions (`None` = unbounded).
    pub capacity_bytes: Option<u64>,
    /// Victim choice when over budget.
    pub policy: EvictionPolicy,
}

impl CacheConfig {
    /// No capacity bound: nothing is ever evicted.
    #[must_use]
    pub const fn unbounded() -> Self {
        Self { capacity_bytes: None, policy: EvictionPolicy::Lru }
    }

    /// A bounded LRU cache.
    #[must_use]
    pub const fn lru(capacity_bytes: u64) -> Self {
        Self { capacity_bytes: Some(capacity_bytes), policy: EvictionPolicy::Lru }
    }
}

/// One session's cached incremental state, as the registry accounts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CachedSession {
    /// Tokens of incremental state held (the context length last served).
    len: usize,
    /// Resident bytes (`len × per_token_bytes`).
    bytes: u64,
    /// Monotone recency stamp of the last served turn.
    last_touch: u64,
}

/// Deterministic accounting of every live session's cached decode state.
///
/// Purely bookkeeping — it never stores tensors, only byte counts — so the
/// serving loop can charge hit/miss service times and model eviction
/// without ever changing functional outputs. All state lives in a
/// `BTreeMap` and recency comes from a monotone counter, so victim choice
/// replays identically at any `ELSA_THREADS`.
#[derive(Debug, Clone)]
pub struct SessionRegistry {
    config: CacheConfig,
    per_token: u64,
    entries: BTreeMap<u64, CachedSession>,
    total_bytes: u64,
    touch_counter: u64,
    evictions: u64,
    peak_bytes: u64,
}

impl SessionRegistry {
    /// Resident bytes per cached token for head dimension `d` and hash
    /// width `k`: the K and V rows (`2·d` f32), the SRP signature (`k/8`
    /// bytes), and the f64 key norm.
    #[must_use]
    pub const fn per_token_bytes(d: usize, k: usize) -> u64 {
        (2 * d * 4 + k / 8 + 8) as u64
    }

    /// An empty registry for sessions of the given dimensions.
    #[must_use]
    pub const fn new(config: CacheConfig, d: usize, k: usize) -> Self {
        Self {
            config,
            per_token: Self::per_token_bytes(d, k),
            entries: BTreeMap::new(),
            total_bytes: 0,
            touch_counter: 0,
            evictions: 0,
            peak_bytes: 0,
        }
    }

    /// The cached context length of a session, if its state is resident.
    #[must_use]
    pub fn cached_len(&self, session: u64) -> Option<usize> {
        self.entries.get(&session).map(|e| e.len)
    }

    /// Records that `session` was just served with `len` tokens of context:
    /// its state becomes `len` tokens resident and most-recently-used, then
    /// the eviction loop restores the capacity bound (never evicting the
    /// session just committed unless it alone exceeds the whole budget).
    /// Returns how many sessions were evicted.
    pub fn commit(&mut self, session: u64, len: usize) -> u64 {
        let bytes = self.per_token * len as u64;
        self.touch_counter += 1;
        let touch = self.touch_counter;
        let old = self
            .entries
            .insert(session, CachedSession { len, bytes, last_touch: touch });
        self.total_bytes = self.total_bytes - old.map_or(0, |e| e.bytes) + bytes;
        self.peak_bytes = self.peak_bytes.max(self.total_bytes);
        let mut evicted = 0;
        if let Some(cap) = self.config.capacity_bytes {
            while self.total_bytes > cap {
                match self.victim(session) {
                    Some(v) => self.drop_entry(v),
                    None => {
                        // Only the just-committed session remains and it is
                        // over budget by itself: it stays uncached.
                        self.drop_entry(session);
                        evicted += 1;
                        break;
                    }
                }
                evicted += 1;
            }
            self.evictions += evicted;
        }
        evicted
    }

    /// Drops a session's state without counting an eviction (the session
    /// completed; its cache entry is simply released).
    pub fn remove(&mut self, session: u64) {
        if self.entries.contains_key(&session) {
            self.drop_entry(session);
        }
    }

    /// Drops *every* session's state at once — the node-death path: a dead
    /// node's incremental decode state is gone, and each of its sessions
    /// rebuilds from scratch wherever it lands next. Lifetime accounting
    /// (evictions, peak bytes) survives; none of the drops counts as an
    /// eviction (nothing chose a victim). After `clear()`, cache decisions
    /// are bitwise identical to a cold-start registry's: the recency
    /// counter keeps advancing, but victim choice only ever compares touch
    /// stamps *relatively*, so the absolute offset cannot be observed.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total_bytes = 0;
    }

    fn drop_entry(&mut self, session: u64) {
        if let Some(e) = self.entries.remove(&session) {
            self.total_bytes -= e.bytes;
        }
    }

    /// The eviction victim, excluding `keep`: least-recent (LRU) or
    /// cheapest-rebuild (SLO-aware), with deterministic tie-breaks.
    fn victim(&self, keep: u64) -> Option<u64> {
        let candidates = self.entries.iter().filter(|&(&id, _)| id != keep);
        match self.config.policy {
            EvictionPolicy::Lru => {
                candidates.min_by_key(|&(&id, e)| (e.last_touch, id)).map(|(&id, _)| id)
            }
            EvictionPolicy::SloAware => candidates
                .min_by_key(|&(&id, e)| (e.len, e.last_touch, id))
                .map(|(&id, _)| id),
        }
    }

    /// Resident bytes right now.
    #[must_use]
    pub const fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// High-water mark of resident bytes (observed before eviction).
    #[must_use]
    pub const fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Sessions with resident state.
    #[must_use]
    pub fn num_cached(&self) -> usize {
        self.entries.len()
    }

    /// Sessions evicted over the registry's lifetime.
    #[must_use]
    pub const fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The governing cache configuration.
    #[must_use]
    pub const fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// `(session, cached_len)` of every resident session, in id order —
    /// the accounting ground truth the property tests recompute bytes from.
    #[must_use]
    pub fn cached_sessions(&self) -> Vec<(u64, usize)> {
        self.entries.iter().map(|(&id, e)| (id, e.len)).collect()
    }
}

/// Cache behavior of one session-serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Served turns whose session held exactly the expected prefix (paid
    /// only the appended tokens' preprocessing).
    pub hits: u64,
    /// Served first turns (nothing to reuse yet).
    pub cold: u64,
    /// Served turns whose expected prefix was missing — evicted, or
    /// desynchronized by an earlier dropped turn — forcing a from-scratch
    /// rebuild.
    pub stale: u64,
    /// Tokens of previously held state recomputed across all stale turns.
    pub rebuilt_tokens: u64,
    /// Sessions evicted by the capacity bound.
    pub evictions: u64,
    /// High-water mark of resident cache bytes.
    pub peak_bytes: u64,
}

impl CacheStats {
    /// Served turns that could not reuse state (`cold + stale`).
    #[must_use]
    pub const fn misses(&self) -> u64 {
        self.cold + self.stale
    }

    /// Hits over all served turns; `0.0` when nothing was served.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalConfig;
    use elsa_workloads::{DatasetKind, ModelKind, WorkloadTrace};

    fn workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    fn config(sessions: usize) -> SessionArrivalConfig {
        SessionArrivalConfig {
            lambda_per_s: 10_000.0,
            sessions,
            slo_ns: None,
            max_decode_turns: Some(4),
        }
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let a = SessionTrace::generate(&workload(), &config(6), &mut SeededRng::new(1));
        let b = SessionTrace::generate(&workload(), &config(6), &mut SeededRng::new(1));
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.requests.iter().enumerate().all(|(i, r)| r.id == i));
    }

    #[test]
    fn per_session_turns_are_in_schedule_order() {
        let trace = SessionTrace::generate(&workload(), &config(5), &mut SeededRng::new(2));
        let mut last_prefix: BTreeMap<u64, usize> = BTreeMap::new();
        let mut finished: Vec<u64> = Vec::new();
        for r in &trace.requests {
            assert!(!finished.contains(&r.session), "turn after last_turn");
            match last_prefix.get(&r.session) {
                None => assert_eq!(r.appended, r.prefix_len, "first turn is the prefill"),
                Some(&prev) => {
                    assert_eq!(r.appended, 1, "decode turns append one token");
                    assert_eq!(r.prefix_len, prev + 1);
                }
            }
            last_prefix.insert(r.session, r.prefix_len);
            if r.last_turn {
                finished.push(r.session);
            }
        }
        assert_eq!(finished.len(), 5, "every session finishes exactly once");
    }

    #[test]
    fn plain_request_turns_are_whole_invocations() {
        let cfg = ArrivalConfig { slo_ns: Some(1_000_000), ..ArrivalConfig::poisson(1000.0, 12) };
        let poisson = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(3));
        let recorded = WorkloadTrace::record(&workload(), 12, &mut SeededRng::new(3));
        let simultaneous = SessionTrace::simultaneous(&recorded);
        for (trace, slo_ns) in [(&poisson, cfg.slo_ns), (&simultaneous, None)] {
            assert_eq!(trace.len(), 12);
            for (i, s) in trace.requests.iter().enumerate() {
                assert_eq!((s.id, s.session), (i, i as u64), "a session of its own");
                assert_eq!(s.prefix_len, s.entry.pattern.n_real);
                assert_eq!(s.appended, s.prefix_len);
                assert!(s.last_turn);
                assert_eq!(s.deadline_ns, slo_ns.map(|slo| s.arrival_ns + slo));
            }
        }
    }

    #[test]
    fn registry_accounts_bytes_exactly() {
        let mut reg = SessionRegistry::new(CacheConfig::unbounded(), 64, 64);
        assert_eq!(SessionRegistry::per_token_bytes(64, 64), 528);
        reg.commit(1, 10);
        reg.commit(2, 20);
        reg.commit(1, 11);
        assert_eq!(reg.total_bytes(), (11 + 20) * 528);
        assert_eq!(reg.cached_len(1), Some(11));
        reg.remove(2);
        assert_eq!(reg.total_bytes(), 11 * 528);
        assert_eq!(reg.evictions(), 0, "unbounded never evicts");
        assert_eq!(reg.peak_bytes(), 31 * 528);
    }

    #[test]
    fn lru_evicts_the_least_recent_session() {
        // Capacity for ~2 ten-token sessions.
        let mut reg = SessionRegistry::new(CacheConfig::lru(2 * 10 * 528), 64, 64);
        reg.commit(1, 10);
        reg.commit(2, 10);
        reg.commit(1, 10); // refresh 1: session 2 is now least recent
        let evicted = reg.commit(3, 10);
        assert_eq!(evicted, 1);
        assert_eq!(reg.cached_len(2), None, "LRU victim");
        assert_eq!(reg.cached_len(1), Some(10));
        assert_eq!(reg.cached_len(3), Some(10));
        assert!(reg.total_bytes() <= 2 * 10 * 528);
    }

    #[test]
    fn slo_aware_evicts_the_cheapest_rebuild() {
        let mut reg = SessionRegistry::new(
            CacheConfig { capacity_bytes: Some(30 * 528), policy: EvictionPolicy::SloAware },
            64,
            64,
        );
        reg.commit(1, 4); // cheapest to rebuild
        reg.commit(2, 20);
        reg.commit(3, 8);
        assert_eq!(reg.cached_len(1), None, "shortest prefix evicted first");
        assert_eq!(reg.cached_len(2), Some(20));
        assert_eq!(reg.cached_len(3), Some(8));
    }

    #[test]
    fn oversized_session_stays_uncached() {
        let mut reg = SessionRegistry::new(CacheConfig::lru(5 * 528), 64, 64);
        let evicted = reg.commit(7, 100);
        assert_eq!(evicted, 1, "the session itself is dropped");
        assert_eq!(reg.cached_len(7), None);
        assert_eq!(reg.total_bytes(), 0);
        assert_eq!(reg.peak_bytes(), 100 * 528, "peak observed before eviction");
    }

    #[test]
    fn zero_capacity_cache_never_retains_anything() {
        // The failover configuration corner: a node configured with a
        // zero-byte cache budget must behave as "cache off", not panic or
        // leak — every commit is immediately dropped as oversized.
        let mut reg = SessionRegistry::new(CacheConfig::lru(0), 64, 64);
        for turn in 0..4 {
            let evicted = reg.commit(1, turn + 1);
            assert_eq!(evicted, 1, "the committed session itself is the victim");
            assert_eq!(reg.cached_len(1), None);
            assert_eq!(reg.total_bytes(), 0);
            assert_eq!(reg.num_cached(), 0);
        }
        assert_eq!(reg.evictions(), 4);
        // remove() on the uncached session is a no-op, not an underflow.
        reg.remove(1);
        assert_eq!(reg.total_bytes(), 0);
    }

    #[test]
    fn eviction_mid_rebuild_forces_a_second_rebuild() {
        // A session evicted *between* two of its own turns (mid-rebuild on
        // the failover node) must come back stale, and re-committing it
        // must restore exact byte accounting.
        let mut reg = SessionRegistry::new(CacheConfig::lru(25 * 528), 64, 64);
        reg.commit(1, 10);
        assert_eq!(reg.cached_len(1), Some(10));
        // Another session's commit pressures 1 out while 1 is still live.
        let evicted = reg.commit(2, 20);
        assert_eq!(evicted, 1);
        assert_eq!(reg.cached_len(1), None, "session 1 evicted mid-conversation");
        // Session 1's next turn rebuilds: the registry takes the commit
        // exactly as if the session were new.
        reg.commit(1, 11);
        assert_eq!(reg.cached_len(1), Some(11));
        assert_eq!(
            reg.total_bytes(),
            reg.cached_sessions().iter().map(|&(_, len)| len as u64 * 528).sum::<u64>(),
            "byte accounting is exact after evict-recommit"
        );
    }

    #[test]
    fn clear_matches_a_cold_start_bitwise() {
        // Node death drops the whole cache. Every subsequent decision —
        // residency, victim choice, byte totals — must be bitwise identical
        // to a registry that never held the lost state (the recency offset
        // must be unobservable).
        let cfg = CacheConfig::lru(2 * 10 * 528);
        let mut crashed = SessionRegistry::new(cfg, 64, 64);
        crashed.commit(1, 10);
        crashed.commit(2, 10);
        crashed.commit(3, 7);
        crashed.clear();
        assert_eq!(crashed.total_bytes(), 0);
        assert_eq!(crashed.num_cached(), 0);
        assert_eq!(crashed.cached_len(2), None, "dead node's sessions are gone");

        let mut cold = SessionRegistry::new(cfg, 64, 64);
        // Replay the same post-death commit sequence on both.
        let replay: &[(u64, usize)] = &[(4, 10), (1, 10), (5, 10), (4, 11)];
        for &(session, len) in replay {
            let a = crashed.commit(session, len);
            let b = cold.commit(session, len);
            assert_eq!(a, b, "eviction counts diverge at ({session}, {len})");
            assert_eq!(crashed.cached_sessions(), cold.cached_sessions());
            assert_eq!(crashed.total_bytes(), cold.total_bytes());
        }
        // Lifetime accounting is the one allowed difference: the crashed
        // registry remembers its pre-death peak.
        assert!(crashed.peak_bytes() >= cold.peak_bytes());
    }

    #[test]
    fn cache_stats_ratios_never_nan() {
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let stats = CacheStats { hits: 3, cold: 1, stale: 0, ..CacheStats::default() };
        assert_eq!(stats.misses(), 1);
        assert_eq!(stats.hit_rate(), 0.75);
    }
}
