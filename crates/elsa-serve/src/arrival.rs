//! Seeded open-loop arrival generation.
//!
//! [`SessionTrace::poisson`] is the online analogue of
//! [`elsa_workloads::WorkloadTrace`]: a fully materialized, replayable
//! description of *what* arrives *when*, each request one whole
//! self-attention invocation served as a single-turn session. Request shapes
//! come from the same per-workload length distribution the offline traces
//! use ([`Workload::sample_entry`]); arrival instants are exponential
//! inter-arrival draws at an offered load λ (a Poisson process), optionally
//! modulated by periodic [`Burst`] phases.
//!
//! Two independent PRNG streams are forked from the caller's generator —
//! one for request shapes, one for inter-arrival times — so two traces
//! generated from the **same seed at different λ contain the same request
//! sequence** with compressed or stretched arrival times. That is what makes
//! "SLO attainment degrades monotonically in λ" a sharp, testable statement
//! instead of a statistical tendency across unrelated workloads.

use elsa_linalg::SeededRng;
use elsa_workloads::trace::TraceEntry;
use elsa_workloads::{Workload, WorkloadTrace};

use crate::clock::secs_to_ns;
use crate::session::{SessionTrace, SessionTurnRequest};

/// Periodic burst modulation of the base arrival rate.
///
/// Each period of `period_ns` opens with an `active_ns`-long window during
/// which the instantaneous rate is `lambda_per_s × multiplier`; outside the
/// window the base rate applies. A multiplier below 1 models periodic lulls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Length of one burst cycle in nanoseconds.
    pub period_ns: u64,
    /// Length of the high-rate window at the start of each cycle.
    pub active_ns: u64,
    /// Rate multiplier inside the window (> 0).
    pub multiplier: f64,
}

/// Configuration of one generated arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean offered load in requests per second (> 0).
    pub lambda_per_s: f64,
    /// Number of requests to generate.
    pub count: usize,
    /// Per-request latency SLO: the deadline is `arrival + slo_ns`.
    /// `None` disables deadlines (nothing is ever shed for SLO reasons).
    pub slo_ns: Option<u64>,
    /// Optional periodic burst phases.
    pub burst: Option<Burst>,
}

impl ArrivalConfig {
    /// An open-loop Poisson stream of `count` requests at rate λ, no SLO,
    /// no bursts.
    #[must_use]
    pub const fn poisson(lambda_per_s: f64, count: usize) -> Self {
        Self { lambda_per_s, count, slo_ns: None, burst: None }
    }
}

/// Request `id` as a session of its own whose only turn is the whole
/// invocation: every token appended at once, nothing left to decode.
const fn whole_invocation(
    id: usize,
    arrival_ns: u64,
    deadline_ns: Option<u64>,
    entry: TraceEntry,
) -> SessionTurnRequest {
    SessionTurnRequest {
        id,
        arrival_ns,
        deadline_ns,
        session: id as u64,
        prefix_len: entry.pattern.n_real,
        appended: entry.pattern.n_real,
        last_turn: true,
        entry,
    }
}

impl SessionTrace {
    /// Generates an open-loop trace of whole invocations for a workload.
    ///
    /// Shapes and inter-arrival times come from independent forks of `rng`,
    /// so regenerating with a different `lambda_per_s` (or different
    /// [`Burst`]) yields the *same* request sequence on a different
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_per_s` is not strictly positive and finite, or if
    /// a burst has a zero period, a window longer than its period, or a
    /// non-positive multiplier.
    #[must_use]
    pub fn poisson(workload: &Workload, config: &ArrivalConfig, rng: &mut SeededRng) -> Self {
        assert!(
            config.lambda_per_s > 0.0 && config.lambda_per_s.is_finite(),
            "offered load must be positive, got {}",
            config.lambda_per_s
        );
        if let Some(b) = config.burst {
            assert!(b.period_ns > 0, "burst period must be positive");
            assert!(b.active_ns <= b.period_ns, "burst window exceeds its period");
            assert!(b.multiplier > 0.0 && b.multiplier.is_finite(), "bad burst multiplier");
        }
        // Independent streams: shapes must not shift when λ changes.
        let mut shape_rng = rng.fork(0x5EAE_0001);
        let mut time_rng = rng.fork(0x5EAE_0002);
        let mut t_ns = 0u64;
        let requests = (0..config.count)
            .map(|id| {
                let rate = config.lambda_per_s * burst_multiplier_at(t_ns, config.burst);
                // Exponential inter-arrival: -ln(1-U)/rate, U ∈ [0, 1).
                let dt_s = -(1.0 - time_rng.uniform()).ln() / rate;
                t_ns = t_ns.saturating_add(secs_to_ns(dt_s));
                whole_invocation(
                    id,
                    t_ns,
                    config.slo_ns.map(|slo| t_ns.saturating_add(slo)),
                    workload.sample_entry(&mut shape_rng, id as u64),
                )
            })
            .collect();
        Self { requests }
    }

    /// Every entry of a recorded trace as a whole invocation arriving at
    /// t = 0 with no deadline — batch serving: under
    /// [`ServeConfig::immediate`](crate::ServeConfig::immediate) the
    /// pipeline dispatches the batch first-come first-served onto the
    /// unit that frees first.
    #[must_use]
    pub fn simultaneous(trace: &WorkloadTrace) -> Self {
        let requests = trace
            .entries
            .iter()
            .enumerate()
            .map(|(id, &entry)| whole_invocation(id, 0, None, entry))
            .collect();
        Self { requests }
    }
}

fn burst_multiplier_at(t_ns: u64, burst: Option<Burst>) -> f64 {
    match burst {
        Some(b) if t_ns % b.period_ns < b.active_ns => b.multiplier,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_workloads::{DatasetKind, ModelKind};

    fn workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ArrivalConfig::poisson(1000.0, 32);
        let a = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(1));
        let b = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn arrivals_are_sorted_and_rate_is_plausible() {
        let cfg = ArrivalConfig::poisson(10_000.0, 256);
        let trace = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(2));
        let reqs = &trace.requests;
        assert!(reqs.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        // Requests after the first over the span from the first to the last.
        let span_ns = reqs[reqs.len() - 1].arrival_ns - reqs[0].arrival_ns;
        let realized = (reqs.len() - 1) as f64 / crate::clock::ns_to_secs(span_ns);
        assert!(
            (5_000.0..20_000.0).contains(&realized),
            "realized λ = {realized} too far from 10k"
        );
    }

    #[test]
    fn same_seed_different_lambda_same_shapes_scaled_times() {
        let slow = SessionTrace::poisson(
            &workload(),
            &ArrivalConfig::poisson(1000.0, 48),
            &mut SeededRng::new(3),
        );
        let fast = SessionTrace::poisson(
            &workload(),
            &ArrivalConfig::poisson(4000.0, 48),
            &mut SeededRng::new(3),
        );
        for (s, f) in slow.requests.iter().zip(&fast.requests) {
            assert_eq!(s.entry, f.entry, "shapes must not depend on λ");
            assert!(f.arrival_ns <= s.arrival_ns, "higher λ compresses the timeline");
        }
    }

    #[test]
    fn slo_deadlines_are_arrival_relative() {
        let cfg = ArrivalConfig { slo_ns: Some(5_000), ..ArrivalConfig::poisson(1000.0, 8) };
        let trace = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(4));
        for r in &trace.requests {
            assert_eq!(r.deadline_ns, Some(r.arrival_ns + 5_000));
        }
    }

    #[test]
    fn burst_phases_compress_the_window() {
        // 10× rate in the first half of each millisecond: the mean
        // inter-arrival inside windows must be far below the base mean.
        let burst = Burst { period_ns: 1_000_000, active_ns: 500_000, multiplier: 10.0 };
        let cfg = ArrivalConfig {
            burst: Some(burst),
            ..ArrivalConfig::poisson(10_000.0, 512)
        };
        let bursty = SessionTrace::poisson(&workload(), &cfg, &mut SeededRng::new(5));
        let calm = SessionTrace::poisson(
            &workload(),
            &ArrivalConfig::poisson(10_000.0, 512),
            &mut SeededRng::new(5),
        );
        assert!(
            bursty.requests.last().unwrap().arrival_ns
                < calm.requests.last().unwrap().arrival_ns,
            "bursts raise the average rate, shortening the trace"
        );
        // Shapes identical regardless of bursts.
        for (a, b) in bursty.requests.iter().zip(&calm.requests) {
            assert_eq!(a.entry, b.entry);
        }
    }

    #[test]
    fn simultaneous_trace_arrives_at_zero() {
        let recorded = WorkloadTrace::record(&workload(), 5, &mut SeededRng::new(8));
        let online = SessionTrace::simultaneous(&recorded);
        assert!(online.requests.iter().all(|r| r.arrival_ns == 0 && r.deadline_ns.is_none()));
        let entries: Vec<TraceEntry> = online.requests.iter().map(|r| r.entry).collect();
        assert_eq!(entries, recorded.entries);
    }
}
