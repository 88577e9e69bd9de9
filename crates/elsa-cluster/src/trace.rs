//! Fleet-scale traces: mixed-workload session streams.
//!
//! A cluster front-end does not see one workload — it sees the weighted
//! traffic mix of everything the fleet hosts. [`fleet_sessions`] draws
//! each session's *workload* from a [`FleetMix`] before sampling its shape,
//! then shares [`SessionTrace::interleave`] with
//! [`SessionTrace::generate`](elsa_serve::SessionTrace::generate), so
//! recommendation sessions (short contexts, many of them) interleave with
//! long NLP invocations in one replayable arrival stream. The output is an
//! ordinary [`SessionTrace`], so every single-node tool (and the cluster
//! itself) consumes it unchanged.

use elsa_linalg::SeededRng;
use elsa_serve::{SessionArrivalConfig, SessionTrace};
use elsa_workloads::sessions::SessionSpec;
use elsa_workloads::FleetMix;

/// Fork labels of the generator's independent streams. Distinct from the
/// `0x5EAE_xxxx` labels of the single-workload generator, so a mixed trace
/// never aliases a single-workload trace at the same seed.
const STREAM_SHAPES: u64 = 0xC105_0011;
const STREAM_TIMES: u64 = 0xC105_0012;
const STREAM_PICKS: u64 = 0xC105_0013;

/// Generates a mixed-workload session trace: `config.sessions` sessions,
/// each drawing its workload from `mix` and its shape from that workload's
/// length distribution, interleaved under Poisson arrivals by
/// [`SessionTrace::interleave`], the single-workload generator's own
/// interleaver. Fully replayable from `rng`'s state.
///
/// # Panics
///
/// Panics if `config.lambda_per_s` is not strictly positive and finite.
#[must_use]
pub fn fleet_sessions(
    mix: &FleetMix,
    config: &SessionArrivalConfig,
    rng: &mut SeededRng,
) -> SessionTrace {
    // Independent streams: shapes must not shift when λ or the pick
    // sequence changes (same convention as the single-workload generator).
    let mut shape_rng = rng.fork(STREAM_SHAPES);
    let mut time_rng = rng.fork(STREAM_TIMES);
    let mut pick_rng = rng.fork(STREAM_PICKS);
    let specs: Vec<SessionSpec> = (0..config.sessions)
        .map(|i| {
            let workload = *mix.pick(&mut shape_rng);
            let entry = workload.sample_entry(&mut shape_rng, i as u64);
            let prompt_len = 1 + shape_rng.index(entry.pattern.n_real);
            SessionSpec { session: i as u64, entry, prompt_len }
        })
        .collect();
    SessionTrace::interleave(&specs, config, &mut time_rng, &mut pick_rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_workloads::{DatasetKind, ModelKind, Workload};

    fn cfg(sessions: usize) -> SessionArrivalConfig {
        SessionArrivalConfig {
            lambda_per_s: 50.0,
            sessions,
            slo_ns: Some(40_000_000),
            max_decode_turns: Some(2),
        }
    }

    #[test]
    fn mixed_traces_replay_bitwise() {
        let mix = FleetMix::production();
        let gen = || fleet_sessions(&mix, &cfg(12), &mut SeededRng::new(9));
        assert_eq!(gen(), gen());
    }

    #[test]
    fn trace_is_sorted_with_index_ids_and_covers_the_mix() {
        let mix = FleetMix::production();
        let trace = fleet_sessions(&mix, &cfg(40), &mut SeededRng::new(5));
        assert!(trace.requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(trace.requests.iter().enumerate().all(|(i, r)| r.id == i));
        let mut lengths: Vec<usize> =
            trace.requests.iter().map(|r| r.entry.pattern.n_real).collect();
        lengths.sort_unstable();
        lengths.dedup();
        // A 40-session production draw spans many distinct real lengths —
        // the mix pulls from five different length distributions.
        assert!(lengths.len() > 3, "mixed trace collapsed to {} lengths", lengths.len());
    }

    #[test]
    fn single_component_mix_matches_the_workload_session_count() {
        let w = Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M };
        let trace = fleet_sessions(&FleetMix::single(w), &cfg(6), &mut SeededRng::new(2));
        let mut sessions: Vec<u64> = trace.requests.iter().map(|r| r.session).collect();
        sessions.sort_unstable();
        sessions.dedup();
        assert_eq!(sessions.len(), 6);
        // Every session ends exactly once.
        assert_eq!(trace.requests.iter().filter(|r| r.last_turn).count(), 6);
    }
}
