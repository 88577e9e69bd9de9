//! Multi-turn decode sessions over the workload zoo.
//!
//! The offline trace format ([`crate::trace`]) records *one-shot* encoder
//! invocations: the whole `n_real × d` context arrives at once. Decode
//! serving replays the same recorded invocation as a *session*: a prompt
//! prefill of `prompt_len` tokens, then one decode turn per remaining token
//! until the full context is built. Each turn's inputs are row slices of the
//! single materialized invocation ([`turn_inputs`]), so running every turn
//! of a session touches exactly the bits the one-shot invocation would, and
//! a whole-invocation turn *is* the one-shot invocation. That is what lets
//! the serving layer serve a one-shot request as a single-turn session.

use std::ops::Range;

use elsa_attention::exact::AttentionInputs;
use elsa_linalg::SeededRng;

use crate::trace::TraceEntry;
use crate::workload::Workload;

/// One autoregressive decode session: a recorded invocation plus the prompt
/// split that turns it into a prefill-then-decode schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Stable session identifier (unique within one recorded batch).
    pub session: u64,
    /// The recorded invocation supplying the full context.
    pub entry: TraceEntry,
    /// Tokens in the prompt prefill (first turn); `1 ..= n_total()`.
    pub prompt_len: usize,
}

/// One turn of a session: the context length after this turn and how many
/// of its trailing tokens this turn appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTurn {
    /// Context length (keys/values) visible to this turn.
    pub prefix_len: usize,
    /// Tokens appended by this turn: the token positions
    /// `prefix_len - appended .. prefix_len`. The turn runs the query rows
    /// that stand at those positions ([`turn_inputs`]).
    pub appended: usize,
}

impl SessionSpec {
    /// Total tokens of the full context.
    #[must_use]
    pub const fn n_total(&self) -> usize {
        self.entry.pattern.n_real
    }

    /// The turn schedule: a prefill of `prompt_len` tokens, then one
    /// single-token decode turn per remaining token. The last turn's
    /// `prefix_len` is always [`n_total`](Self::n_total).
    #[must_use]
    pub fn turns(&self) -> Vec<SessionTurn> {
        let mut out = vec![SessionTurn { prefix_len: self.prompt_len, appended: self.prompt_len }];
        for prefix_len in self.prompt_len + 1..=self.n_total() {
            out.push(SessionTurn { prefix_len, appended: 1 });
        }
        out
    }

    /// Number of turns in the schedule.
    #[must_use]
    pub const fn num_turns(&self) -> usize {
        1 + self.n_total() - self.prompt_len
    }
}

/// Records `count` sessions of a workload: each draws a [`TraceEntry`] from
/// the workload's length distribution (exactly as
/// [`WorkloadTrace::record`](crate::trace::WorkloadTrace::record) does) plus
/// a prompt length uniform in `1..=n_real`, so prefill-heavy and
/// decode-heavy sessions both occur. Fully replayable from the seed.
#[must_use]
pub fn record_sessions(workload: &Workload, count: usize, rng: &mut SeededRng) -> Vec<SessionSpec> {
    (0..count)
        .map(|i| {
            let entry = workload.sample_entry(rng, i as u64);
            let prompt_len = 1 + rng.index(entry.pattern.n_real);
            SessionSpec { session: i as u64, entry, prompt_len }
        })
        .collect()
}

/// The one row rule: the query rows a turn runs in an invocation of `n`
/// keys and `n_q` query rows, those that stand at its appended positions
/// `prefix_len - appended .. prefix_len`. Query row `i` stands at position
/// `n − n_q + i` (the generator's convention; see
/// [`TargetStructure::Local`](crate::synthetic::TargetStructure::Local)),
/// so for a square invocation the rows and the positions coincide. The
/// whole-invocation turn (`appended == n`) runs every query row. The range
/// is empty when no query row stands at the appended positions.
///
/// [`turn_inputs`] applies it to a materialized invocation's shape; a
/// serving precompute applies it to a [`TraceEntry`]'s pattern before
/// anything is materialized.
///
/// Returns `None` for a malformed turn: `appended == 0`,
/// `appended > prefix_len`, or `prefix_len > n`.
#[must_use]
pub fn turn_query_rows(
    n: usize,
    n_q: usize,
    prefix_len: usize,
    appended: usize,
) -> Option<Range<usize>> {
    if appended == 0 || appended > prefix_len || prefix_len > n {
        return None;
    }
    let row = |position: usize| (position + n_q).saturating_sub(n);
    Some(if appended == n { 0..n_q } else { row(prefix_len - appended)..row(prefix_len) })
}

/// The inputs for one turn, sliced from the session's fully materialized
/// invocation. The turn appends the tokens at positions
/// `prefix_len - appended .. prefix_len`. Its keys/values are rows
/// `0..prefix_len` (the context built so far), and its queries are the
/// query rows that stand at its appended positions ([`turn_query_rows`]).
/// The whole-invocation turn (`appended == n_real`) is exactly the one-shot
/// invocation, query rows and all.
///
/// # Panics
///
/// Panics if `appended == 0`, `appended > prefix_len`, `prefix_len`
/// exceeds the invocation's length, or no query row stands at the appended
/// positions.
#[must_use]
pub fn turn_inputs(full: &AttentionInputs, prefix_len: usize, appended: usize) -> AttentionInputs {
    let rows = turn_query_rows(full.num_keys(), full.num_queries(), prefix_len, appended);
    slice_turn(full, rows.expect("bad turn shape"), prefix_len)
}

/// A turn's inputs sliced from `context`: query rows `rows` and key/value
/// rows `0..prefix_len`. `context` may be a prefix of the invocation
/// ([`TraceEntry::materialize_prefix`](crate::trace::TraceEntry::materialize_prefix))
/// when `rows` come from [`turn_query_rows`] over the invocation's own
/// shape: a prefix keeps the invocation's row indices, not its shape.
///
/// # Panics
///
/// Panics if `rows` is empty or past `context`'s query rows, or
/// `prefix_len` is 0 or past its keys.
#[must_use]
pub fn slice_turn(
    context: &AttentionInputs,
    rows: Range<usize>,
    prefix_len: usize,
) -> AttentionInputs {
    AttentionInputs::new(
        context.query().row_slice(rows),
        context.key().row_slice(0..prefix_len),
        context.value().row_slice(0..prefix_len),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, LongCtxKind, ModelKind};

    fn workload() -> Workload {
        Workload { model: ModelKind::SasRec, dataset: DatasetKind::MovieLens1M }
    }

    #[test]
    fn turn_schedule_covers_every_token_exactly_once() {
        let mut rng = SeededRng::new(1);
        for spec in record_sessions(&workload(), 8, &mut rng) {
            let turns = spec.turns();
            assert_eq!(turns.len(), spec.num_turns());
            assert_eq!(turns[0].appended, spec.prompt_len);
            let appended: usize = turns.iter().map(|t| t.appended).sum();
            assert_eq!(appended, spec.n_total());
            let mut prefix = 0;
            for t in &turns {
                prefix += t.appended;
                assert_eq!(t.prefix_len, prefix);
            }
            assert_eq!(prefix, spec.n_total());
        }
    }

    #[test]
    fn recording_is_replay_deterministic() {
        let a = record_sessions(&workload(), 6, &mut SeededRng::new(7));
        let b = record_sessions(&workload(), 6, &mut SeededRng::new(7));
        assert_eq!(a, b);
        for s in &a {
            assert!(s.prompt_len >= 1 && s.prompt_len <= s.n_total());
        }
    }

    #[test]
    fn full_session_turn_equals_one_shot_invocation() {
        let mut rng = SeededRng::new(3);
        let mut entries = vec![record_sessions(&workload(), 1, &mut rng)[0].entry];
        // Long-context entries run fewer query rows than they have keys.
        for kind in LongCtxKind::all() {
            entries.extend(kind.record_trace(192, 1, &mut rng).entries);
        }
        for entry in entries {
            let full = entry.materialize();
            let n = entry.pattern.n_real;
            assert_eq!(turn_inputs(&full, n, n), full, "{:?}", entry.pattern.structure);
            // The last token's turn runs the last query row, whatever n_q is.
            let last = turn_inputs(&full, n, 1);
            assert_eq!(last.query().row(0), full.query().row(full.num_queries() - 1));
        }
    }

    #[test]
    fn turn_inputs_slice_the_right_rows() {
        let mut rng = SeededRng::new(4);
        let spec = record_sessions(&workload(), 1, &mut rng)[0];
        let full = spec.entry.materialize();
        let mut seen_query_rows = 0;
        for t in spec.turns() {
            let turn = turn_inputs(&full, t.prefix_len, t.appended);
            assert_eq!(turn.num_keys(), t.prefix_len);
            assert_eq!(turn.num_queries(), t.appended);
            // Keys are the context prefix, queries the newly appended rows.
            assert_eq!(turn.key().row(t.prefix_len - 1), full.key().row(t.prefix_len - 1));
            assert_eq!(turn.query().row(0), full.query().row(seen_query_rows));
            seen_query_rows += t.appended;
        }
        assert_eq!(seen_query_rows, spec.n_total());
    }

    #[test]
    #[should_panic(expected = "bad turn shape")]
    fn rejects_zero_appended() {
        let mut rng = SeededRng::new(5);
        let spec = record_sessions(&workload(), 1, &mut rng)[0];
        let full = spec.entry.materialize();
        let _ = turn_inputs(&full, 4, 0);
    }
}
