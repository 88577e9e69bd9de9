//! Serializable workload traces.
//!
//! A trace pins down *exactly* which invocations an experiment ran — the
//! sampled real lengths, the per-invocation generator seeds and the pattern
//! profile — in a plain-text format that can be stored next to results and
//! replayed later (the role the authors' captured PyTorch inputs play in
//! the original evaluation). Replaying a trace regenerates bit-identical
//! `AttentionInputs`.
//!
//! Format: one header line `elsa-trace v1 d=<d>`, then one line per entry:
//! `n=<n> relevant=<r> dominance=<f> noise=<f> score_scale=<f> seed=<u64>`.
//! Long-context entries add optional fields before `seed=`: `queries=<n_q>`
//! (written only when `n_q ≠ n`) and at most one of `local=<window>` /
//! `passage=<len>` (written only for structured target sampling), so every
//! trace recorded before these fields existed serializes byte-identically.

use std::fmt::Write as _;

use elsa_attention::exact::AttentionInputs;
use elsa_linalg::SeededRng;

use crate::synthetic::{AttentionPatternConfig, TargetStructure};
use crate::workload::Workload;

/// One recorded invocation: the generator configuration plus its seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// The synthetic pattern parameters.
    pub pattern: AttentionPatternConfig,
    /// The RNG seed that generates this invocation.
    pub seed: u64,
}

impl TraceEntry {
    /// Regenerates the invocation: the whole-invocation
    /// [`materialize_prefix`](Self::materialize_prefix).
    ///
    /// # Panics
    ///
    /// Panics if the pattern fails [`AttentionPatternConfig::validate`].
    #[must_use]
    pub fn materialize(&self) -> AttentionInputs {
        self.materialize_prefix(self.pattern.n_real)
    }

    /// Regenerates the invocation's first `len` tokens
    /// ([`AttentionPatternConfig::generate_prefix`] from this entry's seed):
    /// key and value rows `0..len` and the query rows that stand below
    /// position `len`, bit for bit those of [`materialize`](Self::materialize).
    /// Every key row is still drawn, because a query's planted targets may
    /// lie past `len`; the value rows past `len` and the query rows past the
    /// prefix's last are not computed.
    ///
    /// # Panics
    ///
    /// Panics if the pattern fails [`AttentionPatternConfig::validate`], if
    /// `len` is 0 or exceeds `n_real`, or if no query row stands below
    /// `len`.
    #[must_use]
    pub fn materialize_prefix(&self, len: usize) -> AttentionInputs {
        self.pattern.generate_prefix(&mut SeededRng::new(self.seed), len)
    }
}

/// A replayable sequence of attention invocations.
///
/// # Examples
///
/// ```
/// use elsa_workloads::trace::WorkloadTrace;
/// use elsa_workloads::{DatasetKind, ModelKind, Workload};
/// use elsa_linalg::SeededRng;
///
/// let w = Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 };
/// let trace = WorkloadTrace::record(&w, 3, &mut SeededRng::new(1));
/// let text = trace.to_text();
/// let back = WorkloadTrace::from_text(&text).unwrap();
/// assert_eq!(trace, back);
/// assert_eq!(trace.materialize()[0], back.materialize()[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Head dimension shared by all entries.
    pub d: usize,
    /// The recorded invocations.
    pub entries: Vec<TraceEntry>,
}

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line (0 = header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl WorkloadTrace {
    /// Records `count` invocations of a workload: samples the real lengths
    /// and assigns each entry an independent seed.
    #[must_use]
    pub fn record(workload: &Workload, count: usize, rng: &mut SeededRng) -> Self {
        let entries = (0..count).map(|i| workload.sample_entry(rng, i as u64)).collect();
        Self { d: 64, entries }
    }

    /// Regenerates every invocation.
    #[must_use]
    pub fn materialize(&self) -> Vec<AttentionInputs> {
        self.entries.iter().map(TraceEntry::materialize).collect()
    }

    /// Serializes to the plain-text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("elsa-trace v1 d={}\n", self.d);
        for e in &self.entries {
            let p = &e.pattern;
            write!(
                out,
                "n={} relevant={} dominance={} noise={} score_scale={}",
                p.n_real, p.num_relevant, p.dominance, p.noise, p.score_scale
            )
            .expect("writing to String cannot fail");
            if p.n_queries != p.n_real {
                write!(out, " queries={}", p.n_queries).expect("writing to String cannot fail");
            }
            match p.structure {
                TargetStructure::Global => {}
                TargetStructure::Local { window } => {
                    write!(out, " local={window}").expect("writing to String cannot fail");
                }
                TargetStructure::Passage { passage_len } => {
                    write!(out, " passage={passage_len}").expect("writing to String cannot fail");
                }
            }
            writeln!(out, " seed={}", e.seed).expect("writing to String cannot fail");
        }
        out
    }

    /// Parses the plain-text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on a malformed header, unknown fields,
    /// unparsable values, or an entry the generator cannot materialize
    /// ([`AttentionPatternConfig::validate`]).
    pub fn from_text(text: &str) -> Result<Self, ParseTraceError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(ParseTraceError {
            line: 0,
            message: "empty trace".into(),
        })?;
        let d = header
            .strip_prefix("elsa-trace v1 d=")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or(ParseTraceError { line: 0, message: format!("bad header {header:?}") })?;
        let mut entries = Vec::new();
        for (idx, line) in lines.enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let mut n = None;
            let mut relevant = None;
            let mut dominance = None;
            let mut noise = None;
            let mut score_scale = None;
            let mut seed = None;
            let mut queries = None;
            let mut local = None;
            let mut passage = None;
            for field in line.split_whitespace() {
                let (key, value) = field.split_once('=').ok_or(ParseTraceError {
                    line: line_no,
                    message: format!("field {field:?} missing '='"),
                })?;
                let bad = |msg: &str| ParseTraceError { line: line_no, message: msg.into() };
                match key {
                    "n" => n = Some(value.parse().map_err(|_| bad("bad n"))?),
                    "relevant" => relevant = Some(value.parse().map_err(|_| bad("bad relevant"))?),
                    "dominance" => dominance = Some(value.parse().map_err(|_| bad("bad dominance"))?),
                    "noise" => noise = Some(value.parse().map_err(|_| bad("bad noise"))?),
                    "score_scale" => {
                        score_scale = Some(value.parse().map_err(|_| bad("bad score_scale"))?);
                    }
                    "seed" => seed = Some(value.parse().map_err(|_| bad("bad seed"))?),
                    "queries" => queries = Some(value.parse().map_err(|_| bad("bad queries"))?),
                    "local" => local = Some(value.parse().map_err(|_| bad("bad local"))?),
                    "passage" => passage = Some(value.parse().map_err(|_| bad("bad passage"))?),
                    other => {
                        return Err(ParseTraceError {
                            line: line_no,
                            message: format!("unknown field {other:?}"),
                        })
                    }
                }
            }
            let missing = |msg: &str| ParseTraceError { line: line_no, message: msg.into() };
            let n_value: usize = n.ok_or_else(|| missing("missing n"))?;
            let structure = match (local, passage) {
                (None, None) => TargetStructure::Global,
                (Some(window), None) => TargetStructure::Local { window },
                (None, Some(passage_len)) => TargetStructure::Passage { passage_len },
                (Some(_), Some(_)) => {
                    return Err(missing("at most one of local=/passage= per entry"))
                }
            };
            let pattern = AttentionPatternConfig {
                n_real: n_value,
                n_queries: queries.unwrap_or(n_value),
                d,
                num_relevant: relevant.ok_or_else(|| missing("missing relevant"))?,
                dominance: dominance.ok_or_else(|| missing("missing dominance"))?,
                noise: noise.ok_or_else(|| missing("missing noise"))?,
                score_scale: score_scale.ok_or_else(|| missing("missing score_scale"))?,
                structure,
            };
            let seed = seed.ok_or_else(|| missing("missing seed"))?;
            pattern.validate().map_err(missing)?;
            entries.push(TraceEntry { pattern, seed });
        }
        Ok(Self { d, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ModelKind};

    fn workload() -> Workload {
        Workload { model: ModelKind::BertLarge, dataset: DatasetKind::SquadV11 }
    }

    #[test]
    fn record_and_materialize() {
        let mut rng = SeededRng::new(1);
        let trace = WorkloadTrace::record(&workload(), 4, &mut rng);
        assert_eq!(trace.entries.len(), 4);
        let inputs = trace.materialize();
        assert_eq!(inputs.len(), 4);
        for (inv, entry) in inputs.iter().zip(&trace.entries) {
            assert_eq!(inv.num_keys(), entry.pattern.n_real);
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let mut rng = SeededRng::new(2);
        let trace = WorkloadTrace::record(&workload(), 5, &mut rng);
        let text = trace.to_text();
        let back = WorkloadTrace::from_text(&text).expect("parses");
        assert_eq!(trace, back);
        // And materialization is bit-identical.
        assert_eq!(trace.materialize(), back.materialize());
    }

    #[test]
    fn replay_is_deterministic() {
        let mut rng = SeededRng::new(3);
        let trace = WorkloadTrace::record(&workload(), 2, &mut rng);
        assert_eq!(trace.materialize(), trace.materialize());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WorkloadTrace::from_text("").is_err());
        assert!(WorkloadTrace::from_text("not a trace\n").is_err());
        let err = WorkloadTrace::from_text("elsa-trace v1 d=64\nn=10 bogus=3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown field"));
        let err = WorkloadTrace::from_text("elsa-trace v1 d=64\nn=banana\n").unwrap_err();
        assert!(err.message.contains("bad n"));
        let err = WorkloadTrace::from_text("elsa-trace v1 d=64\nn=10\n").unwrap_err();
        assert!(err.message.contains("missing"));
        // Entries the generator cannot materialize fail on their own line:
        // more relevant keys than keys, none, no keys, no queries, and more
        // queries than document positions under `local=`.
        let rest = "dominance=1 noise=0.5 score_scale=5 seed=1";
        for (fields, reason) in [
            ("n=10 relevant=20", "num_relevant"),
            ("n=10 relevant=0", "num_relevant"),
            ("n=0 relevant=1", "dimensions"),
            ("n=10 relevant=2 queries=0", "n_queries"),
            ("n=10 relevant=2 queries=20 local=4", "Local"),
        ] {
            let text = format!("elsa-trace v1 d=64\nn=16 relevant=2 {rest}\n{fields} {rest}\n");
            let err = WorkloadTrace::from_text(&text).unwrap_err();
            assert_eq!(err.line, 2, "{fields}");
            assert!(err.message.contains(reason), "{fields}: {}", err.message);
        }
        // Non-finite scalars, from which every query would be NaN or infinite.
        for (from, to) in [
            ("noise=0.5", "noise=nan"),
            ("dominance=1", "dominance=inf"),
            ("score_scale=5", "score_scale=-inf"),
        ] {
            let text = format!(
                "elsa-trace v1 d=64\nn=16 relevant=2 {rest}\nn=10 relevant=2 {}\n",
                rest.replace(from, to)
            );
            let err = WorkloadTrace::from_text(&text).unwrap_err();
            assert_eq!(err.line, 2, "{to}");
            assert!(err.message.contains("finite"), "{to}: {}", err.message);
        }
    }

    #[test]
    fn default_pattern_serializes_without_longctx_fields() {
        // Traces recorded before `queries=`/`local=`/`passage=` existed must
        // keep serializing byte-identically: the optional fields only appear
        // for non-default values.
        let mut rng = SeededRng::new(7);
        let trace = WorkloadTrace::record(&workload(), 2, &mut rng);
        let text = trace.to_text();
        for field in ["queries=", "local=", "passage="] {
            assert!(!text.contains(field), "unexpected {field} in {text}");
        }
    }

    #[test]
    fn longctx_fields_round_trip() {
        let base = AttentionPatternConfig::new(4096, 64, 8, 2.0);
        let patterns = [
            AttentionPatternConfig { n_queries: 8, ..base },
            AttentionPatternConfig {
                n_queries: 8,
                structure: TargetStructure::Local { window: 512 },
                ..base
            },
            AttentionPatternConfig {
                n_queries: 4,
                structure: TargetStructure::Passage { passage_len: 256 },
                ..base
            },
        ];
        let trace = WorkloadTrace {
            d: 64,
            entries: patterns.iter().map(|&pattern| TraceEntry { pattern, seed: 9 }).collect(),
        };
        let text = trace.to_text();
        assert!(text.contains("queries=8") && text.contains("local=512"));
        assert!(text.contains("queries=4") && text.contains("passage=256"));
        let back = WorkloadTrace::from_text(&text).expect("parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn conflicting_structure_fields_rejected() {
        let err = WorkloadTrace::from_text(
            "elsa-trace v1 d=64\n\
             n=64 relevant=2 dominance=1 noise=0.5 score_scale=5 local=8 passage=8 seed=1\n",
        )
        .unwrap_err();
        assert!(err.message.contains("at most one"), "{}", err.message);
    }

    #[test]
    fn blank_lines_tolerated() {
        let mut rng = SeededRng::new(4);
        let trace = WorkloadTrace::record(&workload(), 1, &mut rng);
        let text = format!("{}\n\n", trace.to_text());
        assert_eq!(WorkloadTrace::from_text(&text).expect("parses"), trace);
    }

    #[test]
    fn error_display_nonempty() {
        let err = WorkloadTrace::from_text("").unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    mod round_trip_props {
        use super::*;
        use elsa_testkit::prelude::*;

        props! {
            config: Config::with_cases(48);

            // `to_text` → `from_text` is the identity for any recorded
            // trace, across every workload of the evaluation.
            fn recorded_trace_round_trips(
                seed in ints_u64(0, 1 << 32),
                count in ints(1, 6),
                widx in ints(0, 12),
            ) {
                let workload = Workload::all()[widx];
                let mut rng = SeededRng::new(seed);
                let trace = WorkloadTrace::record(&workload, count, &mut rng);
                let text = trace.to_text();
                let back = match WorkloadTrace::from_text(&text) {
                    Ok(back) => back,
                    Err(e) => return Err(CaseError::Fail(format!("parse failed: {e}"))),
                };
                prop_assert_eq!(&trace, &back);
                prop_assert_eq!(trace.materialize(), back.materialize());
            }

            // Arbitrary pattern fields survive the text format too: `{}`
            // float formatting is shortest-round-trip, so no precision is
            // lost even for awkward values.
            fn arbitrary_entries_round_trip(
                n in ints(1, 600),
                relevant_frac in range(0.0, 1.0),
                dominance in range_f32(-8.0, 8.0),
                noise in range_f32(0.0, 4.0),
                score_scale in range_f32(-20.0, 20.0),
                seed in ints_u64(0, u64::MAX),
            ) {
                let pattern = AttentionPatternConfig {
                    n_real: n,
                    n_queries: n,
                    d: 64,
                    num_relevant: 1 + (relevant_frac * (n - 1) as f64) as usize,
                    dominance,
                    noise,
                    score_scale,
                    structure: TargetStructure::Global,
                };
                let trace = WorkloadTrace { d: 64, entries: vec![TraceEntry { pattern, seed }] };
                let back = match WorkloadTrace::from_text(&trace.to_text()) {
                    Ok(back) => back,
                    Err(e) => return Err(CaseError::Fail(format!("parse failed: {e}"))),
                };
                prop_assert_eq!(&trace, &back);
            }

            // Truncating the serialized text inside the last entry (before
            // its trailing `seed=` field) always surfaces a
            // `ParseTraceError` naming that line — never a silently shorter
            // trace.
            fn truncated_text_is_a_parse_error(
                seed in ints_u64(0, 1 << 32),
                count in ints(1, 5),
            ) {
                let workload = Workload::all()[0];
                let mut rng = SeededRng::new(seed);
                let trace = WorkloadTrace::record(&workload, count, &mut rng);
                let text = trace.to_text();
                let cut = text.rfind(" seed=").expect("entries always carry a seed field");
                let err = match WorkloadTrace::from_text(&text[..cut]) {
                    Err(err) => err,
                    Ok(_) => {
                        return Err(CaseError::Fail("truncated trace parsed cleanly".into()))
                    }
                };
                prop_assert_eq!(err.line, count, "error points at the truncated entry");
                prop_assert!(
                    err.message.contains("missing seed"),
                    "unexpected message: {}",
                    err.message
                );
            }

            // The parser is total: arbitrary bytes, decoded lossily, parse
            // or return a `ParseTraceError`, and a trace that parses holds
            // only entries the generator can materialize.
            fn parsing_arbitrary_bytes_never_panics(raw in vecs(ints(0, 256), 0, 300)) {
                let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
                if let Ok(trace) = WorkloadTrace::from_text(&String::from_utf8_lossy(&bytes)) {
                    for entry in &trace.entries {
                        prop_assert!(entry.pattern.validate().is_ok(), "{entry:?}");
                    }
                }
            }

            // Entry lines dense in the format's own tokens (the header, the
            // field names, `=`, digits, `nan`, `inf`, `-`, `.`, spaces and
            // newlines) after a well-formed header, so every case reaches
            // the field and value parsers.
            fn parsing_trace_shaped_soup_never_panics(raw in vecs(ints(0, 64), 0, 200)) {
                let tricky: [&str; 28] = [
                    "elsa-trace v1 d=", "n", "relevant", "dominance", "noise", "score_scale",
                    "seed", "queries", "local", "passage", "=", "0", "1", "2", "3", "4", "5",
                    "6", "7", "8", "9", "nan", "inf", "-", ".", " ", " ", "\n",
                ];
                let mut text = String::from("elsa-trace v1 d=64\n");
                for &i in &raw {
                    text.push_str(tricky[i % tricky.len()]);
                }
                if let Ok(trace) = WorkloadTrace::from_text(&text) {
                    for entry in &trace.entries {
                        prop_assert!(entry.pattern.validate().is_ok(), "{entry:?}");
                    }
                }
            }
        }
    }
}
