//! Sanity checks on candidate sets and attention outputs.
//!
//! The candidate selection module is the one place where a corrupted hash
//! signature or a saturated similarity can silently change *which* keys are
//! attended: a flipped hash bit yields wrong-but-plausible candidates, and a
//! corrupted LUT output can empty the candidate set entirely (the arg-max
//! fallback in [`ElsaAttention::select_candidates`] protects the software
//! operator, but a faulty hardware unit bypasses it). These checks are the
//! serving-time guards: a violation means the approximate pipeline cannot be
//! trusted for this request and the dispatcher must degrade to exact
//! attention (see `elsa-serve`'s `NodeEngine` dispatch loop).
//!
//! [`ElsaAttention::select_candidates`]: crate::ElsaAttention::select_candidates

use std::fmt;

use elsa_linalg::Matrix;

/// A structural violation in a per-query candidate list set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateFault {
    /// The number of candidate lists differs from the number of queries.
    CountMismatch {
        /// Candidate lists provided.
        lists: usize,
        /// Queries in the invocation.
        queries: usize,
    },
    /// A query ended up with no candidates at all (softmax undefined).
    Empty {
        /// The offending query index.
        query: usize,
    },
    /// A candidate index refers past the key matrix.
    OutOfRange {
        /// The offending query index.
        query: usize,
        /// The out-of-range key index.
        index: usize,
        /// Number of keys in the invocation.
        num_keys: usize,
    },
    /// A candidate list is not strictly increasing (duplicate or unsorted
    /// entries — selection scans keys in order, so order is an invariant).
    Unordered {
        /// The offending query index.
        query: usize,
    },
}

impl fmt::Display for CandidateFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CandidateFault::CountMismatch { lists, queries } => {
                write!(f, "{lists} candidate lists for {queries} queries")
            }
            CandidateFault::Empty { query } => {
                write!(f, "query {query} has an empty candidate set")
            }
            CandidateFault::OutOfRange { query, index, num_keys } => {
                write!(f, "query {query} selects key {index} of only {num_keys}")
            }
            CandidateFault::Unordered { query } => {
                write!(f, "query {query} has an unordered or duplicated candidate list")
            }
        }
    }
}

impl std::error::Error for CandidateFault {}

/// Validates the structural invariants of a candidate set: one non-empty,
/// strictly increasing, in-range list per query.
///
/// # Errors
///
/// Returns the first [`CandidateFault`] found, scanning queries in order.
pub fn check_candidates(
    candidates: &[Vec<usize>],
    num_queries: usize,
    num_keys: usize,
) -> Result<(), CandidateFault> {
    if candidates.len() != num_queries {
        return Err(CandidateFault::CountMismatch { lists: candidates.len(), queries: num_queries });
    }
    for (query, list) in candidates.iter().enumerate() {
        if list.is_empty() {
            return Err(CandidateFault::Empty { query });
        }
        let mut prev: Option<usize> = None;
        for &index in list {
            if index >= num_keys {
                return Err(CandidateFault::OutOfRange { query, index, num_keys });
            }
            if prev.is_some_and(|p| p >= index) {
                return Err(CandidateFault::Unordered { query });
            }
            prev = Some(index);
        }
    }
    Ok(())
}

/// Position and value of the first non-finite element of an output matrix,
/// scanning in row-major order; `None` when every element is finite.
#[must_use]
pub fn first_non_finite(m: &Matrix) -> Option<(usize, usize, f32)> {
    let cols = m.cols();
    m.as_slice()
        .iter()
        .position(|v| !v.is_finite())
        .map(|pos| (pos / cols, pos % cols, m.as_slice()[pos]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_candidate_sets_pass() {
        let cands = vec![vec![0, 2, 5], vec![1], vec![3, 4]];
        assert_eq!(check_candidates(&cands, 3, 6), Ok(()));
    }

    #[test]
    fn structural_violations_are_reported_in_order() {
        assert_eq!(
            check_candidates(&[vec![0]], 2, 4),
            Err(CandidateFault::CountMismatch { lists: 1, queries: 2 })
        );
        assert_eq!(
            check_candidates(&[vec![0], vec![]], 2, 4),
            Err(CandidateFault::Empty { query: 1 })
        );
        assert_eq!(
            check_candidates(&[vec![0, 9]], 1, 4),
            Err(CandidateFault::OutOfRange { query: 0, index: 9, num_keys: 4 })
        );
        assert_eq!(
            check_candidates(&[vec![2, 2]], 1, 4),
            Err(CandidateFault::Unordered { query: 0 })
        );
        assert_eq!(
            check_candidates(&[vec![3, 1]], 1, 4),
            Err(CandidateFault::Unordered { query: 0 })
        );
    }

    #[test]
    fn finite_scan_finds_first_bad_element() {
        let mut m = Matrix::zeros(3, 4);
        assert_eq!(first_non_finite(&m), None);
        m[(2, 1)] = f32::NEG_INFINITY;
        m[(1, 3)] = f32::NAN;
        let (r, c, v) = first_non_finite(&m).expect("bad element");
        assert_eq!((r, c), (1, 3));
        assert!(v.is_nan());
    }

    #[test]
    fn operator_candidates_always_pass_sanity() {
        use crate::attention::{ElsaAttention, ElsaParams};
        use elsa_attention::exact::AttentionInputs;
        use elsa_linalg::SeededRng;

        let mut rng = SeededRng::new(91);
        let n = 48;
        let mk = |rng: &mut SeededRng| {
            Matrix::from_fn(n, 64, |_, _| rng.standard_normal() as f32)
        };
        let inputs = AttentionInputs::new(mk(&mut rng), mk(&mut rng), mk(&mut rng));
        let elsa = ElsaAttention::with_threshold(ElsaParams::for_dims(64, 64, &mut rng), 0.4);
        let (cands, _) = elsa.candidates(&inputs);
        assert_eq!(check_candidates(&cands, n, n), Ok(()));
    }
}
