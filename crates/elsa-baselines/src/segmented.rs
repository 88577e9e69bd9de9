//! Segmented attention — the status-quo workaround ELSA's introduction
//! criticizes (§I): "When the input text has more than 512 tokens, the
//! input text needs to be divided into multiple segments …, and the
//! self-attention is separately applied for each segment. Unfortunately,
//! such a scheme makes NLP models unable to capture the relation between
//! two tokens that do not belong to the same segment."
//!
//! Implemented here as a baseline so the repository can quantify exactly
//! that failure: each query attends only to keys inside its own fixed-size
//! segment.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::SelectionStats;
use elsa_linalg::Matrix;

/// Fixed-size segment attention.
///
/// # Examples
///
/// ```
/// use elsa_baselines::SegmentedAttention;
/// let seg = SegmentedAttention::new(4);
/// assert_eq!(seg.segment_of(5), 1);
/// assert_eq!(seg.segment_range(1, 10), (4, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedAttention {
    segment_len: usize,
}

impl SegmentedAttention {
    /// Segments of `segment_len` tokens (the last segment may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `segment_len == 0`.
    #[must_use]
    pub fn new(segment_len: usize) -> Self {
        assert!(segment_len > 0, "segments must be nonempty");
        Self { segment_len }
    }

    /// Which segment position `i` belongs to.
    #[must_use]
    pub const fn segment_of(&self, i: usize) -> usize {
        i / self.segment_len
    }

    /// `[start, end)` key range of segment `s` for an `n`-token input.
    #[must_use]
    pub fn segment_range(&self, s: usize, n: usize) -> (usize, usize) {
        let start = s * self.segment_len;
        (start.min(n), ((s + 1) * self.segment_len).min(n))
    }

    /// Candidate sets: each query sees exactly its own segment.
    #[must_use]
    pub fn candidates(&self, inputs: &AttentionInputs) -> (Vec<Vec<usize>>, SelectionStats) {
        let n = inputs.num_keys();
        let nq = inputs.num_queries();
        let candidates: Vec<Vec<usize>> = (0..nq)
            .map(|i| {
                let (lo, hi) = self.segment_range(self.segment_of(i.min(n - 1)), n);
                (lo..hi).collect()
            })
            .collect();
        let stats = crate::selection_stats(&candidates, n, 0);
        (candidates, stats)
    }

    /// Forward pass (exact attention within each segment).
    #[must_use]
    pub fn forward(&self, inputs: &AttentionInputs) -> (Matrix, SelectionStats) {
        let (cands, stats) = self.candidates(inputs);
        (exact::attention_with_candidates(inputs, &cands, 1.0), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsa_linalg::SeededRng;

    #[test]
    fn segment_geometry() {
        let seg = SegmentedAttention::new(8);
        assert_eq!(seg.segment_of(0), 0);
        assert_eq!(seg.segment_of(7), 0);
        assert_eq!(seg.segment_of(8), 1);
        assert_eq!(seg.segment_range(2, 20), (16, 20)); // truncated tail
    }

    #[test]
    fn candidates_stay_within_segment() {
        let seg = SegmentedAttention::new(4);
        let mut rng = SeededRng::new(1);
        let m = |rng: &mut SeededRng| Matrix::from_fn(10, 8, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(m(&mut rng), m(&mut rng), m(&mut rng));
        let (cands, stats) = seg.candidates(&inputs);
        assert_eq!(cands[0], vec![0, 1, 2, 3]);
        assert_eq!(cands[5], vec![4, 5, 6, 7]);
        assert_eq!(cands[9], vec![8, 9]); // short tail segment
        assert_eq!(stats.selected_pairs, 4 * 4 + 4 * 4 + 2 * 2);
    }

    #[test]
    fn within_segment_attention_is_exact() {
        // If all relevance lives inside segments, segmentation is lossless.
        let seg = SegmentedAttention::new(4);
        let mut rng = SeededRng::new(2);
        let n = 8;
        let d = 16;
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            // Attend strongly to a key in the same segment.
            let target = (i / 4) * 4 + ((i + 1) % 4);
            for c in 0..d {
                q[(i, c)] = 4.0 * k[(target, c)];
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let (out, _) = seg.forward(&inputs);
        let exact_out = exact::attention(&inputs);
        // Cross-segment softmax tails are ~0, so outputs nearly coincide.
        assert!(exact_out.relative_frobenius_error(&out) < 0.02);
    }

    #[test]
    fn cross_segment_relations_are_lost() {
        // The §I failure: relevance planted in a *different* segment.
        let seg = SegmentedAttention::new(4);
        let mut rng = SeededRng::new(3);
        let n = 16;
        let d = 16;
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            let target = (i + 8) % n; // two segments away
            for c in 0..d {
                q[(i, c)] = 4.0 * k[(target, c)];
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let (out, _) = seg.forward(&inputs);
        let exact_out = exact::attention(&inputs);
        assert!(exact_out.relative_frobenius_error(&out) > 0.5);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn rejects_zero_segment() {
        let _ = SegmentedAttention::new(0);
    }
}
