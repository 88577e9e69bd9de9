//! Sliding-window (local) attention with optional global tokens — the
//! Longformer / sparse-transformer family the paper's §V-E groups under
//! "sparse attention techniques achieve very little speedup".
//!
//! Each query attends to the `window` keys on either side of its own
//! position plus the first `num_global` keys (CLS-style globals). The
//! pattern is *static*: unlike ELSA it cannot find distant relevant keys,
//! which is exactly the quality failure mode the comparison bench surfaces.

use elsa_attention::exact::{self, AttentionInputs};
use elsa_core::SelectionStats;
use elsa_linalg::Matrix;

/// Static local-window attention.
///
/// # Examples
///
/// ```
/// use elsa_baselines::LocalAttention;
/// let local = LocalAttention::new(2, 1);
/// let cands = local.window_for(5, 16);
/// assert_eq!(cands, vec![0, 3, 4, 5, 6, 7]); // global 0 + window [3..=7]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalAttention {
    window: usize,
    num_global: usize,
}

impl LocalAttention {
    /// A window of `window` keys on each side plus `num_global` global keys.
    ///
    /// # Panics
    ///
    /// Panics if both `window` and `num_global` are zero (every query would
    /// attend to nothing but itself — degenerate).
    #[must_use]
    pub fn new(window: usize, num_global: usize) -> Self {
        assert!(window > 0 || num_global > 0, "pattern must attend to something");
        Self { window, num_global }
    }

    /// The candidate set for query position `i` of `n` keys (sorted,
    /// deduplicated; always contains `i` itself).
    #[must_use]
    pub fn window_for(&self, i: usize, n: usize) -> Vec<usize> {
        let lo = i.saturating_sub(self.window);
        let hi = (i + self.window).min(n - 1);
        let mut set: Vec<usize> = (0..self.num_global.min(n)).collect();
        for j in lo..=hi {
            if !set.contains(&j) {
                set.push(j);
            }
        }
        if !set.contains(&i) {
            set.push(i);
        }
        set.sort_unstable();
        set
    }

    /// Candidate sets for a whole invocation.
    #[must_use]
    pub fn candidates(&self, inputs: &AttentionInputs) -> (Vec<Vec<usize>>, SelectionStats) {
        let n = inputs.num_keys();
        let nq = inputs.num_queries();
        let candidates: Vec<Vec<usize>> = (0..nq).map(|i| self.window_for(i.min(n - 1), n)).collect();
        let stats = crate::selection_stats(&candidates, n, 0);
        (candidates, stats)
    }

    /// Forward pass (exact attention over the static pattern).
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

    fn random_inputs(n: usize, d: usize, seed: u64) -> AttentionInputs {
        let mut rng = SeededRng::new(seed);
        let q = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        AttentionInputs::new(q, k, v)
    }

    #[test]
    fn window_clamps_at_edges() {
        let local = LocalAttention::new(3, 0);
        assert_eq!(local.window_for(0, 10), vec![0, 1, 2, 3]);
        assert_eq!(local.window_for(9, 10), vec![6, 7, 8, 9]);
    }

    #[test]
    fn globals_always_included() {
        let local = LocalAttention::new(1, 2);
        let w = local.window_for(8, 16);
        assert!(w.contains(&0) && w.contains(&1));
        assert!(w.contains(&7) && w.contains(&8) && w.contains(&9));
    }

    #[test]
    fn self_position_always_attended() {
        let local = LocalAttention::new(1, 0);
        for i in 0..12 {
            assert!(local.window_for(i, 12).contains(&i));
        }
    }

    #[test]
    fn candidate_fraction_matches_window_size() {
        let local = LocalAttention::new(8, 0);
        let inputs = random_inputs(128, 16, 1);
        let (_, stats) = local.candidates(&inputs);
        let expect = 17.0 / 128.0; // 2w+1 per interior query
        assert!((stats.candidate_fraction() - expect).abs() < 0.01);
    }

    #[test]
    fn forward_produces_finite_rows() {
        let local = LocalAttention::new(4, 1);
        let inputs = random_inputs(32, 8, 2);
        let (out, _) = local.forward(&inputs);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn misses_distant_relevant_keys() {
        // Plant the relevant key far outside the window: local attention
        // must fail where content-based selection (ELSA) succeeds.
        let n = 64;
        let d = 16;
        let mut rng = SeededRng::new(3);
        let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let mut q = Matrix::zeros(n, d);
        for i in 0..n {
            let target = (i + n / 2) % n; // always far away
            for c in 0..d {
                q[(i, c)] = 3.0 * k[(target, c)];
            }
        }
        let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let local = LocalAttention::new(4, 0);
        let (out, _) = local.forward(&inputs);
        let exact_out = exact::attention(&inputs);
        let rel = exact_out.relative_frobenius_error(&out);
        assert!(rel > 0.5, "local attention should miss distant keys, rel = {rel}");
    }

    #[test]
    #[should_panic(expected = "attend to something")]
    fn rejects_empty_pattern() {
        let _ = LocalAttention::new(0, 0);
    }
}
