//! Closed-form service-time estimation for admission control.
//!
//! The dispatcher's *exact* cost for a request is the cycle-accurate
//! simulation in `crates/elsa-sim` — but an admission controller sometimes
//! needs a cost **before** the simulation runs (capacity planning, the
//! λ-sweep in `bench_serve`, sanity bounds in tests). [`ServiceEstimator`]
//! closes that gap with the paper's closed-form per-query bound
//! (`elsa_sim::cycle::closed_form_query_cycles`): assume a uniform candidate
//! fraction `ρ`, charge `n` pipelined queries at the bound plus
//! preprocessing and drain, and convert cycles to seconds at the configured
//! clock.
//!
//! The estimate is monotone in `n` and deliberately simple; the SLO
//! shedding decision in the event loop uses the *measured* per-request
//! service time instead, so the estimator can stay a planning tool.

use elsa_sim::cycle::closed_form_query_cycles;
use elsa_sim::AcceleratorConfig;

/// Analytic per-request service-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceEstimator {
    config: AcceleratorConfig,
    candidate_fraction: f64,
}

impl ServiceEstimator {
    /// Builds an estimator assuming each query selects `candidate_fraction`
    /// of the keys (clamped to `[0, 1]`).
    #[must_use]
    pub fn new(config: AcceleratorConfig, candidate_fraction: f64) -> Self {
        Self { config, candidate_fraction: candidate_fraction.clamp(0.0, 1.0) }
    }

    /// The hardware configuration being modeled.
    #[must_use]
    pub const fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Assumed candidates per bank for an `n`-key request: `ρ·n` selected
    /// keys spread evenly over the `P_a` banks, rounded up.
    #[must_use]
    pub fn candidates_per_bank(&self, n: usize) -> usize {
        // elsa-lint: allow(arithmetic-headroom) reason="rho is clamped to [0, 1] so ceil(rho*n) <= n fits usize, and float->int `as` saturates at the bounds regardless"
        let selected = (self.candidate_fraction * n as f64).ceil() as usize;
        selected.div_ceil(self.config.p_a)
    }

    /// Estimated total cycles for an `n`-entity invocation (`n` queries
    /// over `n` keys): preprocessing + `n` pipelined queries at the
    /// closed-form initiation interval + the final division drain — a decode
    /// step that appends the whole context to an empty cache.
    #[must_use]
    pub fn invocation_cycles(&self, n: usize) -> u64 {
        self.decode_step_cycles(n, n, false)
    }

    /// Estimated service seconds for an `n`-entity invocation.
    #[must_use]
    pub fn service_s(&self, n: usize) -> f64 {
        self.invocation_cycles(n) as f64 * self.config.cycle_time_s()
    }

    /// Estimated cycles for one decode turn that appends `appended` tokens
    /// to an `n`-token context and runs `appended` queries over it.
    ///
    /// With `cached = true` the session's incremental state (SRP
    /// signatures, key norms) is resident, so preprocessing covers only the
    /// appended tokens — the `O(k)` per-step hash work of
    /// `elsa_core::session::StreamingSession::append`. With `cached = false`
    /// (first turn, or evicted state) the whole `n`-token context is
    /// re-preprocessed from scratch. [`invocation_cycles`](Self::invocation_cycles)`(n)`
    /// is `decode_step_cycles(n, n, false)`.
    #[must_use]
    pub fn decode_step_cycles(&self, n: usize, appended: usize, cached: bool) -> u64 {
        if n == 0 || appended == 0 {
            return 0;
        }
        let per_bank = vec![self.candidates_per_bank(n); self.config.p_a];
        let ii = closed_form_query_cycles(&self.config, n, &per_bank);
        let pre = self.config.preprocessing_cycles(if cached { appended } else { n });
        let steps = u64::try_from(appended).unwrap_or(u64::MAX);
        pre.saturating_add(steps.saturating_mul(ii)).saturating_add(self.config.division_cycles())
    }

    /// The offered load (requests/s of `n`-entity invocations) the whole
    /// pool can sustain: above this λ the queue grows without bound.
    ///
    /// # Panics
    ///
    /// Panics for `n = 0` (a zero-cost request has no saturation point).
    #[must_use]
    pub fn sustainable_lambda_per_s(&self, n: usize) -> f64 {
        let service = self.service_s(n);
        assert!(service > 0.0, "zero-cost request has no saturation point");
        self.config.num_accelerators as f64 / service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }

    #[test]
    fn estimate_is_monotone_in_length() {
        let est = ServiceEstimator::new(paper(), 0.25);
        let mut prev = 0.0;
        for n in [1usize, 8, 32, 64, 128, 256, 512] {
            let s = est.service_s(n);
            assert!(s > prev, "service({n}) = {s} not increasing");
            prev = s;
        }
    }

    #[test]
    fn denser_candidates_cost_no_less() {
        let sparse = ServiceEstimator::new(paper(), 0.05);
        let dense = ServiceEstimator::new(paper(), 0.9);
        for n in [64usize, 256, 512] {
            assert!(dense.service_s(n) >= sparse.service_s(n));
        }
    }

    #[test]
    fn sustainable_lambda_scales_with_pool_size() {
        let one = ServiceEstimator::new(
            AcceleratorConfig { num_accelerators: 1, ..paper() },
            0.25,
        );
        let twelve = ServiceEstimator::new(paper(), 0.25);
        let ratio = twelve.sustainable_lambda_per_s(256) / one.sustainable_lambda_per_s(256);
        assert!((ratio - 12.0).abs() < 1e-9);
    }

    #[test]
    fn uncached_full_decode_step_is_the_invocation_estimate() {
        let est = ServiceEstimator::new(paper(), 0.25);
        for n in [1usize, 64, 200, 512] {
            assert_eq!(est.decode_step_cycles(n, n, false), est.invocation_cycles(n));
        }
        assert_eq!(est.decode_step_cycles(0, 0, true), 0);
    }

    #[test]
    fn cached_decode_step_is_strictly_cheaper_for_long_contexts() {
        let est = ServiceEstimator::new(paper(), 0.25);
        for n in [2usize, 128, 200, 384, 512] {
            let hit = est.decode_step_cycles(n, 1, true);
            let miss = est.decode_step_cycles(n, 1, false);
            assert!(hit < miss, "n={n}: hit {hit} !< miss {miss}");
            // The saving is exactly the skipped key re-hashing.
            assert_eq!(
                miss - hit,
                est.config().preprocessing_cycles(n) - est.config().preprocessing_cycles(1)
            );
        }
    }

    #[test]
    fn long_context_estimates_stay_finite_and_monotone() {
        // Cost models were historically only exercised at n <= 512; the
        // longctx zoo pushes them to 64k. Widen the modeled accelerator and
        // check nothing saturates, overflows, or loses monotonicity.
        let est =
            ServiceEstimator::new(AcceleratorConfig { n_max: 65536, ..paper() }, 0.1);
        let mut prev = 0.0;
        for n in [512usize, 8192, 16384, 65536] {
            let s = est.service_s(n);
            assert!(s.is_finite() && s > prev, "service({n}) = {s} not increasing");
            assert!(est.invocation_cycles(n) > 0);
            prev = s;
        }
        // The per-query scan term makes the estimate quadratic-class: 128x
        // the length must cost far more than 128x the time.
        assert!(est.service_s(65536) / est.service_s(512) >= 128.0);
        assert!(est.sustainable_lambda_per_s(65536) > 0.0);
    }

    #[test]
    fn cycle_counts_keep_u64_headroom_at_64k() {
        // Worst case for the count: every key a candidate.
        let est =
            ServiceEstimator::new(AcceleratorConfig { n_max: 65536, ..paper() }, 1.0);
        let cycles = est.invocation_cycles(65536);
        // ~n * ii stays far below u64::MAX even with a 10^6 safety margin,
        // so no silent wraparound is possible at the new extreme.
        assert!(cycles < u64::MAX / 1_000_000, "cycles = {cycles}");
        assert_eq!(est.decode_step_cycles(65536, 65536, false), cycles);
    }

    #[test]
    fn cached_decode_saving_holds_at_64k() {
        let est =
            ServiceEstimator::new(AcceleratorConfig { n_max: 65536, ..paper() }, 0.1);
        let hit = est.decode_step_cycles(65536, 1, true);
        let miss = est.decode_step_cycles(65536, 1, false);
        assert!(hit < miss);
        assert_eq!(
            miss - hit,
            est.config().preprocessing_cycles(65536) - est.config().preprocessing_cycles(1)
        );
    }

    #[test]
    fn fraction_is_clamped() {
        let est = ServiceEstimator::new(paper(), 7.0);
        // ρ clamps to 1: every key a candidate, n/P_a per bank.
        assert_eq!(est.candidates_per_bank(512), 128);
        let none = ServiceEstimator::new(paper(), -3.0);
        assert_eq!(none.candidates_per_bank(512), 0);
        assert_eq!(none.invocation_cycles(0), 0);
    }
}
