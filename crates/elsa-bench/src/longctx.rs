//! Shared evaluation logic for the long-context rival comparison: ELSA's
//! hash-based candidate selection vs the pooled-KV compression rival
//! `elsa_baselines::PooledKvAttention`, on identical traces from
//! `elsa_workloads::longctx`.
//!
//! Both `fig10_accuracy_vs_p` (human-readable frontier section) and
//! `bench_longctx` (committed JSON) call [`frontier`], so the table and the
//! regression artifact can never drift apart.
//!
//! Fidelity is measured against the bitwise-exact attention output on the
//! same inputs, two ways: NDCG@10 over the value rows (the recommender-style
//! ranking proxy of `elsa_workloads::tasks`) and relative Frobenius error.
//! Compute is the analytic operation count of each method at the measured
//! operating point — `ApproxAttentionOps::count_queries` with the *observed*
//! candidate load for ELSA, `PooledAttentionOps::count` for the rival — so
//! the frontier is accuracy versus operation counts, not wall time (see
//! [`RivalPoint::ops_vs_exact`] for their units).

use elsa_attention::exact;
use elsa_attention::flops::{rect_attention_ops, ApproxAttentionOps};
use elsa_baselines::{PoolMode, PooledKvAttention};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::{Matrix, SeededRng};
use elsa_workloads::longctx::{LongCtxKind, LONG_LENGTHS};
use elsa_workloads::tasks::ndcg_at_k;

/// Seed of the committed long-context zoo (shared by the figure binary, the
/// JSON artifact, and the §E-LONGCTX battery).
pub const ZOO_SEED: u64 = 0x10C7_E57;

/// ELSA approximation degrees evaluated on the zoo.
pub const ELSA_P: [f64; 2] = [1.0, 4.0];

/// Pooled-KV operating points: `(budget, mode)`.
pub const POOL_POINTS: [(usize, PoolMode); 4] = [
    (64, PoolMode::Average),
    (256, PoolMode::Average),
    (1024, PoolMode::Average),
    (256, PoolMode::Max),
];

/// One rival at one operating point on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RivalPoint {
    /// Stable display label (`elsa p=1` / `pooled-avg m=256` / ...).
    pub label: String,
    /// NDCG@10 of the approximate output against the exact output.
    pub ndcg: f64,
    /// Relative Frobenius error against the exact output.
    pub frobenius_error: f64,
    /// Analytic operation count at the measured operating point.
    pub total_ops: u64,
    /// `total_ops` over the exact rectangular kernel's FLOPs. ELSA's
    /// `total_ops` counts one op per multiply-accumulate, not two, so its
    /// fraction reads about half its share of exact FLOPs.
    pub ops_vs_exact: f64,
}

/// The full rival comparison for one `(family, n)` cell of the zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Trace family name (`long-document` / `retrieval`).
    pub family: &'static str,
    /// Keys per invocation.
    pub n: usize,
    /// Queries per invocation.
    pub n_queries: usize,
    /// Exact rectangular kernel operations (the 100% compute reference).
    pub exact_ops: u64,
    /// All rivals, ELSA points first, then the pooled budgets.
    pub points: Vec<RivalPoint>,
}

/// Runs the full rival comparison over the long-context zoo: for every
/// `(family, n)` cell, one training entry calibrates ELSA's thresholds and
/// one held-out entry is scored by every rival against exact attention.
///
/// Deterministic at any `ELSA_THREADS`: trace generation is seeded, and
/// every kernel in the loop (exact, ELSA forward, pooled forward) holds the
/// repo-wide bitwise thread-independence contract.
#[must_use]
pub fn frontier() -> Vec<FrontierRow> {
    let mut rows = Vec::new();
    for kind in LongCtxKind::all() {
        for &n in &LONG_LENGTHS {
            let mut rng = SeededRng::new(ZOO_SEED).fork(rows.len() as u64);
            let trace = kind.record_trace(n, 2, &mut rng);
            let train = trace.entries[0].materialize();
            let test = trace.entries[1].materialize();
            let n_queries = test.num_queries();
            let d = test.dim();
            let reference = exact::attention(&test);
            let exact_ops = rect_attention_ops(n_queries, n, d, test.value().cols());
            let point = |label: String, out: &Matrix, total_ops: u64| RivalPoint {
                label,
                ndcg: ndcg_at_k(&reference, out, test.value(), 10),
                // `relative_frobenius_error` normalizes by `self`, so the
                // reference goes on the left: ‖ref − approx‖ / ‖ref‖.
                frobenius_error: reference.relative_frobenius_error(out),
                total_ops,
                ops_vs_exact: total_ops as f64 / exact_ops as f64,
            };
            let mut points = Vec::new();

            let params = ElsaParams::for_dims(64, 64, &mut SeededRng::new(ZOO_SEED ^ 1));
            for p in ELSA_P {
                let operator = ElsaAttention::learn(params.clone(), std::slice::from_ref(&train), p);
                let (out, stats) = operator.forward(&test);
                let ops = ApproxAttentionOps::count_queries(n_queries, n, d, stats.avg_candidates_per_query());
                points.push(point(format!("elsa p={p}"), &out, ops.total()));
            }
            for (budget, mode) in POOL_POINTS {
                let pool = PooledKvAttention::new(budget, mode);
                points.push(point(pool.label(), &pool.forward(&test).0, pool.ops(n_queries, n, d).total()));
            }

            rows.push(FrontierRow { family: kind.name(), n, n_queries, exact_ops, points });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_shape_and_determinism() {
        // The full zoo is too heavy for a debug-build unit test; pin the
        // structure on one small synthetic cell instead and leave the full
        // run to the release-mode battery and bench binary.
        let ops = rect_attention_ops(16, 8192, 64, 64);
        assert_eq!(ops, 2 * 16 * 8192 * 64 + 16 * 8192 + 2 * 16 * 8192 * 64);
        assert_eq!(ELSA_P.len() + POOL_POINTS.len(), 6);
    }
}
