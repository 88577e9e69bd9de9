//! Cycle-level performance model of the ELSA pipeline (§IV-D, Fig. 9).
//!
//! The execution phase is simulated with an explicit per-query scan/queue/
//! drain loop over the banked candidate-selection → attention-computation
//! datapath. The paper's closed-form bound
//! `max(3d^{4/3}/m_h, n/(P_a·P_c), c, d/m_o)` is implemented alongside
//! ([`closed_form_query_cycles`]) and the test-suite checks the detailed
//! simulation never beats it and stays within one scan-latency of it.
//!
//! Pipelining across queries follows Fig. 9: while the selection/attention
//! stages work on query *i*, the hash module computes the hash of query
//! *i+1* and the output division module divides query *i−1*. The
//! steady-state initiation interval of the pipeline is therefore the maximum
//! of the four stage times, and the division of the final query drains after
//! the loop.

use crate::config::AcceleratorConfig;

/// Cycle counts of one self-attention invocation on one ELSA accelerator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CycleReport {
    /// Preprocessing phase: key hashing (+ first query hash) and key norms.
    pub preprocessing: u64,
    /// Execution phase: sum of per-query initiation intervals.
    pub execution: u64,
    /// Drain of the output division module for the last query.
    pub drain: u64,
    /// Per-query initiation intervals (empty if aggregation was requested).
    pub per_query: Vec<u64>,
    /// How many queries were bottlenecked by each stage
    /// `[hash, scan, attention, division]`.
    pub bottleneck_counts: [u64; 4],
}

impl CycleReport {
    /// Total cycles for the invocation.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.preprocessing + self.execution + self.drain
    }

    /// Wall-clock seconds at the configured clock.
    #[must_use]
    pub fn seconds(&self, config: &AcceleratorConfig) -> f64 {
        self.total() as f64 * config.cycle_time_s()
    }

    /// Fraction of total time spent preprocessing (the hatched portion of
    /// Fig. 11(b)).
    #[must_use]
    pub fn preprocessing_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.preprocessing as f64 / self.total() as f64
        }
    }
}

/// The paper's closed-form per-query cycle bound:
/// `max(3d^{4/3}/m_h, n/(P_a·P_c), c_max_bank, d/m_o)` where `c_max_bank` is
/// the largest number of candidates any single bank must drain.
#[must_use]
pub fn closed_form_query_cycles(
    config: &AcceleratorConfig,
    n: usize,
    candidates_per_bank: &[usize],
) -> u64 {
    let c_max = candidates_per_bank.iter().copied().max().unwrap_or(0) as u64;
    config
        .hash_cycles_per_vector()
        .max(config.scan_cycles(n))
        .max(c_max)
        .max(config.division_cycles())
}

/// Simulates the selection→attention drain for one query in one bank.
///
/// Keys stream past the bank's `P_c` selection modules at `P_c` per cycle;
/// selected keys enter the output queue; the attention computation module
/// consumes one per cycle. Returns the cycle (from query start) at which the
/// attention module finishes the last candidate.
///
/// `candidate_positions` are the *within-bank* indices (0-based scan order)
/// of the keys that pass the threshold.
#[must_use]
pub fn simulate_bank_drain(p_c: usize, bank_keys: usize, candidate_positions: &[usize]) -> u64 {
    debug_assert!(candidate_positions.windows(2).all(|w| w[0] < w[1]));
    if candidate_positions.is_empty() {
        // The selection modules still scan every key.
        return (bank_keys as u64).div_ceil(p_c as u64);
    }
    // A key at scan position p is examined in cycle floor(p / P_c) + 1 and
    // can be consumed by the attention module in that same cycle at the
    // earliest; consumption is serialized at one per cycle.
    let mut t = 0u64;
    for &pos in candidate_positions {
        let arrival = (pos / p_c) as u64 + 1;
        t = t.max(arrival - 1) + 1; // consume one cycle after being ready
    }
    t.max((bank_keys as u64).div_ceil(p_c as u64))
}

/// Simulates the execution phase for a whole invocation.
///
/// `candidates` holds, per query, the sorted global key indices selected for
/// that query. Keys are interleaved across banks (`key j` lives in bank
/// `j % P_a`), matching a banked memory layout that balances load.
#[must_use]
pub fn simulate_execution(
    config: &AcceleratorConfig,
    n: usize,
    candidates: &[Vec<usize>],
    keep_per_query: bool,
) -> CycleReport {
    config.validate();
    let bank_keys_base = n / config.p_a;
    let bank_extra = n % config.p_a;
    let hash = config.hash_cycles_per_vector();
    let scan = config.scan_cycles(n);
    let division = config.division_cycles();
    let mut report = CycleReport {
        preprocessing: config.preprocessing_cycles(n),
        drain: division,
        per_query: Vec::new(),
        ..CycleReport::default()
    };
    let mut positions: Vec<Vec<usize>> = vec![Vec::new(); config.p_a];
    for cand in candidates {
        for bank in positions.iter_mut() {
            bank.clear();
        }
        for &j in cand {
            debug_assert!(j < n, "candidate out of range");
            positions[j % config.p_a].push(j / config.p_a);
        }
        let mut attention = 0u64;
        for (b, bank) in positions.iter_mut().enumerate() {
            bank.sort_unstable();
            let bank_keys = bank_keys_base + usize::from(b < bank_extra);
            attention = attention.max(simulate_bank_drain(config.p_c, bank_keys, bank));
        }
        let ii = hash.max(scan).max(attention).max(division);
        // Bottleneck attribution (ties go to the earlier stage).
        let idx = if ii == hash {
            0
        } else if ii == scan {
            1
        } else if ii == attention {
            2
        } else {
            3
        };
        report.bottleneck_counts[idx] += 1;
        report.execution += ii;
        if keep_per_query {
            report.per_query.push(ii);
        }
    }
    report
}

/// Cycles for the same invocation on the *base* (no approximation)
/// accelerator: every key is a candidate for every query.
///
/// Every full-candidate query has the identical initiation interval, so one
/// query is simulated and scaled — `O(n)` time and memory instead of the
/// `O(n · num_queries)` candidate materialization, which is what lets the
/// serving engine's degraded charge cost a request without ever building
/// the score-matrix-shaped candidate lists.
/// (`base_scales_one_query_exactly` pins the equivalence to the
/// materialized form.)
#[must_use]
pub fn simulate_execution_base(config: &AcceleratorConfig, n: usize, num_queries: usize) -> CycleReport {
    let all: Vec<usize> = (0..n).collect();
    let one = simulate_execution(config, n, std::slice::from_ref(&all), false);
    let q = num_queries as u64;
    CycleReport {
        preprocessing: one.preprocessing,
        execution: one.execution * q,
        drain: one.drain,
        per_query: Vec::new(),
        bottleneck_counts: one.bottleneck_counts.map(|c| c * q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }

    #[test]
    fn empty_candidates_still_scan() {
        // Even with nothing selected, the selection modules walk all keys.
        let drain = simulate_bank_drain(8, 128, &[]);
        assert_eq!(drain, 16);
    }

    #[test]
    fn dense_candidates_drain_at_one_per_cycle() {
        // All 128 keys selected: attention is the bottleneck at 1/cycle.
        let all: Vec<usize> = (0..128).collect();
        let drain = simulate_bank_drain(8, 128, &all);
        // First arrival at cycle 1, then strictly serialized.
        assert_eq!(drain, 128);
    }

    #[test]
    fn sparse_candidates_bounded_by_scan() {
        // 4 candidates spread across 128 keys: scan dominates.
        let drain = simulate_bank_drain(8, 128, &[0, 40, 80, 120]);
        assert_eq!(drain, 16);
    }

    #[test]
    fn late_candidates_extend_past_scan() {
        // All candidates in the last scanned group: they arrive at cycle 16
        // and drain one per cycle afterwards.
        let drain = simulate_bank_drain(8, 128, &[120, 121, 122, 123, 124, 125, 126, 127]);
        assert_eq!(drain, 16 + 7);
    }

    #[test]
    fn base_run_matches_n_per_query_throughput() {
        // With every key a candidate, each query takes n/P_a cycles (the
        // attention modules each drain n/P_a candidates).
        let cfg = paper();
        let n = 512;
        let report = simulate_execution_base(&cfg, n, n);
        assert_eq!(report.execution, (n as u64) * (n as u64) / cfg.p_a as u64);
        assert_eq!(report.preprocessing, 3 * 513);
        assert_eq!(report.drain, 4);
    }

    #[test]
    fn detailed_sim_never_beats_closed_form() {
        let cfg = paper();
        let n = 512;
        // A skewed candidate set: everything in bank 0.
        let cand: Vec<usize> = (0..64).map(|i| i * cfg.p_a).collect();
        let report = simulate_execution(&cfg, n, std::slice::from_ref(&cand), true);
        let mut per_bank = vec![0usize; cfg.p_a];
        for &j in &cand {
            per_bank[j % cfg.p_a] += 1;
        }
        let bound = closed_form_query_cycles(&cfg, n, &per_bank);
        assert!(report.per_query[0] >= bound);
        // And stays within one scan worth of the bound.
        assert!(report.per_query[0] <= bound + cfg.scan_cycles(n));
    }

    #[test]
    fn speedup_capped_by_pipeline_min(/* §IV-D: speedup = min(n/c, bound) */) {
        let cfg = AcceleratorConfig::single_pipeline();
        let n = 512;
        // c = 16 candidates per query, evenly spread.
        let cand: Vec<usize> = (0..16).map(|i| i * 32).collect();
        let candidates = vec![cand; n];
        let approx = simulate_execution(&cfg, n, &candidates, false);
        let base = simulate_execution_base(&cfg, n, n);
        let speedup = base.execution as f64 / approx.execution as f64;
        // Scan limit: n/(P_a·P_c) = 64 cycles/query => max 8x speedup.
        assert!(speedup <= 8.05, "speedup {speedup}");
        assert!(speedup > 6.0, "speedup {speedup}");
    }

    #[test]
    fn aggressive_approximation_bottlenecked_by_selection() {
        // Very few candidates: the scan stage must dominate.
        let cfg = paper();
        let n = 512;
        let candidates: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let report = simulate_execution(&cfg, n, &candidates, false);
        assert_eq!(report.bottleneck_counts[1], n as u64);
        assert_eq!(report.execution, n as u64 * cfg.scan_cycles(n));
    }

    #[test]
    fn preprocessing_fraction_small_for_large_n(/* Fig 11(b) hatched area */) {
        let cfg = paper();
        let n = 512;
        let report = simulate_execution_base(&cfg, n, n);
        assert!(report.preprocessing_fraction() < 0.05);
    }

    #[test]
    fn base_scales_one_query_exactly() {
        // The O(n) base model must agree bit-for-bit with materializing the
        // full candidate lists, including bottleneck attribution.
        let cfg = paper();
        for (n, q) in [(512, 512), (510, 7), (33, 1), (200, 0), (1, 5)] {
            let all: Vec<usize> = (0..n).collect();
            let materialized = simulate_execution(&cfg, n, &vec![all; q], false);
            assert_eq!(simulate_execution_base(&cfg, n, q), materialized, "n={n} q={q}");
        }
    }

    #[test]
    fn uneven_banks_handled() {
        let cfg = AcceleratorConfig { n_max: 512, ..paper() };
        // n = 510 not divisible by 4: banks get 128/128/127/127... keys.
        let n = 510;
        let report = simulate_execution_base(&cfg, n, 4);
        assert!(report.execution > 0);
    }

    #[test]
    fn per_query_collection_toggle() {
        let cfg = paper();
        let candidates = vec![vec![0, 5, 9]; 3];
        let with = simulate_execution(&cfg, 512, &candidates, true);
        let without = simulate_execution(&cfg, 512, &candidates, false);
        assert_eq!(with.per_query.len(), 3);
        assert!(without.per_query.is_empty());
        assert_eq!(with.execution, without.execution);
    }
}
