//! Property-based tests (elsa-testkit) over the hardware simulator and the
//! sparse-attention baselines.
//!
//! Ported from the original proptest suite; every invariant is preserved.
//! The `candidate_positions` strategy (a random `BTreeSet` of bank slots)
//! becomes `subsets(bank_keys)`, which likewise yields sorted distinct
//! positions at varying densities.

use elsa::linalg::SeededRng;
use elsa::sim::arbiter::{simulate_bank_drain_queued, ArbiterPolicy};
use elsa::sim::cost::EnergyBreakdown;
use elsa::sim::cycle::{
    closed_form_query_cycles, simulate_bank_drain, simulate_execution,
};
use elsa::sim::AcceleratorConfig;
use elsa::baselines::SegmentedAttention;
use elsa_testkit::prelude::*;

props! {
    config: Config::with_cases(48);

    fn detailed_arbiter_with_deep_queues_matches_coarse_model(
        positions in subsets(128),
    ) {
        let coarse = simulate_bank_drain(8, 128, &positions);
        let detailed = simulate_bank_drain_queued(
            8,
            128,
            &positions,
            1 << 16,
            ArbiterPolicy::LongestQueueFirst,
        );
        prop_assert_eq!(detailed.finish_cycle, coarse);
        prop_assert_eq!(detailed.stall_cycles, 0);
    }

    fn shallow_queues_never_finish_earlier(
        positions in subsets(128),
        depth in ints(1, 4),
    ) {
        let deep = simulate_bank_drain_queued(8, 128, &positions, 1 << 16, ArbiterPolicy::LongestQueueFirst);
        let shallow = simulate_bank_drain_queued(8, 128, &positions, depth, ArbiterPolicy::LongestQueueFirst);
        prop_assert!(shallow.finish_cycle >= deep.finish_cycle);
        // And both consume every candidate: finish bounded by scan + count.
        prop_assert!(shallow.finish_cycle <= (16 + positions.len() + 8) as u64 * 2);
    }

    fn execution_respects_closed_form_bound(
        seed in ints_u64(0, 10_000),
        count in ints(1, 256),
    ) {
        let cfg = AcceleratorConfig::paper();
        let n = 512;
        let mut rng = SeededRng::new(seed);
        let mut cand = rng.sample_indices(n, count);
        cand.sort_unstable();
        let mut per_bank = vec![0usize; cfg.p_a];
        for &j in &cand {
            per_bank[j % cfg.p_a] += 1;
        }
        let bound = closed_form_query_cycles(&cfg, n, &per_bank);
        let report = simulate_execution(&cfg, n, &[cand], true);
        prop_assert!(report.per_query[0] >= bound);
        prop_assert!(report.per_query[0] <= bound + cfg.scan_cycles(n));
    }

    fn energy_monotone_in_candidate_count(
        seed in ints_u64(0, 1000),
        c_small in ints(1, 100),
        extra in ints(1, 100),
    ) {
        let cfg = AcceleratorConfig::paper();
        let n = 512;
        let mut rng = SeededRng::new(seed);
        let mut small = rng.sample_indices(n, c_small);
        small.sort_unstable();
        let mut large = rng.sample_indices(n, (c_small + extra).min(n));
        large.sort_unstable();
        let small_report = simulate_execution(&cfg, n, &vec![small; 8], false);
        let large_report = simulate_execution(&cfg, n, &vec![large; 8], false);
        let e_small = EnergyBreakdown::from_run(&cfg, &small_report, 8, 8 * c_small, n);
        let e_large = EnergyBreakdown::from_run(&cfg, &large_report, 8, 8 * (c_small + extra).min(n), n);
        prop_assert!(e_large.total_j() >= e_small.total_j());
    }

    fn segmented_candidates_partition_consistently(
        n in ints(2, 200),
        seg_len in ints(1, 64),
    ) {
        let seg = SegmentedAttention::new(seg_len);
        for i in 0..n {
            let s = seg.segment_of(i);
            let (lo, hi) = seg.segment_range(s, n);
            prop_assert!(lo <= i && i < hi.max(lo + 1), "i={i} not in its own segment");
        }
        // Segment ranges tile [0, n).
        let mut covered = 0usize;
        let mut s = 0usize;
        loop {
            let (lo, hi) = seg.segment_range(s, n);
            if lo >= n {
                break;
            }
            prop_assert_eq!(lo, covered);
            covered = hi;
            s += 1;
        }
        prop_assert_eq!(covered, n);
    }

    fn preprocessing_formula_holds(n in ints(1, 2048), m_h in ints(1, 512)) {
        let cfg = AcceleratorConfig {
            m_h,
            n_max: 2048,
            ..AcceleratorConfig::paper()
        };
        let per_vec = 768u64.div_ceil(m_h as u64);
        prop_assert_eq!(cfg.preprocessing_cycles(n), per_vec * (n as u64 + 1));
    }
}
