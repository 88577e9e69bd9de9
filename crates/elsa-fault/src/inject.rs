//! Applying a planned corruption to an accelerator result.
//!
//! Injection is as deterministic as the decision to inject: the corrupted
//! element position is drawn from the plan's site stream for the same
//! `(unit, request)`, so a replayed seed reproduces not just *that* a result
//! was corrupted but *which element* was hit.

use elsa_linalg::Matrix;
use elsa_sim::RunReport;

use crate::plan::{CorruptionKind, FaultPlan, DOMAIN_INJECT};

/// The saturation sentinel: the fixed-point accumulator's ceiling mapped
/// into `f32`. A served attention output is a convex combination of value
/// rows, so any element at or beyond this magnitude can only come from a
/// saturated datapath — the serving guard treats it like a non-finite
/// value.
pub const SATURATION_LIMIT: f32 = f32::MAX;

/// The poisoned scalar a [`CorruptionKind`] writes into the output
/// (`None` for [`CorruptionKind::EmptyCandidates`], which corrupts the
/// candidate set instead of the output matrix).
#[must_use]
pub fn corrupted_value(kind: CorruptionKind) -> Option<f32> {
    match kind {
        CorruptionKind::Nan => Some(f32::NAN),
        CorruptionKind::PosInf => Some(f32::INFINITY),
        CorruptionKind::NegInf => Some(f32::NEG_INFINITY),
        CorruptionKind::SaturatedFixed => Some(SATURATION_LIMIT),
        CorruptionKind::EmptyCandidates => None,
    }
}

/// Writes `kind`'s poison into one deterministically chosen element of `m`.
pub fn corrupt_matrix(
    m: &mut Matrix,
    kind: CorruptionKind,
    plan: &FaultPlan,
    unit: usize,
    request: usize,
) {
    let Some(poison) = corrupted_value(kind) else { return };
    let elements = m.rows() * m.cols();
    if elements == 0 {
        return;
    }
    let mut rng = plan.site_rng(DOMAIN_INJECT, &[unit as u64, request as u64]);
    let pos = rng.index(elements);
    let cols = m.cols();
    m[(pos / cols, pos % cols)] = poison;
}

/// Applies a planned corruption to a finished [`RunReport`]: value-level
/// kinds poison the output matrix; [`CorruptionKind::EmptyCandidates`]
/// models a corrupted hash signature by zeroing the selection statistics
/// (the serving engine's numeric guard treats `selected_pairs == 0` as an
/// untrustworthy candidate set).
pub fn corrupt_report(
    report: &mut RunReport,
    kind: CorruptionKind,
    plan: &FaultPlan,
    unit: usize,
    request: usize,
) {
    match kind {
        CorruptionKind::EmptyCandidates => {
            report.stats.selected_pairs = 0;
        }
        _ => corrupt_matrix(&mut report.output, kind, plan, unit, request),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRates;

    #[test]
    fn injection_is_replayable() {
        let plan = FaultPlan::seeded(9, FaultRates { corrupt: 1.0, ..FaultRates::none() });
        let mut a = Matrix::zeros(8, 8);
        let mut b = Matrix::zeros(8, 8);
        corrupt_matrix(&mut a, CorruptionKind::PosInf, &plan, 2, 5);
        corrupt_matrix(&mut b, CorruptionKind::PosInf, &plan, 2, 5);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.as_slice().iter().filter(|v| !v.is_finite()).count(), 1);
    }

    #[test]
    fn different_sites_hit_different_elements() {
        let plan = FaultPlan::seeded(9, FaultRates { corrupt: 1.0, ..FaultRates::none() });
        let hit = |unit: usize, request: usize| {
            let mut m = Matrix::zeros(16, 16);
            corrupt_matrix(&mut m, CorruptionKind::Nan, &plan, unit, request);
            m.as_slice().iter().position(|v| v.is_nan()).expect("one poisoned element")
        };
        let positions: std::collections::BTreeSet<usize> =
            (0..32).map(|r| hit(0, r)).collect();
        assert!(positions.len() > 16, "only {} distinct positions", positions.len());
    }

    #[test]
    fn poison_values_trip_the_saturation_guard() {
        for kind in [
            CorruptionKind::Nan,
            CorruptionKind::PosInf,
            CorruptionKind::NegInf,
            CorruptionKind::SaturatedFixed,
        ] {
            let v = corrupted_value(kind).expect("value-level kind");
            // The single guard predicate used by the serving path.
            assert!(!(v.abs() < SATURATION_LIMIT), "{kind:?} evades the guard");
        }
        assert_eq!(corrupted_value(CorruptionKind::EmptyCandidates), None);
    }
}
