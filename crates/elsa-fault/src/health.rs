//! Per-unit health tracking with quarantine.
//!
//! A production pool does not keep dispatching to a unit that keeps
//! erroring: after `quarantine_after` *consecutive* faults the tracker
//! quarantines the unit, and the dispatcher rebalances the remaining work
//! over the survivors. A success resets a unit's consecutive-fault count
//! (transient faults are forgiven; repeated ones are not).

/// Health state of a replicated accelerator pool.
///
/// # Examples
///
/// ```
/// use elsa_fault::HealthTracker;
///
/// let mut health = HealthTracker::new(3, 2);
/// health.mark_dead(0);
/// assert_eq!(health.available_units(), vec![1, 2]);
/// health.record_fault(1);
/// health.record_fault(1); // second consecutive fault => quarantined
/// assert_eq!(health.available_units(), vec![2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTracker {
    consecutive: Vec<u32>,
    total_faults: Vec<u64>,
    quarantined: Vec<bool>,
    dead: Vec<bool>,
    quarantine_after: u32,
}

impl HealthTracker {
    /// A tracker for `units` healthy units, quarantining after
    /// `quarantine_after` consecutive faults (`0` means quarantine on the
    /// first fault).
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` (an internal invariant: callers size the
    /// tracker from a validated accelerator config).
    #[must_use]
    pub fn new(units: usize, quarantine_after: u32) -> Self {
        assert!(units > 0, "need at least one unit to track");
        Self {
            consecutive: vec![0; units],
            total_faults: vec![0; units],
            quarantined: vec![false; units],
            dead: vec![false; units],
            quarantine_after: quarantine_after.max(1),
        }
    }

    /// Number of tracked units.
    #[must_use]
    pub fn units(&self) -> usize {
        self.dead.len()
    }

    /// Marks a unit permanently dead (it never returns to service).
    pub fn mark_dead(&mut self, unit: usize) {
        self.dead[unit] = true;
    }

    /// Records a fault on `unit`; returns `true` if this fault tipped the
    /// unit into quarantine.
    pub fn record_fault(&mut self, unit: usize) -> bool {
        self.total_faults[unit] += 1;
        self.consecutive[unit] += 1;
        if !self.quarantined[unit] && self.consecutive[unit] >= self.quarantine_after {
            self.quarantined[unit] = true;
            return true;
        }
        false
    }

    /// Records a successful job on `unit`, resetting its consecutive-fault
    /// count.
    pub fn record_success(&mut self, unit: usize) {
        self.consecutive[unit] = 0;
    }

    /// Whether `unit` may receive new work.
    #[must_use]
    pub fn is_available(&self, unit: usize) -> bool {
        !self.dead[unit] && !self.quarantined[unit]
    }

    /// Indices of units that may receive new work, ascending.
    #[must_use]
    pub fn available_units(&self) -> Vec<usize> {
        (0..self.units()).filter(|&u| self.is_available(u)).collect()
    }

    /// Number of units that may receive new work.
    #[must_use]
    pub fn num_available(&self) -> usize {
        (0..self.units()).filter(|&u| self.is_available(u)).count()
    }

    /// Total faults ever recorded on `unit` (survives quarantine and
    /// success resets).
    #[must_use]
    pub fn total_faults(&self, unit: usize) -> u64 {
        self.total_faults[unit]
    }

    /// Returns a quarantined (not dead) unit to service — an operator
    /// action after replacing or validating the hardware.
    pub fn reinstate(&mut self, unit: usize) {
        if !self.dead[unit] {
            self.quarantined[unit] = false;
            self.consecutive[unit] = 0;
        }
    }

    /// A read-only snapshot of the pool's health: the quarantined and dead
    /// sets plus per-unit lifetime fault counts. This is the supported way
    /// for an outside observer (the cluster router's health checks, a
    /// report builder) to inspect health state without coupling to the
    /// tracker's internals or gaining mutation access.
    #[must_use]
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            quarantined: (0..self.units()).filter(|&u| self.quarantined[u]).collect(),
            dead: (0..self.units()).filter(|&u| self.dead[u]).collect(),
            fault_counts: self.total_faults.clone(),
        }
    }
}

/// An immutable view of a [`HealthTracker`] at one instant: which units
/// are quarantined, which are dead, and how many faults each has ever
/// recorded. Produced by [`HealthTracker::snapshot`]; holds no reference
/// back to the tracker, so it can outlive it (e.g. embedded in a report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    quarantined: Vec<usize>,
    dead: Vec<usize>,
    fault_counts: Vec<u64>,
}

impl HealthSnapshot {
    /// Number of units the snapshot covers.
    #[must_use]
    pub fn units(&self) -> usize {
        self.fault_counts.len()
    }

    /// Indices of quarantined units, ascending.
    #[must_use]
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Indices of permanently dead units, ascending.
    #[must_use]
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }

    /// Per-unit lifetime fault counts, indexed by unit.
    #[must_use]
    pub fn fault_counts(&self) -> &[u64] {
        &self.fault_counts
    }

    /// Whether `unit` could receive new work at snapshot time (neither
    /// quarantined nor dead). Matches [`HealthTracker::is_available`].
    #[must_use]
    pub fn is_available(&self, unit: usize) -> bool {
        !self.quarantined.contains(&unit) && !self.dead.contains(&unit)
    }

    /// Number of units available at snapshot time.
    #[must_use]
    pub fn num_available(&self) -> usize {
        (0..self.units()).filter(|&u| self.is_available(u)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_resets_the_quarantine_countdown() {
        let mut h = HealthTracker::new(2, 3);
        assert!(!h.record_fault(0));
        assert!(!h.record_fault(0));
        h.record_success(0);
        assert!(!h.record_fault(0));
        assert!(!h.record_fault(0));
        assert!(h.is_available(0));
        assert!(h.record_fault(0), "third consecutive fault quarantines");
        assert!(!h.is_available(0));
        assert_eq!(h.total_faults(0), 5);
    }

    #[test]
    fn dead_units_never_come_back() {
        let mut h = HealthTracker::new(3, 1);
        h.mark_dead(1);
        h.reinstate(1);
        assert!(!h.is_available(1));
        assert_eq!(h.available_units(), vec![0, 2]);
        assert_eq!(h.num_available(), 2);
    }

    #[test]
    fn reinstate_returns_quarantined_units() {
        let mut h = HealthTracker::new(1, 1);
        assert!(h.record_fault(0));
        assert_eq!(h.num_available(), 0);
        h.reinstate(0);
        assert!(h.is_available(0));
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let mut h = HealthTracker::new(1, 0);
        assert!(h.record_fault(0), "first fault must quarantine, not underflow");
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn rejects_empty_pool() {
        let _ = HealthTracker::new(0, 1);
    }

    #[test]
    fn snapshot_mirrors_tracker_state_and_detaches() {
        let mut h = HealthTracker::new(4, 2);
        h.mark_dead(3);
        h.record_fault(1);
        h.record_fault(1); // quarantined
        h.record_fault(2); // one fault, still available
        let snap = h.snapshot();
        assert_eq!(snap.units(), 4);
        assert_eq!(snap.quarantined(), &[1]);
        assert_eq!(snap.dead(), &[3]);
        assert_eq!(snap.fault_counts(), &[0, 2, 1, 0]);
        assert_eq!(snap.num_available(), 2);
        for u in 0..4 {
            assert_eq!(snap.is_available(u), h.is_available(u), "unit {u}");
        }
        // Snapshot is a value: later tracker mutations don't leak into it.
        h.reinstate(1);
        assert_eq!(snap.quarantined(), &[1]);
    }
}
