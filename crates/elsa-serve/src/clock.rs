//! The deterministic virtual clock.
//!
//! Online serving is about *time*: arrival instants, queue waits, batching
//! deadlines, SLO budgets. The hermetic/offline policy of this workspace
//! (see `crates/elsa-testkit`) forbids wall-clock reads in simulation code —
//! a run must replay bit-for-bit on any host at any `ELSA_THREADS` — so the
//! serving pipeline runs on a **virtual clock**: integer nanoseconds,
//! advanced only by the event loop, never by `std::time`.
//!
//! Two time domains meet in the dispatcher:
//!
//! * **queueing time** lives in integer nanoseconds ([`VirtualClock`]),
//!   where ordering and arithmetic are exact;
//! * **accelerator busy time** lives in `f64` seconds, because that is what
//!   [`elsa_sim::CycleReport::seconds`] produces — charging the simulator's
//!   seconds unconverted keeps every served record *bit-identical* to a
//!   plain FIFO fold over per-request cycle-seconds (enforced by
//!   `tests/fault_tolerance.rs`).
//!
//! [`secs_to_ns`] / [`ns_to_secs`] are the only sanctioned bridges.

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Converts seconds to integer nanoseconds (round-to-nearest, saturating at
/// zero for negative inputs and at `u64::MAX` for absurdly large ones).
///
/// # Panics
///
/// Panics if `s` is NaN — a NaN duration is always a bug upstream.
#[must_use]
pub fn secs_to_ns(s: f64) -> u64 {
    assert!(!s.is_nan(), "NaN duration");
    let ns = (s * NANOS_PER_SEC as f64).round();
    if ns <= 0.0 {
        0
    } else if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Converts integer nanoseconds to seconds.
#[must_use]
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / NANOS_PER_SEC as f64
}

/// A monotone virtual clock in integer nanoseconds.
///
/// The serving event loop is the only writer; it advances the clock to each
/// event's timestamp and asserts monotonicity, so any ordering bug in the
/// simulation surfaces as a panic instead of silently reordered history.
///
/// # Examples
///
/// ```
/// use elsa_serve::clock::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// clock.advance_to(1_500);
/// assert_eq!(clock.now_ns(), 1_500);
/// clock.advance_to(1_500); // same instant is fine
/// assert!(clock.now_s() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// A clock at t = 0.
    #[must_use]
    pub const fn new() -> Self {
        Self { now_ns: 0 }
    }

    /// Current virtual time in nanoseconds.
    #[must_use]
    pub const fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        ns_to_secs(self.now_ns)
    }

    /// Advances the clock to `t_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `t_ns` is in the past — the event loop must process events
    /// in timestamp order.
    pub fn advance_to(&mut self, t_ns: u64) {
        assert!(
            t_ns >= self.now_ns,
            "virtual clock moved backwards: {} -> {t_ns}",
            self.now_ns
        );
        self.now_ns = t_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_on_whole_nanoseconds() {
        for ns in [0u64, 1, 999, 1_000_000_000, 123_456_789_012] {
            assert_eq!(secs_to_ns(ns_to_secs(ns)), ns);
        }
    }

    #[test]
    fn secs_to_ns_saturates() {
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1e30), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN duration")]
    fn secs_to_ns_rejects_nan() {
        let _ = secs_to_ns(f64::NAN);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        c.advance_to(10);
        c.advance_to(10);
        c.advance_to(11);
        assert_eq!(c.now_ns(), 11);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn clock_rejects_backward_jumps() {
        let mut c = VirtualClock::new();
        c.advance_to(10);
        c.advance_to(9);
    }
}
