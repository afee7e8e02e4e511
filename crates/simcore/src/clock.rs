//! Time sources: the seam between simulated and real time.
//!
//! Everything above the event loop measures time as [`SimTime`] — an
//! integer nanosecond count since an arbitrary epoch. Inside the
//! simulator that epoch is "simulation start" and the clock only moves
//! when events are dispatched. On a real I/O driver the same code runs
//! against a [`MonotonicClock`], which anchors the process's monotonic
//! clock at construction and reports nanoseconds since that anchor.
//!
//! The [`Clock`] trait is deliberately tiny: a driver reads its clock at
//! the top of each turn and hands the endpoint a single consistent `now`,
//! exactly like the simulator stamps every event with the virtual clock.
//! Transport code never reads a clock directly — it always receives time
//! from its driver — so the trait's consumers are drivers and harnesses
//! only.

use crate::time::SimTime;

/// A monotonic source of [`SimTime`].
///
/// Implementations must be non-decreasing: two consecutive `now()` calls
/// may return the same instant (coarse clocks, virtual clocks between
/// events) but never run backwards.
pub trait Clock {
    /// The current time.
    fn now(&mut self) -> SimTime;
}

/// Real time: `std::time::Instant` anchored at construction, reported as
/// nanoseconds since the anchor.
///
/// The anchor makes real-clock timestamps look exactly like simulator
/// timestamps (small integers starting near zero), so telemetry records
/// from a real run are directly comparable with — and consumable by the
/// same report tooling as — simulated ones. Nothing about the *values* is
/// deterministic, of course; see DESIGN.md §14 for what does and does not
/// reproduce on the real path.
#[derive(Clone, Debug)]
pub struct MonotonicClock {
    anchor: std::time::Instant,
}

impl MonotonicClock {
    /// A clock anchored at the current instant (time zero is "now").
    pub fn new() -> Self {
        MonotonicClock {
            anchor: std::time::Instant::now(),
        }
    }

    /// The duration since `t`, measured against a fresh reading.
    pub fn elapsed_since(&mut self, t: SimTime) -> crate::time::SimDuration {
        self.now().saturating_since(t)
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&mut self) -> SimTime {
        let elapsed = self.anchor.elapsed();
        // u64 nanoseconds cover ~584 years of process uptime.
        SimTime::from_nanos(elapsed.as_nanos() as u64)
    }
}

/// Virtual time under explicit control: the clock only moves when the
/// owner advances it.
///
/// This is the replay half of the sim/real cross-check: the UDP driver's
/// replay mode (`mpcc_udp::UdpPeer::replay`) runs its one event loop
/// against a `ManualClock`, stepping through a recorded trace at the
/// trace's own timestamps, which makes its behaviour as deterministic as
/// the simulator's. Advancing backwards is a no-op (the trait contract is
/// non-decreasing), so feeding unsorted timestamps cannot produce a
/// time-travelling clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManualClock {
    now: SimTime,
}

impl ManualClock {
    /// A clock reading [`SimTime::ZERO`].
    pub fn new() -> Self {
        ManualClock { now: SimTime::ZERO }
    }

    /// Moves the clock forward to `at`; ignores times in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }
}

impl Clock for ManualClock {
    fn now(&mut self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_nondecreasing_and_anchored() {
        let mut c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Anchored at construction: the first reading is close to zero
        // (well under a second even on a loaded machine).
        assert!(a < SimTime::from_secs(1), "{a}");
    }

    #[test]
    fn manual_clock_only_moves_forward() {
        let mut c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(5));
        c.advance_to(SimTime::from_millis(3)); // backwards: ignored
        assert_eq!(c.now(), SimTime::from_millis(5));
    }
}
