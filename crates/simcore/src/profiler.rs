//! Simulator self-profiling: attributes wall-clock time and event counts
//! to dispatch categories, behind the `profiler` feature.
//!
//! With the feature **off** (the default) every type here compiles to a
//! zero-sized no-op: [`Stamp`] is `()`, [`Profiler::start`] and
//! [`Profiler::record`] are empty `#[inline(always)]` bodies, and the
//! whole instrumented path folds away. perfbench's end-to-end numbers
//! always come from this build; its `traced` flavour turns the feature on
//! and reports the attribution as per-layer metrics.
//!
//! With the feature **on**, each recorded span costs one `Instant::now()`
//! pair plus two array updates. Wall-clock readings never feed back into
//! the simulation (they only accumulate into this report), so profiled
//! runs remain bit-identical to unprofiled ones — only *how long* they
//! took is measured, never *what* they compute.

/// A dispatch category the profiler attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfCat {
    /// Link finished serializing a packet (service / TxComplete).
    LinkTx = 0,
    /// A data packet arrived at an endpoint (receiver pump).
    ArriveData = 1,
    /// An ACK arrived at an endpoint (sender pump + controller decisions).
    ArriveAck = 2,
    /// A packet was forwarded to the next hop of a multi-link path.
    Forward = 3,
    /// An endpoint timer fired (pacing, RTO, MI boundaries).
    Timer = 4,
    /// A scheduled link-parameter change was applied.
    LinkChange = 5,
    /// Cross-shard packet handoff and epoch-barrier synchronization
    /// (outbox routing, mailbox drain, and barrier wait in the sharded
    /// engine; always zero in single-instance runs).
    ShardSync = 6,
}

impl ProfCat {
    /// Number of categories (array size).
    pub const COUNT: usize = 7;

    /// Category label used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            ProfCat::LinkTx => "link_tx",
            ProfCat::ArriveData => "arrive_data",
            ProfCat::ArriveAck => "arrive_ack",
            ProfCat::Forward => "forward",
            ProfCat::Timer => "timer",
            ProfCat::LinkChange => "link_change",
            ProfCat::ShardSync => "shard_sync",
        }
    }

    /// All categories, in index order.
    pub fn all() -> [ProfCat; ProfCat::COUNT] {
        [
            ProfCat::LinkTx,
            ProfCat::ArriveData,
            ProfCat::ArriveAck,
            ProfCat::Forward,
            ProfCat::Timer,
            ProfCat::LinkChange,
            ProfCat::ShardSync,
        ]
    }
}

/// An opaque start-of-span token: a wall-clock instant with the feature
/// on, a zero-sized unit with it off.
#[cfg(feature = "profiler")]
pub type Stamp = std::time::Instant;
/// An opaque start-of-span token (zero-sized: the feature is off).
#[cfg(not(feature = "profiler"))]
pub type Stamp = ();

/// Per-category event counts and wall-clock attribution.
///
/// Lives inside the simulation loop's owner; all methods are free when
/// the `profiler` feature is off.
#[derive(Clone, Copy, Debug, Default)]
pub struct Profiler {
    #[cfg(feature = "profiler")]
    counts: [u64; ProfCat::COUNT],
    #[cfg(feature = "profiler")]
    nanos: [u64; ProfCat::COUNT],
}

impl Profiler {
    /// Whether this build carries the profiler.
    pub const ENABLED: bool = cfg!(feature = "profiler");

    /// A zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a span.
    #[inline(always)]
    pub fn start() -> Stamp {
        #[cfg(feature = "profiler")]
        {
            std::time::Instant::now()
        }
    }

    /// Ends a span begun by [`Profiler::start`], attributing it to `cat`.
    #[inline(always)]
    pub fn record(&mut self, cat: ProfCat, stamp: Stamp) {
        #[cfg(feature = "profiler")]
        {
            let ns = stamp.elapsed().as_nanos() as u64;
            self.counts[cat as usize] += 1;
            self.nanos[cat as usize] += ns;
        }
        #[cfg(not(feature = "profiler"))]
        {
            let _ = (cat, stamp);
        }
    }

    /// Snapshot of everything recorded so far, combined with the queue
    /// counters the caller passes in.
    pub fn report(
        &self,
        cascades: u64,
        overflow_promotions: u64,
        occupied_slots: u32,
    ) -> ProfileReport {
        ProfileReport {
            enabled: Self::ENABLED,
            #[cfg(feature = "profiler")]
            counts: self.counts,
            #[cfg(not(feature = "profiler"))]
            counts: [0; ProfCat::COUNT],
            #[cfg(feature = "profiler")]
            nanos: self.nanos,
            #[cfg(not(feature = "profiler"))]
            nanos: [0; ProfCat::COUNT],
            cascades,
            overflow_promotions,
            occupied_slots,
        }
    }
}

/// A point-in-time profiling summary: per-category dispatch counts and
/// wall-clock nanoseconds, plus the timer wheel's always-on introspection
/// counters (those are tracked even when the `profiler` feature is off).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileReport {
    /// Whether the build carried the wall-clock profiler (`counts`/`nanos`
    /// are all zero when false; the wheel counters are still live).
    pub enabled: bool,
    /// Dispatch counts, indexed by [`ProfCat`].
    pub counts: [u64; ProfCat::COUNT],
    /// Wall-clock nanoseconds, indexed by [`ProfCat`].
    pub nanos: [u64; ProfCat::COUNT],
    /// Timer-wheel coarse-slot cascades.
    pub cascades: u64,
    /// Timer-wheel overflow-chain promotions.
    pub overflow_promotions: u64,
    /// Occupied wheel slots at snapshot time.
    pub occupied_slots: u32,
}

impl ProfileReport {
    /// Total recorded dispatches across all categories.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_is_stable() {
        let p = Profiler::new();
        let r = p.report(3, 1, 7);
        assert_eq!(r.enabled, Profiler::ENABLED);
        assert_eq!(r.cascades, 3);
        assert_eq!(r.overflow_promotions, 1);
        assert_eq!(r.occupied_slots, 7);
        assert_eq!(ProfCat::all().len(), ProfCat::COUNT);
        // Names are distinct (they become JSON keys in bench output).
        let names: std::collections::BTreeSet<_> =
            ProfCat::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ProfCat::COUNT);
    }

    #[cfg(feature = "profiler")]
    #[test]
    fn spans_accumulate_when_enabled() {
        let mut p = Profiler::new();
        let s = Profiler::start();
        p.record(ProfCat::Timer, s);
        let r = p.report(0, 0, 0);
        assert!(r.enabled);
        assert_eq!(r.counts[ProfCat::Timer as usize], 1);
        assert_eq!(r.total_count(), 1);
    }

    #[cfg(not(feature = "profiler"))]
    #[test]
    #[allow(clippy::unit_arg)] // `Stamp` is `()` with the feature off
    fn disabled_profiler_is_inert() {
        let mut p = Profiler::new();
        p.record(ProfCat::Timer, Profiler::start());
        let r = p.report(0, 0, 0);
        assert!(!r.enabled);
        assert_eq!(r.total_count(), 0);
        assert_eq!(std::mem::size_of::<Stamp>(), 0);
    }
}
