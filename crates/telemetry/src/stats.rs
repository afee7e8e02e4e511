//! Monotonic counters and log₂-bucketed (HDR-style) histograms, plus a
//! [`StatsSink`] that aggregates the event stream per subflow /
//! connection / link.

use crate::event::{LinkEvent, Record, TraceEvent, TransportEvent};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A monotonically non-decreasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Difference against an earlier snapshot of the same counter.
    /// Saturating, so a snapshot taken across a counter reset (e.g. a
    /// re-created link) yields 0 instead of a debug-mode panic.
    pub fn since(self, earlier: Counter) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// log₂ of the linear sub-buckets per octave: 8 sub-buckets, so bucket
/// boundaries are `m · 2^e` with `m ∈ {1, 1.125, 1.25, …, 1.875}` and the
/// worst-case relative bucket width is 1/8.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest binary exponent with its own octave; values below `2^MIN_EXP`
/// (including zero and negatives) land in the underflow bucket 0.
const MIN_EXP: i32 = -10;
/// Largest binary exponent with its own octave; larger values clamp into
/// the topmost bucket.
const MAX_EXP: i32 = 40;
/// Octaves covered: `MIN_EXP ..= MAX_EXP`.
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Total buckets: one underflow bucket plus `SUBS` per octave.
const N_BUCKETS: usize = 1 + OCTAVES * SUBS;

/// `2^e` for `e` well inside the normal-double range, built from bits so
/// bucket boundaries are bit-exact on every platform.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// An HDR-style log₂-bucketed histogram.
///
/// Buckets are octaves of the value's binary exponent split into `SUBS`
/// linear sub-buckets, so the bucket for a sample is a bit-twiddle of its
/// IEEE-754 representation — no caller-chosen bounds, no search — and any
/// two histograms are always mergeable/comparable. The covered domain is
/// `[2^-10, 2^41)` ≈ `[0.001, 2.2e12]`, wide enough for RTTs in
/// microseconds, rates in Mbps, and queue depths in bytes alike; values
/// outside clamp into the underflow/topmost bucket. Percentiles
/// interpolate linearly inside the target bucket and are exact at the
/// recorded min/max, giving ≤ 1/8 relative error in between.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
    min: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; N_BUCKETS],
            total: 0,
            sum: 0.0,
            max: 0.0,
            min: f64::INFINITY,
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(v: f64) -> usize {
        // NaN, negatives, zero and sub-domain values → underflow bucket.
        if v.is_nan() || v < pow2(MIN_EXP) {
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp > MAX_EXP {
            return N_BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUBS + sub
    }

    /// The `[lo, hi)` boundaries of bucket `idx`. Bucket 0 is the
    /// underflow bucket `[0, 2^MIN_EXP)`.
    pub fn bucket_bounds(idx: usize) -> (f64, f64) {
        assert!(idx < N_BUCKETS, "bucket index {idx} out of range");
        if idx == 0 {
            return (0.0, pow2(MIN_EXP));
        }
        let e = MIN_EXP + ((idx - 1) / SUBS) as i32;
        let s = (idx - 1) % SUBS;
        let scale = pow2(e);
        // `scale · (1 + s/8)` is exact: the mantissa step is dyadic.
        let lo = scale * (1.0 + s as f64 / SUBS as f64);
        let hi = scale * (1.0 + (s + 1) as f64 / SUBS as f64);
        (lo, hi)
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Resets to empty, retaining the allocation (the metrics pipeline
    /// clears per-bin histograms on every bin close).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0.0;
        self.max = 0.0;
        self.min = f64::INFINITY;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Per-bucket counts (index with [`Histogram::bucket_of`] /
    /// [`Histogram::bucket_bounds`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the target bucket and clamped to the recorded `[min, max]` — so
    /// `percentile(0.0)` is exactly the min and `percentile(1.0)` exactly
    /// the max. Deterministic; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = ((target - (seen - c) as f64) / c as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }
}

/// Per-subflow transport counters (keyed by `(conn, subflow)`).
#[derive(Clone, Debug, Default)]
pub struct SubflowStats {
    /// Fresh data packets sent.
    pub sends: Counter,
    /// Reinjected (retransmitted) packets sent.
    pub reinjections: Counter,
    /// ACKs processed.
    pub acks: Counter,
    /// Bytes newly acknowledged.
    pub acked_bytes: Counter,
    /// Chunks the SACK scoreboard declared lost.
    pub sack_losses: Counter,
    /// Retransmission timeouts fired.
    pub rtos: Counter,
}

/// Per-link counters (keyed by link id).
#[derive(Clone, Debug, Default)]
pub struct LinkStatsAgg {
    /// Packets admitted to the queue.
    pub enqueued: Counter,
    /// Droptail overflow drops.
    pub dropped_overflow: Counter,
    /// Random-loss drops.
    pub dropped_random: Counter,
    /// Gilbert–Elliott burst-loss drops.
    pub dropped_burst: Counter,
    /// Outage black-holes.
    pub dropped_outage: Counter,
    /// Packets delayed by the reordering fault.
    pub reordered: Counter,
    /// Extra copies delivered by the duplication fault.
    pub duplicated: Counter,
}

/// Per-connection controller counters and histograms.
#[derive(Clone, Debug)]
pub struct ConnStats {
    /// Monitor intervals started (all subflows).
    pub mi_started: Counter,
    /// Monitor-interval reports processed (all subflows).
    pub mi_completed: Counter,
    /// Rate steps taken (all subflows).
    pub rate_steps: Counter,
    /// Distribution of per-MI goodput, Mbps.
    pub mi_throughput: Histogram,
}

impl Default for ConnStats {
    fn default() -> Self {
        ConnStats {
            mi_started: Counter::new(),
            mi_completed: Counter::new(),
            rate_steps: Counter::new(),
            mi_throughput: Histogram::new(),
        }
    }
}

#[derive(Default)]
struct StatsInner {
    subflows: BTreeMap<(u64, u32), SubflowStats>,
    rtts: BTreeMap<(u64, u32), Histogram>,
    conns: BTreeMap<u64, ConnStats>,
    links: BTreeMap<u32, LinkStatsAgg>,
}

/// A [`TraceSink`] that folds the event stream into counters and
/// histograms instead of retaining individual records. All maps are
/// `BTreeMap`s so reports iterate in a deterministic order.
#[derive(Default)]
pub struct StatsSink {
    inner: Mutex<StatsInner>,
}

/// A point-in-time copy of everything a [`StatsSink`] has aggregated.
#[derive(Clone, Debug, Default)]
pub struct StatsReport {
    /// Transport counters per `(conn, subflow)`.
    pub subflows: BTreeMap<(u64, u32), SubflowStats>,
    /// RTT histograms per `(conn, subflow)`, microseconds.
    pub rtts: BTreeMap<(u64, u32), Histogram>,
    /// Controller counters per connection.
    pub conns: BTreeMap<u64, ConnStats>,
    /// Link counters per link id.
    pub links: BTreeMap<u32, LinkStatsAgg>,
}

impl StatsSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the current aggregates.
    pub fn report(&self) -> StatsReport {
        let inner = self.inner.lock().expect("stats poisoned");
        StatsReport {
            subflows: inner.subflows.clone(),
            rtts: inner.rtts.clone(),
            conns: inner.conns.clone(),
            links: inner.links.clone(),
        }
    }
}

impl TraceSink for StatsSink {
    fn record(&self, rec: &Record) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        match rec.event {
            TraceEvent::Transport(e) => {
                let (conn, subflow) = match e {
                    TransportEvent::Send { conn, subflow, .. }
                    | TransportEvent::Reinjection { conn, subflow, .. }
                    | TransportEvent::Ack { conn, subflow, .. }
                    | TransportEvent::SackLoss { conn, subflow, .. }
                    | TransportEvent::RtoFired { conn, subflow, .. } => (conn, subflow),
                    TransportEvent::SchedulerPick { .. } => return,
                };
                let s = inner.subflows.entry((conn, subflow)).or_default();
                match e {
                    TransportEvent::Send { .. } => s.sends.inc(),
                    TransportEvent::Reinjection { .. } => s.reinjections.inc(),
                    TransportEvent::Ack {
                        acked_bytes,
                        rtt_us,
                        ..
                    } => {
                        s.acks.inc();
                        s.acked_bytes.add(acked_bytes);
                        inner
                            .rtts
                            .entry((conn, subflow))
                            .or_default()
                            .record(rtt_us as f64);
                    }
                    TransportEvent::SackLoss { .. } => s.sack_losses.inc(),
                    TransportEvent::RtoFired { .. } => s.rtos.inc(),
                    TransportEvent::SchedulerPick { .. } => unreachable!(),
                }
            }
            TraceEvent::Controller(e) => {
                use crate::event::ControllerEvent as C;
                match e {
                    C::MiStart { conn, .. } => {
                        inner.conns.entry(conn).or_default().mi_started.inc();
                    }
                    C::MiEnd {
                        conn, goodput_mbps, ..
                    } => {
                        let c = inner.conns.entry(conn).or_default();
                        c.mi_completed.inc();
                        c.mi_throughput.record(goodput_mbps);
                    }
                    C::RateStep { conn, .. } => {
                        inner.conns.entry(conn).or_default().rate_steps.inc();
                    }
                    C::RatePublished { .. } => {}
                }
            }
            TraceEvent::Link(e) => {
                let link = match e {
                    // Not tied to any link; nothing to aggregate per-link.
                    LinkEvent::ClockClamp { .. } => return,
                    LinkEvent::Enqueue { link, .. }
                    | LinkEvent::DropOverflow { link, .. }
                    | LinkEvent::DropRandom { link, .. }
                    | LinkEvent::DropBurst { link, .. }
                    | LinkEvent::DropOutage { link, .. }
                    | LinkEvent::FaultReorder { link, .. }
                    | LinkEvent::FaultDuplicate { link, .. }
                    | LinkEvent::QueueSample { link, .. } => link,
                };
                let l = inner.links.entry(link).or_default();
                match e {
                    LinkEvent::Enqueue { .. } => l.enqueued.inc(),
                    LinkEvent::DropOverflow { .. } => l.dropped_overflow.inc(),
                    LinkEvent::DropRandom { .. } => l.dropped_random.inc(),
                    LinkEvent::DropBurst { .. } => l.dropped_burst.inc(),
                    LinkEvent::DropOutage { .. } => l.dropped_outage.inc(),
                    LinkEvent::FaultReorder { .. } => l.reordered.inc(),
                    LinkEvent::FaultDuplicate { .. } => l.duplicated.inc(),
                    LinkEvent::QueueSample { .. } => {}
                    // Filtered out by the early return above.
                    LinkEvent::ClockClamp { .. } => unreachable!(),
                }
            }
            // Violations are counted by `mpcc-check` itself; the stats
            // aggregator has nothing to add per-entity. Meta events are
            // telemetry self-reports, not simulation activity.
            TraceEvent::Check(_) | TraceEvent::Meta(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ControllerEvent;
    use mpcc_simcore::SimTime;

    #[test]
    fn counter_since_saturates_across_reset() {
        let mut a = Counter::new();
        a.add(10);
        let snap = a;
        let fresh = Counter::new(); // counter reset (e.g. link re-created)
        assert_eq!(fresh.since(snap), 0);
        assert_eq!(a.since(Counter::new()), 10);
    }

    /// Regression pin: the log₂ bucket layout. Bucket boundaries are pure
    /// functions of the IEEE-754 representation; these exact values must
    /// never drift (flushed metrics and reports depend on them).
    #[test]
    fn histogram_bucket_boundaries_are_pinned() {
        // Underflow bucket: [0, 2^-10).
        assert_eq!(Histogram::bucket_bounds(0), (0.0, 0.0009765625));
        for v in [0.0, -5.0, 0.0005, f64::NAN] {
            assert_eq!(Histogram::bucket_of(v), 0, "{v} must underflow");
        }
        // 1.0 opens its octave: bucket [1.0, 1.125).
        assert_eq!(Histogram::bucket_of(1.0), 81);
        assert_eq!(Histogram::bucket_bounds(81), (1.0, 1.125));
        // 1000 = 2^9 · 1.953125 → top sub-bucket of the 2^9 octave.
        assert_eq!(Histogram::bucket_of(1000.0), 160);
        assert_eq!(Histogram::bucket_bounds(160), (960.0, 1024.0));
        // Boundaries are half-open: lo inclusive, hi exclusive.
        assert_eq!(Histogram::bucket_of(960.0), 160);
        assert_eq!(Histogram::bucket_of(1024.0), 161);
        // Beyond 2^40 clamps into the topmost bucket.
        assert_eq!(Histogram::bucket_of(1e13), 408);
    }

    /// Regression pin: percentile interpolation inside a bucket, and the
    /// exact-min/exact-max clamps at the ends.
    #[test]
    fn histogram_percentile_interpolation_is_pinned() {
        let mut h = Histogram::new();
        h.record(960.0);
        h.record(1020.0);
        // Both samples share bucket [960, 1024): the median interpolates
        // halfway into the bucket, the extremes clamp to min/max exactly.
        assert_eq!(h.percentile(0.5), 992.0);
        assert_eq!(h.percentile(0.0), 960.0);
        assert_eq!(h.percentile(1.0), 1020.0);
        assert_eq!(h.min(), 960.0);
        assert_eq!(h.max(), 1020.0);

        // A single sample reports itself at every percentile.
        let mut one = Histogram::new();
        one.record(100.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 100.0);
        }
    }

    #[test]
    fn histogram_percentiles_track_uniform_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), 500.5);
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.min(), 1.0);
        for (got, want) in [
            (h.p50(), 500.0),
            (h.p95(), 950.0),
            (h.p99(), 990.0),
            (h.p999(), 999.0),
        ] {
            let rel = (got - want).abs() / want;
            assert!(rel < 0.13, "got {got}, want ~{want} (rel err {rel:.3})");
        }
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.p999());

        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!((h.mean(), h.min(), h.max()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn stats_sink_aggregates_by_scope() {
        let sink = StatsSink::new();
        let t = SimTime::ZERO;
        sink.record(&Record {
            t,
            event: TransportEvent::Ack {
                conn: 1,
                subflow: 0,
                acked_bytes: 1000,
                rtt_us: 30_000,
            }
            .into(),
        });
        sink.record(&Record {
            t,
            event: TransportEvent::RtoFired {
                conn: 1,
                subflow: 1,
                backoff: 0,
            }
            .into(),
        });
        sink.record(&Record {
            t,
            event: ControllerEvent::MiEnd {
                conn: 1,
                subflow: 0,
                goodput_mbps: 42.0,
                loss_rate: 0.0,
                utility: Some(1.0),
                action: "decided",
            }
            .into(),
        });
        sink.record(&Record {
            t,
            event: LinkEvent::DropOverflow {
                link: 2,
                bytes: 1500,
                queued_bytes: 0,
            }
            .into(),
        });
        let rep = sink.report();
        assert_eq!(rep.subflows[&(1, 0)].acked_bytes.get(), 1000);
        assert_eq!(rep.subflows[&(1, 1)].rtos.get(), 1);
        assert_eq!(rep.rtts[&(1, 0)].count(), 1);
        assert_eq!(rep.conns[&1].mi_completed.get(), 1);
        assert_eq!(rep.links[&2].dropped_overflow.get(), 1);
    }
}
