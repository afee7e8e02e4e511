//! Trace sinks and the [`Tracer`] handle the emitting layers hold.

use crate::event::{Layer, LayerMask, Record, TraceEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Destination for trace records.
///
/// Sinks take `&self` (emitters share one sink through an [`Arc`]) and are
/// responsible for their own interior synchronization. Implementations must
/// never call back into the simulation: recording is strictly one-way, so
/// tracing cannot perturb simulated results.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, rec: &Record);
    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// Discards every record. With `NullSink` (or simply a disabled
/// [`Tracer`]) the emit path is a single branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&self, _rec: &Record) {}
}

struct RingInner {
    buf: VecDeque<Record>,
    /// Records evicted because the ring was full.
    dropped: u64,
    /// Sim-time of the first eviction, used to stamp the truncation marker.
    first_drop_t: Option<mpcc_simcore::SimTime>,
}

/// A bounded in-memory ring buffer of records — the sink tests and
/// invariant checks use to inspect what a run emitted.
///
/// Overflow is observable, never silent: evictions are counted
/// ([`RingSink::evicted`]) and [`RingSink::records`] prepends a one-time
/// [`crate::MetaEvent::RingTruncated`] marker (stamped with the time of
/// the first eviction) whenever anything was dropped, so a consumer of a
/// wrapped ring always learns the window is incomplete.
pub struct RingSink {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records; older records
    /// are evicted first once full.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
                first_drop_t: None,
            }),
            capacity: capacity.max(1),
        }
    }

    /// A copy of the buffered records, oldest first. If the ring ever
    /// overflowed, the copy leads with a synthesized `ring_truncated`
    /// meta record carrying the eviction count.
    pub fn records(&self) -> Vec<Record> {
        let inner = self.inner.lock().expect("ring poisoned");
        let mut out = Vec::with_capacity(inner.buf.len() + 1);
        if inner.dropped > 0 {
            out.push(Record {
                t: inner.first_drop_t.expect("dropped implies a first drop"),
                event: crate::event::MetaEvent::RingTruncated {
                    dropped: inner.dropped,
                }
                .into(),
            });
        }
        out.extend(inner.buf.iter().copied());
        out
    }

    /// Number of records currently buffered (markers not included).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring poisoned").buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("ring poisoned").dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, rec: &Record) {
        let mut inner = self.inner.lock().expect("ring poisoned");
        if inner.buf.len() == self.capacity {
            let evicted = inner.buf.pop_front().expect("full ring has a front");
            inner.dropped += 1;
            if inner.first_drop_t.is_none() {
                inner.first_drop_t = Some(evicted.t);
            }
        }
        inner.buf.push_back(*rec);
    }
}

/// Fans each record out to several sinks, each behind its own
/// [`LayerMask`] — e.g. full-fidelity trace records to a
/// [`crate::KeyedSink`] while the same stream feeds a metrics pipeline, without the emitting
/// layers knowing there is more than one consumer.
pub struct TeeSink {
    branches: Vec<(Arc<dyn TraceSink>, LayerMask)>,
}

impl TeeSink {
    /// A tee over `branches`; each sink sees only the layers in its mask.
    pub fn new(branches: Vec<(Arc<dyn TraceSink>, LayerMask)>) -> Self {
        TeeSink { branches }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, rec: &Record) {
        let layer = rec.event.layer();
        for (sink, mask) in &self.branches {
            if mask.contains(layer) {
                sink.record(rec);
            }
        }
    }

    fn flush(&self) {
        for (sink, _) in &self.branches {
            sink.flush();
        }
    }
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    mask: LayerMask,
}

/// The cheap, cloneable handle emitting layers hold.
///
/// A disabled tracer (the [`Default`]) is a `None`: emission is one branch
/// and, through [`Tracer::emit_with`], the event payload is never even
/// constructed. An enabled tracer forwards records for the layers in its
/// [`LayerMask`] to its [`TraceSink`].
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("mask", &inner.mask)
                .finish_non_exhaustive(),
            None => f.write_str("Tracer(off)"),
        }
    }
}

impl Tracer {
    /// A disabled tracer (records nothing, costs one branch per emit).
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording the layers in `mask` into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>, mask: LayerMask) -> Self {
        if mask == LayerMask::NONE {
            return Tracer::off();
        }
        Tracer {
            inner: Some(Arc::new(TracerInner { sink, mask })),
        }
    }

    /// Whether events from `layer` would currently be recorded.
    #[inline]
    pub fn enabled(&self, layer: Layer) -> bool {
        match &self.inner {
            Some(inner) => inner.mask.contains(layer),
            None => false,
        }
    }

    /// Whether the tracer records anything at all.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` at sim-time `t` (subject to the layer mask).
    #[inline]
    pub fn emit(&self, t: mpcc_simcore::SimTime, event: impl Into<TraceEvent>) {
        if let Some(inner) = &self.inner {
            let event = event.into();
            if inner.mask.contains(event.layer()) {
                inner.sink.record(&Record { t, event });
            }
        }
    }

    /// Records the event built by `f` at sim-time `t` — but only calls `f`
    /// if `layer` is being recorded. Use on hot paths where even
    /// constructing the event is worth skipping.
    #[inline]
    pub fn emit_with<E: Into<TraceEvent>>(
        &self,
        layer: Layer,
        t: mpcc_simcore::SimTime,
        f: impl FnOnce() -> E,
    ) {
        if let Some(inner) = &self.inner {
            if inner.mask.contains(layer) {
                inner.sink.record(&Record {
                    t,
                    event: f().into(),
                });
            }
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkEvent;
    use mpcc_simcore::SimTime;

    fn rec(n: u64) -> Record {
        Record {
            t: SimTime::from_nanos(n),
            event: LinkEvent::DropRandom { link: 0, bytes: n }.into(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_marks_truncation() {
        let ring = RingSink::new(2);
        ring.record(&rec(1));
        ring.record(&rec(2));
        assert_eq!(ring.evicted(), 0);
        // No overflow yet: no marker.
        assert_eq!(ring.records().len(), 2);

        ring.record(&rec(3));
        ring.record(&rec(4));
        assert_eq!(ring.evicted(), 2);
        let got = ring.records();
        // One marker + the two surviving records.
        assert_eq!(got.len(), 3);
        // The marker carries the count and the first-evicted record's time.
        assert_eq!(got[0].t, SimTime::from_nanos(1));
        assert_eq!(
            got[0].event,
            crate::event::MetaEvent::RingTruncated { dropped: 2 }.into()
        );
        assert_eq!(got[1].t, SimTime::from_nanos(3));
        assert_eq!(got[2].t, SimTime::from_nanos(4));
    }

    #[test]
    fn tee_filters_per_branch_and_flushes_all() {
        let all = Arc::new(RingSink::new(8));
        let links_only = Arc::new(RingSink::new(8));
        let tee = TeeSink::new(vec![
            (all.clone() as Arc<dyn TraceSink>, LayerMask::ALL),
            (
                links_only.clone() as Arc<dyn TraceSink>,
                LayerMask::only(Layer::Link),
            ),
        ]);
        let tracer = Tracer::new(Arc::new(tee), LayerMask::ALL);
        tracer.emit(SimTime::ZERO, LinkEvent::DropRandom { link: 0, bytes: 1 });
        tracer.emit(
            SimTime::ZERO,
            crate::event::ControllerEvent::RatePublished {
                conn: 1,
                subflow: 0,
                rate_mbps: 10.0,
            },
        );
        tracer.flush();
        assert_eq!(all.len(), 2);
        assert_eq!(links_only.len(), 1);
    }

    #[test]
    fn tracer_mask_filters_before_sink() {
        let ring = Arc::new(RingSink::new(16));
        let tracer = Tracer::new(ring.clone(), LayerMask::only(Layer::Controller));
        assert!(tracer.is_on());
        assert!(!tracer.enabled(Layer::Link));
        tracer.emit(SimTime::ZERO, LinkEvent::DropRandom { link: 0, bytes: 1 });
        assert!(ring.is_empty());
    }

    #[test]
    fn emit_with_skips_construction_when_off() {
        let tracer = Tracer::off();
        let mut called = false;
        tracer.emit_with(Layer::Link, SimTime::ZERO, || {
            called = true;
            LinkEvent::DropRandom { link: 0, bytes: 1 }
        });
        assert!(!called);
    }
}
