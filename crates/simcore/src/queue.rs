//! Deterministic future-event queue: a hierarchical timer wheel.
//!
//! Events are ordered by `(time, insertion sequence)`, so simultaneous
//! events dequeue in the order they were scheduled. This makes every run
//! bit-reproducible for a given seed, which the reproduction relies on for
//! regression-testing experiment outputs. Drivers first order each
//! same-time batch by event content with [`EventQueue::order_batch`].
//!
//! # Layout
//!
//! The wheel has `LEVELS` levels of `SLOTS` slots each. A level-0 slot
//! spans `2^SHIFT0` ns (≈ 2 µs — well under the 120 µs serialization time
//! of a full-sized packet on the paper's 100 Mbps links, so same-slot
//! collisions are rare in steady state); each higher level's slot spans the
//! *whole* of the level below (64× wider), so a level-k slot cascades into
//! exactly one full sweep of level k−1. Six levels cover ≈ 39 hours of
//! simulated time; the rare timer beyond that parks in a `BinaryHeap`
//! overflow until the wheel horizon reaches it.
//!
//! An event at absolute time `at` lives at the lowest level where `at`
//! shares a slot-aligned window with `wheel_now` (the low edge of the
//! not-yet-drained future): level selection is a single XOR + leading-zero
//! count, and one occupancy bit per slot (a `u64` per level) makes finding
//! the next non-empty slot a mask + trailing-zero count.
//!
//! # Determinism argument
//!
//! Pop order must be exactly ascending `(time, seq)`. The wheel maintains
//! two invariants: every wheel/overflow entry has `at >= wheel_now`, and
//! the drained `ready` list (sorted descending, popped from the back) holds
//! precisely the events with `at < wheel_now`. Draining always picks the
//! candidate slot with the smallest start time across all levels — ties
//! resolved to the *highest* level, so a coarse slot cascades before an
//! equal-start fine slot drains (otherwise a fine-slot event could pop
//! before an earlier event still parked one level up). Within a slot,
//! entries are sorted by `(at, seq)` before popping; `seq` never repeats,
//! so the order is total and identical to the reference heap's.
//!
//! # Allocation budget
//!
//! Steady-state operation is allocation-free: slot vectors and the `ready`
//! list are drained with `Vec::append` (each slot keeps its capacity; a
//! cascade appends into a scratch buffer and re-inserts from there), and
//! `sort_unstable` does not allocate. Only growth beyond a previous
//! high-water mark allocates.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; beyond the top level's span events go to the overflow heap.
const LEVELS: usize = 6;
/// log2 of the level-0 slot width in nanoseconds (2^11 ns ≈ 2 µs).
const SHIFT0: u32 = 11;

/// log2 of the slot width at `level`.
const fn shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

/// Slot width at `level`, in ns. Equals the full span of `level - 1`.
const fn slot_width(level: usize) -> u64 {
    1u64 << shift(level)
}

/// Full span of `level` (all 64 slots), in ns.
const fn span(level: usize) -> u64 {
    1u64 << (shift(level) + SLOT_BITS)
}

/// Lowest level whose span covers `d = at ^ wheel_now` (caller guarantees
/// `d < span(LEVELS - 1)`).
fn level_for(d: u64) -> usize {
    let bit = 63 - (d | 1).leading_zeros();
    (bit.saturating_sub(SHIFT0) / SLOT_BITS) as usize
}

struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first ordering.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with stable ordering for simultaneous events.
pub struct EventQueue<E> {
    /// Timestamp of the last popped event, in ns.
    now: u64,
    next_seq: u64,
    len: usize,
    /// Low edge of the not-yet-drained future: wheel/overflow entries are
    /// all `>= wheel_now`; `ready` holds exactly the entries below it.
    wheel_now: u64,
    /// Drained events, sorted *descending* by `(at, seq)`; popped from the
    /// back. Non-empty whenever `len > 0` (so `peek_time` is O(1)).
    ready: Vec<Entry<E>>,
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`; empty
    /// until the first entry is filed (see `slots_mut`).
    slots: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Events beyond the top level's span.
    overflow: BinaryHeap<Entry<E>>,
    /// Scratch buffer recycled through cascades (retains capacity).
    scratch: Vec<Entry<E>>,
    popped: u64,
    peak_len: usize,
    clamped: u64,
    /// Coarse-slot cascades performed by `refill` (one u64 increment per
    /// cascade — cheap enough to keep always-on for the self-profiler).
    cascades: u64,
    /// Entries promoted out of the overflow heap into the wheel.
    overflow_promoted: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            now: 0,
            next_seq: 0,
            len: 0,
            wheel_now: 0,
            ready: Vec::new(),
            slots: Vec::new(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            popped: 0,
            peak_len: 0,
            clamped: 0,
            cascades: 0,
            overflow_promoted: 0,
        }
    }

    /// The current simulation time: the timestamp of the last event popped.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so that time never runs backwards, and debug builds panic.
    /// Release builds count the clamp (see [`EventQueue::clamped_schedules`])
    /// so silent time-warps stay observable.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at.as_nanos() >= self.now, "scheduled event in the past");
        let mut at = at.as_nanos();
        if at < self.now {
            self.clamped += 1;
            at = self.now;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.insert(Entry { at, seq, event });
        if self.ready.is_empty() {
            self.refill();
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.ready.pop()?;
        debug_assert!(e.at >= self.now);
        self.len -= 1;
        self.popped += 1;
        self.now = e.at;
        if self.ready.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((SimTime::from_nanos(e.at), e.event))
    }

    /// Orders the same-time batch — every pending event at the earliest
    /// pending timestamp — by ascending `key` and returns its size `n`
    /// (0 if nothing is pending): the next `n` pops return the batch in
    /// key order.
    ///
    /// This is the same-instant drain every driver shares. Dispatching
    /// the batch in key order makes same-instant order a function of event
    /// content, not of scheduling order. Events scheduled for the same
    /// instant while the batch dispatches pop after it and form the next
    /// batch. The batch is sorted in place at the back of `ready` (a
    /// singleton costs two comparisons, and nothing is copied out); the
    /// sort is unstable, so events whose keys tie must be interchangeable.
    pub fn order_batch<K: Ord>(&mut self, mut key: impl FnMut(&E) -> K) -> usize {
        // `ready` holds every event below `wheel_now`, so the whole batch
        // sits at its back; `insert` keeps later same-time arrivals ahead
        // of it (they carry larger `seq`s), i.e. they pop after it.
        let Some(t) = self.ready.last().map(|e| e.at) else {
            return 0;
        };
        let n = self.ready.iter().rev().take_while(|e| e.at == t).count();
        if n > 1 {
            let start = self.ready.len() - n;
            // Popped from the back: descending key order pops ascending.
            self.ready[start..].sort_unstable_by_key(|e| std::cmp::Reverse(key(&e.event)));
        }
        n
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // `ready` is non-empty whenever events are pending, and its back
        // element is the global minimum.
        self.ready.last().map(|e| SimTime::from_nanos(e.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events popped over the queue's lifetime.
    pub fn events_popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Times `schedule` clamped a past timestamp up to `now` (never
    /// observable in debug builds, which panic instead).
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped
    }

    /// Coarse-slot cascades performed over the queue's lifetime.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Entries promoted from the overflow heap into the wheel.
    pub fn overflow_promotions(&self) -> u64 {
        self.overflow_promoted
    }

    /// Currently occupied wheel slots across all levels (a popcount over
    /// the occupancy bitmasks — an instantaneous density snapshot).
    pub fn occupied_slots(&self) -> u32 {
        self.occupied.iter().map(|m| m.count_ones()).sum()
    }

    /// Pre-sizes every wheel slot to hold `per_slot` entries and the
    /// drain/scratch buffers to hold `drain` entries.
    ///
    /// Steady-state operation only allocates when a buffer grows past its
    /// previous high-water mark (see the module docs). Under a stationary
    /// workload those marks settle during warm-up, but a churning workload
    /// (connections arriving and departing for the whole run) keeps
    /// producing rare new per-slot occupancy maxima, so the ratchet never
    /// fully stops. Reserving a generous bound up front moves the whole
    /// ratchet to construction time and makes the run allocation-free.
    pub fn reserve_slot_capacity(&mut self, per_slot: usize, drain: usize) {
        for s in self.slots_mut() {
            if s.capacity() < per_slot {
                s.reserve(per_slot - s.len());
            }
        }
        if self.ready.capacity() < drain {
            self.ready.reserve(drain - self.ready.len());
        }
        if self.scratch.capacity() < drain {
            self.scratch.reserve(drain - self.scratch.len());
        }
    }

    /// Places an entry in the ready list, a wheel slot, or the overflow
    /// heap, according to its distance from `wheel_now`.
    fn insert(&mut self, e: Entry<E>) {
        if e.at < self.wheel_now {
            // Inside the already-drained window: merge into `ready`
            // (descending order) at its sorted position.
            let key = (e.at, e.seq);
            let pos = self.ready.partition_point(|x| (x.at, x.seq) > key);
            self.ready.insert(pos, e);
            return;
        }
        let d = e.at ^ self.wheel_now;
        if d < span(LEVELS - 1) {
            self.push_slot(level_for(d), e);
        } else {
            self.overflow.push(e);
        }
    }

    /// The slot table, built on first use: constructing a queue neither
    /// allocates nor writes its 384 slot headers (9 KB), which keeps
    /// construction cheap when the memory it lands in is cold.
    fn slots_mut(&mut self) -> &mut [Vec<Entry<E>>] {
        if self.slots.is_empty() {
            self.slots = (0..LEVELS * SLOTS).map(|_| Vec::new()).collect();
        }
        &mut self.slots
    }

    /// Files `e` in its slot at `level` and marks the slot occupied.
    fn push_slot(&mut self, level: usize, e: Entry<E>) {
        let slot = ((e.at >> shift(level)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots_mut()[level * SLOTS + slot].push(e);
    }

    /// Refills `ready` from the wheel: repeatedly cascades the earliest
    /// coarse slot down, then drains the earliest level-0 slot. Requires
    /// `ready` empty and at least one pending event.
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        loop {
            // Promote overflow entries the wheel horizon has reached.
            while let Some(top) = self.overflow.peek() {
                if top.at ^ self.wheel_now < span(LEVELS - 1) {
                    let e = self.overflow.pop().expect("peeked");
                    self.overflow_promoted += 1;
                    self.push_slot(level_for(e.at ^ self.wheel_now), e);
                } else {
                    break;
                }
            }

            // The earliest candidate slot among the coarse levels (it
            // bounds how far level 0 may drain, and ties cascade before an
            // equal-start level-0 slot drains), plus level 0's own earliest
            // occupied slot.
            let mut coarse: Option<(u64, usize, usize)> = None;
            for level in (1..LEVELS).rev() {
                let idx = ((self.wheel_now >> shift(level)) & (SLOTS as u64 - 1)) as usize;
                let bits = self.occupied[level] & (!0u64 << idx);
                if bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    let window = self.wheel_now & !(span(level) - 1);
                    let start = window + (b as u64) * slot_width(level);
                    if coarse.is_none_or(|(s, _, _)| start < s) {
                        coarse = Some((start, level, b));
                    }
                }
            }
            let limit = coarse.map_or(u64::MAX, |(s, _, _)| s);
            let idx0 = ((self.wheel_now >> shift(0)) & (SLOTS as u64 - 1)) as usize;
            let bits0 = self.occupied[0] & (!0u64 << idx0);
            let window0 = self.wheel_now & !(span(0) - 1);
            let start0 = window0 + (bits0.trailing_zeros() as u64) * slot_width(0);

            if bits0 != 0 && start0 < limit {
                // Drain the earliest level-0 slot into `ready`, newest-last,
                // then sort descending so the back is the minimum. One slot
                // at a time keeps the just-drained entries hot in cache for
                // the pops that immediately consume them (measured faster
                // than batch-draining every slot below the coarse bound).
                let b = bits0.trailing_zeros() as usize;
                self.occupied[0] &= !(1u64 << b);
                self.ready.append(&mut self.slots[b]);
                self.wheel_now = start0 + slot_width(0);
                self.ready
                    .sort_unstable_by_key(|x| std::cmp::Reverse((x.at, x.seq)));
                return;
            }

            match coarse {
                None => {
                    // Wheels empty; jump the horizon to the earliest
                    // overflow entry and promote it next iteration.
                    let top = self.overflow.peek().expect("len > 0 with empty wheel");
                    self.wheel_now = top.at & !(slot_width(0) - 1);
                }
                Some((start, level, b)) => {
                    // Cascade: redistribute the coarse slot into lower
                    // levels. `start` is aligned to the full span of
                    // `level - 1`, so every entry re-inserts strictly
                    // below `level`.
                    self.cascades += 1;
                    self.occupied[level] &= !(1 << b);
                    self.wheel_now = self.wheel_now.max(start);
                    // Append, not swap: the drained slot keeps its own
                    // capacity, and only `scratch` grows to the largest
                    // cascade.
                    self.scratch.append(&mut self.slots[level * SLOTS + b]);
                    while let Some(e) = self.scratch.pop() {
                        debug_assert!(e.at >= self.wheel_now);
                        let d = e.at ^ self.wheel_now;
                        debug_assert!(d < span(level - 1));
                        self.push_slot(level_for(d), e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The original `BinaryHeap` queue, kept verbatim as the reference
    /// model for differential testing: pop order must be identical.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, at: SimTime, event: E) {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                at: at.as_nanos(),
                seq,
                event,
            });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = SimTime::from_nanos(entry.at);
            Some((self.now, entry.event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| SimTime::from_nanos(e.at))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "b");
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(9), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.now(), SimTime::from_millis(5));
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn order_batch_sorts_one_instant_by_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        for tok in [9u64, 3, 7] {
            q.schedule(t, tok);
        }
        q.schedule(SimTime::from_millis(4), 1);
        assert_eq!(q.order_batch(|&tok| tok), 3);
        assert_eq!(q.pop(), Some((t, 3)));
        // Scheduled for the same instant mid-batch: pops after the batch.
        q.schedule(t, 0);
        assert_eq!(q.pop(), Some((t, 7)));
        assert_eq!(q.pop(), Some((t, 9)));
        assert_eq!(q.order_batch(|&tok| tok), 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // The later instant is the next batch, not part of this one.
        assert_eq!(q.order_batch(|&tok| tok), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 1)));
        assert_eq!(q.order_batch(|&tok| tok), 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), ());
        q.pop();
        // Scheduling "in the past" clamps to now rather than reordering.
        let before = q.now();
        q.schedule(before, ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, before);
    }

    #[test]
    fn far_timers_park_in_overflow_and_return() {
        let mut q = EventQueue::new();
        // Beyond the top level's span (~39 h): overflow territory.
        let far = SimTime::from_secs(1_000_000);
        q.schedule(far, "far");
        q.schedule(SimTime::from_millis(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap(), (far, "far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_pop_keeps_total_order() {
        // An event scheduled into the already-drained window (between two
        // pending events' slots) must still pop in (time, seq) order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0u32);
        q.schedule(SimTime::from_secs(2), 3);
        assert_eq!(q.pop().unwrap().1, 0);
        // `wheel_now` has advanced past these timestamps.
        q.schedule(SimTime::from_nanos(50), 1);
        q.schedule(SimTime::from_nanos(50), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// Satellite: the wheel against the reference heap on a SimRng-driven
    /// workload of schedules and pops — same-timestamp bursts, slot-aligned
    /// times, far timers, overflow-range timers — asserting identical pop
    /// sequences throughout.
    #[test]
    fn differential_wheel_vs_heap_reference() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0xD1FF ^ seed);
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut next_id = 0u64;
            let mut last_at = SimTime::ZERO;
            for step in 0..50_000u32 {
                if rng.f64() < 0.55 {
                    let now = wheel.now();
                    let at = match rng.next_u64() % 10 {
                        // A burst at the exact same timestamp as the last
                        // schedule (FIFO tie-breaking).
                        0 | 1 => last_at.max(now),
                        // Exactly `now` (clamp boundary).
                        2 => now,
                        // Within the current level-0 slot.
                        3 => now + crate::time::SimDuration::from_nanos(rng.next_u64() % 2_000),
                        // Near future (typical packet events).
                        4..=6 => {
                            now + crate::time::SimDuration::from_nanos(rng.next_u64() % 200_000_000)
                        }
                        // Far future (RTO-like, higher levels).
                        7 | 8 => {
                            now + crate::time::SimDuration::from_nanos(rng.next_u64() % (1 << 45))
                        }
                        // Beyond the wheel horizon (overflow heap).
                        _ => {
                            now + crate::time::SimDuration::from_nanos(
                                (1 << 47) + rng.next_u64() % (1 << 48),
                            )
                        }
                    };
                    last_at = at;
                    wheel.schedule(at, next_id);
                    heap.schedule(at, next_id);
                    next_id += 1;
                } else {
                    assert_eq!(
                        wheel.peek_time(),
                        heap.peek_time(),
                        "peek diverged at step {step} (seed {seed})"
                    );
                    assert_eq!(
                        wheel.pop(),
                        heap.pop(),
                        "pop diverged at step {step} (seed {seed})"
                    );
                }
            }
            // Drain both completely.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h, "drain diverged (seed {seed})");
                if w.is_none() {
                    break;
                }
            }
            assert_eq!(wheel.len(), 0);
        }
    }

    /// Release builds clamp past schedules and count them; debug builds
    /// panic instead (covered by the `debug_assert`), so this test only
    /// runs without debug assertions.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_schedule_clamps_and_counts_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "future");
        q.pop();
        assert_eq!(q.clamped_schedules(), 0);
        q.schedule(SimTime::from_millis(1), "past");
        assert_eq!(q.clamped_schedules(), 1);
        // The clamped event fires at `now`, never before.
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_millis(5), "past"));
    }

    #[test]
    fn introspection_counters_track_cascades_and_promotions() {
        let mut q = EventQueue::new();
        // The first schedule drains straight into `ready`; the second (1 s
        // out) parks in a coarse wheel slot and must cascade to pop.
        q.schedule(SimTime::from_millis(1), "near");
        q.schedule(SimTime::from_secs(1), "coarse");
        assert!(q.occupied_slots() >= 1);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "coarse");
        assert!(q.cascades() > 0, "coarse slot must cascade before popping");

        // Beyond the wheel horizon: parks in overflow, promoted on demand.
        assert_eq!(q.overflow_promotions(), 0);
        q.schedule(SimTime::from_secs(1_000_000), "overflow");
        assert_eq!(q.pop().unwrap().1, "overflow");
        assert_eq!(q.overflow_promotions(), 1);
        assert_eq!(q.occupied_slots(), 0);
    }

    #[test]
    fn cascade_leaves_capacity_with_its_slot() {
        let mut q = EventQueue::new();
        // A near event fills `ready`, so the schedules below park in the
        // wheel instead of refilling straight away.
        q.schedule(SimTime::from_nanos(1), u64::MAX);
        // Level-2 slot 3 spans [3, 4) · 2^23 ns; 300 entries 10 ns apart
        // all land there.
        let base = 3 * slot_width(2);
        for i in 0..300u64 {
            q.schedule(SimTime::from_nanos(base + 10 * i), i);
        }
        let slot = 2 * SLOTS + 3;
        let cap = q.slots[slot].capacity();
        assert!(cap >= 300);
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        // Popping the near event refilled `ready` through the cascade.
        assert!(q.cascades() >= 1);
        assert!(q.slots[slot].is_empty());
        assert_eq!(q.slots[slot].capacity(), cap);
        assert!(q.scratch.capacity() >= 300);
        for i in 0..300u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn counters_track_popped_and_peak() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_micros(i), i);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.events_popped(), 10);
        assert_eq!(q.peak_len(), 10);
        assert!(q.is_empty());
    }
}
