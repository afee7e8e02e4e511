//! Droptail link model.
//!
//! A [`Link`] is unidirectional: packets are admitted to a FIFO queue bounded
//! in bytes (droptail), serialized one at a time at the link capacity, and
//! then propagate for the link delay. Links can also drop packets at random
//! with a configurable probability, modelling non-congestion loss (§7.2.2 of
//! the paper), and their parameters can change mid-run (§7.2.3).

use crate::fault::{FaultPlan, FaultState};
use crate::packet::{Packet, MSS_WIRE};
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// The four per-link knobs the paper's Emulab setup exposes, plus the
/// fault-injection plan (reordering, duplication, burst loss, outages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Serialization capacity.
    pub capacity: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Droptail queue limit, in bytes.
    pub buffer: u64,
    /// Probability that an admitted packet is dropped at random
    /// (non-congestion loss), in `[0, 1]`.
    pub random_loss: f64,
    /// Deterministic fault-injection plan (defaults to fault-free).
    pub faults: FaultPlan,
}

impl LinkParams {
    /// The paper's default link: 100 Mbps, 30 ms, buffer = 1 BDP (375 KB),
    /// no random loss, no faults.
    pub fn paper_default() -> Self {
        LinkParams {
            capacity: Rate::from_mbps(100.0),
            delay: SimDuration::from_millis(30),
            buffer: 375_000,
            random_loss: 0.0,
            faults: FaultPlan::NONE,
        }
    }

    /// Replaces the capacity.
    pub fn with_capacity(mut self, capacity: Rate) -> Self {
        self.capacity = capacity;
        self
    }

    /// Replaces the propagation delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Replaces the buffer size (bytes).
    pub fn with_buffer(mut self, buffer: u64) -> Self {
        self.buffer = buffer;
        self
    }

    /// Replaces the random-loss probability.
    pub fn with_random_loss(mut self, p: f64) -> Self {
        self.random_loss = p.clamp(0.0, 1.0);
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Counters a link accumulates over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets admitted to the queue.
    pub enqueued: u64,
    /// Packets dropped because the queue was full.
    pub dropped_overflow: u64,
    /// Packets dropped by the random-loss process.
    pub dropped_random: u64,
    /// Packets dropped by the Gilbert–Elliott burst-loss process.
    pub dropped_burst: u64,
    /// Packets black-holed by an outage window (at admission or while
    /// queued when serialization completed during the outage).
    pub dropped_outage: u64,
    /// Extra delivered copies produced by the duplication fault.
    pub duplicated: u64,
    /// Delivered packets that picked up reordering extra delay.
    pub reordered: u64,
    /// Packets that completed serialization.
    pub delivered_packets: u64,
    /// Bytes that completed serialization.
    pub delivered_bytes: u64,
}

/// Why a link dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// The droptail queue was full.
    Overflow,
    /// The random-loss process fired.
    Random,
    /// The Gilbert–Elliott burst-loss process fired.
    Burst,
    /// A scheduled outage window black-holed the packet at admission.
    Outage,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Packet queued; the link was idle, so serialization of this packet
    /// starts now and completes at the contained time.
    StartTx(SimTime),
    /// Packet queued behind others; a completion event is already pending.
    Queued,
    /// Packet dropped, for the contained reason.
    Dropped(DropKind),
}

/// Outcome of a completed serialization, after faults have spoken.
#[derive(Debug)]
pub enum TxOutcome {
    /// The packet propagates normally (plus any fault effects).
    Deliver {
        /// The serialized packet.
        pkt: Packet,
        /// Reordering extra delay added on top of the propagation delay
        /// (zero when the reorder fault did not fire).
        extra: SimDuration,
        /// When set, the duplication fault fired: deliver a second copy
        /// trailing the original by this much.
        duplicate: Option<SimDuration>,
    },
    /// An outage window was active when serialization completed: the
    /// packet is silently black-holed (already counted in
    /// [`LinkStats::dropped_outage`]; never delivered, never retained).
    Blackholed(Packet),
}

/// A unidirectional droptail link.
pub struct Link {
    params: LinkParams,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// `true` while a serialization-completion event is outstanding.
    transmitting: bool,
    stats: LinkStats,
    /// Fault-process state (own RNG + Gilbert–Elliott chain position).
    /// Survives [`Link::set_params`]; only the plan lives in the params.
    faults: FaultState,
}

impl Link {
    /// Creates an idle link with the given parameters. The fault RNG starts
    /// from a placeholder seed; [`Link::set_fault_rng`] installs the
    /// per-link stream forked from the experiment seed.
    pub fn new(params: LinkParams) -> Self {
        Link {
            queue: VecDeque::with_capacity(Self::queue_capacity_for(&params)),
            params,
            queued_bytes: 0,
            transmitting: false,
            stats: LinkStats::default(),
            faults: FaultState::default(),
        }
    }

    /// Packets the droptail buffer holds at its typical worst (full-sized
    /// data segments; ACKs never queue — the reverse direction is pure
    /// delay), clamped so pathological test buffers (`u64::MAX`) don't
    /// pre-allocate the world. Sizing the queue up front keeps the
    /// steady-state packet path free of reallocation.
    fn queue_capacity_for(params: &LinkParams) -> usize {
        (params.buffer / MSS_WIRE).saturating_add(1).min(1024) as usize
    }

    /// Installs the fault-process RNG (forked per link by the simulation).
    pub fn set_fault_rng(&mut self, rng: SimRng) {
        self.faults.reseed(rng);
    }

    /// Whether an outage window is active at `t` under the current plan.
    pub fn outage_active(&self, t: SimTime) -> bool {
        self.params.faults.outage.is_some_and(|o| o.active_at(t))
    }

    /// Current parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Applies a parameter change (takes effect for subsequent packets;
    /// a packet already being serialized keeps its old completion time).
    pub fn set_params(&mut self, params: LinkParams) {
        let cap = Self::queue_capacity_for(&params);
        if cap > self.queue.capacity() {
            self.queue.reserve(cap - self.queue.len());
        }
        self.params = params;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes currently queued (excludes the packet being serialized).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Invariant probe (see crates/check): the droptail bound. Returns
    /// `Some((queued_bytes, buffer))` when the queue exceeds the buffer.
    /// Only meaningful right after a successful admission — a mid-run
    /// buffer shrink via [`Link::set_params`] may legitimately leave old
    /// bytes above the new bound until the queue drains.
    pub fn queue_bound_violation(&self) -> Option<(u64, u64)> {
        (self.queued_bytes > self.params.buffer).then_some((self.queued_bytes, self.params.buffer))
    }

    /// Invariant probe: the cached byte counter against the actual queue
    /// contents (O(queue length) — callers sample). Returns
    /// `Some((cached, actual))` when they disagree.
    pub fn queue_accounting_violation(&self) -> Option<(u64, u64)> {
        let actual: u64 = self.queue.iter().map(|p| p.size).sum();
        (actual != self.queued_bytes).then_some((self.queued_bytes, actual))
    }

    /// Offers `pkt` to the link at time `now`.
    ///
    /// The caller must schedule a serialization-completion event at the time
    /// inside [`Admission::StartTx`]; on that event it calls
    /// [`Link::complete_tx`].
    pub fn admit(&mut self, pkt: Packet, now: SimTime, rng: &mut SimRng) -> Admission {
        if self.outage_active(now) {
            // Black-hole: no RNG draw, so adding/removing an outage never
            // perturbs the loss streams of packets outside its windows.
            self.stats.dropped_outage += 1;
            return Admission::Dropped(DropKind::Outage);
        }
        if self.faults.burst_verdict(&self.params.faults) {
            self.stats.dropped_burst += 1;
            return Admission::Dropped(DropKind::Burst);
        }
        if self.params.random_loss > 0.0 && rng.chance(self.params.random_loss) {
            self.stats.dropped_random += 1;
            return Admission::Dropped(DropKind::Random);
        }
        if self.queued_bytes + pkt.size > self.params.buffer {
            self.stats.dropped_overflow += 1;
            return Admission::Dropped(DropKind::Overflow);
        }
        self.stats.enqueued += 1;
        self.queued_bytes += pkt.size;
        self.queue.push_back(pkt);
        if self.transmitting {
            Admission::Queued
        } else {
            self.transmitting = true;
            let head = self.queue.front().expect("just pushed");
            Admission::StartTx(now + self.params.capacity.serialize_time(head.size))
        }
    }

    /// Completes serialization of the head packet at time `now`.
    ///
    /// Returns the delivery outcome — normally the packet (which now
    /// propagates for [`Link::delay`], plus any fault-injected extra delay
    /// or duplicate copy), or a black-hole verdict if an outage window is
    /// active — and, if more packets are queued, the completion time of the
    /// next one, for which the caller must schedule another completion
    /// event. The serialization pipeline keeps draining during an outage;
    /// only delivery is suppressed.
    pub fn complete_tx(&mut self, now: SimTime) -> (TxOutcome, Option<SimTime>) {
        debug_assert!(self.transmitting);
        let pkt = self
            .queue
            .pop_front()
            .expect("complete_tx with empty queue");
        self.queued_bytes -= pkt.size;
        let next = match self.queue.front() {
            Some(head) => Some(now + self.params.capacity.serialize_time(head.size)),
            None => {
                self.transmitting = false;
                None
            }
        };
        if self.outage_active(now) {
            // Counted immediately and never retained, so a parameter change
            // mid-outage cannot resurrect this packet.
            self.stats.dropped_outage += 1;
            return (TxOutcome::Blackholed(pkt), next);
        }
        self.stats.delivered_packets += 1;
        self.stats.delivered_bytes += pkt.size;
        let fx = self.faults.delivery_effects(&self.params.faults);
        if !fx.extra.is_zero() {
            self.stats.reordered += 1;
        }
        if fx.duplicate.is_some() {
            self.stats.duplicated += 1;
        }
        (
            TxOutcome::Deliver {
                pkt,
                extra: fx.extra,
                duplicate: fx.duplicate,
            },
            next,
        )
    }

    /// One-way propagation delay (current parameters).
    pub fn delay(&self) -> SimDuration {
        self.params.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EndpointId, PathId};
    use crate::packet::{DataHeader, Header, MSS_WIRE};

    fn pkt(id: u64, size: u64) -> Packet {
        Packet {
            id,
            src: EndpointId(0),
            dst: EndpointId(0),
            path: PathId(0),
            hop: 0,
            size,
            header: Header::Data(DataHeader {
                subflow: 0,
                seq: id,
                dsn: 0,
                payload_len: size,
                sent_at: SimTime::ZERO,
                is_retransmission: false,
            }),
        }
    }

    fn quiet_rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    fn delivered(out: TxOutcome) -> Packet {
        match out {
            TxOutcome::Deliver { pkt, .. } => pkt,
            TxOutcome::Blackholed(p) => panic!("unexpected black-hole of packet {}", p.id),
        }
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut link = Link::new(LinkParams::paper_default());
        let now = SimTime::from_millis(1);
        match link.admit(pkt(1, MSS_WIRE), now, &mut quiet_rng()) {
            Admission::StartTx(done) => {
                // 1500 B at 100 Mbps = 120 us.
                assert_eq!(done, now + SimDuration::from_micros(120));
            }
            other => panic!("expected StartTx, got {other:?}"),
        }
    }

    #[test]
    fn busy_link_queues_and_chains_completions() {
        let mut link = Link::new(LinkParams::paper_default());
        let mut rng = quiet_rng();
        let t0 = SimTime::ZERO;
        let done1 = match link.admit(pkt(1, MSS_WIRE), t0, &mut rng) {
            Admission::StartTx(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            link.admit(pkt(2, MSS_WIRE), t0, &mut rng),
            Admission::Queued
        );
        let (out, next) = link.complete_tx(done1);
        assert_eq!(delivered(out).id, 1);
        let done2 = next.expect("second packet pending");
        assert_eq!(done2, done1 + SimDuration::from_micros(120));
        let (out, next) = link.complete_tx(done2);
        assert_eq!(delivered(out).id, 2);
        assert!(next.is_none());
        assert_eq!(link.stats().delivered_packets, 2);
    }

    #[test]
    fn droptail_overflow() {
        let params = LinkParams::paper_default().with_buffer(3_000);
        let mut link = Link::new(params);
        let mut rng = quiet_rng();
        let t0 = SimTime::ZERO;
        assert!(matches!(
            link.admit(pkt(1, MSS_WIRE), t0, &mut rng),
            Admission::StartTx(_)
        ));
        assert_eq!(
            link.admit(pkt(2, MSS_WIRE), t0, &mut rng),
            Admission::Queued
        );
        // Third full-size packet exceeds the 3000-byte buffer.
        assert_eq!(
            link.admit(pkt(3, MSS_WIRE), t0, &mut rng),
            Admission::Dropped(DropKind::Overflow)
        );
        assert_eq!(link.stats().dropped_overflow, 1);
    }

    #[test]
    fn random_loss_drops_roughly_the_configured_fraction() {
        let params = LinkParams::paper_default()
            .with_buffer(u64::MAX)
            .with_random_loss(0.25);
        let mut link = Link::new(params);
        let mut rng = quiet_rng();
        let mut now = SimTime::ZERO;
        let mut dropped = 0;
        for i in 0..10_000 {
            match link.admit(pkt(i, MSS_WIRE), now, &mut rng) {
                Admission::Dropped(DropKind::Random) => dropped += 1,
                Admission::Dropped(kind) => unreachable!("unexpected drop {kind:?}"),
                Admission::StartTx(done) => {
                    // Drain immediately to keep the queue empty.
                    let (out, next) = link.complete_tx(done);
                    delivered(out);
                    assert!(next.is_none());
                    now = done;
                }
                Admission::Queued => unreachable!("queue drained each time"),
            }
        }
        let frac = dropped as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn param_change_applies_to_new_packets() {
        let mut link = Link::new(LinkParams::paper_default());
        let mut rng = quiet_rng();
        link.set_params(LinkParams::paper_default().with_capacity(Rate::from_mbps(10.0)));
        match link.admit(pkt(1, MSS_WIRE), SimTime::ZERO, &mut rng) {
            Admission::StartTx(done) => {
                assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(1200));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outage_blackholes_at_admission_and_at_completion() {
        use crate::fault::{FaultPlan, OutageSchedule};
        let outage = OutageSchedule::once(SimTime::from_millis(1), SimDuration::from_millis(5));
        let params = LinkParams::paper_default().with_faults(FaultPlan::NONE.with_outage(outage));
        let mut link = Link::new(params);
        let mut rng = quiet_rng();

        // Admitted before the outage; serialization completes inside it.
        let done = match link.admit(pkt(1, MSS_WIRE), SimTime::from_micros(950), &mut rng) {
            Admission::StartTx(d) => d,
            other => panic!("{other:?}"),
        };
        assert!(
            link.outage_active(done),
            "completion falls inside the window"
        );
        let (out, next) = link.complete_tx(done);
        assert!(matches!(out, TxOutcome::Blackholed(_)), "{out:?}");
        assert!(next.is_none());

        // Offered during the outage: dropped at admission, no RNG draw.
        assert_eq!(
            link.admit(pkt(2, MSS_WIRE), SimTime::from_millis(3), &mut rng),
            Admission::Dropped(DropKind::Outage)
        );
        // Offered after the window: delivered normally.
        let done = match link.admit(pkt(3, MSS_WIRE), SimTime::from_millis(7), &mut rng) {
            Admission::StartTx(d) => d,
            other => panic!("{other:?}"),
        };
        let (out, _) = link.complete_tx(done);
        assert_eq!(delivered(out).id, 3);

        let st = link.stats();
        assert_eq!(st.dropped_outage, 2);
        assert_eq!(st.delivered_packets, 1);
    }

    #[test]
    fn set_params_mid_outage_does_not_resurrect_blackholed_packets() {
        use crate::fault::{FaultPlan, OutageSchedule};
        let outage = OutageSchedule::once(SimTime::from_millis(1), SimDuration::from_millis(5));
        let faults = FaultPlan::NONE.with_outage(outage);
        let params = LinkParams::paper_default().with_faults(faults);
        let mut link = Link::new(params);
        let mut rng = quiet_rng();

        // Two packets admitted just before the window opens; both complete
        // serialization inside it and are black-holed.
        let t0 = SimTime::from_micros(700);
        let done1 = match link.admit(pkt(1, MSS_WIRE), t0, &mut rng) {
            Admission::StartTx(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            link.admit(pkt(2, MSS_WIRE), t0, &mut rng),
            Admission::Queued
        );
        // Capacity change lands mid-outage; the plan rides along unchanged.
        link.set_params(
            params
                .with_capacity(Rate::from_mbps(10.0))
                .with_faults(faults),
        );
        let (out, next) = link.complete_tx(SimTime::from_millis(2).max(done1));
        assert!(matches!(out, TxOutcome::Blackholed(_)), "{out:?}");
        let done2 = next.expect("second packet pending");
        assert!(link.outage_active(done2));
        let (out, next) = link.complete_tx(done2);
        assert!(
            matches!(out, TxOutcome::Blackholed(_)),
            "capacity change mid-outage must not resurrect queued packets: {out:?}"
        );
        assert!(next.is_none());
        assert_eq!(link.stats().dropped_outage, 2);
        assert_eq!(link.stats().delivered_packets, 0);

        // The window is a pure function of time: still closed afterwards.
        assert!(!link.outage_active(SimTime::from_millis(7)));
    }

    #[test]
    fn burst_loss_drops_in_bursts() {
        use crate::fault::FaultPlan;
        let params = LinkParams::paper_default()
            .with_buffer(u64::MAX)
            .with_faults(FaultPlan::NONE.with_burst(0.02, 0.25, 1.0));
        let mut link = Link::new(params);
        link.set_fault_rng(SimRng::seed_from_u64(42));
        let mut rng = quiet_rng();
        let mut now = SimTime::ZERO;
        let mut run = 0u64;
        let mut max_run = 0u64;
        for i in 0..5_000 {
            match link.admit(pkt(i, MSS_WIRE), now, &mut rng) {
                Admission::Dropped(DropKind::Burst) => {
                    run += 1;
                    max_run = max_run.max(run);
                }
                Admission::StartTx(done) => {
                    run = 0;
                    let (out, _) = link.complete_tx(done);
                    delivered(out);
                    now = done;
                }
                other => panic!("{other:?}"),
            }
        }
        let st = link.stats();
        assert!(st.dropped_burst > 100, "burst drops {}", st.dropped_burst);
        assert!(
            max_run >= 3,
            "longest burst {max_run} — loss not correlated"
        );
        assert_eq!(st.dropped_random, 0);
    }
}
