//! The driver seam: how transport endpoints see the outside world.
//!
//! An endpoint ([`MpSender`](crate::MpSender) /
//! [`MpReceiver`](crate::MpReceiver)) never names its driver. It is handed
//! a [`HostCtx`] while handling an event and through it reads the clock,
//! sends packets, and arms timers. Two drivers implement the trait:
//!
//! * `mpcc_netsim::Ctx` — the deterministic discrete-event simulator
//!   (virtual clock + timer wheel);
//! * `mpcc_udp::UdpPeer` — real non-blocking UDP sockets under a
//!   monotonic clock (or a manual clock in trace-replay mode).
//!
//! The trait is object-safe on purpose: endpoints take `&mut dyn HostCtx`,
//! so the same compiled transport code runs under either driver, and a
//! test harness can interpose (e.g. to record an ACK trace) without
//! touching the endpoint. The contract every driver must honour:
//!
//! * `now()` is constant for the duration of one endpoint callback;
//! * timers fire no earlier than their deadline, in deadline order. Events
//!   due at the same instant dispatch as one batch in canonical order —
//!   packet arrivals by packet id, then timers by token — never in arming
//!   order; events armed for that instant while the batch runs form the
//!   next batch (`mpcc_simcore::EventQueue::order_batch` is the shared
//!   drain). The sender's same-kind tokens carry monotonic epochs, so
//!   among them token order is arming order anyway;
//! * `rng()` is the endpoint's private stream — no other component draws
//!   from it — which is what makes controller decisions reproducible when
//!   the same ACK schedule is replayed under a different driver.

use crate::wire::{EndpointId, Header, Packet, PathId};
use mpcc_simcore::{SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;
use std::any::Any;

/// The capabilities an endpoint has while handling an event.
pub trait HostCtx {
    /// Current time (virtual or real, depending on the driver).
    fn now(&self) -> SimTime;

    /// This endpoint's id under the driver.
    fn self_id(&self) -> EndpointId;

    /// This endpoint's private random stream.
    fn rng(&mut self) -> &mut SimRng;

    /// The driver's tracer (cheap to clone; disabled by default).
    /// Transport endpoints emit their telemetry through this handle.
    fn tracer(&self) -> &Tracer;

    /// Sends a packet of `size` wire bytes down `path` toward `dst`.
    fn send(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header);

    /// Sends a packet along the *reverse* direction of `path` toward
    /// `dst` — the ACK channel. The simulator models this as pure delay;
    /// a socket driver answers on the socket the data arrived on.
    fn send_reverse(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header);

    /// Arms a timer that fires `on_timer(token)` at absolute time `at`.
    /// Timers cannot be cancelled; endpoints must ignore stale tokens.
    fn set_timer(&mut self, at: SimTime, token: u64);

    /// The driver's a-priori round-trip estimate for `path` (propagation
    /// delays in the simulator, a configured hint on a socket driver).
    /// Used only to seed RTT state before the first measurement.
    fn path_base_rtt(&self, path: PathId) -> SimDuration;
}

/// The interface a transport endpoint implements. (`Send` so whole
/// simulations can be farmed out to worker threads in parameter sweeps.)
pub trait Endpoint: Send {
    /// Called once when the driver first runs, at the endpoint's start
    /// time.
    fn start(&mut self, ctx: &mut dyn HostCtx);
    /// Called when a packet addressed to this endpoint arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx);
    /// Called when a timer set via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut dyn HostCtx);
    /// Downcasting support so harnesses can read endpoint statistics.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One recorded packet arrival: the input half of a driver cross-check.
///
/// A trace of these (typically the ACK stream reaching a sender) can be
/// replayed into a fresh endpoint under any driver; with identical
/// arrival times and an identical rng stream, the controller's decisions
/// must reproduce bit-for-bit. `mpcc_netsim` records and replays these in
/// the simulator; `mpcc_udp` replays them through its socket-facing code
/// under a manual clock.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Arrival time at the recorded endpoint.
    pub at: SimTime,
    /// The packet as delivered.
    pub pkt: Packet,
}

/// A recorded arrival trace, in arrival order.
#[derive(Clone, Debug, Default)]
pub struct PacketTrace {
    /// The recorded arrivals, non-decreasing in time.
    pub entries: Vec<TraceEntry>,
}

impl PacketTrace {
    /// An empty trace.
    pub fn new() -> Self {
        PacketTrace::default()
    }

    /// Appends an arrival (debug-asserts time monotonicity).
    pub fn push(&mut self, at: SimTime, pkt: Packet) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.at <= at),
            "trace arrivals must be recorded in time order"
        );
        self.entries.push(TraceEntry { at, pkt });
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
