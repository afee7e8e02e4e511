//! Trace recording and replay support for driver cross-checks.
//!
//! The sim-vs-real cross-check (DESIGN.md §14) runs one endpoint twice:
//! once inside a live simulation with a [`Tap`] recording every packet it
//! receives, and once per driver under replay, where the recorded trace is
//! fed back verbatim ([`Simulation::inject_arrival`] on the simulator
//! side, `mpcc_udp::UdpPeer::replay` on the socket side). Recorded packets
//! keep their hop; the ACKs a sender sees went by `send_direct`, which
//! marks them past their last hop, so they deliver straight to the
//! endpoint. Because the endpoint is deterministic given its packet
//! arrivals, timer order and random stream, both replays must reproduce
//! the original controller decisions exactly.
//!
//! [`Simulation::inject_arrival`]: crate::Simulation::inject_arrival

use crate::network::{Endpoint, HostCtx};
use crate::packet::Packet;
use mpcc_transport::PacketTrace;
use std::any::Any;

/// Wraps an endpoint and records every packet delivered to it, with its
/// arrival time, into a [`PacketTrace`].
///
/// Downcast with `sim.endpoint::<Tap<E>>(id)` and read [`Tap::trace`] /
/// [`Tap::inner`] after the run.
pub struct Tap<E> {
    inner: E,
    trace: PacketTrace,
}

impl<E> Tap<E> {
    /// Wraps `inner` with an empty trace.
    pub fn new(inner: E) -> Self {
        Tap {
            inner,
            trace: PacketTrace::new(),
        }
    }

    /// The recorded arrivals, in delivery order.
    pub fn trace(&self) -> &PacketTrace {
        &self.trace
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Endpoint + 'static> Endpoint for Tap<E> {
    fn start(&mut self, ctx: &mut dyn HostCtx) {
        self.inner.start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
        self.trace.push(ctx.now(), pkt);
        self.inner.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn HostCtx) {
        self.inner.on_timer(token, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An endpoint that silently discards everything it receives.
///
/// Under replay the peer's behaviour is already baked into the recorded
/// trace; the replayed endpoint's outgoing packets must reach a
/// destination, but nothing may react to them.
#[derive(Default)]
pub struct Blackhole {
    received: u64,
}

impl Blackhole {
    /// Packets swallowed so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Endpoint for Blackhole {
    fn start(&mut self, _ctx: &mut dyn HostCtx) {}

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut dyn HostCtx) {
        self.received += 1;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn HostCtx) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
