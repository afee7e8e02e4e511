//! Trace replay under a manual clock: the deterministic half of the
//! sim-vs-real cross-check.
//!
//! [`ReplayHost`] drives one endpoint through the socket driver's state
//! machine with real I/O removed: time comes from a [`ManualClock`]
//! stepped to each event's timestamp, packet arrivals come from a
//! recorded [`PacketTrace`], and outbound packets are counted and
//! discarded (the peer's reactions are already baked into the trace).
//!
//! Determinism argument (see DESIGN.md §14): an endpoint's behaviour is a
//! function of (a) its packet arrivals with their timestamps, (b) the
//! order its timers fire relative to those arrivals, and (c) its private
//! rng stream. The replay host pins all three: arrivals are pre-loaded
//! into the same `EventQueue` the simulator uses and drained with the
//! same same-instant rule (`EventQueue::order_batch`: arrivals by packet id,
//! then timers by token, with timers armed during an instant's batch
//! firing after it), exactly as `mpcc_netsim::Simulation::inject`
//! behaves — and the rng is whatever the caller seeds (use
//! `mpcc_netsim::endpoint_rng` for parity with a simulated endpoint).
//! Hence replaying the same trace here and in the simulator must produce
//! bit-identical controller decisions.

use mpcc_simcore::{Clock, EventQueue, ManualClock, SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{EndpointId, Header, Packet, PathId};
use mpcc_transport::{Endpoint, HostCtx, PacketTrace};

/// A replay event: a recorded arrival or a timer armed during the run.
enum Ev {
    Arrive(Packet),
    Timer(u64),
}

/// Same-instant dispatch order, as in the simulator: arrivals by packet
/// id, then timers by token.
fn replay_key(ev: &Ev) -> (u8, u64) {
    match ev {
        Ev::Arrive(pkt) => (0, pkt.id),
        Ev::Timer(token) => (1, *token),
    }
}

/// Counters accumulated during a replay; see [`ReplayHost::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Recorded packets delivered to the endpoint.
    pub delivered: u64,
    /// Outbound packets discarded (no real peer under replay).
    pub discarded_sends: u64,
    /// Timer callbacks dispatched.
    pub timers_fired: u64,
}

struct ReplayState {
    clock: ManualClock,
    self_id: EndpointId,
    rng: SimRng,
    tracer: Tracer,
    queue: EventQueue<Ev>,
    base_rtts: Vec<SimDuration>,
    stats: ReplayStats,
}

impl HostCtx for ReplayState {
    fn now(&self) -> SimTime {
        // `ManualClock` is a plain value; reading it is free and `Clock`'s
        // `&mut` contract is about advancement, not observation.
        let mut c = self.clock;
        c.now()
    }

    fn self_id(&self) -> EndpointId {
        self.self_id
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn send(&mut self, _path: PathId, _dst: EndpointId, _size: u64, _header: Header) {
        self.stats.discarded_sends += 1;
    }

    fn send_reverse(&mut self, _path: PathId, _dst: EndpointId, _size: u64, _header: Header) {
        self.stats.discarded_sends += 1;
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.queue.schedule(at, Ev::Timer(token));
    }

    fn path_base_rtt(&self, path: PathId) -> SimDuration {
        self.base_rtts[path.0 as usize]
    }
}

/// Replays a recorded packet trace into an endpoint under a manual clock.
pub struct ReplayHost {
    state: ReplayState,
    endpoint: Box<dyn Endpoint>,
}

impl ReplayHost {
    /// Creates a replay host for `endpoint`.
    ///
    /// `base_rtts[i]` is what [`HostCtx::path_base_rtt`] reports for path
    /// `i`; for a cross-check it must equal the replayed simulation's
    /// per-path base RTT, and `rng` must be the endpoint's stream there
    /// (`mpcc_netsim::endpoint_rng(seed, id)`).
    pub fn new(
        self_id: EndpointId,
        rng: SimRng,
        tracer: Tracer,
        base_rtts: Vec<SimDuration>,
        endpoint: Box<dyn Endpoint>,
    ) -> Self {
        ReplayHost {
            state: ReplayState {
                clock: ManualClock::new(),
                self_id,
                rng,
                tracer,
                queue: EventQueue::new(),
                base_rtts,
                stats: ReplayStats::default(),
            },
            endpoint,
        }
    }

    /// Pre-loads every recorded arrival. Must be called before [`run`]
    /// (an arrival loaded later would miss the batch of its instant).
    ///
    /// [`run`]: ReplayHost::run
    pub fn load(&mut self, trace: &PacketTrace) {
        for e in &trace.entries {
            self.state.queue.schedule(e.at, Ev::Arrive(e.pkt));
        }
    }

    /// Replay counters.
    pub fn stats(&self) -> ReplayStats {
        self.state.stats
    }

    /// Downcasts the endpoint for inspection.
    ///
    /// # Panics
    /// Panics on a concrete-type mismatch.
    pub fn endpoint<T: 'static>(&self) -> &T {
        self.endpoint
            .as_any()
            .downcast_ref::<T>()
            .expect("endpoint type mismatch")
    }

    /// Starts the endpoint at time zero and replays events until the
    /// queue is empty or the clock would pass `until` (timers re-armed
    /// beyond the horizon are left unfired, which is what bounds the run:
    /// a sender re-arms its periodic timers forever).
    pub fn run(&mut self, until: SimTime) {
        self.endpoint.start(&mut self.state);
        while self.state.queue.peek_time().is_some_and(|t| t <= until) {
            for _ in 0..self.state.queue.order_batch(replay_key) {
                let (t, ev) = self.state.queue.pop().expect("batched");
                self.state.clock.advance_to(t);
                match ev {
                    Ev::Arrive(pkt) => {
                        self.state.stats.delivered += 1;
                        self.endpoint.on_packet(pkt, &mut self.state);
                    }
                    Ev::Timer(token) => {
                        self.state.stats.timers_fired += 1;
                        self.endpoint.on_timer(token, &mut self.state);
                    }
                }
            }
        }
    }
}
