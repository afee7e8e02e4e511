//! The socket driver: one event loop over real UDP sockets or a recorded
//! packet trace.
//!
//! [`UdpPeer`] drives one transport [`Endpoint`] the way
//! `mpcc_netsim::Simulation` does: it owns the endpoint, hands it a
//! [`HostCtx`] per callback, and dispatches arrivals and timers from one
//! [`EventQueue`] in the shared same-instant order
//! ([`EventQueue::order_batch`]). On sockets, each turn's datagrams enter
//! that queue as arrivals at the turn's clock reading. Under
//! [`UdpPeer::replay`], a recorded [`PacketTrace`] is pre-loaded instead
//! and a [`ManualClock`] jumps from one queued event to the next, so a
//! trace recorded in the simulator replays to the simulator's controller
//! decisions bit-for-bit (DESIGN.md §14, `tests/udp_crosscheck.rs`).
//! Send-side `WouldBlock`, undecodable datagrams and datagrams from anyone
//! but the path's peer are counted and dropped: to the transport, loss.

use crate::codec;
use mpcc_simcore::{Clock, EventQueue, ManualClock, MonotonicClock, SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{EndpointId, Header, Packet, PathId, MSS_WIRE};
use mpcc_transport::{Endpoint, HostCtx, PacketTrace};
use std::net::{SocketAddr, UdpSocket};

/// One path of a [`UdpPeer`]: a bound (and usually connected) socket plus
/// the a-priori RTT hint the transport seeds its estimator with.
pub struct UdpPath {
    /// The socket carrying this path's datagrams (both directions).
    pub socket: UdpSocket,
    /// Where this path's datagrams go, and the only address they are
    /// accepted from. `None` until learned from the first inbound datagram
    /// that decodes (listener side).
    pub peer: Option<SocketAddr>,
    /// A-priori RTT estimate handed to the transport at setup
    /// ([`HostCtx::path_base_rtt`]).
    pub base_rtt_hint: SimDuration,
}

impl UdpPath {
    /// A path over `socket` sending to `peer`, with a base-RTT hint.
    pub fn to(socket: UdpSocket, peer: SocketAddr, base_rtt_hint: SimDuration) -> Self {
        UdpPath {
            socket,
            peer: Some(peer),
            base_rtt_hint,
        }
    }

    /// A listening path: the peer address is learned from the first
    /// datagram that arrives on `socket` and decodes.
    pub fn listening(socket: UdpSocket, base_rtt_hint: SimDuration) -> Self {
        UdpPath {
            socket,
            peer: None,
            base_rtt_hint,
        }
    }
}

/// Counters the loop accumulates; see [`UdpPeer::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Datagrams handed to the kernel (under replay: sends discarded).
    pub sent_datagrams: u64,
    /// Arrivals delivered to the endpoint.
    pub received_datagrams: u64,
    /// Sends dropped (kernel buffer full or transient send error).
    pub send_drops: u64,
    /// Inbound datagrams that failed to decode.
    pub decode_errors: u64,
    /// Inbound datagrams from an address other than the path's peer.
    pub foreign_datagrams: u64,
    /// Timer callbacks dispatched.
    pub timers_fired: u64,
    /// Turns that found no work and slept.
    pub idle_sleeps: u64,
}

enum Ev {
    Arrive(Packet),
    Timer(u64),
}

/// Where packets go and where time comes from.
enum Io {
    Sockets {
        clock: MonotonicClock,
        paths: Vec<UdpPath>,
        encode_buf: Vec<u8>,
        recv_buf: Box<[u8]>,
    },
    /// Arrivals were pre-loaded into the queue.
    Replay(ManualClock),
}

/// The driver-state half of [`UdpPeer`]; this is what the endpoint sees
/// as its [`HostCtx`]. Split from the endpoint itself so dispatch can
/// borrow both halves at once.
struct HostState {
    now: SimTime,
    io: Io,
    self_id: EndpointId,
    rng: SimRng,
    tracer: Tracer,
    queue: EventQueue<Ev>,
    base_rtts: Vec<SimDuration>,
    next_packet_id: u64,
    stats: HostStats,
}

impl HostState {
    fn clock(&mut self) -> SimTime {
        match &mut self.io {
            Io::Sockets { clock, .. } => clock.now(),
            Io::Replay(clock) => clock.now(),
        }
    }

    /// Drains up to `RECV_BATCH` datagrams per socket into the queue as
    /// arrivals at `now`.
    fn receive(&mut self, now: SimTime) {
        let Io::Sockets {
            paths, recv_buf, ..
        } = &mut self.io
        else {
            return;
        };
        for (i, p) in paths.iter_mut().enumerate() {
            for _ in 0..RECV_BATCH {
                let Ok((len, from)) = p.socket.recv_from(recv_buf) else {
                    break; // WouldBlock or transient error
                };
                if p.peer.is_some_and(|peer| peer != from) {
                    self.stats.foreign_datagrams += 1;
                } else if let Ok(mut pkt) = codec::decode(&recv_buf[..len]) {
                    p.peer = Some(from);
                    // The wire carries the sender's path numbering;
                    // locally the packet arrived on path `i`.
                    pkt.path = PathId(i as u32);
                    self.queue.schedule(now, Ev::Arrive(pkt));
                } else {
                    self.stats.decode_errors += 1;
                }
            }
        }
    }

    fn transmit(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let Io::Sockets {
            paths, encode_buf, ..
        } = &mut self.io
        else {
            self.stats.sent_datagrams += 1; // the trace holds the peer's reactions
            return;
        };
        let Some(p) = paths.get_mut(path.0 as usize) else {
            debug_assert!(false, "send on unknown {path:?}");
            self.stats.send_drops += 1;
            return;
        };
        let Some(peer) = p.peer else {
            // Listener side before the first inbound datagram: nowhere to
            // send yet. Counted as a drop; the transport retransmits.
            self.stats.send_drops += 1;
            return;
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let pkt = Packet {
            id,
            src: self.self_id,
            dst,
            path,
            hop: usize::MAX,
            size,
            header,
        };
        codec::encode(&pkt, encode_buf);
        match p.socket.send_to(encode_buf, peer) {
            Ok(_) => self.stats.sent_datagrams += 1,
            Err(_) => self.stats.send_drops += 1,
        }
    }
}

impl HostCtx for HostState {
    fn now(&self) -> SimTime {
        self.now
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

    fn send(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        self.transmit(path, dst, size, header);
    }

    /// On a socket driver the "reverse direction" is the same socket the
    /// data arrived on: UDP sockets are bidirectional.
    fn send_reverse(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        self.transmit(path, dst, size, header);
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        // The transport arms timers relative to the frozen callback `now`,
        // which can trail the queue's last-fired deadline by the time the
        // callback itself took; clamp rather than panic.
        self.queue
            .schedule(at.max(self.queue.now()), Ev::Timer(token));
    }

    fn path_base_rtt(&self, path: PathId) -> SimDuration {
        self.base_rtts[path.0 as usize]
    }
}

/// Longest idle sleep: short enough that a datagram arriving mid-sleep
/// adds at most ~0.5 ms of latency, long enough not to spin.
const MAX_IDLE_SLEEP: SimDuration = SimDuration::from_micros(500);
/// Datagrams drained per socket per turn before timers get another look.
const RECV_BATCH: usize = 64;

/// A host driving one transport endpoint over real UDP sockets, or over a
/// recorded trace ([`UdpPeer::replay`]).
pub struct UdpPeer {
    state: HostState,
    endpoint: Box<dyn Endpoint>,
    started: bool,
}

impl UdpPeer {
    /// Creates a host for `endpoint` speaking over `paths`.
    ///
    /// Sockets are switched to non-blocking mode here. `rng` is the
    /// endpoint's private stream — pass `mpcc_netsim::endpoint_rng(seed,
    /// self_id)` to make controller decisions comparable with a simulated
    /// run of the same endpoint.
    pub fn new(
        self_id: EndpointId,
        rng: SimRng,
        tracer: Tracer,
        paths: Vec<UdpPath>,
        endpoint: Box<dyn Endpoint>,
    ) -> std::io::Result<Self> {
        assert!(!paths.is_empty(), "a UDP host needs at least one path");
        for p in &paths {
            p.socket.set_nonblocking(true)?;
        }
        let base_rtts = paths.iter().map(|p| p.base_rtt_hint).collect();
        let io = Io::Sockets {
            clock: MonotonicClock::new(),
            paths,
            encode_buf: Vec::with_capacity(codec::max_encoded_len(MSS_WIRE)),
            recv_buf: vec![0u8; 65_536].into_boxed_slice(),
        };
        Ok(Self::with_io(io, self_id, rng, tracer, base_rtts, endpoint))
    }

    /// Creates a host that replays `trace` into `endpoint` under a manual
    /// clock starting at zero: each recorded arrival is delivered at its
    /// recorded time, and each send is counted and discarded.
    ///
    /// `base_rtts[i]` is what [`HostCtx::path_base_rtt`] reports for path
    /// `i`; to reproduce a simulated run it must equal that simulation's
    /// per-path base RTT, and `rng` must be the endpoint's stream there
    /// (`mpcc_netsim::endpoint_rng(seed, id)`).
    pub fn replay(
        self_id: EndpointId,
        rng: SimRng,
        tracer: Tracer,
        base_rtts: Vec<SimDuration>,
        trace: &PacketTrace,
        endpoint: Box<dyn Endpoint>,
    ) -> Self {
        let io = Io::Replay(ManualClock::new());
        let mut peer = Self::with_io(io, self_id, rng, tracer, base_rtts, endpoint);
        for e in &trace.entries {
            peer.state.queue.schedule(e.at, Ev::Arrive(e.pkt));
        }
        peer
    }

    fn with_io(
        io: Io,
        self_id: EndpointId,
        rng: SimRng,
        tracer: Tracer,
        base_rtts: Vec<SimDuration>,
        endpoint: Box<dyn Endpoint>,
    ) -> Self {
        let state = HostState {
            now: SimTime::ZERO,
            io,
            self_id,
            rng,
            tracer,
            queue: EventQueue::new(),
            base_rtts,
            next_packet_id: 0,
            stats: HostStats::default(),
        };
        UdpPeer {
            state,
            endpoint,
            started: false,
        }
    }

    /// Loop counters.
    pub fn stats(&self) -> HostStats {
        self.state.stats
    }

    /// The driver clock's current reading (nanoseconds since construction;
    /// under replay, the instant of the last turn).
    pub fn now(&mut self) -> SimTime {
        self.state.clock()
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

    /// Drives the endpoint until `done` returns `true` (checked once per
    /// turn) or the driver clock passes `deadline`. Returns `true` if
    /// `done` fired, `false` on deadline. The first call starts the
    /// endpoint at the clock's first reading (zero under replay).
    pub fn run(&mut self, deadline: SimTime, mut done: impl FnMut(&dyn Endpoint) -> bool) -> bool {
        let st = &mut self.state;
        if !self.started {
            self.started = true;
            st.now = st.clock();
            self.endpoint.start(st);
        }
        loop {
            if let Io::Replay(clock) = &mut st.io {
                clock.advance_to(st.queue.peek_time().map_or(deadline, |t| t.min(deadline)));
            }
            let now = st.clock();
            st.now = now;
            st.receive(now);
            let mut worked = false;
            while st.queue.peek_time().is_some_and(|t| t <= now) {
                for _ in 0..st.queue.order_batch(|ev| match ev {
                    Ev::Arrive(pkt) => (0, pkt.id),
                    Ev::Timer(token) => (1, *token),
                }) {
                    match st.queue.pop().expect("batched").1 {
                        Ev::Arrive(pkt) => {
                            st.stats.received_datagrams += 1;
                            self.endpoint.on_packet(pkt, st);
                        }
                        Ev::Timer(token) => {
                            st.stats.timers_fired += 1;
                            self.endpoint.on_timer(token, st);
                        }
                    }
                }
                worked = true;
            }
            if done(self.endpoint.as_ref()) {
                return true;
            }
            if now >= deadline {
                return false;
            }
            if !worked && matches!(st.io, Io::Sockets { .. }) {
                // Nothing due, nothing readable: sleep until the next
                // timer (capped) instead of spinning.
                let nap = st.queue.peek_time().map_or(MAX_IDLE_SLEEP, |t| {
                    t.saturating_since(now).min(MAX_IDLE_SLEEP)
                });
                if !nap.is_zero() {
                    st.stats.idle_sleeps += 1;
                    std::thread::sleep(std::time::Duration::from_nanos(nap.as_nanos()));
                }
            }
        }
    }
}
