//! The event loop tying links, paths and endpoints together.
//!
//! Endpoints (transport senders and receivers) implement
//! [`mpcc_transport::Endpoint`] and interact with the network exclusively
//! through the [`mpcc_transport::HostCtx`] seam: sending packets down a
//! path, setting timers, and drawing randomness. This simulator is one
//! driver behind that seam ([`Ctx`] is its `HostCtx` implementation); the
//! `mpcc-udp` crate provides another, backed by real sockets. The
//! simulation is a single-threaded deterministic event loop in the spirit
//! of smoltcp's event-driven design — no async runtime, no hidden
//! concurrency. Same-time events dispatch in a canonical, content-derived
//! order (see [`Simulation::run_until`]), which is what lets a topology
//! partitioned over several instances ([`crate::shard`]) behave exactly
//! like one instance.

use crate::fault::FaultPlan;
use crate::ids::{EndpointId, LinkId, PathId};
use crate::link::{Admission, DropKind, Link, LinkParams, LinkStats, TxOutcome};
use crate::packet::{Header, Packet};
use mpcc_simcore::{
    rng::splitmix64, DispatchStamp, EventQueue, ProfCat, ProfileReport, Profiler, SimDuration,
    SimRng, SimTime,
};
use mpcc_telemetry::{Layer, LinkEvent, Tracer};
use std::sync::Arc;

pub use mpcc_transport::{Endpoint, HostCtx};

/// A forward path: an ordered list of links, plus the delay the reverse
/// (ACK) direction experiences.
///
/// The reverse direction is modelled as pure delay: none of the paper's
/// topologies congest the ACK path, and this halves the event count.
#[derive(Clone, Debug)]
pub struct Path {
    /// Links traversed in order by data packets.
    pub links: Vec<LinkId>,
    /// Fixed delay applied to ACKs travelling back to the sender.
    pub reverse_delay: SimDuration,
}

/// Events processed by the simulation loop.
enum Event {
    /// A link finished serializing its head packet.
    TxComplete(LinkId),
    /// A packet finished propagating toward hop `packet.hop` of its path
    /// (or toward its destination endpoint if past the last hop). The
    /// packet waits in the [`PacketSlab`] at `slot`; the event carries
    /// only its id and hop (`u32::MAX` for past-the-last-hop direct
    /// packets), the fields [`canon_key`] needs.
    Arrive { id: u64, hop: u32, slot: u32 },
    /// An endpoint timer fired.
    Timer(EndpointId, u64),
    /// A scheduled link parameter change (boxed: it is scheduled only at
    /// setup, and would otherwise set the size of every event).
    LinkChange(LinkId, Box<LinkParams>),
}

// A wheel entry is `(at, seq, event)`: 40 bytes with a 24-byte event.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// The packets of pending `Arrive` events, kept out of the event wheel so
/// that a wheel entry stays small however large a packet is. Freed slots
/// are reused LIFO, so the slab grows only to the in-flight peak.
#[derive(Default)]
struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Stores `pkt` and returns the `Arrive` event that delivers it.
    fn arrive(&mut self, pkt: Packet) -> Event {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(pkt);
                slot
            }
            None => {
                self.slots.push(Some(pkt));
                u32::try_from(self.slots.len() - 1).expect("in-flight packets fit in u32")
            }
        };
        Event::Arrive {
            id: pkt.id,
            hop: u32::try_from(pkt.hop).unwrap_or(u32::MAX),
            slot,
        }
    }

    /// The packet waiting in `slot`.
    fn get(&self, slot: u32) -> &Packet {
        self.slots[slot as usize]
            .as_ref()
            .expect("arrival slot is occupied")
    }

    /// Removes the packet from `slot` and frees the slot. An empty slot
    /// is an engine bug: panic rather than deliver a stale packet.
    fn take(&mut self, slot: u32) -> Packet {
        let pkt = self.slots[slot as usize]
            .take()
            .expect("arrival slot is occupied");
        self.free.push(slot);
        pkt
    }

    /// Pre-sizes the slab for `n` packets in flight.
    fn reserve(&mut self, n: usize) {
        self.slots.reserve(n.saturating_sub(self.slots.len()));
        self.free.reserve(n.saturating_sub(self.free.len()));
    }
}

/// The canonical dispatch key of an event: same-time events are
/// dispatched in ascending key order, making dispatch order a function of
/// event *content* rather than queue insertion order. Keys are unique
/// within a timestamp except for duplicate-fault packet twins (same id,
/// same hop), which are bit-identical packets — their relative order is
/// immaterial.
fn canon_key(ev: &Event) -> (u8, u64, u64) {
    match ev {
        Event::TxComplete(l) => (0, l.0 as u64, 0),
        // Direct packets (`hop = usize::MAX`) keep their `u64::MAX` key.
        Event::Arrive {
            id, hop: u32::MAX, ..
        } => (1, *id, u64::MAX),
        Event::Arrive { id, hop, .. } => (1, *id, *hop as u64),
        Event::Timer(e, tok) => (2, e.0 as u64, *tok),
        Event::LinkChange(l, _) => (3, l.0 as u64, 0),
    }
}

/// Per-event hash folded (by wrapping addition, so order-insensitively)
/// into the digest. Packet ids are per-endpoint, so the hash of every
/// event is shard-count invariant.
fn event_digest(t: SimTime, ev: &Event) -> u64 {
    let (class, a, b) = canon_key(ev);
    splitmix64(t.as_nanos() ^ splitmix64(class as u64 ^ splitmix64(a ^ splitmix64(b))))
}

/// Cross-shard configuration of one shard instance of a partitioned
/// topology (absent in the default single-instance mode).
///
/// Every shard constructs the *entire* topology (all links, paths and
/// endpoint slots, with endpoint boxes only in owned slots) so ids and
/// RNG forks agree across shards; this table says which shard *processes*
/// each link's service and each endpoint's events.
#[derive(Clone, Debug)]
struct ShardCfg {
    /// This shard's index.
    me: u8,
    /// Owner shard of each link, indexed by `LinkId`.
    shard_of_link: Vec<u8>,
    /// Owner shard of each endpoint slot, indexed by `EndpointId`.
    shard_of_ep: Vec<u8>,
}

/// The simulator's implementation of the [`HostCtx`] driver seam: the
/// capabilities an endpoint has while handling an event.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: EndpointId,
    events: &'a mut EventQueue<Event>,
    slab: &'a mut PacketSlab,
    links: &'a mut [Link],
    link_rngs: &'a mut [SimRng],
    paths: &'a [Path],
    rng: &'a mut SimRng,
    /// This endpoint's packet-id counter (see [`Ctx::next_packet_id`]).
    pkt_seq: &'a mut u64,
    shard: Option<&'a ShardCfg>,
    outbox: &'a mut Vec<(u8, SimTime, Packet)>,
    tracer: &'a Tracer,
}

impl HostCtx for Ctx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn self_id(&self) -> EndpointId {
        self.self_id
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn tracer(&self) -> &Tracer {
        self.tracer
    }

    /// Sends a packet down `path` toward `dst`. The packet enters the first
    /// link's queue immediately (host NIC queueing is not modelled; pacing
    /// is the transport's job).
    fn send(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let pkt = Packet {
            id: self.next_packet_id(),
            src: self.self_id,
            dst,
            path,
            hop: 0,
            size,
            header,
        };
        self.forward(pkt);
    }

    /// The reverse direction is modelled as pure delay (none of the paper's
    /// topologies congest the ACK path), so a reverse send bypasses all
    /// links and arrives after the path's configured reverse delay.
    fn send_reverse(&mut self, path: PathId, dst: EndpointId, size: u64, header: Header) {
        let delay = self.paths[path.0 as usize].reverse_delay;
        self.send_direct(dst, delay, size, header);
    }

    fn set_timer(&mut self, at: SimTime, token: u64) {
        self.events.schedule(at, Event::Timer(self.self_id, token));
    }

    fn path_base_rtt(&self, path: PathId) -> SimDuration {
        let p = &self.paths[path.0 as usize];
        let forward = p
            .links
            .iter()
            .map(|l| self.links[l.0 as usize].params().delay)
            .fold(SimDuration::ZERO, |a, b| a + b);
        forward + p.reverse_delay
    }
}

impl<'a> Ctx<'a> {
    /// Draws the next id from this endpoint's namespace: the endpoint id
    /// in the high 32 bits, a per-endpoint sequence number below. Ids
    /// therefore never depend on the global interleaving of sends, which
    /// differs across shard counts.
    fn next_packet_id(&mut self) -> u64 {
        let id = (self.self_id.0 as u64) << 32 | *self.pkt_seq;
        *self.pkt_seq += 1;
        id
    }

    /// Sends a packet directly to `dst` after `delay`, bypassing all links.
    /// Used for the delay-only reverse (ACK) direction.
    pub fn send_direct(&mut self, dst: EndpointId, delay: SimDuration, size: u64, header: Header) {
        let pkt = Packet {
            id: self.next_packet_id(),
            src: self.self_id,
            dst,
            // The path is irrelevant for a direct packet; hop = MAX marks it
            // as past its last hop so arrival delivers it.
            path: PathId(u32::MAX),
            hop: usize::MAX,
            size,
            header,
        };
        let at = self.now + delay;
        if let Some(sc) = self.shard {
            let owner = sc.shard_of_ep[dst.0 as usize];
            if owner != sc.me {
                // Cross-shard delivery: handed off at the epoch barrier.
                self.outbox.push((owner, at, pkt));
                return;
            }
        }
        self.events.schedule(at, self.slab.arrive(pkt));
    }

    /// The links of `path`, for topology-aware helpers (e.g. base-RTT
    /// computation at connection setup). Transport logic must not use this
    /// to peek at queue state.
    pub fn path_links(&self, path: PathId) -> &[LinkId] {
        &self.paths[path.0 as usize].links
    }

    /// The reverse-direction delay of `path`.
    pub fn path_reverse_delay(&self, path: PathId) -> SimDuration {
        self.paths[path.0 as usize].reverse_delay
    }

    /// Current parameters of a link (for experiment oracles).
    pub fn link_params(&self, link: LinkId) -> LinkParams {
        self.links[link.0 as usize].params()
    }

    fn forward(&mut self, pkt: Packet) {
        let path = &self.paths[pkt.path.0 as usize];
        if pkt.hop >= path.links.len() {
            // Past the last hop: deliver. Reached only from Arrive dispatch;
            // a fresh send always has at least one link in our topologies.
            self.events.schedule(self.now, self.slab.arrive(pkt));
            return;
        }
        let link_id = path.links[pkt.hop];
        // Partitioning rule: the first hop of every path is co-owned with
        // its sending endpoint (a send enters the NIC-adjacent link
        // synchronously, so it cannot cross a shard boundary).
        debug_assert!(
            self.shard
                .is_none_or(|sc| sc.shard_of_link[link_id.0 as usize] == sc.me),
            "endpoint {:?} sends on a link owned by another shard",
            self.self_id
        );
        let link = &mut self.links[link_id.0 as usize];
        let rng = &mut self.link_rngs[link_id.0 as usize];
        let bytes = pkt.size;
        let admission = link.admit(pkt, self.now, rng);
        trace_admission(self.tracer, self.now, link_id, bytes, link, &admission);
        check_admission(self.tracer, self.now, link_id, link, &admission);
        if let Admission::StartTx(done) = admission {
            self.events.schedule(done, Event::TxComplete(link_id));
        }
    }
}

/// Emits the link-layer event corresponding to an admission outcome.
/// Pure observation: reads the link, never touches sim state.
fn trace_admission(
    tracer: &Tracer,
    now: SimTime,
    link_id: LinkId,
    bytes: u64,
    link: &Link,
    admission: &Admission,
) {
    tracer.emit_with(Layer::Link, now, || match admission {
        Admission::StartTx(_) | Admission::Queued => LinkEvent::Enqueue {
            link: link_id.0,
            bytes,
            queued_bytes: link.queued_bytes(),
        },
        Admission::Dropped(DropKind::Overflow) => LinkEvent::DropOverflow {
            link: link_id.0,
            bytes,
            queued_bytes: link.queued_bytes(),
        },
        Admission::Dropped(DropKind::Random) => LinkEvent::DropRandom {
            link: link_id.0,
            bytes,
        },
        Admission::Dropped(DropKind::Burst) => LinkEvent::DropBurst {
            link: link_id.0,
            bytes,
        },
        Admission::Dropped(DropKind::Outage) => LinkEvent::DropOutage {
            link: link_id.0,
            bytes,
        },
    });
}

/// Link-layer invariants (see crates/check and DESIGN.md §12), probed after
/// each *successful* admission: the droptail bound and (sampled) the queue
/// byte-accounting. Drops are exempt because a mid-run buffer shrink via
/// `LinkChange` may legitimately leave the queue above the new bound.
#[cfg(any(debug_assertions, feature = "invariants"))]
fn check_admission(tracer: &Tracer, now: SimTime, link_id: LinkId, link: &Link, adm: &Admission) {
    use mpcc_telemetry::CheckEvent;
    if matches!(adm, Admission::Dropped(_)) {
        return;
    }
    if let Some((observed, expected)) = link.queue_bound_violation() {
        mpcc_check::fail(
            tracer,
            now,
            CheckEvent::Violation {
                invariant: "link_queue_bound",
                conn: link_id.0 as u64,
                subflow: -1,
                observed: observed as f64,
                expected: expected as f64,
            },
        );
    }
    if link.stats().enqueued.is_multiple_of(64) {
        if let Some((cached, actual)) = link.queue_accounting_violation() {
            mpcc_check::fail(
                tracer,
                now,
                CheckEvent::Violation {
                    invariant: "link_queue_accounting",
                    conn: link_id.0 as u64,
                    subflow: -1,
                    observed: cached as f64,
                    expected: actual as f64,
                },
            );
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "invariants")))]
#[inline(always)]
fn check_admission(_: &Tracer, _: SimTime, _: LinkId, _: &Link, _: &Admission) {}

/// The deterministic random stream endpoint `id` receives in a simulation
/// seeded with `seed`.
///
/// Public so alternate drivers (the UDP replay host in `mpcc-udp`, the
/// sim-vs-real cross-check harness) can hand an endpoint the exact stream
/// it would draw inside the simulator — a prerequisite for reproducing its
/// controller decisions bit-for-bit.
pub fn endpoint_rng(seed: u64, id: EndpointId) -> SimRng {
    SimRng::seed_from_u64(0).fork(seed, splitmix64(0xEE00 ^ id.0 as u64))
}

/// The top-level simulator: owns links, paths, endpoints and the event loop.
pub struct Simulation {
    seed: u64,
    events: EventQueue<Event>,
    /// Packets of the pending `Arrive` events.
    slab: PacketSlab,
    links: Vec<Link>,
    link_rngs: Vec<SimRng>,
    paths: Vec<Path>,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    ep_rngs: Vec<SimRng>,
    /// Per-endpoint packet-id counters (see [`Ctx::next_packet_id`]).
    ep_pkt_seqs: Vec<u64>,
    now: SimTime,
    started: Vec<EndpointId>,
    tracer: Tracer,
    /// Clamped-schedule count already reported through the tracer.
    warned_clamps: u64,
    /// Self-profiler; zero-sized and inert unless the `profiler` feature
    /// is enabled.
    profiler: Profiler,
    /// Cross-shard role of this instance, when part of a sharded run.
    shard: Option<ShardCfg>,
    /// Packets bound for other shards, staged until the epoch barrier:
    /// `(destination shard, arrival time, packet)`.
    outbox: Vec<(u8, SimTime, Packet)>,
    /// Link completions executed inline by batched link service instead of
    /// through the event queue (see `serve_link`).
    inline_completions: u64,
    /// Upper bound for inline link completions: the end of the window the
    /// current `run_*` call is allowed to simulate (see `run_epoch`).
    inline_limit: SimTime,
    /// Commutative (wrapping-add) digest over all dispatched events;
    /// invariant across shard counts.
    digest: u64,
    /// Events dropped because their endpoint slot was empty (reserved but
    /// not installed, or already removed by a churn driver).
    stale_events: u64,
    /// Dispatch-position cell shared with this instance's keyed telemetry
    /// sink (`None` when untraced — the stamping branch then costs one
    /// `Option` check per dispatched event and nothing else).
    trace_stamp: Option<Arc<DispatchStamp>>,
    /// Fault knobs laid over every link's own plan (see
    /// [`Simulation::set_fault_overlay`]).
    fault_overlay: FaultPlan,
}

impl Simulation {
    /// Creates an empty simulation with the given experiment seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            seed,
            events: EventQueue::new(),
            slab: PacketSlab::default(),
            links: Vec::new(),
            link_rngs: Vec::new(),
            paths: Vec::new(),
            endpoints: Vec::new(),
            ep_rngs: Vec::new(),
            ep_pkt_seqs: Vec::new(),
            now: SimTime::ZERO,
            started: Vec::new(),
            tracer: Tracer::off(),
            warned_clamps: 0,
            profiler: Profiler::new(),
            shard: None,
            outbox: Vec::new(),
            inline_completions: 0,
            inline_limit: SimTime::MAX,
            digest: 0,
            stale_events: 0,
            trace_stamp: None,
            fault_overlay: FaultPlan::NONE,
        }
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs a tracer; link events and (through [`Ctx::tracer`]) the
    /// transport/controller layers will record into it. Install before
    /// running — events that already happened are not replayed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The simulation's tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Shares the dispatch-position cell with this instance's keyed
    /// telemetry sink (see [`mpcc_simcore::DispatchStamp`]). The event
    /// loop publishes `(time, same-time round, canon-key)` into the cell
    /// before dispatching each event; endpoint `start` hooks run as round
    /// 0 keyed by endpoint id, and inline link completions as a round-1
    /// singleton keyed like the `TxComplete` they replace.
    pub fn set_trace_stamp(&mut self, stamp: Arc<DispatchStamp>) {
        self.trace_stamp = Some(stamp);
    }

    /// Lays `plan` over the fault plan of every link (see
    /// [`FaultPlan::overlay`]): the links already added, every later
    /// [`Simulation::add_link`], and the parameters of every `LinkChange`
    /// as it applies. This is the one seam every link's parameters pass
    /// through, so a run-wide fault spec reaches every topology builder.
    /// Set it before running.
    pub fn set_fault_overlay(&mut self, plan: FaultPlan) {
        self.fault_overlay = plan;
        for link in &mut self.links {
            let params = link.params();
            link.set_params(params.with_faults(params.faults.overlay(plan)));
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total simulation work: events popped off the queue plus link
    /// completions served inline (each stands in for a queued
    /// `TxComplete`). This is the simulator's unit of work — benchmark
    /// throughput is reported per event — and it is invariant across
    /// shard counts, unlike the popped count alone, because inline-service
    /// decisions depend on each shard's local queue head.
    pub fn events_processed(&self) -> u64 {
        self.events.events_popped() + self.inline_completions
    }

    /// High-water mark of the future-event list.
    pub fn peak_queue_len(&self) -> usize {
        self.events.peak_len()
    }

    /// Times an event was scheduled in the past and clamped to `now`
    /// (release builds only; debug builds panic on past schedules).
    pub fn clamped_schedules(&self) -> u64 {
        self.events.clamped_schedules()
    }

    /// Pre-sizes the event queue's wheel slots and drain buffers (see
    /// [`EventQueue::reserve_slot_capacity`]), and the packet slab for
    /// `drain` packets in flight. Churning workloads call this at build
    /// time so per-slot occupancy maxima and in-flight peaks discovered
    /// late in a run never allocate.
    ///
    /// [`EventQueue::reserve_slot_capacity`]: mpcc_simcore::EventQueue::reserve_slot_capacity
    pub fn reserve_event_capacity(&mut self, per_slot: usize, drain: usize) {
        self.events.reserve_slot_capacity(per_slot, drain);
        self.slab.reserve(drain);
    }

    /// Adds a link and returns its handle.
    pub fn add_link(&mut self, params: LinkParams) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let mut link = Link::new(params.with_faults(params.faults.overlay(self.fault_overlay)));
        // Faults draw from their own forked stream so configuring a fault
        // plan never perturbs the random-loss sequence of any link.
        link.set_fault_rng(
            SimRng::seed_from_u64(0).fork(self.seed, splitmix64(0xFA17 ^ id.0 as u64)),
        );
        self.links.push(link);
        self.link_rngs
            .push(SimRng::seed_from_u64(0).fork(self.seed, splitmix64(0x11CC ^ id.0 as u64)));
        id
    }

    /// Adds a forward path over `links`. If `reverse_delay` is `None` it
    /// defaults to the sum of the links' current propagation delays
    /// (a symmetric path).
    pub fn add_path(&mut self, links: Vec<LinkId>, reverse_delay: Option<SimDuration>) -> PathId {
        let reverse_delay = reverse_delay.unwrap_or_else(|| {
            links
                .iter()
                .map(|l| self.links[l.0 as usize].delay())
                .fold(SimDuration::ZERO, |a, b| a + b)
        });
        let id = PathId(self.paths.len() as u32);
        self.paths.push(Path {
            links,
            reverse_delay,
        });
        id
    }

    /// Registers an endpoint. Its `start` hook runs when the simulation is
    /// next driven (so endpoints added before `run_*` all start at time
    /// zero, in endpoint-id order).
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint>) -> EndpointId {
        let id = self.reserve_endpoint();
        self.endpoints[id.0 as usize] = Some(ep);
        self.started.push(id);
        id
    }

    /// Reserves an endpoint slot without installing an endpoint.
    ///
    /// Two uses: a shard of a partitioned topology reserves slots for the
    /// endpoints other shards own (so ids and RNG forks line up across
    /// shards), and churn drivers reserve slots for connections that are
    /// created mid-run via [`Simulation::install_endpoint`]. Events
    /// addressed to an empty slot are dropped and counted in
    /// [`Simulation::stale_events`].
    pub fn reserve_endpoint(&mut self) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(None);
        self.ep_rngs.push(endpoint_rng(self.seed, id));
        self.ep_pkt_seqs.push(0);
        id
    }

    /// Installs an endpoint into a reserved (empty) slot. Its `start` hook
    /// runs when the simulation is next driven, at the then-current clock.
    pub fn install_endpoint(&mut self, id: EndpointId, ep: Box<dyn Endpoint>) {
        let slot = &mut self.endpoints[id.0 as usize];
        assert!(slot.is_none(), "endpoint slot {id:?} already occupied");
        *slot = Some(ep);
        self.started.push(id);
    }

    /// Removes an installed endpoint, returning its box (for pooling and
    /// in-place reuse). The slot stays reserved: later events addressed to
    /// it — stray timers, spurious retransmissions in flight — are dropped
    /// and counted in [`Simulation::stale_events`].
    pub fn remove_endpoint(&mut self, id: EndpointId) -> Box<dyn Endpoint> {
        self.endpoints[id.0 as usize]
            .take()
            .expect("removing an endpoint that is not installed")
    }

    /// `true` while the slot holds an installed endpoint.
    pub fn endpoint_installed(&self, id: EndpointId) -> bool {
        self.endpoints[id.0 as usize].is_some()
    }

    /// Events dropped because their endpoint slot was empty.
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Schedules `pkt` to arrive at its destination endpoint at absolute
    /// time `at`, bypassing every link. Replay harnesses use this to feed
    /// a recorded packet trace back into a simulation (see [`crate::replay`]).
    ///
    /// Injected arrivals dispatch in the canonical same-time order: at one
    /// instant an endpoint's arrivals run by packet id, ahead of its timers
    /// by token, whatever order they were scheduled in, and timers armed
    /// while that instant dispatches run after it. The UDP replay host
    /// drains its queue by the same rule (`EventQueue::order_batch`).
    pub fn inject(&mut self, at: SimTime, mut pkt: Packet) {
        // Mark the packet past its last hop so arrival delivers it instead
        // of re-offering it to a link of whatever path id it recorded.
        pkt.hop = usize::MAX;
        let ev = self.slab.arrive(pkt);
        self.events.schedule(at, ev);
    }

    /// Schedules a link parameter change at absolute time `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, params: LinkParams) {
        self.events
            .schedule(at, Event::LinkChange(link, Box::new(params)));
    }

    // ------------------------------------------------------------------
    // Sharded execution (see DESIGN.md §16)
    // ------------------------------------------------------------------

    /// Declares this instance to be shard `me` of a partitioned topology.
    /// `shard_of_link[l]` / `shard_of_ep[e]` give the owning shard of each
    /// link / endpoint slot; both must cover everything registered so far.
    pub fn configure_shard(&mut self, me: u8, shard_of_link: Vec<u8>, shard_of_ep: Vec<u8>) {
        assert_eq!(shard_of_link.len(), self.links.len());
        assert_eq!(shard_of_ep.len(), self.endpoints.len());
        self.shard = Some(ShardCfg {
            me,
            shard_of_link,
            shard_of_ep,
        });
    }

    /// The conservative lookahead this topology supports: the minimum over
    /// all link propagation delays and all path reverse delays. Any
    /// partition of the topology is safe with epochs of this length,
    /// because every cross-shard handoff (a link-to-link hop, a final-hop
    /// delivery, or a delay-only reverse path) takes at least this long.
    /// `None` if the topology has no links. Mid-run `LinkChange`s must not
    /// lower a delay below this value.
    pub fn min_lookahead(&self) -> Option<SimDuration> {
        let link_min = self.links.iter().map(|l| l.params().delay).min();
        let rev_min = self.paths.iter().map(|p| p.reverse_delay).min();
        match (link_min, rev_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Schedules a packet handed off from another shard. Unlike
    /// [`Simulation::inject`], the packet's hop is preserved: mid-path
    /// packets re-enter at their next link, past-last-hop packets deliver
    /// to their destination endpoint.
    pub fn inject_arrival(&mut self, at: SimTime, pkt: Packet) {
        let ev = self.slab.arrive(pkt);
        self.events.schedule(at, ev);
    }

    /// Takes the staged cross-shard packets (cleared on return). The
    /// sharded engine routes them into the destination shards' wheels at
    /// the epoch barrier, swapping the buffer back via
    /// [`Simulation::give_outbox`] to keep its capacity.
    pub fn take_outbox(&mut self) -> Vec<(u8, SimTime, Packet)> {
        std::mem::take(&mut self.outbox)
    }

    /// Returns a drained outbox buffer so its capacity is reused.
    pub fn give_outbox(&mut self, mut buf: Vec<(u8, SimTime, Packet)>) {
        buf.clear();
        if buf.capacity() > self.outbox.capacity() {
            self.outbox = buf;
        }
    }

    /// The order-insensitive event digest: a wrapping sum of per-event
    /// hashes, so the combined digest over all shards is invariant across
    /// shard counts even though each shard dispatches a different subset.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The earliest pending event time, if any (the sharded engine's
    /// epoch-skip input).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Runs endpoint `start` hooks that are pending (normally done by
    /// `run_*`; the sharded engine calls it after a boundary hook installs
    /// endpoints so their first events are visible to epoch planning).
    pub fn flush_starts(&mut self) {
        self.start_pending();
    }

    /// Attributes a span to this shard's profiler (the sharded engine uses
    /// it for cross-shard handoff and barrier-wait time).
    pub fn profiler_record(&mut self, cat: ProfCat, stamp: mpcc_simcore::Stamp) {
        self.profiler.record(cat, stamp);
    }

    /// Read access to a link (statistics, current parameters).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Accumulated statistics of a link.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.links[id.0 as usize].stats()
    }

    /// Downcasts an endpoint to its concrete type for inspection.
    ///
    /// # Panics
    /// Panics if the endpoint is currently being dispatched or has a
    /// different concrete type.
    pub fn endpoint<T: 'static>(&self, id: EndpointId) -> &T {
        self.endpoints[id.0 as usize]
            .as_ref()
            .expect("endpoint is mid-dispatch")
            .as_any()
            .downcast_ref::<T>()
            .expect("endpoint type mismatch")
    }

    /// Mutable variant of [`Simulation::endpoint`].
    pub fn endpoint_mut<T: 'static>(&mut self, id: EndpointId) -> &mut T {
        self.endpoints[id.0 as usize]
            .as_mut()
            .expect("endpoint is mid-dispatch")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("endpoint type mismatch")
    }

    /// Runs until the event queue is exhausted or the clock passes `until`.
    /// On return the clock reads exactly `until` (or the last event time if
    /// the queue drained first).
    ///
    /// All events sharing a timestamp dispatch as a *round* in canonical-
    /// key order — link completions by link id, then arrivals by (packet
    /// id, hop), then timers by (endpoint, token), then link changes — so
    /// dispatch order does not depend on queue insertion order, the one
    /// quantity that differs between an inline schedule (same shard) and a
    /// mailbox drain (cross-shard handoff). Events scheduled for the same
    /// instant while a round dispatches form the next round.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_bounded(until, true);
    }

    /// Runs one synchronization epoch: all events strictly before `end`
    /// (or up to and including `end` when `inclusive`, for the final
    /// window of a sharded run). On return the clock reads exactly `end`.
    /// Cross-shard packets produced during the epoch are staged in the
    /// outbox for the caller to route.
    pub fn run_epoch(&mut self, end: SimTime, inclusive: bool) {
        self.run_bounded(end, inclusive);
    }

    fn run_bounded(&mut self, until: SimTime, inclusive: bool) {
        self.inline_limit = until;
        self.start_pending();
        // Rounds are numbered 1, 2, … per timestamp (endpoint starts are
        // round 0) for the telemetry dispatch stamp. Rounds are partition-
        // invariant: same-time follow-up chains are shard-local (every
        // cross-shard handoff travels at least one lookahead into the
        // future), so the union over shards of round-`r` batches at `t`
        // equals the one-shard round-`r` batch.
        let mut round_t = SimTime::ZERO;
        let mut round = 0u64;
        while let Some(t) = self.events.peek_time() {
            if t > until || (!inclusive && t == until) {
                break;
            }
            self.now = t;
            if t != round_t {
                round_t = t;
                round = 0;
            }
            round += 1;
            // The batch sort may be unstable: the only possible key ties
            // are duplicate-fault packet twins, which are bit-identical
            // `Copy` packets, so either order dispatches the same events.
            // A round of one is neither copied nor sorted.
            let n = self.events.order_batch(canon_key);
            for i in 1..=n {
                let (_, ev) = self.events.pop().expect("batched");
                // Inline link service is only sound for the final event of
                // the round: any earlier event still has same-time work
                // pending that could touch the link being serviced.
                self.dispatch(round, ev, i == n);
            }
        }
        self.inline_limit = SimTime::MAX;
        if self.now < until {
            self.now = until;
        }
    }

    /// Runs for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until no events remain (useful for finite workloads).
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::MAX);
    }

    fn start_pending(&mut self) {
        // Same-instant starts run in ascending endpoint-id order — the
        // canonical order for starts, exactly as same-time events dispatch
        // in canon-key order. This is partition invariant (endpoints
        // sharing any mutable state are co-sharded, and co-sharded ids sort
        // the same way in every partition), and it is what lets start-hook
        // telemetry be keyed by endpoint id: each shard's round-0 stamps
        // are then monotonic, so its keyed part stream stays sorted. A
        // start hook cannot install endpoints, so the list is stable while
        // it is walked.
        let mut started = std::mem::take(&mut self.started);
        started.sort_unstable();
        for &id in &started {
            if let Some(stamp) = &self.trace_stamp {
                stamp.set(self.now.as_nanos(), 0, (0, id.0 as u64, 0));
            }
            self.with_endpoint(id, |ep, ctx| ep.start(ctx));
        }
        started.clear();
        self.started = started;
    }

    /// The profiling category an event will dispatch into. Pure
    /// observation (mirrors `dispatch`'s branch structure); only called
    /// when the `profiler` feature is on.
    fn classify(&self, ev: &Event) -> ProfCat {
        match ev {
            Event::TxComplete(_) => ProfCat::LinkTx,
            Event::Arrive { slot, .. } => {
                let pkt = self.slab.get(*slot);
                let past_last_hop = match self.paths.get(pkt.path.0 as usize) {
                    Some(path) => pkt.hop >= path.links.len(),
                    None => true,
                };
                if !past_last_hop {
                    ProfCat::Forward
                } else if pkt.ack().is_some() {
                    ProfCat::ArriveAck
                } else {
                    ProfCat::ArriveData
                }
            }
            Event::Timer(..) => ProfCat::Timer,
            Event::LinkChange(..) => ProfCat::LinkChange,
        }
    }

    /// Snapshot of the self-profiler plus the timer wheel's always-on
    /// introspection counters. Every unit of
    /// [`Simulation::events_processed`] is profiled exactly once; an
    /// inline link completion counts as one `LinkTx`.
    pub fn profile(&self) -> ProfileReport {
        self.profiler.report(
            self.events.cascades(),
            self.events.overflow_promotions(),
            self.events.occupied_slots(),
        )
    }

    /// Publishes `ev`'s dispatch position `(t, round, canon-key)` to the
    /// trace stamp and folds the event into the digest.
    fn mark(&mut self, t: SimTime, round: u64, ev: &Event) {
        if let Some(stamp) = &self.trace_stamp {
            let (class, a, b) = canon_key(ev);
            stamp.set(t.as_nanos(), round, (class as u64, a, b));
        }
        self.digest = self.digest.wrapping_add(event_digest(t, ev));
    }

    /// Dispatches one event of round `round` at the current clock. A link
    /// completion continues into batched link service when `may_inline`
    /// (see `serve_link`).
    fn dispatch(&mut self, round: u64, ev: Event, may_inline: bool) {
        self.mark(self.now, round, &ev);
        // With the feature off, `ENABLED` is a false constant: the
        // classification, the stamp, and the record all fold away.
        let cat = if Profiler::ENABLED {
            Some(self.classify(&ev))
        } else {
            None
        };
        #[allow(clippy::let_unit_value)] // `Stamp` is `()` with the feature off
        let span = Profiler::start();
        let next_tx = match ev {
            Event::TxComplete(link) => self.complete_tx(link).map(|done| (link, done)),
            Event::Arrive { slot, .. } => {
                let pkt = self.slab.take(slot);
                let past_last_hop = match self.paths.get(pkt.path.0 as usize) {
                    Some(path) => pkt.hop >= path.links.len(),
                    None => true, // direct (delay-only) packet
                };
                if past_last_hop {
                    let dst = pkt.dst;
                    self.with_endpoint(dst, |ep, ctx| ep.on_packet(pkt, ctx));
                } else {
                    self.reforward(pkt);
                }
                None
            }
            Event::Timer(id, token) => {
                self.with_endpoint(id, |ep, ctx| ep.on_timer(token, ctx));
                None
            }
            Event::LinkChange(id, params) => {
                let faults = params.faults.overlay(self.fault_overlay);
                self.links[id.0 as usize].set_params(params.with_faults(faults));
                None
            }
        };
        if let Some(cat) = cat {
            self.profiler.record(cat, span);
        }
        if let Some((link, done)) = next_tx {
            self.serve_link(link, done, may_inline);
        }
        // Surface release-mode past-schedule clamps (debug builds panic
        // instead). A single u64 compare in the common (zero-clamp) case.
        let clamped = self.events.clamped_schedules();
        if clamped > self.warned_clamps {
            self.warned_clamps = clamped;
            self.tracer
                .emit_with(Layer::Link, self.now, || LinkEvent::ClockClamp {
                    count: clamped,
                });
        }
    }

    /// Completes the head transmission of `link_id` at the current clock
    /// and schedules the packet's arrival downstream. Returns when the
    /// link's next transmission completes, if another packet is queued.
    fn complete_tx(&mut self, link_id: LinkId) -> Option<SimTime> {
        let link = &mut self.links[link_id.0 as usize];
        let (outcome, next) = link.complete_tx(self.now);
        let delay = link.delay();
        match outcome {
            TxOutcome::Deliver {
                mut pkt,
                extra,
                duplicate,
            } => {
                if !extra.is_zero() {
                    self.tracer
                        .emit_with(Layer::Link, self.now, || LinkEvent::FaultReorder {
                            link: link_id.0,
                            bytes: pkt.size,
                            extra_delay_ns: extra.as_nanos(),
                        });
                }
                pkt.hop = pkt.hop.saturating_add(1);
                // `Packet` is `Copy`, so the rare duplication fault is a
                // stack copy and the common path never clones.
                if let Some(trail) = duplicate {
                    self.tracer
                        .emit_with(Layer::Link, self.now, || LinkEvent::FaultDuplicate {
                            link: link_id.0,
                            bytes: pkt.size,
                            extra_delay_ns: trail.as_nanos(),
                        });
                    self.schedule_arrive(self.now + delay + extra + trail, pkt);
                }
                self.schedule_arrive(self.now + delay + extra, pkt);
            }
            TxOutcome::Blackholed(pkt) => {
                self.tracer
                    .emit_with(Layer::Link, self.now, || LinkEvent::DropOutage {
                        link: link_id.0,
                        bytes: pkt.size,
                    });
            }
        }
        next
    }

    /// Batched link service: `link`'s next completion is due at `done`.
    /// While that completion is provably the very next event this instance
    /// would execute — nothing else pending in the current round
    /// (`may_inline`), strictly earlier than the queue head, and inside the
    /// current run window — it runs inline instead of round-tripping
    /// through the event queue. The decision is outcome-neutral: the
    /// completion runs at the same simulated time against the same link
    /// state either way, and is digested, stamped, counted and profiled
    /// exactly like the queued `TxComplete` it replaces, so the shard-local
    /// queue head it depends on never leaks into results.
    fn serve_link(&mut self, link: LinkId, mut done: SimTime, may_inline: bool) {
        while may_inline
            && done < self.inline_limit
            && self.events.peek_time().is_none_or(|t| done < t)
        {
            self.now = done;
            self.inline_completions += 1;
            // Inline service is provably the only activity at `done` on any
            // shard, so it stamps as the round-1 singleton the queued
            // `TxComplete` would have formed.
            self.mark(done, 1, &Event::TxComplete(link));
            #[allow(clippy::let_unit_value)] // `Stamp` is `()` with the feature off
            let span = Profiler::start();
            let next = self.complete_tx(link);
            self.profiler.record(ProfCat::LinkTx, span);
            match next {
                Some(t) => done = t,
                None => return,
            }
        }
        self.events.schedule(done, Event::TxComplete(link));
    }

    /// Schedules a packet arrival, routing it through the outbox when its
    /// processing shard (the owner of its next link, or of its destination
    /// endpoint once past the last hop) is not this instance. In the
    /// default single-instance mode this is a plain schedule.
    fn schedule_arrive(&mut self, at: SimTime, pkt: Packet) {
        if let Some(sc) = &self.shard {
            let owner = match self.paths.get(pkt.path.0 as usize) {
                Some(path) if pkt.hop < path.links.len() => {
                    sc.shard_of_link[path.links[pkt.hop].0 as usize]
                }
                _ => sc.shard_of_ep[pkt.dst.0 as usize],
            };
            if owner != sc.me {
                self.outbox.push((owner, at, pkt));
                return;
            }
        }
        let ev = self.slab.arrive(pkt);
        self.events.schedule(at, ev);
    }

    /// Re-offers a mid-path packet to its next link (no endpoint involved).
    fn reforward(&mut self, pkt: Packet) {
        let path = &self.paths[pkt.path.0 as usize];
        let link_id = path.links[pkt.hop];
        let link = &mut self.links[link_id.0 as usize];
        let rng = &mut self.link_rngs[link_id.0 as usize];
        let bytes = pkt.size;
        let admission = link.admit(pkt, self.now, rng);
        trace_admission(&self.tracer, self.now, link_id, bytes, link, &admission);
        check_admission(&self.tracer, self.now, link_id, link, &admission);
        if let Admission::StartTx(done) = admission {
            self.events.schedule(done, Event::TxComplete(link_id));
        }
    }

    fn with_endpoint<F>(&mut self, id: EndpointId, f: F)
    where
        F: FnOnce(&mut Box<dyn Endpoint>, &mut Ctx<'_>),
    {
        let idx = id.0 as usize;
        let Some(mut ep) = self.endpoints[idx].take() else {
            // Reserved-but-empty slot: the endpoint is owned by another
            // shard, or a churn driver already retired the connection and
            // this is a stray in-flight packet or stale timer. Drop it.
            self.stale_events += 1;
            return;
        };
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                events: &mut self.events,
                slab: &mut self.slab,
                links: &mut self.links,
                link_rngs: &mut self.link_rngs,
                paths: &self.paths,
                rng: &mut self.ep_rngs[idx],
                pkt_seq: &mut self.ep_pkt_seqs[idx],
                shard: self.shard.as_ref(),
                outbox: &mut self.outbox,
                tracer: &self.tracer,
            };
            f(&mut ep, &mut ctx);
        }
        self.endpoints[idx] = Some(ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckHeader, DataHeader, SackBlocks, MSS_PAYLOAD, MSS_WIRE};
    use std::any::Any;

    /// Sends `count` packets at start, records ACK arrival times.
    struct TestSender {
        path: PathId,
        peer: EndpointId,
        count: u64,
        acks: Vec<SimTime>,
        timer_fired: bool,
    }

    impl Endpoint for TestSender {
        fn start(&mut self, ctx: &mut dyn HostCtx) {
            for seq in 0..self.count {
                ctx.send(
                    self.path,
                    self.peer,
                    MSS_WIRE,
                    Header::Data(DataHeader {
                        subflow: 0,
                        seq,
                        dsn: seq * MSS_PAYLOAD,
                        payload_len: MSS_PAYLOAD,
                        sent_at: ctx.now(),
                        is_retransmission: false,
                    }),
                );
            }
            ctx.set_timer(SimTime::from_millis(500), 7);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            assert!(pkt.ack().is_some());
            self.acks.push(ctx.now());
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut dyn HostCtx) {
            assert_eq!(token, 7);
            self.timer_fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes every data packet with an ACK over the reverse delay.
    struct TestReceiver {
        received: u64,
    }

    impl Endpoint for TestReceiver {
        fn start(&mut self, _ctx: &mut dyn HostCtx) {}
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            let data = *pkt.data().expect("receiver gets data");
            self.received += 1;
            ctx.send_reverse(
                pkt.path,
                pkt.src,
                crate::packet::ACK_SIZE,
                Header::Ack(AckHeader {
                    subflow: data.subflow,
                    cum_ack: data.seq + 1,
                    sack: SackBlocks::EMPTY,
                    ack_seq: data.seq,
                    echo_sent_at: data.sent_at,
                    data_acked: data.dsn + data.payload_len,
                    rcv_window: u64::MAX,
                }),
            );
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn HostCtx) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn packets_traverse_link_and_acks_return() {
        let mut sim = Simulation::new(1);
        let link = sim.add_link(LinkParams::paper_default());
        let path = sim.add_path(vec![link], None);
        // Sender must be endpoint 0 (receiver addresses ACKs to it).
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 10,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        sim.run_until(SimTime::from_secs(1));

        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 10);
        let s = sim.endpoint::<TestSender>(sender);
        assert_eq!(s.acks.len(), 10);
        assert!(s.timer_fired);
        // First ACK: 120us serialization + 30ms + 30ms reverse.
        let expected = SimTime::ZERO + SimDuration::from_micros(120) + SimDuration::from_millis(60);
        assert_eq!(s.acks[0], expected);
        // Packets are serialized back to back: ACK spacing = 120us.
        assert_eq!(
            s.acks[1].saturating_since(s.acks[0]),
            SimDuration::from_micros(120)
        );
        assert_eq!(sim.link_stats(link).delivered_packets, 10);
    }

    #[test]
    fn two_hop_path_accumulates_delay() {
        let mut sim = Simulation::new(2);
        let l1 = sim.add_link(LinkParams::paper_default());
        let l2 = sim.add_link(LinkParams::paper_default().with_delay(SimDuration::from_millis(10)));
        let path = sim.add_path(vec![l1, l2], None);
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 1,
            acks: vec![],
            timer_fired: false,
        }));
        sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        sim.run_until(SimTime::from_secs(1));
        let s = sim.endpoint::<TestSender>(sender);
        // 120us + 30ms + 120us + 10ms forward, 40ms reverse.
        let expected = SimTime::ZERO + SimDuration::from_micros(240) + SimDuration::from_millis(80);
        assert_eq!(s.acks[0], expected);
    }

    #[test]
    fn scheduled_link_change_takes_effect() {
        let mut sim = Simulation::new(3);
        let link = sim.add_link(LinkParams::paper_default());
        sim.schedule_link_change(
            SimTime::from_millis(10),
            link,
            LinkParams::paper_default().with_capacity(Rate::from_mbps(1.0)),
        );
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.link(link).params().capacity, Rate::from_mbps(1.0));
    }

    #[test]
    fn fault_overlay_reaches_existing_added_and_changed_links() {
        let mut sim = Simulation::new(3);
        let plan = FaultPlan::NONE.with_burst(0.01, 0.3, 0.5);
        let early = sim.add_link(LinkParams::paper_default());
        // Scheduled before the overlay is set, applied after.
        let slow = LinkParams::paper_default().with_capacity(Rate::from_mbps(1.0));
        sim.schedule_link_change(SimTime::from_millis(10), early, slow);
        sim.set_fault_overlay(plan);
        let late = sim.add_link(LinkParams::paper_default());
        assert_eq!(sim.link(early).params().faults, plan);
        assert_eq!(sim.link(late).params().faults, plan);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.link(early).params(), slow.with_faults(plan));
    }

    use mpcc_simcore::Rate;

    #[test]
    fn clock_reaches_run_until_target_even_when_idle() {
        let mut sim = Simulation::new(4);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    /// Slots of the packet slab currently holding a packet.
    fn slab_occupied(sim: &Simulation) -> usize {
        sim.slab.slots.iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn direct_packets_dispatch_with_max_hop_key() {
        let mut sim = Simulation::new(5);
        let link = sim.add_link(LinkParams::paper_default());
        let path = sim.add_path(vec![link], None);
        let sender = sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 1,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        let stamp = Arc::new(DispatchStamp::new());
        sim.set_trace_stamp(stamp.clone());

        // The ACK travels by `send_direct` (behind `send_reverse`) and
        // dispatches at 120 µs + 30 ms + 30 ms with the receiver's first id.
        sim.run_until(SimTime::from_millis(61));
        let ack_id = (receiver.0 as u64) << 32;
        assert_eq!(stamp.get(), (60_120_000, 1, 1, ack_id, u64::MAX));

        // `inject` marks a packet past its last hop, whatever its hop was.
        let data = Packet {
            id: 42,
            src: sender,
            dst: receiver,
            path,
            hop: 0,
            size: MSS_WIRE,
            header: Header::Data(DataHeader {
                subflow: 0,
                seq: 1,
                dsn: MSS_PAYLOAD,
                payload_len: MSS_PAYLOAD,
                sent_at: SimTime::from_millis(70),
                is_retransmission: false,
            }),
        };
        sim.inject(SimTime::from_millis(70), data);
        sim.run_until(SimTime::from_millis(71));
        assert_eq!(stamp.get(), (70_000_000, 1, 1, 42, u64::MAX));
        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 2);
    }

    #[test]
    fn duplicate_twins_take_two_slots_and_both_deliver() {
        let mut sim = Simulation::new(6);
        let faults = FaultPlan::NONE.with_duplicate(1.0, SimDuration::from_millis(1));
        let link = sim.add_link(LinkParams::paper_default().with_faults(faults));
        let path = sim.add_path(vec![link], None);
        sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 1,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        // Serialization ends at 120 µs; both copies then propagate.
        sim.run_until(SimTime::from_micros(200));
        assert_eq!(sim.link_stats(link).duplicated, 1);
        assert_eq!(slab_occupied(&sim), 2);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.endpoint::<TestReceiver>(receiver).received, 2);
        assert_eq!(slab_occupied(&sim), 0);
    }

    #[test]
    fn slab_stays_within_queue_peak_and_drains() {
        let mut sim = Simulation::new(7);
        let faults = FaultPlan::NONE
            .with_reorder(0.2, SimDuration::from_millis(5))
            .with_duplicate(0.1, SimDuration::from_millis(2))
            .with_burst(0.01, 0.3, 0.5);
        let l1 = sim.add_link(LinkParams::paper_default().with_faults(faults));
        let l2 = sim.add_link(LinkParams::paper_default().with_faults(faults));
        let path = sim.add_path(vec![l1, l2], None);
        sim.add_endpoint(Box::new(TestSender {
            path,
            peer: EndpointId(1),
            count: 200,
            acks: vec![],
            timer_fired: false,
        }));
        let receiver = sim.add_endpoint(Box::new(TestReceiver { received: 0 }));
        sim.run_to_completion();
        assert!(sim.endpoint::<TestReceiver>(receiver).received > 0);
        assert!(sim.link_stats(l1).duplicated + sim.link_stats(l2).duplicated > 0);
        assert!(sim.events.is_empty());
        assert!(!sim.slab.slots.is_empty());
        assert!(sim.slab.slots.len() <= sim.peak_queue_len());
        assert_eq!(slab_occupied(&sim), 0);
        assert_eq!(sim.slab.free.len(), sim.slab.slots.len());
    }
}
