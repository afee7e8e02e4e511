//! Sharded execution of a partitioned topology (DESIGN.md §16).
//!
//! A [`ShardedSimulation`] runs one [`Simulation`] instance per shard in
//! lockstep epochs of conservative lookahead `L` — the minimum link
//! propagation delay / path reverse delay of the topology
//! ([`Simulation::min_lookahead`]). Within a window `[next, next + L)` no
//! shard can affect another (every cross-shard handoff takes at least
//! `L`), so each shard simulates the window independently; time-stamped
//! packet batches staged in the shards' outboxes are exchanged at the
//! epoch barrier. There are no null messages: the window is derived from
//! the published global minimum next-event time, so idle stretches are
//! skipped in one epoch.
//!
//! Determinism: every shard dispatches same-time events in the canonical,
//! content-derived order and draws per-endpoint packet ids (as every
//! `Simulation` does, so a plain instance matches a one-shard run), the
//! epoch boundary sequence is a function of global event-time minima
//! (identical at any shard count), and cross-shard batches are routed in
//! fixed shard order.
//! Simulation outcomes are therefore invariant across shard counts *and*
//! across lane counts: one epoch loop runs on *lanes*, each driving a
//! contiguous run of shards, either one lane on the caller's thread or
//! one thread per shard. The lanes differ only in who executes each
//! window.

use crate::network::Simulation;
use crate::packet::Packet;
use mpcc_simcore::{DispatchStamp, ProfCat, Profiler, SimDuration, SimTime, SpinBarrier};
use mpcc_telemetry::Tracer;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Per-shard driver logic that runs between epochs — the seam churn
/// scenarios use to create and retire connections mid-run.
///
/// Hooks run at every epoch boundary on every shard, with identical
/// `(now, bound)` arguments across shard counts; a hook must therefore
/// derive its actions from boundary-invariant state (pre-sampled arrival
/// scripts, absolute-time grids), never from which boundary happened to
/// fall where.
pub trait ShardHook: Send {
    /// Called before the epoch `[now, bound)` runs. Install work whose
    /// first event falls strictly before `bound` (e.g. connections with
    /// `arrival_time < bound`), and retire whatever is complete as of
    /// `now`.
    fn at_boundary(&mut self, sim: &mut Simulation, now: SimTime, bound: SimTime);

    /// Earliest future time this hook needs to act (next pending arrival,
    /// next retire-scan tick), or [`SimTime::MAX`]. Feeds the epoch-skip
    /// computation alongside the shards' next-event times: the returned
    /// value must not depend on the current epoch layout.
    fn next_wake(&self) -> SimTime {
        SimTime::MAX
    }

    /// Downcast support (hooks accumulate per-shard results that the
    /// experiment reads back after the run).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The default hook: no mid-run driver logic.
struct NoHook;

impl ShardHook for NoHook {
    fn at_boundary(&mut self, _sim: &mut Simulation, _now: SimTime, _bound: SimTime) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The epoch starting at the earliest pending time `next`: `(bound,
/// last)`. A full window `[next, next + lookahead)` runs exclusively and
/// the run continues; a window reaching `until` (or nothing pending
/// before it) runs to `until` inclusively and is the last.
fn plan_epoch(next: SimTime, until: SimTime, lookahead: SimDuration) -> (SimTime, bool) {
    match next.checked_add(lookahead) {
        Some(end) if end <= until => (end, false),
        _ => (until, true),
    }
}

/// A partitioned topology running as `K` lockstep shard instances.
///
/// Every shard has every link and reserves every endpoint slot, so link,
/// endpoint and path ids agree across shards, and all shards read one
/// route table (`ClosConfig::partitioned` builds it once and hands each
/// shard the same `Arc`). A shard processes link service only for the
/// links it owns, and holds endpoint state (box, random stream, packet-id
/// counter) only for the endpoints it installs; every other slot costs it
/// a `u32`. The ownership tables are shared too. `K = 1` is a valid
/// degenerate case — one shard owning everything, no cross edges — and is
/// how shard-count determinism is checked (`--shards 1` vs `--shards 4`).
pub struct ShardedSimulation {
    shards: Vec<Simulation>,
    hooks: Vec<Box<dyn ShardHook>>,
    lookahead: SimDuration,
    now: SimTime,
    epochs: u64,
    handoffs: u64,
    exchange: Exchange,
}

impl ShardedSimulation {
    /// Builds `n` shard instances by calling `build(i)` for each, then
    /// wiring in the ownership tables (`shard_of_link[l]` / `shard_of_ep[e]`
    /// give the owning shard of each link / endpoint slot; every shard
    /// reads the same copy). `build` must construct the identical
    /// topology for every shard — reserving slots for endpoints other
    /// shards own ([`Simulation::reserve_endpoint`]) and installing boxes
    /// only into its own.
    pub fn new<F>(n: u8, shard_of_link: Vec<u8>, shard_of_ep: Vec<u8>, mut build: F) -> Self
    where
        F: FnMut(u8) -> Simulation,
    {
        assert!(n >= 1, "at least one shard");
        assert!(
            shard_of_link.iter().chain(&shard_of_ep).all(|&s| s < n),
            "ownership table names a shard >= {n}"
        );
        let (shard_of_link, shard_of_ep): (Arc<[u8]>, Arc<[u8]>) =
            (shard_of_link.into(), shard_of_ep.into());
        let mut shards = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut sim = build(i);
            sim.configure_shard(i, Arc::clone(&shard_of_link), Arc::clone(&shard_of_ep));
            shards.push(sim);
        }
        let lookahead = shards[0]
            .min_lookahead()
            .expect("a sharded topology needs at least one link");
        assert!(
            lookahead > SimDuration::ZERO,
            "zero-delay links admit no conservative lookahead"
        );
        let hooks = (0..n)
            .map(|_| Box::new(NoHook) as Box<dyn ShardHook>)
            .collect();
        ShardedSimulation {
            shards,
            hooks,
            lookahead,
            now: SimTime::ZERO,
            epochs: 0,
            handoffs: 0,
            exchange: Exchange::new(n as usize),
        }
    }

    /// Number of shard instances.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `i`'s simulation.
    pub fn shard(&self, i: usize) -> &Simulation {
        &self.shards[i]
    }

    /// Mutable access to shard `i`'s simulation (tracer installation,
    /// endpoint inspection).
    pub fn shard_mut(&mut self, i: usize) -> &mut Simulation {
        &mut self.shards[i]
    }

    /// Installs the boundary hook of shard `i`.
    pub fn set_hook(&mut self, i: usize, hook: Box<dyn ShardHook>) {
        self.hooks[i] = hook;
    }

    /// Installs shard `i`'s telemetry: the tracer every layer on that
    /// shard emits through, plus the dispatch-stamp cell the shard's
    /// event loop publishes its canonical position into. A keyed sink
    /// (see `mpcc-telemetry`'s `KeyedSink`) reading the same cell writes
    /// a part stream that merges deterministically with the other shards'
    /// parts. Install before running — events already dispatched are not
    /// replayed.
    pub fn install_tracer(&mut self, i: usize, tracer: Tracer, stamp: Arc<DispatchStamp>) {
        let s = &mut self.shards[i];
        s.set_trace_stamp(stamp);
        s.set_tracer(tracer);
    }

    /// Read access to shard `i`'s hook (downcast via [`ShardHook::as_any`]).
    pub fn hook(&self, i: usize) -> &dyn ShardHook {
        self.hooks[i].as_ref()
    }

    /// Runs the epochs on one lane per shard, each on its own thread
    /// (`true`), or on one lane on the caller's thread (`false`). The
    /// default is one lane per shard when the machine has at least as
    /// many cores as shards; results are identical either way.
    pub fn set_threaded(&mut self, on: bool) {
        let lanes = if on { self.shards.len() } else { 1 };
        self.exchange.lanes = lanes;
        self.exchange.barrier = SpinBarrier::new(lanes);
    }

    /// `true` if the shards run on more than one lane.
    pub fn threaded(&self) -> bool {
        self.lanes() > 1
    }

    /// Lanes the epoch loop runs on: 1, or one per shard.
    pub fn lanes(&self) -> usize {
        self.exchange.lanes
    }

    /// Current simulation time (all shards agree between `run_until` calls).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Synchronization epochs executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Cross-shard packets handed off so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Total simulation work over all shards
    /// ([`Simulation::events_processed`]); invariant across shard counts.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed()).sum()
    }

    /// Combined order-insensitive event digest; invariant across shard
    /// and lane counts.
    pub fn digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.digest()))
    }

    /// Events dropped on empty endpoint slots, over all shards.
    pub fn stale_events(&self) -> u64 {
        self.shards.iter().map(|s| s.stale_events()).sum()
    }

    /// Largest per-shard future-event-list high-water mark. The per-shard
    /// maximum (not the sum) is what bounds memory per core.
    pub fn peak_queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.peak_queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Runs all shards in lockstep epochs until `until`. May be called
    /// repeatedly to advance in slices (the metrics pipeline does).
    pub fn run_until(&mut self, until: SimTime) {
        if until <= self.now {
            return;
        }
        let per_lane = self.shards.len().div_ceil(self.exchange.lanes);
        let (ex, start, lookahead) = (&self.exchange, self.now, self.lookahead);
        let run = |lane: usize, shards: &mut [Simulation], hooks: &mut [Box<dyn ShardHook>]| {
            ex.run_lane(lane * per_lane, shards, hooks, start, until, lookahead)
        };
        let mut lanes = self
            .shards
            .chunks_mut(per_lane)
            .zip(self.hooks.chunks_mut(per_lane))
            .enumerate();
        let (_, (shards0, hooks0)) = lanes.next().expect("at least one lane");
        // Lane 0 runs on the caller's thread; a one-lane run spawns
        // nothing (and allocates nothing).
        let (epochs, handoffs) = if lanes.len() == 0 {
            run(0, shards0, hooks0)
        } else {
            std::thread::scope(|scope| {
                let others: Vec<_> = lanes
                    .map(|(i, (shards, hooks))| scope.spawn(move || run(i, shards, hooks)))
                    .collect();
                let (epochs, mut handoffs) = run(0, shards0, hooks0);
                for lane in others {
                    handoffs += lane.join().expect("shard lane panicked").1;
                }
                (epochs, handoffs)
            })
        };
        self.epochs += epochs;
        self.handoffs += handoffs;
        self.now = until;
    }
}

/// The epoch-exchange state the lanes share. Built once per
/// [`ShardedSimulation`] and reused by every `run_until` call.
struct Exchange {
    /// Lanes per run: one, or one per shard.
    lanes: usize,
    /// One arrival per lane per phase.
    barrier: SpinBarrier,
    /// `next_times[i]`: shard `i`'s earliest pending time (ns), published
    /// before the planning barrier.
    next_times: Vec<AtomicU64>,
    /// `posted[src]`: the `(owner, time, packet)` handoffs shard `src`
    /// staged in the last epoch. Its lane refills it before the exchange
    /// barrier and the owners' lanes read it after; the next refill comes
    /// after the next planning barrier, when every read is done.
    posted: Vec<RwLock<Vec<(u8, SimTime, Packet)>>>,
}

impl Exchange {
    /// One lane per shard when the machine can run the shards in
    /// parallel, otherwise one lane.
    fn new(shards: usize) -> Exchange {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let lanes = if cores >= shards { shards } else { 1 };
        Exchange {
            lanes,
            barrier: SpinBarrier::new(lanes),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            posted: (0..shards).map(|_| RwLock::new(Vec::new())).collect(),
        }
    }

    /// The epoch loop. A lane drives the contiguous shards `first..`
    /// (with their hooks) from `start` to `until` in lockstep with every
    /// other lane: each epoch publishes next-event times, passes the
    /// planning barrier, runs the window on each of its shards, posts
    /// their handoffs, passes the exchange barrier and schedules the
    /// handoffs its shards own, in fixed (source shard, staging) order.
    /// Every lane derives the same plan from the published times, so
    /// there is no coordinator. Returns the epochs run and the packets
    /// this lane's shards handed off.
    fn run_lane(
        &self,
        first: usize,
        shards: &mut [Simulation],
        hooks: &mut [Box<dyn ShardHook>],
        start: SimTime,
        until: SimTime,
        lookahead: SimDuration,
    ) -> (u64, u64) {
        for sim in shards.iter_mut() {
            sim.flush_starts();
        }
        let (mut now, mut epochs, mut handoffs) = (start, 0, 0);
        loop {
            for (i, (sim, hook)) in shards.iter().zip(hooks.iter()).enumerate() {
                let mine = sim
                    .next_event_time()
                    .unwrap_or(SimTime::MAX)
                    .min(hook.next_wake());
                self.next_times[first + i].store(mine.as_nanos(), Ordering::Release);
            }
            #[allow(clippy::let_unit_value)] // `Stamp` is `()` with the feature off
            let wait = Profiler::start();
            self.barrier.wait();
            shards[0].profiler_record(ProfCat::ShardSync, wait);
            let next = self.next_times.iter().map(|a| a.load(Ordering::Acquire));
            let next = SimTime::from_nanos(next.min().expect("at least one shard"));
            let (bound, last) = plan_epoch(next, until, lookahead);
            for (sim, hook) in shards.iter_mut().zip(hooks.iter_mut()) {
                hook.at_boundary(sim, now, bound);
                sim.run_epoch(bound, last);
            }
            #[allow(clippy::let_unit_value)]
            let sync = Profiler::start();
            for (i, sim) in shards.iter_mut().enumerate() {
                let mut cell = self.posted[first + i].write().expect("mailbox poisoned");
                cell.clear();
                sim.drain_outbox_into(&mut cell);
                handoffs += cell.len() as u64;
            }
            self.barrier.wait();
            for (i, sim) in shards.iter_mut().enumerate() {
                let me = (first + i) as u8;
                for cell in &self.posted {
                    let cell = cell.read().expect("mailbox poisoned");
                    for &(_, at, pkt) in cell.iter().filter(|e| e.0 == me) {
                        sim.inject_arrival(at, pkt);
                    }
                }
            }
            shards[0].profiler_record(ProfCat::ShardSync, sync);
            epochs += 1;
            now = bound;
            if last {
                return (epochs, handoffs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EndpointId, PathId};
    use crate::link::LinkParams;
    use crate::network::{Endpoint, HostCtx};
    use crate::packet::{
        AckHeader, DataHeader, Header, SackBlocks, ACK_SIZE, MSS_PAYLOAD, MSS_WIRE,
    };
    use mpcc_simcore::Rate;

    /// Sends `count` packets at start, records ACK arrival times.
    struct PingSender {
        path: PathId,
        peer: EndpointId,
        count: u64,
        acks: Vec<SimTime>,
    }

    impl Endpoint for PingSender {
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
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            assert!(pkt.ack().is_some());
            self.acks.push(ctx.now());
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn HostCtx) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes every data packet with an ACK over the reverse delay.
    struct PingReceiver {
        received: u64,
    }

    impl Endpoint for PingReceiver {
        fn start(&mut self, _ctx: &mut dyn HostCtx) {}
        fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
            let data = *pkt.data().expect("receiver gets data");
            self.received += 1;
            ctx.send_reverse(
                pkt.path,
                pkt.src,
                ACK_SIZE,
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

    /// Shard `me`'s instance of a two-hop chain whose hops can live on
    /// different shards: sender and the first link on shard 0, the second
    /// link and the receiver on shard `last`.
    fn chain_shard(me: u8, last: u8) -> Simulation {
        let mut sim = Simulation::new(42);
        let l0 = sim.add_link(LinkParams::paper_default());
        let l1 = sim.add_link(LinkParams::paper_default().with_capacity(Rate::from_mbps(50.0)));
        let path = sim.add_path(vec![l0, l1]);
        let sender = sim.reserve_endpoint();
        let receiver = sim.reserve_endpoint();
        if me == 0 {
            sim.install_endpoint(
                sender,
                Box::new(PingSender {
                    path,
                    peer: receiver,
                    count: 20,
                    acks: vec![],
                }),
            );
        }
        if me == last {
            sim.install_endpoint(receiver, Box::new(PingReceiver { received: 0 }));
        }
        sim
    }

    /// The chain partitioned over `n` shards.
    fn build_chain(n: u8) -> ShardedSimulation {
        let last = n - 1;
        ShardedSimulation::new(n, vec![0, last], vec![0, last], |me| chain_shard(me, last))
    }

    fn ack_times(sim: &ShardedSimulation) -> Vec<SimTime> {
        sim.shard(0)
            .endpoint::<PingSender>(EndpointId(0))
            .acks
            .clone()
    }

    #[test]
    fn cross_shard_run_matches_single_shard() {
        let mut one = build_chain(1);
        one.run_until(SimTime::from_secs(2));
        let mut two = build_chain(2);
        two.set_threaded(false);
        two.run_until(SimTime::from_secs(2));

        assert_eq!(
            two.shard(1)
                .endpoint::<PingReceiver>(EndpointId(1))
                .received,
            20
        );
        assert_eq!(ack_times(&one), ack_times(&two));
        assert_eq!(one.digest(), two.digest());
        assert_eq!(one.total_events(), two.total_events());
        assert!(two.handoffs() > 0, "data and ACKs must cross the boundary");
        assert_eq!(one.handoffs(), 0, "single shard has no cross edges");

        // One engine: a plain `Simulation` of the same topology, run
        // without epochs, is the same computation as either sharded run.
        let mut plain = chain_shard(0, 0);
        plain.run_until(SimTime::from_secs(2));
        assert_eq!(
            plain.endpoint::<PingSender>(EndpointId(0)).acks,
            ack_times(&one)
        );
        assert_eq!(plain.digest(), one.digest());
        assert_eq!(plain.events_processed(), one.total_events());
    }

    #[test]
    fn threaded_backend_matches_sequential() {
        let mut seq = build_chain(2);
        seq.set_threaded(false);
        seq.run_until(SimTime::from_secs(2));
        let mut thr = build_chain(2);
        thr.set_threaded(true);
        thr.run_until(SimTime::from_secs(2));

        assert_eq!(ack_times(&seq), ack_times(&thr));
        assert_eq!(seq.digest(), thr.digest());
        assert_eq!(seq.total_events(), thr.total_events());
        assert_eq!(seq.handoffs(), thr.handoffs());
    }

    #[test]
    fn idle_stretches_are_skipped_without_null_messages() {
        // 20 packets finish within ~100 ms; the remaining ~9.9 s of the
        // run must cost O(1) epochs, not 9.9 s / lookahead.
        let mut sim = build_chain(2);
        sim.set_threaded(false);
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.epochs() < 2_000,
            "epoch-skip failed: {} epochs",
            sim.epochs()
        );
    }

    #[test]
    fn keyed_traces_merge_identically_across_shard_counts() {
        use mpcc_telemetry::{merge_keyed_parts, KeyedSink, LayerMask, Tracer};

        let dir = std::env::temp_dir().join(format!("mpcc-shard-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut merged_texts = Vec::new();
        for n in [1u8, 2] {
            let mut sim = build_chain(n);
            sim.set_threaded(false);
            let mut parts = Vec::new();
            for i in 0..sim.shards() {
                let stamp = Arc::new(DispatchStamp::new());
                let part = dir.join(format!("n{n}.shard{i}.part"));
                let sink = KeyedSink::create(&part, stamp.clone()).unwrap();
                sim.install_tracer(i, Tracer::new(Arc::new(sink), LayerMask::ALL), stamp);
                parts.push(part);
            }
            sim.run_until(SimTime::from_secs(2));
            for i in 0..sim.shards() {
                sim.shard(i).tracer().flush();
            }
            let merged = dir.join(format!("n{n}.jsonl"));
            let _ = std::fs::remove_file(&merged);
            let counts = merge_keyed_parts(&merged, &parts).unwrap();
            assert!(
                counts.iter().sum::<u64>() > 0,
                "sharded trace must be non-empty"
            );
            merged_texts.push(std::fs::read_to_string(&merged).unwrap());
        }
        assert_eq!(
            merged_texts[0], merged_texts[1],
            "merged trace differs between 1 and 2 shards"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_until_can_advance_in_slices() {
        let mut whole = build_chain(2);
        whole.set_threaded(false);
        whole.run_until(SimTime::from_secs(2));

        let mut sliced = build_chain(2);
        sliced.set_threaded(false);
        for ms in [1u64, 40, 41, 500, 2000] {
            sliced.run_until(SimTime::from_millis(ms));
        }
        assert_eq!(ack_times(&whole), ack_times(&sliced));
        assert_eq!(whole.digest(), sliced.digest());
    }
}
