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
//! across the sequential / threaded backends, which differ only in who
//! executes each window.

use crate::network::Simulation;
use crate::packet::Packet;
use mpcc_simcore::{DispatchStamp, ProfCat, Profiler, SimDuration, SimTime, SpinBarrier};
use mpcc_telemetry::Tracer;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
pub struct NoHook;

impl ShardHook for NoHook {
    fn at_boundary(&mut self, _sim: &mut Simulation, _now: SimTime, _bound: SimTime) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// How one epoch relates to the run target.
enum Plan {
    /// The window reaches (or nothing is pending before) the run target:
    /// run to `until` inclusively and stop.
    Final,
    /// A full window `[next, end)`; run exclusively and continue.
    Window(SimTime),
}

fn plan_epoch(next: SimTime, until: SimTime, lookahead: SimDuration) -> Plan {
    if next > until {
        return Plan::Final;
    }
    match next.checked_add(lookahead) {
        Some(end) if end <= until => Plan::Window(end),
        _ => Plan::Final,
    }
}

/// A partitioned topology running as `K` lockstep shard instances.
///
/// Every shard holds the *entire* topology (so link/endpoint/path ids and
/// RNG forks agree across shards) but installs endpoints and processes
/// link service only for the entities it owns. `K = 1` is a valid
/// degenerate case — one shard owning everything, no cross edges — and is
/// how shard-count determinism is checked (`--shards 1` vs `--shards 4`).
pub struct ShardedSimulation {
    shards: Vec<Simulation>,
    hooks: Vec<Box<dyn ShardHook>>,
    lookahead: SimDuration,
    now: SimTime,
    epochs: u64,
    handoffs: u64,
    threaded: bool,
}

impl ShardedSimulation {
    /// Builds `n` shard instances by calling `build(i)` for each, then
    /// wiring in the ownership tables (`shard_of_link[l]` / `shard_of_ep[e]`
    /// give the owning shard of each link / endpoint slot). The builder
    /// must construct the identical topology for every shard — reserving
    /// slots for endpoints other shards own ([`Simulation::reserve_endpoint`])
    /// and installing boxes only into its own.
    pub fn new<F>(n: u8, shard_of_link: Vec<u8>, shard_of_ep: Vec<u8>, mut build: F) -> Self
    where
        F: FnMut(u8) -> Simulation,
    {
        assert!(n >= 1, "at least one shard");
        assert!(
            shard_of_link.iter().chain(&shard_of_ep).all(|&s| s < n),
            "ownership table names a shard >= {n}"
        );
        let mut shards = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut sim = build(i);
            sim.configure_shard(i, shard_of_link.clone(), shard_of_ep.clone());
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
        let threaded = default_threaded(n as usize);
        ShardedSimulation {
            shards,
            hooks,
            lookahead,
            now: SimTime::ZERO,
            epochs: 0,
            handoffs: 0,
            threaded,
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

    /// Selects the threaded (one OS thread per shard) or sequential
    /// backend. The default is threaded when the machine has at least as
    /// many cores as shards (overridable with `MPCC_SHARD_THREADS=0|1`);
    /// results are identical either way.
    pub fn set_threaded(&mut self, on: bool) {
        self.threaded = on;
    }

    /// `true` if the threaded backend is selected.
    pub fn threaded(&self) -> bool {
        self.threaded
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
    /// counts and backends.
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
        if let ([sim], [hook]) = (&mut self.shards[..], &self.hooks[..]) {
            if hook.as_any().is::<NoHook>() {
                // One shard with no boundary hook: no handoff and no hook
                // call happens at an epoch boundary, so windows would only
                // cut the run into pieces. The outcome is the same either
                // way (inline link service is outcome-neutral).
                sim.run_until(until);
                self.now = until;
                return;
            }
        }
        if self.threaded && self.shards.len() > 1 {
            self.run_epochs_threaded(until);
        } else {
            self.run_epochs_sequential(until);
        }
        self.now = until;
    }

    fn run_epochs_sequential(&mut self, until: SimTime) {
        for s in &mut self.shards {
            s.flush_starts();
        }
        let mut now = self.now;
        loop {
            let next = self
                .shards
                .iter()
                .zip(&self.hooks)
                .map(|(s, h)| {
                    s.next_event_time()
                        .unwrap_or(SimTime::MAX)
                        .min(h.next_wake())
                })
                .min()
                .expect("at least one shard");
            let (bound, last) = match plan_epoch(next, until, self.lookahead) {
                Plan::Final => (until, true),
                Plan::Window(end) => (end, false),
            };
            for (s, h) in self.shards.iter_mut().zip(self.hooks.iter_mut()) {
                h.at_boundary(s, now, bound);
                s.run_epoch(bound, last);
            }
            self.route_outboxes();
            self.epochs += 1;
            now = bound;
            if last {
                break;
            }
        }
    }

    /// Routes every shard's staged cross-shard packets into the owning
    /// shards' wheels, in fixed (source shard, staging) order.
    fn route_outboxes(&mut self) {
        for src in 0..self.shards.len() {
            #[allow(clippy::let_unit_value)] // `Stamp` is `()` with the feature off
            let stamp = Profiler::start();
            let out = self.shards[src].take_outbox();
            self.handoffs += out.len() as u64;
            for &(owner, at, pkt) in &out {
                debug_assert_ne!(owner as usize, src, "outbox entry for own shard");
                self.shards[owner as usize].inject_arrival(at, pkt);
            }
            self.shards[src].give_outbox(out);
            self.shards[src].profiler_record(ProfCat::ShardSync, stamp);
        }
    }

    /// One OS thread per shard; epochs are separated by two spin-barrier
    /// phases (publish next-event times / exchange mailboxes). Every
    /// worker derives the same epoch plan from the published times, so
    /// there is no coordinator thread.
    fn run_epochs_threaded(&mut self, until: SimTime) {
        let n = self.shards.len();
        let barrier = SpinBarrier::new(n);
        let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        // mailboxes[dst][src]: written by `src` before the exchange
        // barrier, drained by `dst` after it, so the locks are never
        // contended — they exist to satisfy the aliasing rules cheaply.
        type Mailbox = Mutex<Vec<(SimTime, Packet)>>;
        let mailboxes: Vec<Vec<Mailbox>> = (0..n)
            .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let epochs = AtomicU64::new(0);
        let handoffs = AtomicU64::new(0);
        let lookahead = self.lookahead;
        let start_now = self.now;
        std::thread::scope(|scope| {
            for (i, (sim, hook)) in self
                .shards
                .iter_mut()
                .zip(self.hooks.iter_mut())
                .enumerate()
            {
                let (barrier, next_times, mailboxes) = (&barrier, &next_times, &mailboxes);
                let (epochs, handoffs) = (&epochs, &handoffs);
                scope.spawn(move || {
                    sim.flush_starts();
                    let mut now = start_now;
                    loop {
                        let mine = sim
                            .next_event_time()
                            .unwrap_or(SimTime::MAX)
                            .min(hook.next_wake());
                        next_times[i].store(mine.as_nanos(), Ordering::Release);
                        #[allow(clippy::let_unit_value)]
                        let wait = Profiler::start();
                        barrier.wait();
                        sim.profiler_record(ProfCat::ShardSync, wait);
                        let next = SimTime::from_nanos(
                            next_times
                                .iter()
                                .map(|a| a.load(Ordering::Acquire))
                                .min()
                                .expect("at least one shard"),
                        );
                        let (bound, last) = match plan_epoch(next, until, lookahead) {
                            Plan::Final => (until, true),
                            Plan::Window(end) => (end, false),
                        };
                        hook.at_boundary(sim, now, bound);
                        sim.run_epoch(bound, last);
                        #[allow(clippy::let_unit_value)]
                        let sync = Profiler::start();
                        let out = sim.take_outbox();
                        if !out.is_empty() {
                            handoffs.fetch_add(out.len() as u64, Ordering::Relaxed);
                            for &(owner, at, pkt) in &out {
                                debug_assert_ne!(owner as usize, i);
                                mailboxes[owner as usize][i]
                                    .lock()
                                    .expect("mailbox poisoned")
                                    .push((at, pkt));
                            }
                        }
                        sim.give_outbox(out);
                        barrier.wait();
                        for src_cell in &mailboxes[i] {
                            let mut cell = src_cell.lock().expect("mailbox poisoned");
                            for (at, pkt) in cell.drain(..) {
                                sim.inject_arrival(at, pkt);
                            }
                        }
                        sim.profiler_record(ProfCat::ShardSync, sync);
                        if i == 0 {
                            epochs.fetch_add(1, Ordering::Relaxed);
                        }
                        now = bound;
                        if last {
                            break;
                        }
                    }
                });
            }
        });
        self.epochs += epochs.load(Ordering::Relaxed);
        self.handoffs += handoffs.load(Ordering::Relaxed);
    }
}

/// Threaded by default only when the machine can actually run the shards
/// in parallel; `MPCC_SHARD_THREADS=0|1` forces either backend (results
/// are identical — the override exists for testing and benchmarking).
fn default_threaded(n: usize) -> bool {
    match std::env::var("MPCC_SHARD_THREADS").as_deref() {
        Ok("1") => return n > 1,
        Ok("0") => return false,
        _ => {}
    }
    n > 1
        && std::thread::available_parallelism()
            .map(|p| p.get() >= n)
            .unwrap_or(false)
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
        let path = sim.add_path(vec![l0, l1], None);
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
                let sink = KeyedSink::create(&part, false, stamp.clone()).unwrap();
                sim.install_tracer(i, Tracer::new(Arc::new(sink), LayerMask::ALL), stamp);
                parts.push(part);
            }
            sim.run_until(SimTime::from_secs(2));
            for i in 0..sim.shards() {
                sim.shard(i).tracer().flush();
            }
            let merged = dir.join(format!("n{n}.jsonl"));
            let _ = std::fs::remove_file(&merged);
            let counts = merge_keyed_parts(&merged, &parts, None).unwrap();
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
