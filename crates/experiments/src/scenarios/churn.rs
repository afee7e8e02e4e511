//! `churn`: Poisson connection arrivals with heavy-tailed sizes on the
//! sharded Clos fabric, with connections created and destroyed *inside*
//! the simulation.
//!
//! This is the workload the sharded engine (DESIGN.md §16) exists for:
//! 10⁴–10⁵ short-lived connections per run, driven by per-shard
//! [`ShardHook`]s that install endpoints at epoch boundaries and retire
//! them when their transfer completes. Transport state is recycled through
//! per-shard endpoint pools and `MpSender::reset_for_reuse`, and a hook
//! checks only the endpoints its shard dispatched to since the last
//! boundary ([`Simulation::take_dispatched`]) into a reused buffer, so
//! steady-state churn performs no allocator traffic (tests/alloc_free.rs
//! measures exactly this).
//!
//! Determinism: arrivals, sizes and endpoints are sampled into a script
//! before the run from a dedicated seed stream; every shard replays the
//! same script, installing only what it owns. Because the epoch boundary
//! sequence and the simulation state at each boundary are invariant
//! across shard counts, install and retire times are too — `--shards
//! 1/2/4`, on one lane or on one lane per shard, all emit byte-identical
//! figures, which the CI shard-determinism step diffs.

use crate::output::{f3, Figure};
use crate::protocols;
use crate::ExpConfig;
use mpcc_metrics::Summary;
use mpcc_netsim::topology::{ClosConfig, ClosPartition};
use mpcc_netsim::{
    Endpoint, EndpointId, LinkId, LinkParams, PathId, ShardHook, ShardedSimulation, Simulation,
};
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig, Workload};
use std::any::Any;
use std::sync::Arc;

/// The congestion controller driving churn connections. The endpoint pools
/// depend on its `reset_for_reuse`, which every window-based controller
/// (`mpcc_cc::WindowCc`) supports; `install` asserts that it succeeds.
const PROTO: &str = "reno";
/// Receive buffer advertised by every connection (flows stay cwnd-bound).
const PEER_BUFFER: u64 = 300_000_000;
/// Bounded-Pareto size floor, bytes.
const MIN_BYTES: u64 = 10_000;
/// Pareto shape (1 < α ≤ 2 is the heavy-tailed regime).
const ALPHA: f64 = 1.5;
/// Subflows per connection (spread over ECMP routes).
const SUBFLOWS: usize = 2;
/// Endpoint boxes pre-created per shard pool. Sized above the peak
/// concurrent connection count, install never constructs fresh boxes after
/// warm-up — the zero-allocation steady state.
const PREWARM: usize = 128;
/// Uniform random loss installed on every link at t=0 via `LinkChange`
/// (the "faulted Clos" of the determinism gate).
const LOSS: f64 = 0.0005;

/// One scripted connection. Sampled before the run; identical on every
/// shard (ids come from the rack-partitioned build). Connection `i`'s
/// sender is endpoint `2i` and its receiver `2i + 1` ([`conn_of`]).
struct ConnSpec {
    arrival: SimTime,
    bytes: u64,
    paths: [PathId; SUBFLOWS],
    sender_shard: u8,
    recv_shard: u8,
}

impl ConnSpec {
    fn sender_ep(conn: u32) -> EndpointId {
        EndpointId(2 * conn)
    }

    fn recv_ep(conn: u32) -> EndpointId {
        EndpointId(2 * conn + 1)
    }
}

/// The connection an endpoint slot belongs to, and whether it is the
/// sender's.
fn conn_of(id: EndpointId) -> (u32, bool) {
    (id.0 / 2, id.0.is_multiple_of(2))
}

/// Knobs of one churn run. `churn_config` derives the scenario defaults
/// from an [`ExpConfig`]; tests and perfbench build their own.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Master seed (the arrival script and fabric share it).
    pub seed: u64,
    /// Shard count; every value produces identical results.
    pub shards: u8,
    /// Scripted connection count.
    pub conns: usize,
    /// Poisson arrivals spread over `[0, window)` at rate `conns/window`.
    pub window: SimDuration,
    /// Total simulated time (≥ `window`; the tail lets flows drain).
    pub duration: SimTime,
    /// Bounded-Pareto size cap, bytes.
    pub max_bytes: u64,
}

impl ChurnConfig {
    /// A small deterministic workload for tests and perfbench's
    /// `churn-clos`.
    pub fn small(seed: u64, shards: u8, conns: usize, secs: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            shards,
            conns,
            window: SimDuration::from_secs(secs),
            duration: SimTime::from_secs(secs + 2),
            max_bytes: 10_000_000,
        }
    }
}

/// The churn fabric: the Fig. 18 Clos shape with metro-scale 50 µs link
/// delays. The conservative lookahead equals the minimum link delay, so
/// the longer delay keeps the epoch count (and per-epoch overhead) an
/// order of magnitude below the datacenter default while leaving the
/// bandwidth-delay product in the same regime.
fn churn_fabric() -> ClosConfig {
    ClosConfig {
        link_capacity: Rate::from_gbps(1.25),
        link_delay: SimDuration::from_micros(50),
        buffer: 1_000_000,
        ..ClosConfig::default()
    }
}

/// Scenario defaults: reduced ≈ 2·10³ connections over 15 s, `--full`
/// ≈ 2·10⁴ over 120 s (the 10⁴–10⁵ short-lived-connection regime).
fn churn_config(cfg: &ExpConfig) -> ChurnConfig {
    ChurnConfig {
        seed: splitmix64(cfg.seed ^ 0xC09),
        shards: cfg.shards.max(1),
        conns: cfg.scale(2_000, 20_000),
        window: SimDuration::from_secs(cfg.scale(15, 120)),
        duration: SimTime::from_secs(cfg.scale(20, 150)),
        max_bytes: cfg.scale(10_000_000, 50_000_000),
    }
}

/// Samples the arrival script: Poisson gaps, bounded-Pareto sizes,
/// uniform src/dst pairs. Deterministic in `cfg` — every shard draws the
/// identical script.
fn sample(cfg: &ChurnConfig, hosts: usize) -> Vec<(SimTime, u64, usize, usize)> {
    let mut rng = SimRng::seed_from_u64(splitmix64(cfg.seed ^ 0xC4C4));
    let mean_gap = cfg.window.as_nanos() as f64 / cfg.conns as f64;
    let ratio = (MIN_BYTES as f64 / cfg.max_bytes as f64).powf(ALPHA);
    let mut t = 0.0f64;
    let mut script = Vec::with_capacity(cfg.conns);
    for _ in 0..cfg.conns {
        // u ∈ (0, 1]: the exponential inverse-CDF needs ln(u) finite.
        let u = 1.0 - rng.range_f64(0.0, 1.0);
        t += -u.ln() * mean_gap;
        let u2 = rng.range_f64(0.0, 1.0);
        let x = MIN_BYTES as f64 / (1.0 - u2 * (1.0 - ratio)).powf(1.0 / ALPHA);
        let bytes = (x as u64).clamp(MIN_BYTES, cfg.max_bytes);
        let src = rng.index(hosts);
        let dst = loop {
            let d = rng.index(hosts);
            if d != src {
                break d;
            }
        };
        script.push((SimTime::from_nanos(t as u64), bytes, src, dst));
    }
    script
}

/// A built churn run: the sharded engine with one `ChurnHook` per
/// shard. Drive it with `sim.run_until(...)` (slices are fine), then
/// [`ChurnSim::collect`] the outcome.
pub struct ChurnSim {
    /// The sharded engine (public so harnesses control pacing and lanes).
    pub sim: ShardedSimulation,
    conns: usize,
    duration: SimTime,
}

/// The merged outcome of a churn run. Every field except `epochs`,
/// `handoffs` and `peak_queue` is invariant across shard and lane
/// counts.
pub struct ChurnOutcome {
    /// `(conn id, bytes, fct_ms)` of completed connections, by conn id.
    pub fcts: Vec<(u32, u64, f64)>,
    /// Connections installed but unfinished at the end of the run.
    pub incomplete: u64,
    /// Scripted connections whose arrival fell past the run duration.
    pub skipped: u64,
    /// Combined order-insensitive event digest.
    pub digest: u64,
    /// Total simulation work over all shards.
    pub total_events: u64,
    /// Events dropped on retired endpoint slots (stray retransmissions
    /// and timers after teardown).
    pub stale_events: u64,
    /// Pool boxes recycled in place (`reset_for_reuse`).
    pub reuses: u64,
    /// Fresh endpoint boxes constructed because a pool ran dry.
    pub fresh: u64,
    /// Synchronization epochs executed (N-variant; reporting only).
    pub epochs: u64,
    /// Cross-shard packet handoffs (N-variant; reporting only).
    pub handoffs: u64,
    /// Largest per-shard event-queue high-water mark (N-variant).
    pub peak_queue: usize,
}

/// Builds the sharded churn run: samples the script, builds the
/// rack-partitioned fabric with every connection's paths and slots, and
/// installs one hook per shard.
pub fn build(cfg: &ChurnConfig) -> ChurnSim {
    assert!(cfg.conns > 0, "churn needs at least one connection");
    let k = cfg.shards.max(1);
    let clos = churn_fabric();
    let script = sample(cfg, clos.hosts());
    let conns: Vec<_> = script
        .iter()
        .map(|&(_, _, src, dst)| (src, dst, SUBFLOWS))
        .collect();
    // Connection `i` reserves slot `2i` for its sender, then `2i + 1` for
    // its receiver.
    let slot_hosts: Vec<usize> = script
        .iter()
        .flat_map(|&(_, _, src, dst)| [src, dst])
        .collect();
    let faulted = LinkParams::paper_default()
        .with_capacity(clos.link_capacity)
        .with_delay(clos.link_delay)
        .with_buffer(clos.buffer)
        .with_random_loss(LOSS);
    let install = |me: u8, sim: &mut Simulation, part: &ClosPartition| {
        // Fault the fabric at t=0, each link on its owning shard (so the
        // change dispatches exactly once at any shard count). The delay is
        // unchanged — lowering it would invalidate the conservative
        // lookahead computed at build.
        for (l, &owner) in part.link_shard.iter().enumerate() {
            if owner == me {
                sim.schedule_link_change(SimTime::ZERO, LinkId(l as u32), faulted);
            }
        }
        // The pools bound the endpoints a shard holds at once in the
        // steady state.
        sim.reserve_installed(2 * PREWARM);
    };
    let (mut sim, part) = clos.partitioned(cfg.seed, k, &conns, &slot_hosts, install);
    // The routes are built; free the connection list before the specs
    // are allocated.
    drop(conns);
    assert!(
        part.slots
            .iter()
            .enumerate()
            .all(|(i, id)| id.0 as usize == i),
        "connection i owns endpoint slots 2i and 2i + 1"
    );
    let specs: Vec<ConnSpec> = script
        .iter()
        .zip(part.paths)
        .enumerate()
        .map(|(i, (&(arrival, bytes, _, _), paths))| ConnSpec {
            arrival,
            bytes,
            paths: paths.try_into().expect("SUBFLOWS paths per connection"),
            sender_shard: part.slot_shard[2 * i],
            recv_shard: part.slot_shard[2 * i + 1],
        })
        .collect();
    let specs = Arc::new(specs);
    for i in 0..k {
        sim.set_hook(i as usize, Box::new(ChurnHook::new(i, Arc::clone(&specs))));
    }
    ChurnSim {
        sim,
        conns: cfg.conns,
        duration: cfg.duration,
    }
}

impl ChurnSim {
    /// Runs to the configured duration and merges the outcome.
    pub fn run(mut self) -> ChurnOutcome {
        self.sim.run_until(self.duration);
        self.collect()
    }

    /// Merges per-shard hook results (sorted by conn id — each
    /// connection's sender lives on exactly one shard, so the merge is
    /// disjoint) plus the engine's invariant counters.
    pub fn collect(&self) -> ChurnOutcome {
        let mut fcts = Vec::with_capacity(self.conns);
        let (mut incomplete, mut skipped, mut reuses, mut fresh) = (0, 0, 0, 0);
        for i in 0..self.sim.shards() {
            let hook = self.sim.hook(i).as_any().downcast_ref::<ChurnHook>();
            let hook = hook.expect("churn shards carry ChurnHooks");
            let (f, inc, skip) = hook.collect(self.sim.shard(i));
            fcts.extend(f);
            incomplete += inc;
            skipped += skip;
            reuses += hook.reuses;
            fresh += hook.fresh;
        }
        fcts.sort_unstable_by_key(|&(id, _, _)| id);
        ChurnOutcome {
            fcts,
            incomplete,
            skipped,
            digest: self.sim.digest(),
            total_events: self.sim.total_events(),
            stale_events: self.sim.stale_events(),
            reuses,
            fresh,
            epochs: self.sim.epochs(),
            handoffs: self.sim.handoffs(),
            peak_queue: self.sim.peak_queue_len(),
        }
    }
}

/// The per-shard churn driver. At every epoch boundary it retires
/// finished endpoints (returning their boxes to the pools) and installs
/// arrivals falling inside the next window; `next_wake` feeds the next
/// scripted arrival into the engine's epoch-skip so idle stretches cost
/// one epoch.
struct ChurnHook {
    me: u8,
    specs: Arc<Vec<ConnSpec>>,
    next_install: usize,
    /// The endpoints dispatched to in the last epoch (reused buffer).
    dispatched: Vec<EndpointId>,
    sender_pool: Vec<Box<dyn Endpoint>>,
    recv_pool: Vec<Box<dyn Endpoint>>,
    results: Vec<(u32, u64, f64)>,
    reuses: u64,
    fresh: u64,
}

impl ChurnHook {
    fn new(me: u8, specs: Arc<Vec<ConnSpec>>) -> ChurnHook {
        // Prewarm the pools from the first spec (the boxes are reset in
        // place at install, so which spec seeds them is immaterial).
        let sender_pool = (0..PREWARM)
            .map(|_| fresh_sender(&specs, 0))
            .collect::<Vec<_>>();
        let recv_pool = (0..PREWARM)
            .map(|_| Box::new(MpReceiver::new(PEER_BUFFER)) as Box<dyn Endpoint>)
            .collect::<Vec<_>>();
        let conns = specs.len();
        ChurnHook {
            me,
            specs,
            next_install: 0,
            dispatched: Vec::with_capacity(2 * PREWARM),
            sender_pool,
            recv_pool,
            results: Vec::with_capacity(conns),
            reuses: 0,
            fresh: 0,
        }
    }

    /// Final sweep: senders still installed here count as completed if
    /// done (not yet retired), else as incomplete; never-installed
    /// scripted arrivals as skipped.
    fn collect(&self, sim: &Simulation) -> (Vec<(u32, u64, f64)>, u64, u64) {
        let mut fcts = self.results.clone();
        let mut incomplete = 0u64;
        for (conn, _) in sim.installed_endpoints().map(conn_of).filter(|c| c.1) {
            let bytes = self.specs[conn as usize].bytes;
            match sim.endpoint::<MpSender>(ConnSpec::sender_ep(conn)).fct() {
                Some(d) => fcts.push((conn, bytes, d.as_secs_f64() * 1000.0)),
                None => incomplete += 1,
            }
        }
        let skipped = self.specs[self.next_install..]
            .iter()
            .filter(|s| s.sender_shard == self.me)
            .count() as u64;
        (fcts, incomplete, skipped)
    }

    fn install(&mut self, sim: &mut Simulation, conn: u32) {
        let spec = &self.specs[conn as usize];
        if spec.sender_shard == self.me {
            let bx = match self.sender_pool.pop() {
                Some(mut bx) => {
                    let s = bx
                        .as_any_mut()
                        .downcast_mut::<MpSender>()
                        .expect("sender pool holds MpSenders");
                    let ok = s.reset_for_reuse(
                        ConnSpec::recv_ep(conn),
                        &spec.paths,
                        Workload::Finite(spec.bytes),
                        spec.arrival,
                    );
                    assert!(ok, "{PROTO} supports in-place reset");
                    self.reuses += 1;
                    bx
                }
                None => {
                    self.fresh += 1;
                    fresh_sender(&self.specs, conn)
                }
            };
            sim.install_endpoint(ConnSpec::sender_ep(conn), bx);
        }
        if spec.recv_shard == self.me {
            let bx = match self.recv_pool.pop() {
                Some(mut bx) => {
                    bx.as_any_mut()
                        .downcast_mut::<MpReceiver>()
                        .expect("receiver pool holds MpReceivers")
                        .reset_for_reuse(PEER_BUFFER);
                    self.reuses += 1;
                    bx
                }
                None => {
                    self.fresh += 1;
                    Box::new(MpReceiver::new(PEER_BUFFER))
                }
            };
            sim.install_endpoint(ConnSpec::recv_ep(conn), bx);
        }
    }
}

fn fresh_sender(specs: &[ConnSpec], conn: u32) -> Box<dyn Endpoint> {
    let spec = &specs[conn as usize];
    Box::new(MpSender::new(
        SenderConfig {
            dst: ConnSpec::recv_ep(conn),
            paths: spec.paths.to_vec(),
            workload: Workload::Finite(spec.bytes),
            scheduler: protocols::scheduler_for(PROTO),
            start_at: spec.arrival,
            peer_buffer: PEER_BUFFER,
        },
        protocols::make(PROTO, 0),
    ))
}

impl ShardHook for ChurnHook {
    fn at_boundary(&mut self, sim: &mut Simulation, _now: SimTime, bound: SimTime) {
        // Retire first, so boxes freed here serve this boundary's installs.
        // The sender retires once the workload is acknowledged (recording
        // its FCT); the receiver once all bytes are delivered — its final
        // ACK is then in flight on the lossless delay-only reverse path,
        // so the sender always completes. Stragglers addressed to a
        // retired slot drop as stale events. An endpoint's state changes
        // only when it is dispatched, so only those dispatched to since
        // the last boundary can have finished.
        sim.take_dispatched(&mut self.dispatched);
        for &id in &self.dispatched {
            let (conn, is_sender) = conn_of(id);
            let bytes = self.specs[conn as usize].bytes;
            if is_sender {
                let sender = sim.endpoint::<MpSender>(id);
                if !sender.is_complete() {
                    continue;
                }
                let fct = sender.fct().expect("complete senders have an FCT");
                self.results.push((conn, bytes, fct.as_secs_f64() * 1000.0));
                self.sender_pool.push(sim.remove_endpoint(id));
            } else if sim.endpoint::<MpReceiver>(id).delivered_bytes() >= bytes {
                self.recv_pool.push(sim.remove_endpoint(id));
            }
        }

        // Install every scripted arrival inside [now, bound). All shards
        // walk the whole script in lockstep; each installs only what it
        // owns.
        while self.next_install < self.specs.len() && self.specs[self.next_install].arrival < bound
        {
            let conn = self.next_install as u32;
            self.next_install += 1;
            self.install(sim, conn);
        }
    }

    fn next_wake(&self) -> SimTime {
        self.specs
            .get(self.next_install)
            .map(|s| s.arrival)
            .unwrap_or(SimTime::MAX)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs the scenario and renders the figure. All emitted values are
/// invariant across shard counts; N-variant engine stats (epochs,
/// handoffs, lanes) go to stderr only, so the shard-determinism CI step
/// can diff the output files directly.
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    let c = churn_config(cfg);
    // `--trace`/`--metrics` attach one keyed part sink per shard; the
    // executor merges the parts in canonical dispatch order after the run,
    // so the streams are byte-identical at every shard count (DESIGN.md
    // §13).
    let out = cfg
        .exec
        .run_jobs(vec![c], |c, ctx| {
            let mut churn = build(&c);
            ctx.attach_sharded(&mut churn.sim);
            eprintln!(
                "churn: {} conns over {}s, {} shards on {} lane(s)",
                c.conns,
                c.window.as_secs_f64(),
                c.shards,
                churn.sim.lanes(),
            );
            churn.run()
        })
        .pop()
        .expect("one churn run");
    eprintln!(
        "churn: {} epochs, {} handoffs, peak queue/shard {}, {} reuses, {} fresh boxes",
        out.epochs, out.handoffs, out.peak_queue, out.reuses, out.fresh,
    );
    let mut fig = Figure::new(
        "churn",
        "FCT (ms) under Poisson connection churn on the faulted Clos",
        &["class", "count", "mean", "median", "p95", "p99"],
    );
    let classes: [(&str, u64, u64); 3] = [
        ("<100KB", 0, 100_000),
        ("100KB-1MB", 100_000, 1_000_000),
        (">=1MB", 1_000_000, u64::MAX),
    ];
    for (name, lo, hi) in classes {
        let samples: Vec<f64> = out
            .fcts
            .iter()
            .filter(|f| f.1 >= lo && f.1 < hi)
            .map(|f| f.2)
            .collect();
        let s = Summary::of(&samples);
        fig.row(vec![
            name.to_string(),
            samples.len().to_string(),
            f3(s.mean),
            f3(s.median()),
            f3(s.percentile(95.0)),
            f3(s.percentile(99.0)),
        ]);
    }
    fig.note(format!(
        "{} scripted connections: {} completed, {} unfinished at t={}s, {} arrived past the end",
        c.conns,
        out.fcts.len(),
        out.incomplete,
        c.duration.as_secs_f64(),
        out.skipped,
    ));
    fig.note(format!(
        "digest {:016x}, total_events {}, stale_events {} — invariant across --shards and backends",
        out.digest, out.total_events, out.stale_events,
    ));
    fig.note(format!(
        "Poisson arrivals over {}s, bounded-Pareto sizes [{}, {}] α={}, {} subflows, {} random loss on every link, endpoints recycled through per-shard pools",
        c.window.as_secs_f64(),
        MIN_BYTES,
        c.max_bytes,
        ALPHA,
        SUBFLOWS,
        LOSS,
    ));
    vec![fig]
}
