//! Sim-vs-real driver cross-check (DESIGN.md §14).
//!
//! Records the ACK trace an MPCC sender sees in a live two-path
//! simulation, then replays that exact trace into a fresh copy of the
//! sender under BOTH drivers — the netsim simulator
//! (`Simulation::inject`) and the mpcc-udp socket driver's replay host
//! (`ReplayHost`, the socket event machinery under a manual clock) — and
//! asserts the controller's monitor-interval decisions match
//! bit-for-bit. This is the test that keeps the two data planes honest:
//! if the socket driver's callback ordering, clock handling or rng
//! plumbing ever drifts from the simulator's contract, rates diverge and
//! this fails.

use mpcc::{Mpcc, MpccConfig};
use mpcc_netsim::{endpoint_rng, Blackhole, LinkParams, Simulation, Tap};
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_telemetry::{ControllerEvent, LayerMask, Record, RingSink, TraceEvent, Tracer};
use mpcc_transport::wire::{AckHeader, EndpointId, Header, Packet, PathId, SackBlocks};
use mpcc_transport::{Endpoint, HostCtx, MpSender, PacketTrace, SchedulerKind, SenderConfig};
use mpcc_udp::ReplayHost;
use std::any::Any;
use std::sync::Arc;

const SEED: u64 = 7;
const HORIZON: SimTime = SimTime::from_secs(2);

/// The two-path topology both the recording and the sim replay use.
/// Returns (sim, per-path base RTTs) — the base RTTs must be handed to
/// the udp replay host verbatim.
fn build_topology(sim: &mut Simulation) -> Vec<SimDuration> {
    let l0 = sim.add_link(LinkParams::paper_default()); // 100 Mbps, 30 ms
    let l1 = sim.add_link(
        LinkParams::paper_default()
            .with_capacity(Rate::from_mbps(40.0))
            .with_delay(SimDuration::from_millis(10)),
    );
    let p0 = sim.add_path(vec![l0], None);
    let p1 = sim.add_path(vec![l1], None);
    assert_eq!((p0.0, p1.0), (0, 1));
    // Symmetric paths: base RTT = forward delay + equal reverse delay.
    vec![SimDuration::from_millis(60), SimDuration::from_millis(20)]
}

fn sender_config() -> SenderConfig {
    SenderConfig::bulk(
        EndpointId(1),
        vec![
            mpcc_transport::wire::PathId(0),
            mpcc_transport::wire::PathId(1),
        ],
    )
    .with_scheduler(SchedulerKind::paper_rate_based())
}

fn fresh_sender() -> MpSender {
    MpSender::new(
        sender_config(),
        Box::new(Mpcc::new(MpccConfig::loss().with_seed(SEED))),
    )
}

fn controller_tracer() -> (Arc<RingSink>, Tracer) {
    let sink = Arc::new(RingSink::new(1 << 20));
    let tracer = Tracer::new(sink.clone(), LayerMask::parse("controller").unwrap());
    (sink, tracer)
}

/// The decision stream under comparison: every MI start, as (time,
/// subflow, exact rate bits).
fn mi_decisions(records: &[Record]) -> Vec<(SimTime, u32, u64)> {
    records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Controller(ControllerEvent::MiStart {
                subflow, rate_mbps, ..
            }) => Some((r.t, subflow, rate_mbps.to_bits())),
            _ => None,
        })
        .collect()
}

/// Live run: sender behind a recording tap, real receiver, two paths.
fn record_trace() -> PacketTrace {
    let mut sim = Simulation::new(SEED);
    build_topology(&mut sim);
    let sender = sim.add_endpoint(Box::new(Tap::new(fresh_sender())));
    let receiver = sim.add_endpoint(Box::new(mpcc_transport::MpReceiver::new(300_000_000)));
    assert_eq!((sender.0, receiver.0), (0, 1));
    sim.run_until(HORIZON);
    let tap = sim.endpoint::<Tap<MpSender>>(sender);
    assert!(
        tap.trace().len() > 100,
        "live run recorded only {} arrivals",
        tap.trace().len()
    );
    tap.trace().clone()
}

/// Replay through the simulator: same topology and seed, fresh sender,
/// trace injected up front, peer replaced by a blackhole.
fn replay_in_sim(trace: &PacketTrace) -> Vec<(SimTime, u32, u64)> {
    let (sink, tracer) = controller_tracer();
    let mut sim = Simulation::new(SEED);
    build_topology(&mut sim);
    sim.set_tracer(tracer);
    let sender = sim.add_endpoint(Box::new(fresh_sender()));
    sim.add_endpoint(Box::new(Blackhole::default()));
    assert_eq!(sender.0, 0);
    for e in &trace.entries {
        sim.inject(e.at, e.pkt);
    }
    sim.run_until(HORIZON);
    mi_decisions(&sink.records())
}

/// Replay through the socket driver's replay host: manual clock, same
/// rng stream, same base-RTT hints.
fn replay_in_udp(trace: &PacketTrace) -> Vec<(SimTime, u32, u64)> {
    let (sink, tracer) = controller_tracer();
    let base_rtts = vec![SimDuration::from_millis(60), SimDuration::from_millis(20)];
    let mut host = ReplayHost::new(
        EndpointId(0),
        endpoint_rng(SEED, EndpointId(0)),
        tracer,
        base_rtts,
        Box::new(fresh_sender()),
    );
    host.load(trace);
    host.run(HORIZON);
    mi_decisions(&sink.records())
}

#[test]
fn sim_and_udp_replays_make_identical_mi_decisions() {
    let trace = record_trace();
    let sim_decisions = replay_in_sim(&trace);
    let udp_decisions = replay_in_udp(&trace);
    assert!(
        sim_decisions.len() > 20,
        "sim replay produced only {} MI decisions",
        sim_decisions.len()
    );
    assert_eq!(
        sim_decisions.len(),
        udp_decisions.len(),
        "decision counts diverge"
    );
    for (i, (s, u)) in sim_decisions.iter().zip(udp_decisions.iter()).enumerate() {
        assert_eq!(s, u, "decision {i} diverges: sim {s:?} vs udp {u:?}");
    }
}

/// The instant every [`TieProbe`] event lands on.
const TIE: SimTime = SimTime::from_millis(5);

/// Records the order its callbacks fire in. It arms two timers for the
/// same instant in descending token order, and the replayed trace holds
/// two arrivals at that instant in descending packet-id order, so an
/// arming-order (FIFO) driver would dispatch both pairs backwards.
#[derive(Default)]
struct TieProbe {
    fired: Vec<(&'static str, u64)>,
}

impl Endpoint for TieProbe {
    fn start(&mut self, ctx: &mut dyn HostCtx) {
        ctx.set_timer(TIE, 9);
        ctx.set_timer(TIE, 3);
    }
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut dyn HostCtx) {
        self.fired.push(("arrive", pkt.id));
    }
    fn on_timer(&mut self, token: u64, _ctx: &mut dyn HostCtx) {
        self.fired.push(("timer", token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn tie_trace() -> PacketTrace {
    let mut trace = PacketTrace::new();
    for id in [7, 5] {
        let header = Header::Ack(AckHeader {
            subflow: 0,
            cum_ack: 0,
            sack: SackBlocks::EMPTY,
            ack_seq: 0,
            echo_sent_at: SimTime::ZERO,
            data_acked: 0,
            rcv_window: u64::MAX,
        });
        let pkt = Packet {
            id,
            src: EndpointId(1),
            dst: EndpointId(0),
            path: PathId(0),
            hop: usize::MAX,
            size: 64,
            header,
        };
        trace.push(TIE, pkt);
    }
    trace
}

#[test]
fn same_instant_events_fire_in_canonical_order_under_both_drivers() {
    let trace = tie_trace();

    let mut sim = Simulation::new(SEED);
    let probe = sim.add_endpoint(Box::<TieProbe>::default());
    for e in &trace.entries {
        sim.inject(e.at, e.pkt);
    }
    sim.run_until(HORIZON);
    let in_sim = sim.endpoint::<TieProbe>(probe).fired.clone();

    let mut host = ReplayHost::new(
        probe,
        endpoint_rng(SEED, probe),
        Tracer::off(),
        Vec::new(),
        Box::<TieProbe>::default(),
    );
    host.load(&trace);
    host.run(HORIZON);
    let in_udp = host.endpoint::<TieProbe>().fired.clone();

    assert_eq!(
        in_sim, in_udp,
        "drivers break same-instant ties differently"
    );
    // Arrivals by packet id, then timers by token — not arming order.
    assert_eq!(
        in_sim,
        [("arrive", 5), ("arrive", 7), ("timer", 3), ("timer", 9)]
    );
}
