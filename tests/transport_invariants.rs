//! Randomized tests on the transport's end-to-end invariants, under
//! randomized link conditions and protocols:
//!
//! * conservation — the receiver's in-order frontier equals the sender's
//!   data-level ACK and never exceeds the data handed out;
//! * reliability — finite workloads complete despite heavy random loss;
//! * determinism — identical configurations produce identical outcomes.
//!
//! Cases are drawn from a seeded [`SimRng`] (not a property-testing
//! framework), so the suite is deterministic and offline; every failure
//! message names the case index that reproduces it.

use mpcc::{Mpcc, MpccConfig};
use mpcc_cc::{lia, reno};
use mpcc_experiments::protocols;
use mpcc_netsim::fault::{FaultPlan, OutageSchedule};
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::parallel_links;
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_telemetry::{LinkEvent, RingSink, TraceEvent, Tracer, TransportEvent};
use mpcc_transport::{
    Endpoint, MpReceiver, MpSender, MultipathCc, ReceiverStats, SchedulerKind, SenderConfig,
    Workload,
};
use std::sync::Arc;

struct Outcome {
    data_acked: u64,
    receiver: ReceiverStats,
    fct: Option<f64>,
    sent_packets: u64,
    lost_packets: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    seed: u64,
    proto: u8,
    bw_mbps: f64,
    delay_ms: u64,
    buffer: u64,
    loss: f64,
    workload: Workload,
    secs: u64,
) -> Outcome {
    run_traced(
        seed,
        proto,
        bw_mbps,
        delay_ms,
        buffer,
        loss,
        workload,
        secs,
        Tracer::off(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    seed: u64,
    proto: u8,
    bw_mbps: f64,
    delay_ms: u64,
    buffer: u64,
    loss: f64,
    workload: Workload,
    secs: u64,
    tracer: Tracer,
) -> Outcome {
    let params = LinkParams {
        capacity: Rate::from_mbps(bw_mbps),
        delay: SimDuration::from_millis(delay_ms),
        buffer,
        random_loss: loss,
        faults: FaultPlan::NONE,
    };
    let mut net = parallel_links(seed, &[params, LinkParams::paper_default()]);
    let p0 = net.path(0);
    let p1 = net.path(1);
    let mut sim = net.sim;
    sim.set_tracer(tracer);
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let (cc, sched): (Box<dyn MultipathCc>, _) = match proto % 3 {
        0 => (Box::new(reno()), SchedulerKind::Default),
        1 => (Box::new(lia()), SchedulerKind::Default),
        _ => (
            Box::new(Mpcc::new(MpccConfig::loss().with_seed(seed))),
            SchedulerKind::paper_rate_based(),
        ),
    };
    let cfg = SenderConfig {
        dst: recv,
        paths: vec![p0, p1],
        workload,
        scheduler: sched,
        start_at: SimTime::ZERO,
        peer_buffer: 300_000_000,
    };
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    let end = SimTime::from_secs(secs);
    sim.run_until(end);
    let s = sim.endpoint::<MpSender>(sender);
    let r = sim.endpoint::<MpReceiver>(recv);
    Outcome {
        data_acked: s.data_acked(),
        receiver: r.stats(),
        fct: s.fct().map(|d| d.as_secs_f64()),
        sent_packets: (0..s.num_subflows())
            .map(|i| s.subflow_stats(i, end).sent_packets)
            .sum(),
        lost_packets: (0..s.num_subflows())
            .map(|i| s.subflow_stats(i, end).lost_packets)
            .sum(),
    }
}

/// Sender and receiver agree on in-order delivery, and delivered data never
/// exceeds what was sent.
#[test]
fn conservation_under_random_conditions() {
    let mut rng = SimRng::seed_from_u64(0xC0);
    for case in 0..12 {
        let seed = rng.range_u64(1, 1_000_000);
        let proto = rng.range_u64(0, 3) as u8;
        let bw = rng.range_f64(5.0, 200.0);
        let delay = rng.range_u64(1, 80);
        let buffer = rng.range_u64(5_000, 500_000);
        let loss = rng.range_f64(0.0, 0.05);
        let out = run_once(seed, proto, bw, delay, buffer, loss, Workload::Bulk, 8);
        // The sender's view of delivery is the receiver's frontier from the
        // most recent ACK: receiver ≥ sender, and they differ by at most
        // one in-flight window of progress.
        assert!(
            out.receiver.delivered_bytes >= out.data_acked,
            "case {case} (seed {seed})"
        );
        // Progress must happen on a working link.
        assert!(
            out.data_acked > 0,
            "case {case} (seed {seed}): no progress: {} pkts sent",
            out.sent_packets
        );
        // Received packets can't exceed sent packets.
        assert!(
            out.receiver.received_packets <= out.sent_packets,
            "case {case} (seed {seed})"
        );
        // Lost + received accounts for (almost) everything sent; packets
        // still in flight explain any slack.
        assert!(
            out.lost_packets + out.receiver.received_packets <= out.sent_packets + 1,
            "case {case} (seed {seed})"
        );
    }
}

/// Finite transfers complete even over a lossy path, and the FCT is
/// consistent with the delivered byte count.
#[test]
fn finite_workloads_complete_under_loss() {
    let mut rng = SimRng::seed_from_u64(0xF1);
    for case in 0..6 {
        let seed = rng.range_u64(1, 1_000_000);
        let proto = rng.range_u64(0, 3) as u8;
        let loss = rng.range_f64(0.0, 0.03);
        let size = 2_000_000u64;
        let out = run_once(
            seed,
            proto,
            50.0,
            20,
            100_000,
            loss,
            Workload::Finite(size),
            60,
        );
        assert!(
            out.fct.is_some(),
            "case {case} (seed {seed}): transfer did not complete"
        );
        assert!(out.data_acked >= size, "case {case} (seed {seed})");
        assert!(
            out.receiver.delivered_bytes >= size,
            "case {case} (seed {seed})"
        );
    }
}

#[test]
fn determinism_same_seed_same_outcome() {
    let a = run_once(42, 2, 80.0, 25, 200_000, 0.01, Workload::Bulk, 10);
    let b = run_once(42, 2, 80.0, 25, 200_000, 0.01, Workload::Bulk, 10);
    assert_eq!(a.data_acked, b.data_acked);
    assert_eq!(a.sent_packets, b.sent_packets);
    assert_eq!(a.lost_packets, b.lost_packets);
}

#[test]
fn different_seeds_differ_with_randomness_present() {
    // With random loss in play, different seeds must diverge (this guards
    // against a silently shared/ignored RNG).
    let a = run_once(1, 2, 80.0, 25, 200_000, 0.02, Workload::Bulk, 10);
    let b = run_once(2, 2, 80.0, 25, 200_000, 0.02, Workload::Bulk, 10);
    assert_ne!(
        (a.data_acked, a.sent_packets),
        (b.data_acked, b.sent_packets)
    );
}

/// Telemetry-level invariants on the transport's recovery machinery,
/// checked against a recorded [`RingSink`] event stream:
///
/// * causality — a reinjection can only follow a SACK-loss declaration or
///   an RTO on the same connection (retransmissions need a reason);
/// * monotonicity — event timestamps never go backwards, and recording the
///   stream does not change the run's outcome versus an untraced run.
#[test]
fn reinjections_follow_losses_in_trace() {
    let sink = Arc::new(RingSink::new(1 << 22));
    let tracer = Tracer::new(sink.clone(), mpcc_telemetry::LayerMask::ALL);
    // Lossy finite transfer: forces SACK recovery and (with a 20 KB
    // buffer) occasional RTOs — same shape as the duplicates test above.
    let traced = run_traced(
        9,
        0,
        30.0,
        10,
        20_000,
        0.02,
        Workload::Finite(1_000_000),
        60,
        tracer,
    );
    let untraced = run_once(
        9,
        0,
        30.0,
        10,
        20_000,
        0.02,
        Workload::Finite(1_000_000),
        60,
    );
    // Observation-freedom: recording every event must not perturb results.
    assert_eq!(traced.data_acked, untraced.data_acked);
    assert_eq!(traced.sent_packets, untraced.sent_packets);
    assert_eq!(traced.lost_packets, untraced.lost_packets);

    let records = sink.records();
    assert_eq!(sink.evicted(), 0, "ring too small for this run");
    assert!(!records.is_empty());

    let mut last_t = None;
    let mut loss_seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let (mut reinjections, mut losses, mut rtos) = (0u64, 0u64, 0u64);
    for rec in &records {
        if let Some(prev) = last_t {
            assert!(rec.t >= prev, "timestamps must be non-decreasing");
        }
        last_t = Some(rec.t);
        if let TraceEvent::Transport(e) = rec.event {
            match e {
                TransportEvent::SackLoss { conn, .. } => {
                    losses += 1;
                    loss_seen.insert(conn);
                }
                TransportEvent::RtoFired { conn, .. } => {
                    rtos += 1;
                    loss_seen.insert(conn);
                }
                TransportEvent::Reinjection { conn, .. } => {
                    reinjections += 1;
                    assert!(
                        loss_seen.contains(&conn),
                        "reinjection on conn {conn} with no prior loss/RTO event"
                    );
                }
                _ => {}
            }
        }
    }
    // 2% random loss on a 1 MB transfer must actually exercise recovery.
    assert!(losses + rtos > 0, "scenario produced no loss events");
    assert!(reinjections > 0, "scenario produced no reinjections");
}

/// A mid-transfer path black-hole (the paper's walking-out-of-WiFi-range
/// handover regime) must trigger RTO on the dead subflow, reinjection of
/// its data onto the surviving path, and still complete the transfer —
/// with the reinjection-causality telemetry to prove the mechanism.
#[test]
fn blackhole_triggers_rto_and_reinjection_on_surviving_path() {
    let sink = Arc::new(RingSink::new(1 << 22));
    let tracer = Tracer::new(sink.clone(), mpcc_telemetry::LayerMask::ALL);
    // Path 0 black-holes at 500 ms, mid-transfer, and never comes back
    // within the run.
    let outage = OutageSchedule::once(SimTime::from_millis(500), SimDuration::from_secs(299));
    let dead = LinkParams::paper_default()
        .with_capacity(Rate::from_mbps(20.0))
        .with_delay(SimDuration::from_millis(10))
        .with_faults(FaultPlan::NONE.with_outage(outage));
    let alive = LinkParams::paper_default()
        .with_capacity(Rate::from_mbps(20.0))
        .with_delay(SimDuration::from_millis(25));
    let size = 8_000_000u64;

    let mut net = parallel_links(0xB1AC, &[dead, alive]);
    let p0 = net.path(0);
    let p1 = net.path(1);
    let link0 = net.links[0];
    let mut sim = net.sim;
    sim.set_tracer(tracer);
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig {
        dst: recv,
        paths: vec![p0, p1],
        workload: Workload::Finite(size),
        scheduler: SchedulerKind::Default,
        start_at: SimTime::ZERO,
        peer_buffer: 300_000_000,
    };
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, Box::new(reno()))));
    sim.run_until(SimTime::from_secs(120));

    let s = sim.endpoint::<MpSender>(sender);
    let r = sim.endpoint::<MpReceiver>(recv);
    assert!(
        s.fct().is_some(),
        "transfer must complete over the surviving path (acked {} of {size})",
        s.data_acked()
    );
    assert!(r.stats().delivered_bytes >= size);
    assert!(
        sim.link_stats(link0).dropped_outage > 0,
        "the outage must have black-holed in-flight packets"
    );

    // Telemetry: RTO fired on the dead subflow, at least one reinjection
    // landed on the surviving one, and causality holds throughout.
    let records = sink.records();
    assert_eq!(sink.evicted(), 0, "ring too small for this run");
    let mut loss_seen = false;
    let (mut rto_dead, mut reinject_alive, mut drop_outage) = (0u64, 0u64, 0u64);
    for rec in &records {
        match rec.event {
            TraceEvent::Transport(TransportEvent::RtoFired { subflow, .. }) => {
                loss_seen = true;
                if subflow == 0 {
                    rto_dead += 1;
                }
            }
            TraceEvent::Transport(TransportEvent::SackLoss { .. }) => loss_seen = true,
            TraceEvent::Transport(TransportEvent::Reinjection { subflow, .. }) => {
                assert!(loss_seen, "reinjection with no prior loss/RTO event");
                if subflow == 1 {
                    reinject_alive += 1;
                }
            }
            TraceEvent::Link(LinkEvent::DropOutage { .. }) => drop_outage += 1,
            _ => {}
        }
    }
    assert!(rto_dead > 0, "no RTO on the black-holed subflow");
    assert!(
        reinject_alive > 0,
        "no reinjection onto the surviving subflow"
    );
    assert!(drop_outage > 0, "no drop_outage telemetry events");
}

/// Under a link duplication fault the receiver counts every wire-level
/// duplicate and its in-order frontier never regresses.
#[test]
fn duplication_fault_counts_duplicates_and_frontier_is_monotone() {
    let sink = Arc::new(RingSink::new(1 << 22));
    let tracer = Tracer::new(sink.clone(), mpcc_telemetry::LayerMask::ALL);
    let dup = LinkParams::paper_default()
        .with_capacity(Rate::from_mbps(20.0))
        .with_delay(SimDuration::from_millis(10))
        .with_faults(FaultPlan::NONE.with_duplicate(0.2, SimDuration::from_millis(2)));
    let clean = LinkParams::paper_default()
        .with_capacity(Rate::from_mbps(20.0))
        .with_delay(SimDuration::from_millis(25));
    let size = 2_000_000u64;

    let mut net = parallel_links(0xD0B1, &[dup, clean]);
    let p0 = net.path(0);
    let p1 = net.path(1);
    let link0 = net.links[0];
    let mut sim = net.sim;
    sim.set_tracer(tracer);
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig {
        dst: recv,
        paths: vec![p0, p1],
        workload: Workload::Finite(size),
        scheduler: SchedulerKind::Default,
        start_at: SimTime::ZERO,
        peer_buffer: 300_000_000,
    };
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, Box::new(reno()))));

    // Drive in slices, checking frontier monotonicity along the way.
    let mut frontier = 0u64;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(60) {
        t += SimDuration::from_millis(500);
        sim.run_until(t);
        let f = sim.endpoint::<MpReceiver>(recv).delivered_bytes();
        assert!(f >= frontier, "frontier regressed: {f} < {frontier}");
        frontier = f;
    }

    let s = sim.endpoint::<MpSender>(sender);
    let r = sim.endpoint::<MpReceiver>(recv).stats();
    let duplicated = sim.link_stats(link0).duplicated;
    assert!(s.fct().is_some(), "transfer must complete");
    assert_eq!(r.delivered_bytes, size, "frontier ends exactly at the size");
    assert!(duplicated > 0, "duplication fault never fired at p=0.2");
    assert!(
        r.duplicate_packets >= duplicated,
        "every wire duplicate must be counted: {} counted vs {} created",
        r.duplicate_packets,
        duplicated
    );
    // Conservation with duplication slack: everything received is explained
    // by a transmission or a link-created copy.
    let sent: u64 = (0..s.num_subflows())
        .map(|i| s.subflow_stats(i, t).sent_packets)
        .sum();
    assert!(
        r.received_packets <= sent + duplicated,
        "received {} > sent {sent} + duplicated {duplicated}",
        r.received_packets
    );
    // The duplication knob emits its typed telemetry event.
    let dup_events = sink
        .records()
        .iter()
        .filter(|rec| {
            matches!(
                rec.event,
                TraceEvent::Link(LinkEvent::FaultDuplicate { .. })
            )
        })
        .count() as u64;
    assert_eq!(
        dup_events, duplicated,
        "one fault_duplicate event per created copy"
    );
}

#[test]
fn receiver_counts_duplicates_not_as_progress() {
    // Heavy loss forces retransmissions; the receiver's frontier must end
    // exactly at the transfer size, with any duplicates counted separately.
    let out = run_once(
        9,
        0,
        30.0,
        10,
        20_000,
        0.02,
        Workload::Finite(1_000_000),
        60,
    );
    assert_eq!(out.receiver.delivered_bytes, 1_000_000);
}

/// Everything a recycled sender/receiver pair must reproduce.
#[derive(Debug, PartialEq)]
struct PairOutcome {
    fct: Option<SimDuration>,
    data_acked: u64,
    /// `(sent, lost)` packets per subflow.
    subflows: Vec<(u64, u64)>,
    receiver: ReceiverStats,
    mi_reports: u64,
}

/// Runs one finite `proto` transfer of `bytes` over a lossy and a clean
/// link. With `used`, the pair is an earlier run's receiver and sender,
/// reset in place; otherwise it is built fresh. The receiver is added
/// first, so endpoint ids match across runs. Returns the outcome and the
/// pair.
fn run_pair(
    proto: &str,
    seed: u64,
    bytes: u64,
    used: Option<(Box<dyn Endpoint>, Box<dyn Endpoint>)>,
) -> (PairOutcome, Box<dyn Endpoint>, Box<dyn Endpoint>) {
    let lossy = LinkParams {
        random_loss: 0.01,
        ..LinkParams::paper_default()
    };
    let mut net = parallel_links(seed, &[lossy, LinkParams::paper_default()]);
    let paths = vec![net.path(0), net.path(1)];
    let mut sim = net.sim;
    let (rx, tx) = match used {
        Some((mut rx, tx)) => {
            rx.as_any_mut()
                .downcast_mut::<MpReceiver>()
                .unwrap()
                .reset_for_reuse(300_000_000);
            (rx, Some(tx))
        }
        None => (
            Box::new(MpReceiver::paper_default()) as Box<dyn Endpoint>,
            None,
        ),
    };
    let recv = sim.add_endpoint(rx);
    let tx = match tx {
        Some(mut tx) => {
            let s = tx.as_any_mut().downcast_mut::<MpSender>().unwrap();
            let workload = Workload::Finite(bytes);
            assert!(s.reset_for_reuse(recv, &paths, workload, SimTime::ZERO));
            tx
        }
        None => Box::new(MpSender::new(
            SenderConfig::file(recv, paths, bytes),
            protocols::make(proto, seed),
        )),
    };
    let sender = sim.add_endpoint(tx);
    let end = SimTime::from_secs(20);
    sim.run_until(end);
    let s = sim.endpoint::<MpSender>(sender);
    let outcome = PairOutcome {
        fct: s.fct(),
        data_acked: s.data_acked(),
        subflows: (0..s.num_subflows())
            .map(|i| {
                let st = s.subflow_stats(i, end);
                (st.sent_packets, st.lost_packets)
            })
            .collect(),
        receiver: sim.endpoint::<MpReceiver>(recv).stats(),
        mi_reports: s.mi_reports(),
    };
    let (rx, tx) = (sim.remove_endpoint(recv), sim.remove_endpoint(sender));
    (outcome, rx, tx)
}

/// `reset_for_reuse` promises endpoints "exactly as if newly constructed":
/// a pair that has already carried another lossy connection must reproduce
/// a fresh pair's outcome on the same connection.
#[test]
fn recycled_endpoints_match_fresh_ones() {
    for proto in ["reno", "cubic", "lia", "olia", "balia", "wvegas"] {
        let (fresh, _, _) = run_pair(proto, 7, 2_000_000, None);
        assert!(
            fresh.fct.is_some() && fresh.subflows.iter().any(|&(_, lost)| lost > 0),
            "{proto}: the transfer must complete through losses: {fresh:?}"
        );
        let (_, rx, tx) = run_pair(proto, 8, 3_000_000, None);
        let (recycled, _, _) = run_pair(proto, 7, 2_000_000, Some((rx, tx)));
        assert_eq!(recycled, fresh, "{proto}");
    }
}
