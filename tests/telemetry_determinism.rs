//! The telemetry subsystem's two core guarantees, checked end-to-end:
//!
//! * **observation-freedom** — attaching any sink (null, ring) to a
//!   run changes nothing about its results, because tracing never draws
//!   from the RNG and never schedules events;
//! * **reproducibility** — two runs of the same seed produce byte-for-byte
//!   identical JSONL traces (all timestamps are simulated time and float
//!   formatting is deterministic).

use mpcc::{Mpcc, MpccConfig};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::parallel_links;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_telemetry::{LayerMask, NullSink, RingSink, Tracer};
use mpcc_transport::{MpReceiver, MpSender, SchedulerKind, SenderConfig, Workload};
use std::sync::Arc;

struct Outcome {
    data_acked: u64,
    sent_packets: u64,
    lost_packets: u64,
    srtt_ns: Vec<u64>,
}

/// Two MPCC subflows over asymmetric lossy links for 12 s — enough to get
/// through slow start into probing, with SACK recovery and drops in play.
fn run(seed: u64, tracer: Tracer) -> Outcome {
    let links = [
        LinkParams {
            capacity: Rate::from_mbps(40.0),
            delay: SimDuration::from_millis(15),
            buffer: 75_000,
            random_loss: 0.005,
            faults: FaultPlan::NONE,
        },
        LinkParams {
            capacity: Rate::from_mbps(15.0),
            delay: SimDuration::from_millis(40),
            buffer: 50_000,
            random_loss: 0.0,
            faults: FaultPlan::NONE,
        },
    ];
    let mut net = parallel_links(seed, &links);
    let p0 = net.path(0);
    let p1 = net.path(1);
    let mut sim = net.sim;
    sim.set_tracer(tracer);
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig {
        dst: recv,
        paths: vec![p0, p1],
        workload: Workload::Bulk,
        scheduler: SchedulerKind::paper_rate_based(),
        start_at: SimTime::ZERO,
        peer_buffer: 300_000_000,
    };
    let cc = Box::new(Mpcc::new(MpccConfig::loss().with_seed(seed)));
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    let end = SimTime::from_secs(12);
    sim.run_until(end);
    let s = sim.endpoint::<MpSender>(sender);
    Outcome {
        data_acked: s.data_acked(),
        sent_packets: (0..s.num_subflows())
            .map(|i| s.subflow_stats(i, end).sent_packets)
            .sum(),
        lost_packets: (0..s.num_subflows())
            .map(|i| s.subflow_stats(i, end).lost_packets)
            .sum(),
        srtt_ns: (0..s.num_subflows())
            .map(|i| s.subflow_stats(i, end).srtt.as_nanos())
            .collect(),
    }
}

/// Runs `seed` into a ring large enough for the whole run and serializes
/// what it recorded as JSONL, one record per line.
fn jsonl_trace(seed: u64, mask: LayerMask) -> (Outcome, String) {
    let ring = Arc::new(RingSink::new(1 << 22));
    let out = run(seed, Tracer::new(ring.clone(), mask));
    assert_eq!(ring.evicted(), 0, "the ring must hold the whole run");
    let text = ring
        .records()
        .iter()
        .map(|r| format!("{}\n", r.to_jsonl()))
        .collect();
    (out, text)
}

fn assert_same(a: &Outcome, b: &Outcome) {
    assert_eq!(a.data_acked, b.data_acked);
    assert_eq!(a.sent_packets, b.sent_packets);
    assert_eq!(a.lost_packets, b.lost_packets);
    assert_eq!(a.srtt_ns, b.srtt_ns);
}

/// The paired-run test from the issue: a null-sink run, a recording run,
/// and an untraced run must all land on identical results.
#[test]
fn tracing_does_not_change_results() {
    let off = run(0xDE7, Tracer::off());
    let null = run(0xDE7, Tracer::new(Arc::new(NullSink), LayerMask::ALL));
    let ring_sink = Arc::new(RingSink::new(1 << 22));
    let ring = run(0xDE7, Tracer::new(ring_sink.clone(), LayerMask::ALL));
    assert_same(&off, &null);
    assert_same(&off, &ring);
    // The recording run must actually have recorded something.
    assert!(!ring_sink.records().is_empty());
}

/// Two same-seed runs emit byte-for-byte identical JSONL.
#[test]
fn same_seed_traces_are_byte_identical() {
    let trace_of = |seed: u64| jsonl_trace(seed, LayerMask::ALL);
    let (out_a, bytes_a) = trace_of(0xDE7);
    let (out_b, bytes_b) = trace_of(0xDE7);
    assert_same(&out_a, &out_b);
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "same-seed traces must be byte-identical");
    // And a different seed must give a different trace (randomness is
    // live, not frozen).
    let (_, bytes_c) = trace_of(0xDE8);
    assert_ne!(bytes_a, bytes_c);
}

/// Layer filtering keeps only the requested layers in the output.
#[test]
fn trace_filter_restricts_layers() {
    let mask = LayerMask::parse("controller").expect("valid filter");
    let (_, text) = jsonl_trace(0xDE7, mask);
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.contains("\"layer\":\"controller\""),
            "unexpected layer in filtered trace: {line}"
        );
    }
}
