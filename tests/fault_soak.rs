//! Adversarial soak harness for the fault-injection layer: every
//! (protocol × fault mix × seed) case runs a finite download over a
//! two-path network whose first path is under fault, and is checked for
//!
//! * reliability — the transfer completes despite the faults;
//! * conservation — sender data-level ACK, receiver frontier, and the
//!   transfer size all agree, and nothing is received that was not sent
//!   or link-duplicated;
//! * determinism — re-running the identical case produces a bit-identical
//!   outcome (and, in the executor test, byte-identical trace files at
//!   any worker count).
//!
//! The sweep is seeded and offline; every failure message names the case
//! index, protocol, mix, and seed that reproduce it. Set `MPCC_SOAK_CASES`
//! to truncate the sweep (CI runs a reduced count; the default sweeps all
//! cases).

use mpcc_experiments::runner::{ConnSpec, Executor, Scenario, TraceConfig};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration};
use mpcc_telemetry::LayerMask;
use mpcc_transport::Workload;
use std::fs;

const PROTOCOLS: [&str; 5] = ["reno", "lia", "olia", "balia", "mpcc-loss"];
const SEEDS_PER_MIX: u64 = 3;
const TRANSFER_BYTES: u64 = 2_500_000;

/// The fault mixes, written in the CLI `--faults` grammar so the sweep
/// also exercises the parser end-to-end. Every `FaultPlan` knob appears
/// in at least one mix.
const MIXES: [(&str, &str); 7] = [
    ("reorder", "reorder:p=0.08,extra=10ms"),
    ("dup", "dup:p=0.05,extra=2ms"),
    ("burst", "burst:enter=0.004,exit=0.3,loss=0.5"),
    ("outage", "outage:at=600ms,down=400ms"),
    ("flap", "flap:at=500ms,down=200ms,period=900ms,count=3"),
    ("reorder+dup", "reorder:p=0.05,extra=8ms;dup:p=0.03"),
    (
        "kitchen-sink",
        "reorder:p=0.04,extra=8ms;dup:p=0.02;burst:enter=0.002,exit=0.3,loss=0.5;\
         flap:at=700ms,down=150ms,period=1200ms,count=2",
    ),
];

struct Case {
    idx: usize,
    proto: &'static str,
    mix: &'static str,
    plan: FaultPlan,
    seed: u64,
}

impl Case {
    fn id(&self) -> String {
        format!(
            "case {} (proto={}, mix={}, seed={:#x})",
            self.idx, self.proto, self.mix, self.seed
        )
    }
}

/// The full (protocol × mix × seed) sweep, truncated by `MPCC_SOAK_CASES`.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (pi, proto) in PROTOCOLS.iter().enumerate() {
        for (mi, (label, spec)) in MIXES.iter().enumerate() {
            let plan = FaultPlan::parse(spec)
                .unwrap_or_else(|e| panic!("mix {label:?} fails to parse: {e}"));
            for s in 0..SEEDS_PER_MIX {
                out.push(Case {
                    idx: out.len(),
                    proto,
                    mix: label,
                    plan,
                    seed: splitmix64(0x50AB ^ ((pi as u64) << 32) ^ ((mi as u64) << 16) ^ s),
                });
            }
        }
    }
    assert!(
        out.len() >= 100,
        "sweep shrank below 100 cases: {}",
        out.len()
    );
    if let Some(n) = std::env::var("MPCC_SOAK_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        out.truncate(n.max(1));
    }
    out
}

/// A two-path download with the fault plan on path 0 and a clean path 1.
fn scenario(case: &Case) -> Scenario {
    let faulted = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(15),
        buffer: 150_000,
        random_loss: 0.001,
        faults: case.plan,
    };
    let clean = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(25),
        buffer: 150_000,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    Scenario::new(
        case.seed,
        vec![faulted, clean],
        vec![ConnSpec {
            workload: Workload::Finite(TRANSFER_BYTES),
            ..ConnSpec::bulk(case.proto, vec![0, 1])
        }],
    )
    .with_duration(SimDuration::from_secs(30), SimDuration::ZERO)
    .with_sampling(SimDuration::from_millis(500))
}

#[test]
fn soak_sweep_holds_invariants_and_is_deterministic() {
    mpcc_check::reset();
    let cases = cases();
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Each case twice, back to back: results come back in submission
    // order, so 2i and 2i+1 are the identical-seed pair for case i.
    let exec = Executor::new(jobs, None);
    let jobs: Vec<Scenario> = cases
        .iter()
        .flat_map(|c| [scenario(c), scenario(c)])
        .collect();
    let mut results = exec.run_batch(jobs).into_iter();

    for case in &cases {
        let a = results.next().expect("one result per run");
        let b = results.next().expect("one result per run");
        let conn = &a.conns[0];
        let id = case.id();

        // Reliability: the transfer completes despite the fault mix.
        let fct = conn.fct.unwrap_or_else(|| {
            panic!(
                "{id}: transfer never completed ({} of {TRANSFER_BYTES} bytes acked)",
                conn.data_acked
            )
        });
        assert!(fct > 0.0, "{id}: nonsensical fct {fct}");

        // Conservation: sender-side ACK, receiver frontier, and the
        // transfer size agree exactly.
        assert_eq!(
            conn.data_acked, TRANSFER_BYTES,
            "{id}: data_acked disagrees with the transfer size"
        );
        assert_eq!(
            conn.receiver.delivered_bytes, TRANSFER_BYTES,
            "{id}: receiver frontier disagrees with the transfer size"
        );
        // Nothing is received that was not transmitted or link-duplicated.
        let duplicated: u64 = a.links.iter().map(|l| l.duplicated).sum();
        assert!(
            conn.receiver.received_packets <= conn.sent_packets + duplicated,
            "{id}: received {} > sent {} + duplicated {duplicated}",
            conn.receiver.received_packets,
            conn.sent_packets
        );
        // Wire duplicates are all accounted for at the receiver.
        assert!(
            conn.receiver.duplicate_packets >= duplicated,
            "{id}: receiver counted {} duplicates but links created {duplicated}",
            conn.receiver.duplicate_packets
        );

        // The mix actually bites: its signature counter moved somewhere.
        // Coupled controllers that shift load away from the faulted path
        // (OLIA in particular) can starve it below the point where a
        // low-probability fault ever fires, so only insist when the path
        // carried enough packets for firing to be near-certain.
        let stats = &a.links[0];
        let touched =
            stats.reordered + stats.duplicated + stats.dropped_burst + stats.dropped_outage;
        assert!(
            touched > 0 || stats.enqueued < 500,
            "{id}: fault mix never fired (link stats {stats:?})"
        );

        // Determinism: the identical-seed re-run is bit-identical.
        let cb = &b.conns[0];
        assert_eq!(
            conn.goodput_mbps.to_bits(),
            cb.goodput_mbps.to_bits(),
            "{id}: goodput differs across identical-seed runs"
        );
        assert_eq!(
            (conn.sent_packets, conn.lost_packets, conn.data_acked),
            (cb.sent_packets, cb.lost_packets, cb.data_acked),
            "{id}: sender counters differ across identical-seed runs"
        );
        assert_eq!(
            conn.fct.map(f64::to_bits),
            cb.fct.map(f64::to_bits),
            "{id}: fct differs across identical-seed runs"
        );
        assert_eq!(
            a.links, b.links,
            "{id}: link counters differ across identical-seed runs"
        );
    }

    // The runtime invariant layer (crates/check) watched every run above;
    // a clean sweep must not trip a single cross-layer check. (In debug
    // builds a violation panics at the fault site instead; this assertion
    // is what release runs with `--features invariants` rely on.)
    assert_eq!(
        mpcc_check::violations(),
        0,
        "runtime invariant violations during the soak sweep"
    );
}

/// A faulted, traced batch through the executor: the merged trace is
/// byte-identical at any worker count and across identical-seed re-runs,
/// and every fault kind shows up as its typed telemetry event. The fault
/// plan arrives via `Executor::with_faults` + `FaultPlan::parse` — the
/// exact `--faults` CLI path.
#[test]
fn faulted_traces_are_byte_identical_at_any_worker_count() {
    mpcc_check::reset();
    let spec = "reorder:p=0.1,extra=10ms;dup:p=0.08,extra=2ms;\
                burst:enter=0.01,exit=0.3,loss=0.6;outage:at=1s,down=500ms";
    let faults = FaultPlan::parse(spec).expect("CLI spec parses");
    let dir = std::env::temp_dir().join(format!("mpcc-fault-soak-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();

    let batch = || -> Vec<Scenario> {
        (0..3)
            .map(|i| {
                Scenario::new(
                    splitmix64(0xFA17 ^ i),
                    vec![LinkParams {
                        capacity: Rate::from_mbps(10.0),
                        delay: SimDuration::from_millis(10),
                        buffer: 100_000,
                        random_loss: 0.0,
                        faults: FaultPlan::NONE,
                    }],
                    vec![ConnSpec::bulk("reno", vec![0])],
                )
                .with_duration(SimDuration::from_secs(5), SimDuration::from_secs(1))
            })
            .collect()
    };
    let run_with = |jobs: usize, name: &str| -> Vec<u8> {
        let path = dir.join(name);
        let exec = Executor::new(
            jobs,
            Some(TraceConfig {
                path: path.clone(),
                mask: LayerMask::ALL,
            }),
        )
        .with_faults(faults);
        exec.run_batch(batch());
        fs::read(&path).unwrap()
    };

    let serial = run_with(1, "serial.jsonl");
    let parallel = run_with(4, "par.jsonl");
    let again = run_with(1, "serial-again.jsonl");
    assert!(!serial.is_empty(), "traced runs must emit records");
    assert_eq!(
        serial, parallel,
        "trace differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(serial, again, "trace differs across identical-seed re-runs");

    // Every fault knob in the spec produced its typed event.
    let text = String::from_utf8(serial).unwrap();
    for kind in [
        "fault_reorder",
        "fault_duplicate",
        "drop_burst",
        "drop_outage",
    ] {
        assert!(
            text.contains(&format!("\"type\":\"{kind}\"")),
            "no {kind} event in the merged trace"
        );
    }
    assert_eq!(
        mpcc_check::violations(),
        0,
        "runtime invariant violations during the traced batch"
    );
    let _ = fs::remove_dir_all(&dir);
}
