//! End-to-end guarantees of the streaming metrics pipeline:
//!
//! * determinism — the merged metrics stream of a faulted batch is
//!   byte-identical across `--jobs` counts and identical-seed re-runs
//!   (same discipline as the trace files, checked on the same executor
//!   path the CLI uses);
//! * streaming — a soak-length (30 s) faulted run at the default cadence
//!   writes its rows as the bins close;
//! * the flight recorder renders a real faulted stream without error;
//! * link rows take their queue depth from `enqueue` events.

use mpcc_experiments::report;
use mpcc_experiments::runner::{run_traced, ConnSpec, Executor, MetricsConfig, Scenario};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration};
use mpcc_telemetry::{
    Layer, LayerMask, LinkEvent, MetricsPipeline, PipelineConfig, Record, RingSink, TraceEvent,
    TraceSink, Tracer,
};
use std::fs;
use std::sync::Arc;

/// The fault spec overlaid on every batch link (the `--faults` CLI path).
const FAULTS: &str = "reorder:p=0.08,extra=10ms;dup:p=0.05,extra=2ms;\
                      burst:enter=0.004,exit=0.3,loss=0.5;outage:at=1s,down=400ms";

/// Three bulk runs over a small faulted link, one connection each.
fn batch() -> Vec<Scenario> {
    (0..3)
        .map(|i| {
            Scenario::new(
                splitmix64(0x3E7 ^ i),
                vec![LinkParams {
                    capacity: Rate::from_mbps(10.0),
                    delay: SimDuration::from_millis(10),
                    buffer: 100_000,
                    random_loss: 0.001,
                    faults: FaultPlan::NONE,
                }],
                vec![ConnSpec::bulk("mpcc-loss", vec![0])],
            )
            .with_duration(SimDuration::from_secs(5), SimDuration::from_secs(1))
        })
        .collect()
}

#[test]
fn faulted_metrics_are_byte_identical_at_any_worker_count() {
    let faults = FaultPlan::parse(FAULTS).expect("CLI spec parses");
    let dir = std::env::temp_dir().join(format!("mpcc-metrics-det-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();

    let run_with = |jobs: usize, name: &str| -> Vec<u8> {
        let path = dir.join(name);
        let exec = Executor::new(jobs, None)
            .with_metrics(MetricsConfig::new(path.clone()))
            .with_faults(faults);
        exec.run_batch(batch());
        fs::read(&path).unwrap()
    };

    let serial = run_with(1, "serial.jsonl");
    let parallel = run_with(4, "par.jsonl");
    let again = run_with(1, "serial-again.jsonl");
    assert!(!serial.is_empty(), "metrics runs must emit rows");
    assert_eq!(
        serial, parallel,
        "metrics stream differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        serial, again,
        "metrics stream differs across identical-seed re-runs"
    );

    // The stream carries every scope, and the fault mix registered in the
    // link bins.
    let text = String::from_utf8(serial).unwrap();
    for scope in ["subflow", "conn", "link"] {
        assert!(
            text.contains(&format!("\"scope\":\"{scope}\"")),
            "no {scope} rows in the metrics stream"
        );
    }
    let burst_dropped = text
        .lines()
        .filter_map(|l| l.split("\"drop_burst\":").nth(1))
        .filter_map(|rest| rest.split([',', '}']).next()?.parse::<u64>().ok())
        .sum::<u64>();
    assert!(burst_dropped > 0, "fault mix never reached the link bins");

    // The flight recorder turns the real stream into a non-trivial report.
    let md = report::render(&dir.join("serial.jsonl")).expect("report renders");
    assert!(md.contains("# MPCC flight report"), "{md}");
    assert!(md.contains("### Subflow rate trajectories"), "{md}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn soak_length_run_keeps_the_metrics_ring_bounded() {
    // The fault-soak harness's link shape (two 20 Mbps paths, path 0 under
    // fault), but bulk and 30 s — its longest-scenario duration — so every
    // bin stays busy for the whole run.
    let faults = FaultPlan::parse(FAULTS).expect("CLI spec parses");
    let faulted = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(15),
        buffer: 150_000,
        random_loss: 0.001,
        faults,
    };
    let clean = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(25),
        buffer: 150_000,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    let sc = Scenario::new(
        0x50AB,
        vec![faulted, clean],
        vec![ConnSpec::bulk("mpcc-loss", vec![0, 1])],
    )
    .with_duration(SimDuration::from_secs(30), SimDuration::ZERO);

    let pipe = Arc::new(MetricsPipeline::new(
        PipelineConfig::default(), // default cadence: 1 s bins
        false,
        Box::new(std::io::sink()),
    ));
    let result = run_traced(&sc, Tracer::new(pipe.clone(), LayerMask::ALL));

    assert!(
        result.conns[0].goodput_mbps > 1.0,
        "soak run must move data: {}",
        result.conns[0].goodput_mbps
    );
    // One row per active entity per bin: 2 subflows + 1 conn + 2 links
    // over 30 bins.
    assert!(
        pipe.lines_written() >= 30,
        "expected a row stream, got {} lines",
        pipe.lines_written()
    );
}

/// The report's "max queue B" column is `queue_bytes_max` in the link
/// rows, and `enqueue` events are its only source: a congested droptail
/// link reports a standing queue no deeper than its buffer, and the same
/// stream without its `enqueue` records reports none.
#[test]
fn link_rows_take_queue_depth_from_enqueue_events() {
    const BUFFER: u64 = 60_000;
    let link = LinkParams {
        capacity: Rate::from_mbps(10.0),
        delay: SimDuration::from_millis(10),
        buffer: BUFFER,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    let ring = Arc::new(RingSink::new(1 << 20));
    let sc = Scenario::new(0x0B0F, vec![link], vec![ConnSpec::bulk("reno", vec![0])])
        .with_duration(SimDuration::from_secs(5), SimDuration::ZERO);
    let result = run_traced(&sc, Tracer::new(ring.clone(), LayerMask::only(Layer::Link)));
    assert!(
        result.links[0].dropped_overflow > 0,
        "the link must congest"
    );
    assert_eq!(ring.evicted(), 0, "the ring must hold the whole run");
    let records = ring.records();

    let dir = std::env::temp_dir().join(format!("mpcc-metrics-queue-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rows.jsonl");
    // `queue_bytes_max` of every link row the pipeline flushes for the
    // records `keep` lets through.
    let queue_max = |keep: &dyn Fn(&Record) -> bool| -> Vec<u64> {
        let pipe = MetricsPipeline::new(
            PipelineConfig::default(),
            false,
            Box::new(fs::File::create(&path).unwrap()),
        );
        for rec in records.iter().filter(|r| keep(r)) {
            pipe.record(rec);
        }
        pipe.flush();
        fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"scope\":\"link\""))
            .map(|l| {
                let rest = l.split("\"queue_bytes_max\":").nth(1).expect("column");
                rest.split([',', '}']).next().unwrap().parse().unwrap()
            })
            .collect()
    };

    let all = queue_max(&|_| true);
    assert!(!all.is_empty(), "no link rows");
    assert!(all.iter().any(|&q| q > 0), "no standing queue: {all:?}");
    assert!(
        all.iter().all(|&q| q <= BUFFER),
        "deeper than the buffer: {all:?}"
    );

    let is_enqueue = |r: &Record| matches!(r.event, TraceEvent::Link(LinkEvent::Enqueue { .. }));
    let without = queue_max(&|r| !is_enqueue(r));
    assert!(!without.is_empty(), "overflow drops still open link rows");
    assert!(without.iter().all(|&q| q == 0), "{without:?}");
    let _ = fs::remove_dir_all(&dir);
}
