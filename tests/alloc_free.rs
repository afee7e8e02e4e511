//! Proves the simulator's steady-state per-packet path is allocation-free,
//! and bounds the heap a finished transfer keeps.
//!
//! A counting wrapper around the system allocator tallies every
//! `alloc`/`realloc` call and the bytes live at any moment. After a
//! warm-up phase (connection establishment, container growth to the
//! flow's high-water marks), hundreds of thousands of data-packet round
//! trips — send, link queueing, delivery, ACK generation, SACK/scoreboard
//! processing, loss detection, congestion-control update — must complete
//! without a single heap allocation: every hot-path container (the event
//! queue's slab, link queues, range sets, the scoreboard deque, recycled
//! ACK and loss buffers) retains and reuses its capacity.
//!
//! The test lives in its own integration-test binary so no other test's
//! allocations can race with the measurement window.

use mpcc_cc::reno;
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::uniform_parallel_links;
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_transport::{MpReceiver, MpSender, MultipathCc, SchedulerKind, SenderConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// The tests share the global allocation counters, so they must not run
/// concurrently — each takes this lock around its measurement.
static MEASUREMENT: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, by every thread of the process.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_round_trips_do_not_allocate() {
    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    // Two paper-default links and a bulk Reno flow with the default
    // scheduler: the ACK-clocked window path, with no pacer and no MIs.
    assert_steady_state_is_allocation_free(Box::new(reno()), SchedulerKind::Default);
}

/// The committed `bulk-mpcc` benchmark's shape: `mpcc-loss` with the
/// rate-based scheduler, so the pacer, monitor intervals and the §5.2
/// state machine's probing rounds and moving steps are all inside the
/// measurement window.
#[test]
fn mpcc_steady_state_does_not_allocate() {
    use mpcc_experiments::protocols;

    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    assert_steady_state_is_allocation_free(
        protocols::make("mpcc-loss", 11),
        protocols::scheduler_for("mpcc-loss"),
    );
}

/// Runs a bulk flow driven by `cc` over two paper-default links through
/// a warm-up, then asserts that a long measurement window allocates
/// nothing.
fn assert_steady_state_is_allocation_free(cc: Box<dyn MultipathCc>, scheduler: SchedulerKind) {
    let n_links = 2;
    let mut net = uniform_parallel_links(11, n_links, LinkParams::paper_default());
    let paths: Vec<_> = (0..n_links).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::bulk(recv, paths).with_scheduler(scheduler);
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));

    // Warm-up must cover every container's high-water mark, which the
    // controller's longest cycle sets: for Reno one full
    // congestion-avoidance sawtooth (the climb from the post-overshoot
    // backoff to the next buffer-overflow loss takes ~23 sim-seconds at
    // this BDP); MPCC leaves slow start within seconds and then cycles
    // through probing and moving every few RTTs. The event queue's slab
    // follows the number of pending events, not the wheel slots they
    // land in, so no rotation of the wheel needs covering.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));
    let delivered_warm = sim.endpoint::<MpSender>(sender).data_acked();
    let events_warm = sim.events_processed();
    assert!(
        delivered_warm > 1_000_000,
        "warm-up must reach steady state (delivered {delivered_warm} bytes)"
    );

    // Measurement window: every allocation in here is a hot-path leak.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(65));
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;

    let delivered = sim.endpoint::<MpSender>(sender).data_acked() - delivered_warm;
    let events = sim.events_processed() - events_warm;
    assert!(
        delivered > 10_000_000 && events > 100_000,
        "window must exercise the data path (delivered {delivered} bytes, {events} events)"
    );
    assert_eq!(
        delta, 0,
        "steady-state round trips allocated {delta} times over {events} events"
    );

    // A second window across t = 2^36 ns (~68.7 s), where a window
    // boundary first parks timers in level-4 slot 2 of the wheel.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(75));
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    let events = sim.events_processed() - events_warm - events;
    assert_eq!(
        delta, 0,
        "crossing t = 2^36 ns allocated {delta} times over {events} events"
    );
}

/// Heap a finished transfer keeps while its `Simulation` lives: one
/// 8 MB `mpcc-loss` transfer, seed 1, on the `faulted-wifi-lte`
/// benchmark's links — the `handover` WiFi/LTE pair, WiFi with CI's fault
/// mix and an 800 ms flap every 10 s from 3 s — with the metrics pipeline
/// attached. The event queue's storage follows its peak number of pending
/// events; when each of the wheel's 384 slots kept the capacity of its own
/// busiest moment, this transfer kept about 283 KB.
#[test]
fn finished_faulted_transfer_retains_bounded_heap() {
    use mpcc_experiments::protocols;
    use mpcc_netsim::topology::parallel_links;
    use mpcc_netsim::FaultPlan;
    use mpcc_simcore::Rate;
    use mpcc_telemetry::{LayerMask, MetricsPipeline, PipelineConfig, Tracer};
    use std::sync::Arc;

    const CEILING_BYTES: i64 = 160_000;
    const FAULTS: &str =
        "reorder:p=0.05,extra=10ms;dup:p=0.02;burst:enter=0.003,exit=0.3,loss=0.5;\
                          flap:at=3s,down=800ms,period=10s,count=1000";
    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let wifi = LinkParams {
        capacity: Rate::from_mbps(30.0),
        delay: SimDuration::from_millis(15),
        buffer: 120_000,
        random_loss: 0.003,
        faults: FaultPlan::parse(FAULTS).expect("the fault mix parses"),
    };
    let lte = LinkParams {
        capacity: Rate::from_mbps(18.0),
        delay: SimDuration::from_millis(55),
        buffer: 600_000,
        random_loss: 0.008,
        faults: FaultPlan::NONE,
    };
    let mut net = parallel_links(1, &[wifi, lte]);
    let paths = (0..2).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    let pipe = MetricsPipeline::new(PipelineConfig::default(), false, Box::new(std::io::sink()));
    sim.set_tracer(Tracer::new(Arc::new(pipe), LayerMask::ALL));
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::file(recv, paths, 8_000_000)
        .with_scheduler(protocols::scheduler_for("mpcc-loss"));
    let cc = protocols::make("mpcc-loss", 1);
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    while !sim.endpoint::<MpSender>(sender).is_complete() && sim.now() < SimTime::from_secs(900) {
        sim.run_for(SimDuration::from_millis(100));
    }
    assert!(
        sim.endpoint::<MpSender>(sender).is_complete(),
        "the transfer must finish"
    );

    let retained = LIVE_BYTES.load(Ordering::SeqCst) - before;
    assert!(
        retained <= CEILING_BYTES,
        "a finished transfer retains {retained} B of heap (peak queue {} events)",
        sim.peak_queue_len()
    );
}

/// Steady-state *connection churn* must also be allocation-free: creating
/// and destroying connections mid-run recycles endpoint boxes through the
/// per-shard pools (`MpSender::reset_for_reuse`), lists the endpoints an
/// epoch dispatched to in a reused buffer, and reuses every
/// engine container (epoch outboxes, canonical dispatch batch, the event
/// queue's slab). After a warm-up long enough to reach peak concurrency,
/// a window of hundreds of connection
/// lifetimes — install, slow-start, completion, retirement, box reuse —
/// must not allocate once. Runs on the two-shard engine so the
/// cross-shard handoff path is inside the measurement.
#[test]
fn churn_steady_state_does_not_allocate() {
    use mpcc_experiments::scenarios::churn::{self, ChurnConfig};

    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    // 1500 connections arriving over 55 s (~27/s): the same Poisson/
    // bounded-Pareto workload as the `churn` scenario, small enough for a
    // debug-build test, long enough that the 40 s warm-up sees its
    // concurrency high-water marks.
    let cfg = ChurnConfig::small(11, 2, 1_500, 55);
    let mut run = churn::build(&cfg);
    run.sim.set_threaded(false);
    run.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(40));
    let warm = run.collect();
    assert!(
        warm.fcts.len() > 800 && warm.fresh == 0,
        "warm-up must reach steady churn on pooled boxes ({} done, {} fresh)",
        warm.fcts.len(),
        warm.fresh
    );

    // Measurement window: every allocation in here is a churn-path leak.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    run.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(56));
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;

    let out = run.collect();
    let conns = out.fcts.len() - warm.fcts.len();
    let events = out.total_events - warm.total_events;
    assert!(
        conns > 300 && events > 30_000,
        "window must exercise churn ({conns} connection lifetimes, {events} events)"
    );
    assert_eq!(out.fresh, 0, "pools must absorb peak concurrency");
    assert_eq!(
        delta, 0,
        "churn steady state allocated {delta} times over {conns} connection lifetimes ({events} events)"
    );
}

/// The same workload with the streaming metrics pipeline attached at its
/// default cadence. The pipeline aggregates per-bin and reuses its one row
/// string, so its steady-state cost must stay *bounded*: a handful of
/// container-growth allocations per measured window at most, never a
/// per-packet (or even per-row) rate. The zero-allocation guarantee above
/// is for the metrics-off path; this pins the metrics-on path to O(1).
#[test]
fn metrics_pipeline_at_default_cadence_allocates_boundedly() {
    use mpcc_telemetry::{LayerMask, MetricsPipeline, PipelineConfig, Tracer};
    use std::sync::Arc;

    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    let n_links = 2;
    let mut net = uniform_parallel_links(11, n_links, LinkParams::paper_default());
    let paths: Vec<_> = (0..n_links).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    // Default 1 s bins: the warm-up writes dozens of rows, so the row
    // string has grown to its working capacity before the window starts.
    let pipe = Arc::new(MetricsPipeline::new(
        PipelineConfig::default(),
        false,
        Box::new(std::io::sink()),
    ));
    sim.set_tracer(Tracer::new(pipe.clone(), LayerMask::ALL));
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::bulk(recv, paths).with_scheduler(SchedulerKind::Default);
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, Box::new(reno()))));

    // Same warm-up/window split as the zero-alloc test.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));
    let lines_warm = pipe.lines_written();
    assert!(
        lines_warm >= 40,
        "pipeline must be streaming ({lines_warm} lines)"
    );

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(65));
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;

    let events = sim.events_processed();
    let lines = pipe.lines_written() - lines_warm;
    assert!(
        sim.endpoint::<MpSender>(sender).data_acked() > 10_000_000 && lines >= 25,
        "window must exercise the metrics path ({lines} lines)"
    );
    // Bounded: not zero (a row string may still round up its capacity
    // once), but nowhere near per-event or per-row rates.
    assert!(
        delta < 100,
        "metrics-on steady state allocated {delta} times over {events} events ({lines} rows)"
    );
}
