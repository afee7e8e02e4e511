//! Proves the simulator's steady-state per-packet path is allocation-free.
//!
//! A counting wrapper around the system allocator tallies every
//! `alloc`/`realloc` call. After a warm-up phase (connection establishment,
//! container growth to the flow's high-water marks), hundreds of thousands
//! of data-packet round trips — send, link queueing, delivery, ACK
//! generation, SACK/scoreboard processing, loss detection,
//! congestion-control update — must complete without a single heap
//! allocation: every hot-path container (timer-wheel slots, link queues,
//! range sets, the scoreboard deque, recycled ACK and loss buffers)
//! retains and reuses its capacity.
//!
//! The test lives in its own integration-test binary so no other test's
//! allocations can race with the measurement window.

use mpcc_cc::reno;
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::uniform_parallel_links;
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_transport::{MpReceiver, MpSender, MultipathCc, SchedulerKind, SenderConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Both tests share the one global allocation counter, so they must not
/// run concurrently — each takes this lock around its measurement.
static MEASUREMENT: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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

    // Warm-up must cover every container's high-water mark:
    //  * the controller's longest cycle. For Reno that is one full
    //    congestion-avoidance sawtooth (the climb from the post-overshoot
    //    backoff to the next buffer-overflow loss takes ~23 sim-seconds
    //    at this BDP); MPCC leaves slow start within seconds and then
    //    cycles through probing and moving every few RTTs. And
    //  * one full rotation of the level-3 timer-wheel slots. Wheel level
    //    is chosen by XOR distance, so each 2^29 ns window boundary
    //    parks the next ~537 ms of timers in a level-3 slot until they
    //    cascade down; all 64 such slots are first touched over one
    //    2^35 ns (~34.4 s) rotation.
    //
    // The measurement window then stops short of t = 2^36 ns (~68.7 s),
    // where a level-4 slot would see its first-ever event and legitimately
    // allocate its backing vector (those rotations take ~36 minutes to
    // complete; excluding them is what "steady state" means here).
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
}

/// Steady-state *connection churn* must also be allocation-free: creating
/// and destroying connections mid-run recycles endpoint boxes through the
/// per-shard pools (`MpSender::reset_for_reuse`), lists the endpoints an
/// epoch dispatched to in a reused buffer, and reuses every
/// engine container (epoch outboxes, canonical dispatch batch, wheel
/// slots). After a warm-up long enough to touch every level-3 wheel slot
/// and reach peak concurrency, a window of hundreds of connection
/// lifetimes — install, slow-start, completion, retirement, box reuse —
/// must not allocate once. Runs on the two-shard engine so the
/// cross-shard handoff path is inside the measurement.
#[test]
fn churn_steady_state_does_not_allocate() {
    use mpcc_experiments::scenarios::churn::{self, ChurnConfig};

    let _serial = MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner());
    // 1500 connections arriving over 55 s (~27/s): the same Poisson/
    // bounded-Pareto workload as the `churn` scenario, small enough for a
    // debug-build test, long enough that the 40 s warm-up sees every
    // wheel rotation and concurrency high-water mark (see the rotation
    // notes in the first test; the window again stays short of 2^36 ns).
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

    // Same warm-up/window split as the zero-alloc test (see the wheel
    // rotation notes there).
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
