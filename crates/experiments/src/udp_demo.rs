//! `experiments udp`: the real-socket loopback demo.
//!
//! One process moves a finite bulk transfer over two UDP "paths" on
//! 127.0.0.1 — each path its own socket pair — under the MPCC controller,
//! driven by the `mpcc-udp` socket loop against the monotonic clock. The
//! receiver binds its two listening sockets and runs its own `UdpPeer` on
//! a scoped thread; the sender streams on the calling thread until the
//! transfer completes or the deadline passes, then tells the receiver to
//! stop.
//!
//! The sender is one executor run ([`Executor::run_jobs`]): it emits the
//! same `mpcc-telemetry` events a simulated run does, into the same keyed
//! part files merged into the executor's `--trace`/`--metrics` files, so
//! `--metrics-bin` and `experiments report` work unchanged on a
//! real-socket run. `--faults` does not apply: real sockets have no
//! simulated links to overlay. Exit status is nonzero if the transfer
//! does not complete, if either path carried no data, if the receiver got
//! no datagrams or failed to decode one, or if any runtime invariant
//! tripped (`--features invariants`).

use crate::protocols;
use crate::runner::Executor;
use mpcc_netsim::endpoint_rng;
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{EndpointId, PathId, MSS_PAYLOAD};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig};
use mpcc_udp::{UdpPath, UdpPeer};
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};

/// Protocol label the demo runs (the paper's loss-mode MPCC).
const PROTOCOL: &str = "mpcc-loss";
/// Default transfer size: comfortably past 10 MB so the controller gets
/// through several monitor intervals on both paths.
pub const DEFAULT_BYTES: u64 = 12_000_000;
/// Receive-buffer credit advertised by the receiver.
const RCV_BUFFER: u64 = 300_000_000;
/// Base-RTT hint handed to the socket driver for loopback paths.
const RTT_HINT: SimDuration = SimDuration::from_millis(2);
/// Wall-clock budget of either peer. The receiver normally stops much
/// earlier, as soon as the sender finishes.
const DEADLINE: SimTime = SimTime::from_secs(60);

/// Options the CLI collects for `experiments udp`.
#[derive(Debug)]
pub struct DemoOpts {
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Seed for the controller and driver rng streams.
    pub seed: u64,
}

impl Default for DemoOpts {
    fn default() -> Self {
        DemoOpts {
            bytes: DEFAULT_BYTES,
            seed: crate::ExpConfig::default().seed,
        }
    }
}

/// Runs the two-path loopback transfer end to end as one executor run,
/// tracing the sender through the run's telemetry. Returns the process
/// exit code.
pub fn run(opts: &DemoOpts, exec: &Executor) -> i32 {
    mpcc_check::reset();
    exec.run_jobs(vec![opts], |opts, ctx| run_pair(opts, &ctx.tracer()))
        .pop()
        .expect("one udp run")
        .unwrap_or_else(|e| {
            eprintln!("udp demo: {e}");
            1
        })
}

/// Binds both peers, runs the receiver on a scoped thread and the sender
/// on this one, prints the summary and decides the exit code.
fn run_pair(opts: &DemoOpts, tracer: &Tracer) -> io::Result<i32> {
    let r0 = UdpSocket::bind("127.0.0.1:0")?;
    let r1 = UdpSocket::bind("127.0.0.1:0")?;
    let (a0, a1) = (r0.local_addr()?, r1.local_addr()?);
    let mut receiver = UdpPeer::new(
        EndpointId(1),
        endpoint_rng(opts.seed, EndpointId(1)),
        Tracer::off(),
        vec![
            UdpPath::listening(r0, RTT_HINT),
            UdpPath::listening(r1, RTT_HINT),
        ],
        Box::new(MpReceiver::new(RCV_BUFFER)),
    )?;
    let s0 = UdpSocket::bind("127.0.0.1:0")?;
    let s1 = UdpSocket::bind("127.0.0.1:0")?;
    let cfg = SenderConfig::file(EndpointId(1), vec![PathId(0), PathId(1)], opts.bytes)
        .with_scheduler(protocols::scheduler_for(PROTOCOL));
    let cc = protocols::make(PROTOCOL, opts.seed);
    let mut sender = UdpPeer::new(
        EndpointId(0),
        endpoint_rng(opts.seed, EndpointId(0)),
        tracer.clone(),
        vec![UdpPath::to(s0, a0, RTT_HINT), UdpPath::to(s1, a1, RTT_HINT)],
        Box::new(MpSender::new(cfg, cc)),
    )?;
    eprintln!(
        ">>> udp demo: {} bytes over two loopback paths (ports {}/{}), \
         protocol {PROTOCOL}, seed {}",
        opts.bytes,
        a0.port(),
        a1.port(),
        opts.seed
    );

    let stop = AtomicBool::new(false);
    let completed = std::thread::scope(|scope| {
        let rx = scope.spawn(|| receiver.run(DEADLINE, |_| stop.load(Ordering::Relaxed)));
        let completed = sender.run(DEADLINE, |ep| {
            ep.as_any()
                .downcast_ref::<MpSender>()
                .expect("sender endpoint")
                .is_complete()
        });
        stop.store(true, Ordering::Relaxed);
        rx.join().expect("receiver thread panicked");
        completed
    });
    let now = sender.now();
    let elapsed = now.as_secs_f64();
    let stats = sender.stats();
    let snd = sender.endpoint::<MpSender>();

    let mut failures: Vec<String> = Vec::new();
    if !completed {
        failures.push(format!(
            "transfer incomplete at deadline: {} of {} bytes acked",
            snd.data_acked(),
            opts.bytes
        ));
    }
    println!(
        "udp demo: {} of {} bytes acked in {elapsed:.2}s ({:.1} Mbit/s goodput)",
        snd.data_acked(),
        opts.bytes,
        snd.data_acked() as f64 * 8.0 / 1e6 / elapsed.max(1e-9),
    );
    for i in 0..2 {
        let st = snd.subflow_stats(i, now);
        println!(
            "  path{i}: {} bytes delivered ({:.1} Mbit/s), srtt {:.2} ms, {} lost pkts",
            st.delivered_bytes,
            st.delivered_bytes as f64 * 8.0 / 1e6 / elapsed.max(1e-9),
            st.latest_rtt.as_millis_f64(),
            st.lost_packets,
        );
        if st.delivered_bytes == 0 {
            failures.push(format!("path{i} delivered no data"));
        }
    }
    println!(
        "  driver: {} datagrams sent ({} dropped at send), {} received, \
         {} decode errors, {} foreign datagrams, {} timers, {} idle sleeps",
        stats.sent_datagrams,
        stats.send_drops,
        stats.received_datagrams,
        stats.decode_errors,
        stats.foreign_datagrams,
        stats.timers_fired,
        stats.idle_sleeps,
    );
    let rx = receiver.stats();
    println!(
        "  udp receiver: {} datagrams, {} decode errors, {} send drops, {} foreign datagrams",
        rx.received_datagrams, rx.decode_errors, rx.send_drops, rx.foreign_datagrams,
    );
    if rx.received_datagrams == 0 {
        failures.push("the receiver got no datagrams".into());
    }
    if rx.decode_errors > 0 {
        failures.push(format!("{} receiver decode errors", rx.decode_errors));
    }
    // Sanity: the datagram count must cover the payload we claim to have
    // moved (each full segment carries MSS_PAYLOAD bytes).
    if completed && stats.sent_datagrams * MSS_PAYLOAD < opts.bytes {
        failures.push(format!(
            "sent only {} datagrams for {} bytes",
            stats.sent_datagrams, opts.bytes
        ));
    }
    let violations = mpcc_check::violations();
    if violations > 0 {
        failures.push(format!("{violations} runtime invariant violations"));
    }
    if failures.is_empty() {
        println!("udp demo: OK");
        Ok(0)
    } else {
        for f in &failures {
            eprintln!("udp demo: FAIL: {f}");
        }
        Ok(1)
    }
}
