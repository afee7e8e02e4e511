//! `experiments udp`: the real-socket loopback demo.
//!
//! Two processes move a finite bulk transfer over two UDP "paths" on
//! 127.0.0.1 — each path its own socket pair — under the MPCC controller,
//! driven by the `mpcc-udp` socket loop against the monotonic clock. The
//! parent process is the sender; it re-invokes its own binary with
//! `--udp-receiver` to run the receiver, learns the receiver's ports from
//! its first stdout line, and streams until the transfer completes or the
//! deadline passes.
//!
//! The sender is one executor run ([`Executor::run_jobs`]): it emits the
//! same `mpcc-telemetry` events a simulated run does, into the same keyed
//! part files merged into the executor's `--trace`/`--metrics` files, so
//! `--metrics-bin` and `experiments report` work unchanged on a
//! real-socket run. `--faults` does not apply: real sockets have no
//! simulated links to overlay. Exit status
//! is nonzero if the transfer does not complete, if either path carried
//! no data, or if any runtime invariant tripped (`--features invariants`).

use crate::protocols;
use crate::runner::Executor;
use mpcc_netsim::endpoint_rng;
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_telemetry::Tracer;
use mpcc_transport::wire::{EndpointId, PathId, MSS_PAYLOAD};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig};
use mpcc_udp::{UdpPath, UdpPeer};
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::UdpSocket;
use std::process::{Child, Command, Stdio};

/// Protocol label the demo runs (the paper's loss-mode MPCC).
const PROTOCOL: &str = "mpcc-loss";
/// Default transfer size: comfortably past 10 MB so the controller gets
/// through several monitor intervals on both paths.
pub const DEFAULT_BYTES: u64 = 12_000_000;
/// Receive-buffer credit advertised by the receiver.
const RCV_BUFFER: u64 = 300_000_000;
/// Base-RTT hint handed to the socket driver for loopback paths.
const RTT_HINT: SimDuration = SimDuration::from_millis(2);
/// Wall-clock budget for the sender's transfer.
const SENDER_DEADLINE: SimTime = SimTime::from_secs(60);
/// Wall-clock budget for the receiver process (it normally exits much
/// earlier, as soon as traffic goes idle).
const RECEIVER_DEADLINE: SimTime = SimTime::from_secs(120);
/// Receiver slice width between idle checks.
const RECEIVER_SLICE: SimDuration = SimDuration::from_millis(500);
/// Receiver exits once it has seen traffic and then none for this long.
const RECEIVER_IDLE_EXIT: SimDuration = SimDuration::from_secs(3);

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

/// Child mode (`experiments --udp-receiver`): bind two loopback sockets,
/// report their ports on stdout as `PORTS <p0> <p1>`, then serve an MPCC
/// receiver until traffic goes idle. Returns the process exit code.
pub fn serve_receiver(seed: u64) -> i32 {
    match try_serve_receiver(seed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("udp receiver: {e}");
            1
        }
    }
}

fn try_serve_receiver(seed: u64) -> io::Result<i32> {
    let r0 = UdpSocket::bind("127.0.0.1:0")?;
    let r1 = UdpSocket::bind("127.0.0.1:0")?;
    let (p0, p1) = (r0.local_addr()?.port(), r1.local_addr()?.port());
    let mut peer = UdpPeer::new(
        EndpointId(1),
        endpoint_rng(seed, EndpointId(1)),
        Tracer::off(),
        vec![
            UdpPath::listening(r0, RTT_HINT),
            UdpPath::listening(r1, RTT_HINT),
        ],
        Box::new(MpReceiver::new(RCV_BUFFER)),
    )?;
    // The port line is the rendezvous: the parent blocks on it before
    // aiming its sender sockets.
    println!("PORTS {p0} {p1}");
    io::stdout().flush()?;

    // Serve in slices so we can watch the datagram counter: exit once
    // traffic has flowed and then stopped (the sender is done and gone),
    // or at the hard deadline if the sender never finishes.
    let mut seen = 0u64;
    let mut last_change = SimTime::ZERO;
    loop {
        let now = peer.now();
        if now >= RECEIVER_DEADLINE {
            eprintln!("udp receiver: deadline passed with sender still active");
            return Ok(1);
        }
        peer.run(now + RECEIVER_SLICE, |_| false);
        let got = peer.stats().received_datagrams;
        let t = peer.now();
        if got != seen {
            seen = got;
            last_change = t;
        } else if got > 0 && t.saturating_since(last_change) >= RECEIVER_IDLE_EXIT {
            let st = peer.stats();
            eprintln!(
                "udp receiver: done ({} datagrams, {} decode errors, {} send drops, \
                 {} foreign datagrams)",
                st.received_datagrams, st.decode_errors, st.send_drops, st.foreign_datagrams
            );
            return Ok(if st.decode_errors == 0 { 0 } else { 1 });
        }
    }
}

/// Parent mode (`experiments udp`): run the two-path loopback transfer
/// end to end as one executor run, tracing the sender through the run's
/// telemetry. Returns the process exit code.
pub fn run(opts: &DemoOpts, exec: &Executor) -> i32 {
    mpcc_check::reset();
    exec.run_jobs(vec![opts], |opts, ctx| {
        let tracer = ctx.tracer();
        spawn_receiver(opts.seed).and_then(|(mut child, p0, p1)| {
            eprintln!(
                ">>> udp demo: {} bytes over two loopback paths (ports {p0}/{p1}), \
                 protocol {PROTOCOL}, seed {}",
                opts.bytes, opts.seed
            );
            let result = run_sender(opts, &tracer, p0, p1);
            let _ = child.kill();
            let _ = child.wait();
            result
        })
    })
    .pop()
    .expect("one udp run")
    .unwrap_or_else(|e| {
        eprintln!("udp demo: {e}");
        1
    })
}

/// Spawns the receiver process and reads its port line.
fn spawn_receiver(seed: u64) -> io::Result<(Child, u16, u16)> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg("--udp-receiver")
        .arg("--seed")
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let ports: Vec<u16> = line
        .trim()
        .strip_prefix("PORTS ")
        .map(|rest| rest.split_whitespace().filter_map(|p| p.parse().ok()))
        .into_iter()
        .flatten()
        .collect();
    if ports.len() != 2 {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("receiver handshake: expected 'PORTS <p0> <p1>', got {line:?}"),
        ));
    }
    Ok((child, ports[0], ports[1]))
}

/// The sender half: aims two sockets at the receiver's ports, streams the
/// transfer, prints the summary, and decides the exit code.
fn run_sender(opts: &DemoOpts, tracer: &Tracer, p0: u16, p1: u16) -> io::Result<i32> {
    let s0 = UdpSocket::bind("127.0.0.1:0")?;
    let s1 = UdpSocket::bind("127.0.0.1:0")?;
    let cfg = SenderConfig::file(EndpointId(1), vec![PathId(0), PathId(1)], opts.bytes)
        .with_scheduler(protocols::scheduler_for(PROTOCOL));
    let cc = protocols::make(PROTOCOL, opts.seed);
    let mut sender = UdpPeer::new(
        EndpointId(0),
        endpoint_rng(opts.seed, EndpointId(0)),
        tracer.clone(),
        vec![
            UdpPath::to(s0, format!("127.0.0.1:{p0}").parse().unwrap(), RTT_HINT),
            UdpPath::to(s1, format!("127.0.0.1:{p1}").parse().unwrap(), RTT_HINT),
        ],
        Box::new(MpSender::new(cfg, cc)),
    )?;

    let completed = sender.run(SENDER_DEADLINE, |ep| {
        ep.as_any()
            .downcast_ref::<MpSender>()
            .expect("sender endpoint")
            .is_complete()
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
