//! Pins the simulator's exact output against a committed golden file.
//!
//! The fault-soak suite proves that re-runs of the *same build* agree with
//! each other; this test proves that the *current build* agrees with a
//! snapshot taken before the timer-wheel event queue and the
//! allocation-free transport structures replaced their naive counterparts.
//! Any change that perturbs event population, ordering, or RNG consumption
//! — however slightly — shifts the trace digest or a bit-exact counter and
//! fails here, naming exactly what moved.
//!
//! The scenario is deliberately adversarial (reordering, duplication, a
//! loss burst, an outage) and traced across every layer, then run through
//! the executor at one and at four workers: both merged trace files must
//! be byte-identical to each other *and* hash to the committed digest.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! MPCC_UPDATE_GOLDEN=1 cargo test --test golden_determinism
//! ```
//!
//! and commit the rewritten `tests/golden/*.txt` alongside the change that
//! justified it. `churn_small.txt` pins the churn scenario's outcome the
//! same way, `bulk_mpcc.txt` the benchmark's bulk transfer path, and
//! `window_family.txt` the six window-based controllers.

use mpcc_experiments::protocols;
use mpcc_experiments::runner::{ConnSpec, Executor, Scenario, TraceConfig};
use mpcc_experiments::scenarios::churn::{self, ChurnConfig};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::{parallel_links, uniform_parallel_links};
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_telemetry::LayerMask;
use mpcc_transport::{AckInfo, LossInfo, MpReceiver, MpSender, MultipathCc, SenderConfig};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a, 64-bit: stable, dependency-free digest for the trace bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenarios() -> Vec<Scenario> {
    let faulted = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(15),
        buffer: 150_000,
        random_loss: 0.001,
        faults: FaultPlan::parse(
            "reorder:p=0.06,extra=8ms;dup:p=0.03;\
             burst:enter=0.003,exit=0.3,loss=0.5;outage:at=900ms,down=300ms",
        )
        .expect("fault spec parses"),
    };
    let clean = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(25),
        buffer: 150_000,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    // Two scenarios so the 4-worker run actually exercises out-of-order
    // completion and trace merging.
    (0..2u64)
        .map(|i| {
            Scenario::new(
                splitmix64(0x601D ^ i),
                vec![faulted, clean],
                vec![ConnSpec {
                    workload: mpcc_transport::Workload::Finite(1_500_000),
                    ..ConnSpec::bulk("mpcc-loss", vec![0, 1])
                }],
            )
            .with_duration(SimDuration::from_secs(20), SimDuration::ZERO)
            .with_sampling(SimDuration::from_millis(500))
        })
        .collect()
}

fn run_with(jobs: usize, dir: &Path, name: &str) -> (Vec<u8>, String) {
    let path = dir.join(name);
    let exec = Executor::new(
        jobs,
        Some(TraceConfig {
            path: path.clone(),
            mask: LayerMask::ALL,
        }),
    );
    let results = exec.run_batch(scenarios());
    let trace = fs::read(&path).expect("trace file written");

    // Bit-exact end-state summary, one line per scenario.
    let mut summary = String::new();
    for (i, r) in results.iter().enumerate() {
        let c = &r.conns[0];
        summary.push_str(&format!(
            "scenario {i}: goodput_bits={:#018x} fct_bits={:#018x} sent={} lost={} acked={}\n",
            c.goodput_mbps.to_bits(),
            c.fct.map(f64::to_bits).unwrap_or(0),
            c.sent_packets,
            c.lost_packets,
            c.data_acked,
        ));
    }
    (trace, summary)
}

#[test]
fn faulted_run_matches_committed_golden() {
    mpcc_check::reset();
    let dir = std::env::temp_dir().join(format!("mpcc-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();

    let (serial, summary) = run_with(1, &dir, "serial.jsonl");
    let (parallel, summary4) = run_with(4, &dir, "par.jsonl");
    let _ = fs::remove_dir_all(&dir);

    assert!(!serial.is_empty(), "traced run must emit records");
    assert_eq!(serial, parallel, "trace differs between 1 and 4 workers");
    assert_eq!(summary, summary4, "results differ between 1 and 4 workers");
    // A clean scenario must not trip the runtime invariant layer — and,
    // because violations emit `check` trace records, any that fired would
    // also shift the digest below.
    assert_eq!(
        mpcc_check::violations(),
        0,
        "runtime invariant violations during the golden runs"
    );

    let actual = format!(
        "trace_fnv1a64={:#018x}\ntrace_bytes={}\ntrace_lines={}\n{summary}",
        fnv1a64(&serial),
        serial.len(),
        serial.iter().filter(|&&b| b == b'\n').count(),
    );

    check_golden("faulted_trace.txt", &actual);
}

/// Compares `actual` with the committed `tests/golden/<name>`, or rewrites
/// that file when `MPCC_UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MPCC_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(&golden_path, actual).unwrap();
        eprintln!("golden updated: {}", golden_path.display());
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with MPCC_UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "simulator output diverged from the committed golden; if the \
         change is intentional, regenerate with MPCC_UPDATE_GOLDEN=1 and \
         commit the new golden"
    );
}

/// Churn's absolute outcome: connections installed and retired inside the
/// run, endpoints recycled through the pools, on the lossy Clos fabric.
/// The shard-determinism tests only compare shard counts with each other;
/// this pins the one-shard outcome itself.
#[test]
fn churn_outcome_matches_committed_golden() {
    let cfg = ChurnConfig::small(20201201, 1, 300, 4);
    let o = churn::build(&cfg).run();
    let mut fcts = Vec::with_capacity(o.fcts.len() * 20);
    for &(id, bytes, fct_ms) in &o.fcts {
        fcts.extend_from_slice(&id.to_le_bytes());
        fcts.extend_from_slice(&bytes.to_le_bytes());
        fcts.extend_from_slice(&fct_ms.to_bits().to_le_bytes());
    }
    let actual = format!(
        "digest={:#018x}\ntotal_events={}\nstale_events={}\ncompleted={}\nincomplete={}\nskipped={}\nfcts_fnv1a64={:#018x}\n",
        o.digest,
        o.total_events,
        o.stale_events,
        o.fcts.len(),
        o.incomplete,
        o.skipped,
        fnv1a64(&fcts),
    );
    check_golden("churn_small.txt", &actual);
}

/// The bulk benchmark's path, shortened: one finite `mpcc-loss` transfer
/// with the rate-based scheduler over two paper-default links, untraced.
/// It is long enough to overflow a buffer, so the pinned counters cover
/// SACK loss marking as well as the cumulative-ACK path.
#[test]
fn bulk_outcome_matches_committed_golden() {
    const BYTES: u64 = 100_000_000;
    let seed = 1;
    let mut net = uniform_parallel_links(seed, 2, LinkParams::paper_default());
    let paths = (0..2).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::file(recv, paths, BYTES)
        .with_scheduler(protocols::scheduler_for("mpcc-loss"));
    let sender = sim.add_endpoint(Box::new(MpSender::new(
        cfg,
        protocols::make("mpcc-loss", seed),
    )));
    let cap = SimTime::from_secs(60);
    while !sim.endpoint::<MpSender>(sender).is_complete() && sim.now() < cap {
        sim.run_for(SimDuration::from_millis(10));
    }
    let now = sim.now();
    let snd = sim.endpoint::<MpSender>(sender);
    let fct = snd.fct().expect("bulk transfer completes");
    assert_eq!(snd.data_acked(), BYTES);
    let mut actual = String::new();
    let mut lost = 0;
    for i in 0..snd.num_subflows() {
        let st = snd.subflow_stats(i, now);
        lost += st.lost_packets;
        actual.push_str(&format!(
            "subflow {i}: sent={} lost={} acked={}\n",
            st.sent_packets, st.lost_packets, st.acked_packets
        ));
    }
    assert!(lost > 0, "the transfer must reach the loss path");
    actual.push_str(&format!(
        "events={}\ndigest={:#018x}\nfct_ns={}\n",
        sim.events_processed(),
        sim.digest(),
        fct.as_nanos(),
    ));
    check_golden("bulk_mpcc.txt", &actual);
}

/// Forwards every call to the wrapped controller and counts its loss
/// events and timeouts, so a run can prove it reached both.
struct Counted {
    inner: Box<dyn MultipathCc>,
    losses: Arc<AtomicU64>,
    rtos: Arc<AtomicU64>,
}

impl MultipathCc for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init_subflow(&mut self, subflow: usize, now: SimTime) {
        self.inner.init_subflow(subflow, now);
    }
    fn is_rate_based(&self) -> bool {
        self.inner.is_rate_based()
    }
    fn on_ack(&mut self, info: &AckInfo) {
        self.inner.on_ack(info);
    }
    fn on_loss(&mut self, info: &LossInfo) {
        self.losses.fetch_add(1, Ordering::Relaxed);
        self.inner.on_loss(info);
    }
    fn on_rto(&mut self, subflow: usize, now: SimTime) {
        self.rtos.fetch_add(1, Ordering::Relaxed);
        self.inner.on_rto(subflow, now);
    }
    fn cwnd_bytes(&self, subflow: usize, srtt: SimDuration) -> u64 {
        self.inner.cwnd_bytes(subflow, srtt)
    }
    fn pacing_rate(&self, subflow: usize) -> Option<Rate> {
        self.inner.pacing_rate(subflow)
    }
}

/// The window-based controllers: one finite transfer each over a lossy
/// link with an outage and a clean link, default scheduler, untraced.
/// Every run must reach a SACK-detected loss event and a retransmission
/// timeout, so the pinned counters cover slow start, congestion
/// avoidance, the loss decrease and the timeout collapse.
#[test]
fn window_family_outcomes_match_committed_golden() {
    const BYTES: u64 = 6_000_000;
    let faulted = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(20),
        buffer: 100_000,
        random_loss: 0.005,
        faults: FaultPlan::parse("outage:at=1s,down=1500ms").expect("fault spec parses"),
    };
    let clean = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(30),
        buffer: 100_000,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    let mut actual = String::new();
    for (k, proto) in ["reno", "cubic", "lia", "olia", "balia", "wvegas"]
        .into_iter()
        .enumerate()
    {
        let seed = splitmix64(0x5EED ^ k as u64);
        let mut net = parallel_links(seed, &[faulted, clean]);
        let paths = (0..2).map(|i| net.path(i)).collect();
        let mut sim = net.sim;
        let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
        let (losses, rtos) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let cc = Counted {
            inner: protocols::make(proto, seed),
            losses: losses.clone(),
            rtos: rtos.clone(),
        };
        let cfg =
            SenderConfig::file(recv, paths, BYTES).with_scheduler(protocols::scheduler_for(proto));
        let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, Box::new(cc))));
        let cap = SimTime::from_secs(60);
        while !sim.endpoint::<MpSender>(sender).is_complete() && sim.now() < cap {
            sim.run_for(SimDuration::from_millis(10));
        }
        let now = sim.now();
        let snd = sim.endpoint::<MpSender>(sender);
        let fct = snd
            .fct()
            .unwrap_or_else(|| panic!("{proto}: transfer completes"));
        assert_eq!(snd.data_acked(), BYTES, "{proto}");
        let (losses, rtos) = (losses.load(Ordering::Relaxed), rtos.load(Ordering::Relaxed));
        assert!(losses > 0, "{proto}: the run must reach a SACK loss");
        assert!(rtos > 0, "{proto}: the run must reach a timeout");
        actual.push_str(&format!("{proto}: loss_events={losses} rtos={rtos}\n"));
        for i in 0..snd.num_subflows() {
            let st = snd.subflow_stats(i, now);
            actual.push_str(&format!(
                "{proto} subflow {i}: sent={} lost={} acked={}\n",
                st.sent_packets, st.lost_packets, st.acked_packets
            ));
        }
        actual.push_str(&format!(
            "{proto}: events={} digest={:#018x} fct_ns={}\n",
            sim.events_processed(),
            sim.digest(),
            fct.as_nanos(),
        ));
    }
    check_golden("window_family.txt", &actual);
}
