//! Fig. 19: flow completion times on the data-center testbed (Fig. 18).
//!
//! The testbed is a 2-spine/4-ToR Clos with 25 Gbps links, 6 hosts, ECMP,
//! and per host: 15×10 GB + 35×10 MB flows at t=0 plus one 10 KB flow per
//! second for a minute, all as 3-subflow multipath connections. By default
//! we scale the fabric and the workload down by 20× (1.25 Gbps links, 8
//! hosts; 50 MB / 1 MB / 10 KB flow classes, proportionally fewer flows) —
//! FCT *orderings* between protocols are preserved under proportional
//! scaling because they are driven by ramp-up and retransmission behaviour
//! relative to the BDP (see DESIGN.md §1). `--full` runs the full-size
//! 25 Gbps fabric with 1 GB / 10 MB / 10 KB classes.

use crate::output::{f3, Figure};
use crate::protocols;
use crate::runner::RunCtx;
use crate::ExpConfig;
use mpcc_metrics::Summary;
use mpcc_netsim::topology::ClosConfig;
use mpcc_netsim::EndpointId;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{SimDuration, SimRng, SimTime};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig, Workload};

const PROTOCOLS: [&str; 7] = [
    "mpcc-latency",
    "mpcc-loss",
    "cubic",
    "lia",
    "olia",
    "balia",
    "wvegas",
];

struct FlowSpec {
    src: usize,
    dst: usize,
    bytes: u64,
    start: SimTime,
    class: usize, // 0 short, 1 medium, 2 long
}

/// Workload shape: per-host flow counts, per-class sizes, and the hard
/// time cap. Derived from `--full` by [`shape`];
/// [`run_protocols_scaled`] substitutes a miniature one for tests.
#[derive(Clone, Copy)]
struct Shape {
    /// Per-host (long, medium, short) flow counts.
    counts: (usize, usize, usize),
    /// Per-class (long, medium, short) flow sizes, bytes.
    sizes: (u64, u64, u64),
    /// Hard cap on simulated time, seconds.
    cap_secs: u64,
}

/// The scenario's workload shape: `--full` restores the paper's 10 KB /
/// 10 MB classes with a 1 GB bulk class (the paper's 10 GB cut 10× to
/// bound runtime; noted on the figure) at per-host counts whose bulk class
/// alone is ~8 GB of payload per protocol, otherwise the ~20×-scaled-down
/// defaults. Either tier is capped at 120 s.
fn shape(cfg: &ExpConfig) -> Shape {
    Shape {
        counts: cfg.scale((2, 5, 8), (1, 3, 6)),
        sizes: cfg.scale(
            (50_000_000, 1_000_000, 10_000),
            (1_000_000_000, 10_000_000, 10_000),
        ),
        cap_secs: 120,
    }
}

/// Figure labels for the three classes, shortest first.
fn class_names(cfg: &ExpConfig) -> [&'static str; 3] {
    cfg.scale(["10KB", "1MB", "50MB"], ["10KB", "10MB", "1GB"])
}

/// The Clos fabric: full-size 25 Gbps links under `--full`, the
/// 20×-scaled 1.25 Gbps fabric otherwise.
fn fabric(cfg: &ExpConfig) -> ClosConfig {
    ClosConfig {
        link_capacity: mpcc_simcore::Rate::from_gbps(cfg.scale(1.25, 25.0)),
        buffer: 2_000_000,
        ..ClosConfig::default()
    }
}

/// The workload (shared across protocols via the seed).
fn workload(shape: &Shape, hosts: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = SimRng::seed_from_u64(seed);
    let (n_long, n_med, n_short) = shape.counts;
    let (long_b, med_b, short_b) = shape.sizes;
    let mut flows = Vec::new();
    let pick_dst = |src: usize, rng: &mut SimRng| loop {
        let d = rng.index(hosts);
        if d != src {
            return d;
        }
    };
    for src in 0..hosts {
        // Bulk flows start within the first second (desynchronized, as
        // real applications would) rather than at the same instant.
        for _ in 0..n_long {
            let dst = pick_dst(src, &mut rng);
            let start = SimTime::from_millis(rng.range_u64(0, 1000));
            flows.push(FlowSpec {
                src,
                dst,
                bytes: long_b,
                start,
                class: 2,
            });
        }
        for _ in 0..n_med {
            let dst = pick_dst(src, &mut rng);
            let start = SimTime::from_millis(rng.range_u64(0, 1000));
            flows.push(FlowSpec {
                src,
                dst,
                bytes: med_b,
                start,
                class: 1,
            });
        }
        for i in 0..n_short {
            let dst = pick_dst(src, &mut rng);
            flows.push(FlowSpec {
                src,
                dst,
                bytes: short_b,
                start: SimTime::from_secs(i as u64 + 1),
                class: 0,
            });
        }
    }
    flows
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    let class_names = class_names(cfg);
    let mut figs = Vec::new();
    let mut per_class: Vec<Figure> = class_names
        .iter()
        .map(|c| {
            let scale = cfg.scale("scaled", "full-size");
            Figure::new(
                &format!("fig19-{c}"),
                &format!("FCT (ms) of {c} flows on the {scale} Clos testbed"),
                &["protocol", "mean", "p1", "p5", "median", "p95", "p99"],
            )
        })
        .collect();

    // Each protocol's Clos run is an independent simulation: the executor
    // farms them out and returns results in PROTOCOLS order.
    let outcomes = run_protocols(cfg, &PROTOCOLS, shape(cfg));
    for (proto, (fcts, incomplete)) in PROTOCOLS.iter().zip(outcomes) {
        for (class, fig) in per_class.iter_mut().enumerate() {
            let s = Summary::of(&fcts[class]);
            fig.row(vec![
                proto.to_string(),
                f3(s.mean),
                f3(s.percentile(1.0)),
                f3(s.percentile(5.0)),
                f3(s.median()),
                f3(s.percentile(95.0)),
                f3(s.percentile(99.0)),
            ]);
        }
        if incomplete > 0 {
            let cap_secs = shape(cfg).cap_secs;
            per_class[2].note(format!(
                "{proto}: {incomplete} flows had not completed at the {cap_secs}-second cap"
            ));
        }
    }
    for mut fig in per_class {
        fig.note(cfg.scale(
            "fabric scaled 20×: 1.25 Gbps links, 8 hosts, flow classes 10KB/1MB/50MB, 3 subflows via ECMP",
            "full-size fabric: 25 Gbps links, 8 hosts, flow classes 10KB/10MB/1GB (paper's 10 GB bulk cut 10× for runtime), 3 subflows via ECMP",
        ));
        figs.push(fig);
    }
    figs
}

/// Runs `protos` through the executor, one run each, and returns their
/// outcomes in input order.
fn run_protocols(cfg: &ExpConfig, protos: &[&str], shape: Shape) -> Vec<(Vec<Vec<f64>>, usize)> {
    cfg.exec.run_jobs(protos.to_vec(), |proto, ctx| {
        run_proto(cfg, proto, shape, ctx)
    })
}

/// Test/harness entry: runs `protos` through the executor exactly as
/// [`run`] does (telemetry and `--faults` included), but
/// with a miniature workload — one long / one medium / two short flows
/// per host with 20×-smaller classes, capped at `cap_secs` — so tests
/// run it in seconds.
pub fn run_protocols_scaled(
    cfg: &ExpConfig,
    protos: &[&str],
    cap_secs: u64,
) -> Vec<(Vec<Vec<f64>>, usize)> {
    let shape = Shape {
        counts: (1, 1, 2),
        sizes: (2_500_000, 250_000, 10_000),
        cap_secs,
    };
    run_protocols(cfg, protos, shape)
}

/// Runs one protocol's complete Clos workload on one simulation. Returns
/// the per-class FCT samples (ms) and the number of flows still
/// incomplete at the cap.
fn run_proto(
    cfg: &ExpConfig,
    proto: &str,
    shape: Shape,
    ctx: &mut RunCtx,
) -> (Vec<Vec<f64>>, usize) {
    let seed = splitmix64(cfg.seed ^ 0x1919);
    let fab = fabric(cfg);
    let flows = workload(&shape, fab.hosts(), splitmix64(seed ^ 1));
    let conns: Vec<_> = flows.iter().map(|f| (f.src, f.dst, 3)).collect();
    let net = fab.net(&conns);
    let mut sim = net.build(seed);
    // Flow `i` gets endpoint `2i` for its receiver, then `2i + 1` for its
    // sender.
    let senders: Vec<EndpointId> = flows
        .iter()
        .enumerate()
        .map(|(i, flow)| {
            let dst = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
            let cc = protocols::make(proto, splitmix64(seed ^ (0x5EED + i as u64)));
            let cfg_s = SenderConfig {
                dst,
                paths: net.paths(i),
                workload: Workload::Finite(flow.bytes),
                scheduler: protocols::scheduler_for(proto),
                start_at: flow.start,
                peer_buffer: 300_000_000,
            };
            sim.add_endpoint(Box::new(MpSender::new(cfg_s, cc)))
        })
        .collect();
    ctx.attach(&mut sim);
    let cap = SimTime::from_secs(shape.cap_secs);
    let mut t = SimTime::ZERO;
    loop {
        t += SimDuration::from_secs(1);
        sim.run_until(t);
        let done = senders
            .iter()
            .all(|&id| sim.endpoint::<MpSender>(id).is_complete());
        if done || t >= cap {
            break;
        }
    }
    let mut fcts: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut incomplete = 0;
    for (flow, &id) in flows.iter().zip(&senders) {
        match sim.endpoint::<MpSender>(id).fct() {
            Some(d) => fcts[flow.class].push(d.as_secs_f64() * 1000.0),
            None => incomplete += 1,
        }
    }
    (fcts, incomplete)
}
