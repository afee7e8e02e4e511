//! A miniature of the paper's §7.4 data-center experiment: a 2-spine /
//! 4-ToR Clos fabric with ECMP, mixed flow sizes, 3 subflows per
//! connection, comparing flow completion times of MPCC and Cubic.
//!
//! ```sh
//! cargo run --release --example datacenter
//! ```

use mpcc_experiments::protocols;
use mpcc_metrics::Summary;
use mpcc_netsim::topology::ClosConfig;
use mpcc_simcore::{SimDuration, SimTime};
use mpcc_transport::{MpReceiver, MpSender, SenderConfig, Workload};

/// (bytes, count-per-host, label)
const CLASSES: [(u64, usize, &str); 3] = [
    (10_000, 6, "10KB"),
    (1_000_000, 4, "1MB"),
    (25_000_000, 2, "25MB"),
];

fn run(proto: &str) -> Vec<Summary> {
    let clos = ClosConfig::default();
    let hosts = clos.hosts();
    // Deterministic all-to-all-ish workload: host h sends to (h + k) % hosts.
    let mut flows: Vec<(usize, usize, u64, usize)> = Vec::new();
    for src in 0..hosts {
        for (class, &(bytes, count, _)) in CLASSES.iter().enumerate() {
            for k in 0..count {
                let dst = (src + 1 + k) % hosts;
                if dst != src {
                    flows.push((src, dst, bytes, class));
                }
            }
        }
    }
    let net = clos.net(&flows.iter().map(|f| (f.0, f.1, 3)).collect::<Vec<_>>());
    let mut sim = net.build(7);
    let mut senders = Vec::new();
    for (i, &(_, _, bytes, _)) in flows.iter().enumerate() {
        let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
        let cc = protocols::make(proto, 1000 + i as u64);
        let cfg = SenderConfig {
            dst: recv,
            paths: net.paths(i),
            workload: Workload::Finite(bytes),
            scheduler: protocols::scheduler_for(proto),
            start_at: SimTime::ZERO,
            peer_buffer: 300_000_000,
        };
        senders.push(sim.add_endpoint(Box::new(MpSender::new(cfg, cc))));
    }
    // Run until everything completes.
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(60) {
        t += SimDuration::from_secs(1);
        sim.run_until(t);
        if senders
            .iter()
            .all(|&s| sim.endpoint::<MpSender>(s).is_complete())
        {
            break;
        }
    }
    let mut fcts: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    for (i, &(_, _, _, class)) in flows.iter().enumerate() {
        if let Some(d) = sim.endpoint::<MpSender>(senders[i]).fct() {
            fcts[class].push(d.as_secs_f64() * 1000.0);
        }
    }
    fcts.iter().map(|v| Summary::of(v)).collect()
}

fn main() {
    println!("Clos fabric: 2 spines, 4 ToRs, 8 hosts, 2.5 Gb/s links, 3 subflows per connection\n");
    println!(
        "{:>13}  {:>7}  {:>18}  {:>18}  {:>18}",
        "protocol", "", "10KB flows", "1MB flows", "25MB flows"
    );
    println!(
        "{:>13}  {:>7}  {:>8} {:>9}  {:>8} {:>9}  {:>8} {:>9}",
        "", "", "median", "p95", "median", "p95", "median", "p95"
    );
    for proto in ["mpcc-latency", "mpcc-loss", "cubic", "lia", "balia"] {
        let s = run(proto);
        println!(
            "{:>13}  FCT ms  {:>8.1} {:>9.1}  {:>8.1} {:>9.1}  {:>8.1} {:>9.1}",
            proto,
            s[0].median(),
            s[0].percentile(95.0),
            s[1].median(),
            s[1].percentile(95.0),
            s[2].median(),
            s[2].percentile(95.0),
        );
    }
    println!("\n(the paper finds MPCC wins on long flows but lags on short ones — §7.4)");
}
