//! Fig. 16/17: the AWS-to-residential live experiments (§7.3), replayed on
//! synthetic WiFi + cellular path profiles.
//!
//! The testbed downloaded a 75 MB file from six AWS regions to homes in
//! Israel, Boston and Illinois, each with a WiFi subflow and a USB-tethered
//! cellular subflow. We model each (home, server) pair as two asymmetric
//! paths: a WiFi-like path (more bandwidth, shallow buffer, bursty loss)
//! and an LTE-like path (less bandwidth, +40 ms access latency, deep
//! bufferbloat-prone buffer, higher loss); the base RTT grows with the
//! great-circle distance to the region. See DESIGN.md §1 for why this
//! substitution preserves the signal (asymmetric, lossy, high-BDP paths).

use crate::output::{f2, Figure};
use crate::runner::{ConnSpec, Scenario};
use crate::ExpConfig;
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration};
use mpcc_transport::Workload;

const PROTOCOLS: [&str; 8] = [
    "mpcc-latency",
    "mpcc-loss",
    "lia",
    "olia",
    "balia",
    "wvegas",
    "cubic",
    "bbr",
];

const SERVERS: [&str; 6] = [
    "Ohio",
    "SaoPaulo",
    "London",
    "Tokyo",
    "Frankfurt",
    "NorthCalifornia",
];

const HOMES: [&str; 3] = ["Israel", "Boston", "Illinois"];

/// Round-trip propagation (ms) from each home to each server region,
/// approximating great-circle latencies.
fn base_rtt_ms(home: &str, server: &str) -> u64 {
    let table: &[(&str, [u64; 6])] = &[
        // Ohio, SaoPaulo, London, Tokyo, Frankfurt, NCal
        ("Israel", [150, 250, 70, 220, 60, 180]),
        ("Boston", [25, 150, 90, 180, 100, 80]),
        ("Illinois", [15, 160, 100, 160, 110, 60]),
    ];
    let idx = SERVERS.iter().position(|s| *s == server).expect("server");
    table.iter().find(|(h, _)| *h == home).expect("home").1[idx]
}

/// The WiFi-like access path: decent bandwidth, shallow buffer, some loss.
fn wifi_path(rtt_ms: u64) -> LinkParams {
    LinkParams {
        capacity: Rate::from_mbps(30.0),
        delay: SimDuration::from_millis(rtt_ms / 2 + 3),
        buffer: 120_000,
        random_loss: 0.003,
        faults: FaultPlan::NONE,
    }
}

/// The LTE-like access path: less bandwidth, +40 ms access latency, deep
/// (bufferbloat-prone) buffer, more loss.
fn lte_path(rtt_ms: u64) -> LinkParams {
    LinkParams {
        capacity: Rate::from_mbps(18.0),
        delay: SimDuration::from_millis(rtt_ms / 2 + 40),
        buffer: 600_000,
        random_loss: 0.008,
        faults: FaultPlan::NONE,
    }
}

/// Runs the experiment (produces Fig. 16 per home and the Fig. 17
/// normalized aggregate).
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    let file_bytes: u64 = cfg.scale(25_000_000, 75_000_000);
    let mut figs = Vec::new();
    // mean_times[home][proto] over servers.
    let mut per_home_means: Vec<Vec<f64>> = Vec::new();
    let mut per_server_means: Vec<Vec<f64>> = vec![Vec::new(); SERVERS.len()];

    // All (home, server, protocol) downloads are independent: submit the
    // full grid as one batch and consume it in the same nested order.
    let mut scs = Vec::with_capacity(HOMES.len() * SERVERS.len() * PROTOCOLS.len());
    for (hi, home) in HOMES.iter().copied().enumerate() {
        for (si, server) in SERVERS.iter().enumerate() {
            let rtt = base_rtt_ms(home, server);
            for (pi, proto) in PROTOCOLS.iter().enumerate() {
                scs.push(
                    Scenario::new(
                        splitmix64(
                            cfg.seed
                                ^ splitmix64(
                                    0x1617 ^ ((hi as u64) << 40) ^ ((si as u64) << 20) ^ pi as u64,
                                ),
                        ),
                        vec![wifi_path(rtt), lte_path(rtt)],
                        vec![ConnSpec {
                            workload: Workload::Finite(file_bytes),
                            ..ConnSpec::bulk(proto, vec![0, 1])
                        }],
                    )
                    .with_duration(SimDuration::from_secs(600), SimDuration::ZERO)
                    .with_sampling(SimDuration::from_secs(2)),
                );
            }
        }
    }
    let mut results = cfg.exec.run_batch(scs).into_iter();

    for home in HOMES {
        let mut columns = vec!["server".to_string()];
        columns.extend(PROTOCOLS.iter().map(|s| s.to_string()));
        let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut fig = Figure::new(
            &format!("fig16-{}", home.to_lowercase()),
            &format!(
                "download time (s) of a {} MB file to {home} over WiFi+LTE",
                file_bytes / 1_000_000
            ),
            &col_refs,
        );
        let mut proto_times: Vec<Vec<f64>> = vec![Vec::new(); PROTOCOLS.len()];
        for (si, server) in SERVERS.iter().enumerate() {
            let mut row = vec![server.to_string()];
            for times in &mut proto_times {
                let result = results.next().expect("one result per scenario");
                let fct = result.conns[0].fct.unwrap_or(600.0);
                row.push(f2(fct));
                times.push(fct);
                per_server_means[si].push(fct);
            }
            fig.row(row);
        }
        fig.note(
            "synthetic WiFi (30 Mbps, 0.3% loss) + LTE (18 Mbps, +40 ms, 0.8% loss) access paths",
        );
        figs.push(fig);
        per_home_means.push(
            proto_times
                .iter()
                .map(|v| v.iter().sum::<f64>() / v.len() as f64)
                .collect(),
        );
    }

    // Fig. 17a: per home, each protocol's bar = mpcc-latency mean time /
    // protocol mean time (higher = faster than MPCC-latency's 1.0).
    let mut columns = vec!["home".to_string()];
    columns.extend(PROTOCOLS.iter().map(|s| s.to_string()));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut fig17a = Figure::new(
        "fig17a",
        "mean performance normalized to MPCC-latency, per home (higher is better)",
        &col_refs,
    );
    for (hi, home) in HOMES.iter().enumerate() {
        let mpcc_mean = per_home_means[hi][0];
        let mut row = vec![home.to_string()];
        for mean in per_home_means[hi].iter().take(PROTOCOLS.len()) {
            row.push(f2(mpcc_mean / mean));
        }
        fig17a.row(row);
    }
    figs.push(fig17a);

    // Fig. 17b: the same normalization per server (means over homes).
    let mut fig17b = Figure::new(
        "fig17b",
        "mean performance normalized to MPCC-latency, per server (higher is better)",
        &col_refs,
    );
    for (si, server) in SERVERS.iter().enumerate() {
        // per_server_means[si] holds HOMES×PROTOCOLS entries in
        // (home-major, protocol-minor) order.
        let n_homes = HOMES.len();
        let mean_of = |pi: usize| -> f64 {
            (0..n_homes)
                .map(|h| per_server_means[si][h * PROTOCOLS.len() + pi])
                .sum::<f64>()
                / n_homes as f64
        };
        let mpcc_mean = mean_of(0);
        let mut row = vec![server.to_string()];
        for pi in 0..PROTOCOLS.len() {
            row.push(f2(mpcc_mean / mean_of(pi)));
        }
        fig17b.row(row);
    }
    figs.push(fig17b);
    figs
}
