//! Ablations of MPCC's design choices (beyond the paper's own figures):
//!
//! * **A1 — per-subflow vs connection-level control** (§4's "failed try"):
//!   on a topology with heterogeneous RTTs, the connection-level controller
//!   suffers Obstacles I–III (sequential probing, slowest-RTT monitor
//!   intervals, worst-subflow penalty) and converges slower / utilizes
//!   less.
//! * **A2 — probe amplitude ω** as a fraction of the connection total
//!   (the paper's choice) vs of the subflow's own rate: with asymmetric
//!   link bandwidths, own-rate scaling "gets stuck" (§5.2).
//! * **A3 — utility γ** (loss-only vs latency-aware) on deep buffers:
//!   the latency/throughput trade-off behind MPCC-loss vs MPCC-latency.

use crate::output::{f2, Figure};
use crate::runner::{ConnSpec, Scenario};
use crate::ExpConfig;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration, SimTime};

/// Runs all ablations.
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    vec![a1(cfg), a2(cfg), a3(cfg)]
}

/// A1: per-subflow (MPCC) vs connection-level (§4) controller.
fn a1(cfg: &ExpConfig) -> Figure {
    let duration = cfg.scale(SimDuration::from_secs(60), SimDuration::from_secs(200));
    let warmup = cfg.scale(SimDuration::from_secs(15), SimDuration::from_secs(30));
    let mut fig = Figure::new(
        "ablation-a1",
        "per-subflow vs connection-level control, 10 ms + 100 ms links (§4 Obstacles I-III)",
        &["controller", "goodput_mbps", "time_to_100mbps_s"],
    );
    // Heterogeneous RTTs: link 0 fast (10 ms), link 1 slow (100 ms).
    let links = vec![
        LinkParams::paper_default().with_delay(SimDuration::from_millis(10)),
        LinkParams::paper_default().with_delay(SimDuration::from_millis(100)),
    ];
    let protos = ["mpcc-loss", "mpcc-conn-level"];
    let scs: Vec<Scenario> = protos
        .iter()
        .map(|proto| {
            Scenario::new(
                splitmix64(cfg.seed ^ 0xA1),
                links.clone(),
                vec![ConnSpec::bulk(proto, vec![0, 1])],
            )
            .with_duration(duration, warmup)
        })
        .collect();
    for (proto, result) in protos.iter().zip(cfg.exec.run_batch(scs)) {
        // Time to first reach half the 200 Mbps capacity.
        let t80 = result.conns[0]
            .series
            .points()
            .iter()
            .find(|p| p.mbps >= 100.0)
            .map(|p| p.t.as_secs_f64())
            .unwrap_or(f64::NAN);
        fig.row(vec![
            proto.to_string(),
            f2(result.conns[0].goodput_mbps),
            f2(t80),
        ]);
    }
    fig.note("Obstacle II forces the fast subflow onto 100 ms monitor intervals; Obstacle I costs 2d MIs per gradient estimate");
    fig
}

/// A2: ω from connection total vs from the subflow's own rate.
fn a2(cfg: &ExpConfig) -> Figure {
    let duration = cfg.scale(SimDuration::from_secs(60), SimDuration::from_secs(200));
    let warmup = cfg.scale(SimDuration::from_secs(15), SimDuration::from_secs(30));
    let mut fig = Figure::new(
        "ablation-a2",
        "probe amplitude scaling on asymmetric links (20 + 300 Mbps): §5.2's design choice",
        &["omega_scaling", "goodput_mbps", "slow_link_share_pct"],
    );
    let links = vec![
        LinkParams::paper_default().with_capacity(Rate::from_mbps(20.0)),
        LinkParams::paper_default().with_capacity(Rate::from_mbps(300.0)),
    ];
    let variants = [
        ("of_connection_total", "mpcc-loss"),
        ("of_own_rate", "mpcc-loss-own-rate"),
    ];
    let scs: Vec<Scenario> = variants
        .iter()
        .map(|&(_, proto)| {
            Scenario::new(
                splitmix64(cfg.seed ^ 0xA2),
                links.clone(),
                vec![ConnSpec::bulk(proto, vec![0, 1])],
            )
            .with_duration(duration, warmup)
        })
        .collect();
    let warm_end = SimTime::ZERO + warmup;
    for ((label, _), result) in variants.iter().zip(cfg.exec.run_batch(scs)) {
        let conn = &result.conns[0];
        let slow_mbps = conn.subflow_series[0].mean_after(warm_end);
        fig.row(vec![
            label.to_string(),
            f2(conn.goodput_mbps),
            f2(slow_mbps / 20.0 * 100.0),
        ]);
    }
    fig.note("paper §5.2: own-rate scaling's probes on the slow link are tiny relative to the fast link's dynamics — gradient estimates stall");
    fig
}

/// A3: γ = 0 vs γ = 1 on deep buffers (the MPCC-loss / MPCC-latency
/// trade-off of §7.2.4).
fn a3(cfg: &ExpConfig) -> Figure {
    let duration = cfg.scale(SimDuration::from_secs(60), SimDuration::from_secs(200));
    let warmup = cfg.scale(SimDuration::from_secs(15), SimDuration::from_secs(30));
    let mut fig = Figure::new(
        "ablation-a3",
        "utility γ: throughput vs self-induced latency on 1 MB buffers",
        &["variant", "goodput_mbps", "mean_srtt_ms"],
    );
    let params = LinkParams::paper_default().with_buffer(1_000_000);
    let protos = ["mpcc-loss", "mpcc-latency"];
    let scs: Vec<Scenario> = protos
        .iter()
        .map(|proto| {
            Scenario::new(
                splitmix64(cfg.seed ^ 0xA3),
                vec![params, params],
                vec![ConnSpec::bulk(proto, vec![0, 1])],
            )
            .with_duration(duration, warmup)
            .with_sampling(SimDuration::from_millis(100))
        })
        .collect();
    for (proto, result) in protos.iter().zip(cfg.exec.run_batch(scs)) {
        let mut sum = 0.0;
        let mut n = 0usize;
        for sf in &result.conns[0].srtt_ms {
            for &(t, ms) in sf {
                if t > SimTime::ZERO + warmup && ms > 0.0 {
                    sum += ms;
                    n += 1;
                }
            }
        }
        fig.row(vec![
            proto.to_string(),
            f2(result.conns[0].goodput_mbps),
            f2(if n > 0 { sum / n as f64 } else { 0.0 }),
        ]);
    }
    fig.note("γ=1 trades a little goodput for staying near the 60 ms propagation RTT (§7.2.4)");
    fig
}
