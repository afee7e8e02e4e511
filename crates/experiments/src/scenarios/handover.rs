//! Handover under path failure: the Fig. 16/17 WiFi+LTE regime with the
//! WiFi path taken down mid-transfer.
//!
//! The paper's live experiments (§7.3) include walking out of WiFi range
//! mid-download: the WiFi subflow black-holes and the transfer must finish
//! over LTE. We reproduce that regime with the fault-injection layer: a
//! finite download over the synthetic WiFi+LTE path pair, under three
//! fault regimes on the WiFi path —
//!
//! * `none` — no fault (baseline);
//! * `outage` — one 3 s black-hole starting at 4 s (leaving and re-entering
//!   WiFi range once);
//! * `flap` — four 800 ms black-holes every 2.5 s starting at 3 s (walking
//!   along the edge of coverage).
//!
//! The figure reports per-protocol completion time for each regime: a
//! robust multipath stack degrades toward the LTE-only rate during the
//! windows instead of stalling.

use crate::output::{f2, Figure};
use crate::runner::{ConnSpec, Scenario};
use crate::ExpConfig;
use mpcc_netsim::fault::{FaultPlan, OutageSchedule};
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_transport::Workload;

const PROTOCOLS: [&str; 4] = ["mpcc-loss", "mpcc-latency", "lia", "bbr"];

/// The fault regimes applied to the WiFi path, as (label, plan) pairs.
fn regimes() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::NONE),
        (
            "outage",
            FaultPlan::NONE.with_outage(OutageSchedule::once(
                SimTime::from_secs(4),
                SimDuration::from_secs(3),
            )),
        ),
        (
            "flap",
            FaultPlan::NONE.with_outage(OutageSchedule::flapping(
                SimTime::from_secs(3),
                SimDuration::from_millis(800),
                SimDuration::from_millis(2_500),
                4,
            )),
        ),
    ]
}

fn wifi_path(faults: FaultPlan) -> LinkParams {
    LinkParams {
        capacity: Rate::from_mbps(30.0),
        delay: SimDuration::from_millis(15),
        buffer: 120_000,
        random_loss: 0.003,
        faults,
    }
}

fn lte_path() -> LinkParams {
    LinkParams {
        capacity: Rate::from_mbps(18.0),
        delay: SimDuration::from_millis(55),
        buffer: 600_000,
        random_loss: 0.008,
        faults: FaultPlan::NONE,
    }
}

/// Runs the handover study and produces one figure of completion times.
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    let file_bytes: u64 = cfg.scale(10_000_000, 40_000_000);
    let regimes = regimes();

    // All (regime, protocol) downloads are independent: one batch, consumed
    // in the same nested order.
    let mut scs = Vec::with_capacity(regimes.len() * PROTOCOLS.len());
    for (ri, (_, plan)) in regimes.iter().enumerate() {
        for (pi, proto) in PROTOCOLS.iter().enumerate() {
            scs.push(
                Scenario::new(
                    splitmix64(cfg.seed ^ splitmix64(0x0A4D ^ ((ri as u64) << 20) ^ pi as u64)),
                    vec![wifi_path(*plan), lte_path()],
                    vec![ConnSpec {
                        workload: Workload::Finite(file_bytes),
                        ..ConnSpec::bulk(proto, vec![0, 1])
                    }],
                )
                .with_duration(SimDuration::from_secs(120), SimDuration::ZERO)
                .with_sampling(SimDuration::from_millis(500)),
            );
        }
    }
    let mut results = cfg.exec.run_batch(scs).into_iter();

    let mut columns = vec!["regime".to_string()];
    columns.extend(PROTOCOLS.iter().map(|s| s.to_string()));
    columns.push("wifi_blackholed_pkts".to_string());
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut fig = Figure::new(
        "handover",
        &format!(
            "download time (s) of a {} MB file over WiFi+LTE with WiFi outages",
            file_bytes / 1_000_000
        ),
        &col_refs,
    );
    for (label, _) in &regimes {
        let mut row = vec![label.to_string()];
        let mut blackholed = 0;
        for _ in PROTOCOLS {
            let result = results.next().expect("one result per scenario");
            row.push(f2(result.conns[0].fct.unwrap_or(120.0)));
            blackholed += result.links[0].dropped_outage;
        }
        row.push(blackholed.to_string());
        fig.row(row);
    }
    fig.note(
        "outage = one 3 s WiFi black-hole at 4 s; flap = 4 x 800 ms black-holes every 2.5 s; \
         the transfer must complete over LTE during the windows",
    );
    vec![fig]
}
