//! §6 scheduler validation: a single multipath connection over two
//! 100 Mbps parallel links, per-subflow BBR adjusting the rate, comparing
//! the default MPTCP scheduler to the paper's rate-based scheduler.
//! The paper measured 148.2 → 179.4 Mbps; the shape to reproduce is a
//! large goodput gain from the rate-based scheduler, plus the threshold
//! trade-off discussed in §6 (too high → low-RTT bias wastes the second
//! link; too low → spraying).

use crate::output::{f2, Figure};
use crate::runner::{ConnSpec, Scenario};
use crate::ExpConfig;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::SimDuration;
use mpcc_transport::SchedulerKind;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Figure> {
    let duration = cfg.scale(SimDuration::from_secs(60), SimDuration::from_secs(200));
    let warmup = cfg.scale(SimDuration::from_secs(15), SimDuration::from_secs(30));
    // Asymmetric RTTs make the default scheduler's lowest-RTT bias bite.
    let links = vec![
        LinkParams::paper_default().with_delay(SimDuration::from_millis(10)),
        LinkParams::paper_default().with_delay(SimDuration::from_millis(40)),
    ];

    let mut fig = Figure::new(
        "sched",
        "goodput (Mbps) of one 2-subflow BBR connection over 2×100 Mbps, by scheduler",
        &["scheduler", "goodput_mbps"],
    );
    let schedulers = [
        ("default", SchedulerKind::Default),
        ("rate-based-10%", SchedulerKind::paper_rate_based()),
        // Threshold ablation around the paper's 10% choice.
        (
            "rate-based-2%",
            SchedulerKind::RateBased { threshold: 0.02 },
        ),
        (
            "rate-based-50%",
            SchedulerKind::RateBased { threshold: 0.50 },
        ),
    ];
    // Each scheduler variant is an independent run of the same scenario.
    let scs = schedulers
        .iter()
        .map(|&(_, kind)| {
            let mut sc = Scenario::new(
                splitmix64(cfg.seed ^ 0x5C4ED),
                links.clone(),
                vec![ConnSpec::bulk("bbr", vec![0, 1])],
            )
            .with_duration(duration, warmup);
            // Override the factory's scheduler choice.
            sc.conns[0].scheduler = kind;
            sc
        })
        .collect();
    for ((name, _), result) in schedulers.iter().zip(cfg.exec.run_batch(scs)) {
        fig.row(vec![name.to_string(), f2(result.conns[0].goodput_mbps)]);
    }
    fig.note("paper §6: default scheduler 148.2 Mbps → rate-based scheduler 179.4 Mbps");
    vec![fig]
}
