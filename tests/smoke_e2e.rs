//! End-to-end smoke tests: full simulations over the packet-level
//! simulator, checking that each controller family achieves sane goodput
//! on the paper's default link (100 Mbps, 30 ms, 1 BDP buffer), and that
//! the engine's self-profiler attributes every dispatched event.

use mpcc::{Mpcc, MpccConfig};
use mpcc_cc::{balia, cubic, lia, olia, reno, Bbr, WVegas};
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::uniform_parallel_links;
use mpcc_netsim::{EndpointId, Simulation};
use mpcc_simcore::{Profiler, SimTime};
use mpcc_transport::{MpReceiver, MpSender, MultipathCc, SchedulerKind, SenderConfig};

/// Builds one bulk connection over `n_links` parallel default links;
/// returns the simulation and the sender's endpoint id.
fn bulk_sim(
    cc: Box<dyn MultipathCc>,
    n_links: usize,
    rate_sched: bool,
) -> (Simulation, EndpointId) {
    let mut net = uniform_parallel_links(42, n_links, LinkParams::paper_default());
    let paths: Vec<_> = (0..n_links).map(|i| net.path(i)).collect();
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let mut cfg = SenderConfig::bulk(recv, paths);
    if rate_sched {
        cfg = cfg.with_scheduler(SchedulerKind::paper_rate_based());
    }
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    (sim, sender)
}

/// Runs [`bulk_sim`] for `secs` seconds; returns goodput in Mbps measured
/// over the second half.
fn run_bulk(cc: Box<dyn MultipathCc>, n_links: usize, secs: u64, rate_sched: bool) -> f64 {
    let (mut sim, sender) = bulk_sim(cc, n_links, rate_sched);
    sim.run_until(SimTime::from_secs(secs / 2));
    let half = sim.endpoint::<MpSender>(sender).data_acked();
    sim.run_until(SimTime::from_secs(secs));
    let full = sim.endpoint::<MpSender>(sender).data_acked();
    (full - half) as f64 * 8.0 / (secs as f64 / 2.0) / 1e6
}

#[test]
fn reno_single_path_fills_the_link() {
    let goodput = run_bulk(Box::new(reno()), 1, 30, false);
    assert!(
        (85.0..=100.0).contains(&goodput),
        "Reno goodput {goodput} Mbps"
    );
}

#[test]
fn cubic_single_path_fills_the_link() {
    let goodput = run_bulk(Box::new(cubic()), 1, 30, false);
    assert!(
        (85.0..=100.0).contains(&goodput),
        "Cubic goodput {goodput} Mbps"
    );
}

#[test]
fn vivace_single_path_fills_the_link() {
    let goodput = run_bulk(Box::new(Mpcc::vivace(3)), 1, 30, true);
    assert!(
        (80.0..=100.0).contains(&goodput),
        "Vivace goodput {goodput} Mbps"
    );
}

#[test]
fn bbr_single_path_fills_the_link() {
    let goodput = run_bulk(Box::new(Bbr::new()), 1, 30, true);
    assert!(
        (80.0..=100.0).contains(&goodput),
        "BBR goodput {goodput} Mbps"
    );
}

#[test]
fn lia_two_links_uses_both() {
    let goodput = run_bulk(Box::new(lia()), 2, 40, false);
    assert!(goodput > 130.0, "LIA 2-link goodput {goodput} Mbps");
}

#[test]
fn olia_two_links_uses_both() {
    let goodput = run_bulk(Box::new(olia()), 2, 40, false);
    assert!(goodput > 130.0, "OLIA 2-link goodput {goodput} Mbps");
}

#[test]
fn balia_two_links_uses_both() {
    let goodput = run_bulk(Box::new(balia()), 2, 40, false);
    assert!(goodput > 130.0, "Balia 2-link goodput {goodput} Mbps");
}

#[test]
fn wvegas_two_links_moves_data() {
    let goodput = run_bulk(Box::new(WVegas::new()), 2, 40, false);
    // wVegas is conservative; just require substantial utilization.
    assert!(goodput > 60.0, "wVegas 2-link goodput {goodput} Mbps");
}

#[test]
fn mpcc_two_links_uses_both() {
    let goodput = run_bulk(
        Box::new(Mpcc::new(MpccConfig::loss().with_seed(5))),
        2,
        40,
        true,
    );
    assert!(goodput > 150.0, "MPCC 2-link goodput {goodput} Mbps");
}

#[test]
fn profiler_attributes_every_dispatched_event() {
    let (mut sim, sender) = bulk_sim(Box::new(reno()), 1, false);
    sim.run_until(SimTime::from_secs(3));
    assert!(sim.endpoint::<MpSender>(sender).data_acked() > 1_000_000);
    let events = sim.events_processed();
    assert!(events > 10_000, "{events} events");
    assert!(sim.peak_queue_len() > 0);
    let profile = sim.profile();
    // The wheel introspection counters are always on; RTO/MI timers land
    // in coarse slots, so a multi-second run must cascade.
    assert!(profile.cascades > 0, "{profile:?}");
    if Profiler::ENABLED {
        // Every dispatched event lands in exactly one category.
        assert_eq!(profile.total_count(), events, "{profile:?}");
    } else {
        assert_eq!(profile.total_count(), 0, "off build must not count");
    }
}
