//! End-to-end scenario tests beyond the smoke suite: the §6 scheduler
//! effect, application-limited workloads, the Clos fabric, and mid-run
//! link changes.

use mpcc::{Mpcc, MpccConfig};
use mpcc_cc::Bbr;
use mpcc_netsim::link::LinkParams;
use mpcc_netsim::topology::{parallel_links, uniform_parallel_links, ClosConfig};
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_transport::{MpReceiver, MpSender, MultipathCc, SchedulerKind, SenderConfig, Workload};

fn two_link_bulk(
    cc: Box<dyn MultipathCc>,
    scheduler: SchedulerKind,
    delays_ms: (u64, u64),
    secs: u64,
) -> (f64, u64, u64) {
    let links = [
        LinkParams::paper_default().with_delay(SimDuration::from_millis(delays_ms.0)),
        LinkParams::paper_default().with_delay(SimDuration::from_millis(delays_ms.1)),
    ];
    let mut net = parallel_links(31, &links);
    let p0 = net.path(0);
    let p1 = net.path(1);
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::bulk(recv, vec![p0, p1]).with_scheduler(scheduler);
    let sender = sim.add_endpoint(Box::new(MpSender::new(cfg, cc)));
    let end = SimTime::from_secs(secs);
    sim.run_until(end);
    let s = sim.endpoint::<MpSender>(sender);
    (
        s.data_acked() as f64 * 8.0 / secs as f64 / 1e6,
        s.subflow_stats(0, end).sent_packets,
        s.subflow_stats(1, end).sent_packets,
    )
}

#[test]
fn default_scheduler_starves_second_subflow_under_bbr() {
    // The §6 pathology: with rate-based CC, the default scheduler parks all
    // data on the low-RTT subflow.
    let (goodput, fast, slow) =
        two_link_bulk(Box::new(Bbr::new()), SchedulerKind::Default, (10, 40), 20);
    assert!(goodput < 120.0, "goodput {goodput} should be ≈ one link");
    assert!(
        slow < fast / 50,
        "slow subflow should be starved: fast {fast} slow {slow}"
    );
}

#[test]
fn rate_scheduler_recovers_both_links_under_bbr() {
    let (goodput, fast, slow) = two_link_bulk(
        Box::new(Bbr::new()),
        SchedulerKind::paper_rate_based(),
        (10, 40),
        20,
    );
    assert!(goodput > 160.0, "goodput {goodput}");
    assert!(slow > fast / 4, "both busy: fast {fast} slow {slow}");
}

#[test]
fn paced_workload_is_app_limited_not_network_limited() {
    // A 4 Mb/s stream over a 100 Mbps link: delivery tracks the release
    // schedule, and MPCC must not blow its rate up to line rate.
    let mut net = uniform_parallel_links(77, 1, LinkParams::paper_default());
    let path = net.path(0);
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig {
        dst: recv,
        paths: vec![path],
        workload: Workload::Paced {
            burst: 500_000,
            interval: SimDuration::from_secs(1),
        },
        scheduler: SchedulerKind::paper_rate_based(),
        start_at: SimTime::ZERO,
        peer_buffer: 300_000_000,
    };
    let sender = sim.add_endpoint(Box::new(MpSender::new(
        cfg,
        Box::new(Mpcc::new(MpccConfig::loss().with_seed(4))),
    )));
    sim.run_until(SimTime::from_secs(20));
    let s = sim.endpoint::<MpSender>(sender);
    let delivered = s.data_acked();
    // 20 bursts of 500 KB released; all but the freshest should be through.
    assert!(
        (9_500_000..=10_000_000).contains(&delivered),
        "delivered {delivered}"
    );
}

#[test]
fn clos_fabric_carries_cross_tor_traffic() {
    let net = ClosConfig {
        link_capacity: Rate::from_gbps(1.0),
        ..ClosConfig::default()
    }
    .net(&[(0, 7, 3)]);
    let mut sim = net.build(5);
    let paths = net.paths(0);
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg = SenderConfig::file(recv, paths, 20_000_000)
        .with_scheduler(SchedulerKind::paper_rate_based());
    let sender = sim.add_endpoint(Box::new(MpSender::new(
        cfg,
        Box::new(Mpcc::new(MpccConfig::latency().with_seed(6))),
    )));
    sim.run_until(SimTime::from_secs(10));
    let s = sim.endpoint::<MpSender>(sender);
    let fct = s.fct().expect("20 MB completes in 10 s on a 1 Gbps fabric");
    assert!(fct.as_secs_f64() < 5.0, "fct {fct:?}");
}

#[test]
fn loss_based_mpcc_stands_a_deep_queue() {
    // MPCC-loss on a deep buffer keeps the queue busy; sampling it must
    // show substantial standing queue (this is what Fig. 9 measures via
    // RTT).
    let params = LinkParams::paper_default().with_buffer(1_000_000);
    let mut net = uniform_parallel_links(13, 1, params);
    let path = net.path(0);
    let link = net.links[0];
    let mut sim = net.sim;
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg =
        SenderConfig::bulk(recv, vec![path]).with_scheduler(SchedulerKind::paper_rate_based());
    sim.add_endpoint(Box::new(MpSender::new(
        cfg,
        Box::new(Mpcc::new(MpccConfig::loss().with_seed(2))),
    )));
    let before = sim.link_stats(link);
    let mut queued = Vec::new();
    for step in 1..=300u64 {
        sim.run_until(SimTime::from_millis(100 * step));
        if step > 100 {
            queued.push(sim.link(link).queued_bytes() as f64);
        }
    }
    let delivered = sim.link_stats(link).delivered_bytes - before.delivered_bytes;
    let utilization = delivered as f64 * 8.0 / 30.0 / params.capacity.bps();
    assert!(utilization > 0.85, "utilization {utilization}");
    let mean = queued.iter().sum::<f64>() / queued.len() as f64;
    assert!(
        mean > 100_000.0,
        "loss-based MPCC should stand a deep queue: mean {mean}"
    );
}

#[test]
fn link_capacity_drop_mid_run_is_tracked() {
    let mut net = uniform_parallel_links(3, 1, LinkParams::paper_default());
    let path = net.path(0);
    let link = net.links[0];
    let mut sim = net.sim;
    sim.schedule_link_change(
        SimTime::from_secs(15),
        link,
        LinkParams::paper_default().with_capacity(Rate::from_mbps(20.0)),
    );
    let recv = sim.add_endpoint(Box::new(MpReceiver::paper_default()));
    let cfg =
        SenderConfig::bulk(recv, vec![path]).with_scheduler(SchedulerKind::paper_rate_based());
    let sender = sim.add_endpoint(Box::new(MpSender::new(
        cfg,
        Box::new(Mpcc::new(MpccConfig::loss().with_seed(8))),
    )));
    sim.run_until(SimTime::from_secs(15));
    let before = sim.endpoint::<MpSender>(sender).data_acked();
    sim.run_until(SimTime::from_secs(30));
    let after = sim.endpoint::<MpSender>(sender).data_acked();
    let late_mbps = (after - before) as f64 * 8.0 / 15.0 / 1e6;
    assert!(
        late_mbps < 25.0,
        "MPCC must track the capacity drop: {late_mbps} Mbps"
    );
    assert!(late_mbps > 10.0, "but still use the link: {late_mbps} Mbps");
}
