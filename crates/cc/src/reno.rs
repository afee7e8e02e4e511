//! TCP Reno (NewReno-style window dynamics): every [`WindowRule`] default.

use crate::window::{WindowCc, WindowRule};
use mpcc_simcore::SimTime;

/// Reno's per-subflow window growth: slow start below ssthresh, then one
/// packet per window per RTT, each subflow on its own.
pub struct Reno;

impl WindowRule for Reno {
    const NAME: &'static str = "reno";

    fn new(_now: SimTime) -> Self {
        Reno
    }
}

/// Single-path Reno (one subflow) or uncoupled Reno-per-subflow.
pub fn reno() -> WindowCc<Reno> {
    WindowCc::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::{Rate, SimDuration, SimTime};
    use mpcc_transport::{AckInfo, LossInfo, MultipathCc};

    fn ack(subflow: usize, packets: u64) -> AckInfo {
        AckInfo {
            subflow,
            now: SimTime::ZERO,
            acked_packets: packets,
            acked_bytes: packets * 1448,
            rtt: SimDuration::from_millis(50),
            srtt: SimDuration::from_millis(50),
            min_rtt: SimDuration::from_millis(50),
            bw_sample: Rate::from_mbps(10.0),
            inflight_bytes: 0,
        }
    }

    #[test]
    fn slow_start_then_congestion_avoidance() {
        let mut cc = reno();
        cc.init_subflow(0, SimTime::ZERO);
        // Slow start: +1 per acked packet.
        cc.on_ack(&ack(0, 10));
        assert_eq!(cc.window(0).cwnd, 20.0);
        // Loss: halve and leave slow start.
        cc.on_loss(&LossInfo {
            subflow: 0,
            now: SimTime::ZERO,
            lost_packets: 1,
            inflight_bytes: 0,
        });
        assert_eq!(cc.window(0).cwnd, 10.0);
        // Congestion avoidance: ~1/w per ACK.
        cc.on_ack(&ack(0, 1));
        assert!((cc.window(0).cwnd - 10.1).abs() < 1e-9);
        // One full window of ACKs grows the window by ~1 packet.
        for _ in 0..10 {
            cc.on_ack(&ack(0, 1));
        }
        assert!((cc.window(0).cwnd - 11.09).abs() < 0.05);
    }

    #[test]
    fn subflows_are_independent() {
        let mut cc = reno();
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        cc.on_ack(&ack(0, 10));
        assert_eq!(cc.window(0).cwnd, 20.0);
        assert_eq!(cc.window(1).cwnd, 10.0);
        assert_eq!(
            cc.cwnd_bytes(1, SimDuration::from_millis(50)),
            (10.0 * 1448.0) as u64
        );
    }

    #[test]
    fn rto_collapses_window() {
        let mut cc = reno();
        cc.init_subflow(0, SimTime::ZERO);
        cc.on_ack(&ack(0, 30));
        cc.on_rto(0, SimTime::from_secs(1));
        assert_eq!(cc.window(0).cwnd, 1.0);
    }
}
