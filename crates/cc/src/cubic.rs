//! TCP Cubic (Ha, Rhee, Xu 2008): cubic window growth with a TCP-friendly
//! region, the default congestion controller of Linux and the single-path
//! competitor in the paper's §7.2.6 friendliness experiments.

use crate::window::{WinState, WindowCc, WindowRule};
use mpcc_simcore::SimTime;
use mpcc_transport::AckInfo;

/// Cubic scaling constant (packets/s³).
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;

/// Cubic's per-subflow state. Cubic overrides the ACK step (it sets the
/// window to the cubic curve's value rather than adding an increment), the
/// decrease (β = 0.7) and the loss note (which ends the epoch).
#[derive(Default)]
pub struct Cubic {
    /// Window size just before the last reduction, packets.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time at which the cubic curve returns to `w_max`, seconds.
    k: f64,
    /// Estimated Reno-equivalent window for the TCP-friendly region.
    w_est: f64,
}

impl Cubic {
    fn enter_epoch(&mut self, now: SimTime, cwnd: f64) {
        self.epoch_start = Some(now);
        if cwnd < self.w_max {
            self.k = ((self.w_max - cwnd) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = cwnd;
        }
        self.w_est = cwnd;
    }
}

impl WindowRule for Cubic {
    const NAME: &'static str = "cubic";

    fn new(_now: SimTime) -> Self {
        Cubic::default()
    }

    fn on_ack(wins: &mut [WinState], rules: &mut [Self], info: &AckInfo) {
        let (win, cubic) = (&mut wins[info.subflow], &mut rules[info.subflow]);
        win.observe(info.srtt, info.min_rtt, info.acked_bytes);
        if win.in_slow_start() {
            win.slow_start(info.acked_packets);
            return;
        }
        if cubic.epoch_start.is_none() {
            cubic.enter_epoch(info.now, win.cwnd);
        }
        let t = info
            .now
            .saturating_since(cubic.epoch_start.expect("set above"))
            .as_secs_f64();
        let rtt = win.rtt_secs();
        // Window the cubic curve targets one RTT from now.
        let target = {
            let dt = t + rtt - cubic.k;
            C * dt * dt * dt + cubic.w_max
        };
        let n = info.acked_packets as f64;
        if target > win.cwnd {
            win.cwnd += n * (target - win.cwnd) / win.cwnd;
        } else {
            // Creep forward very slowly when at/above the curve.
            win.cwnd += n * 0.01 / win.cwnd;
        }
        // TCP-friendly region (estimate of what Reno would have).
        cubic.w_est += n * 3.0 * (1.0 - BETA) / (1.0 + BETA) / win.cwnd;
        if cubic.w_est > win.cwnd {
            win.cwnd = cubic.w_est;
        }
    }

    fn note_loss(&mut self, win: &WinState) {
        self.w_max = win.cwnd;
        self.epoch_start = None;
    }

    fn decrease(wins: &mut [WinState], i: usize) {
        wins[i].md(BETA);
    }
}

/// Single-path Cubic (one subflow) or uncoupled Cubic-per-subflow.
pub fn cubic() -> WindowCc<Cubic> {
    WindowCc::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::{Rate, SimDuration};
    use mpcc_transport::{LossInfo, MultipathCc};

    fn ack_at(now_ms: u64, packets: u64) -> AckInfo {
        AckInfo {
            subflow: 0,
            now: SimTime::from_millis(now_ms),
            acked_packets: packets,
            acked_bytes: packets * 1448,
            rtt: SimDuration::from_millis(50),
            srtt: SimDuration::from_millis(50),
            min_rtt: SimDuration::from_millis(50),
            bw_sample: Rate::from_mbps(10.0),
            inflight_bytes: 0,
        }
    }

    fn loss() -> LossInfo {
        LossInfo {
            subflow: 0,
            now: SimTime::ZERO,
            lost_packets: 1,
            inflight_bytes: 0,
        }
    }

    #[test]
    fn reduction_uses_beta() {
        let mut cc = cubic();
        cc.init_subflow(0, SimTime::ZERO);
        cc.on_ack(&ack_at(0, 90)); // slow start to 100
        assert_eq!(cc.window(0).cwnd, 100.0);
        cc.on_loss(&loss());
        assert!((cc.window(0).cwnd - 70.0).abs() < 1e-9);
    }

    #[test]
    fn concave_growth_back_toward_w_max() {
        let mut cc = cubic();
        cc.init_subflow(0, SimTime::ZERO);
        cc.on_ack(&ack_at(0, 90));
        cc.on_loss(&loss());
        let w_after_loss = cc.window(0).cwnd;
        // Feed ACKs over ~5 simulated seconds: window should recover toward
        // w_max (100) but growth should flatten near it (concave region).
        let mut w_prev = w_after_loss;
        let mut growth_early = 0.0;
        let mut growth_late = 0.0;
        for ms in 1..=5000u64 {
            if ms % 50 == 0 {
                cc.on_ack(&ack_at(ms, (w_prev / 1.0) as u64));
                let w = cc.window(0).cwnd;
                if ms <= 1000 {
                    growth_early += w - w_prev;
                } else if ms > 4000 {
                    growth_late += w - w_prev;
                }
                w_prev = w;
            }
        }
        assert!(w_prev > 85.0, "recovered to {w_prev}");
        assert!(
            growth_early > growth_late,
            "concave: early {growth_early} late {growth_late}"
        );
    }

    #[test]
    fn tcp_friendly_region_lower_bounds_growth() {
        // Small window, long epoch: w_est (Reno-like) should dominate.
        let mut cc = cubic();
        cc.init_subflow(0, SimTime::ZERO);
        cc.on_ack(&ack_at(0, 2)); // cwnd 12
        cc.on_loss(&loss()); // cwnd 8.4, w_max 12
        let before = cc.window(0).cwnd;
        for i in 0..200u64 {
            cc.on_ack(&ack_at(50 + i, 1));
        }
        assert!(cc.window(0).cwnd > before, "window must keep growing");
    }
}
