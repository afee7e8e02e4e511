//! wVegas — weighted Vegas (Cao, Xu, Fu 2012): the delay-based MPTCP
//! variant the paper evaluates.
//!
//! Each subflow runs Vegas against a *weighted* backlog target: the
//! connection-wide target `TOTAL_ALPHA` packets of queueing is split among
//! subflows in proportion to their share of the aggregate rate, so subflows
//! on congested paths (small achievable rate) are assigned small targets and
//! back off, shifting traffic to less congested paths.
//!
//! Once per RTT, with `diff_i = w_i · (1 − baseRTT_i / rtt_i)`:
//! `diff_i < α_i` → `w_i += 1`; `diff_i > α_i` → `w_i −= 1`.

use mpcc_simcore::{SimDuration, SimTime};
use mpcc_transport::AckInfo;

use crate::window::{WinState, WindowCc, WindowRule, MIN_CWND};

/// Connection-wide queueing target, packets.
const TOTAL_ALPHA: f64 = 10.0;
/// A subflow's target never drops below this (keeps it probing).
const MIN_ALPHA: f64 = 2.0;

/// wVegas's per-subflow state. wVegas overrides the whole ACK step (its
/// slow start and congestion avoidance both run once per RTT); loss and
/// timeout keep the defaults.
pub struct VegasRule {
    /// Smallest RTT ever seen: the propagation-delay estimate.
    base_rtt: SimDuration,
    /// Next time the once-per-RTT adjustment runs.
    next_adjust: SimTime,
}

/// The wVegas multipath controller.
pub type WVegas = WindowCc<VegasRule>;

/// Subflow `i`'s current backlog target α_i.
fn alpha(wins: &[WinState], i: usize) -> f64 {
    let total_rate: f64 = wins.iter().map(|w| w.pkts_per_sec()).sum();
    if total_rate <= 0.0 {
        return TOTAL_ALPHA / wins.len().max(1) as f64;
    }
    let weight = wins[i].pkts_per_sec() / total_rate;
    (TOTAL_ALPHA * weight).max(MIN_ALPHA)
}

impl WindowRule for VegasRule {
    const NAME: &'static str = "wvegas";

    fn new(now: SimTime) -> Self {
        VegasRule {
            base_rtt: SimDuration::MAX,
            next_adjust: now,
        }
    }

    fn on_ack(wins: &mut [WinState], rules: &mut [Self], info: &AckInfo) {
        // α_i weighs the rates before this ACK's srtt is observed.
        let alpha = alpha(wins, info.subflow);
        let (win, sf) = (&mut wins[info.subflow], &mut rules[info.subflow]);
        win.observe(info.srtt, info.min_rtt, info.acked_bytes);
        if info.rtt < sf.base_rtt {
            sf.base_rtt = info.rtt;
        }
        if info.now < sf.next_adjust {
            return;
        }
        sf.next_adjust = info.now + info.srtt;
        let rtt = win.rtt_secs();
        let base = sf.base_rtt.as_secs_f64().min(rtt);
        let diff = win.cwnd * (1.0 - base / rtt);
        if win.in_slow_start() {
            // Vegas leaves slow start as soon as queueing builds.
            if diff > alpha {
                win.cwnd = (win.cwnd * 0.75).max(MIN_CWND);
                win.ssthresh = win.cwnd;
            } else {
                win.cwnd *= 2.0;
            }
            return;
        }
        if diff < alpha {
            win.cwnd += 1.0;
        } else if diff > alpha {
            win.cwnd = (win.cwnd - 1.0).max(MIN_CWND);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::Rate;
    use mpcc_transport::MultipathCc;

    fn ack(subflow: usize, now_ms: u64, rtt_ms: u64, srtt_ms: u64) -> AckInfo {
        AckInfo {
            subflow,
            now: SimTime::from_millis(now_ms),
            acked_packets: 1,
            acked_bytes: 1448,
            rtt: SimDuration::from_millis(rtt_ms),
            srtt: SimDuration::from_millis(srtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            bw_sample: Rate::from_mbps(10.0),
            inflight_bytes: 0,
        }
    }

    #[test]
    fn grows_when_below_target_backlog() {
        let mut cc = WVegas::new();
        cc.init_subflow(0, SimTime::ZERO);
        // Force congestion avoidance. RTT equals base RTT: zero backlog,
        // below alpha → +1.
        cc.window_mut(0).ssthresh = 1.0;
        cc.on_ack(&ack(0, 0, 50, 50));
        let w0 = cc.window(0).cwnd;
        cc.on_ack(&ack(0, 100, 50, 50));
        assert_eq!(cc.window(0).cwnd, w0 + 1.0);
    }

    #[test]
    fn shrinks_when_queueing_exceeds_target() {
        let mut cc = WVegas::new();
        cc.init_subflow(0, SimTime::ZERO);
        cc.window_mut(0).ssthresh = 1.0;
        cc.window_mut(0).cwnd = 50.0;
        // Establish base RTT = 50 ms.
        cc.on_ack(&ack(0, 0, 50, 50));
        // Now RTT doubles: diff = 50·(1−50/100) = 25 > alpha → −1.
        let w = cc.window(0).cwnd;
        cc.on_ack(&ack(0, 200, 100, 100));
        assert_eq!(cc.window(0).cwnd, w - 1.0);
    }

    #[test]
    fn adjustment_happens_once_per_rtt() {
        let mut cc = WVegas::new();
        cc.init_subflow(0, SimTime::ZERO);
        cc.window_mut(0).ssthresh = 1.0;
        cc.on_ack(&ack(0, 0, 50, 50));
        let w = cc.window(0).cwnd;
        // Within the same RTT, further ACKs do not adjust.
        cc.on_ack(&ack(0, 10, 50, 50));
        cc.on_ack(&ack(0, 20, 50, 50));
        assert_eq!(cc.window(0).cwnd, w);
    }

    #[test]
    fn weights_split_total_alpha() {
        let mut cc = WVegas::new();
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        cc.window_mut(0).cwnd = 30.0;
        cc.window_mut(1).cwnd = 10.0;
        cc.window_mut(0).srtt = SimDuration::from_millis(50);
        cc.window_mut(1).srtt = SimDuration::from_millis(50);
        let a0 = alpha(cc.windows(), 0);
        let a1 = alpha(cc.windows(), 1);
        assert!((a0 - 7.5).abs() < 1e-9, "{a0}");
        assert!((a1 - 2.5).abs() < 1e-9, "{a1}");
    }

    #[test]
    fn slow_start_exits_on_queueing() {
        let mut cc = WVegas::new();
        cc.init_subflow(0, SimTime::ZERO);
        cc.window_mut(0).cwnd = 64.0;
        cc.on_ack(&ack(0, 0, 50, 50)); // base 50ms
        assert!(cc.window(0).in_slow_start());
        // Big queueing: exit slow start.
        cc.on_ack(&ack(0, 200, 150, 150));
        assert!(!cc.window(0).in_slow_start());
    }
}
