//! LIA — the Linked-Increases Algorithm (RFC 6356), MPTCP's default
//! coupled congestion control.
//!
//! Per ACK on subflow `i` in congestion avoidance, the window grows by
//!
//! ```text
//! min( α · acked / w_total ,  acked / w_i )
//! α = w_total · max_i(w_i / rtt_i²) / ( Σ_i w_i / rtt_i )²
//! ```
//!
//! which caps the aggregate aggressiveness at that of a single Reno flow on
//! the best path while never being more aggressive than Reno on any one
//! path.

use crate::window::{WinState, WindowCc, WindowRule};
use mpcc_simcore::SimTime;
use mpcc_transport::AckInfo;

/// The LIA increase rule (stateless).
pub struct LiaRule;

/// Computes RFC 6356's α for the current window/RTT vector.
pub fn lia_alpha(wins: &[WinState]) -> f64 {
    let w_total: f64 = wins.iter().map(|w| w.cwnd).sum();
    let best: f64 = wins
        .iter()
        .map(|w| w.cwnd / (w.rtt_secs() * w.rtt_secs()))
        .fold(0.0, f64::max);
    let denom: f64 = wins.iter().map(|w| w.cwnd / w.rtt_secs()).sum();
    if denom <= 0.0 {
        return 0.0;
    }
    w_total * best / (denom * denom)
}

impl WindowRule for LiaRule {
    const NAME: &'static str = "lia";

    fn new(_now: SimTime) -> Self {
        LiaRule
    }

    fn increase(wins: &[WinState], _rules: &[Self], info: &AckInfo) -> f64 {
        let w_total: f64 = wins.iter().map(|w| w.cwnd).sum();
        let w_i = wins[info.subflow].cwnd;
        if w_total <= 0.0 || w_i <= 0.0 {
            return 0.0;
        }
        let alpha = lia_alpha(wins);
        let n = info.acked_packets as f64;
        (alpha * n / w_total).min(n / w_i)
    }
}

/// A LIA multipath controller.
pub fn lia() -> WindowCc<LiaRule> {
    WindowCc::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{test_ack, test_loss};
    use mpcc_transport::MultipathCc;

    fn setup(cwnds: &[f64], rtts_ms: &[u64]) -> WindowCc<LiaRule> {
        let mut cc = lia();
        for (i, (&w, &r)) in cwnds.iter().zip(rtts_ms).enumerate() {
            cc.init_subflow(i, SimTime::ZERO);
            let win = cc.window_mut(i);
            win.cwnd = w;
            win.ssthresh = 1.0; // congestion avoidance
            win.srtt = mpcc_simcore::SimDuration::from_millis(r);
        }
        cc
    }

    #[test]
    fn single_subflow_reduces_to_reno() {
        // With one subflow, α = w·(w/rtt²)/(w/rtt)² = 1, and the increase
        // is min(1/w, 1/w) = Reno's 1/w.
        let mut cc = setup(&[10.0], &[50]);
        cc.on_ack(&test_ack(0, 1, 50));
        assert!((cc.window(0).cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn equal_subflows_split_reno_growth() {
        // Two identical subflows: α = 2w·(w/r²)/(2w/r)² = 1/2, so each
        // ACK grows the subflow by α/w_total = 1/(4w): the *aggregate*
        // grows like one Reno flow (2 subflows × w acks × 1/(4w) × ... ).
        let mut cc = setup(&[10.0, 10.0], &[50, 50]);
        cc.on_ack(&test_ack(0, 1, 50));
        let grown = cc.window(0).cwnd - 10.0;
        assert!((grown - 0.025).abs() < 1e-9, "grew {grown}");
        // Aggregate over one RTT (20 acks): 0.5 packets — half of Reno's
        // 1 packet/RTT, times two subflows = exactly Reno overall.
        // Window never more aggressive than Reno (1/w_i bound):
        assert!(grown <= 0.1);
    }

    #[test]
    fn loss_halves_only_that_subflow() {
        let mut cc = setup(&[20.0, 30.0], &[50, 50]);
        cc.on_loss(&test_loss(1));
        assert_eq!(cc.window(0).cwnd, 20.0);
        assert_eq!(cc.window(1).cwnd, 15.0);
    }

    #[test]
    fn shorter_rtt_path_dominates_alpha() {
        // α is driven by the best w/rtt² path.
        let fast = setup(&[10.0, 10.0], &[10, 100]);
        let slow = setup(&[10.0, 10.0], &[100, 100]);
        assert!(
            lia_alpha(&[fast.window(0).clone(), fast.window(1).clone()])
                > lia_alpha(&[slow.window(0).clone(), slow.window(1).clone()])
        );
    }

    #[test]
    fn increase_never_exceeds_reno() {
        // Property spot-check: min(α/w_total, 1/w_i) ≤ 1/w_i.
        for &(w0, w1, r0, r1) in &[(5.0, 50.0, 10, 200), (40.0, 2.0, 300, 20)] {
            let mut cc = setup(&[w0, w1], &[r0, r1]);
            let before = cc.window(0).cwnd;
            cc.on_ack(&test_ack(0, 1, r0));
            let inc = cc.window(0).cwnd - before;
            assert!(
                inc <= 1.0 / before + 1e-12,
                "inc {inc} vs reno {}",
                1.0 / before
            );
        }
    }
}
