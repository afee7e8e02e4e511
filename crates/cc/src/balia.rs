//! Balia — Balanced Linked Adaptation (Peng, Walid, Hwang, Low), the
//! third coupled MPTCP variant the paper evaluates.
//!
//! With `x_k = w_k / rtt_k` and `α_i = max_k(x_k) / x_i`, each ACK on
//! subflow `i` in congestion avoidance grows the window by
//!
//! ```text
//! w_i += acked · x_i / ( rtt_i · (Σ_k x_k)² ) · (1+α_i)/2 · (4+α_i)/5
//! ```
//!
//! and each loss event shrinks it by `w_i/2 · min(α_i, 1.5)`.

use crate::window::{WinState, WindowCc, WindowRule, MIN_CWND};
use mpcc_simcore::SimTime;
use mpcc_transport::AckInfo;

/// The Balia increase/decrease rule (stateless).
pub struct BaliaRule;

/// Cap on Balia's multiplicative-decrease factor: a loss shrinks the
/// window by `w/2 · min(α_i, BALIA_MD_CAP)` (Peng et al. §V fix the cap
/// at 3/2, bounding the worst-case decrease at 3/4 of the window).
pub const BALIA_MD_CAP: f64 = 1.5;

/// Balia's per-subflow rate-imbalance factor `α_i = max_k(x_k)/x_i`,
/// floored at 1 (public so the theory-side fluid counterpart in
/// `mpcc::theory::ode` can be pinned against this exact definition).
pub fn balia_alpha(wins: &[WinState], i: usize) -> f64 {
    let x_i = wins[i].pkts_per_sec();
    if x_i <= 0.0 {
        return 1.0;
    }
    let x_max = wins
        .iter()
        .map(|w| w.pkts_per_sec())
        .fold(0.0_f64, f64::max);
    (x_max / x_i).max(1.0)
}

impl WindowRule for BaliaRule {
    const NAME: &'static str = "balia";

    fn new(_now: SimTime) -> Self {
        BaliaRule
    }

    fn increase(wins: &[WinState], _rules: &[Self], info: &AckInfo) -> f64 {
        let i = info.subflow;
        let x_i = wins[i].pkts_per_sec();
        let x_total: f64 = wins.iter().map(|w| w.pkts_per_sec()).sum();
        if x_i <= 0.0 || x_total <= 0.0 {
            return 0.0;
        }
        let a = balia_alpha(wins, i);
        let rtt_i = wins[i].rtt_secs();
        let n = info.acked_packets as f64;
        n * (x_i / (rtt_i * x_total * x_total)) * ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0)
    }

    fn decrease(wins: &mut [WinState], i: usize) {
        let a = balia_alpha(wins, i);
        let win = &mut wins[i];
        win.loss_events += 1;
        let dec = (win.cwnd / 2.0) * a.min(BALIA_MD_CAP);
        win.cwnd = (win.cwnd - dec).max(MIN_CWND);
        win.ssthresh = win.cwnd;
    }
}

/// A Balia multipath controller.
pub fn balia() -> WindowCc<BaliaRule> {
    WindowCc::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{test_ack, test_loss};
    use mpcc_simcore::SimDuration;
    use mpcc_transport::MultipathCc;

    fn setup(cwnds: &[f64], rtts_ms: &[u64]) -> WindowCc<BaliaRule> {
        let mut cc = balia();
        for (i, (&w, &r)) in cwnds.iter().zip(rtts_ms).enumerate() {
            cc.init_subflow(i, SimTime::ZERO);
            let win = cc.window_mut(i);
            win.cwnd = w;
            win.ssthresh = 1.0;
            win.srtt = SimDuration::from_millis(r);
        }
        cc
    }

    #[test]
    fn single_subflow_reduces_to_reno() {
        // d = 1: α = 1, increase = x/(rtt·x²) = 1/(rtt·x) = 1/w; decrease
        // = w/2 · min(1, 1.5) = w/2. Exactly Reno.
        let mut cc = setup(&[10.0], &[50]);
        cc.on_ack(&test_ack(0, 1, 50));
        assert!((cc.window(0).cwnd - 10.1).abs() < 1e-9);
        cc.on_loss(&test_loss(0));
        assert!((cc.window(0).cwnd - 5.05).abs() < 1e-9);
    }

    #[test]
    fn weaker_subflow_gets_larger_relative_boost() {
        // α > 1 on the weaker path boosts both its increase factor and its
        // decrease factor (balancing).
        let wins = {
            let mut cc = setup(&[5.0, 20.0], &[50, 50]);
            (0..2).map(|i| cc.window_mut(i).clone()).collect::<Vec<_>>()
        };
        assert!((balia_alpha(&wins, 0) - 4.0).abs() < 1e-9);
        assert!((balia_alpha(&wins, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loss_decrease_is_capped_at_three_quarters() {
        // α huge on the weak path → decrease factor min(α, 1.5)/2 = 0.75.
        let mut cc = setup(&[4.0, 400.0], &[50, 50]);
        cc.on_loss(&test_loss(0));
        assert!((cc.window(0).cwnd - 4.0 * 0.25).abs() < 1e-9 || cc.window(0).cwnd == MIN_CWND);
    }

    #[test]
    fn constants_pinned_to_paper() {
        // Peng et al. fix the decrease cap at 3/2 and the increase
        // polynomial at (1+α)/2 · (4+α)/5; pin both so a refactor can't
        // silently drift the controller away from the published dynamics.
        assert_eq!(BALIA_MD_CAP, 1.5);
        // α = 2 (x_max/x_i = 2): increase = x_i/(rtt·x_tot²)·(3/2)·(6/5).
        let mut cc = setup(&[10.0, 20.0], &[50, 50]);
        let wins: Vec<WinState> = (0..2).map(|i| cc.window(i).clone()).collect();
        assert!((balia_alpha(&wins, 0) - 2.0).abs() < 1e-9);
        let x0 = wins[0].pkts_per_sec();
        let x_tot: f64 = wins.iter().map(|w| w.pkts_per_sec()).sum();
        let expect = x0 / (wins[0].rtt_secs() * x_tot * x_tot) * (3.0 / 2.0) * (6.0 / 5.0);
        let before = cc.window(0).cwnd;
        cc.on_ack(&test_ack(0, 1, 50));
        assert!((cc.window(0).cwnd - before - expect).abs() < 1e-12);
    }

    #[test]
    fn aggregate_less_aggressive_than_two_renos() {
        // Two equal subflows sharing a bottleneck: each ACK increase must
        // be below Reno's 1/w.
        let mut cc = setup(&[10.0, 10.0], &[50, 50]);
        let before = cc.window(0).cwnd;
        cc.on_ack(&test_ack(0, 1, 50));
        let inc = cc.window(0).cwnd - before;
        assert!(inc < 1.0 / before, "inc {inc}");
    }
}
