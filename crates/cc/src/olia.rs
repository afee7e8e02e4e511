//! OLIA — the Opportunistic Linked-Increases Algorithm
//! (Khalili, Gast, Popovic, Le Boudec 2013).
//!
//! Per ACK on subflow `i` in congestion avoidance:
//!
//! ```text
//! w_i += acked · [ (w_i/rtt_i²) / (Σ_j w_j/rtt_j)²  +  α_i / w_i ]
//! ```
//!
//! where the α terms shift traffic toward the *best* paths (those with the
//! highest estimated inter-loss throughput `ℓ_i² / rtt_i`) away from the
//! paths that currently hold the largest windows:
//!
//! * `B` — best paths; `M` — paths with the maximal window;
//! * if `B \ M` is non-empty: `α_i = 1/(d·|B\M|)` for `i ∈ B\M`,
//!   `α_i = −1/(d·|M|)` for `i ∈ M`, else 0;
//! * otherwise all `α_i = 0` (all best paths already have the largest
//!   windows).
//!
//! `ℓ_i` is the smoothed number of bytes transferred between losses,
//! estimated as `max(bytes since last loss, bytes in the previous
//! inter-loss interval)` per the OLIA paper.

use crate::window::{WinState, WindowCc, WindowRule};
use mpcc_simcore::SimTime;
use mpcc_transport::AckInfo;

/// The OLIA increase rule; its per-subflow state is the inter-loss byte
/// tracking behind the ℓ estimate.
#[derive(Clone, Copy, Debug, Default)]
pub struct OliaRule {
    /// Delivered-bytes counter value at the last loss.
    delivered_at_last_loss: u64,
    /// Bytes delivered during the previous complete inter-loss interval.
    previous_interval: u64,
}

impl OliaRule {
    /// ℓ_i: smoothed bytes between losses.
    fn ell(&self, delivered_now: u64) -> f64 {
        let current = delivered_now.saturating_sub(self.delivered_at_last_loss);
        current.max(self.previous_interval).max(1) as f64
    }

    /// Computes the α vector for the current state (public for the
    /// fluid-consistency tests).
    pub fn alphas(wins: &[WinState], rules: &[OliaRule]) -> Vec<f64> {
        let d = wins.len();
        let ells: Vec<f64> = (0..d)
            .map(|i| rules[i].ell(wins[i].delivered_bytes))
            .collect();
        // Best paths: maximal ℓ²/rtt.
        let quality: Vec<f64> = (0..d)
            .map(|i| ells[i] * ells[i] / wins[i].rtt_secs())
            .collect();
        let best_q = quality.iter().cloned().fold(f64::MIN, f64::max);
        let in_b: Vec<bool> = quality
            .iter()
            .map(|&q| q >= best_q * (1.0 - 1e-9))
            .collect();
        // Max-window paths.
        let max_w = wins.iter().map(|w| w.cwnd).fold(f64::MIN, f64::max);
        let in_m: Vec<bool> = wins
            .iter()
            .map(|w| w.cwnd >= max_w * (1.0 - 1e-9))
            .collect();
        let b_minus_m: Vec<usize> = (0..d).filter(|&i| in_b[i] && !in_m[i]).collect();
        let m: Vec<usize> = (0..d).filter(|&i| in_m[i]).collect();
        let mut alphas = vec![0.0; d];
        if !b_minus_m.is_empty() {
            for &i in &b_minus_m {
                alphas[i] = 1.0 / (d as f64 * b_minus_m.len() as f64);
            }
            for &i in &m {
                alphas[i] = -1.0 / (d as f64 * m.len() as f64);
            }
        }
        alphas
    }
}

impl WindowRule for OliaRule {
    const NAME: &'static str = "olia";

    fn new(_now: SimTime) -> Self {
        OliaRule::default()
    }

    fn increase(wins: &[WinState], rules: &[Self], info: &AckInfo) -> f64 {
        let i = info.subflow;
        let w_i = wins[i].cwnd;
        if w_i <= 0.0 {
            return 0.0;
        }
        let denom: f64 = wins.iter().map(|w| w.cwnd / w.rtt_secs()).sum();
        if denom <= 0.0 {
            return 0.0;
        }
        let alphas = Self::alphas(wins, rules);
        let rtt_i = wins[i].rtt_secs();
        let coupled = (w_i / (rtt_i * rtt_i)) / (denom * denom);
        let n = info.acked_packets as f64;
        n * (coupled + alphas[i] / w_i)
    }

    fn note_loss(&mut self, win: &WinState) {
        self.previous_interval = win
            .delivered_bytes
            .saturating_sub(self.delivered_at_last_loss);
        self.delivered_at_last_loss = win.delivered_bytes;
    }
}

/// An OLIA multipath controller.
pub fn olia() -> WindowCc<OliaRule> {
    WindowCc::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{test_ack, test_loss};
    use mpcc_simcore::SimDuration;
    use mpcc_transport::MultipathCc;

    fn setup(cwnds: &[f64], rtts_ms: &[u64]) -> WindowCc<OliaRule> {
        let mut cc = olia();
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
    fn single_subflow_close_to_reno() {
        // One subflow: coupled term = (w/r²)/(w/r)² = 1/w; α = 0.
        let mut cc = setup(&[10.0], &[50]);
        cc.on_ack(&test_ack(0, 1, 50));
        assert!((cc.window(0).cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn alpha_shifts_toward_better_path() {
        // Subflow 0: small window but much better loss history (higher ℓ):
        // it is in B \ M and must receive a positive α; subflow 1 holds the
        // max window and receives a negative α.
        let mut cc = setup(&[5.0, 20.0], &[50, 50]);
        cc.window_mut(0).delivered_bytes = 10_000_000;
        cc.window_mut(1).delivered_bytes = 10_000;
        // Register a loss on subflow 1 so its ℓ is small.
        cc.on_loss(&test_loss(1));
        let w1_after_md = cc.window(1).cwnd; // 10.0
        let before0 = cc.window(0).cwnd;
        cc.on_ack(&test_ack(0, 1, 50));
        let inc0 = cc.window(0).cwnd - before0;
        cc.on_ack(&test_ack(1, 1, 50));
        let inc1 = cc.window(1).cwnd - w1_after_md;
        // Per-window-normalized growth favours subflow 0 strongly.
        assert!(
            inc0 / before0 > inc1 / w1_after_md,
            "inc0 {inc0} inc1 {inc1}"
        );
    }

    #[test]
    fn all_best_in_max_window_means_zero_alpha() {
        let mut cc = setup(&[10.0, 10.0], &[50, 50]);
        cc.window_mut(0).delivered_bytes = 1000;
        cc.window_mut(1).delivered_bytes = 1000;
        let wins: Vec<WinState> = (0..2).map(|i| cc.window(i).clone()).collect();
        let alphas = OliaRule::alphas(&wins, cc.rules());
        assert!(alphas.iter().all(|&a| a == 0.0), "{alphas:?}");
    }

    #[test]
    fn alpha_magnitudes_pinned_to_paper() {
        // Khalili et al. §III: for i ∈ B\M, α_i = 1/(d·|B\M|); for i ∈ M,
        // α_i = −1/(d·|M|); the α vector always sums to zero. Pin the
        // magnitudes on a 3-path state with |B\M| = 1, |M| = 2.
        let mut cc = setup(&[5.0, 20.0, 20.0], &[50, 50, 50]);
        cc.window_mut(0).delivered_bytes = 10_000_000; // best path, small w
        cc.window_mut(1).delivered_bytes = 10_000;
        cc.window_mut(2).delivered_bytes = 10_000;
        let wins: Vec<WinState> = (0..3).map(|i| cc.window(i).clone()).collect();
        let alphas = OliaRule::alphas(&wins, cc.rules());
        let d = 3.0;
        assert!((alphas[0] - 1.0 / (d * 1.0)).abs() < 1e-12, "{alphas:?}");
        assert!((alphas[1] + 1.0 / (d * 2.0)).abs() < 1e-12, "{alphas:?}");
        assert!((alphas[2] + 1.0 / (d * 2.0)).abs() < 1e-12, "{alphas:?}");
        assert!(alphas.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn loss_interval_tracks_between_losses() {
        let mut iv = OliaRule::default();
        assert_eq!(iv.ell(5000), 5000.0);
        // Loss at 5000 delivered.
        iv.previous_interval = 5000;
        iv.delivered_at_last_loss = 5000;
        // Shortly after the loss, the previous interval dominates.
        assert_eq!(iv.ell(5100), 5000.0);
        // Once the current run exceeds it, the current run wins.
        assert_eq!(iv.ell(15_000), 10_000.0);
    }
}
