//! Pins the fluid model's controller formulas (`mpcc::theory::ode`)
//! against the packet-level implementations in `mpcc-cc`.
//!
//! The core crate cannot depend on `mpcc-cc`, so the ODE integrator
//! re-states each controller's increase/decrease rule. These tests are the
//! contract that keeps the two copies identical: per-ACK window deltas and
//! per-loss decrements from the real controllers must equal the fluid
//! `I_r(w)` / `D_r(w)` terms evaluated at the same window/RTT state, and
//! the α parameters (LIA's RFC 6356 α, OLIA's ±1/(d·|set|) vector, Balia's
//! rate-imbalance factor) must agree term for term.

use mpcc::theory::ode::{self, CoupledKind};
use mpcc_cc::{balia, lia, olia, reno, OliaRule, WinState};
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_transport::{AckInfo, LossInfo, MultipathCc};

/// One ACK for one packet with an RTT sample matching the configured srtt
/// (so `on_ack`'s observe step does not move the state under us).
fn ack(subflow: usize, srtt_ms: u64) -> AckInfo {
    AckInfo {
        subflow,
        now: SimTime::ZERO,
        acked_packets: 1,
        acked_bytes: 1448,
        rtt: SimDuration::from_millis(srtt_ms),
        srtt: SimDuration::from_millis(srtt_ms),
        min_rtt: SimDuration::from_millis(srtt_ms),
        bw_sample: Rate::from_mbps(10.0),
        inflight_bytes: 0,
    }
}

fn loss(subflow: usize) -> LossInfo {
    LossInfo {
        subflow,
        now: SimTime::ZERO,
        lost_packets: 1,
        inflight_bytes: 0,
    }
}

/// Draws a random multipath window/RTT state: 2–4 subflows, windows in
/// [3, 80] packets, RTTs in [10, 120] ms.
fn random_state(rng: &mut SimRng) -> (Vec<f64>, Vec<u64>) {
    let n = rng.range_u64(2, 5) as usize;
    let w: Vec<f64> = (0..n).map(|_| rng.range_f64(3.0, 80.0)).collect();
    let rtt: Vec<u64> = (0..n).map(|_| rng.range_u64(10, 121)).collect();
    (w, rtt)
}

fn taus(rtts_ms: &[u64]) -> Vec<f64> {
    rtts_ms.iter().map(|&r| r as f64 / 1000.0).collect()
}

/// LIA: the packet-level per-ACK delta equals the fluid `I(w)` and both
/// crates' α functions agree, on random states.
#[test]
fn lia_ack_increase_matches_fluid() {
    let mut rng = SimRng::seed_from_u64(0xC0F1);
    for case in 0..32 {
        let (w, rtt) = random_state(&mut rng);
        let tau = taus(&rtt);
        let mut cc = lia();
        for i in 0..w.len() {
            cc.init_subflow(i, SimTime::ZERO);
            let win = cc.window_mut(i);
            win.cwnd = w[i];
            win.ssthresh = 1.0;
            win.srtt = SimDuration::from_millis(rtt[i]);
        }
        let wins: Vec<WinState> = (0..w.len()).map(|i| cc.window(i).clone()).collect();
        assert!(
            (mpcc_cc::lia_alpha(&wins) - ode::lia_alpha(&w, &tau)).abs() < 1e-12,
            "case {case}: alpha mismatch"
        );
        for (i, &rtt_i) in rtt.iter().enumerate() {
            let before = cc.window(i).cwnd;
            cc.on_ack(&ack(i, rtt_i));
            let got = cc.window(i).cwnd - before;
            // The fluid increase is evaluated at the pre-ACK state, so undo
            // the window move before the next subflow's comparison.
            cc.window_mut(i).cwnd = before;
            let want = ode::ack_increase(CoupledKind::Lia, &w, &tau, &vec![0.0; w.len()], i);
            assert!(
                (got - want).abs() < 1e-12,
                "case {case} subflow {i}: cc {got} vs fluid {want}"
            );
        }
    }
}

/// Balia: per-ACK increase, per-loss decrease, and the α factor all match
/// the fluid side on random states.
#[test]
fn balia_ack_and_loss_match_fluid() {
    let mut rng = SimRng::seed_from_u64(0xC0F2);
    for case in 0..32 {
        let (w, rtt) = random_state(&mut rng);
        let tau = taus(&rtt);
        let mut cc = balia();
        for i in 0..w.len() {
            cc.init_subflow(i, SimTime::ZERO);
            let win = cc.window_mut(i);
            win.cwnd = w[i];
            win.ssthresh = 1.0;
            win.srtt = SimDuration::from_millis(rtt[i]);
        }
        let wins: Vec<WinState> = (0..w.len()).map(|i| cc.window(i).clone()).collect();
        for (i, &rtt_i) in rtt.iter().enumerate() {
            assert!(
                (mpcc_cc::balia_alpha(&wins, i) - ode::balia_alpha(&w, &tau, i)).abs() < 1e-12,
                "case {case} subflow {i}: alpha mismatch"
            );
            let before = cc.window(i).cwnd;
            cc.on_ack(&ack(i, rtt_i));
            let inc = cc.window(i).cwnd - before;
            cc.window_mut(i).cwnd = before;
            let want_inc = ode::ack_increase(CoupledKind::Balia, &w, &tau, &vec![0.0; w.len()], i);
            assert!(
                (inc - want_inc).abs() < 1e-12,
                "case {case} subflow {i}: increase cc {inc} vs fluid {want_inc}"
            );
            cc.on_loss(&loss(i));
            let dec = before - cc.window(i).cwnd;
            cc.window_mut(i).cwnd = before;
            let want_dec = ode::loss_decrease(CoupledKind::Balia, &w, &tau, i);
            // The packet-level decrease floors at MIN_CWND; windows ≥ 3
            // with a ≤ 3/4 cut can still clip, so compare the unclipped
            // ones exactly and require the clipped ones to be smaller.
            if (before - want_dec) >= 2.0 {
                assert!(
                    (dec - want_dec).abs() < 1e-12,
                    "case {case} subflow {i}: decrease cc {dec} vs fluid {want_dec}"
                );
            } else {
                assert!(dec <= want_dec + 1e-12, "case {case} subflow {i}");
            }
        }
    }
}

/// OLIA: the coupled (α = 0) increase term matches the fluid side exactly,
/// and the ±1/(d·|set|) α magnitudes agree when both sides see the same
/// best-path / max-window structure. The ℓ estimators differ by design
/// (bytes-between-losses vs the fluid expectation 1/q), so the comparison
/// fixes the set structure rather than deriving it from a shared signal.
#[test]
fn olia_alpha_structure_matches_fluid() {
    // Symmetric state: every path best and max-window → α ≡ 0 on both
    // sides, increase = pure coupled term.
    let (w, rtt) = (vec![12.0, 12.0], vec![40u64, 40u64]);
    let tau = taus(&rtt);
    let mut cc = olia();
    for i in 0..2 {
        cc.init_subflow(i, SimTime::ZERO);
        let win = cc.window_mut(i);
        win.cwnd = w[i];
        win.ssthresh = 1.0;
        win.srtt = SimDuration::from_millis(rtt[i]);
        win.delivered_bytes = 50_000;
    }
    let before = cc.window(0).cwnd;
    cc.on_ack(&ack(0, rtt[0]));
    let got = cc.window(0).cwnd - before;
    let q = vec![0.01, 0.01];
    let want = ode::ack_increase(CoupledKind::Olia, &w, &tau, &q, 0);
    assert!(
        (got - want).abs() < 1e-12,
        "symmetric coupled term: cc {got} vs fluid {want}"
    );

    // Asymmetric state: path 0 is best (clean loss history / low q) but
    // path 1 holds the max window → B\M = {0}, M = {1} on both sides.
    let (w, rtt) = (vec![6.0, 24.0], vec![40u64, 40u64]);
    let tau = taus(&rtt);
    let mut cc = olia();
    for i in 0..2 {
        cc.init_subflow(i, SimTime::ZERO);
        let win = cc.window_mut(i);
        win.cwnd = w[i];
        win.ssthresh = 1.0;
        win.srtt = SimDuration::from_millis(rtt[i]);
    }
    cc.window_mut(0).delivered_bytes = 10_000_000;
    cc.window_mut(1).delivered_bytes = 10_000;
    // A loss on path 1 pins its inter-loss estimate low.
    cc.on_loss(&loss(1));
    let wins: Vec<WinState> = (0..2).map(|i| cc.window(i).clone()).collect();
    let cc_alphas = OliaRule::alphas(&wins, cc.rules());
    let mut fluid_alphas = Vec::new();
    ode::olia_alphas(&w, &tau, &[1e-4, 0.2], &mut fluid_alphas);
    assert_eq!(cc_alphas.len(), fluid_alphas.len());
    for (i, (a, b)) in cc_alphas.iter().zip(&fluid_alphas).enumerate() {
        assert!(
            (a - b).abs() < 1e-12,
            "alpha[{i}]: cc {a} vs fluid {b} ({cc_alphas:?} vs {fluid_alphas:?})"
        );
    }
    // And the magnitudes are the paper's ±1/(d·|set|).
    assert!((fluid_alphas[0] - 0.5).abs() < 1e-12);
    assert!((fluid_alphas[1] + 0.5).abs() < 1e-12);
}

/// Reno: the packet-level per-ACK delta and per-loss decrement equal the
/// fluid `I(w) = 1/w_i` and `D(w) = w_i/2` on random states.
#[test]
fn reno_ack_and_loss_match_fluid() {
    let mut rng = SimRng::seed_from_u64(0xC0F3);
    for case in 0..32 {
        let (w, rtt) = random_state(&mut rng);
        let tau = taus(&rtt);
        let mut cc = reno();
        for i in 0..w.len() {
            cc.init_subflow(i, SimTime::ZERO);
            let win = cc.window_mut(i);
            win.cwnd = w[i];
            win.ssthresh = 1.0;
            win.srtt = SimDuration::from_millis(rtt[i]);
        }
        for (i, &rtt_i) in rtt.iter().enumerate() {
            let before = cc.window(i).cwnd;
            cc.on_ack(&ack(i, rtt_i));
            let inc = cc.window(i).cwnd - before;
            cc.window_mut(i).cwnd = before;
            let want_inc = ode::ack_increase(CoupledKind::Reno, &w, &tau, &vec![0.0; w.len()], i);
            assert!(
                (inc - want_inc).abs() < 1e-12,
                "case {case} subflow {i}: increase cc {inc} vs fluid {want_inc}"
            );
            cc.on_loss(&loss(i));
            let dec = before - cc.window(i).cwnd;
            cc.window_mut(i).cwnd = before;
            let want_dec = ode::loss_decrease(CoupledKind::Reno, &w, &tau, i);
            // Windows drawn from [3, 80] halve to at least 1.5; compare the
            // ones the MIN_CWND floor leaves alone exactly.
            if (before - want_dec) >= 2.0 {
                assert!(
                    (dec - want_dec).abs() < 1e-12,
                    "case {case} subflow {i}: decrease cc {dec} vs fluid {want_dec}"
                );
            } else {
                assert!(dec <= want_dec + 1e-12, "case {case} subflow {i}");
            }
        }
    }
}

/// Reno in the fluid model is the uncoupled 1/w — sanity-pin it so the
/// baseline can't drift either.
#[test]
fn reno_fluid_terms() {
    let w = [10.0, 30.0];
    let tau = [0.05, 0.05];
    assert!((ode::ack_increase(CoupledKind::Reno, &w, &tau, &[0.0, 0.0], 0) - 0.1).abs() < 1e-15);
    assert!((ode::loss_decrease(CoupledKind::Reno, &w, &tau, 1) - 15.0).abs() < 1e-15);
}
