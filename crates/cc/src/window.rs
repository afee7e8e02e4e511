//! The one scaffold of the TCP/MPTCP window-based family.
//!
//! Every window controller — Reno, Cubic, LIA, OLIA, Balia, wVegas — is a
//! [`WindowCc`] driven by a [`WindowRule`]: the class Peng et al. model as
//! one per-ACK increase `I_r(w)` plus one per-loss decrease `D_r(w)`.
//!
//! Windows are kept in floating-point *packets* (MSS units), as the coupled
//! MPTCP increase rules are defined on packet-counted windows; the transport
//! consumes them in bytes.

use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_transport::{AckInfo, LossInfo, MultipathCc};

/// Payload bytes per window unit (one MSS).
pub const MSS: f64 = 1448.0;
/// Minimum congestion window, packets.
pub const MIN_CWND: f64 = 2.0;
/// Initial congestion window, packets (RFC 6928).
pub const INIT_CWND: f64 = 10.0;

/// Per-subflow window state shared by every window-based controller.
#[derive(Clone, Debug)]
pub struct WinState {
    /// Congestion window, packets.
    pub cwnd: f64,
    /// Slow-start threshold, packets.
    pub ssthresh: f64,
    /// Latest smoothed RTT reported by the transport.
    pub srtt: SimDuration,
    /// Latest windowed-minimum RTT.
    pub min_rtt: SimDuration,
    /// Cumulative payload bytes acknowledged.
    pub delivered_bytes: u64,
    /// Cumulative loss events.
    pub loss_events: u64,
}

impl Default for WinState {
    fn default() -> Self {
        Self::new()
    }
}

impl WinState {
    /// Fresh state at the initial window.
    pub fn new() -> Self {
        WinState {
            cwnd: INIT_CWND,
            ssthresh: f64::MAX,
            srtt: SimDuration::from_millis(100),
            min_rtt: SimDuration::from_millis(100),
            delivered_bytes: 0,
            loss_events: 0,
        }
    }

    /// `true` while below the slow-start threshold.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Records RTT observations from an ACK.
    pub fn observe(&mut self, srtt: SimDuration, min_rtt: SimDuration, acked_bytes: u64) {
        self.srtt = srtt;
        self.min_rtt = min_rtt;
        self.delivered_bytes += acked_bytes;
    }

    /// Standard slow-start growth: one packet per acked packet.
    pub fn slow_start(&mut self, acked_packets: u64) {
        self.cwnd += acked_packets as f64;
    }

    /// Multiplicative decrease to `factor × cwnd` (Reno uses 0.5).
    pub fn md(&mut self, factor: f64) {
        self.loss_events += 1;
        self.ssthresh = (self.cwnd * factor).max(MIN_CWND);
        self.cwnd = self.ssthresh;
    }

    /// Timeout collapse: window to one packet, half threshold.
    pub fn rto_collapse(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = 1.0;
    }

    /// The window in bytes for the transport.
    pub fn cwnd_bytes(&self) -> u64 {
        (self.cwnd.max(1.0) * MSS) as u64
    }

    /// Window in packets per second (the `x_i = w_i / rtt_i` of the Balia
    /// and LIA formulas), guarding against a zero RTT.
    pub fn pkts_per_sec(&self) -> f64 {
        let rtt = self.srtt.as_secs_f64();
        if rtt <= 0.0 {
            0.0
        } else {
            self.cwnd / rtt
        }
    }

    /// RTT in seconds, floored away from zero.
    pub fn rtt_secs(&self) -> f64 {
        self.srtt.as_secs_f64().max(1e-6)
    }
}

/// The window rule of one controller. Implementors are the rule's
/// per-subflow state (unit structs for the stateless rules); [`WindowCc`]
/// keeps one beside each subflow's [`WinState`].
///
/// The defaults are Reno's (LIA, OLIA and Balia each reduce to Reno on one
/// path): slow start, then the [`WindowRule::increase`] step clamped at
/// [`MIN_CWND`]. On a loss event the scaffold runs
/// [`WindowRule::note_loss`] then [`WindowRule::decrease`]; on a timeout
/// [`WindowRule::note_loss`] then [`WinState::rto_collapse`].
pub trait WindowRule: Sized + Send + 'static {
    /// Protocol name.
    const NAME: &'static str;

    /// This rule's state for a subflow initialised at `now`.
    fn new(now: SimTime) -> Self;

    /// The congestion-avoidance increment (packets) for one ACK of
    /// `info.acked_packets` packets on `info.subflow` (default: Reno's
    /// `acked / w_i`).
    fn increase(wins: &[WinState], _rules: &[Self], info: &AckInfo) -> f64 {
        info.acked_packets as f64 / wins[info.subflow].cwnd
    }

    /// The window update for one ACK (default: observe, slow start, then
    /// the [`WindowRule::increase`] step floored at [`MIN_CWND`]).
    fn on_ack(wins: &mut [WinState], rules: &mut [Self], info: &AckInfo) {
        let win = &mut wins[info.subflow];
        win.observe(info.srtt, info.min_rtt, info.acked_bytes);
        if win.in_slow_start() {
            win.slow_start(info.acked_packets);
            return;
        }
        let inc = Self::increase(wins, rules, info);
        let win = &mut wins[info.subflow];
        win.cwnd = (win.cwnd + inc).max(MIN_CWND);
    }

    /// Records a loss event or timeout on this subflow before the window
    /// shrinks (loss-history rules: OLIA, Cubic).
    fn note_loss(&mut self, _win: &WinState) {}

    /// The decrease on a loss event on subflow `i` (default: halve).
    fn decrease(wins: &mut [WinState], i: usize) {
        wins[i].md(0.5);
    }
}

/// A window-based multipath controller driven by the rule `R`.
pub struct WindowCc<R> {
    wins: Vec<WinState>,
    rules: Vec<R>,
}

impl<R: WindowRule> WindowCc<R> {
    /// A controller with no subflows yet.
    pub fn new() -> Self {
        WindowCc {
            wins: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// The window state of subflow `i`.
    pub fn window(&self, i: usize) -> &WinState {
        &self.wins[i]
    }

    /// Mutable window state of subflow `i` (tests).
    pub fn window_mut(&mut self, i: usize) -> &mut WinState {
        &mut self.wins[i]
    }

    /// Every subflow's window state.
    pub fn windows(&self) -> &[WinState] {
        &self.wins
    }

    /// Every subflow's rule state.
    pub fn rules(&self) -> &[R] {
        &self.rules
    }
}

impl<R: WindowRule> Default for WindowCc<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: WindowRule> MultipathCc for WindowCc<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn init_subflow(&mut self, subflow: usize, now: SimTime) {
        while self.wins.len() <= subflow {
            self.wins.push(WinState::new());
            self.rules.push(R::new(now));
        }
    }

    fn on_ack(&mut self, info: &AckInfo) {
        R::on_ack(&mut self.wins, &mut self.rules, info);
    }

    fn on_loss(&mut self, info: &LossInfo) {
        self.rules[info.subflow].note_loss(&self.wins[info.subflow]);
        R::decrease(&mut self.wins, info.subflow);
    }

    fn on_rto(&mut self, subflow: usize, _now: SimTime) {
        self.rules[subflow].note_loss(&self.wins[subflow]);
        self.wins[subflow].rto_collapse();
    }

    fn cwnd_bytes(&self, subflow: usize, _srtt: SimDuration) -> u64 {
        self.wins[subflow].cwnd_bytes()
    }

    fn pacing_rate(&self, _subflow: usize) -> Option<Rate> {
        None
    }

    fn reset_for_reuse(&mut self) -> bool {
        // Empty both vecs, keeping their capacity; `init_subflow`
        // repopulates them.
        self.wins.clear();
        self.rules.clear();
        true
    }
}

/// Builds a test ACK (shared by the rule unit tests).
#[cfg(test)]
pub fn test_ack(subflow: usize, packets: u64, srtt_ms: u64) -> AckInfo {
    AckInfo {
        subflow,
        now: SimTime::ZERO,
        acked_packets: packets,
        acked_bytes: packets * 1448,
        rtt: SimDuration::from_millis(srtt_ms),
        srtt: SimDuration::from_millis(srtt_ms),
        min_rtt: SimDuration::from_millis(srtt_ms),
        bw_sample: Rate::from_mbps(10.0),
        inflight_bytes: 0,
    }
}

/// Builds a test loss event.
#[cfg(test)]
pub fn test_loss(subflow: usize) -> LossInfo {
    LossInfo {
        subflow,
        now: SimTime::ZERO,
        lost_packets: 1,
        inflight_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut w = WinState::new();
        assert!(w.in_slow_start());
        // One window of ACKs doubles the window.
        w.slow_start(INIT_CWND as u64);
        assert_eq!(w.cwnd, 2.0 * INIT_CWND);
    }

    #[test]
    fn md_halves_and_sets_ssthresh() {
        let mut w = WinState::new();
        w.cwnd = 100.0;
        w.md(0.5);
        assert_eq!(w.cwnd, 50.0);
        assert_eq!(w.ssthresh, 50.0);
        assert!(!w.in_slow_start());
        assert_eq!(w.loss_events, 1);
    }

    #[test]
    fn md_floors_at_min_cwnd() {
        let mut w = WinState::new();
        w.cwnd = 2.5;
        w.md(0.5);
        assert_eq!(w.cwnd, MIN_CWND);
    }

    #[test]
    fn rto_collapse_to_one() {
        let mut w = WinState::new();
        w.cwnd = 64.0;
        w.rto_collapse();
        assert_eq!(w.cwnd, 1.0);
        assert_eq!(w.ssthresh, 32.0);
        assert_eq!(w.cwnd_bytes(), MSS as u64);
    }

    #[test]
    fn pkts_per_sec() {
        let mut w = WinState::new();
        w.cwnd = 50.0;
        w.srtt = SimDuration::from_millis(100);
        assert!((w.pkts_per_sec() - 500.0).abs() < 1e-9);
    }
}
