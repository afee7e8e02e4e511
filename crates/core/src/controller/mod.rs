//! The MPCC congestion controller: per-subflow online learning coupled
//! through rate-publication points (§5 of the paper).

pub mod state;

use crate::utility::UtilityParams;
use mpcc_netsim::MSS_PAYLOAD;
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_telemetry::{ControllerEvent, Layer, Tracer};
use mpcc_transport::{MiReport, MultipathCc};
use state::{MiOutcome, StateConfig, SubflowCtl, INITIAL_RATE};

/// Inflight cap multiplier: cwnd = `CWND_GAIN × rate × srtt`. Rate-based
/// senders keep the window deliberately high (§6); this only bounds damage
/// during blackouts.
pub(crate) const CWND_GAIN: f64 = 2.0;

/// Configuration of an MPCC connection.
#[derive(Clone, Copy, Debug)]
pub struct MpccConfig {
    /// The per-subflow state-machine settings (utility coefficients and
    /// the probe-amplitude ablation switch).
    pub state: StateConfig,
    /// Seed for the controller's private randomness (probe ordering, MI
    /// jitter).
    pub seed: u64,
}

impl Default for MpccConfig {
    fn default() -> Self {
        MpccConfig {
            state: StateConfig::default(),
            seed: 7,
        }
    }
}

impl MpccConfig {
    /// MPCC-loss (γ = 0), the paper's default.
    pub fn loss() -> Self {
        MpccConfig::default()
    }

    /// MPCC-latency (γ = 1).
    pub fn latency() -> Self {
        MpccConfig {
            state: StateConfig {
                utility: UtilityParams::mpcc_latency(),
                ..StateConfig::default()
            },
            ..MpccConfig::default()
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The MPCC multipath congestion controller.
///
/// With a single subflow this is exactly PCC Vivace (the paper's Remark in
/// §4.1): use [`Mpcc::vivace`].
pub struct Mpcc {
    cfg: MpccConfig,
    name: &'static str,
    subflows: Vec<SubflowCtl>,
    /// Rate-publication board: `published[j]` is subflow j's most recently
    /// published rate (Mbps), written at each of its MI starts.
    published: Vec<f64>,
    rng: SimRng,
    /// Trace handle (off by default; installed via `set_tracer`). Tracing
    /// is observation-free: it never touches `rng` or the control state.
    tracer: Tracer,
    /// Connection id stamped onto emitted controller events.
    conn: u64,
}

impl Mpcc {
    /// Creates an MPCC controller.
    pub fn new(cfg: MpccConfig) -> Self {
        let name = if cfg.state.utility.gamma > 0.0 {
            "mpcc-latency"
        } else {
            "mpcc-loss"
        };
        Mpcc {
            name,
            subflows: Vec::new(),
            published: Vec::new(),
            rng: SimRng::seed_from_u64(cfg.seed),
            tracer: Tracer::off(),
            conn: 0,
            cfg,
        }
    }

    /// Single-path MPCC = PCC Vivace (run it on a 1-path connection).
    pub fn vivace(seed: u64) -> Self {
        let mut mpcc = Mpcc::new(MpccConfig::loss().with_seed(seed));
        mpcc.name = "vivace";
        mpcc
    }

    /// Latency-sensitive single-path Vivace.
    pub fn vivace_latency(seed: u64) -> Self {
        let mut mpcc = Mpcc::new(MpccConfig::latency().with_seed(seed));
        mpcc.name = "vivace-latency";
        mpcc
    }

    /// The published rate of subflow `j` (Mbps).
    pub fn published_rate(&self, j: usize) -> f64 {
        self.published.get(j).copied().unwrap_or(0.0)
    }

    /// Sum of all published rates (Mbps).
    pub fn total_published(&self) -> f64 {
        self.published.iter().sum()
    }

    /// Control-state invariants (see crates/check and DESIGN.md §12),
    /// probed after every decision point: the commanded rate must respect
    /// the rate bounds and the issued-MI bookkeeping queue must stay
    /// shallow (it grows only while MIs are in flight).
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn check_controller(&self, subflow: usize, now: SimTime) {
        use mpcc_telemetry::CheckEvent;
        const MAX_ISSUED_DEPTH: usize = 512;
        let ctl = &self.subflows[subflow];
        let rate = ctl.rate();
        let (lo, hi) = (state::MIN_RATE, state::MAX_RATE);
        mpcc_check::check(
            &self.tracer,
            now,
            (lo - 1e-9..=hi + 1e-9).contains(&rate),
            || CheckEvent::Violation {
                invariant: "controller_rate_bounds",
                conn: self.conn,
                subflow: subflow as i64,
                observed: rate,
                expected: if rate < lo { lo } else { hi },
            },
        );
        mpcc_check::check(
            &self.tracer,
            now,
            ctl.issued_len() <= MAX_ISSUED_DEPTH,
            || CheckEvent::Violation {
                invariant: "controller_issued_depth",
                conn: self.conn,
                subflow: subflow as i64,
                observed: ctl.issued_len() as f64,
                expected: MAX_ISSUED_DEPTH as f64,
            },
        );
    }

    #[cfg(not(any(debug_assertions, feature = "invariants")))]
    #[inline(always)]
    fn check_controller(&self, _subflow: usize, _now: SimTime) {}
}

impl MultipathCc for Mpcc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn init_subflow(&mut self, subflow: usize, _now: SimTime) {
        while self.subflows.len() <= subflow {
            self.subflows.push(SubflowCtl::new(self.cfg.state));
            self.published.push(INITIAL_RATE);
        }
    }

    fn set_tracer(&mut self, tracer: Tracer, conn: u64) {
        self.tracer = tracer;
        self.conn = conn;
    }

    fn uses_mi(&self) -> bool {
        true
    }

    fn mi_duration(&mut self, _subflow: usize, srtt: SimDuration, rng: &mut SimRng) -> SimDuration {
        // One RTT with jitter, floored at 1 ms: low enough that data-center
        // RTTs still get frequent decisions, high enough for meaningful
        // per-MI statistics.
        let base = srtt.max(SimDuration::from_millis(1));
        base.mul_f64(rng.range_f64(1.0, 1.1))
    }

    fn begin_mi(&mut self, subflow: usize, now: SimTime) -> Rate {
        let others: f64 = self
            .published
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != subflow)
            .map(|(_, r)| r)
            .sum();
        let issued = self.subflows[subflow].next_mi(others);
        // Rate-publication point: the chosen rate becomes visible to the
        // other subflows' future utility computations.
        self.published[subflow] = issued.rate;
        self.tracer
            .emit_with(Layer::Controller, now, || ControllerEvent::MiStart {
                conn: self.conn,
                subflow: subflow as u32,
                rate_mbps: issued.rate,
            });
        self.tracer
            .emit_with(Layer::Controller, now, || ControllerEvent::RatePublished {
                conn: self.conn,
                subflow: subflow as u32,
                rate_mbps: issued.rate,
            });
        self.check_controller(subflow, now);
        Rate::from_mbps(issued.rate)
    }

    fn on_mi_complete(&mut self, report: &MiReport) {
        let achieved = if report.duration.is_zero() {
            0.0
        } else {
            report.sent_packets as f64 * MSS_PAYLOAD as f64 * 8.0
                / report.duration.as_secs_f64()
                / 1e6
        };
        let outcome = MiOutcome {
            achieved,
            loss: report.loss_rate,
            lat_gradient: report.latency_gradient,
            app_limited: report.app_limited || report.sent_packets == 0,
        };
        let total = self.total_published();
        let before = self.subflows[report.subflow].rate();
        let action = self.subflows[report.subflow].on_report(outcome, total, &mut self.rng);
        let after = self.subflows[report.subflow].rate();
        let ctl = &self.subflows[report.subflow];
        self.tracer
            .emit_with(Layer::Controller, report.completed_at, || {
                ControllerEvent::MiEnd {
                    conn: self.conn,
                    subflow: report.subflow as u32,
                    goodput_mbps: report.goodput.mbps(),
                    loss_rate: report.loss_rate,
                    utility: ctl.last_utility(),
                    action: action.label(),
                }
            });
        if after != before {
            self.tracer
                .emit_with(Layer::Controller, report.completed_at, || {
                    ControllerEvent::RateStep {
                        conn: self.conn,
                        subflow: report.subflow as u32,
                        from_mbps: before,
                        to_mbps: after,
                        gradient_sign: if after > before { 1 } else { -1 },
                    }
                });
        }
        self.check_controller(report.subflow, report.completed_at);
    }

    fn on_rto(&mut self, subflow: usize, now: SimTime) {
        let total = self.total_published();
        let before = self.subflows[subflow].rate();
        self.subflows[subflow].on_rto(total, &mut self.rng);
        let after = self.subflows[subflow].rate();
        self.published[subflow] = after;
        if after != before {
            self.tracer
                .emit_with(Layer::Controller, now, || ControllerEvent::RateStep {
                    conn: self.conn,
                    subflow: subflow as u32,
                    from_mbps: before,
                    to_mbps: after,
                    gradient_sign: if after > before { 1 } else { -1 },
                });
        }
        self.tracer
            .emit_with(Layer::Controller, now, || ControllerEvent::RatePublished {
                conn: self.conn,
                subflow: subflow as u32,
                rate_mbps: after,
            });
        self.check_controller(subflow, now);
    }

    fn cwnd_bytes(&self, subflow: usize, srtt: SimDuration) -> u64 {
        let rate = Rate::from_mbps(self.subflows[subflow].rate());
        let bdp = rate.bytes_in(srtt.max(SimDuration::from_millis(2)));
        ((bdp * CWND_GAIN) as u64).max(10 * MSS_PAYLOAD)
    }

    fn pacing_rate(&self, subflow: usize) -> Option<Rate> {
        Some(Rate::from_mbps(self.subflows[subflow].rate()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::SimTime;

    #[test]
    fn publication_board_updates_at_mi_start() {
        let mut cc = Mpcc::new(MpccConfig::loss());
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        let r0 = cc.begin_mi(0, SimTime::ZERO);
        assert!((cc.published_rate(0) - r0.mbps()).abs() < 1e-9);
        // Subflow 1 still at its initial published rate.
        assert!((cc.published_rate(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn names_reflect_variant() {
        assert_eq!(Mpcc::new(MpccConfig::loss()).name(), "mpcc-loss");
        assert_eq!(Mpcc::new(MpccConfig::latency()).name(), "mpcc-latency");
        assert_eq!(Mpcc::vivace(1).name(), "vivace");
    }

    #[test]
    fn cwnd_scales_with_rate_and_rtt() {
        let mut cc = Mpcc::new(MpccConfig::loss());
        cc.init_subflow(0, SimTime::ZERO);
        // 2 Mbps × 100 ms × gain 2 = 50 KB.
        let cwnd = cc.cwnd_bytes(0, SimDuration::from_millis(100));
        assert_eq!(cwnd, 50_000);
        // Floors at 10 packets.
        let tiny = cc.cwnd_bytes(0, SimDuration::from_micros(10));
        assert_eq!(tiny, 10 * MSS_PAYLOAD);
    }

    #[test]
    fn slow_start_visible_through_published_rates() {
        let mut cc = Mpcc::new(MpccConfig::loss());
        cc.init_subflow(0, SimTime::ZERO);
        let mut rate_series = vec![];
        for i in 0..10 {
            let now = SimTime::from_millis(100 * (i + 1));
            let r = cc.begin_mi(0, now);
            rate_series.push(r.mbps());
            // Perfect delivery: utility keeps rising, keep doubling.
            cc.on_mi_complete(&MiReport {
                subflow: 0,
                rate: r,
                start: now,
                duration: SimDuration::from_millis(100),
                completed_at: now + SimDuration::from_millis(100),
                sent_packets: (r.bytes_in(SimDuration::from_millis(100)) / 1448.0) as u64,
                acked_packets: 100,
                lost_packets: 0,
                acked_bytes: 144_800,
                loss_rate: 0.0,
                goodput: r,
                latency_gradient: 0.0,
                mean_rtt: SimDuration::from_millis(30),
                app_limited: false,
            });
        }
        let last = *rate_series.last().unwrap();
        assert!(last > 100.0, "doubling every other MI: {rate_series:?}");
    }
}
