//! The interface between the multipath transport and a congestion
//! controller.
//!
//! One [`MultipathCc`] instance governs *all* subflows of a connection —
//! this is what lets coupled algorithms (LIA/OLIA/Balia, and MPCC itself)
//! see the whole connection, while uncoupled designs simply keep independent
//! per-subflow state.
//!
//! Two control styles are supported, mirroring the paper's distinction
//! (§6): *window-based* controllers are ACK-clocked through a congestion
//! window; *rate-based* controllers set explicit pacing rates, either
//! continuously (BBR) or once per monitor interval (the PCC family, when
//! [`MultipathCc::uses_mi`] returns `true`).

use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_telemetry::Tracer;

/// Everything a controller may want to know about one arriving ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Subflow the ACK belongs to.
    pub subflow: usize,
    /// Arrival time.
    pub now: SimTime,
    /// Packets newly acknowledged by this ACK.
    pub acked_packets: u64,
    /// Payload bytes newly acknowledged.
    pub acked_bytes: u64,
    /// The RTT sample carried by this ACK.
    pub rtt: SimDuration,
    /// Smoothed RTT after incorporating the sample.
    pub srtt: SimDuration,
    /// Windowed minimum RTT.
    pub min_rtt: SimDuration,
    /// Delivery-rate sample (bytes delivered between the acked packet's
    /// transmission and now, over that interval) — what BBR's BW filter
    /// consumes.
    pub bw_sample: Rate,
    /// Bytes still in flight on this subflow after processing the ACK.
    pub inflight_bytes: u64,
}

/// A congestion (loss) event on one subflow. Delivered at most once per
/// round trip (standard "loss event" semantics, so AIMD halves once per
/// window of loss).
#[derive(Clone, Copy, Debug)]
pub struct LossInfo {
    /// Subflow the loss was detected on.
    pub subflow: usize,
    /// Detection time.
    pub now: SimTime,
    /// Packets declared lost in this event.
    pub lost_packets: u64,
    /// Bytes still in flight after removing the lost packets.
    pub inflight_bytes: u64,
}

/// Statistics of one completed monitor interval (PCC-family controllers).
///
/// All counters refer to packets *sent during* the interval; the report is
/// delivered once every such packet has been acknowledged or declared lost
/// (roughly one RTT after the interval ends), as in PCC Vivace.
#[derive(Clone, Copy, Debug)]
pub struct MiReport {
    /// Subflow the interval ran on.
    pub subflow: usize,
    /// The sending rate the controller chose for this interval.
    pub rate: Rate,
    /// Interval start time.
    pub start: SimTime,
    /// Actual interval duration.
    pub duration: SimDuration,
    /// Completion time (when the report became computable).
    pub completed_at: SimTime,
    /// Packets sent during the interval.
    pub sent_packets: u64,
    /// Of those, packets acknowledged.
    pub acked_packets: u64,
    /// Of those, packets declared lost.
    pub lost_packets: u64,
    /// Payload bytes acknowledged.
    pub acked_bytes: u64,
    /// Loss rate `L` = lost / sent (0 if nothing was sent).
    pub loss_rate: f64,
    /// Achieved goodput: acked payload bytes / duration.
    pub goodput: Rate,
    /// Least-squares slope of RTT over the packets' send times,
    /// dimensionless (seconds of RTT per second) — the paper's d(RTT)/dT.
    pub latency_gradient: f64,
    /// Mean RTT over the interval's acknowledged packets.
    pub mean_rtt: SimDuration,
    /// `true` if the sender was application-limited during the interval
    /// (did not have data to fill the configured rate).
    pub app_limited: bool,
}

/// A congestion controller for a multipath connection. (`Send` so whole
/// simulations can be farmed out to worker threads in parameter sweeps.)
pub trait MultipathCc: Send {
    /// Human-readable protocol name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Called once per subflow before any traffic is sent on it.
    fn init_subflow(&mut self, subflow: usize, now: SimTime);

    /// Hands the controller the connection's tracer handle and the
    /// connection id to stamp events with. Called by the sender before
    /// [`MultipathCc::init_subflow`]; controllers that emit no telemetry
    /// keep the default no-op.
    fn set_tracer(&mut self, _tracer: Tracer, _conn: u64) {}

    /// `true` if the controller is driven by monitor intervals
    /// ([`MultipathCc::begin_mi`] / [`MultipathCc::on_mi_complete`]).
    fn uses_mi(&self) -> bool {
        false
    }

    /// `true` if the controller paces at explicit rates (PCC family, BBR);
    /// `false` for ACK-clocked window-based controllers (TCP/MPTCP family).
    fn is_rate_based(&self) -> bool {
        self.uses_mi()
    }

    /// Called at each monitor-interval boundary; returns the sending rate
    /// for the new interval. Only called when [`MultipathCc::uses_mi`];
    /// MI-driven controllers must override this. The default flags the
    /// mis-wiring in debug builds and degrades to a conservative fallback
    /// rate in release builds rather than panicking mid-experiment.
    fn begin_mi(&mut self, _subflow: usize, _now: SimTime) -> Rate {
        debug_assert!(
            !self.uses_mi(),
            "{}: uses_mi() is true but begin_mi is not overridden",
            self.name()
        );
        Rate::from_mbps(1.0)
    }

    /// Chooses the duration of the next monitor interval given the current
    /// smoothed RTT. The default follows PCC: about one RTT, with random
    /// jitter to desynchronize competing senders.
    fn mi_duration(&mut self, _subflow: usize, srtt: SimDuration, rng: &mut SimRng) -> SimDuration {
        let base = srtt.max(SimDuration::from_millis(5));
        base.mul_f64(rng.range_f64(1.0, 1.1))
    }

    /// Delivers the statistics of a completed monitor interval.
    fn on_mi_complete(&mut self, _report: &MiReport) {}

    /// Called for every arriving ACK.
    fn on_ack(&mut self, _info: &AckInfo) {}

    /// Called once per congestion (loss) event.
    fn on_loss(&mut self, _info: &LossInfo) {}

    /// Called when a retransmission timeout fires on `subflow`.
    fn on_rto(&mut self, _subflow: usize, _now: SimTime) {}

    /// Resets the controller to its pre-`init_subflow` state in place,
    /// without releasing per-subflow allocations, and returns `true` if
    /// the reset is supported. Controllers that return the default `false`
    /// cannot be recycled across connections; the churn driver, which
    /// recycles every sender it retires, asserts that the reset succeeds.
    fn reset_for_reuse(&mut self) -> bool {
        false
    }

    /// The congestion window for `subflow`, in bytes. Rate-based
    /// controllers return an inflight cap (e.g. 2 × BDP); the transport
    /// enforces `inflight ≤ cwnd` regardless of pacing.
    fn cwnd_bytes(&self, subflow: usize, srtt: SimDuration) -> u64;

    /// The pacing rate for `subflow`, or `None` for pure ACK-clocking.
    /// For MI-driven controllers the transport uses the rate returned by
    /// [`MultipathCc::begin_mi`] instead and ignores this.
    fn pacing_rate(&self, subflow: usize) -> Option<Rate>;

    /// The subflow sending rates as most recently *published* by the
    /// controller (PCC-family), or estimated from cwnd/srtt. Used only for
    /// diagnostics and the rate-based scheduler's availability rule.
    fn rate_estimate(&self, subflow: usize, srtt: SimDuration) -> Rate {
        match self.pacing_rate(subflow) {
            Some(r) => r,
            None => {
                let srtt_s = srtt.as_secs_f64();
                if srtt_s <= 0.0 {
                    Rate::ZERO
                } else {
                    Rate::from_bps(self.cwnd_bytes(subflow, srtt) as f64 * 8.0 / srtt_s)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedRate(Rate);
    impl MultipathCc for FixedRate {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn init_subflow(&mut self, _s: usize, _now: SimTime) {}
        fn cwnd_bytes(&self, _s: usize, _srtt: SimDuration) -> u64 {
            1_000_000
        }
        fn pacing_rate(&self, _s: usize) -> Option<Rate> {
            Some(self.0)
        }
    }

    struct WindowOnly(u64);
    impl MultipathCc for WindowOnly {
        fn name(&self) -> &'static str {
            "window"
        }
        fn init_subflow(&mut self, _s: usize, _now: SimTime) {}
        fn cwnd_bytes(&self, _s: usize, _srtt: SimDuration) -> u64 {
            self.0
        }
        fn pacing_rate(&self, _s: usize) -> Option<Rate> {
            None
        }
    }

    #[test]
    fn rate_estimate_prefers_pacing_rate() {
        let cc = FixedRate(Rate::from_mbps(42.0));
        assert_eq!(
            cc.rate_estimate(0, SimDuration::from_millis(10)),
            Rate::from_mbps(42.0)
        );
    }

    #[test]
    fn rate_estimate_falls_back_to_cwnd_over_srtt() {
        let cc = WindowOnly(125_000); // 125 KB over 100 ms = 10 Mbps
        let r = cc.rate_estimate(0, SimDuration::from_millis(100));
        assert!((r.mbps() - 10.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn default_begin_mi_degrades_without_panicking() {
        // A controller that (correctly) reports uses_mi() == false but is
        // nevertheless asked for a monitor-interval rate — e.g. by a
        // mis-wired harness — must not abort the whole experiment. The
        // pre-fix default body was `unimplemented!()`.
        let mut cc = WindowOnly(10_000);
        assert!(!cc.uses_mi());
        let r = cc.begin_mi(0, SimTime::ZERO);
        assert_eq!(r, Rate::from_mbps(1.0));
    }

    #[test]
    fn default_mi_duration_is_about_one_rtt() {
        let mut cc = FixedRate(Rate::from_mbps(1.0));
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = cc.mi_duration(0, SimDuration::from_millis(50), &mut rng);
            let f = d.as_millis_f64() / 50.0;
            assert!((1.0..1.1001).contains(&f), "factor {f}");
        }
    }
}
