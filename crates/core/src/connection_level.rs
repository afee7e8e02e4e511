//! The §4 "failed try": connection-level rate control optimizing the
//! connection-level utility (Eq. 1) with a single multidimensional gradient
//! estimate.
//!
//! Kept as a working implementation because (a) the paper's theory builds
//! on it and (b) the `ablation` experiment demonstrates its three obstacles:
//! sequential per-dimension probing is slow (Obstacle I), every monitor
//! interval is stretched to the slowest subflow's RTT (Obstacle II), and the
//! worst-subflow penalty makes healthy subflows back off (Obstacle III).

use crate::controller::state::{
    CHANGE_BOUND_FRAC, INITIAL_RATE, MAX_RATE, MIN_PROBE, MIN_RATE, PROBE_EPSILON, THETA0,
};
use crate::controller::CWND_GAIN;
use crate::utility::{connection_utility, UtilityParams};
use mpcc_netsim::MSS_PAYLOAD;
use mpcc_simcore::{Rate, SimDuration, SimRng, SimTime};
use mpcc_transport::{MiReport, MultipathCc};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Probe dimension `dim` at `r_dim ± ω` (sign in `dir`).
    Probe { dim: usize, dir: f64 },
    /// All dimensions hold their base rates.
    Hold,
}

#[derive(Clone, Copy, Debug)]
struct Issued {
    step: Step,
    /// Rate commanded for the issuing subflow.
    rate: f64,
}

/// The connection-level controller of §4.
pub struct ConnectionLevel {
    /// Base rate vector (Mbps).
    rates: Vec<f64>,
    /// Latest per-subflow loss and latency-gradient observations.
    stats: Vec<(f64, f64)>,
    /// Latest smoothed RTT per subflow (for the synchronized MI length).
    srtts: Vec<SimDuration>,
    /// The probing schedule: one (dim, ±) pair per dimension per cycle.
    schedule: VecDeque<(usize, f64)>,
    /// Probe results: per dimension, [U₊, U₋] as they arrive.
    probe_utilities: Vec<[Option<f64>; 2]>,
    /// Issued MIs per subflow, FIFO.
    issued: Vec<VecDeque<Issued>>,
    /// Per subflow, reports still to discard after an RTO reset.
    discard: Vec<usize>,
    omega: f64,
    rng: SimRng,
}

impl ConnectionLevel {
    /// Creates the controller.
    pub fn new(seed: u64) -> Self {
        ConnectionLevel {
            rates: Vec::new(),
            stats: Vec::new(),
            srtts: Vec::new(),
            schedule: VecDeque::new(),
            probe_utilities: Vec::new(),
            issued: Vec::new(),
            discard: Vec::new(),
            omega: 1.0,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Current base rate of subflow `j` (Mbps).
    pub fn rate(&self, j: usize) -> f64 {
        self.rates.get(j).copied().unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        self.rates.iter().sum()
    }

    fn plan_cycle(&mut self) {
        let d = self.rates.len();
        self.omega = (PROBE_EPSILON * self.total()).max(MIN_PROBE);
        self.probe_utilities = vec![[None, None]; d];
        self.schedule.clear();
        // Sequential per-dimension probing (Obstacle I: 2·d MIs per cycle).
        for dim in 0..d {
            if self.rng.coin() {
                self.schedule.push_back((dim, 1.0));
                self.schedule.push_back((dim, -1.0));
            } else {
                self.schedule.push_back((dim, -1.0));
                self.schedule.push_back((dim, 1.0));
            }
        }
    }

    fn connection_u(&self, dim: usize, rate_dim: f64, loss: f64, grad: f64) -> f64 {
        let d = self.rates.len();
        let mut rates = self.rates.clone();
        rates[dim] = rate_dim;
        let mut losses = vec![0.0; d];
        let mut grads = vec![0.0; d];
        for j in 0..d {
            let (l, g) = self.stats[j];
            losses[j] = l;
            grads[j] = g;
        }
        losses[dim] = loss;
        grads[dim] = grad;
        connection_utility(&UtilityParams::mpcc_loss(), &rates, &losses, &grads)
    }

    fn maybe_move(&mut self) {
        if !self
            .probe_utilities
            .iter()
            .all(|pair| pair[0].is_some() && pair[1].is_some())
        {
            return;
        }
        // Multidimensional gradient step.
        let total = self.total().max(1.0);
        let bound = CHANGE_BOUND_FRAC * total;
        for dim in 0..self.rates.len() {
            let [up, down] = self.probe_utilities[dim];
            let g = (up.expect("checked") - down.expect("checked")) / (2.0 * self.omega);
            let step = (THETA0 * g).clamp(-bound, bound);
            self.rates[dim] = (self.rates[dim] + step).clamp(MIN_RATE, MAX_RATE);
        }
        self.plan_cycle();
    }
}

impl MultipathCc for ConnectionLevel {
    fn name(&self) -> &'static str {
        "mpcc-connection-level"
    }

    fn init_subflow(&mut self, subflow: usize, _now: SimTime) {
        while self.rates.len() <= subflow {
            self.rates.push(INITIAL_RATE);
            self.stats.push((0.0, 0.0));
            self.srtts.push(SimDuration::from_millis(100));
            self.issued.push(VecDeque::new());
            self.discard.push(0);
        }
        self.plan_cycle();
    }

    fn uses_mi(&self) -> bool {
        true
    }

    fn mi_duration(
        &mut self,
        _subflow: usize,
        _srtt: SimDuration,
        rng: &mut SimRng,
    ) -> SimDuration {
        // Obstacle II: every MI spans the slowest subflow's RTT.
        let slowest = self
            .srtts
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::from_millis(100))
            .max(SimDuration::from_millis(5));
        slowest.mul_f64(rng.range_f64(1.0, 1.1))
    }

    fn begin_mi(&mut self, subflow: usize, _now: SimTime) -> Rate {
        // Pop a probe step if it is this subflow's turn, else hold.
        let step = match self.schedule.front() {
            Some(&(dim, dir)) if dim == subflow => {
                self.schedule.pop_front();
                Step::Probe { dim, dir }
            }
            _ => Step::Hold,
        };
        let rate = match step {
            Step::Probe { dir, .. } => {
                (self.rates[subflow] + dir * self.omega).clamp(MIN_RATE, MAX_RATE)
            }
            Step::Hold => self.rates[subflow],
        };
        self.issued[subflow].push_back(Issued { step, rate });
        Rate::from_mbps(rate)
    }

    fn on_mi_complete(&mut self, report: &MiReport) {
        let sf = report.subflow;
        let Some(issued) = self.issued[sf].pop_front() else {
            return;
        };
        if self.discard[sf] > 0 {
            self.discard[sf] -= 1;
            return;
        }
        if report.mean_rtt > SimDuration::ZERO {
            self.srtts[sf] = report.mean_rtt;
        }
        if report.app_limited || report.sent_packets == 0 {
            return;
        }
        self.stats[sf] = (report.loss_rate, report.latency_gradient);
        if let Step::Probe { dim, dir } = issued.step {
            let achieved = report.sent_packets as f64 * MSS_PAYLOAD as f64 * 8.0
                / report.duration.as_secs_f64()
                / 1e6;
            let x = issued.rate.min(achieved * 1.05).max(MIN_RATE);
            let u = self.connection_u(dim, x, report.loss_rate, report.latency_gradient);
            let slot = if dir > 0.0 { 0 } else { 1 };
            self.probe_utilities[dim][slot] = Some(u);
            self.maybe_move();
        }
    }

    fn on_rto(&mut self, subflow: usize, _now: SimTime) {
        self.rates[subflow] = (self.rates[subflow] / 2.0).max(MIN_RATE);
        self.plan_cycle();
        // Every outstanding MI belongs to the abandoned cycle: its report
        // must still pop its own entry, then be ignored.
        for (d, q) in self.discard.iter_mut().zip(&self.issued) {
            *d = q.len();
        }
    }

    fn cwnd_bytes(&self, subflow: usize, srtt: SimDuration) -> u64 {
        let rate = Rate::from_mbps(self.rate(subflow));
        let bdp = rate.bytes_in(srtt.max(SimDuration::from_millis(2)));
        ((bdp * CWND_GAIN) as u64).max(10 * MSS_PAYLOAD)
    }

    fn pacing_rate(&self, subflow: usize) -> Option<Rate> {
        Some(Rate::from_mbps(self.rate(subflow)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi_duration_is_slowest_rtt() {
        let mut cc = ConnectionLevel::new(1);
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        cc.srtts[0] = SimDuration::from_millis(10);
        cc.srtts[1] = SimDuration::from_millis(200);
        let mut rng = SimRng::seed_from_u64(2);
        // Even subflow 0 (10 ms RTT) gets a ~200 ms MI — Obstacle II.
        let d = cc.mi_duration(0, SimDuration::from_millis(10), &mut rng);
        assert!(d >= SimDuration::from_millis(200));
    }

    #[test]
    fn probing_is_sequential_across_dimensions() {
        let mut cc = ConnectionLevel::new(1);
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        // The schedule probes dim 0 twice, then dim 1 twice: 2d MIs.
        assert_eq!(cc.schedule.len(), 4);
        let dims: Vec<usize> = cc.schedule.iter().map(|&(d, _)| d).collect();
        assert_eq!(&dims[..2], &[0, 0]);
        assert_eq!(&dims[2..], &[1, 1]);
    }

    #[test]
    fn rto_discards_reports_of_intervals_issued_before_it() {
        let mut cc = ConnectionLevel::new(1);
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        let t = SimTime::from_millis(100);
        let rate = cc.begin_mi(0, t);
        cc.on_rto(0, t);
        // The new cycle's first probe is on dimension 0 again.
        cc.begin_mi(0, t);
        // The pre-RTO probe reports, every packet lost: it belongs to the
        // abandoned cycle and must not fill the new probe's slot.
        let duration = SimDuration::from_millis(100);
        cc.on_mi_complete(&MiReport {
            subflow: 0,
            rate,
            start: t,
            duration,
            completed_at: t + duration,
            sent_packets: 10,
            acked_packets: 0,
            lost_packets: 10,
            acked_bytes: 0,
            loss_rate: 1.0,
            goodput: Rate::from_mbps(0.0),
            latency_gradient: 0.0,
            mean_rtt: SimDuration::from_millis(30),
            app_limited: false,
        });
        assert_eq!(cc.probe_utilities[0], [None, None]);
    }

    #[test]
    fn worst_subflow_penalty_couples_dimensions() {
        // Obstacle III in miniature: a healthy subflow's measured utility
        // drops when the *other* subflow's loss worsens.
        let mut cc = ConnectionLevel::new(1);
        cc.init_subflow(0, SimTime::ZERO);
        cc.init_subflow(1, SimTime::ZERO);
        cc.stats[1] = (0.0, 0.0);
        let healthy = cc.connection_u(0, 10.0, 0.0, 0.0);
        cc.stats[1] = (0.2, 0.0);
        let with_sick_peer = cc.connection_u(0, 10.0, 0.0, 0.0);
        assert!(with_sick_peer < healthy);
    }
}
