//! The per-subflow online-learning rate controller (§5.2 of the paper).
//!
//! Each subflow transitions between three states:
//!
//! * **Starting** (slow-start): the rate doubles each monitor interval until
//!   utility first decreases, then reverts one doubling and probes.
//! * **Probing**: the gradient direction is estimated by testing `r + ω` and
//!   `r − ω` in two randomized-order pairs. ω is a fraction of the
//!   *connection's total* published rate — the paper's key departure from
//!   single-path Vivace (§5.2).
//! * **Moving**: the rate steps in the decided direction by
//!   `θ₀ · m · |∇̂U|`, where `m` is the confidence amplifier (grows with
//!   consecutive steps), clamped by the change bound (also a fraction of
//!   the connection total). A utility decrease sends the subflow back to
//!   probing and halves the change bound (the swing buffer).
//!
//! Because results of a monitor interval arrive roughly one RTT after it
//! ends, decisions are pipelined: while feedback is pending, the subflow
//! issues "hold" intervals at its base rate, and slow-start doubles every
//! *other* interval. The exact constants are not published in the paper;
//! ours are the constants below, listed with their values in DESIGN.md §5.

use crate::utility::{subflow_utility, UtilityParams};
use mpcc_simcore::SimRng;
use std::collections::VecDeque;

/// Why a monitor interval was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Purpose {
    /// Slow-start doubling test.
    Start,
    /// Gradient probe at `r ± ω` (`dir` = +1 / −1).
    Probe {
        /// Probe direction: +1 or −1.
        dir: i8,
    },
    /// A step of the moving phase.
    Move,
    /// Feedback still pending; send at the base rate.
    Hold,
}

/// A monitor interval issued to the transport, awaiting its report.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// Purpose of the interval.
    pub purpose: Purpose,
    /// Rate commanded for the interval (Mbps).
    pub rate: f64,
    /// Snapshot of the other subflows' published total at issue time
    /// (rate-publication point semantics, §5.2).
    pub others: f64,
}

/// The distilled result of a completed monitor interval.
#[derive(Clone, Copy, Debug)]
pub struct MiOutcome {
    /// Send rate actually achieved during the interval (Mbps).
    pub achieved: f64,
    /// Loss rate over the interval's packets.
    pub loss: f64,
    /// Latency gradient d(RTT)/dT.
    pub lat_gradient: f64,
    /// `true` if the sender did not have data to fill the rate.
    pub app_limited: bool,
}

/// Starting rate (Mbps).
pub(crate) const INITIAL_RATE: f64 = 2.0;
/// Rate floor (Mbps).
pub(crate) const MIN_RATE: f64 = 0.125;
/// Rate ceiling (Mbps).
pub(crate) const MAX_RATE: f64 = 20_000.0;
/// Probe amplitude ε as a fraction of the connection's total rate.
pub(crate) const PROBE_EPSILON: f64 = 0.01;
/// Probe amplitude floor (Mbps).
pub(crate) const MIN_PROBE: f64 = 0.1;
/// Base gradient-step scale θ₀ (Mbps² per utility unit).
pub(crate) const THETA0: f64 = 1.0;
/// Confidence-amplifier cap.
const MAX_AMPLIFIER: u32 = 30;
/// Change bound as a fraction of the connection's total rate.
pub(crate) const CHANGE_BOUND_FRAC: f64 = 0.05;
/// Swing-buffer floor for the change bound fraction.
const MIN_CHANGE_BOUND_FRAC: f64 = 0.005;

/// The per-subflow state machine's settings that differ between MPCC
/// variants; every other value is a constant of this module.
#[derive(Clone, Copy, Debug)]
pub struct StateConfig {
    /// Utility coefficients.
    pub utility: UtilityParams,
    /// Ablation switch (§5.2): when `true`, ω scales with the *subflow's
    /// own* rate instead of the connection total — the paper reports this
    /// empirically gets stuck at suboptimal global outcomes.
    pub probe_scales_with_own_rate: bool,
}

impl Default for StateConfig {
    fn default() -> Self {
        StateConfig {
            utility: UtilityParams::mpcc_loss(),
            probe_scales_with_own_rate: false,
        }
    }
}

#[derive(Clone, Debug)]
enum Phase {
    Starting {
        /// `true` while a doubling test is in flight.
        awaiting: bool,
        prev_utility: Option<f64>,
    },
    Probing {
        /// Probe directions, issued in order.
        plan: [i8; 4],
        /// Entries of `plan` issued so far.
        sent: usize,
        /// (direction, utility, rate) of completed probes, in order; the
        /// first `done` entries are filled.
        results: [(i8, f64, f64); 4],
        done: usize,
        /// ω used by this probing episode (Mbps).
        omega: f64,
        /// Consecutive inconclusive episodes.
        tries: u32,
    },
    Moving {
        dir: f64,
        amplifier: u32,
        /// (rate, utility) of the previous decided interval.
        prev: (f64, f64),
    },
}

/// The per-subflow controller.
#[derive(Debug)]
pub struct SubflowCtl {
    cfg: StateConfig,
    /// Base sending rate r (Mbps).
    rate: f64,
    phase: Phase,
    issued: VecDeque<Issued>,
    /// Swing-buffer state: current change bound fraction.
    bound_frac: f64,
    /// Reports to discard after an RTO reset.
    discard: usize,
    /// Diagnostics: decisions taken.
    pub decisions: u64,
    /// Utility computed from the most recent non-discarded report
    /// (`None` when the last report carried no utility: app-limited,
    /// discarded, or no interval outstanding). Telemetry reads this.
    last_utility: Option<f64>,
}

impl SubflowCtl {
    /// A subflow starting in slow-start at the initial rate.
    pub fn new(cfg: StateConfig) -> Self {
        SubflowCtl {
            rate: INITIAL_RATE,
            bound_frac: CHANGE_BOUND_FRAC,
            cfg,
            phase: Phase::Starting {
                awaiting: false,
                prev_utility: None,
            },
            issued: VecDeque::new(),
            discard: 0,
            decisions: 0,
            last_utility: None,
        }
    }

    /// Current base rate (Mbps).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// `true` while still in slow-start.
    pub fn in_slow_start(&self) -> bool {
        matches!(self.phase, Phase::Starting { .. })
    }

    /// `true` while in the moving phase.
    pub fn is_moving(&self) -> bool {
        matches!(self.phase, Phase::Moving { .. })
    }

    /// Utility value of the most recent report that carried one.
    pub fn last_utility(&self) -> Option<f64> {
        self.last_utility
    }

    /// Number of issued-but-unreported monitor intervals (used by the
    /// runtime invariant checker to bound pipeline depth).
    pub fn issued_len(&self) -> usize {
        self.issued.len()
    }

    fn clamp(&self, r: f64) -> f64 {
        r.clamp(MIN_RATE, MAX_RATE)
    }

    fn omega(&self, total_published: f64) -> f64 {
        let base = if self.cfg.probe_scales_with_own_rate {
            // The §5.2 ablation: 5% of the subflow's own rate (a Vivace-like
            // relative step; the paper's design deliberately avoids this).
            5.0 * PROBE_EPSILON * self.rate
        } else {
            PROBE_EPSILON * total_published
        };
        base.max(MIN_PROBE)
    }

    fn new_probe_plan(&mut self, total_published: f64, tries: u32, rng: &mut SimRng) {
        // Two randomized-order (+ω, −ω) pairs, as in Vivace's RCT probing.
        let mut plan = [0; 4];
        for pair in plan.chunks_exact_mut(2) {
            pair.copy_from_slice(if rng.coin() { &[1, -1] } else { &[-1, 1] });
        }
        self.phase = Phase::Probing {
            plan,
            sent: 0,
            results: [(0, 0.0, 0.0); 4],
            done: 0,
            omega: self.omega(total_published),
            tries,
        };
    }

    /// Chooses the rate for the next monitor interval. `others` is the sum
    /// of the other subflows' published rates (Mbps).
    pub fn next_mi(&mut self, others: f64) -> Issued {
        let base_rate = self.rate;
        let issued = match &mut self.phase {
            Phase::Starting { awaiting, .. } => {
                if *awaiting {
                    Issued {
                        purpose: Purpose::Hold,
                        rate: base_rate,
                        others,
                    }
                } else {
                    *awaiting = true;
                    Issued {
                        purpose: Purpose::Start,
                        rate: base_rate,
                        others,
                    }
                }
            }
            Phase::Probing {
                plan, sent, omega, ..
            } => {
                if let Some(&dir) = plan.get(*sent) {
                    *sent += 1;
                    // Keep the ±ω pair fully separated even when the base
                    // rate sits at a bound: center the pair inside
                    // [min + ω, max − ω] (as PCC implementations do), so
                    // the clamp can never collapse `pair_diff` to ~0 and
                    // loop the episode inconclusive at the bound.
                    let center = if MAX_RATE - MIN_RATE >= 2.0 * *omega {
                        base_rate.clamp(MIN_RATE + *omega, MAX_RATE - *omega)
                    } else {
                        0.5 * (MIN_RATE + MAX_RATE)
                    };
                    let rate = (center + dir as f64 * *omega).clamp(MIN_RATE, MAX_RATE);
                    Issued {
                        purpose: Purpose::Probe { dir },
                        rate,
                        others,
                    }
                } else {
                    Issued {
                        purpose: Purpose::Hold,
                        rate: base_rate,
                        others,
                    }
                }
            }
            Phase::Moving { .. } => Issued {
                purpose: Purpose::Move,
                rate: base_rate,
                others,
            },
        };
        self.issued.push_back(issued);
        issued
    }

    /// Feeds the completed report of the oldest outstanding interval.
    pub fn on_report(
        &mut self,
        outcome: MiOutcome,
        total_published: f64,
        rng: &mut SimRng,
    ) -> ReportAction {
        self.last_utility = None;
        let Some(issued) = self.issued.pop_front() else {
            return ReportAction::Ignored;
        };
        if self.discard > 0 {
            self.discard -= 1;
            return ReportAction::Ignored;
        }
        if outcome.app_limited {
            // Not network feedback: release slow-start's doubling latch so
            // the subflow is not stuck, but make no decision.
            if let Phase::Starting { awaiting, .. } = &mut self.phase {
                *awaiting = false;
            }
            return ReportAction::Ignored;
        }
        // Effective rate: the commanded rate, discounted when the transport
        // could not actually reach it (window-limited, pacer gaps).
        let x = if outcome.achieved > 0.0 {
            issued.rate.min(outcome.achieved * 1.05).max(MIN_RATE)
        } else {
            issued.rate
        };
        let u = subflow_utility(
            &self.cfg.utility,
            x,
            issued.others,
            outcome.loss,
            outcome.lat_gradient,
        );
        self.last_utility = Some(u);

        // Take the phase out so decision handling can freely mutate `self`.
        let phase = std::mem::replace(
            &mut self.phase,
            Phase::Starting {
                awaiting: false,
                prev_utility: None,
            },
        );
        match (phase, issued.purpose) {
            (
                Phase::Starting {
                    prev_utility: Some(prev),
                    ..
                },
                Purpose::Start,
            ) if u < prev => {
                // Revert the doubling and start probing.
                self.rate = self.clamp(issued.rate / 2.0);
                self.decisions += 1;
                self.new_probe_plan(total_published, 0, rng);
                ReportAction::ExitedSlowStart
            }
            (Phase::Starting { .. }, Purpose::Start) => {
                self.phase = Phase::Starting {
                    awaiting: false,
                    prev_utility: Some(u),
                };
                self.rate = self.clamp(self.rate * 2.0);
                ReportAction::Doubled
            }
            (
                Phase::Probing {
                    plan,
                    sent,
                    mut results,
                    done,
                    omega,
                    tries,
                },
                Purpose::Probe { dir },
            ) => {
                results[done] = (dir, u, x);
                let done = done + 1;
                if done < results.len() {
                    self.phase = Phase::Probing {
                        plan,
                        sent,
                        results,
                        done,
                        omega,
                        tries,
                    };
                    return ReportAction::ProbeRecorded;
                }
                debug_assert_eq!(sent, plan.len());
                let pair_diff = |a: &[(i8, f64, f64)]| -> f64 {
                    let up = a.iter().find(|(d, _, _)| *d > 0).expect("one up probe");
                    let down = a.iter().find(|(d, _, _)| *d < 0).expect("one down probe");
                    up.1 - down.1
                };
                let d1 = pair_diff(&results[..2]);
                let d2 = pair_diff(&results[2..]);
                self.decisions += 1;
                if d1 * d2 > 0.0 {
                    let dir = d1.signum();
                    self.enter_moving(dir, omega, &results);
                    ReportAction::Decided(dir)
                } else if tries + 1 < 3 {
                    self.new_probe_plan(total_published, tries + 1, rng);
                    ReportAction::Inconclusive
                } else {
                    let total = d1 + d2;
                    if total.abs() < 1e-12 {
                        self.new_probe_plan(total_published, 0, rng);
                        ReportAction::Inconclusive
                    } else {
                        let dir = total.signum();
                        self.enter_moving(dir, omega, &results);
                        ReportAction::Decided(dir)
                    }
                }
            }
            (
                Phase::Moving {
                    dir,
                    amplifier,
                    prev,
                },
                Purpose::Move,
            ) => {
                self.decisions += 1;
                if u < prev.1 {
                    // Swing buffer: contract the change bound and re-probe.
                    self.bound_frac = (self.bound_frac / 2.0).max(MIN_CHANGE_BOUND_FRAC);
                    self.new_probe_plan(total_published, 0, rng);
                    ReportAction::ExitedMoving
                } else {
                    // When the effective rate did not move (pinned at a
                    // clamp), there is no gradient observation: fall back
                    // to a unit gradient but *freeze* the confidence
                    // amplifier — confidence must not build against a
                    // bound it cannot cross, or releasing the bound later
                    // launches an overshooting max-confidence step.
                    let gradient_defined = (x - prev.0).abs() > 1e-9;
                    let gradient = if gradient_defined {
                        ((u - prev.1) / (x - prev.0)).abs()
                    } else {
                        1.0
                    };
                    let amplifier = if gradient_defined {
                        (amplifier + 1).min(MAX_AMPLIFIER)
                    } else {
                        amplifier
                    };
                    let bound = self.bound_frac * total_published;
                    let step = (THETA0 * amplifier as f64 * gradient)
                        .clamp(MIN_PROBE, bound.max(MIN_PROBE));
                    let proposed = self.rate + dir * step;
                    let next = self.clamp(proposed);
                    // Reset confidence entirely when the clamp truncates
                    // the step: the walk is restarting from the bound.
                    let amplifier = if next != proposed { 1 } else { amplifier };
                    self.phase = Phase::Moving {
                        dir,
                        amplifier,
                        prev: (x, u),
                    };
                    self.rate = next;
                    // Gentle bound recovery on sustained progress.
                    self.bound_frac = (self.bound_frac * 1.1).min(CHANGE_BOUND_FRAC);
                    ReportAction::Moved(dir * step)
                }
            }
            // Hold intervals and mismatched purposes after phase changes
            // carry no decision weight; restore the phase untouched.
            (phase, _) => {
                self.phase = phase;
                ReportAction::Ignored
            }
        }
    }

    fn enter_moving(&mut self, dir: f64, omega: f64, results: &[(i8, f64, f64)]) {
        // Seed the gradient baseline with the winning probe's observation.
        let (rate_w, u_w) = results
            .iter()
            .filter(|(d, _, _)| (*d as f64) * dir > 0.0)
            .map(|(_, u, x)| (*x, *u))
            .fold(
                (self.rate, f64::MIN),
                |acc, (x, u)| {
                    if u > acc.1 {
                        (x, u)
                    } else {
                        acc
                    }
                },
            );
        self.rate = self.clamp(self.rate + dir * omega);
        self.phase = Phase::Moving {
            dir,
            amplifier: 1,
            prev: (rate_w, u_w),
        };
    }

    /// Retransmission-timeout reset: halve the rate, discard feedback for
    /// everything already issued, and re-probe.
    pub fn on_rto(&mut self, total_published: f64, rng: &mut SimRng) {
        self.rate = self.clamp(self.rate / 2.0);
        self.discard = self.issued.len();
        self.new_probe_plan(total_published, 0, rng);
    }
}

/// What a report made the controller do (diagnostics/tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReportAction {
    /// No decision (hold, app-limited, discarded).
    Ignored,
    /// Slow-start doubled the rate.
    Doubled,
    /// Slow-start ended; probing begins.
    ExitedSlowStart,
    /// A probe result was recorded, episode still open.
    ProbeRecorded,
    /// Probing decided a direction (+1 / −1).
    Decided(f64),
    /// Probing was inconclusive; a new episode begins.
    Inconclusive,
    /// The moving phase stepped the rate by the contained amount (Mbps).
    Moved(f64),
    /// The moving phase ended (utility decreased); probing begins.
    ExitedMoving,
}

impl ReportAction {
    /// Stable snake_case label for trace output.
    pub fn label(&self) -> &'static str {
        match self {
            ReportAction::Ignored => "ignored",
            ReportAction::Doubled => "doubled",
            ReportAction::ExitedSlowStart => "exited_slow_start",
            ReportAction::ProbeRecorded => "probe_recorded",
            ReportAction::Decided(_) => "decided",
            ReportAction::Inconclusive => "inconclusive",
            ReportAction::Moved(_) => "moved",
            ReportAction::ExitedMoving => "exited_moving",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    fn good(achieved: f64) -> MiOutcome {
        MiOutcome {
            achieved,
            loss: 0.0,
            lat_gradient: 0.0,
            app_limited: false,
        }
    }

    fn lossy(achieved: f64, loss: f64) -> MiOutcome {
        MiOutcome {
            achieved,
            loss,
            lat_gradient: 0.0,
            app_limited: false,
        }
    }

    /// Issues MIs and feeds back reports through fn `f` until the subflow
    /// leaves slow start or `max` MIs elapse.
    fn run_slow_start(ctl: &mut SubflowCtl, cap: f64, max: usize) -> usize {
        let mut r = rng();
        for i in 0..max {
            let issued = ctl.next_mi(0.0);
            let outcome = if issued.rate <= cap {
                good(issued.rate)
            } else {
                lossy(cap, (issued.rate - cap) / issued.rate)
            };
            ctl.on_report(outcome, ctl.rate(), &mut r);
            if !ctl.in_slow_start() {
                return i;
            }
        }
        max
    }

    #[test]
    fn slow_start_doubles_until_loss_then_reverts() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        assert!(ctl.in_slow_start());
        let mis = run_slow_start(&mut ctl, 100.0, 100);
        assert!(mis < 100, "slow start must end");
        assert!(!ctl.in_slow_start());
        // Reverted rate is the last rate that fit under capacity: between
        // 32 and 128 Mbps for doubling from 2.
        assert!(
            (32.0..=128.0).contains(&ctl.rate()),
            "reverted to {}",
            ctl.rate()
        );
    }

    #[test]
    fn probing_decides_up_when_utility_grows_with_rate() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        // Skip slow start by forcing an exit.
        run_slow_start(&mut ctl, 50.0, 100);
        let mut decided = None;
        for _ in 0..100 {
            let issued = ctl.next_mi(0.0);
            // No loss at any tested rate: utility increases with rate.
            let action = ctl.on_report(good(issued.rate), ctl.rate(), &mut r);
            if let ReportAction::Decided(d) = action {
                decided = Some(d);
                break;
            }
        }
        assert_eq!(decided, Some(1.0));
        assert!(ctl.is_moving());
    }

    #[test]
    fn probing_decides_down_under_heavy_loss() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        run_slow_start(&mut ctl, 50.0, 100);
        let base = ctl.rate();
        let mut decided = None;
        for _ in 0..100 {
            let issued = ctl.next_mi(0.0);
            // Heavy congestion: loss grows with rate, utility decreasing.
            let cap = base * 0.5;
            let loss = ((issued.rate - cap) / issued.rate).max(0.0);
            let action = ctl.on_report(lossy(issued.rate, loss), ctl.rate(), &mut r);
            if let ReportAction::Decided(d) = action {
                decided = Some(d);
                break;
            }
        }
        assert_eq!(decided, Some(-1.0));
    }

    #[test]
    fn moving_steps_until_utility_drops_then_reprobes() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        run_slow_start(&mut ctl, 60.0, 100);
        // Drive to a decision upward.
        loop {
            let issued = ctl.next_mi(0.0);
            if let ReportAction::Decided(_) = ctl.on_report(good(issued.rate), ctl.rate(), &mut r) {
                break;
            }
        }
        let rate_at_move_start = ctl.rate();
        // Utility keeps improving: rate must march upward.
        let mut moved = 0;
        for _ in 0..10 {
            let issued = ctl.next_mi(0.0);
            if let ReportAction::Moved(step) = ctl.on_report(good(issued.rate), ctl.rate(), &mut r)
            {
                assert!(step > 0.0);
                moved += 1;
            }
        }
        assert!(moved >= 8);
        assert!(ctl.rate() > rate_at_move_start);
        // Now slam into a wall: utility collapses → back to probing.
        let issued = ctl.next_mi(0.0);
        let action = ctl.on_report(lossy(issued.rate, 0.5), ctl.rate(), &mut r);
        assert_eq!(action, ReportAction::ExitedMoving);
        assert!(!ctl.is_moving());
    }

    #[test]
    fn swing_buffer_contracts_change_bound() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let before = ctl.bound_frac;
        let mut r = rng();
        run_slow_start(&mut ctl, 60.0, 100);
        loop {
            let issued = ctl.next_mi(0.0);
            if let ReportAction::Decided(_) = ctl.on_report(good(issued.rate), ctl.rate(), &mut r) {
                break;
            }
        }
        // Immediately fail the first move.
        let issued = ctl.next_mi(0.0);
        let _ = issued;
        ctl.on_report(lossy(ctl.rate(), 0.9), ctl.rate(), &mut r);
        assert!(ctl.bound_frac < before);
    }

    #[test]
    fn rto_halves_rate_and_discards_stale_feedback() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        run_slow_start(&mut ctl, 100.0, 100);
        let before = ctl.rate();
        // Two MIs in flight.
        ctl.next_mi(0.0);
        ctl.next_mi(0.0);
        ctl.on_rto(before, &mut r);
        assert!((ctl.rate() - before / 2.0).abs() < 1e-9);
        // Their (stale) reports are ignored.
        assert_eq!(
            ctl.on_report(good(before), before, &mut r),
            ReportAction::Ignored
        );
        assert_eq!(
            ctl.on_report(good(before), before, &mut r),
            ReportAction::Ignored
        );
    }

    #[test]
    fn app_limited_reports_do_not_drive_decisions() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        let issued = ctl.next_mi(0.0);
        let action = ctl.on_report(
            MiOutcome {
                achieved: issued.rate * 0.01,
                loss: 0.0,
                lat_gradient: 0.0,
                app_limited: true,
            },
            ctl.rate(),
            &mut r,
        );
        assert_eq!(action, ReportAction::Ignored);
        assert!(ctl.in_slow_start());
        // The doubling latch is released: the next MI is a Start again.
        let next = ctl.next_mi(0.0);
        assert_eq!(next.purpose, Purpose::Start);
    }

    #[test]
    fn probe_amplitude_scales_with_total_not_subflow_rate() {
        // Per §5.2: ω is ε × connection total. With a small subflow rate
        // but a large connection total, ω must reflect the total.
        let ctl = SubflowCtl::new(StateConfig::default());
        let omega = ctl.omega(500.0);
        assert!((omega - 5.0).abs() < 1e-9, "1% of 500 = {omega}");
        let omega_small = ctl.omega(1.0);
        assert_eq!(omega_small, MIN_PROBE);
    }

    #[test]
    fn probe_pair_stays_separated_at_max_rate() {
        // Pinned at MAX_RATE, the up probe clamps onto the base rate, so
        // without recentering the pair collapses to ω apart (or worse) and
        // the episode loops inconclusive at the bound forever.
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        ctl.rate = MAX_RATE;
        ctl.new_probe_plan(MAX_RATE, 0, &mut r);
        let omega = match ctl.phase {
            Phase::Probing { omega, .. } => omega,
            ref p => panic!("expected Probing, got {p:?}"),
        };
        let (mut up, mut down) = (None, None);
        for _ in 0..4 {
            let issued = ctl.next_mi(0.0);
            match issued.purpose {
                Purpose::Probe { dir } if dir > 0 => up = Some(issued.rate),
                Purpose::Probe { dir } if dir < 0 => down = Some(issued.rate),
                p => panic!("expected a probe, got {p:?}"),
            }
            assert!(issued.rate <= MAX_RATE + 1e-9);
            assert!(issued.rate >= MIN_RATE - 1e-9);
        }
        let (up, down) = (up.expect("an up probe"), down.expect("a down probe"));
        assert!(
            (up - down - 2.0 * omega).abs() < 1e-9,
            "probe pair collapsed at the bound: up {up}, down {down}, ω {omega}"
        );
    }

    #[test]
    fn probe_pair_stays_separated_at_min_rate() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        ctl.rate = MIN_RATE;
        ctl.new_probe_plan(10.0, 0, &mut r);
        let omega = match ctl.phase {
            Phase::Probing { omega, .. } => omega,
            ref p => panic!("expected Probing, got {p:?}"),
        };
        let (mut up, mut down) = (None, None);
        for _ in 0..4 {
            let issued = ctl.next_mi(0.0);
            match issued.purpose {
                Purpose::Probe { dir } if dir > 0 => up = Some(issued.rate),
                Purpose::Probe { dir } if dir < 0 => down = Some(issued.rate),
                p => panic!("expected a probe, got {p:?}"),
            }
            assert!(issued.rate >= MIN_RATE - 1e-9);
        }
        let (up, down) = (up.expect("an up probe"), down.expect("a down probe"));
        assert!(
            (up - down - 2.0 * omega).abs() < 1e-9,
            "probe pair collapsed at the floor: up {up}, down {down}, ω {omega}"
        );
    }

    #[test]
    fn amplifier_does_not_grow_while_pinned_at_clamp() {
        // Moving upward with the rate pinned at MAX_RATE: x never changes,
        // so there is no gradient signal. The confidence amplifier must
        // not keep growing against the clamp.
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        ctl.rate = MAX_RATE;
        ctl.phase = Phase::Moving {
            dir: 1.0,
            amplifier: 1,
            prev: (5.0, f64::MIN),
        };
        for _ in 0..10 {
            let issued = ctl.next_mi(0.0);
            ctl.on_report(good(issued.rate), MAX_RATE, &mut r);
        }
        match ctl.phase {
            Phase::Moving { amplifier, .. } => assert!(
                amplifier <= 2,
                "confidence built against the clamp: amplifier {amplifier}"
            ),
            ref p => panic!("expected to still be Moving, got {p:?}"),
        }
        assert!(ctl.rate() <= MAX_RATE + 1e-9);
    }

    #[test]
    fn rates_stay_within_bounds() {
        let mut ctl = SubflowCtl::new(StateConfig::default());
        let mut r = rng();
        // Start one doubling below the ceiling, so slow start presses
        // against MAX_RATE for most of the run.
        ctl.rate = MAX_RATE / 2.0;
        for _ in 0..50 {
            let issued = ctl.next_mi(0.0);
            assert!(issued.rate <= MAX_RATE + 1e-9);
            assert!(issued.rate >= MIN_RATE - 1e-9);
            ctl.on_report(good(issued.rate), ctl.rate(), &mut r);
        }
    }
}
