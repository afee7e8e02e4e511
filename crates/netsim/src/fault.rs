//! Deterministic per-link fault injection.
//!
//! The paper evaluates MPCC on live residential and cloud paths where
//! reordering, correlated burst loss and outright path outages are routine;
//! droptail queues plus Bernoulli loss never exercise the transport's
//! dupthresh, RTO and reinjection machinery adversarially. A [`FaultPlan`]
//! adds four composable fault processes to a link:
//!
//! * **reorder** — delivered packets occasionally pick up bounded extra
//!   propagation delay, so later packets overtake them;
//! * **duplicate** — delivered packets are occasionally delivered twice,
//!   the copy trailing the original;
//! * **burst** — Gilbert–Elliott two-state correlated loss (bursty, unlike
//!   the i.i.d. `random_loss` knob);
//! * **outage** — scheduled black-hole windows (optionally flapping):
//!   the link silently discards everything while a window is active.
//!
//! All randomness comes from a [`FaultState`]'s own [`SimRng`], forked from
//! the experiment seed per link, so fault draws never perturb the link's
//! `random_loss` stream and every run is reproducible. Outage windows are a
//! pure function of absolute simulation time, so mid-run parameter changes
//! can never revive packets a window already swallowed.

use mpcc_simcore::{SimDuration, SimRng, SimTime};

/// Bounded extra-delay jitter: with probability `p`, a packet leaving the
/// link picks up additional propagation delay uniform in `[1 ns, max_extra]`,
/// letting packets serialized after it arrive first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorderFault {
    /// Probability a delivered packet is delayed, in `[0, 1]`.
    pub p: f64,
    /// Upper bound on the extra delay.
    pub max_extra: SimDuration,
}

/// Packet duplication: with probability `p`, a delivered packet is
/// delivered twice; the copy arrives `[0, max_extra]` after the original.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DuplicateFault {
    /// Probability a delivered packet is duplicated, in `[0, 1]`.
    pub p: f64,
    /// Upper bound on how far the copy trails the original.
    pub max_extra: SimDuration,
}

/// Gilbert–Elliott correlated loss: a two-state (good/bad) Markov chain
/// advanced once per offered packet; packets offered in the bad state are
/// dropped with probability `loss`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// P(good → bad), evaluated per offered packet.
    pub p_enter: f64,
    /// P(bad → good), evaluated per offered packet.
    pub p_exit: f64,
    /// Drop probability while in the bad state.
    pub loss: f64,
}

/// Scheduled link outages: `count` black-hole windows of length `down`,
/// the k-th starting at `start + k * period`. While a window is active the
/// link silently discards every packet it is offered *and* every packet
/// finishing serialization — a path black-hole, not a polite drop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutageSchedule {
    /// Start of the first window.
    pub start: SimTime,
    /// Length of each window.
    pub down: SimDuration,
    /// Start-to-start spacing of consecutive windows (ignored when
    /// `count == 1`; must be ≥ `down` for windows not to overlap).
    pub period: SimDuration,
    /// Number of windows (≥ 1).
    pub count: u32,
}

impl OutageSchedule {
    /// A single outage window.
    pub fn once(start: SimTime, down: SimDuration) -> Self {
        OutageSchedule {
            start,
            down,
            period: SimDuration::ZERO,
            count: 1,
        }
    }

    /// A flapping link: `count` windows of length `down`, spaced `period`
    /// apart (start to start).
    pub fn flapping(start: SimTime, down: SimDuration, period: SimDuration, count: u32) -> Self {
        OutageSchedule {
            start,
            down,
            period,
            count: count.max(1),
        }
    }

    /// Whether an outage window is active at `t`. Purely functional —
    /// no latch to reset, so parameter changes cannot shift the windows.
    pub fn active_at(&self, t: SimTime) -> bool {
        if self.count == 0 || t < self.start {
            return false;
        }
        let rel = t.saturating_since(self.start).as_nanos();
        let down = self.down.as_nanos();
        let period = self.period.as_nanos();
        if self.count == 1 || period == 0 {
            return rel < down;
        }
        let k = rel / period;
        k < self.count as u64 && rel - k * period < down
    }

    /// End of the last window (when the link is guaranteed back up).
    pub fn end(&self) -> SimTime {
        let last_start = if self.count <= 1 {
            self.start
        } else {
            self.start + self.period.mul_f64((self.count - 1) as f64)
        };
        last_start + self.down
    }
}

/// The composable per-link fault configuration. `Copy` and embedded in
/// [`crate::link::LinkParams`], so fault plans travel wherever link
/// parameters do (topology builders, scheduled link changes, scenarios).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Extra-delay reordering.
    pub reorder: Option<ReorderFault>,
    /// Packet duplication.
    pub duplicate: Option<DuplicateFault>,
    /// Gilbert–Elliott burst loss.
    pub burst: Option<BurstLoss>,
    /// Scheduled outages / flapping.
    pub outage: Option<OutageSchedule>,
}

impl FaultPlan {
    /// The fault-free plan (every knob off).
    pub const NONE: FaultPlan = FaultPlan {
        reorder: None,
        duplicate: None,
        burst: None,
        outage: None,
    };

    /// `true` when no fault is configured.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::NONE
    }

    /// Adds a reordering fault.
    pub fn with_reorder(mut self, p: f64, max_extra: SimDuration) -> Self {
        self.reorder = Some(ReorderFault {
            p: p.clamp(0.0, 1.0),
            max_extra,
        });
        self
    }

    /// Adds a duplication fault.
    pub fn with_duplicate(mut self, p: f64, max_extra: SimDuration) -> Self {
        self.duplicate = Some(DuplicateFault {
            p: p.clamp(0.0, 1.0),
            max_extra,
        });
        self
    }

    /// Adds Gilbert–Elliott burst loss.
    pub fn with_burst(mut self, p_enter: f64, p_exit: f64, loss: f64) -> Self {
        self.burst = Some(BurstLoss {
            p_enter: p_enter.clamp(0.0, 1.0),
            p_exit: p_exit.clamp(0.0, 1.0),
            loss: loss.clamp(0.0, 1.0),
        });
        self
    }

    /// Adds an outage schedule.
    pub fn with_outage(mut self, outage: OutageSchedule) -> Self {
        self.outage = Some(outage);
        self
    }

    /// Overlays `other` on `self`: any knob set in `other` replaces the
    /// corresponding knob here (used by the CLI's global `--faults` spec).
    pub fn overlay(mut self, other: FaultPlan) -> Self {
        if other.reorder.is_some() {
            self.reorder = other.reorder;
        }
        if other.duplicate.is_some() {
            self.duplicate = other.duplicate;
        }
        if other.burst.is_some() {
            self.burst = other.burst;
        }
        if other.outage.is_some() {
            self.outage = other.outage;
        }
        self
    }

    /// Parses a fault spec such as
    /// `reorder:p=0.05,extra=20ms;dup:p=0.01;burst:enter=0.005,exit=0.25,loss=0.5;flap:at=5s,down=500ms,period=2s,count=4`.
    ///
    /// Clauses are separated by `;`; each is `<kind>:k=v,...`:
    ///
    /// * `reorder:p=<prob>,extra=<dur>`
    /// * `dup:p=<prob>[,extra=<dur>]` (default `extra=1ms`)
    /// * `burst:enter=<prob>,exit=<prob>[,loss=<prob>]` (default `loss=1`)
    /// * `outage:at=<time>,down=<dur>`
    /// * `flap:at=<time>,down=<dur>,period=<dur>,count=<n>`
    ///
    /// Durations/times take `ns`, `us`, `ms` or `s` suffixes.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::NONE;
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, body) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause {clause:?} is missing ':'"))?;
            let kv = |key: &str| -> Option<&str> {
                body.split(',').map(str::trim).find_map(|pair| {
                    pair.split_once('=')
                        .filter(|(k, _)| k.trim() == key)
                        .map(|(_, v)| v.trim())
                })
            };
            match kind.trim() {
                "reorder" => {
                    let p = parse_prob(kv("p").ok_or("reorder needs p=")?)?;
                    let extra = parse_duration(kv("extra").ok_or("reorder needs extra=")?)?;
                    plan = plan.with_reorder(p, extra);
                }
                "dup" => {
                    let p = parse_prob(kv("p").ok_or("dup needs p=")?)?;
                    let extra = match kv("extra") {
                        Some(v) => parse_duration(v)?,
                        None => SimDuration::from_millis(1),
                    };
                    plan = plan.with_duplicate(p, extra);
                }
                "burst" => {
                    let enter = parse_prob(kv("enter").ok_or("burst needs enter=")?)?;
                    let exit = parse_prob(kv("exit").ok_or("burst needs exit=")?)?;
                    let loss = match kv("loss") {
                        Some(v) => parse_prob(v)?,
                        None => 1.0,
                    };
                    plan = plan.with_burst(enter, exit, loss);
                }
                "outage" => {
                    let at = parse_duration(kv("at").ok_or("outage needs at=")?)?;
                    let down = parse_duration(kv("down").ok_or("outage needs down=")?)?;
                    plan = plan.with_outage(OutageSchedule::once(SimTime::ZERO + at, down));
                }
                "flap" => {
                    let at = parse_duration(kv("at").ok_or("flap needs at=")?)?;
                    let down = parse_duration(kv("down").ok_or("flap needs down=")?)?;
                    let period = parse_duration(kv("period").ok_or("flap needs period=")?)?;
                    let count: u32 = kv("count")
                        .ok_or("flap needs count=")?
                        .parse()
                        .map_err(|_| "flap count= must be an integer".to_string())?;
                    plan = plan.with_outage(OutageSchedule::flapping(
                        SimTime::ZERO + at,
                        down,
                        period,
                        count,
                    ));
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability {s:?} outside [0, 1]"))
    }
}

/// Parses a human duration spec (`"20ms"`, `"1.5s"`, `"250us"`, `"40ns"`)
/// — the same grammar the `--faults` knobs use, shared with the CLI's
/// `--metrics-bin` flag.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (num, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("duration {s:?} needs a ns/us/ms/s suffix"))?;
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration value {s:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration {s:?} must be non-negative"));
    }
    let ns = match unit {
        "ns" => v,
        "us" => v * 1e3,
        "ms" => v * 1e6,
        "s" => v * 1e9,
        other => return Err(format!("unknown duration unit {other:?}")),
    };
    Ok(SimDuration::from_nanos(ns.round() as u64))
}

/// What a completed serialization turns into once faults have spoken.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeliveryEffects {
    /// Extra propagation delay of the original packet (reordering).
    pub extra: SimDuration,
    /// When set, deliver a second copy this much later than the original.
    pub duplicate: Option<SimDuration>,
}

/// Mutable fault-process state attached to one [`crate::link::Link`]:
/// the fault RNG (forked per link from the experiment seed) and the
/// Gilbert–Elliott chain position. Survives parameter changes — only the
/// *plan* lives in `LinkParams`.
pub struct FaultState {
    rng: SimRng,
    in_bad: bool,
}

impl FaultState {
    /// Fresh state drawing from `rng`.
    pub fn new(rng: SimRng) -> Self {
        FaultState { rng, in_bad: false }
    }

    /// Replaces the fault RNG (used by [`crate::network::Simulation`] to
    /// install the per-link forked stream at link creation).
    pub fn reseed(&mut self, rng: SimRng) {
        self.rng = rng;
        self.in_bad = false;
    }

    /// Advances the Gilbert–Elliott chain one offered packet and reports
    /// whether the packet should be dropped. No-op without a burst config.
    pub fn burst_verdict(&mut self, plan: &FaultPlan) -> bool {
        let Some(burst) = plan.burst else {
            return false;
        };
        if self.in_bad {
            if self.rng.chance(burst.p_exit) {
                self.in_bad = false;
            }
        } else if self.rng.chance(burst.p_enter) {
            self.in_bad = true;
        }
        self.in_bad && self.rng.chance(burst.loss)
    }

    /// Draws the delivery-side effects (reordering, duplication) for one
    /// packet completing serialization. Draw order is fixed — reorder then
    /// duplicate — so traces are reproducible.
    pub fn delivery_effects(&mut self, plan: &FaultPlan) -> DeliveryEffects {
        let mut fx = DeliveryEffects::default();
        if let Some(re) = plan.reorder {
            if self.rng.chance(re.p) && !re.max_extra.is_zero() {
                fx.extra =
                    SimDuration::from_nanos(self.rng.range_u64(1, re.max_extra.as_nanos() + 1));
            }
        }
        if let Some(dup) = plan.duplicate {
            if self.rng.chance(dup.p) {
                let trail = if dup.max_extra.is_zero() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(self.rng.range_u64(0, dup.max_extra.as_nanos() + 1))
                };
                fx.duplicate = Some(trail);
            }
        }
        fx
    }
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(SimRng::seed_from_u64(0xFA17))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_windows_are_pure_functions_of_time() {
        let one = OutageSchedule::once(SimTime::from_secs(5), SimDuration::from_secs(2));
        assert!(!one.active_at(SimTime::from_millis(4_999)));
        assert!(one.active_at(SimTime::from_secs(5)));
        assert!(one.active_at(SimTime::from_millis(6_999)));
        assert!(!one.active_at(SimTime::from_secs(7)));
        assert_eq!(one.end(), SimTime::from_secs(7));

        let flap = OutageSchedule::flapping(
            SimTime::from_secs(10),
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
            3,
        );
        for k in 0..3u64 {
            let start = SimTime::from_secs(10) + SimDuration::from_secs(2).mul_f64(k as f64);
            assert!(flap.active_at(start), "window {k} start");
            assert!(
                flap.active_at(start + SimDuration::from_millis(499)),
                "window {k} interior"
            );
            assert!(
                !flap.active_at(start + SimDuration::from_millis(500)),
                "window {k} end"
            );
        }
        // Past the last window the link stays up forever.
        assert!(!flap.active_at(SimTime::from_secs(16)));
        assert!(!flap.active_at(SimTime::from_secs(1000)));
        assert_eq!(flap.end(), SimTime::from_millis(14_500));
    }

    #[test]
    fn burst_chain_produces_bursts_not_iid_loss() {
        let plan = FaultPlan::NONE.with_burst(0.01, 0.2, 1.0);
        let mut st = FaultState::new(SimRng::seed_from_u64(7));
        let verdicts: Vec<bool> = (0..20_000).map(|_| st.burst_verdict(&plan)).collect();
        let dropped = verdicts.iter().filter(|&&d| d).count();
        // Stationary bad fraction = enter / (enter + exit) ≈ 4.8%.
        let frac = dropped as f64 / verdicts.len() as f64;
        assert!((0.02..0.09).contains(&frac), "loss fraction {frac}");
        // Correlation: a drop is far more likely right after a drop than
        // the marginal rate (the whole point versus Bernoulli loss).
        let mut after_drop = 0;
        let mut after_drop_drop = 0;
        for w in verdicts.windows(2) {
            if w[0] {
                after_drop += 1;
                if w[1] {
                    after_drop_drop += 1;
                }
            }
        }
        let cond = after_drop_drop as f64 / after_drop as f64;
        assert!(cond > 3.0 * frac, "P(drop|drop) {cond} vs marginal {frac}");
    }

    #[test]
    fn delivery_effects_are_bounded_and_deterministic() {
        let plan = FaultPlan::NONE
            .with_reorder(0.5, SimDuration::from_millis(10))
            .with_duplicate(0.25, SimDuration::from_millis(2));
        let draw = |seed| -> Vec<DeliveryEffects> {
            let mut st = FaultState::new(SimRng::seed_from_u64(seed));
            (0..500).map(|_| st.delivery_effects(&plan)).collect()
        };
        let a = draw(3);
        assert_eq!(a, draw(3), "same seed, same effects");
        let reordered = a.iter().filter(|f| !f.extra.is_zero()).count();
        let duplicated = a.iter().filter(|f| f.duplicate.is_some()).count();
        assert!((150..350).contains(&reordered), "{reordered} reordered");
        assert!((60..190).contains(&duplicated), "{duplicated} duplicated");
        for fx in &a {
            assert!(fx.extra <= SimDuration::from_millis(10));
            if let Some(d) = fx.duplicate {
                assert!(d <= SimDuration::from_millis(2));
            }
        }
    }

    #[test]
    fn spec_parse_round_trips_every_knob() {
        let plan = FaultPlan::parse(
            "reorder:p=0.05,extra=20ms; dup:p=0.01,extra=500us; \
             burst:enter=0.005,exit=0.25,loss=0.5; flap:at=5s,down=500ms,period=2s,count=4",
        )
        .unwrap();
        assert_eq!(
            plan.reorder,
            Some(ReorderFault {
                p: 0.05,
                max_extra: SimDuration::from_millis(20)
            })
        );
        assert_eq!(
            plan.duplicate,
            Some(DuplicateFault {
                p: 0.01,
                max_extra: SimDuration::from_micros(500)
            })
        );
        assert_eq!(
            plan.burst,
            Some(BurstLoss {
                p_enter: 0.005,
                p_exit: 0.25,
                loss: 0.5
            })
        );
        assert_eq!(
            plan.outage,
            Some(OutageSchedule::flapping(
                SimTime::from_secs(5),
                SimDuration::from_millis(500),
                SimDuration::from_secs(2),
                4
            ))
        );

        let single = FaultPlan::parse("outage:at=3s,down=750ms").unwrap();
        assert_eq!(
            single.outage,
            Some(OutageSchedule::once(
                SimTime::from_secs(3),
                SimDuration::from_millis(750)
            ))
        );
        assert!(FaultPlan::parse("").unwrap().is_none());
        assert!(FaultPlan::parse("bogus:p=1").is_err());
        assert!(FaultPlan::parse("reorder:extra=1ms").is_err());
        assert!(FaultPlan::parse("reorder:p=2,extra=1ms").is_err());
        assert!(FaultPlan::parse("outage:at=3x,down=1s").is_err());
    }

    #[test]
    fn overlay_replaces_only_set_knobs() {
        let base = FaultPlan::NONE
            .with_reorder(0.1, SimDuration::from_millis(5))
            .with_burst(0.01, 0.3, 1.0);
        let cli = FaultPlan::NONE.with_reorder(0.5, SimDuration::from_millis(50));
        let merged = base.overlay(cli);
        assert_eq!(merged.reorder.unwrap().p, 0.5);
        assert_eq!(merged.burst, base.burst);
        assert!(merged.duplicate.is_none());
    }
}
