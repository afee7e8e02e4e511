//! Typed trace events and their deterministic serializations.
//!
//! Events carry raw integer identifiers (`conn` is the sender's endpoint
//! id, `subflow` the sender-local subflow index, `link` the link id) so
//! this crate depends on nothing but `mpcc-simcore`; the emitting layers
//! translate their own id types at the call site.

use mpcc_simcore::SimTime;
use std::fmt::Write as _;

/// The stack layer an event originates from. Used for filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// MPCC controller: monitor intervals, utility, rate decisions.
    Controller,
    /// Multipath transport: packets, ACKs, losses, RTOs, scheduling.
    Transport,
    /// Network links: queueing, drops, occupancy.
    Link,
    /// Runtime invariant checker: violations only (clean runs are silent).
    Check,
    /// Telemetry self-reporting: ring truncation markers and the like.
    /// Never emitted by the simulation itself, so enabling it cannot
    /// perturb traces or golden digests.
    Meta,
}

impl Layer {
    /// Lower-case name used in serialized records and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Controller => "controller",
            Layer::Transport => "transport",
            Layer::Link => "link",
            Layer::Check => "check",
            Layer::Meta => "meta",
        }
    }
}

/// A set of [`Layer`]s to record; everything else is filtered at the
/// emission site (before the event is even constructed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerMask(u8);

impl LayerMask {
    /// Record every layer.
    pub const ALL: LayerMask = LayerMask(0b11111);
    /// Record nothing.
    pub const NONE: LayerMask = LayerMask(0);

    /// A mask containing exactly one layer.
    pub fn only(layer: Layer) -> Self {
        LayerMask(Self::bit(layer))
    }

    /// Adds a layer to the mask.
    pub fn with(self, layer: Layer) -> Self {
        LayerMask(self.0 | Self::bit(layer))
    }

    /// Whether `layer` is recorded.
    pub fn contains(self, layer: Layer) -> bool {
        self.0 & Self::bit(layer) != 0
    }

    /// Parses a comma-separated filter such as `"controller,link"`.
    /// Unknown names are reported back as an error.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut mask = LayerMask::NONE;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            mask = match part {
                "controller" => mask.with(Layer::Controller),
                "transport" => mask.with(Layer::Transport),
                "link" => mask.with(Layer::Link),
                "check" => mask.with(Layer::Check),
                "meta" => mask.with(Layer::Meta),
                "all" => LayerMask::ALL,
                other => return Err(format!("unknown trace layer {other:?}")),
            };
        }
        Ok(mask)
    }

    fn bit(layer: Layer) -> u8 {
        match layer {
            Layer::Controller => 0b001,
            Layer::Transport => 0b010,
            Layer::Link => 0b100,
            Layer::Check => 0b1000,
            Layer::Meta => 0b10000,
        }
    }
}

/// Events emitted by the MPCC controller (per connection / subflow).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControllerEvent {
    /// A monitor interval began with the given issued rate.
    MiStart {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Rate issued for this MI, Mbps.
        rate_mbps: f64,
    },
    /// A monitor interval's report was processed.
    MiEnd {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Measured goodput over the MI, Mbps.
        goodput_mbps: f64,
        /// Loss rate observed over the MI.
        loss_rate: f64,
        /// Utility value computed from the MI report, if one was computed
        /// (ignored / discarded MIs produce none).
        utility: Option<f64>,
        /// What the controller decided (state-machine action label).
        action: &'static str,
    },
    /// The controller moved a subflow's target rate.
    RateStep {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Previous target rate, Mbps.
        from_mbps: f64,
        /// New target rate, Mbps.
        to_mbps: f64,
        /// Sign of the step (+1 up, -1 down, 0 unchanged) — the utility
        /// gradient direction the controller followed.
        gradient_sign: i8,
    },
    /// A rate was published to the shared rate board (visible to the
    /// connection's other subflows when computing aggregate utility).
    RatePublished {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Published rate, Mbps.
        rate_mbps: f64,
    },
}

/// Events emitted by the multipath transport (per connection / subflow).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransportEvent {
    /// A fresh data packet left the sender.
    Send {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Subflow-level sequence number.
        seq: u64,
        /// Data-level sequence number (connection byte offset).
        dsn: u64,
        /// Payload length, bytes.
        len: u64,
    },
    /// A previously-lost chunk was retransmitted (possibly on another
    /// subflow — multipath reinjection).
    Reinjection {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Subflow-level sequence number of the retransmission.
        seq: u64,
        /// Data-level sequence number being reinjected.
        dsn: u64,
        /// Payload length, bytes.
        len: u64,
    },
    /// An ACK advanced the subflow.
    Ack {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Bytes newly acknowledged by this ACK.
        acked_bytes: u64,
        /// RTT sample carried by this ACK, microseconds.
        rtt_us: u64,
    },
    /// The SACK scoreboard declared a chunk lost.
    SackLoss {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Subflow-level sequence number of the lost chunk.
        seq: u64,
        /// Data-level sequence number of the lost chunk.
        dsn: u64,
        /// Payload length, bytes.
        len: u64,
    },
    /// The retransmission timeout fired.
    RtoFired {
        /// Sender endpoint id.
        conn: u64,
        /// Sender-local subflow index.
        subflow: u32,
        /// Exponential-backoff level at the time the timer fired.
        backoff: u32,
    },
    /// The packet scheduler picked (or failed to pick) a subflow.
    SchedulerPick {
        /// Sender endpoint id.
        conn: u64,
        /// Length of the chunk being scheduled, bytes.
        chunk_len: u64,
        /// Chosen subflow index, or -1 if no subflow could take the chunk.
        picked: i64,
        /// Why: "assigned", "preferred_busy", or "blocked".
        reason: &'static str,
    },
}

/// Events emitted by network links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkEvent {
    /// A packet was admitted to the link's droptail queue.
    Enqueue {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
        /// Queue occupancy after admission, bytes.
        queued_bytes: u64,
    },
    /// A packet was dropped because the queue was full.
    DropOverflow {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
        /// Queue occupancy at the time of the drop, bytes.
        queued_bytes: u64,
    },
    /// A packet was dropped by the random-loss process.
    DropRandom {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
    },
    /// A packet was dropped by the Gilbert–Elliott burst-loss fault.
    DropBurst {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
    },
    /// A packet was black-holed by a scheduled outage window (at admission
    /// or when its serialization completed during the outage).
    DropOutage {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
    },
    /// The reordering fault delayed a delivered packet.
    FaultReorder {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
        /// Extra delay added on top of the propagation delay, nanoseconds.
        extra_delay_ns: u64,
    },
    /// The duplication fault delivered an extra copy of a packet.
    FaultDuplicate {
        /// Link id.
        link: u32,
        /// Packet size, bytes.
        bytes: u64,
        /// How far the copy trails the original, nanoseconds.
        extra_delay_ns: u64,
    },
    /// The simulator clamped an event scheduled in the past up to `now`.
    ///
    /// This is a warning: a correct model never schedules into the past, and
    /// debug builds panic instead. In release builds the schedule is clamped
    /// (preserving monotonic time) and this event reports the running count.
    ClockClamp {
        /// Total clamped schedules observed so far in this simulation.
        count: u64,
    },
}

/// Events emitted by the runtime invariant checker (`mpcc-check`).
///
/// Clean runs never construct one of these: the checker is silent unless
/// an invariant actually fails, so enabling the check layer leaves traces
/// byte-identical on healthy scenarios.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckEvent {
    /// A runtime invariant did not hold.
    Violation {
        /// Name of the violated invariant (static catalog label, e.g.
        /// `"scoreboard_conservation"`).
        invariant: &'static str,
        /// Sender endpoint id, or the link id for link-layer invariants.
        conn: u64,
        /// Sender-local subflow index, or -1 when not applicable.
        subflow: i64,
        /// The value the checker observed.
        observed: f64,
        /// The bound or value the invariant required.
        expected: f64,
    },
}

/// Events emitted by the telemetry layer about itself.
///
/// These are synthesized by sinks (never by the simulation), so recording
/// them cannot perturb event order, RNG consumption, or golden digests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetaEvent {
    /// A bounded ring sink overflowed and evicted records. Emitted once
    /// per drain, stamped with the time of the first eviction.
    RingTruncated {
        /// Records evicted since the ring was created (or last drained).
        dropped: u64,
    },
}

/// Any event from any layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// Controller-layer event.
    Controller(ControllerEvent),
    /// Transport-layer event.
    Transport(TransportEvent),
    /// Link-layer event.
    Link(LinkEvent),
    /// Invariant-checker event.
    Check(CheckEvent),
    /// Telemetry self-reporting event.
    Meta(MetaEvent),
}

impl From<ControllerEvent> for TraceEvent {
    fn from(e: ControllerEvent) -> Self {
        TraceEvent::Controller(e)
    }
}
impl From<TransportEvent> for TraceEvent {
    fn from(e: TransportEvent) -> Self {
        TraceEvent::Transport(e)
    }
}
impl From<LinkEvent> for TraceEvent {
    fn from(e: LinkEvent) -> Self {
        TraceEvent::Link(e)
    }
}
impl From<CheckEvent> for TraceEvent {
    fn from(e: CheckEvent) -> Self {
        TraceEvent::Check(e)
    }
}
impl From<MetaEvent> for TraceEvent {
    fn from(e: MetaEvent) -> Self {
        TraceEvent::Meta(e)
    }
}

/// One field of a serialized event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (finite; serialized with shortest round-trip formatting).
    F64(f64),
    /// Optional float; `None` serializes as JSON `null`.
    OptF64(Option<f64>),
    /// Static label.
    Str(&'static str),
}

impl Field {
    fn write_json(self, out: &mut String) {
        match self {
            Field::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Field::I64(v) => {
                let _ = write!(out, "{v}");
            }
            // `{:?}` is Rust's shortest round-trip float formatting: it is
            // deterministic and re-parses to the same bits, which keeps
            // same-seed traces byte-identical.
            Field::F64(v) => {
                let _ = write!(out, "{v:?}");
            }
            Field::OptF64(Some(v)) => {
                let _ = write!(out, "{v:?}");
            }
            Field::OptF64(None) => out.push_str("null"),
            Field::Str(s) => {
                // Labels are static identifiers; no escaping needed, but
                // quote them as JSON strings.
                let _ = write!(out, "\"{s}\"");
            }
        }
    }
}

impl TraceEvent {
    /// The layer this event belongs to.
    pub fn layer(&self) -> Layer {
        match self {
            TraceEvent::Controller(_) => Layer::Controller,
            TraceEvent::Transport(_) => Layer::Transport,
            TraceEvent::Link(_) => Layer::Link,
            TraceEvent::Check(_) => Layer::Check,
            TraceEvent::Meta(_) => Layer::Meta,
        }
    }

    /// The event's snake_case type tag (`"mi_start"`, `"rto_fired"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Controller(e) => match e {
                ControllerEvent::MiStart { .. } => "mi_start",
                ControllerEvent::MiEnd { .. } => "mi_end",
                ControllerEvent::RateStep { .. } => "rate_step",
                ControllerEvent::RatePublished { .. } => "rate_published",
            },
            TraceEvent::Transport(e) => match e {
                TransportEvent::Send { .. } => "send",
                TransportEvent::Reinjection { .. } => "reinjection",
                TransportEvent::Ack { .. } => "ack",
                TransportEvent::SackLoss { .. } => "sack_loss",
                TransportEvent::RtoFired { .. } => "rto_fired",
                TransportEvent::SchedulerPick { .. } => "scheduler_pick",
            },
            TraceEvent::Link(e) => match e {
                LinkEvent::Enqueue { .. } => "enqueue",
                LinkEvent::DropOverflow { .. } => "drop_overflow",
                LinkEvent::DropRandom { .. } => "drop_random",
                LinkEvent::DropBurst { .. } => "drop_burst",
                LinkEvent::DropOutage { .. } => "drop_outage",
                LinkEvent::FaultReorder { .. } => "fault_reorder",
                LinkEvent::FaultDuplicate { .. } => "fault_duplicate",
                LinkEvent::ClockClamp { .. } => "clock_clamp",
            },
            TraceEvent::Check(e) => match e {
                CheckEvent::Violation { .. } => "check_violation",
            },
            TraceEvent::Meta(e) => match e {
                MetaEvent::RingTruncated { .. } => "ring_truncated",
            },
        }
    }

    /// The event's payload as ordered `(name, value)` pairs, in the order
    /// the JSONL serializer writes them.
    pub fn fields(&self) -> Vec<(&'static str, Field)> {
        use Field::{OptF64, Str, F64, I64, U64};
        match self {
            TraceEvent::Controller(e) => match *e {
                ControllerEvent::MiStart {
                    conn,
                    subflow,
                    rate_mbps,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("rate_mbps", F64(rate_mbps)),
                ],
                ControllerEvent::MiEnd {
                    conn,
                    subflow,
                    goodput_mbps,
                    loss_rate,
                    utility,
                    action,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("goodput_mbps", F64(goodput_mbps)),
                    ("loss_rate", F64(loss_rate)),
                    ("utility", OptF64(utility)),
                    ("action", Str(action)),
                ],
                ControllerEvent::RateStep {
                    conn,
                    subflow,
                    from_mbps,
                    to_mbps,
                    gradient_sign,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("from_mbps", F64(from_mbps)),
                    ("to_mbps", F64(to_mbps)),
                    ("gradient_sign", I64(gradient_sign as i64)),
                ],
                ControllerEvent::RatePublished {
                    conn,
                    subflow,
                    rate_mbps,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("rate_mbps", F64(rate_mbps)),
                ],
            },
            TraceEvent::Transport(e) => match *e {
                TransportEvent::Send {
                    conn,
                    subflow,
                    seq,
                    dsn,
                    len,
                }
                | TransportEvent::Reinjection {
                    conn,
                    subflow,
                    seq,
                    dsn,
                    len,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("seq", U64(seq)),
                    ("dsn", U64(dsn)),
                    ("len", U64(len)),
                ],
                TransportEvent::Ack {
                    conn,
                    subflow,
                    acked_bytes,
                    rtt_us,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("acked_bytes", U64(acked_bytes)),
                    ("rtt_us", U64(rtt_us)),
                ],
                TransportEvent::SackLoss {
                    conn,
                    subflow,
                    seq,
                    dsn,
                    len,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("seq", U64(seq)),
                    ("dsn", U64(dsn)),
                    ("len", U64(len)),
                ],
                TransportEvent::RtoFired {
                    conn,
                    subflow,
                    backoff,
                } => vec![
                    ("conn", U64(conn)),
                    ("subflow", U64(subflow as u64)),
                    ("backoff", U64(backoff as u64)),
                ],
                TransportEvent::SchedulerPick {
                    conn,
                    chunk_len,
                    picked,
                    reason,
                } => vec![
                    ("conn", U64(conn)),
                    ("chunk_len", U64(chunk_len)),
                    ("picked", I64(picked)),
                    ("reason", Str(reason)),
                ],
            },
            TraceEvent::Link(e) => match *e {
                LinkEvent::Enqueue {
                    link,
                    bytes,
                    queued_bytes,
                }
                | LinkEvent::DropOverflow {
                    link,
                    bytes,
                    queued_bytes,
                } => vec![
                    ("link", U64(link as u64)),
                    ("bytes", U64(bytes)),
                    ("queued_bytes", U64(queued_bytes)),
                ],
                LinkEvent::DropRandom { link, bytes }
                | LinkEvent::DropBurst { link, bytes }
                | LinkEvent::DropOutage { link, bytes } => {
                    vec![("link", U64(link as u64)), ("bytes", U64(bytes))]
                }
                LinkEvent::FaultReorder {
                    link,
                    bytes,
                    extra_delay_ns,
                }
                | LinkEvent::FaultDuplicate {
                    link,
                    bytes,
                    extra_delay_ns,
                } => vec![
                    ("link", U64(link as u64)),
                    ("bytes", U64(bytes)),
                    ("extra_delay_ns", U64(extra_delay_ns)),
                ],
                LinkEvent::ClockClamp { count } => vec![("count", U64(count))],
            },
            TraceEvent::Check(e) => match *e {
                CheckEvent::Violation {
                    invariant,
                    conn,
                    subflow,
                    observed,
                    expected,
                } => vec![
                    ("invariant", Str(invariant)),
                    ("conn", U64(conn)),
                    ("subflow", I64(subflow)),
                    ("observed", F64(observed)),
                    ("expected", F64(expected)),
                ],
            },
            TraceEvent::Meta(e) => match *e {
                MetaEvent::RingTruncated { dropped } => vec![("dropped", U64(dropped))],
            },
        }
    }
}

/// One sim-time-stamped trace record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Simulation time the event occurred.
    pub t: SimTime,
    /// The event itself.
    pub event: TraceEvent,
}

impl Record {
    /// Serializes the record as one JSONL line (no trailing newline).
    ///
    /// The format is stable and fully deterministic:
    /// `{"t_ns":N,"layer":"...","type":"...",<fields…>}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"layer\":\"{}\",\"type\":\"{}\"",
            self.t.as_nanos(),
            self.event.layer().name(),
            self.event.kind()
        );
        for (name, value) in self.event.fields() {
            let _ = write!(out, ",\"{name}\":");
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_mask_parse() {
        assert_eq!(LayerMask::parse("all").unwrap(), LayerMask::ALL);
        assert_eq!(LayerMask::parse("").unwrap(), LayerMask::NONE);
        let m = LayerMask::parse("controller, link").unwrap();
        assert!(m.contains(Layer::Controller));
        assert!(!m.contains(Layer::Transport));
        assert!(m.contains(Layer::Link));
        assert!(LayerMask::parse("bogus").is_err());
    }

    #[test]
    fn jsonl_is_stable() {
        let rec = Record {
            t: SimTime::from_micros(1500),
            event: ControllerEvent::MiEnd {
                conn: 1,
                subflow: 0,
                goodput_mbps: 93.5,
                loss_rate: 0.0,
                utility: None,
                action: "ignored",
            }
            .into(),
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"t_ns\":1500000,\"layer\":\"controller\",\"type\":\"mi_end\",\
             \"conn\":1,\"subflow\":0,\"goodput_mbps\":93.5,\"loss_rate\":0.0,\
             \"utility\":null,\"action\":\"ignored\"}"
        );
    }

    #[test]
    fn check_violation_serializes() {
        let rec = Record {
            t: SimTime::from_nanos(42),
            event: CheckEvent::Violation {
                invariant: "mi_resolution",
                conn: 2,
                subflow: 1,
                observed: 5.0,
                expected: 4.0,
            }
            .into(),
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"t_ns\":42,\"layer\":\"check\",\"type\":\"check_violation\",\
             \"invariant\":\"mi_resolution\",\"conn\":2,\"subflow\":1,\
             \"observed\":5.0,\"expected\":4.0}"
        );
        assert!(LayerMask::ALL.contains(Layer::Check));
        assert!(LayerMask::parse("check").unwrap().contains(Layer::Check));
    }

    #[test]
    fn meta_truncation_marker_serializes() {
        let rec = Record {
            t: SimTime::from_nanos(9),
            event: MetaEvent::RingTruncated { dropped: 17 }.into(),
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"t_ns\":9,\"layer\":\"meta\",\"type\":\"ring_truncated\",\"dropped\":17}"
        );
        assert!(LayerMask::ALL.contains(Layer::Meta));
        assert!(LayerMask::parse("meta").unwrap().contains(Layer::Meta));
    }
}
