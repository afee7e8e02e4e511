//! The streaming metrics pipeline: folds the trace-event stream into
//! per-subflow / per-connection / per-link time-binned series with bounded
//! memory, writing each finished bin's rows straight to a writer.
//!
//! Design invariants, matching the rest of the telemetry crate:
//!
//! * **Bounded memory.** Aggregation state is one fixed-size bin per live
//!   entity (histograms included). Each finished row is formatted into one
//!   reused `String` and written to the writer at once, so output costs one
//!   row plus whatever buffer the writer keeps (give it a `BufWriter` for a
//!   file).
//! * **Deterministic output.** Rows are emitted in a fixed order on every
//!   bin close (subflows, then connections, then links, then check
//!   invariants, each in `BTreeMap` order), floats use shortest
//!   round-trip formatting, and nothing depends on wall clock — so
//!   flushed series from the same seed are byte-identical across runs
//!   and `--jobs` counts.
//! * **Observation-free.** The pipeline is a [`TraceSink`]: it only ever
//!   consumes records, so attaching it cannot perturb simulated results.

use crate::event::{ControllerEvent, LinkEvent, Record, TraceEvent, TransportEvent};
use crate::sink::TraceSink;
use crate::stats::Histogram;
use mpcc_simcore::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;

/// Configuration for a [`MetricsPipeline`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Time-bin width; one row per active entity is flushed per bin.
    pub bin: SimDuration,
    /// Run id stamped into every row (distinguishes runs in merged files).
    pub run: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            bin: SimDuration::from_secs(1),
            run: 0,
        }
    }
}

impl PipelineConfig {
    /// Sets the bin width (zero-width bins are clamped to 1 ns).
    pub fn with_bin(mut self, bin: SimDuration) -> Self {
        self.bin = bin;
        self
    }

    /// Sets the run id stamped into every row.
    pub fn with_run(mut self, run: u64) -> Self {
        self.run = run;
        self
    }
}

/// One bin of per-subflow transport + controller-rate aggregates.
#[derive(Default)]
struct SubflowBin {
    active: bool,
    sends: u64,
    send_bytes: u64,
    reinjections: u64,
    reinj_bytes: u64,
    acks: u64,
    acked_bytes: u64,
    sack_losses: u64,
    rtos: u64,
    /// Last rate published by the controller inside this bin, Mbps.
    rate_mbps: Option<f64>,
    rtt_us: Histogram,
}

impl SubflowBin {
    fn reset(&mut self) {
        self.active = false;
        self.sends = 0;
        self.send_bytes = 0;
        self.reinjections = 0;
        self.reinj_bytes = 0;
        self.acks = 0;
        self.acked_bytes = 0;
        self.sack_losses = 0;
        self.rtos = 0;
        self.rate_mbps = None;
        self.rtt_us.clear();
    }
}

/// One bin of per-connection controller/scheduler aggregates.
#[derive(Default)]
struct ConnBin {
    active: bool,
    mi_started: u64,
    mi_completed: u64,
    rate_steps: u64,
    mi_goodput_sum: f64,
    mi_loss_sum: f64,
    /// MI outcome counts keyed by the controller's action label
    /// (`"decided"`, `"ignored"`, …) — the state-machine occupancy.
    actions: BTreeMap<&'static str, u64>,
    /// Scheduler pick counts keyed by reason.
    picks: BTreeMap<&'static str, u64>,
}

impl ConnBin {
    fn reset(&mut self) {
        self.active = false;
        self.mi_started = 0;
        self.mi_completed = 0;
        self.rate_steps = 0;
        self.mi_goodput_sum = 0.0;
        self.mi_loss_sum = 0.0;
        // Keys are retained (they are few and static); only counts reset,
        // and zero counts are skipped at serialization time.
        self.actions.values_mut().for_each(|v| *v = 0);
        self.picks.values_mut().for_each(|v| *v = 0);
    }
}

/// One bin of per-link queue/drop aggregates.
#[derive(Default)]
struct LinkBin {
    active: bool,
    enqueued: u64,
    enq_bytes: u64,
    drop_overflow: u64,
    drop_random: u64,
    drop_burst: u64,
    drop_outage: u64,
    reordered: u64,
    duplicated: u64,
    queue_bytes_last: u64,
    queue_bytes_max: u64,
}

impl LinkBin {
    fn reset(&mut self) {
        // Plain counters only: wholesale reset allocates nothing.
        *self = LinkBin::default();
    }
}

/// Serializes one metrics row as JSONL:
/// `{"t_ns":N,"run":R,"scope":"...",<fields…>}`.
struct RowBuf<'a> {
    out: &'a mut String,
}

impl<'a> RowBuf<'a> {
    fn begin(out: &'a mut String, t_ns: u64, run: u64, scope: &str) -> Self {
        let _ = write!(out, "{{\"t_ns\":{t_ns},\"run\":{run},\"scope\":\"{scope}\"");
        RowBuf { out }
    }

    fn u64(&mut self, k: &str, v: u64) {
        let _ = write!(self.out, ",\"{k}\":{v}");
    }

    /// `u64` with a two-part key (`prefix` + `name`), written without
    /// building an intermediate key string.
    fn prefixed_u64(&mut self, prefix: &str, name: &str, v: u64) {
        let _ = write!(self.out, ",\"{prefix}{name}\":{v}");
    }

    /// Shortest round-trip float formatting — deterministic, re-parses to
    /// the same bits (the same convention as trace records).
    fn f64(&mut self, k: &str, v: f64) {
        let _ = write!(self.out, ",\"{k}\":{v:?}");
    }

    fn str(&mut self, k: &str, v: &str) {
        let _ = write!(self.out, ",\"{k}\":\"{v}\"");
    }

    fn end(self) {
        self.out.push('}');
    }
}

/// First 16 bytes of an invariant name as two big-endian words — a sort
/// key whose order matches lexicographic name order (names never contain
/// NUL, so zero padding sorts shorter names first). Names that share
/// their first 16 bytes would collide, which is acceptable: clean runs
/// emit no check rows at all, and the existing invariant names are
/// distinct well before that.
fn name_key(name: &str) -> (u64, u64) {
    let mut b = [0u8; 16];
    let n = name.len().min(16);
    b[..n].copy_from_slice(&name.as_bytes()[..n]);
    (
        u64::from_be_bytes(b[..8].try_into().expect("8-byte slice")),
        u64::from_be_bytes(b[8..].try_into().expect("8-byte slice")),
    )
}

struct PipeInner {
    bin_ns: u64,
    run: u64,
    /// Bin currently being filled (`None` until the first record).
    cur_bin: Option<u64>,
    subflows: BTreeMap<(u64, u32), SubflowBin>,
    conns: BTreeMap<u64, ConnBin>,
    links: BTreeMap<u32, LinkBin>,
    checks: BTreeMap<&'static str, u64>,
    /// The row being formatted, reused for every row.
    row: String,
    lines_written: u64,
    /// Keyed part-stream mode: each row is prefixed with its
    /// `(t_ns, rank, a, b, 0, 0)` sort key, tab-separated from the
    /// payload, so per-shard part files merge deterministically
    /// ([`crate::keyed::merge_keyed_parts`]). Rank orders the scopes the
    /// way `close_bin` emits them (subflow < conn < link < check), and
    /// `(a, b)` is the entity id in `BTreeMap` iteration order — so a
    /// single keyed part is already in key order, and the merged union
    /// of per-shard parts reproduces the unkeyed 1-instance byte stream.
    keyed: bool,
    w: Box<dyn Write + Send>,
}

impl PipeInner {
    /// Formats one row and writes it, newline-terminated, to the writer.
    fn emit(
        &mut self,
        t_ns: u64,
        scope: &str,
        key: (u64, u64, u64),
        f: impl FnOnce(&mut RowBuf<'_>),
    ) {
        self.row.clear();
        if self.keyed {
            let (rank, a, b) = key;
            let _ = write!(self.row, "{t_ns} {rank} {a} {b} 0 0\t");
        }
        let mut row = RowBuf::begin(&mut self.row, t_ns, self.run, scope);
        f(&mut row);
        row.end();
        self.row.push('\n');
        let _ = self.w.write_all(self.row.as_bytes());
        self.lines_written += 1;
    }

    /// Flushes every active entity's row for bin `idx` and resets the bin
    /// state in place (allocations retained).
    fn close_bin(&mut self, idx: u64) {
        // Rows are stamped with the bin's *end* time: the instant by which
        // everything aggregated into the row had happened.
        let t_ns = (idx + 1).saturating_mul(self.bin_ns);
        let bin_secs = self.bin_ns as f64 / 1e9;

        let mut subflows = std::mem::take(&mut self.subflows);
        for (&(conn, subflow), b) in subflows.iter_mut() {
            if !b.active {
                continue;
            }
            self.emit(t_ns, "subflow", (0, conn, subflow as u64), |row| {
                row.u64("conn", conn);
                row.u64("subflow", subflow as u64);
                row.u64("sends", b.sends);
                row.u64("send_bytes", b.send_bytes);
                row.u64("reinjections", b.reinjections);
                row.u64("reinj_bytes", b.reinj_bytes);
                row.u64("acks", b.acks);
                row.u64("acked_bytes", b.acked_bytes);
                row.f64("goodput_mbps", b.acked_bytes as f64 * 8.0 / bin_secs / 1e6);
                row.u64("sack_losses", b.sack_losses);
                row.u64("rtos", b.rtos);
                if let Some(r) = b.rate_mbps {
                    row.f64("rate_mbps", r);
                }
                row.u64("rtt_count", b.rtt_us.count());
                if b.rtt_us.count() > 0 {
                    row.f64("rtt_p50_us", b.rtt_us.p50());
                    row.f64("rtt_p95_us", b.rtt_us.p95());
                    row.f64("rtt_p99_us", b.rtt_us.p99());
                    row.f64("rtt_p999_us", b.rtt_us.p999());
                }
            });
            b.reset();
        }
        self.subflows = subflows;

        let mut conns = std::mem::take(&mut self.conns);
        for (&conn, b) in conns.iter_mut() {
            if !b.active {
                continue;
            }
            self.emit(t_ns, "conn", (1, conn, 0), |row| {
                row.u64("conn", conn);
                row.u64("mi_started", b.mi_started);
                row.u64("mi_completed", b.mi_completed);
                row.u64("rate_steps", b.rate_steps);
                if b.mi_completed > 0 {
                    let n = b.mi_completed as f64;
                    row.f64("mi_goodput_mbps_avg", b.mi_goodput_sum / n);
                    row.f64("mi_loss_rate_avg", b.mi_loss_sum / n);
                }
                // One column per MI outcome / pick reason actually seen
                // this bin (`BTreeMap` order, so deterministic).
                for (&label, &n) in b.actions.iter().filter(|(_, &n)| n > 0) {
                    row.prefixed_u64("act_", label, n);
                }
                for (&reason, &n) in b.picks.iter().filter(|(_, &n)| n > 0) {
                    row.prefixed_u64("pick_", reason, n);
                }
            });
            b.reset();
        }
        self.conns = conns;

        let mut links = std::mem::take(&mut self.links);
        for (&link, b) in links.iter_mut() {
            if !b.active {
                continue;
            }
            self.emit(t_ns, "link", (2, link as u64, 0), |row| {
                row.u64("link", link as u64);
                row.u64("enqueued", b.enqueued);
                row.u64("enq_bytes", b.enq_bytes);
                row.f64("throughput_mbps", b.enq_bytes as f64 * 8.0 / bin_secs / 1e6);
                row.u64("drop_overflow", b.drop_overflow);
                row.u64("drop_random", b.drop_random);
                row.u64("drop_burst", b.drop_burst);
                row.u64("drop_outage", b.drop_outage);
                row.u64("reordered", b.reordered);
                row.u64("duplicated", b.duplicated);
                row.u64("queue_bytes_last", b.queue_bytes_last);
                row.u64("queue_bytes_max", b.queue_bytes_max);
            });
            b.reset();
        }
        self.links = links;

        let mut checks = std::mem::take(&mut self.checks);
        for (&invariant, n) in checks.iter_mut().filter(|(_, n)| **n > 0) {
            let (a, b) = name_key(invariant);
            self.emit(t_ns, "check", (3, a, b), |row| {
                row.str("invariant", invariant);
                row.u64("count", *n);
            });
            *n = 0;
        }
        self.checks = checks;
    }
}

/// A [`TraceSink`] that folds trace events into time-binned metrics rows.
///
/// See the module docs for the memory and determinism guarantees. Attach
/// it to a [`crate::Tracer`] (optionally via a [`crate::TeeSink`] next to
/// a full-fidelity trace sink); `Tracer::flush` at the end of a run closes
/// the final bin and flushes the writer.
pub struct MetricsPipeline {
    inner: Mutex<PipeInner>,
}

impl MetricsPipeline {
    /// A pipeline writing JSONL rows to `w`. With `keyed`, every row is
    /// prefixed with its `(t_ns, scope-rank, entity)` sort key (see
    /// [`crate::keyed`]), for per-shard pipelines whose outputs are merged
    /// deterministically.
    pub fn new(cfg: PipelineConfig, keyed: bool, w: Box<dyn Write + Send>) -> Self {
        MetricsPipeline {
            inner: Mutex::new(PipeInner {
                bin_ns: cfg.bin.as_nanos().max(1),
                run: cfg.run,
                cur_bin: None,
                subflows: BTreeMap::new(),
                conns: BTreeMap::new(),
                links: BTreeMap::new(),
                checks: BTreeMap::new(),
                row: String::new(),
                lines_written: 0,
                keyed,
                w,
            }),
        }
    }

    /// Total rows written to the underlying writer so far.
    pub fn lines_written(&self) -> u64 {
        self.inner.lock().expect("pipeline poisoned").lines_written
    }
}

impl TraceSink for MetricsPipeline {
    fn record(&self, rec: &Record) {
        let mut g = self.inner.lock().expect("pipeline poisoned");
        let idx = rec.t.as_nanos() / g.bin_ns;
        match g.cur_bin {
            None => g.cur_bin = Some(idx),
            Some(cur) if idx > cur => {
                g.close_bin(cur);
                g.cur_bin = Some(idx);
            }
            // Simulation time is monotonic, so idx < cur cannot happen for
            // live traces; replayed/merged streams fold stragglers into
            // the current bin rather than corrupting closed ones.
            Some(_) => {}
        }
        match rec.event {
            TraceEvent::Transport(e) => match e {
                TransportEvent::Send {
                    conn, subflow, len, ..
                } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.sends += 1;
                    b.send_bytes += len;
                }
                TransportEvent::Reinjection {
                    conn, subflow, len, ..
                } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.reinjections += 1;
                    b.reinj_bytes += len;
                }
                TransportEvent::Ack {
                    conn,
                    subflow,
                    acked_bytes,
                    rtt_us,
                } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.acks += 1;
                    b.acked_bytes += acked_bytes;
                    b.rtt_us.record(rtt_us as f64);
                }
                TransportEvent::SackLoss { conn, subflow, .. } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.sack_losses += 1;
                }
                TransportEvent::RtoFired { conn, subflow, .. } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.rtos += 1;
                }
                TransportEvent::SchedulerPick { conn, reason, .. } => {
                    let b = g.conns.entry(conn).or_default();
                    b.active = true;
                    *b.picks.entry(reason).or_insert(0) += 1;
                }
            },
            TraceEvent::Controller(e) => match e {
                ControllerEvent::MiStart { conn, .. } => {
                    let b = g.conns.entry(conn).or_default();
                    b.active = true;
                    b.mi_started += 1;
                }
                ControllerEvent::MiEnd {
                    conn,
                    goodput_mbps,
                    loss_rate,
                    action,
                    ..
                } => {
                    let b = g.conns.entry(conn).or_default();
                    b.active = true;
                    b.mi_completed += 1;
                    b.mi_goodput_sum += goodput_mbps;
                    b.mi_loss_sum += loss_rate;
                    *b.actions.entry(action).or_insert(0) += 1;
                }
                ControllerEvent::RateStep { conn, .. } => {
                    let b = g.conns.entry(conn).or_default();
                    b.active = true;
                    b.rate_steps += 1;
                }
                ControllerEvent::RatePublished {
                    conn,
                    subflow,
                    rate_mbps,
                } => {
                    let b = g.subflows.entry((conn, subflow)).or_default();
                    b.active = true;
                    b.rate_mbps = Some(rate_mbps);
                }
            },
            TraceEvent::Link(e) => match e {
                LinkEvent::Enqueue {
                    link,
                    bytes,
                    queued_bytes,
                } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.enqueued += 1;
                    b.enq_bytes += bytes;
                    b.queue_bytes_last = queued_bytes;
                    b.queue_bytes_max = b.queue_bytes_max.max(queued_bytes);
                }
                LinkEvent::DropOverflow { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.drop_overflow += 1;
                }
                LinkEvent::DropRandom { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.drop_random += 1;
                }
                LinkEvent::DropBurst { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.drop_burst += 1;
                }
                LinkEvent::DropOutage { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.drop_outage += 1;
                }
                LinkEvent::FaultReorder { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.reordered += 1;
                }
                LinkEvent::FaultDuplicate { link, .. } => {
                    let b = g.links.entry(link).or_default();
                    b.active = true;
                    b.duplicated += 1;
                }
                LinkEvent::ClockClamp { .. } => {}
            },
            TraceEvent::Check(crate::event::CheckEvent::Violation { invariant, .. }) => {
                *g.checks.entry(invariant).or_insert(0) += 1;
            }
            // Telemetry self-reports are not simulation activity.
            TraceEvent::Meta(_) => {}
        }
    }

    fn flush(&self) {
        let mut g = self.inner.lock().expect("pipeline poisoned");
        if let Some(cur) = g.cur_bin {
            // Idempotent: the close resets every `active` flag, so a
            // second flush emits nothing new.
            g.close_bin(cur);
        }
        let _ = g.w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckEvent;
    use mpcc_simcore::SimTime;
    use std::io;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer whose output the test can read back after the pipeline
    /// takes ownership.
    #[derive(Clone, Default)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn at(ms: u64, event: impl Into<TraceEvent>) -> Record {
        Record {
            t: SimTime::from_millis(ms),
            event: event.into(),
        }
    }

    fn ack(ms: u64, bytes: u64, rtt_us: u64) -> Record {
        at(
            ms,
            TransportEvent::Ack {
                conn: 1,
                subflow: 0,
                acked_bytes: bytes,
                rtt_us,
            },
        )
    }

    #[test]
    fn bins_fold_and_rows_are_ordered() {
        let buf = Shared::default();
        let p = MetricsPipeline::new(
            PipelineConfig::default().with_run(3),
            false,
            Box::new(buf.clone()),
        );
        // Bin 0: one ACK, one MI end, one drop, one violation.
        p.record(&ack(100, 3000, 25_000));
        p.record(&at(
            200,
            ControllerEvent::MiEnd {
                conn: 1,
                subflow: 0,
                goodput_mbps: 12.0,
                loss_rate: 0.0,
                utility: Some(1.0),
                action: "decided",
            },
        ));
        p.record(&at(
            300,
            LinkEvent::DropOverflow {
                link: 2,
                bytes: 1500,
                queued_bytes: 9000,
            },
        ));
        p.record(&at(
            400,
            CheckEvent::Violation {
                invariant: "demo",
                conn: 1,
                subflow: 0,
                observed: 1.0,
                expected: 0.0,
            },
        ));
        // Bin 1: a second ACK, which closes bin 0.
        p.record(&ack(1100, 6000, 30_000));
        p.flush();
        p.flush(); // idempotent: must add nothing

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Bin 0: subflow, conn, link, check rows; bin 1: subflow row.
        assert_eq!(lines.len(), 5, "rows:\n{text}");
        assert_eq!(
            lines[0],
            "{\"t_ns\":1000000000,\"run\":3,\"scope\":\"subflow\",\"conn\":1,\
             \"subflow\":0,\"sends\":0,\"send_bytes\":0,\"reinjections\":0,\
             \"reinj_bytes\":0,\"acks\":1,\"acked_bytes\":3000,\
             \"goodput_mbps\":0.024,\"sack_losses\":0,\"rtos\":0,\
             \"rtt_count\":1,\"rtt_p50_us\":25000.0,\"rtt_p95_us\":25000.0,\
             \"rtt_p99_us\":25000.0,\"rtt_p999_us\":25000.0}"
        );
        assert!(lines[1].contains("\"scope\":\"conn\"") && lines[1].contains("\"act_decided\":1"));
        assert!(
            lines[2].contains("\"scope\":\"link\"") && lines[2].contains("\"drop_overflow\":1")
        );
        assert!(
            lines[3].contains("\"scope\":\"check\"") && lines[3].contains("\"invariant\":\"demo\"")
        );
        assert!(lines[4].starts_with("{\"t_ns\":2000000000") && lines[4].contains("\"acks\":1"));
    }

    #[test]
    fn ring_stays_bounded_over_many_bins() {
        let buf = Shared::default();
        let p = MetricsPipeline::new(PipelineConfig::default(), false, Box::new(buf.clone()));
        for bin in 0..1000u64 {
            p.record(&ack(bin * 1000 + 1, 1500, 20_000));
        }
        p.flush();
        assert_eq!(p.lines_written(), 1000);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1000);
    }

    #[test]
    fn keyed_mode_prefixes_rows_and_keeps_payload_bytes() {
        let plain = Shared::default();
        let keyed = Shared::default();
        for (buf, keyed_mode) in [(&plain, false), (&keyed, true)] {
            let p =
                MetricsPipeline::new(PipelineConfig::default(), keyed_mode, Box::new(buf.clone()));
            p.record(&ack(100, 3000, 25_000));
            p.record(&at(
                200,
                ControllerEvent::RateStep {
                    conn: 1,
                    subflow: 0,
                    from_mbps: 1.0,
                    to_mbps: 5.0,
                    gradient_sign: 1,
                },
            ));
            p.flush();
        }
        let plain = String::from_utf8(plain.0.lock().unwrap().clone()).unwrap();
        let keyed = String::from_utf8(keyed.0.lock().unwrap().clone()).unwrap();
        let keys: Vec<&str> = keyed
            .lines()
            .map(|l| l.split_once('\t').unwrap().0)
            .collect();
        // subflow rank 0 keyed by (conn, subflow); conn rank 1 by (conn, 0).
        assert_eq!(keys, ["1000000000 0 1 0 0 0", "1000000000 1 1 0 0 0"]);
        // Stripping the prefixes reproduces the unkeyed bytes exactly.
        let stripped: String = keyed
            .lines()
            .map(|l| format!("{}\n", l.split_once('\t').unwrap().1))
            .collect();
        assert_eq!(stripped, plain);
    }
}
