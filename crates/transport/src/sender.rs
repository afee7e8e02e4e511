//! The multipath sender endpoint.
//!
//! `MpSender` owns the connection's subflows, one congestion controller for
//! the whole connection, the scheduler, and the send-side connection state.
//! It implements [`Endpoint`], reacting to ACK arrivals and its own pacing /
//! monitor-interval / retransmission timers — under whichever driver
//! (simulated or real) hands it a [`HostCtx`].

use crate::connection::{ConnSend, Workload};
use crate::controller::{AckInfo, LossInfo, MultipathCc};
use crate::io::{Endpoint, HostCtx};
use crate::sack::bw_sample;
use crate::scheduler::{self, SchedulerKind};
use crate::subflow::{Subflow, SubflowStats};
use crate::wire::{DataHeader, EndpointId, Header, Packet, PathId, MSS_PAYLOAD, MSS_WIRE};
use mpcc_simcore::{Rate, SimDuration, SimTime};
use mpcc_telemetry::{Layer, Tracer, TransportEvent};
use std::any::Any;

/// Per-packet header overhead on the wire (IP + TCP + MPTCP DSS).
const HEADER_OVERHEAD: u64 = MSS_WIRE - MSS_PAYLOAD;

/// Monitor intervals report strictly in order, so a subflow whose
/// feedback stalls completely (e.g. an entire startup burst dropped, with
/// the first RTO still pending) accumulates closed-but-unresolved
/// intervals behind the stuck front one — at datacenter MI lengths the
/// queue can grow by hundreds of entries per second. Past this backlog
/// the MI expiry extends the running interval instead of opening another
/// empty one; the next ACK or RTO drains the queue and the following
/// expiry resumes the normal cycle. Ordinary pipelines stay single-digit
/// deep (resolution lags close by about one RTT), so this only engages
/// during a genuine feedback blackout.
const MAX_MI_BACKLOG: usize = 64;

/// Timer token kinds (packed into the high bits of the token).
const K_PACE: u64 = 1;
const K_MI: u64 = 2;
const K_RTO: u64 = 3;
const K_START: u64 = 4;
const K_APP: u64 = 5;

/// Timer-token field layout: bits 63–60 kind, 59–48 subflow, 47–0 epoch.
const SF_MASK: u64 = 0xFFF;
const EPOCH_MASK: u64 = 0xFFFF_FFFF_FFFF;

fn token(kind: u64, sf: usize, epoch: u64) -> u64 {
    debug_assert!(kind <= 0xF, "timer kind {kind} overflows its 4-bit field");
    debug_assert!(
        sf as u64 <= SF_MASK,
        "subflow index {sf} overflows the 12-bit token field"
    );
    // The epoch is a monotonic counter that can legitimately pass 2^48 on
    // very long runs; it truncates here, and every consumer compares the
    // token against its live counter through `epoch_matches` (masking both
    // sides), so truncation cannot strand a live timer.
    (kind << 60) | ((sf as u64 & SF_MASK) << 48) | (epoch & EPOCH_MASK)
}

fn untoken(token: u64) -> (u64, usize, u64) {
    (
        token >> 60,
        ((token >> 48) & SF_MASK) as usize,
        token & EPOCH_MASK,
    )
}

/// `true` when a token's (truncated) epoch refers to the live counter
/// value `current`. Both sides must be masked: comparing a truncated token
/// against an untruncated counter would declare every timer stale once the
/// counter crosses the 48-bit boundary.
fn epoch_matches(token_epoch: u64, current: u64) -> bool {
    token_epoch == current & EPOCH_MASK
}

/// Static configuration of a multipath sender.
#[derive(Clone, Debug)]
pub struct SenderConfig {
    /// The peer (receiver) endpoint.
    pub dst: EndpointId,
    /// One path per subflow.
    pub paths: Vec<PathId>,
    /// What to transfer.
    pub workload: Workload,
    /// Packet scheduler policy.
    pub scheduler: SchedulerKind,
    /// When the connection starts transmitting.
    pub start_at: SimTime,
    /// The peer's receive buffer (the paper sets 300 MB so flow control
    /// never interferes).
    pub peer_buffer: u64,
}

impl SenderConfig {
    /// A bulk transfer starting at time zero with the paper's OS settings.
    pub fn bulk(dst: EndpointId, paths: Vec<PathId>) -> Self {
        SenderConfig {
            dst,
            paths,
            workload: Workload::Bulk,
            scheduler: SchedulerKind::Default,
            start_at: SimTime::ZERO,
            peer_buffer: 300_000_000,
        }
    }

    /// A fixed-size transfer.
    pub fn file(dst: EndpointId, paths: Vec<PathId>, bytes: u64) -> Self {
        SenderConfig {
            workload: Workload::Finite(bytes),
            ..SenderConfig::bulk(dst, paths)
        }
    }

    /// Replaces the scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the assumed peer receive buffer.
    pub fn with_peer_buffer(mut self, bytes: u64) -> Self {
        self.peer_buffer = bytes;
        self
    }
}

/// A multipath sender endpoint.
pub struct MpSender {
    cfg: SenderConfig,
    cc: Box<dyn MultipathCc>,
    rate_based: bool,
    uses_mi: bool,
    subflows: Vec<Subflow>,
    conn: ConnSend,
    started: bool,
    done: bool,
    tracer: Tracer,
    conn_id: u64,
    /// Reusable scheduler-input buffer (the staging loop runs per ACK and
    /// must not allocate).
    view_buf: Vec<scheduler::SubflowView>,
    /// Measurement-interval reports delivered to the controller over the
    /// connection lifetime; a liveness probe for the MI cycle.
    mi_reports: u64,
    /// Invariant-check cadence counter: the O(n) scoreboard deep scan runs
    /// every 64th check call, the O(1) conservation law on every call.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    check_tick: u64,
}

impl MpSender {
    /// Creates a sender driving `cc` over the configured paths.
    pub fn new(cfg: SenderConfig, cc: Box<dyn MultipathCc>) -> Self {
        assert!(!cfg.paths.is_empty(), "a connection needs ≥ 1 subflow");
        let rate_based = cc.is_rate_based();
        let uses_mi = cc.uses_mi();
        let conn = ConnSend::new(cfg.workload, cfg.peer_buffer, cfg.start_at);
        MpSender {
            cfg,
            cc,
            rate_based,
            uses_mi,
            subflows: Vec::new(),
            conn,
            started: false,
            done: false,
            tracer: Tracer::off(),
            conn_id: 0,
            view_buf: Vec::new(),
            mi_reports: 0,
            #[cfg(any(debug_assertions, feature = "invariants"))]
            check_tick: 0,
        }
    }

    /// Resets this sender for a new connection over `paths`, reusing every
    /// internal allocation (subflows, scoreboards, range sets, buffers).
    ///
    /// Returns `false` — leaving the sender untouched — when the
    /// controller does not support in-place reset (see
    /// [`MultipathCc::reset_for_reuse`]); such a sender cannot be recycled,
    /// and callers that pool senders (churn) assert the result. On success
    /// the sender is exactly as if newly constructed with the same
    /// scheduler and peer-buffer settings: not started, so the driver's
    /// `start` runs the usual `begin` path.
    pub fn reset_for_reuse(
        &mut self,
        dst: EndpointId,
        paths: &[PathId],
        workload: Workload,
        start_at: SimTime,
    ) -> bool {
        if !self.cc.reset_for_reuse() {
            return false;
        }
        assert!(!paths.is_empty(), "a connection needs ≥ 1 subflow");
        self.cfg.dst = dst;
        self.cfg.paths.clear();
        self.cfg.paths.extend_from_slice(paths);
        self.cfg.workload = workload;
        self.cfg.start_at = start_at;
        self.conn
            .reset_for_reuse(workload, self.cfg.peer_buffer, start_at);
        self.started = false;
        self.done = false;
        self.tracer = Tracer::off();
        self.conn_id = 0;
        self.view_buf.clear();
        self.mi_reports = 0;
        #[cfg(any(debug_assertions, feature = "invariants"))]
        {
            self.check_tick = 0;
        }
        true
    }

    /// Number of subflows.
    pub fn num_subflows(&self) -> usize {
        self.cfg.paths.len()
    }

    /// Statistics snapshot of subflow `i` as of `now` (time-windowed
    /// quantities such as the minimum RTT are pruned against it).
    pub fn subflow_stats(&self, i: usize, now: SimTime) -> SubflowStats {
        self.subflows[i].stats(now)
    }

    /// Closed-but-unresolved measurement intervals queued on subflow `i`.
    /// Bounded by `MAX_MI_BACKLOG` during feedback blackouts; exposed so
    /// regression tests can pin the bound.
    pub fn mi_backlog(&self, i: usize) -> usize {
        self.subflows[i].mi.pending_len()
    }

    /// Total measurement-interval reports delivered to the controller.
    /// Growth proves the close→resolve→report cycle is alive.
    pub fn mi_reports(&self) -> u64 {
        self.mi_reports
    }

    /// In-order bytes the receiver has confirmed delivered.
    pub fn data_acked(&self) -> u64 {
        self.conn.data_acked()
    }

    /// Flow completion time, if the workload finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.conn.fct()
    }

    /// `true` once a finite workload has completed.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// Access to the controller for protocol-specific inspection.
    pub fn cc(&self) -> &dyn MultipathCc {
        self.cc.as_ref()
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn begin(&mut self, ctx: &mut dyn HostCtx) {
        self.started = true;
        // Adopt the simulation's tracer; the sender's endpoint id names
        // the connection in every event from here down, including the
        // controller's (which receives the handle via `set_tracer`).
        self.tracer = ctx.tracer().clone();
        self.conn_id = ctx.self_id().0 as u64;
        self.cc.set_tracer(self.tracer.clone(), self.conn_id);
        let now = ctx.now();
        // A recycled sender (`reset_for_reuse`) re-enters here with its
        // previous subflows still allocated; reset them in place rather
        // than rebuilding, so churn workloads stay off the allocator.
        if self.subflows.len() != self.cfg.paths.len() {
            self.subflows.clear();
        }
        let reuse = !self.subflows.is_empty();
        for (i, &path) in self.cfg.paths.iter().enumerate() {
            // A-priori RTT estimate from the driver (propagation delays in
            // the simulator, a configured hint on a socket driver).
            let base_rtt = ctx.path_base_rtt(path);
            if reuse {
                self.subflows[i].reset_for_reuse(path, base_rtt);
            } else {
                self.subflows.push(Subflow::new(path, base_rtt));
            }
            self.cc.init_subflow(i, now);
        }
        self.refresh_cc_cache();
        if self.uses_mi {
            for i in 0..self.subflows.len() {
                self.begin_mi(i, ctx);
            }
        }
        self.arm_app_timer(ctx);
        self.pump(ctx);
    }

    /// For paced (application-limited) workloads: wake up at the next data
    /// release so staging resumes even when no ACKs are pending.
    fn arm_app_timer(&mut self, ctx: &mut dyn HostCtx) {
        if let Some(at) = self.conn.next_release(ctx.now()) {
            ctx.set_timer(at, token(K_APP, 0, 0));
        }
    }

    fn begin_mi(&mut self, sf: usize, ctx: &mut dyn HostCtx) {
        let now = ctx.now();
        let rate = self.cc.begin_mi(sf, now);
        let subflow = &mut self.subflows[sf];
        let next_seq = subflow.scoreboard.next_seq();
        let id = subflow.mi.begin(rate, now, next_seq);
        subflow.pacing_rate = rate;
        let srtt = subflow.srtt();
        let dur = self.cc.mi_duration(sf, srtt, ctx.rng());
        self.refresh_cc_cache();
        ctx.set_timer(now + dur, token(K_MI, sf, id));
        self.deliver_mi_reports(sf, now);
    }

    fn deliver_mi_reports(&mut self, sf: usize, now: SimTime) {
        let before = self.mi_reports;
        while let Some(report) = self.subflows[sf].mi.pop_completed(sf, now) {
            self.check_mi_report(&report, now);
            self.cc.on_mi_complete(&report);
            self.mi_reports += 1;
        }
        if self.mi_reports != before {
            self.refresh_cc_cache();
        }
    }

    /// Re-reads every subflow's window and rate estimate from the
    /// controller into the subflow, so [`Self::cwnd_of`] and
    /// [`Self::rate_of`] are field reads. Called after every mutating
    /// controller call and every RTT sample (the window depends on the
    /// smoothed RTT). All subflows are refreshed, not just the one the
    /// call named: a coupled controller's update on one subflow can move
    /// another's window.
    fn refresh_cc_cache(&mut self) {
        for (i, subflow) in self.subflows.iter_mut().enumerate() {
            let srtt = subflow.srtt();
            subflow.cwnd_bytes = self.cc.cwnd_bytes(i, srtt);
            subflow.rate_estimate = self.cc.rate_estimate(i, srtt);
        }
    }

    // ------------------------------------------------------------------
    // Runtime invariant checks (compiled in debug builds and under the
    // `invariants` feature; empty inline no-ops otherwise). See
    // crates/check and DESIGN.md §12 for the invariant catalog.
    // ------------------------------------------------------------------

    /// Scoreboard invariants for `sf`: the O(1) conservation law — every
    /// assigned sequence number is in exactly one of {acked, lost, live
    /// outstanding} — on every call, plus an O(n) structural deep scan
    /// every 64th call.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn check_subflow(&mut self, sf: usize, now: SimTime) {
        use mpcc_telemetry::CheckEvent;
        let sb = &self.subflows[sf].scoreboard;
        if let Some((observed, expected)) = sb.conservation_violation() {
            mpcc_check::fail(
                &self.tracer,
                now,
                CheckEvent::Violation {
                    invariant: "scoreboard_conservation",
                    conn: self.conn_id,
                    subflow: sf as i64,
                    observed: observed as f64,
                    expected: expected as f64,
                },
            );
        }
        self.check_tick = self.check_tick.wrapping_add(1);
        if self.check_tick.is_multiple_of(64) {
            if let Some((invariant, observed, expected)) =
                self.subflows[sf].scoreboard.deep_violation()
            {
                mpcc_check::fail(
                    &self.tracer,
                    now,
                    CheckEvent::Violation {
                        invariant,
                        conn: self.conn_id,
                        subflow: sf as i64,
                        observed,
                        expected,
                    },
                );
            }
        }
    }

    #[cfg(not(any(debug_assertions, feature = "invariants")))]
    #[inline(always)]
    fn check_subflow(&mut self, _sf: usize, _now: SimTime) {}

    /// Per-MI accounting invariants: at most one resolution per packet
    /// (`acked + lost ≤ sent`) and goodput bounded by the commanded rate
    /// (×1.05, plus two packets of pacing slack at interval boundaries).
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn check_mi_report(&self, report: &crate::controller::MiReport, now: SimTime) {
        use mpcc_telemetry::CheckEvent;
        if report.acked_packets + report.lost_packets > report.sent_packets {
            mpcc_check::fail(
                &self.tracer,
                now,
                CheckEvent::Violation {
                    invariant: "mi_resolution",
                    conn: self.conn_id,
                    subflow: report.subflow as i64,
                    observed: (report.acked_packets + report.lost_packets) as f64,
                    expected: report.sent_packets as f64,
                },
            );
        }
        let commanded = report.rate.bytes_in(report.duration);
        let bound = commanded * 1.05 + 2.0 * MSS_PAYLOAD as f64;
        if report.acked_bytes as f64 > bound {
            mpcc_check::fail(
                &self.tracer,
                now,
                CheckEvent::Violation {
                    invariant: "mi_goodput_bound",
                    conn: self.conn_id,
                    subflow: report.subflow as i64,
                    observed: report.acked_bytes as f64,
                    expected: bound,
                },
            );
        }
    }

    #[cfg(not(any(debug_assertions, feature = "invariants")))]
    #[inline(always)]
    fn check_mi_report(&self, _report: &crate::controller::MiReport, _now: SimTime) {}

    fn cwnd_of(&self, sf: usize) -> u64 {
        let subflow = &self.subflows[sf];
        debug_assert_eq!(
            subflow.cwnd_bytes,
            self.cc.cwnd_bytes(sf, subflow.srtt()),
            "stale cached cwnd on subflow {sf}"
        );
        subflow.cwnd_bytes
    }

    fn rate_of(&self, sf: usize) -> Rate {
        let subflow = &self.subflows[sf];
        if self.rate_based && !subflow.pacing_rate.is_zero() {
            subflow.pacing_rate
        } else {
            debug_assert_eq!(
                subflow.rate_estimate,
                self.cc.rate_estimate(sf, subflow.srtt()),
                "stale cached rate estimate on subflow {sf}"
            );
            subflow.rate_estimate
        }
    }

    /// Assigns data to subflows per the scheduler and triggers transmission.
    fn pump(&mut self, ctx: &mut dyn HostCtx) {
        if self.done || !self.started {
            return;
        }
        // Staging loop: one chunk per iteration. The scheduler-input
        // buffer is recycled across calls so the loop never allocates.
        let mut views = std::mem::take(&mut self.view_buf);
        loop {
            views.clear();
            for i in 0..self.subflows.len() {
                views.push(self.subflows[i].view(self.cwnd_of(i), self.rate_of(i)));
            }
            let pick = scheduler::pick(self.cfg.scheduler, &views, MSS_PAYLOAD);
            self.tracer.emit_with(Layer::Transport, ctx.now(), || {
                let (picked, reason) = match pick {
                    scheduler::Pick::Assign(sf) => (sf as i64, "assigned"),
                    scheduler::Pick::PreferredBusy => (-1, "preferred_busy"),
                    scheduler::Pick::Blocked => (-1, "blocked"),
                };
                TransportEvent::SchedulerPick {
                    conn: self.conn_id,
                    chunk_len: MSS_PAYLOAD,
                    picked,
                    reason,
                }
            });
            let sf = match pick {
                scheduler::Pick::Assign(sf) => sf,
                // PreferredBusy: the kernel keeps data at the connection
                // level rather than diverting past an available low-RTT
                // subflow; we retry at the next transmission opportunity.
                scheduler::Pick::PreferredBusy | scheduler::Pick::Blocked => break,
            };
            let Some(chunk) = self.conn.pop_chunk(MSS_PAYLOAD, ctx.now()) else {
                if self.uses_mi {
                    // The sender is application-limited; flag open MIs so
                    // the controller can discount their statistics.
                    for subflow in &mut self.subflows {
                        if subflow.staged.is_empty() && subflow.scoreboard.inflight_bytes() == 0 {
                            subflow.mi.mark_app_limited();
                        }
                    }
                }
                break;
            };
            self.subflows[sf].stage(chunk);
            if !self.rate_based {
                // ACK-clocked: transmit immediately (eligibility already
                // guaranteed window space for this chunk).
                self.send_one(sf, ctx);
            }
        }
        self.view_buf = views;
        if self.rate_based {
            for sf in 0..self.subflows.len() {
                self.arm_pacer(sf, ctx);
            }
        }
    }

    /// Transmits the head of `sf`'s staging queue, if the window allows.
    fn send_one(&mut self, sf: usize, ctx: &mut dyn HostCtx) -> bool {
        let cwnd = self.cwnd_of(sf);
        let now = ctx.now();
        let subflow = &mut self.subflows[sf];
        let Some(head) = subflow.staged.front() else {
            return false;
        };
        if subflow.scoreboard.inflight_bytes() + head.len > cwnd {
            return false;
        }
        let chunk = subflow.unstage().expect("head exists");
        let seq = subflow
            .scoreboard
            .on_send(chunk, chunk.len + HEADER_OVERHEAD, now);
        subflow.sent_bytes += chunk.len;
        let header = Header::Data(DataHeader {
            subflow: sf as u32,
            seq,
            dsn: chunk.dsn,
            payload_len: chunk.len,
            sent_at: now,
            is_retransmission: chunk.retx,
        });
        let path = subflow.path;
        ctx.send(path, self.cfg.dst, chunk.len + HEADER_OVERHEAD, header);
        self.tracer.emit_with(Layer::Transport, now, || {
            let (conn, subflow) = (self.conn_id, sf as u32);
            let (seq, dsn, len) = (seq, chunk.dsn, chunk.len);
            if chunk.retx {
                TransportEvent::Reinjection {
                    conn,
                    subflow,
                    seq,
                    dsn,
                    len,
                }
            } else {
                TransportEvent::Send {
                    conn,
                    subflow,
                    seq,
                    dsn,
                    len,
                }
            }
        });
        self.arm_rto(sf, ctx);
        true
    }

    fn arm_pacer(&mut self, sf: usize, ctx: &mut dyn HostCtx) {
        let cwnd = self.cwnd_of(sf);
        let subflow = &mut self.subflows[sf];
        if self.done || subflow.pacer_armed {
            return;
        }
        // Only arm when a send could actually happen: the window can shrink
        // below inflight (e.g. BBR's ProbeRTT), in which case the next ACK
        // re-arms us instead — arming now would spin at the current instant.
        match subflow.staged.front() {
            Some(head) if subflow.scoreboard.inflight_bytes() + head.len <= cwnd => {}
            _ => return,
        }
        let at = subflow.next_send_at.max(ctx.now());
        subflow.pacer_epoch += 1;
        subflow.pacer_armed = true;
        ctx.set_timer(at, token(K_PACE, sf, subflow.pacer_epoch));
    }

    fn on_pace(&mut self, sf: usize, epoch: u64, ctx: &mut dyn HostCtx) {
        {
            let subflow = &mut self.subflows[sf];
            if !epoch_matches(epoch, subflow.pacer_epoch) {
                return; // stale timer
            }
            subflow.pacer_armed = false;
        }
        if self.done {
            return;
        }
        if self.send_one(sf, ctx) {
            let now = ctx.now();
            let subflow = &mut self.subflows[sf];
            let rate = if subflow.pacing_rate.is_zero() {
                Rate::from_kbps(50.0) // floor to keep the pacer alive
            } else {
                subflow.pacing_rate
            };
            subflow.next_send_at = now + rate.serialize_time(MSS_WIRE);
        }
        // Refill staging and re-arm (send_one may have been window-blocked,
        // in which case the ACK path re-arms us instead).
        self.pump(ctx);
    }

    fn arm_rto(&mut self, sf: usize, ctx: &mut dyn HostCtx) {
        let now = ctx.now();
        let subflow = &mut self.subflows[sf];
        if subflow.scoreboard.inflight_bytes() == 0 {
            subflow.rto_deadline = SimTime::MAX;
            return;
        }
        subflow.rto_deadline = now + subflow.rto_interval();
        if !subflow.rto_armed {
            subflow.rto_armed = true;
            ctx.set_timer(subflow.rto_deadline, token(K_RTO, sf, 0));
        }
    }

    fn on_rto_timer(&mut self, sf: usize, ctx: &mut dyn HostCtx) {
        let now = ctx.now();
        {
            let subflow = &mut self.subflows[sf];
            subflow.rto_armed = false;
            if self.done || subflow.scoreboard.inflight_bytes() == 0 {
                return;
            }
            if now < subflow.rto_deadline {
                // The deadline moved forward since this event was armed.
                subflow.rto_armed = true;
                let deadline = subflow.rto_deadline;
                ctx.set_timer(deadline, token(K_RTO, sf, 0));
                return;
            }
        }
        // Genuine timeout: everything outstanding is lost.
        self.tracer
            .emit_with(Layer::Transport, now, || TransportEvent::RtoFired {
                conn: self.conn_id,
                subflow: sf as u32,
                backoff: self.subflows[sf].rto_backoff,
            });
        let lost = self.subflows[sf].scoreboard.on_rto();
        for (seq, meta) in &lost {
            self.conn.requeue(meta.chunk);
            if self.uses_mi {
                self.subflows[sf].mi.on_lost(*seq);
            }
        }
        self.subflows[sf].scoreboard.recycle_lost(lost);
        self.subflows[sf].rto_backoff = (self.subflows[sf].rto_backoff * 2).min(16);
        self.subflows[sf].recovery_until = self.subflows[sf].scoreboard.next_seq();
        self.cc.on_rto(sf, now);
        self.refresh_cc_cache();
        self.check_subflow(sf, now);
        if self.uses_mi {
            self.deliver_mi_reports(sf, now);
        }
        self.pump(ctx);
        self.arm_rto(sf, ctx);
    }

    fn on_ack(&mut self, pkt: &Packet, ctx: &mut dyn HostCtx) {
        let ack = *pkt.ack().expect("sender receives ACKs");
        let sf = ack.subflow as usize;
        if sf >= self.subflows.len() {
            return;
        }
        let now = ctx.now();

        // Scoreboard + RTT.
        let outcome = self.subflows[sf].scoreboard.on_ack(&ack, now);
        if let Some(rtt) = outcome.rtt_sample {
            self.subflows[sf].rtt.on_sample(rtt, now);
            self.subflows[sf].rto_backoff = 1;
        }
        if !outcome.acked.is_empty() {
            self.tracer
                .emit_with(Layer::Transport, now, || TransportEvent::Ack {
                    conn: self.conn_id,
                    subflow: sf as u32,
                    acked_bytes: outcome.acked_bytes,
                    rtt_us: outcome
                        .rtt_sample
                        .unwrap_or_else(|| self.subflows[sf].rtt.latest())
                        .as_nanos()
                        / 1_000,
                });
        }
        // Monitor-interval attribution (per-packet RTT = now - send time,
        // exact for the packet that triggered this ACK, a slight
        // overestimate for ranges recovered via SACK blocks). The
        // scoreboard hands over each sequence number once, as acked here
        // or as lost below or on RTO, so the MIs count it once.
        if self.uses_mi {
            for (seq, meta) in &outcome.acked {
                let rtt = now.saturating_since(meta.sent_at);
                self.subflows[sf]
                    .mi
                    .on_acked(*seq, meta.sent_at, rtt, meta.chunk.len);
            }
        }

        // Loss detection.
        let losses = self.subflows[sf].scoreboard.detect_losses();
        let mut congestion_event = false;
        for (seq, meta) in &losses {
            self.tracer
                .emit_with(Layer::Transport, now, || TransportEvent::SackLoss {
                    conn: self.conn_id,
                    subflow: sf as u32,
                    seq: *seq,
                    dsn: meta.chunk.dsn,
                    len: meta.chunk.len,
                });
            self.conn.requeue(meta.chunk);
            if self.uses_mi {
                self.subflows[sf].mi.on_lost(*seq);
            }
            if *seq >= self.subflows[sf].recovery_until {
                congestion_event = true;
            }
        }
        if congestion_event {
            self.subflows[sf].recovery_until = self.subflows[sf].scoreboard.next_seq();
        }

        // Controller callbacks.
        if !outcome.acked.is_empty() {
            let delivered = self.subflows[sf].scoreboard.delivered_bytes();
            let bw = outcome
                .acked
                .iter()
                .find(|(seq, _)| *seq == ack.ack_seq)
                .or_else(|| outcome.acked.last())
                .map(|(_, meta)| bw_sample(meta, delivered, now))
                .unwrap_or(Rate::ZERO);
            let info = AckInfo {
                subflow: sf,
                now,
                acked_packets: outcome.acked.len() as u64,
                acked_bytes: outcome.acked_bytes,
                rtt: outcome
                    .rtt_sample
                    .unwrap_or_else(|| self.subflows[sf].rtt.latest()),
                srtt: self.subflows[sf].srtt(),
                min_rtt: self.subflows[sf].rtt.min_rtt(now),
                bw_sample: bw,
                inflight_bytes: self.subflows[sf].scoreboard.inflight_bytes(),
            };
            self.cc.on_ack(&info);
        }
        if congestion_event {
            let info = LossInfo {
                subflow: sf,
                now,
                lost_packets: losses.len() as u64,
                inflight_bytes: self.subflows[sf].scoreboard.inflight_bytes(),
            };
            self.cc.on_loss(&info);
        }
        // One refresh covers the RTT sample and both callbacks above.
        self.refresh_cc_cache();

        // Hand both buffers back so the next ACK reuses their capacity.
        self.subflows[sf].scoreboard.recycle_lost(losses);
        self.subflows[sf].scoreboard.recycle(outcome);

        self.check_subflow(sf, now);

        // Data-level progress / completion.
        if self.conn.on_data_ack(ack.data_acked, ack.rcv_window, now) {
            self.done = true;
            return;
        }

        if self.uses_mi {
            self.deliver_mi_reports(sf, now);
        } else if self.rate_based {
            // Continuous rate controllers (BBR) update pacing on every ACK.
            if let Some(rate) = self.cc.pacing_rate(sf) {
                self.subflows[sf].pacing_rate = rate;
            }
        }

        self.arm_rto(sf, ctx);
        self.pump(ctx);
    }
}

impl Endpoint for MpSender {
    fn start(&mut self, ctx: &mut dyn HostCtx) {
        if self.cfg.start_at > ctx.now() {
            let at = self.cfg.start_at;
            ctx.set_timer(at, token(K_START, 0, 0));
        } else {
            self.begin(ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
        if pkt.ack().is_some() {
            self.on_ack(&pkt, ctx);
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut dyn HostCtx) {
        let (kind, sf, epoch) = untoken(tok);
        match kind {
            K_START => {
                if !self.started {
                    self.begin(ctx);
                }
            }
            K_PACE => self.on_pace(sf, epoch, ctx),
            K_MI => {
                if self.done || !self.uses_mi {
                    return;
                }
                // Stale if a different MI is already running.
                let current = self.subflows[sf].mi.current_id();
                if current.is_none_or(|id| !epoch_matches(epoch, id)) {
                    return;
                }
                if self.subflows[sf].mi.pending_len() >= MAX_MI_BACKLOG {
                    // Feedback blackout (see MAX_MI_BACKLOG): extend the
                    // running interval rather than deepen the queue.
                    let now = ctx.now();
                    let srtt = self.subflows[sf].srtt();
                    let dur = self.cc.mi_duration(sf, srtt, ctx.rng());
                    self.refresh_cc_cache();
                    ctx.set_timer(now + dur, token(K_MI, sf, current.expect("checked above")));
                    return;
                }
                self.begin_mi(sf, ctx);
                self.pump(ctx);
            }
            K_RTO => self.on_rto_timer(sf, ctx),
            K_APP => {
                if !self.done && self.started {
                    self.arm_app_timer(ctx);
                    self.pump(ctx);
                }
            }
            _ => unreachable!("unknown timer token kind {kind}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips_at_field_boundaries() {
        for kind in [K_PACE, K_MI, K_RTO, K_START, K_APP] {
            for sf in [0usize, 1, SF_MASK as usize] {
                for epoch in [0u64, 1, EPOCH_MASK] {
                    assert_eq!(untoken(token(kind, sf, epoch)), (kind, sf, epoch));
                }
            }
        }
    }

    #[test]
    fn epoch_comparison_masks_both_sides() {
        // Live counters just past the 48-bit boundary: the token epoch
        // truncates, so the pre-fix comparison (`token epoch == untruncated
        // counter`) treated every such timer as stale and silently dropped
        // all MI/pace timers from then on.
        for live in [EPOCH_MASK + 1, EPOCH_MASK + 2, (EPOCH_MASK << 1) | 0x5] {
            let (kind, sf, tok_epoch) = untoken(token(K_PACE, 3, live));
            assert_eq!((kind, sf), (K_PACE, 3));
            assert_eq!(tok_epoch, live & EPOCH_MASK);
            assert!(
                epoch_matches(tok_epoch, live),
                "timer for live epoch {live:#x} must not be declared stale"
            );
        }
        // Genuinely stale epochs still mismatch.
        assert!(!epoch_matches(token(K_PACE, 0, 41) & EPOCH_MASK, 42));
        // ... including across the boundary (a 1-in-2^48 wrap alias is the
        // accepted residual risk).
        assert!(!epoch_matches(5, EPOCH_MASK + 7));
    }
}
