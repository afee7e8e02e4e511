//! Monitor-interval accounting for PCC-family controllers.
//!
//! A monitor interval (MI) spans a contiguous range of a subflow's packet
//! sequence numbers. The interval *closes* for sending when its timer
//! expires (the next MI starts immediately), and *completes* once every
//! packet sent during it has been acknowledged or declared lost — roughly
//! one RTT later — at which point its statistics (goodput, loss rate,
//! latency gradient) are reported to the controller, exactly as in PCC
//! Vivace.
//!
//! The tracker keeps no per-packet state. Every send on an MI subflow
//! lands in the running interval, so a closed interval's sent count is the
//! width of its sequence range. Acks and losses come from the subflow's
//! [`Scoreboard`](crate::sack::Scoreboard), which resolves each sequence
//! number exactly once (an acked entry becomes a tombstone, a lost one is
//! popped), so [`MiTracker::on_acked`] and [`MiTracker::on_lost`] count
//! what they are fed without deduplicating. The sender's `mi_resolution`
//! check (`acked + lost ≤ sent` per report) is the runtime check of that
//! guarantee.

use crate::controller::MiReport;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use std::collections::VecDeque;

/// One monitor interval's accumulating state.
#[derive(Clone, Debug)]
struct Mi {
    id: u64,
    rate: Rate,
    start: SimTime,
    /// Set when the interval closes for sending.
    closed_at: Option<SimTime>,
    seq_start: u64,
    /// One past the last sequence number sent in the interval; set at close.
    seq_end: Option<u64>,
    acked: u64,
    lost: u64,
    acked_bytes: u64,
    /// Least-squares accumulators for RTT (seconds) over send time
    /// (seconds since interval start).
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    app_limited: bool,
}

impl Mi {
    fn contains(&self, seq: u64) -> bool {
        seq >= self.seq_start
            && match self.seq_end {
                Some(end) => seq < end,
                None => true,
            }
    }

    /// Packets sent in the interval (its sequence range), once closed.
    fn sent_packets(&self) -> Option<u64> {
        self.seq_end.map(|end| end - self.seq_start)
    }

    fn resolved(&self) -> bool {
        self.sent_packets()
            .is_some_and(|sent| self.acked + self.lost >= sent)
    }

    fn report(&self, subflow: usize, now: SimTime) -> MiReport {
        let closed_at = self.closed_at.unwrap_or(now);
        let duration = closed_at.saturating_since(self.start);
        let duration = if duration.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            duration
        };
        let sent = self.sent_packets().unwrap_or(0);
        let loss_rate = if sent == 0 {
            0.0
        } else {
            self.lost as f64 / sent as f64
        };
        let goodput = Rate::from_bps(self.acked_bytes as f64 * 8.0 / duration.as_secs_f64());
        let latency_gradient = self.slope();
        let mean_rtt = if self.acked > 0 {
            SimDuration::from_secs_f64(self.sy / self.n)
        } else {
            SimDuration::ZERO
        };
        MiReport {
            subflow,
            rate: self.rate,
            start: self.start,
            duration,
            completed_at: now,
            sent_packets: sent,
            acked_packets: self.acked,
            lost_packets: self.lost,
            acked_bytes: self.acked_bytes,
            loss_rate,
            goodput,
            latency_gradient,
            mean_rtt,
            app_limited: self.app_limited,
        }
    }

    /// Least-squares slope of RTT vs send time: the paper's d(RTT)/dT.
    fn slope(&self) -> f64 {
        if self.n < 2.0 {
            return 0.0;
        }
        let denom = self.n * self.sxx - self.sx * self.sx;
        if denom.abs() < 1e-18 {
            return 0.0;
        }
        (self.n * self.sxy - self.sx * self.sy) / denom
    }
}

/// Tracks the current and pending (closed but unresolved) monitor
/// intervals of one subflow.
#[derive(Debug, Default)]
pub struct MiTracker {
    current: Option<Mi>,
    pending: VecDeque<Mi>,
    next_id: u64,
}

impl MiTracker {
    /// A tracker with no interval running.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the fresh state in place, keeping the pending queue's
    /// capacity so a recycled connection's MI cycle stays allocation-free.
    pub fn reset_for_reuse(&mut self) {
        self.current = None;
        self.pending.clear();
        self.next_id = 0;
    }

    /// Starts a new interval at `now` with sending rate `rate`, closing the
    /// current one (if any). Returns the new interval's id.
    pub fn begin(&mut self, rate: Rate, now: SimTime, next_seq: u64) -> u64 {
        self.close_current(now, next_seq);
        let id = self.next_id;
        self.next_id += 1;
        self.current = Some(Mi {
            id,
            rate,
            start: now,
            closed_at: None,
            seq_start: next_seq,
            seq_end: None,
            acked: 0,
            lost: 0,
            acked_bytes: 0,
            n: 0.0,
            sx: 0.0,
            sy: 0.0,
            sxx: 0.0,
            sxy: 0.0,
            app_limited: false,
        });
        id
    }

    /// Closes the current interval (no new packets attributed to it).
    fn close_current(&mut self, now: SimTime, next_seq: u64) {
        if let Some(mut mi) = self.current.take() {
            mi.closed_at = Some(now);
            mi.seq_end = Some(next_seq);
            self.pending.push_back(mi);
        }
    }

    /// The id of the running interval, if any.
    pub fn current_id(&self) -> Option<u64> {
        self.current.as_ref().map(|mi| mi.id)
    }

    /// Flags the running interval as application-limited.
    pub fn mark_app_limited(&mut self) {
        if let Some(mi) = &mut self.current {
            mi.app_limited = true;
        }
    }

    /// Records an acknowledgement of `seq` (sent at `sent_at`, measured
    /// RTT `rtt`, carrying `bytes` of payload). Each sequence number must
    /// be resolved at most once, as the scoreboard reports it.
    pub fn on_acked(&mut self, seq: u64, sent_at: SimTime, rtt: SimDuration, bytes: u64) {
        if let Some(mi) = self.find_mut(seq) {
            mi.acked += 1;
            mi.acked_bytes += bytes;
            let x = sent_at.saturating_since(mi.start).as_secs_f64();
            let y = rtt.as_secs_f64();
            mi.n += 1.0;
            mi.sx += x;
            mi.sy += y;
            mi.sxx += x * x;
            mi.sxy += x * y;
        }
    }

    /// Records a loss of `seq` (at most once per sequence number, like
    /// [`MiTracker::on_acked`]).
    pub fn on_lost(&mut self, seq: u64) {
        if let Some(mi) = self.find_mut(seq) {
            mi.lost += 1;
        }
    }

    fn find_mut(&mut self, seq: u64) -> Option<&mut Mi> {
        if let Some(mi) = &mut self.current {
            if mi.contains(seq) {
                return self.current.as_mut();
            }
        }
        self.pending.iter_mut().find(|mi| mi.contains(seq))
    }

    /// Pops the oldest interval if it has completed. An interval only
    /// reports once all earlier intervals have reported, so calling this
    /// until it returns `None` gives the controller a strictly ordered
    /// stream of results without collecting them anywhere.
    pub fn pop_completed(&mut self, subflow: usize, now: SimTime) -> Option<MiReport> {
        let mi = self.pending.pop_front_if(|mi| mi.resolved())?;
        Some(mi.report(subflow, now))
    }

    /// Number of closed-but-unresolved intervals.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sack::{Chunk, Scoreboard, SentMeta};
    use crate::wire::{AckHeader, SackBlocks, SeqRange};

    /// Every report ready at `now`, in order.
    fn poll(t: &mut MiTracker, now: SimTime) -> Vec<MiReport> {
        std::iter::from_fn(|| t.pop_completed(0, now)).collect()
    }

    #[test]
    fn mi_lifecycle_and_report() {
        let mut t = MiTracker::new();
        let t0 = SimTime::ZERO;
        t.begin(Rate::from_mbps(10.0), t0, 0);
        // Close at 100 ms; next MI starts.
        let t1 = SimTime::from_millis(100);
        t.begin(Rate::from_mbps(20.0), t1, 10);
        assert_eq!(t.pending_len(), 1);
        assert!(poll(&mut t, t1).is_empty());
        // Ack 9 packets, lose 1.
        for seq in 0..9 {
            t.on_acked(
                seq,
                SimTime::from_millis(seq * 10),
                SimDuration::from_millis(50),
                1448,
            );
        }
        t.on_lost(9);
        let reports = poll(&mut t, SimTime::from_millis(200));
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.sent_packets, 10);
        assert_eq!(r.acked_packets, 9);
        assert_eq!(r.lost_packets, 1);
        assert!((r.loss_rate - 0.1).abs() < 1e-12);
        // Goodput: 9 * 1448 B over 100 ms.
        assert!((r.goodput.mbps() - 9.0 * 1448.0 * 8.0 / 1e5 * 1e6 / 1e6 / 10.0).abs() < 1.0);
        // Constant RTT: zero latency gradient.
        assert!(r.latency_gradient.abs() < 1e-9);
        assert_eq!(r.mean_rtt, SimDuration::from_millis(50));
    }

    #[test]
    fn latency_gradient_detects_rtt_growth() {
        let mut t = MiTracker::new();
        t.begin(Rate::from_mbps(10.0), SimTime::ZERO, 0);
        t.begin(Rate::from_mbps(10.0), SimTime::from_millis(100), 10);
        // RTT grows 1 ms per 10 ms of send time: slope 0.1.
        for seq in 0..10u64 {
            t.on_acked(
                seq,
                SimTime::from_millis(seq * 10),
                SimDuration::from_millis(50 + seq),
                1448,
            );
        }
        let r = &poll(&mut t, SimTime::from_millis(300))[0];
        assert!(
            (r.latency_gradient - 0.1).abs() < 1e-9,
            "{}",
            r.latency_gradient
        );
    }

    #[test]
    fn reports_stay_ordered() {
        let mut t = MiTracker::new();
        t.begin(Rate::from_mbps(1.0), SimTime::ZERO, 0);
        t.begin(Rate::from_mbps(2.0), SimTime::from_millis(10), 1);
        t.begin(Rate::from_mbps(3.0), SimTime::from_millis(20), 2);
        // Resolve the *second* MI first; it must not report before the first.
        t.on_acked(
            1,
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
            1448,
        );
        assert!(poll(&mut t, SimTime::from_millis(30)).is_empty());
        t.on_lost(0);
        let reports = poll(&mut t, SimTime::from_millis(40));
        assert_eq!(reports.len(), 2);
        assert!((reports[0].rate.mbps() - 1.0).abs() < 1e-9);
        assert!((reports[1].rate.mbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_interval_acks_and_losses_are_ignored() {
        let mut t = MiTracker::new();
        // First tracked interval starts at seq 100 — seqs below it were
        // sent before MI tracking began (e.g. during slow start).
        t.begin(Rate::from_mbps(10.0), SimTime::ZERO, 100);
        t.begin(Rate::from_mbps(10.0), SimTime::from_millis(100), 105);
        // Late feedback for untracked pre-MI packets must not be
        // attributed to any interval.
        t.on_acked(
            99,
            SimTime::from_millis(1),
            SimDuration::from_millis(50),
            1448,
        );
        t.on_lost(50);
        // The closed interval still needs all 5 of its own packets.
        assert!(poll(&mut t, SimTime::from_millis(150)).is_empty());
        for seq in 100..105 {
            t.on_acked(
                seq,
                SimTime::from_millis(10),
                SimDuration::from_millis(50),
                1448,
            );
        }
        let reports = poll(&mut t, SimTime::from_millis(200));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].acked_packets, 5);
        assert_eq!(reports[0].lost_packets, 0);
        assert_eq!(reports[0].acked_bytes, 5 * 1448);
    }

    #[test]
    fn empty_app_limited_mi_between_resolved_intervals_keeps_order() {
        let mut t = MiTracker::new();
        // MI 0: one packet (seqs 0..1).
        t.begin(Rate::from_mbps(1.0), SimTime::ZERO, 0);
        // MI 1: app-limited, sends nothing (seqs 1..1).
        t.begin(Rate::from_mbps(2.0), SimTime::from_millis(10), 1);
        t.mark_app_limited();
        // MI 2: one packet (seqs 1..2).
        t.begin(Rate::from_mbps(3.0), SimTime::from_millis(20), 1);
        t.begin(Rate::from_mbps(4.0), SimTime::from_millis(30), 2);
        // Resolve MI 2 first: the empty MI 1 is resolved by construction,
        // but neither may report while MI 0 is still outstanding.
        t.on_acked(
            1,
            SimTime::from_millis(20),
            SimDuration::from_millis(5),
            1448,
        );
        assert!(poll(&mut t, SimTime::from_millis(40)).is_empty());
        // Resolving MI 0 releases all three, in interval order.
        t.on_acked(0, SimTime::ZERO, SimDuration::from_millis(5), 1448);
        let reports = poll(&mut t, SimTime::from_millis(50));
        assert_eq!(reports.len(), 3);
        assert!((reports[0].rate.mbps() - 1.0).abs() < 1e-9);
        assert!((reports[1].rate.mbps() - 2.0).abs() < 1e-9);
        assert!((reports[2].rate.mbps() - 3.0).abs() < 1e-9);
        assert!(reports[1].app_limited);
        assert_eq!(reports[1].sent_packets, 0);
        assert!(!reports[0].app_limited && !reports[2].app_limited);
    }

    #[test]
    fn empty_mi_resolves_immediately() {
        let mut t = MiTracker::new();
        t.begin(Rate::from_mbps(1.0), SimTime::ZERO, 0);
        t.mark_app_limited();
        t.begin(Rate::from_mbps(1.0), SimTime::from_millis(10), 0);
        let reports = poll(&mut t, SimTime::from_millis(10));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].app_limited);
        assert_eq!(reports[0].sent_packets, 0);
        assert_eq!(reports[0].loss_rate, 0.0);
    }

    /// One scoreboard feeding one tracker the way `MpSender` does: each
    /// ACK's newly acked packets, then the FACK losses it exposes, and on
    /// RTO everything still live.
    struct Ledger {
        sb: Scoreboard,
        t: MiTracker,
    }

    /// Payload length of `seq`'s packet, distinct per packet so a byte
    /// total shows which packets a report counted.
    fn len_of(seq: u64) -> u64 {
        1000 + seq
    }

    fn sack_ack(ack_seq: u64, cum_ack: u64, sack: &[(u64, u64)]) -> AckHeader {
        AckHeader {
            subflow: 0,
            cum_ack,
            sack: SackBlocks::from_ranges(sack.iter().map(|&(start, end)| SeqRange { start, end })),
            ack_seq,
            echo_sent_at: SimTime::ZERO,
            data_acked: 0,
            rcv_window: u64::MAX,
        }
    }

    impl Ledger {
        /// Sends seqs `0..n` in MI 0, then closes it by starting MI 1.
        fn sent(n: u64) -> Self {
            let mut sb = Scoreboard::new();
            let mut t = MiTracker::new();
            t.begin(Rate::from_mbps(10.0), SimTime::ZERO, sb.next_seq());
            for seq in 0..n {
                let chunk = Chunk {
                    dsn: seq * 1448,
                    len: len_of(seq),
                    retx: false,
                };
                sb.on_send(chunk, chunk.len + 52, SimTime::from_millis(seq));
            }
            t.begin(Rate::from_mbps(10.0), SimTime::from_millis(100), n);
            Ledger { sb, t }
        }

        fn ack(&mut self, ack: AckHeader, now: SimTime) {
            let outcome = self.sb.on_ack(&ack, now);
            for (seq, meta) in &outcome.acked {
                let rtt = now.saturating_since(meta.sent_at);
                self.t.on_acked(*seq, meta.sent_at, rtt, meta.chunk.len);
            }
            let losses = self.sb.detect_losses();
            self.lose(losses);
            self.sb.recycle(outcome);
        }

        fn rto(&mut self) {
            let lost = self.sb.on_rto();
            self.lose(lost);
        }

        fn lose(&mut self, lost: Vec<(u64, SentMeta)>) {
            for (seq, _) in &lost {
                self.t.on_lost(*seq);
            }
            self.sb.recycle_lost(lost);
        }

        /// MI 0's report, which must be the only one ready.
        fn report(&mut self) -> MiReport {
            let mut reports = poll(&mut self.t, SimTime::from_secs(1));
            assert_eq!(reports.len(), 1);
            reports.pop().expect("one report")
        }
    }

    #[test]
    fn spurious_loss_then_late_cum_ack_counts_each_packet_once() {
        let mut l = Ledger::sent(5);
        // Seqs 1..5 are SACKed past seq 0, which FACK declares lost.
        l.ack(sack_ack(4, 0, &[(1, 5)]), SimTime::from_millis(30));
        // Seq 0 was only late: the cumulative ACK now covers all five.
        l.ack(sack_ack(0, 5, &[]), SimTime::from_millis(90));
        let r = l.report();
        assert_eq!(r.sent_packets, 5);
        assert_eq!(r.acked_packets, 4, "late cum-ACK must not re-resolve");
        assert_eq!(r.lost_packets, 1);
        assert_eq!(r.acked_bytes, (1..5).map(len_of).sum::<u64>());
        assert!((r.loss_rate - 0.2).abs() < 1e-12, "{}", r.loss_rate);
    }

    #[test]
    fn ack_then_stale_loss_signal_counts_each_packet_once() {
        let mut l = Ledger::sent(6);
        l.ack(sack_ack(1, 0, &[(1, 2)]), SimTime::from_millis(30));
        // The FACK pass that declares seq 0 lost also passes acked seq 1.
        l.ack(sack_ack(4, 0, &[(1, 2), (3, 5)]), SimTime::from_millis(40));
        // The RTO loses what is still live (2 and 5), not acked 3 and 4.
        l.rto();
        let r = l.report();
        assert_eq!(r.sent_packets, 6);
        assert_eq!(r.acked_packets, 3, "acked packets must not be re-resolved");
        assert_eq!(r.lost_packets, 3);
        assert_eq!(r.acked_bytes, len_of(1) + len_of(3) + len_of(4));
        assert!((r.loss_rate - 0.5).abs() < 1e-12, "{}", r.loss_rate);
    }
}
