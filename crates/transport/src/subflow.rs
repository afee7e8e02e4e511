//! Per-subflow sender state: scoreboard, RTT estimation, staging queue,
//! pacing and monitor-interval tracking, bundled for the connection-level
//! sender to orchestrate.

use crate::mi::MiTracker;
use crate::rtt::RttEstimator;
use crate::sack::{Chunk, Scoreboard};
use crate::scheduler::SubflowView;
use crate::wire::PathId;
use mpcc_simcore::{Rate, SimDuration, SimTime};
use std::collections::VecDeque;

/// Sender-side state of one subflow.
pub struct Subflow {
    /// The network path this subflow is bound to.
    pub path: PathId,
    /// Sent-packet tracking and loss detection.
    pub scoreboard: Scoreboard,
    /// RTT estimation.
    pub rtt: RttEstimator,
    /// Chunks assigned by the scheduler but not yet transmitted.
    pub staged: VecDeque<Chunk>,
    /// Total payload bytes in `staged`.
    pub staged_bytes: u64,
    /// Monitor intervals (PCC-family only; unused otherwise).
    pub mi: MiTracker,
    /// Current pacing rate (rate-based senders).
    pub pacing_rate: Rate,
    /// The controller's window for this subflow, cached by the sender after
    /// every mutating controller call and RTT sample.
    pub(crate) cwnd_bytes: u64,
    /// The controller's rate estimate for this subflow, cached alongside
    /// `cwnd_bytes`.
    pub(crate) rate_estimate: Rate,
    /// Base RTT derived from the path's propagation delays at setup, used
    /// before the first measurement.
    pub base_rtt: SimDuration,
    /// Pacer bookkeeping: epoch invalidates stale timer events.
    pub pacer_epoch: u64,
    /// `true` while a pacer timer event is outstanding.
    pub pacer_armed: bool,
    /// Earliest time the pacer may transmit the next packet.
    pub next_send_at: SimTime,
    /// RTO bookkeeping: `true` while an RTO timer event is outstanding.
    pub rto_armed: bool,
    /// The deadline the outstanding RTO event should fire at (lazy re-arm).
    pub rto_deadline: SimTime,
    /// Exponential RTO backoff multiplier.
    pub rto_backoff: u32,
    /// Sequence threshold for once-per-window loss events.
    pub recovery_until: u64,
    /// Packets transmitted (including retransmissions).
    pub sent_packets: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub sent_bytes: u64,
}

impl Subflow {
    /// Creates an idle subflow bound to `path`.
    pub fn new(path: PathId, base_rtt: SimDuration) -> Self {
        Subflow {
            path,
            scoreboard: Scoreboard::new(),
            rtt: RttEstimator::new(),
            staged: VecDeque::new(),
            staged_bytes: 0,
            mi: MiTracker::new(),
            pacing_rate: Rate::ZERO,
            cwnd_bytes: 0,
            rate_estimate: Rate::ZERO,
            base_rtt,
            pacer_epoch: 0,
            pacer_armed: false,
            next_send_at: SimTime::ZERO,
            rto_armed: false,
            rto_deadline: SimTime::MAX,
            rto_backoff: 1,
            recovery_until: 0,
            sent_packets: 0,
            sent_bytes: 0,
        }
    }

    /// Rebinds this subflow to `path` and resets every field to the idle
    /// state in place, keeping the scoreboard/RTT/MI/staging allocations so
    /// connection recycling never touches the allocator.
    pub fn reset_for_reuse(&mut self, path: PathId, base_rtt: SimDuration) {
        self.path = path;
        self.scoreboard.reset_for_reuse();
        self.rtt.reset_for_reuse();
        self.staged.clear();
        self.staged_bytes = 0;
        self.mi.reset_for_reuse();
        self.pacing_rate = Rate::ZERO;
        self.cwnd_bytes = 0;
        self.rate_estimate = Rate::ZERO;
        self.base_rtt = base_rtt;
        self.pacer_epoch = 0;
        self.pacer_armed = false;
        self.next_send_at = SimTime::ZERO;
        self.rto_armed = false;
        self.rto_deadline = SimTime::MAX;
        self.rto_backoff = 1;
        self.recovery_until = 0;
        self.sent_packets = 0;
        self.sent_bytes = 0;
    }

    /// Smoothed RTT, falling back to the propagation-delay estimate.
    pub fn srtt(&self) -> SimDuration {
        self.rtt.srtt_or(self.base_rtt)
    }

    /// Assigns a chunk to this subflow's staging queue.
    pub fn stage(&mut self, chunk: Chunk) {
        self.staged_bytes += chunk.len;
        self.staged.push_back(chunk);
    }

    /// Removes and returns the head of the staging queue.
    pub fn unstage(&mut self) -> Option<Chunk> {
        let chunk = self.staged.pop_front()?;
        self.staged_bytes -= chunk.len;
        Some(chunk)
    }

    /// The scheduler's view of this subflow.
    pub fn view(&self, cwnd_bytes: u64, rate: Rate) -> SubflowView {
        SubflowView {
            staged_bytes: self.staged_bytes,
            inflight_bytes: self.scoreboard.inflight_bytes(),
            cwnd_bytes,
            rate,
            srtt: self.srtt(),
        }
    }

    /// The current RTO interval including backoff.
    pub fn rto_interval(&self) -> SimDuration {
        let base = self.rtt.rto();
        base.mul_f64(self.rto_backoff as f64)
    }
}

/// A read-only statistics snapshot of one subflow, consumed by harnesses.
#[derive(Clone, Copy, Debug)]
pub struct SubflowStats {
    /// Payload bytes acknowledged at the subflow level.
    pub delivered_bytes: u64,
    /// Packets transmitted (including retransmissions).
    pub sent_packets: u64,
    /// Payload bytes transmitted.
    pub sent_bytes: u64,
    /// Packets declared lost.
    pub lost_packets: u64,
    /// Packets acknowledged.
    pub acked_packets: u64,
    /// Smoothed RTT.
    pub srtt: SimDuration,
    /// Windowed minimum RTT.
    pub min_rtt: SimDuration,
    /// Latest RTT sample.
    pub latest_rtt: SimDuration,
    /// Current pacing rate (zero for window-based senders).
    pub pacing_rate: Rate,
    /// Payload bytes in flight.
    pub inflight_bytes: u64,
}

impl Subflow {
    /// Takes a statistics snapshot as of `now` (the windowed minimum RTT
    /// is pruned against the reference time).
    pub fn stats(&self, now: SimTime) -> SubflowStats {
        SubflowStats {
            delivered_bytes: self.scoreboard.delivered_bytes(),
            sent_packets: self.sent_packets,
            sent_bytes: self.sent_bytes,
            lost_packets: self.scoreboard.total_lost_packets(),
            acked_packets: self.scoreboard.total_acked_packets(),
            srtt: self.srtt(),
            min_rtt: self.rtt.min_rtt(now),
            latest_rtt: self.rtt.latest(),
            pacing_rate: self.pacing_rate,
            inflight_bytes: self.scoreboard.inflight_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_queue_tracks_bytes() {
        let mut sf = Subflow::new(PathId(0), SimDuration::from_millis(60));
        sf.stage(Chunk {
            dsn: 0,
            len: 1448,
            retx: false,
        });
        sf.stage(Chunk {
            dsn: 1448,
            len: 1000,
            retx: false,
        });
        assert_eq!(sf.staged_bytes, 2448);
        let head = sf.unstage().unwrap();
        assert_eq!(head.dsn, 0);
        assert_eq!(sf.staged_bytes, 1000);
        sf.unstage().unwrap();
        assert!(sf.unstage().is_none());
        assert_eq!(sf.staged_bytes, 0);
    }

    #[test]
    fn srtt_falls_back_to_base_rtt() {
        let sf = Subflow::new(PathId(0), SimDuration::from_millis(60));
        assert_eq!(sf.srtt(), SimDuration::from_millis(60));
    }

    #[test]
    fn rto_backoff_scales_interval() {
        let mut sf = Subflow::new(PathId(0), SimDuration::from_millis(60));
        let base = sf.rto_interval();
        sf.rto_backoff = 4;
        assert_eq!(sf.rto_interval(), base.mul_f64(4.0));
    }
}
