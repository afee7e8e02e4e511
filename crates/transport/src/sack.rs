//! Sender-side scoreboard: which packets are outstanding, acknowledged or
//! lost on one subflow.
//!
//! Subflow sequence numbers count packets. Loss is declared FACK-style: a
//! packet is lost once the highest acknowledged sequence number is
//! `dupthresh` ahead of it (the SACK equivalent of three duplicate ACKs), or
//! when the retransmission timer fires.

#[cfg(test)]
use crate::wire::SackBlocks;
use crate::wire::{AckHeader, SeqRange};
use mpcc_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Packet-reordering tolerance before declaring loss, in packets.
pub const DUPTHRESH: u64 = 3;

/// A contiguous range of connection-level bytes carried by one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// First data sequence byte.
    pub dsn: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// `true` if this range was transmitted before (on any subflow).
    pub retx: bool,
}

/// Bookkeeping for one outstanding packet.
#[derive(Clone, Copy, Debug)]
pub struct SentMeta {
    /// The connection-level bytes the packet carries.
    pub chunk: Chunk,
    /// Bytes on the wire.
    pub wire_size: u64,
    /// Transmission time.
    pub sent_at: SimTime,
    /// Subflow's cumulative delivered bytes at transmission time, for
    /// delivery-rate sampling.
    pub delivered_at_send: u64,
}

/// Result of feeding one ACK into the scoreboard.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Packets newly acknowledged, with their metadata.
    pub acked: Vec<(u64, SentMeta)>,
    /// Payload bytes newly acknowledged.
    pub acked_bytes: u64,
    /// RTT sample from the echoed timestamp, if the echoed packet was
    /// still tracked (not a spurious/duplicate ACK).
    pub rtt_sample: Option<SimDuration>,
}

/// Per-subflow sent-packet tracking.
///
/// Sequence numbers are assigned monotonically by [`Scoreboard::on_send`]
/// and never re-enter the scoreboard (a retransmission is a new send with a
/// new sequence number), so the outstanding set lives in a `VecDeque`
/// ordered by sequence number. Acked packets in the middle become
/// tombstones (`None`) that are dropped once the front catches up; the
/// cumulative-ACK hot path is a run of front pops and the SACK path a
/// binary search — no tree-node traversal, and no allocation after warm-up
/// thanks to the recycled [`AckOutcome`] buffer (see
/// [`Scoreboard::recycle`]).
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// `(seq, Some(meta))` in ascending `seq` order; `None` is a tombstone
    /// for a packet already acked or lost.
    outstanding: VecDeque<(u64, Option<SentMeta>)>,
    /// Live (non-tombstone) entries in `outstanding`.
    live: usize,
    next_seq: u64,
    highest_acked: Option<u64>,
    inflight_payload: u64,
    delivered_bytes: u64,
    total_lost_packets: u64,
    total_acked_packets: u64,
    /// Recycled capacity for `AckOutcome::acked`.
    spare: Vec<(u64, SentMeta)>,
    /// Recycled capacity for `Scoreboard::detect_losses` results.
    lost_spare: Vec<(u64, SentMeta)>,
}

impl Scoreboard {
    /// A fresh, empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the fresh state in place, retaining every recycled
    /// buffer's capacity (`outstanding`, `spare`, `lost_spare`) so a
    /// recycled connection starts clean without touching the allocator.
    pub fn reset_for_reuse(&mut self) {
        self.outstanding.clear();
        self.live = 0;
        self.next_seq = 0;
        self.highest_acked = None;
        self.inflight_payload = 0;
        self.delivered_bytes = 0;
        self.total_lost_packets = 0;
        self.total_acked_packets = 0;
        self.spare.clear();
        self.lost_spare.clear();
    }

    /// Registers a transmission and returns its sequence number.
    pub fn on_send(&mut self, chunk: Chunk, wire_size: u64, sent_at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight_payload += chunk.len;
        self.live += 1;
        self.outstanding.push_back((
            seq,
            Some(SentMeta {
                chunk,
                wire_size,
                sent_at,
                delivered_at_send: self.delivered_bytes,
            }),
        ));
        seq
    }

    /// Index of `seq` in `outstanding`, if tracked (live or tombstone).
    fn idx_of(&self, seq: u64) -> Option<usize> {
        let i = self.outstanding.partition_point(|&(s, _)| s < seq);
        (i < self.outstanding.len() && self.outstanding[i].0 == seq).then_some(i)
    }

    /// Drops tombstones at the front so `front()` is the oldest live entry.
    fn compact_front(&mut self) {
        while matches!(self.outstanding.front(), Some(&(_, None))) {
            self.outstanding.pop_front();
        }
    }

    /// Processes an ACK header: marks everything covered by the cumulative
    /// ACK, the SACK blocks and the per-packet `ack_seq` as delivered.
    pub fn on_ack(&mut self, ack: &AckHeader, now: SimTime) -> AckOutcome {
        let mut out = AckOutcome {
            acked: std::mem::take(&mut self.spare),
            ..AckOutcome::default()
        };
        // RTT sample from the triggering packet, taken before any marking
        // (the cumulative portion may also cover it).
        // A virtual clock can never hand us an echo timestamp from the
        // future, but a real driver under coarse timer granularity can
        // (the receiver stamped `now` off a fresher clock reading than
        // ours). Such a sample carries no RTT information — ignore it
        // rather than letting `saturating_since` launder it into zero.
        if self
            .idx_of(ack.ack_seq)
            .is_some_and(|i| self.outstanding[i].1.is_some())
            && ack.echo_sent_at <= now
        {
            out.rtt_sample = Some(now.saturating_since(ack.echo_sent_at));
        }
        // Cumulative portion: everything below `cum_ack` sits at the front.
        while let Some(&(seq, _)) = self.outstanding.front() {
            if seq >= ack.cum_ack {
                break;
            }
            self.mark_at(0, &mut out);
            self.outstanding.pop_front();
        }
        // Selective blocks (ascending within each block, like the
        // cumulative portion).
        for SeqRange { start, end } in &ack.sack {
            let mut i = self.outstanding.partition_point(|&(s, _)| s < *start);
            while i < self.outstanding.len() && self.outstanding[i].0 < *end {
                self.mark_at(i, &mut out);
                i += 1;
            }
        }
        // The specific packet that triggered the ACK (always delivered,
        // since the reverse direction is lossless in the simulator).
        if let Some(i) = self.idx_of(ack.ack_seq) {
            self.mark_at(i, &mut out);
        }
        self.highest_acked = self.highest_acked.max(Some(ack.ack_seq));
        if ack.cum_ack > 0 {
            self.highest_acked = self.highest_acked.max(Some(ack.cum_ack - 1));
        }
        self.compact_front();
        out
    }

    /// Returns an [`AckOutcome`]'s buffer to the scoreboard so the next
    /// [`Scoreboard::on_ack`] reuses its capacity instead of allocating.
    pub fn recycle(&mut self, outcome: AckOutcome) {
        let mut v = outcome.acked;
        if v.capacity() > self.spare.capacity() {
            v.clear();
            self.spare = v;
        }
    }

    /// Returns a [`Scoreboard::detect_losses`] buffer so the next loss
    /// detection pass reuses its capacity instead of allocating.
    pub fn recycle_lost(&mut self, mut v: Vec<(u64, SentMeta)>) {
        if v.capacity() > self.lost_spare.capacity() {
            v.clear();
            self.lost_spare = v;
        }
    }

    /// Tombstones the entry at `i` if live, crediting the ACK accounting.
    fn mark_at(&mut self, i: usize, out: &mut AckOutcome) {
        if let Some(meta) = self.outstanding[i].1.take() {
            self.live -= 1;
            self.inflight_payload -= meta.chunk.len;
            self.delivered_bytes += meta.chunk.len;
            self.total_acked_packets += 1;
            out.acked_bytes += meta.chunk.len;
            out.acked.push((self.outstanding[i].0, meta));
        }
    }

    /// Declares lost every outstanding packet trailing the highest
    /// acknowledgement by at least [`DUPTHRESH`]; returns them.
    pub fn detect_losses(&mut self) -> Vec<(u64, SentMeta)> {
        let mut result = std::mem::take(&mut self.lost_spare);
        let Some(high) = self.highest_acked else {
            return result;
        };
        let cutoff = high.saturating_sub(DUPTHRESH - 1);
        while let Some(&(seq, _)) = self.outstanding.front() {
            if seq >= cutoff {
                break;
            }
            let (seq, slot) = self.outstanding.pop_front().expect("front just seen");
            if let Some(meta) = slot {
                self.live -= 1;
                self.inflight_payload -= meta.chunk.len;
                self.total_lost_packets += 1;
                result.push((seq, meta));
            }
        }
        result
    }

    /// Declares *everything* outstanding lost (retransmission timeout).
    /// Like [`Scoreboard::detect_losses`], the result should come back
    /// through [`Scoreboard::recycle_lost`].
    pub fn on_rto(&mut self) -> Vec<(u64, SentMeta)> {
        let mut result = std::mem::take(&mut self.lost_spare);
        while let Some((seq, slot)) = self.outstanding.pop_front() {
            if let Some(meta) = slot {
                self.inflight_payload -= meta.chunk.len;
                self.total_lost_packets += 1;
                result.push((seq, meta));
            }
        }
        self.live = 0;
        result
    }

    /// Payload bytes currently unacknowledged.
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_payload
    }

    /// Outstanding packet count.
    pub fn inflight_packets(&self) -> usize {
        self.live
    }

    /// Cumulative payload bytes delivered on this subflow.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Cumulative packets declared lost.
    pub fn total_lost_packets(&self) -> u64 {
        self.total_lost_packets
    }

    /// Cumulative packets acknowledged.
    pub fn total_acked_packets(&self) -> u64 {
        self.total_acked_packets
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// O(1) conservation law over the whole sequence space: every assigned
    /// sequence number is in exactly one of {acked, lost, live outstanding}
    /// — so the three counts must sum to `next_seq`. Returns
    /// `(observed_sum, next_seq)` on violation. Used by the runtime
    /// invariant checker after every ACK and RTO.
    pub fn conservation_violation(&self) -> Option<(u64, u64)> {
        let observed = self.total_acked_packets + self.total_lost_packets + self.live as u64;
        (observed != self.next_seq).then_some((observed, self.next_seq))
    }

    /// O(n) structural scan of the outstanding queue: sequence numbers
    /// strictly ascending, the cached `live` count matching the actual
    /// non-tombstone entries, and `inflight_payload` matching the sum of
    /// live chunk lengths. Returns `(invariant, observed, expected)` on
    /// the first violation. Used (sampled) by the runtime invariant
    /// checker; too expensive to run per-ACK.
    pub fn deep_violation(&self) -> Option<(&'static str, f64, f64)> {
        let mut live = 0usize;
        let mut payload = 0u64;
        let mut prev: Option<u64> = None;
        for &(seq, ref slot) in &self.outstanding {
            if let Some(p) = prev {
                if seq <= p {
                    return Some(("scoreboard_seq_order", seq as f64, (p + 1) as f64));
                }
            }
            prev = Some(seq);
            if let Some(meta) = slot {
                live += 1;
                payload += meta.chunk.len;
            }
        }
        if live != self.live {
            return Some(("scoreboard_live_count", self.live as f64, live as f64));
        }
        if payload != self.inflight_payload {
            return Some((
                "scoreboard_inflight_payload",
                self.inflight_payload as f64,
                payload as f64,
            ));
        }
        None
    }
}

/// Computes a delivery-rate (bandwidth) sample for an acked packet, as BBR
/// does: bytes delivered since the packet left, over the elapsed time.
pub fn bw_sample(meta: &SentMeta, delivered_now: u64, now: SimTime) -> mpcc_simcore::Rate {
    let elapsed = now.saturating_since(meta.sent_at).as_secs_f64();
    if elapsed <= 0.0 {
        return mpcc_simcore::Rate::ZERO;
    }
    let bytes = delivered_now.saturating_sub(meta.delivered_at_send);
    mpcc_simcore::Rate::from_bps(bytes as f64 * 8.0 / elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(dsn: u64) -> Chunk {
        Chunk {
            dsn,
            len: 1448,
            retx: false,
        }
    }

    fn ack(ack_seq: u64, cum: u64, sack: Vec<SeqRange>) -> AckHeader {
        AckHeader {
            subflow: 0,
            cum_ack: cum,
            sack: SackBlocks::from_ranges(sack),
            ack_seq,
            echo_sent_at: SimTime::ZERO,
            data_acked: 0,
            rcv_window: u64::MAX,
        }
    }

    #[test]
    fn send_then_ack_clears_inflight() {
        let mut sb = Scoreboard::new();
        let s0 = sb.on_send(chunk(0), 1500, SimTime::ZERO);
        assert_eq!(s0, 0);
        assert_eq!(sb.inflight_bytes(), 1448);
        let out = sb.on_ack(&ack(0, 1, vec![]), SimTime::from_millis(60));
        assert_eq!(out.acked_bytes, 1448);
        assert_eq!(out.rtt_sample, Some(SimDuration::from_millis(60)));
        assert_eq!(sb.inflight_bytes(), 0);
        assert_eq!(sb.delivered_bytes(), 1448);
    }

    #[test]
    fn duplicate_ack_is_idempotent() {
        let mut sb = Scoreboard::new();
        sb.on_send(chunk(0), 1500, SimTime::ZERO);
        sb.on_ack(&ack(0, 1, vec![]), SimTime::from_millis(10));
        let out = sb.on_ack(&ack(0, 1, vec![]), SimTime::from_millis(20));
        assert_eq!(out.acked_bytes, 0);
        assert!(out.rtt_sample.is_none());
        assert_eq!(sb.delivered_bytes(), 1448);
    }

    #[test]
    fn fack_loss_detection() {
        let mut sb = Scoreboard::new();
        for i in 0..6 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        // Packet 0 is lost; packets 1..6 arrive and are individually acked.
        for seq in 1..6 {
            sb.on_ack(&ack(seq, 0, vec![]), SimTime::from_millis(60));
            let lost = sb.detect_losses();
            if seq < DUPTHRESH {
                assert!(lost.is_empty(), "too early at seq {seq}");
            } else if seq == DUPTHRESH {
                assert_eq!(lost.len(), 1);
                assert_eq!(lost[0].0, 0);
            } else {
                assert!(lost.is_empty());
            }
        }
        assert_eq!(sb.total_lost_packets(), 1);
        assert_eq!(sb.inflight_bytes(), 0);
    }

    #[test]
    fn sack_ranges_mark_multiple() {
        let mut sb = Scoreboard::new();
        for i in 0..5 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        let out = sb.on_ack(
            &ack(4, 0, vec![SeqRange { start: 2, end: 5 }]),
            SimTime::from_millis(30),
        );
        // Seqs 2,3,4 acked (4 via both the range and ack_seq).
        assert_eq!(out.acked.len(), 3);
        assert_eq!(sb.inflight_packets(), 2);
    }

    #[test]
    fn rto_flushes_everything() {
        let mut sb = Scoreboard::new();
        for i in 0..4 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        let lost = sb.on_rto();
        assert_eq!(lost.len(), 4);
        assert_eq!(sb.inflight_bytes(), 0);
        assert_eq!(sb.total_lost_packets(), 4);
    }

    #[test]
    fn bw_sample_computation() {
        let meta = SentMeta {
            chunk: chunk(0),
            wire_size: 1500,
            sent_at: SimTime::ZERO,
            delivered_at_send: 0,
        };
        // 125000 bytes delivered over 100 ms = 10 Mbps.
        let r = bw_sample(&meta, 125_000, SimTime::from_millis(100));
        assert!((r.mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reordering_below_dupthresh_declares_nothing_lost() {
        // Packets 0..4 sent; the network reorders packet 0 behind 1 and 2
        // (two packets of reordering — below DUPTHRESH). The late arrival
        // must be treated as a normal delivery, not a loss.
        let mut sb = Scoreboard::new();
        for i in 0..4 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::from_millis(i));
        }
        for seq in [1, 2] {
            sb.on_ack(&ack(seq, 0, vec![]), SimTime::from_millis(30 + seq));
            assert!(
                sb.detect_losses().is_empty(),
                "seq {seq} trails by < DUPTHRESH"
            );
        }
        // The reordered packet finally lands: still tracked, so it yields
        // an RTT sample and its bytes are credited exactly once.
        let out = sb.on_ack(&ack(0, 3, vec![]), SimTime::from_millis(40));
        assert_eq!(out.acked_bytes, 1448);
        assert!(out.rtt_sample.is_some());
        assert!(sb.detect_losses().is_empty());
        assert_eq!(sb.total_lost_packets(), 0);
        assert_eq!(sb.inflight_packets(), 1); // only packet 3 left
    }

    #[test]
    fn reordering_beyond_dupthresh_declares_spurious_loss() {
        // Packet 0 is reordered so far behind that DUPTHRESH packets
        // overtake it: FACK declares it lost (spuriously).
        let mut sb = Scoreboard::new();
        for i in 0..5 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        for seq in 1..=DUPTHRESH {
            sb.on_ack(&ack(seq, 0, vec![]), SimTime::from_millis(30));
        }
        let lost = sb.detect_losses();
        assert_eq!(lost.len(), 1, "seq 0 trails highest_acked by DUPTHRESH");
        assert_eq!(lost[0].0, 0);
        assert_eq!(lost[0].1.chunk, chunk(0));
        assert_eq!(sb.total_lost_packets(), 1);
        // The "lost" bytes are no longer counted in flight (the sender will
        // requeue the chunk), even though the packet is still in the network.
        assert_eq!(sb.inflight_packets(), 1); // packet 4
        assert_eq!(sb.inflight_bytes(), 1448);
    }

    #[test]
    fn late_ack_after_spurious_loss_is_benign() {
        // The continuation of the case above: after seq 0 was (spuriously)
        // declared lost, its original copy finally arrives and is acked.
        // The late ACK must not double-credit bytes, must not produce an
        // RTT sample from the forgotten packet, and must leave the
        // accounting consistent.
        let mut sb = Scoreboard::new();
        for i in 0..5 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        for seq in 1..=DUPTHRESH {
            sb.on_ack(&ack(seq, 0, vec![]), SimTime::from_millis(30));
        }
        assert_eq!(sb.detect_losses().len(), 1);
        let delivered_before = sb.delivered_bytes();
        let acked_before = sb.total_acked_packets();

        // Receiver's cumulative ack jumps to 4 once seq 0 fills its gap.
        let out = sb.on_ack(&ack(0, 4, vec![]), SimTime::from_millis(90));
        assert_eq!(out.acked_bytes, 0, "late ACK of a forgotten packet");
        assert!(out.acked.is_empty());
        assert!(
            out.rtt_sample.is_none(),
            "no RTT sample from an untracked packet"
        );
        assert_eq!(sb.delivered_bytes(), delivered_before);
        assert_eq!(sb.total_acked_packets(), acked_before);
        // Loss stays recorded — the scoreboard has no undo; the spurious
        // retransmission is the receiver's duplicate to discard.
        assert_eq!(sb.total_lost_packets(), 1);
        // And the late cum_ack does not re-trigger loss on packet 4.
        assert!(sb.detect_losses().is_empty());
        assert_eq!(sb.inflight_packets(), 1);
    }

    #[test]
    fn conservation_and_deep_scan_hold_across_lifecycle() {
        let mut sb = Scoreboard::new();
        assert!(sb.conservation_violation().is_none());
        for i in 0..8 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
            assert!(sb.conservation_violation().is_none());
        }
        sb.on_ack(
            &ack(5, 2, vec![SeqRange { start: 4, end: 6 }]),
            SimTime::from_millis(30),
        );
        assert!(sb.conservation_violation().is_none());
        assert!(sb.deep_violation().is_none());
        sb.detect_losses();
        assert!(sb.conservation_violation().is_none());
        assert!(sb.deep_violation().is_none());
        sb.on_rto();
        assert!(sb.conservation_violation().is_none());
        assert!(sb.deep_violation().is_none());
        // Corrupt the cached live count: both checks must notice.
        sb.on_send(chunk(0), 1500, SimTime::ZERO);
        sb.live += 1;
        assert!(sb.conservation_violation().is_some());
        assert!(sb.deep_violation().is_some());
    }

    #[test]
    fn cum_ack_advances_highest() {
        let mut sb = Scoreboard::new();
        for i in 0..10 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        // Cumulative ack through 8 (ack_seq 7 arbitrary).
        sb.on_ack(&ack(7, 8, vec![]), SimTime::from_millis(5));
        // Packet 8,9 outstanding; no losses (nothing trails by DUPTHRESH).
        assert!(sb.detect_losses().is_empty());
        assert_eq!(sb.inflight_packets(), 2);
    }
}
