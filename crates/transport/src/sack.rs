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
#[derive(Clone, Copy, Debug, PartialEq)]
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
#[derive(Debug, Default, PartialEq)]
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
/// tombstones (`None`) that are dropped once the front catches up. Entries
/// are appended at the back and leave only from the front, so the deque is
/// contiguous in sequence numbers and ends at `next_seq - 1`: entry `i`
/// holds seq `next_seq - len + i`, and every lookup is that subtraction —
/// no search, no tree-node traversal, and no allocation after warm-up
/// thanks to the recycled [`AckOutcome`] buffer (see
/// [`Scoreboard::recycle`]).
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// `(seq, Some(meta))` for the contiguous seqs `next_seq - len ..
    /// next_seq`; `None` is a tombstone for a packet already acked or lost.
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

    /// Sequence number of the front entry (`next_seq` when empty).
    fn front_seq(&self) -> u64 {
        self.next_seq - self.outstanding.len() as u64
    }

    /// Index of `seq` in `outstanding`, if tracked (live or tombstone).
    fn idx_of(&self, seq: u64) -> Option<usize> {
        let i = seq.checked_sub(self.front_seq())?;
        let found = (i < self.outstanding.len() as u64).then_some(i as usize);
        debug_assert!(found.is_none_or(|i| self.outstanding[i].0 == seq));
        found
    }

    /// Index of the first entry whose seq is at least `seq` (`len` if
    /// none is).
    fn lower_bound(&self, seq: u64) -> usize {
        let offset = seq.saturating_sub(self.front_seq());
        offset.min(self.outstanding.len() as u64) as usize
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
            for i in self.lower_bound(*start)..self.lower_bound(*end) {
                self.mark_at(i, &mut out);
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
    /// contiguous and ending at `next_seq - 1` (every lookup's offset
    /// arithmetic relies on it), the cached `live` count matching the
    /// actual non-tombstone entries, and `inflight_payload` matching the
    /// sum of live chunk lengths. Returns `(invariant, observed,
    /// expected)` on the first violation. Used (sampled) by the runtime
    /// invariant checker; too expensive to run per-ACK.
    pub fn deep_violation(&self) -> Option<(&'static str, f64, f64)> {
        let mut live = 0usize;
        let mut payload = 0u64;
        for (expected, &(seq, ref slot)) in (self.front_seq()..).zip(&self.outstanding) {
            if seq != expected {
                return Some(("scoreboard_seq_order", seq as f64, expected as f64));
            }
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
    use crate::wire::MAX_SACK_BLOCKS;
    use mpcc_simcore::SimRng;

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
    fn deep_scan_flags_a_seq_gap() {
        let mut sb = Scoreboard::new();
        for i in 0..4 {
            sb.on_send(chunk(i * 1448), 1500, SimTime::ZERO);
        }
        assert!(sb.deep_violation().is_none());
        // Still strictly ascending, but no longer contiguous: the offset
        // lookups would find the wrong entries.
        sb.outstanding[3].0 += 1;
        assert_eq!(
            sb.deep_violation(),
            Some(("scoreboard_seq_order", 4.0, 3.0))
        );
    }

    /// The binary-search scoreboard that offset lookups replaced, kept as
    /// the behavioural reference for the differential test below. It
    /// finds entries by `partition_point` and so never relies on the
    /// outstanding seqs being contiguous.
    #[derive(Default)]
    struct SearchScoreboard {
        outstanding: VecDeque<(u64, Option<SentMeta>)>,
        next_seq: u64,
        highest_acked: Option<u64>,
        inflight_payload: u64,
        delivered_bytes: u64,
        lost: u64,
        acked: u64,
    }

    impl SearchScoreboard {
        fn on_send(&mut self, chunk: Chunk, wire_size: u64, sent_at: SimTime) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight_payload += chunk.len;
            let meta = SentMeta {
                chunk,
                wire_size,
                sent_at,
                delivered_at_send: self.delivered_bytes,
            };
            self.outstanding.push_back((seq, Some(meta)));
            seq
        }

        fn idx_of(&self, seq: u64) -> Option<usize> {
            let i = self.outstanding.partition_point(|&(s, _)| s < seq);
            (i < self.outstanding.len() && self.outstanding[i].0 == seq).then_some(i)
        }

        fn mark_at(&mut self, i: usize, out: &mut AckOutcome) {
            if let Some(meta) = self.outstanding[i].1.take() {
                self.inflight_payload -= meta.chunk.len;
                self.delivered_bytes += meta.chunk.len;
                self.acked += 1;
                out.acked_bytes += meta.chunk.len;
                out.acked.push((self.outstanding[i].0, meta));
            }
        }

        fn on_ack(&mut self, ack: &AckHeader, now: SimTime) -> AckOutcome {
            let mut out = AckOutcome::default();
            if self
                .idx_of(ack.ack_seq)
                .is_some_and(|i| self.outstanding[i].1.is_some())
                && ack.echo_sent_at <= now
            {
                out.rtt_sample = Some(now.saturating_since(ack.echo_sent_at));
            }
            while let Some(&(seq, _)) = self.outstanding.front() {
                if seq >= ack.cum_ack {
                    break;
                }
                self.mark_at(0, &mut out);
                self.outstanding.pop_front();
            }
            for SeqRange { start, end } in &ack.sack {
                let mut i = self.outstanding.partition_point(|&(s, _)| s < *start);
                while i < self.outstanding.len() && self.outstanding[i].0 < *end {
                    self.mark_at(i, &mut out);
                    i += 1;
                }
            }
            if let Some(i) = self.idx_of(ack.ack_seq) {
                self.mark_at(i, &mut out);
            }
            self.highest_acked = self.highest_acked.max(Some(ack.ack_seq));
            if ack.cum_ack > 0 {
                self.highest_acked = self.highest_acked.max(Some(ack.cum_ack - 1));
            }
            while matches!(self.outstanding.front(), Some(&(_, None))) {
                self.outstanding.pop_front();
            }
            out
        }

        /// Pops the front while `lost(seq)`, declaring live entries lost.
        fn lose_front(&mut self, lost: impl Fn(u64) -> bool) -> Vec<(u64, SentMeta)> {
            let mut result = Vec::new();
            while let Some(&(seq, _)) = self.outstanding.front() {
                if !lost(seq) {
                    break;
                }
                if let (seq, Some(meta)) = self.outstanding.pop_front().expect("front") {
                    self.inflight_payload -= meta.chunk.len;
                    self.lost += 1;
                    result.push((seq, meta));
                }
            }
            result
        }

        fn detect_losses(&mut self) -> Vec<(u64, SentMeta)> {
            let Some(high) = self.highest_acked else {
                return Vec::new();
            };
            let cutoff = high.saturating_sub(DUPTHRESH - 1);
            self.lose_front(|seq| seq < cutoff)
        }

        fn on_rto(&mut self) -> Vec<(u64, SentMeta)> {
            self.lose_front(|_| true)
        }

        fn live(&self) -> usize {
            self.outstanding.iter().filter(|(_, m)| m.is_some()).count()
        }
    }

    /// A random ACK against a scoreboard that has assigned `next_seq`
    /// seqs: cumulative, SACK and `ack_seq` parts drawn over the whole
    /// sequence space (and just past it), so they include stale,
    /// duplicate, below-front, empty and reversed ranges, and echo times
    /// that can lie in the future.
    fn random_ack(rng: &mut SimRng, next_seq: u64, now: SimTime) -> AckHeader {
        let seq_near_top = |rng: &mut SimRng| {
            let back = rng.range_u64(0, 40);
            (next_seq + 2).saturating_sub(back)
        };
        let cum_ack = match rng.index(4) {
            0 => 0,
            1 => rng.range_u64(0, next_seq + 3),
            _ => seq_near_top(rng).saturating_sub(rng.range_u64(0, 20)),
        };
        let blocks = rng.index(MAX_SACK_BLOCKS + 1);
        let sack = (0..blocks).map(|_| {
            let start = if rng.coin() {
                seq_near_top(rng)
            } else {
                rng.range_u64(0, next_seq + 3)
            };
            let len = rng.range_u64(0, 8);
            if rng.index(16) == 0 {
                SeqRange {
                    start: start + len,
                    end: start,
                }
            } else {
                SeqRange {
                    start,
                    end: start + len,
                }
            }
        });
        let sack = SackBlocks::from_ranges(sack.collect::<Vec<_>>());
        let ack_seq = seq_near_top(rng).min(next_seq + 1);
        let echo = now.as_nanos() + 2_000_000;
        AckHeader {
            subflow: 0,
            cum_ack,
            sack,
            ack_seq,
            echo_sent_at: SimTime::from_nanos(rng.range_u64(0, echo)),
            data_acked: 0,
            rcv_window: u64::MAX,
        }
    }

    fn assert_same_state(sb: &Scoreboard, reference: &SearchScoreboard, at: &str) {
        assert_eq!(sb.next_seq(), reference.next_seq, "next_seq {at}");
        assert_eq!(
            sb.inflight_bytes(),
            reference.inflight_payload,
            "inflight {at}"
        );
        assert_eq!(sb.inflight_packets(), reference.live(), "live {at}");
        assert_eq!(
            sb.delivered_bytes(),
            reference.delivered_bytes,
            "delivered {at}"
        );
        assert_eq!(sb.total_lost_packets(), reference.lost, "lost {at}");
        assert_eq!(sb.total_acked_packets(), reference.acked, "acked {at}");
        assert!(sb.conservation_violation().is_none(), "conservation {at}");
        assert!(sb.deep_violation().is_none(), "deep scan {at}");
    }

    /// Offset lookups against the binary-search reference on seeded random
    /// op sequences — sends, ACKs (see [`random_ack`]), FACK loss passes,
    /// RTOs and resets for reuse — asserting identical outcomes (acked
    /// seqs and metadata in order, bytes, RTT samples), loss lists and
    /// counters after every op. Buffers go back through `recycle` and
    /// `recycle_lost`, as the sender returns them.
    #[test]
    fn differential_offset_vs_search_reference() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0x5C0E ^ seed);
            let mut sb = Scoreboard::new();
            let mut reference = SearchScoreboard::default();
            let mut now = SimTime::ZERO;
            for step in 0..20_000u32 {
                let at = format!("at step {step} (seed {seed})");
                now += SimDuration::from_micros(rng.range_u64(0, 500));
                match rng.index(64) {
                    0..=29 => {
                        let c = Chunk {
                            dsn: rng.next_u64() % (1 << 40),
                            len: rng.range_u64(1, 1449),
                            retx: rng.coin(),
                        };
                        let wire = c.len + 52;
                        assert_eq!(
                            sb.on_send(c, wire, now),
                            reference.on_send(c, wire, now),
                            "seq {at}"
                        );
                    }
                    30..=54 => {
                        let ack = random_ack(&mut rng, sb.next_seq(), now);
                        let out = sb.on_ack(&ack, now);
                        assert_eq!(out, reference.on_ack(&ack, now), "outcome {at}");
                        sb.recycle(out);
                    }
                    55..=61 => {
                        let lost = sb.detect_losses();
                        assert_eq!(lost, reference.detect_losses(), "losses {at}");
                        sb.recycle_lost(lost);
                    }
                    62 => {
                        let lost = sb.on_rto();
                        assert_eq!(lost, reference.on_rto(), "rto {at}");
                        sb.recycle_lost(lost);
                    }
                    _ if rng.index(8) == 0 => {
                        sb.reset_for_reuse();
                        reference = SearchScoreboard::default();
                    }
                    _ => continue,
                }
                assert_same_state(&sb, &reference, &at);
            }
        }
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
