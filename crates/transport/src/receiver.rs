//! The multipath receiver endpoint.
//!
//! Mirrors a legacy MPTCP receiver (the paper changes the sender only):
//! per-subflow cumulative + selective acknowledgements, connection-level
//! reassembly in the data-sequence space, and receive-window advertisement.
//! Every data packet is acknowledged immediately (no delayed ACKs).
//!
//! Subflow sequence numbers are never resent: a retransmission takes a new
//! one on whichever subflow carries it. So after a subflow's first loss its
//! cumulative ACK stays at that hole for the rest of the transfer, and what
//! an ACK acknowledges comes from `ack_seq` (the packet that triggered it)
//! plus the [`MAX_SACK_BLOCKS`] highest received ranges. Meanwhile the
//! subflow's received set gains a range per further loss: about 3,800 on
//! the bulk benchmark workload. The set is capped at `MAX_TRACKED_RANGES`
//! by dropping its lowest ranges, which no SACK block reports. Both range
//! sets work at their ends (appends at the top, pruning and capping at the
//! bottom), which [`RangeSet`] answers without a search, so the per-packet
//! cost does not grow with the number of holes.

use crate::io::{Endpoint, HostCtx};
use crate::ranges::RangeSet;
use crate::wire::{AckHeader, Header, Packet, SackBlocks, SeqRange, ACK_SIZE, MAX_SACK_BLOCKS};
use mpcc_simcore::SimTime;
use std::any::Any;
/// Bound on remembered out-of-order subflow ranges (memory cap; see the
/// module docs for why dropping the lowest ranges is safe here).
const MAX_TRACKED_RANGES: usize = 4096;

#[derive(Debug, Default)]
struct SfRecv {
    /// Next subflow sequence number expected in order.
    cum_ack: u64,
    /// Received sequence numbers at or above `cum_ack`.
    received: RangeSet,
}

/// Statistics a receiver accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReceiverStats {
    /// Data packets received (including duplicates).
    pub received_packets: u64,
    /// Packets whose payload was entirely already-delivered bytes.
    pub duplicate_packets: u64,
    /// Connection-level bytes delivered in order to the application.
    pub delivered_bytes: u64,
    /// Time the last in-order byte was delivered.
    pub last_delivery: SimTime,
}

/// A multipath receiver endpoint.
pub struct MpReceiver {
    buffer: u64,
    sfs: Vec<SfRecv>,
    /// In-order data-sequence frontier (bytes delivered to the app).
    frontier: u64,
    /// Out-of-order data-sequence ranges above the frontier.
    oo: RangeSet,
    stats: ReceiverStats,
}

impl MpReceiver {
    /// Creates a receiver with the given reassembly buffer, in bytes
    /// (the paper's experiments use 300 MB).
    pub fn new(buffer: u64) -> Self {
        MpReceiver {
            buffer,
            sfs: Vec::new(),
            frontier: 0,
            oo: RangeSet::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// A receiver with the paper's 300 MB buffer.
    pub fn paper_default() -> Self {
        MpReceiver::new(300_000_000)
    }

    /// Resets to a fresh receiver in place (per-subflow range sets and the
    /// reassembly set keep their allocations), for connection recycling.
    pub fn reset_for_reuse(&mut self, buffer: u64) {
        self.buffer = buffer;
        for sf in &mut self.sfs {
            sf.cum_ack = 0;
            sf.received.clear();
        }
        self.frontier = 0;
        self.oo.clear();
        self.stats = ReceiverStats::default();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ReceiverStats {
        ReceiverStats {
            delivered_bytes: self.frontier,
            ..self.stats
        }
    }

    /// Connection-level in-order bytes delivered.
    pub fn delivered_bytes(&self) -> u64 {
        self.frontier
    }

    fn sf_mut(&mut self, idx: usize) -> &mut SfRecv {
        if idx >= self.sfs.len() {
            self.sfs.resize_with(idx + 1, SfRecv::default);
        }
        &mut self.sfs[idx]
    }

    fn advertised_window(&self) -> u64 {
        self.buffer.saturating_sub(self.oo.covered())
    }

    /// Receive-path invariants (see crates/check and DESIGN.md §12): DSN
    /// frontier monotonicity, the cumulative ACK and the frontier each
    /// sitting exactly at the first gap of their sequence space, and a
    /// sampled structural scan of both range sets.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn check_receive(
        &self,
        tracer: &mpcc_telemetry::Tracer,
        now: SimTime,
        conn: u64,
        sf_idx: usize,
        prev_frontier: u64,
    ) {
        use mpcc_telemetry::CheckEvent;
        mpcc_check::check(tracer, now, self.frontier >= prev_frontier, || {
            CheckEvent::Violation {
                invariant: "dsn_frontier_monotone",
                conn,
                subflow: sf_idx as i64,
                observed: self.frontier as f64,
                expected: prev_frontier as f64,
            }
        });
        let sf = &self.sfs[sf_idx];
        // `cum_ack` is the next expected sequence number: it must not be
        // covered by the received set, or the run-extension logic failed.
        mpcc_check::check(tracer, now, !sf.received.contains(sf.cum_ack), || {
            CheckEvent::Violation {
                invariant: "cum_ack_at_gap",
                conn,
                subflow: sf_idx as i64,
                observed: sf.cum_ack as f64,
                expected: sf.cum_ack as f64 + 1.0,
            }
        });
        mpcc_check::check(tracer, now, !self.oo.contains(self.frontier), || {
            CheckEvent::Violation {
                invariant: "frontier_at_gap",
                conn,
                subflow: -1,
                observed: self.frontier as f64,
                expected: self.frontier as f64 + 1.0,
            }
        });
        // O(num_ranges) structural scan, sampled: the sets are tiny in the
        // common case but can hold thousands of ranges under heavy loss.
        if self.stats.received_packets.is_multiple_of(64) {
            mpcc_check::check(
                tracer,
                now,
                sf.received.is_well_formed() && self.oo.is_well_formed(),
                || CheckEvent::Violation {
                    invariant: "rangeset_well_formed",
                    conn,
                    subflow: sf_idx as i64,
                    observed: 0.0,
                    expected: 1.0,
                },
            );
        }
    }

    #[cfg(not(any(debug_assertions, feature = "invariants")))]
    #[inline(always)]
    fn check_receive(
        &self,
        _tracer: &mpcc_telemetry::Tracer,
        _now: SimTime,
        _conn: u64,
        _sf_idx: usize,
        _prev_frontier: u64,
    ) {
    }
}

impl Endpoint for MpReceiver {
    fn start(&mut self, _ctx: &mut dyn HostCtx) {}

    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn HostCtx) {
        let Some(data) = pkt.data() else {
            return;
        };
        let data = *data;
        self.stats.received_packets += 1;
        let now = ctx.now();
        let prev_frontier = self.frontier;

        // Subflow-level sequence tracking for (S)ACK generation. A packet
        // whose subflow sequence number was already received is a wire-level
        // duplicate (e.g. a link duplication fault) even when its payload
        // has not yet reached the in-order frontier.
        let sf = self.sf_mut(data.subflow as usize);
        let dup_seq = data.seq < sf.cum_ack || sf.received.contains(data.seq);
        sf.received.insert(data.seq, data.seq + 1);
        if let Some(end) = sf.received.end_of_run(sf.cum_ack) {
            sf.cum_ack = end;
        }
        sf.received.prune_below(sf.cum_ack.saturating_sub(1));
        sf.received.truncate_to(MAX_TRACKED_RANGES);
        let cum_ack = sf.cum_ack;
        let sack: SackBlocks = sf
            .received
            .iter_highest(MAX_SACK_BLOCKS)
            .map(|(start, end)| SeqRange { start, end })
            .collect();

        // Connection-level reassembly. Wire-level duplicates carry no new
        // payload; packets entirely below the frontier (e.g. spurious
        // retransmissions) are also duplicates. Either way the frontier
        // only ever advances.
        let dsn_end = data.dsn + data.payload_len;
        if dup_seq || dsn_end <= self.frontier {
            self.stats.duplicate_packets += 1;
        } else {
            let start = data.dsn.max(self.frontier);
            self.oo.insert(start, dsn_end);
            if let Some(end) = self.oo.end_of_run(self.frontier) {
                self.frontier = end;
                self.stats.last_delivery = now;
            }
            self.oo.prune_below(self.frontier);
        }

        self.check_receive(
            ctx.tracer(),
            now,
            ctx.self_id().0 as u64,
            data.subflow as usize,
            prev_frontier,
        );

        let ack = AckHeader {
            subflow: data.subflow,
            cum_ack,
            sack,
            ack_seq: data.seq,
            echo_sent_at: data.sent_at,
            data_acked: self.frontier,
            rcv_window: self.advertised_window(),
        };
        ctx.send_reverse(pkt.path, pkt.src, ACK_SIZE, Header::Ack(ack));
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn HostCtx) {}

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
    use crate::wire::{DataHeader, EndpointId, PathId, MSS_PAYLOAD};
    use mpcc_simcore::{SimDuration, SimRng};
    use mpcc_telemetry::Tracer;

    /// A driver stand-in that keeps the last ACK the receiver sent.
    struct AckCapture {
        rng: SimRng,
        tracer: Tracer,
        last_ack: Option<AckHeader>,
    }

    impl HostCtx for AckCapture {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn self_id(&self) -> EndpointId {
            EndpointId(1)
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn tracer(&self) -> &Tracer {
            &self.tracer
        }
        fn send(&mut self, _path: PathId, _dst: EndpointId, _size: u64, _header: Header) {
            unreachable!("a receiver only sends ACKs");
        }
        fn send_reverse(&mut self, _path: PathId, _dst: EndpointId, _size: u64, header: Header) {
            let Header::Ack(ack) = header else {
                unreachable!("a receiver only sends ACKs");
            };
            self.last_ack = Some(ack);
        }
        fn set_timer(&mut self, _at: SimTime, _token: u64) {}
        fn path_base_rtt(&self, _path: PathId) -> SimDuration {
            SimDuration::ZERO
        }
    }

    fn data_packet(seq: u64) -> Packet {
        Packet {
            id: seq,
            src: EndpointId(0),
            dst: EndpointId(1),
            path: PathId(0),
            hop: 0,
            size: MSS_PAYLOAD,
            header: Header::Data(DataHeader {
                subflow: 0,
                seq,
                dsn: seq * MSS_PAYLOAD,
                payload_len: MSS_PAYLOAD,
                sent_at: SimTime::ZERO,
                is_retransmission: false,
            }),
        }
    }

    /// Subflow sequence numbers are never resent, so after the first hole
    /// the cumulative ACK stays there for good while the received set
    /// keeps growing. Past `MAX_TRACKED_RANGES` holes the set is capped by
    /// dropping its lowest ranges; the ACK still carries the first hole as
    /// `cum_ack` and the four highest ranges as SACK blocks.
    #[test]
    fn stuck_cum_ack_with_more_holes_than_tracked_ranges() {
        const GAP: u64 = 40;
        const BUFFER: u64 = 300_000_000;
        let n = GAP * (MAX_TRACKED_RANGES as u64 + 200);
        let first_hole = GAP - 1;
        let mut rx = MpReceiver::new(BUFFER);
        let mut ctx = AckCapture {
            rng: SimRng::seed_from_u64(1),
            tracer: Tracer::off(),
            last_ack: None,
        };
        let mut received_above_hole = 0u64;
        for seq in (0..n).filter(|s| s % GAP != GAP - 1) {
            rx.on_packet(data_packet(seq), &mut ctx);
            let ack = ctx.last_ack.take().expect("every data packet is acked");
            assert_eq!(ack.ack_seq, seq);
            assert_eq!(ack.cum_ack, (seq + 1).min(first_hole));
            assert!(rx.sfs[0].received.num_ranges() <= MAX_TRACKED_RANGES);
            if seq > first_hole {
                received_above_hole += 1;
            }
            assert_eq!(ack.data_acked, ack.cum_ack * MSS_PAYLOAD);
            assert_eq!(ack.rcv_window, BUFFER - received_above_hole * MSS_PAYLOAD);
            // From the fifth run on, the SACK blocks are the run holding
            // `seq` and the three full runs below it.
            let run = seq / GAP;
            if run >= 4 {
                let expected: Vec<SeqRange> = (0..4)
                    .map(|k| SeqRange {
                        start: (run - k) * GAP,
                        end: if k == 0 {
                            seq + 1
                        } else {
                            (run - k) * GAP + GAP - 1
                        },
                    })
                    .collect();
                assert_eq!(ack.sack.as_slice(), expected.as_slice(), "seq {seq}");
            }
        }
        assert_eq!(rx.sfs[0].received.num_ranges(), MAX_TRACKED_RANGES);
        assert_eq!(rx.stats().received_packets, n - n / GAP);
        assert_eq!(rx.stats().duplicate_packets, 0);
    }
}
