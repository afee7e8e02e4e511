//! Binary wire format for MPCC packets carried in UDP datagrams.
//!
//! One datagram carries one [`Packet`]. The layout is little-endian and
//! fixed-width — no varints, no compression — so encode/decode are a few
//! dozen loads and stores and the format is trivially fuzzable:
//!
//! ```text
//! offset  size  field
//!      0     2  magic 0x50 0x4D ("PM")
//!      2     1  version (1)
//!      3     1  kind (1 = DATA, 2 = ACK)
//!      4     4  src endpoint id
//!      8     4  dst endpoint id
//!     12     4  path id
//!     16     8  packet id (diagnostics only)
//!     24     8  modelled wire size in bytes
//!     32     …  header body (see below)
//! ```
//!
//! DATA body: subflow u32, seq u64, dsn u64, payload_len u64, sent_at
//! nanos u64, is_retransmission u8 — then zero padding up to the modelled
//! wire size, so a full-sized segment really occupies ~MTU bytes on the
//! loopback and goodput numbers mean what they say. (The padding stands in
//! for application payload; this repo's transport moves byte *counts*, not
//! application data.)
//!
//! ACK body: subflow u32, cum_ack u64, ack_seq u64, echo_sent_at nanos
//! u64, data_acked u64, rcv_window u64, sack count u8, then `count` ×
//! (start u64, end u64). An ACK's encoding may exceed its modelled
//! [`ACK_SIZE`](mpcc_transport::wire::ACK_SIZE) — the modelled size is what the congestion accounting
//! uses; the datagram is as long as it needs to be.
//!
//! Decoding is total: any input — truncated, oversized, garbage — returns
//! `Ok` or a [`DecodeError`], never panics. The decoder validates magic,
//! version, kind and the SACK count, and ignores trailing padding.

use mpcc_simcore::SimTime;
use mpcc_transport::wire::{
    AckHeader, DataHeader, EndpointId, Header, Packet, PathId, SackBlocks, SeqRange,
    MAX_SACK_BLOCKS,
};
use std::fmt;

/// First two bytes of every datagram.
pub const MAGIC: [u8; 2] = [0x50, 0x4D];
/// Format version this build speaks.
pub const VERSION: u8 = 1;

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

/// Bytes before the header body.
const FIXED_LEN: usize = 32;
/// Encoded length of a DATA header body.
const DATA_BODY_LEN: usize = 4 + 8 + 8 + 8 + 8 + 1;
/// Encoded length of an ACK header body with `n` SACK blocks.
const fn ack_body_len(n: usize) -> usize {
    4 + 8 + 8 + 8 + 8 + 8 + 1 + n * 16
}

/// Largest datagram `encode` can produce for a packet whose modelled size
/// is at most `max_size`.
pub const fn max_encoded_len(max_size: u64) -> usize {
    let data = FIXED_LEN + DATA_BODY_LEN;
    let ack = FIXED_LEN + ack_body_len(MAX_SACK_BLOCKS);
    let padded = max_size as usize;
    let mut m = if data > ack { data } else { ack };
    if padded > m {
        m = padded;
    }
    m
}

/// Why a datagram failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed part of the declared layout.
    Truncated {
        /// Bytes required to finish decoding.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown packet kind byte.
    BadKind(u8),
    /// SACK count above [`MAX_SACK_BLOCKS`].
    BadSackCount(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "datagram truncated: need {need} bytes, have {have}")
            }
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            DecodeError::BadSackCount(n) => write!(f, "sack count {n} exceeds the wire limit"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked little-endian reader. Every read returns a
/// [`DecodeError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated {
            need: usize::MAX,
            have: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated {
                need: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes `pkt` into `out` (cleared first). DATA packets are zero-padded
/// to the packet's modelled wire size so the datagram occupies real bytes
/// on the wire; ACKs are exactly as long as their encoding.
pub fn encode(pkt: &Packet, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(match pkt.header {
        Header::Data(_) => KIND_DATA,
        Header::Ack(_) => KIND_ACK,
    });
    put_u32(out, pkt.src.0);
    put_u32(out, pkt.dst.0);
    put_u32(out, pkt.path.0);
    put_u64(out, pkt.id);
    put_u64(out, pkt.size);
    debug_assert_eq!(out.len(), FIXED_LEN);
    match &pkt.header {
        Header::Data(d) => {
            put_u32(out, d.subflow);
            put_u64(out, d.seq);
            put_u64(out, d.dsn);
            put_u64(out, d.payload_len);
            put_u64(out, d.sent_at.as_nanos());
            out.push(d.is_retransmission as u8);
            // Pad to the modelled wire size (stand-in for payload bytes).
            let target = pkt.size as usize;
            if target > out.len() {
                out.resize(target, 0);
            }
        }
        Header::Ack(a) => {
            put_u32(out, a.subflow);
            put_u64(out, a.cum_ack);
            put_u64(out, a.ack_seq);
            put_u64(out, a.echo_sent_at.as_nanos());
            put_u64(out, a.data_acked);
            put_u64(out, a.rcv_window);
            let blocks = a.sack.as_slice();
            out.push(blocks.len() as u8);
            for b in blocks {
                put_u64(out, b.start);
                put_u64(out, b.end);
            }
        }
    }
}

/// Decodes one datagram. Total: returns an error on any malformed input,
/// never panics. The decoded packet's `hop` is `usize::MAX` (socket
/// drivers have no hops).
pub fn decode(buf: &[u8]) -> Result<Packet, DecodeError> {
    let mut r = Reader::new(buf);
    if r.take(2)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let ver = r.u8()?;
    if ver != VERSION {
        return Err(DecodeError::BadVersion(ver));
    }
    let kind = r.u8()?;
    let src = EndpointId(r.u32()?);
    let dst = EndpointId(r.u32()?);
    let path = PathId(r.u32()?);
    let id = r.u64()?;
    let size = r.u64()?;
    let header = match kind {
        KIND_DATA => Header::Data(DataHeader {
            subflow: r.u32()?,
            seq: r.u64()?,
            dsn: r.u64()?,
            payload_len: r.u64()?,
            sent_at: SimTime::from_nanos(r.u64()?),
            is_retransmission: r.u8()? != 0,
        }),
        KIND_ACK => {
            let subflow = r.u32()?;
            let cum_ack = r.u64()?;
            let ack_seq = r.u64()?;
            let echo_sent_at = SimTime::from_nanos(r.u64()?);
            let data_acked = r.u64()?;
            let rcv_window = r.u64()?;
            let n = r.u8()?;
            if n as usize > MAX_SACK_BLOCKS {
                return Err(DecodeError::BadSackCount(n));
            }
            let mut sack = SackBlocks::new();
            for _ in 0..n {
                sack.push(SeqRange {
                    start: r.u64()?,
                    end: r.u64()?,
                });
            }
            Header::Ack(AckHeader {
                subflow,
                cum_ack,
                sack,
                ack_seq,
                echo_sent_at,
                data_acked,
                rcv_window,
            })
        }
        k => return Err(DecodeError::BadKind(k)),
    };
    Ok(Packet {
        id,
        src,
        dst,
        path,
        hop: usize::MAX,
        size,
        header,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_transport::wire::{ACK_SIZE, MSS_PAYLOAD, MSS_WIRE};

    fn data_packet() -> Packet {
        Packet {
            id: 42,
            src: EndpointId(0),
            dst: EndpointId(1),
            path: PathId(1),
            hop: usize::MAX,
            size: MSS_WIRE,
            header: Header::Data(DataHeader {
                subflow: 1,
                seq: 77,
                dsn: 77 * MSS_PAYLOAD,
                payload_len: MSS_PAYLOAD,
                sent_at: SimTime::from_micros(123_456),
                is_retransmission: true,
            }),
        }
    }

    fn ack_packet(blocks: usize) -> Packet {
        let sack = SackBlocks::from_ranges((0..blocks as u64).map(|i| SeqRange {
            start: 100 * i,
            end: 100 * i + 5,
        }));
        Packet {
            id: 7,
            src: EndpointId(1),
            dst: EndpointId(0),
            path: PathId(0),
            hop: usize::MAX,
            size: ACK_SIZE,
            header: Header::Ack(AckHeader {
                subflow: 0,
                cum_ack: 99,
                sack,
                ack_seq: 104,
                echo_sent_at: SimTime::from_nanos(5),
                data_acked: 12_345,
                rcv_window: u64::MAX,
            }),
        }
    }

    #[test]
    fn data_round_trips_and_pads_to_wire_size() {
        let pkt = data_packet();
        let mut buf = Vec::new();
        encode(&pkt, &mut buf);
        assert_eq!(buf.len(), MSS_WIRE as usize);
        let back = decode(&buf).unwrap();
        assert_eq!(back.header, pkt.header);
        assert_eq!(back.size, pkt.size);
        assert_eq!(back.src, pkt.src);
        assert_eq!(back.dst, pkt.dst);
        assert_eq!(back.path, pkt.path);
        assert_eq!(back.hop, usize::MAX);
    }

    #[test]
    fn ack_round_trips_with_any_block_count() {
        for n in 0..=MAX_SACK_BLOCKS {
            let pkt = ack_packet(n);
            let mut buf = Vec::new();
            encode(&pkt, &mut buf);
            let back = decode(&buf).unwrap();
            assert_eq!(back.header, pkt.header, "blocks = {n}");
            assert!(buf.len() <= max_encoded_len(MSS_WIRE));
        }
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let pkt = ack_packet(MAX_SACK_BLOCKS);
        let mut buf = Vec::new();
        encode(&pkt, &mut buf);
        // Padding-free encoding: every prefix must fail cleanly.
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).is_err(), "prefix of {cut} decoded");
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(
            decode(&[]),
            Err(DecodeError::Truncated { need: 2, have: 0 })
        );
        assert_eq!(decode(&[0xFF; 64]).unwrap_err(), DecodeError::BadMagic);
        let mut buf = Vec::new();
        encode(&data_packet(), &mut buf);
        buf[2] = 9;
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadVersion(9));
        buf[2] = VERSION;
        buf[3] = 3;
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadKind(3));
        let mut buf = Vec::new();
        encode(&ack_packet(2), &mut buf);
        buf[FIXED_LEN + 4 + 8 * 5] = 200; // sack count byte
        assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadSackCount(200));
    }
}
