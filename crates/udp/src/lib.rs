//! # mpcc-udp
//!
//! A real-socket UDP data plane for the MPCC transport: the second driver
//! behind the [`mpcc_transport::HostCtx`] seam (the first is the
//! `mpcc-netsim` simulator).
//!
//! Two pieces:
//!
//! * [`codec`] — the binary wire format: one datagram per packet,
//!   fixed-width little-endian fields, total (panic-free) decoding;
//! * [`UdpPeer`] — one event loop driving an unmodified transport endpoint
//!   ([`MpSender`](mpcc_transport::MpSender) /
//!   [`MpReceiver`](mpcc_transport::MpReceiver)), either over non-blocking
//!   UDP sockets (one per path) under a monotonic clock, or
//!   ([`UdpPeer::replay`]) over a recorded packet trace under a manual
//!   clock. Replay is what makes the socket loop *testable against the
//!   simulator*: replaying one recorded ACK trace through both drivers
//!   must reproduce the controller's decisions bit-for-bit (see
//!   DESIGN.md §14 and `tests/udp_crosscheck.rs` at the workspace root).

#![warn(missing_docs)]

pub mod codec;
pub mod host;

pub use codec::{decode, encode, DecodeError};
pub use host::{HostStats, UdpPath, UdpPeer};
