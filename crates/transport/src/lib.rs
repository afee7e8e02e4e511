//! # mpcc-transport
//!
//! The multipath transport data plane underneath every protocol evaluated in
//! the MPCC paper: per-subflow packet sequence spaces with SACK scoreboards
//! and FACK loss detection, an MPTCP-style connection-level data sequence
//! space with retransmission/reinjection, RFC 6298 RTT estimation and
//! retransmission timeouts, PCC-style monitor intervals, token pacing, and
//! the two packet schedulers from the paper's §6 (the default
//! lowest-RTT/window scheduler and the 10%-threshold rate-based scheduler).
//!
//! Congestion controllers plug in via [`MultipathCc`]; one instance governs
//! all subflows of a connection, so both coupled (LIA/OLIA/Balia/MPCC) and
//! uncoupled designs are expressible.
//!
//! Nothing here names a driver: endpoints interact with the outside world
//! only through the [`HostCtx`] seam (see [`io`]), so the same compiled
//! transport runs under the packet-level simulator (`mpcc-netsim`) and
//! under real UDP sockets (`mpcc-udp`).

#![warn(missing_docs)]

pub mod connection;
pub mod controller;
pub mod io;
pub mod mi;
pub mod ranges;
pub mod receiver;
pub mod rtt;
pub mod sack;
pub mod scheduler;
pub mod sender;
pub mod subflow;
pub mod wire;

pub use connection::{ConnSend, Workload};
pub use controller::{AckInfo, LossInfo, MiReport, MultipathCc};
pub use io::{Endpoint, HostCtx, PacketTrace, TraceEntry};
pub use receiver::{MpReceiver, ReceiverStats};
pub use sack::{Chunk, Scoreboard};
pub use scheduler::SchedulerKind;
pub use sender::{MpSender, SenderConfig};
pub use subflow::{Subflow, SubflowStats};
pub use wire::{
    AckHeader, DataHeader, EndpointId, Header, Packet, PathId, SackBlocks, SeqRange, ACK_SIZE,
    MAX_SACK_BLOCKS, MSS_PAYLOAD, MSS_WIRE,
};
