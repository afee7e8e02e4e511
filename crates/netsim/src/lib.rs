//! # mpcc-netsim
//!
//! A packet-level, deterministic network simulator sized exactly to what the
//! MPCC paper's Emulab/testbed evaluation controls: droptail links with
//! configurable capacity, propagation delay, buffer size and random
//! (non-congestion) loss; scheduled mid-run parameter changes; path-based
//! routing; topology builders for every network in the paper's Fig. 3,
//! Fig. 4 and Fig. 18; and deterministic per-link fault injection
//! (reordering, duplication, Gilbert–Elliott burst loss, scheduled
//! outages — see [`fault`]) for adversarial soak testing.
//!
//! Transport endpoints plug in via the [`Endpoint`] trait and interact with
//! the network only through the [`HostCtx`] driver seam defined in
//! `mpcc-transport` (send on a path, set a timer, draw randomness) — the
//! same information boundary a real host has. [`Ctx`] is this simulator's
//! `HostCtx` implementation; `mpcc-udp` provides a real-socket one.

#![warn(missing_docs)]

pub mod fault;
pub mod ids;
pub mod link;
pub mod network;
pub mod packet;
pub mod replay;
pub mod shard;
pub mod topology;

pub use fault::{BurstLoss, DuplicateFault, FaultPlan, OutageSchedule, ReorderFault};
pub use ids::{EndpointId, LinkId, PathId};
pub use link::{Admission, DropKind, Link, LinkParams, LinkStats, TxOutcome};
pub use network::{endpoint_rng, Ctx, Endpoint, HostCtx, Simulation};
pub use packet::{
    AckHeader, DataHeader, Header, Packet, SackBlocks, SeqRange, ACK_SIZE, MAX_SACK_BLOCKS,
    MSS_PAYLOAD, MSS_WIRE,
};
pub use replay::{Blackhole, Tap};
pub use shard::{ShardHook, ShardedSimulation};
