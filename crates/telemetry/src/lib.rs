#![warn(missing_docs)]
//! Deterministic structured event tracing for the MPCC stack.
//!
//! Every layer of the simulator — the MPCC controller, the multipath
//! transport, and the network links — can emit typed events through a
//! [`Tracer`] handle into a pluggable [`TraceSink`]. The design invariants:
//!
//! * **Sim-time only.** Every [`Record`] is stamped with the simulation
//!   clock ([`mpcc_simcore::SimTime`]), never wall clock, so traces from
//!   the same seed are byte-for-byte identical across runs and machines.
//! * **Observation-free.** Emitting an event never draws randomness,
//!   schedules simulation events, or otherwise feeds back into the run:
//!   a traced run and an untraced run produce identical results. A paired
//!   test in `tests/telemetry_determinism.rs` enforces this.
//! * **Zero cost when off.** The default [`Tracer`] is disabled (a `None`
//!   inside); the emit path is a branch on an `Option` and the event is
//!   built lazily via [`Tracer::emit_with`], so hot paths pay ~nothing.
//!
//! Sinks: [`NullSink`] (drop everything), [`RingSink`] (bounded in-memory
//! buffer with observable overflow, used by tests and invariant checks),
//! [`KeyedSink`] (one keyed part file per run or shard, merged into the
//! experiments CLI's `--trace`/`--metrics` files by [`merge_keyed_parts`]),
//! [`TeeSink`] (per-branch-masked fan-out), and [`MetricsPipeline`] (the
//! one aggregator: bounded-memory time-binned metrics rows — the
//! substrate of `--metrics` and `experiments report`).

pub mod event;
pub mod keyed;
pub mod pipeline;
pub mod sink;
pub mod stats;

pub use event::{
    CheckEvent, ControllerEvent, Layer, LayerMask, LinkEvent, MetaEvent, Record, TraceEvent,
    TransportEvent,
};
pub use keyed::{merge_keyed_parts, KeyedSink};
pub use pipeline::{MetricsPipeline, PipelineConfig};
pub use sink::{NullSink, RingSink, TeeSink, TraceSink, Tracer};
pub use stats::Histogram;
