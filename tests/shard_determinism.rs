//! Shard-count and backend invariance of the partitioned engine.
//!
//! DESIGN.md §16: every *emitted* quantity of a sharded run — flow
//! completion times, the event digest, total event work, stale-event
//! count — must be byte-identical at any shard count and under either
//! epoch backend (sequential or barrier-synchronised threads). The
//! connection-churn workload is the hardest case: endpoints are created
//! and destroyed mid-run at epoch boundaries, so any drift in boundary
//! placement or cross-shard handoff ordering shows up immediately.
//!
//! fig19, which shares the Clos fabric but runs on one plain instance,
//! keeps one test here: its `--faults` overlay and telemetry reach it
//! through the same executor path.

use mpcc_experiments::runner::{Executor, MetricsConfig, TraceConfig};
use mpcc_experiments::scenarios::churn::{self, ChurnConfig, ChurnOutcome};
use mpcc_experiments::scenarios::fig19;
use mpcc_experiments::ExpConfig;
use mpcc_netsim::fault::FaultPlan;
use mpcc_telemetry::LayerMask;
use std::path::PathBuf;

/// Runs the small churn workload at `shards` shards on the chosen
/// backend and returns the full outcome.
fn outcome(shards: u8, threaded: bool) -> ChurnOutcome {
    // 300 connections over ~4 s: enough lifetimes to exercise arrival,
    // retirement, pool reuse, and cross-shard traffic, small enough for
    // a debug-build test.
    let cfg = ChurnConfig::small(20201201, shards, 300, 4);
    let mut run = churn::build(&cfg);
    run.sim.set_threaded(threaded);
    run.sim.run_until(cfg.duration);
    run.collect()
}

#[test]
fn churn_outcome_invariant_across_shard_counts() {
    let base = outcome(1, false);
    assert!(
        base.fcts.len() > 200,
        "workload must complete most connections ({} done)",
        base.fcts.len()
    );
    for shards in [2u8, 4] {
        let o = outcome(shards, false);
        assert_eq!(
            base.fcts, o.fcts,
            "flow completion times differ at {shards} shards"
        );
        assert_eq!(
            base.digest, o.digest,
            "event digest differs at {shards} shards"
        );
        assert_eq!(
            base.total_events, o.total_events,
            "event work differs at {shards} shards"
        );
        assert_eq!(
            base.stale_events, o.stale_events,
            "stale-event count differs at {shards} shards"
        );
        assert_eq!(
            (base.incomplete, base.skipped),
            (o.incomplete, o.skipped),
            "completion accounting differs at {shards} shards"
        );
    }
}

/// A scratch directory with trace + metrics sinks wired into an
/// [`Executor`], so a scenario run leaves merged telemetry files behind.
struct TelemetryDir {
    dir: PathBuf,
    trace: PathBuf,
    metrics: PathBuf,
    exec: Executor,
}

impl TelemetryDir {
    fn new(tag: &str, faults: FaultPlan) -> TelemetryDir {
        let dir =
            std::env::temp_dir().join(format!("mpcc-shard-telem-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.jsonl");
        let exec = Executor::new(
            1,
            Some(TraceConfig {
                path: trace.clone(),
                mask: LayerMask::ALL,
            }),
        )
        .with_metrics(MetricsConfig::new(metrics.clone()))
        .with_faults(faults);
        TelemetryDir {
            dir,
            trace,
            metrics,
            exec,
        }
    }

    /// Reads both merged streams and removes the scratch directory.
    fn collect(self) -> (Vec<u8>, Vec<u8>) {
        let t = std::fs::read(&self.trace).unwrap();
        let m = std::fs::read(&self.metrics).unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
        (t, m)
    }
}

/// Runs the small churn workload as one executor run, with per-shard
/// trace + metrics sinks attached, and returns the merged byte streams.
fn churn_telemetry(shards: u8, threaded: bool, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let td = TelemetryDir::new(tag, FaultPlan::NONE);
    let cfg = ChurnConfig::small(20201201, shards, 300, 4);
    td.exec.run_jobs(vec![cfg], |cfg, ctx| {
        let mut run = churn::build(&cfg);
        run.sim.set_threaded(threaded);
        ctx.attach_sharded(&mut run.sim);
        run.sim.run_until(cfg.duration);
    });
    td.collect()
}

/// The per-class FCT samples and incomplete count of one fig19 protocol.
type Fig19Outcome = Vec<(Vec<Vec<f64>>, usize)>;

/// Runs the scaled-down fig19 workload (one protocol) through the real
/// executor path — `run_protocols_scaled` hands the run its telemetry and
/// the `faults` overlay, and merges the part — and returns the FCTs and
/// the merged bytes.
fn fig19_telemetry(faults: FaultPlan, tag: &str) -> (Fig19Outcome, Vec<u8>, Vec<u8>) {
    let td = TelemetryDir::new(tag, faults);
    let cfg = ExpConfig {
        exec: td.exec.clone(),
        ..ExpConfig::default()
    };
    let fcts = fig19::run_protocols_scaled(&cfg, &["mpcc-loss"], 5);
    let (t, m) = td.collect();
    (fcts, t, m)
}

/// DESIGN.md §16 extended to the telemetry plane: the merged `--trace`
/// and `--metrics` byte streams — not just the scenario outcome — must be
/// identical at every shard count and on either backend. This is the
/// regression test for the sharded-run telemetry blackout: before the
/// per-shard sinks existed these files came out empty.
#[test]
fn churn_telemetry_bytes_invariant_across_shards_and_backends() {
    let (t1, m1) = churn_telemetry(1, false, "churn-s1");
    assert!(
        t1.len() > 10_000,
        "trace suspiciously small ({} bytes): sinks not attached?",
        t1.len()
    );
    assert!(
        m1.len() > 500,
        "metrics suspiciously small ({} bytes): sinks not attached?",
        m1.len()
    );
    for (shards, threaded, tag) in [
        (2, false, "churn-s2"),
        (4, false, "churn-s4"),
        (4, true, "churn-s4t"),
    ] {
        let (t, m) = churn_telemetry(shards, threaded, tag);
        assert!(
            t1 == t,
            "trace bytes differ at {shards} shards (threaded={threaded})"
        );
        assert!(
            m1 == m,
            "metrics bytes differ at {shards} shards (threaded={threaded})"
        );
    }
}

/// fig19 runs on one instance, outside the partitioned engine, but goes
/// through the same executor path: its `--faults` overlay reaches the
/// Clos fabric (a faulted run's FCTs differ from the clean run's, and its
/// trace shows burst drops), and both runs write their telemetry.
#[test]
fn fig19_faults_reach_the_clos_fabric_and_telemetry_is_written() {
    let (clean, t, m) = fig19_telemetry(FaultPlan::NONE, "fig19-clean");
    let faults = FaultPlan::parse(
        "reorder:p=0.05,extra=10ms;dup:p=0.02;burst:enter=0.003,exit=0.3,loss=0.5",
    )
    .expect("CI fault mix parses");
    let (faulted, ft, fm) = fig19_telemetry(faults, "fig19-faulted");
    assert!(clean != faulted, "--faults left the fig19 FCTs unchanged");
    for (trace, metrics) in [(&t, &m), (&ft, &fm)] {
        assert!(
            trace.len() > 10_000,
            "trace suspiciously small ({} bytes): sinks not attached?",
            trace.len()
        );
        assert!(
            metrics.len() > 500,
            "metrics suspiciously small ({} bytes)",
            metrics.len()
        );
    }
    let faulted_trace = String::from_utf8(ft).unwrap();
    assert!(
        faulted_trace.contains("drop_burst"),
        "no burst drops in the faulted trace"
    );
}

#[test]
fn churn_outcome_invariant_across_backends() {
    let seq = outcome(4, false);
    let thr = outcome(4, true);
    assert_eq!(seq.fcts, thr.fcts, "backends disagree on completion times");
    assert_eq!(seq.digest, thr.digest, "backends disagree on the digest");
    assert_eq!(seq.total_events, thr.total_events);
    assert_eq!(seq.stale_events, thr.stale_events);
    // Epoch layout and handoff counts are functions of the partition, not
    // the backend, so even these N-variant internals must match here.
    assert_eq!(seq.epochs, thr.epochs);
    assert_eq!(seq.handoffs, thr.handoffs);
}
