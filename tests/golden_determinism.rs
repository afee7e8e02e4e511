//! Pins the simulator's exact output against a committed golden file.
//!
//! The fault-soak suite proves that re-runs of the *same build* agree with
//! each other; this test proves that the *current build* agrees with a
//! snapshot taken before the timer-wheel event queue and the
//! allocation-free transport structures replaced their naive counterparts.
//! Any change that perturbs event population, ordering, or RNG consumption
//! — however slightly — shifts the trace digest or a bit-exact counter and
//! fails here, naming exactly what moved.
//!
//! The scenario is deliberately adversarial (reordering, duplication, a
//! loss burst, an outage) and traced across every layer, then run through
//! the executor at one and at four workers: both merged trace files must
//! be byte-identical to each other *and* hash to the committed digest.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! MPCC_UPDATE_GOLDEN=1 cargo test --test golden_determinism
//! ```
//!
//! and commit the rewritten `tests/golden/faulted_trace.txt` alongside the
//! change that justified it.

use mpcc_experiments::runner::{ConnSpec, Executor, Scenario, TraceConfig};
use mpcc_netsim::fault::FaultPlan;
use mpcc_netsim::link::LinkParams;
use mpcc_simcore::rng::splitmix64;
use mpcc_simcore::{Rate, SimDuration};
use mpcc_telemetry::LayerMask;
use std::fs;
use std::path::Path;

/// FNV-1a, 64-bit: stable, dependency-free digest for the trace bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenarios() -> Vec<Scenario> {
    let faulted = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(15),
        buffer: 150_000,
        random_loss: 0.001,
        faults: FaultPlan::parse(
            "reorder:p=0.06,extra=8ms;dup:p=0.03;\
             burst:enter=0.003,exit=0.3,loss=0.5;outage:at=900ms,down=300ms",
        )
        .expect("fault spec parses"),
    };
    let clean = LinkParams {
        capacity: Rate::from_mbps(20.0),
        delay: SimDuration::from_millis(25),
        buffer: 150_000,
        random_loss: 0.0,
        faults: FaultPlan::NONE,
    };
    // Two scenarios so the 4-worker run actually exercises out-of-order
    // completion and trace merging.
    (0..2u64)
        .map(|i| {
            Scenario::new(
                splitmix64(0x601D ^ i),
                vec![faulted, clean],
                vec![ConnSpec {
                    workload: mpcc_transport::Workload::Finite(1_500_000),
                    ..ConnSpec::bulk("mpcc-loss", vec![0, 1])
                }],
            )
            .with_duration(SimDuration::from_secs(20), SimDuration::ZERO)
            .with_sampling(SimDuration::from_millis(500))
        })
        .collect()
}

fn run_with(jobs: usize, dir: &Path, name: &str) -> (Vec<u8>, String) {
    let path = dir.join(name);
    let exec = Executor::new(
        jobs,
        Some(TraceConfig {
            path: path.clone(),
            mask: LayerMask::ALL,
        }),
    );
    let results = exec.run_batch(scenarios());
    let trace = fs::read(&path).expect("trace file written");

    // Bit-exact end-state summary, one line per scenario.
    let mut summary = String::new();
    for (i, r) in results.iter().enumerate() {
        let c = &r.conns[0];
        summary.push_str(&format!(
            "scenario {i}: goodput_bits={:#018x} fct_bits={:#018x} sent={} lost={} acked={}\n",
            c.goodput_mbps.to_bits(),
            c.fct.map(f64::to_bits).unwrap_or(0),
            c.sent_packets,
            c.lost_packets,
            c.data_acked,
        ));
    }
    (trace, summary)
}

#[test]
fn faulted_run_matches_committed_golden() {
    mpcc_check::reset();
    let dir = std::env::temp_dir().join(format!("mpcc-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();

    let (serial, summary) = run_with(1, &dir, "serial.jsonl");
    let (parallel, summary4) = run_with(4, &dir, "par.jsonl");
    let _ = fs::remove_dir_all(&dir);

    assert!(!serial.is_empty(), "traced run must emit records");
    assert_eq!(serial, parallel, "trace differs between 1 and 4 workers");
    assert_eq!(summary, summary4, "results differ between 1 and 4 workers");
    // A clean scenario must not trip the runtime invariant layer — and,
    // because violations emit `check` trace records, any that fired would
    // also shift the digest below.
    assert_eq!(
        mpcc_check::violations(),
        0,
        "runtime invariant violations during the golden runs"
    );

    let actual = format!(
        "trace_fnv1a64={:#018x}\ntrace_bytes={}\ntrace_lines={}\n{summary}",
        fnv1a64(&serial),
        serial.len(),
        serial.iter().filter(|&&b| b == b'\n').count(),
    );

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/faulted_trace.txt");
    if std::env::var_os("MPCC_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(&golden_path, &actual).unwrap();
        eprintln!("golden updated: {}", golden_path.display());
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with MPCC_UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "simulator output diverged from the committed golden; if the \
         change is intentional, regenerate with MPCC_UPDATE_GOLDEN=1 and \
         commit the new golden"
    );
}
