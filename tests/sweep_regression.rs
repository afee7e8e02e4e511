//! Replays the committed sweep-regression topologies — shapes that
//! historically needed tolerance or run-length fixes — as named test
//! cases, so `cargo test` catches a regression without running the full
//! randomized sweep.
//!
//! The three seeds live in `mpcc_experiments::check::regression_specs()`:
//!
//! * `near-equal-caps` — two links 1% apart in capacity; the equilibrium
//!   split is sensitive to tie-breaking noise.
//! * `extreme-asym` — a 10× capacity ratio; the weak path's window rides
//!   the minimum-cwnd floor.
//! * `high-rtt-ratio` — a 9× RTT ratio at equal capacity; RTT-compensation
//!   differences between controllers are largest here.

use mpcc_experiments::check;
use mpcc_experiments::runner::Executor;
use mpcc_experiments::ExpConfig;
use mpcc_simcore::SimDuration;

#[test]
fn committed_regression_topologies_stay_within_tolerance() {
    let specs = check::regression_specs();
    assert_eq!(specs.len(), 3, "regression suite changed size");
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["near-equal-caps", "extreme-asym", "high-rtt-ratio"]);

    let cfg = ExpConfig {
        exec: Executor::new(2, None),
        ..ExpConfig::default()
    };
    match check::run_sweep(&cfg, &specs) {
        Ok(report) => {
            assert!(
                report.contains("within tolerance"),
                "unexpected report: {report}"
            );
        }
        Err(report) => panic!("regression topologies drifted out of tolerance:\n{report}"),
    }
}

/// The regression specs themselves are pinned: seeds and shapes must not
/// drift silently, or the named cases stop covering the scenarios they
/// were committed for.
#[test]
fn regression_specs_are_pinned() {
    let specs = check::regression_specs();
    let caps = |s: &check::SweepSpec| -> Vec<f64> {
        s.net.links.iter().map(|l| l.capacity.mbps()).collect()
    };
    let near = &specs[0];
    assert_eq!(near.seed, 0x5EED_0001);
    assert_eq!(caps(near), vec![40.0, 40.4]);
    let asym = &specs[1];
    assert_eq!(asym.seed, 0x5EED_0002);
    assert_eq!(caps(asym), vec![8.0, 80.0]);
    let rtt = &specs[2];
    assert_eq!(rtt.seed, 0x5EED_0003);
    let delays: Vec<SimDuration> = rtt.net.links.iter().map(|l| l.delay).collect();
    assert_eq!(
        delays,
        [SimDuration::from_millis(5), SimDuration::from_millis(45)]
    );
}
