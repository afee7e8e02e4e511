//! The `experiments` binary rejects bad input up front: an unknown option
//! or experiment id, a bad option value (`--runs 0` and `--metrics-bin 0s`
//! included), `--faults` on `udp` and `--shards` without `churn` exit
//! with status 2 and the usage text before any experiment runs or any
//! output file exists.

use std::path::Path;
use std::process::Command;

#[test]
fn bad_input_exits_2_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("mpcc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("results");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.jsonl");
    let cases: [&[&str]; 10] = [
        &["--bogus"],
        &["--seed", "x"],
        &["fig2", "--jobs", "0"],
        &["fig2", "--bogus"],
        &["fig2", "bogus"],
        &["all", "--bogus"],
        &["udp", "--faults", "dup:p=0.1"],
        &["fig5a", "--runs", "0"],
        &["fig2", "--metrics-bin", "0s"],
        &["fig19", "--shards", "4"],
    ];
    for args in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .arg("--out")
            .arg(&out)
            .arg("--trace")
            .arg(&trace)
            .arg("--metrics")
            .arg(&metrics)
            .output()
            .expect("the experiments binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(
            !stderr.contains(">>> running"),
            "{args:?} started a run: {stderr}"
        );
        for path in [&out, &trace, &metrics] {
            assert!(!Path::new(path).exists(), "{args:?} created {path:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
