//! The `experiments` binary rejects bad input up front: an unknown option
//! or experiment id, a bad option value (`--runs 0` and `--metrics-bin 0s`
//! included), a `.csv` telemetry path, `--faults` on `udp` and `--shards`
//! without `churn` exit with status 2 and the usage text before any
//! experiment runs or any output file exists.

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
        let mut all = args.to_vec();
        all.extend(["--trace", path_str(&trace), "--metrics", path_str(&metrics)]);
        rejected(&all, &out, &[&trace, &metrics]);
    }
    // Appending `--trace`/`--metrics` as above would override these
    // cases' own telemetry paths (the last value wins), so they run alone.
    let csv = dir.join("x.csv");
    let csv = path_str(&csv);
    let alone: [&[&str]; 3] = [
        &["fig2", "--trace", csv],
        &["fig2", "--metrics", csv],
        &["fig19", "--full-scale"],
    ];
    for args in alone {
        rejected(args, &out, &[Path::new(csv)]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Runs the binary with `args` plus `--out out` and asserts it exits 2
/// with the usage text, starts no run and creates neither `out` nor any
/// of `files`.
fn rejected(args: &[&str], out: &Path, files: &[&Path]) {
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(
        !stderr.contains(">>> running"),
        "{args:?} started a run: {stderr}"
    );
    for path in std::iter::once(&out).chain(files) {
        assert!(!path.exists(), "{args:?} created {path:?}");
    }
}
