//! Source-level lints over every product crate (`crates/*/src`).
//!
//! No raw wall-clock reads outside the Clock seam: everything above the
//! drivers must receive time from a [`Clock`] (`mpcc_simcore::clock`) so
//! the same code runs under virtual and real time, and so no simulated
//! component can accidentally observe wall time. The first test greps for
//! direct `Instant::now()` / `SystemTime::now()` calls and fails on any
//! file not on the explicit allowlist of wall-clock owners. The allowlist
//! cannot go stale: every entry must exist and contain a wall-clock read.
//!
//! No environment reads: a variable read at run time is a hidden option
//! that no flag documents and no test or benchmark sets, so the second
//! test fails on any `std::env::var` / `var_os` call. Configuration
//! reaches product code through its callers (the CLI flags).

use std::path::{Path, PathBuf};

/// Files allowed to read the wall clock directly:
/// - the `Clock` implementations themselves,
/// - the simulator self-profiler (wall-clock attribution is its job).
const ALLOWED: &[&str] = &[
    "crates/simcore/src/clock.rs",
    "crates/simcore/src/profiler.rs",
];

const WALL_CLOCK_READS: &[&str] = &["Instant::now", "SystemTime::now"];

/// The lines of `text` whose code contains any of `needles`, as (line
/// number, line). Comments and docs explaining a rule do not count.
fn code_lines_with<'a>(
    text: &'a str,
    needles: &'a [&str],
) -> impl Iterator<Item = (usize, &'a str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or("");
            needles.iter().any(|n| code.contains(n))
        })
        .map(|(i, line)| (i + 1, line))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every product-crate source as (path relative to the repo root, text).
fn product_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for crate_dir in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = crate_dir.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut paths);
        }
    }
    assert!(paths.len() > 20, "suspiciously few sources scanned");
    paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("source under repo root");
            let text = std::fs::read_to_string(path).expect("read source");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

/// `file:line: code` for every line of a source outside `allowed` whose
/// code contains any of `needles`.
fn offenders(sources: &[(String, String)], allowed: &[&str], needles: &[&str]) -> Vec<String> {
    let checked = sources
        .iter()
        .filter(|(rel, _)| !allowed.contains(&rel.as_str()));
    let lines = checked.flat_map(|(rel, text)| {
        code_lines_with(text, needles).map(move |(n, line)| format!("{rel}:{n}: {}", line.trim()))
    });
    lines.collect()
}

#[test]
fn no_raw_wall_clock_reads_outside_the_clock_seam() {
    let sources = product_sources();
    let stale: Vec<&str> = ALLOWED
        .iter()
        .copied()
        .filter(|rel| {
            !sources.iter().any(|(path, text)| {
                path == rel && code_lines_with(text, WALL_CLOCK_READS).next().is_some()
            })
        })
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted files that are missing or read no wall clock (drop \
         them from ALLOWED): {stale:?}"
    );

    let offenders = offenders(&sources, ALLOWED, WALL_CLOCK_READS);
    assert!(
        offenders.is_empty(),
        "raw wall-clock reads outside the Clock seam (route them through \
         mpcc_simcore::Clock, or extend the allowlist if the file *is* a \
         wall-clock owner):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn no_environment_reads_in_product_sources() {
    let offenders = offenders(&product_sources(), &[], &["env::var"]);
    assert!(
        offenders.is_empty(),
        "environment reads in product code (make the setting a parameter \
         its caller passes, or a CLI flag):\n{}",
        offenders.join("\n")
    );
}
