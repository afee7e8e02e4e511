//! Source-level lint: no raw wall-clock reads outside the Clock seam.
//!
//! Everything above the drivers must receive time from a [`Clock`]
//! (`mpcc_simcore::clock`) so the same code runs under virtual and real
//! time, and so no simulated component can accidentally observe wall
//! time. This test greps every product crate for direct `Instant::now()`
//! / `SystemTime::now()` calls and fails on any file not on the explicit
//! allowlist of wall-clock owners. The allowlist cannot go stale: every
//! entry must exist and contain a wall-clock read.

use std::path::{Path, PathBuf};

/// Files allowed to read the wall clock directly:
/// - the `Clock` implementations themselves,
/// - the simulator self-profiler (wall-clock attribution is its job).
const ALLOWED: &[&str] = &[
    "crates/simcore/src/clock.rs",
    "crates/simcore/src/profiler.rs",
];

/// The raw wall-clock reads in `text`, as (line number, line). Comments
/// and docs explaining the rule do not count.
fn wall_clock_reads(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or("");
            code.contains("Instant::now") || code.contains("SystemTime::now")
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

#[test]
fn no_raw_wall_clock_reads_outside_the_clock_seam() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for crate_dir in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = crate_dir.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 20, "suspiciously few sources scanned");

    let stale: Vec<&str> = ALLOWED
        .iter()
        .copied()
        .filter(|rel| {
            std::fs::read_to_string(root.join(rel))
                .map_or(true, |text| wall_clock_reads(&text).next().is_none())
        })
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted files that are missing or read no wall clock (drop \
         them from ALLOWED): {stale:?}"
    );

    let mut offenders = Vec::new();
    for path in sources {
        let rel = path
            .strip_prefix(root)
            .expect("source under repo root")
            .to_string_lossy()
            .replace('\\', "/");
        if ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read source");
        for (n, line) in wall_clock_reads(&text) {
            offenders.push(format!("{rel}:{n}: {}", line.trim()));
        }
    }
    assert!(
        offenders.is_empty(),
        "raw wall-clock reads outside the Clock seam (route them through \
         mpcc_simcore::Clock, or extend the allowlist if the file *is* a \
         wall-clock owner):\n{}",
        offenders.join("\n")
    );
}
