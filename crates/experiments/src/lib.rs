//! # mpcc-experiments
//!
//! Reproduction harness for every table and figure in the MPCC paper's
//! evaluation (§7). Each scenario module rebuilds one experiment on the
//! packet-level simulator and prints the series the paper plots; the
//! `experiments` binary dispatches on the figure id.
//!
//! Default scale is reduced (shorter runs, fewer repetitions, coarser
//! sweeps) to finish on a laptop-class machine; `--full` restores the
//! paper's durations and the complete Table 1 grid. All scaling choices
//! are noted on the emitted figures and in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod check;
pub mod output;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod udp_demo;

use runner::Executor;
use std::path::PathBuf;

/// Global experiment options.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Paper-scale durations and full sweeps.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Repetitions per data point.
    pub runs: u64,
    /// Output directory for CSV/JSON results.
    pub out_dir: PathBuf,
    /// The executor every run starts through (single-threaded, untraced
    /// and fault-free by default; `--jobs`, `--trace`, `--metrics` and
    /// `--faults` configure it in the binary).
    pub exec: Executor,
    /// Intra-run shard count (`--shards N`) for the scenarios that run on
    /// the partitioned engine (`churn`, `fig19`). Every shard count
    /// produces identical results; 1, the default, is one instance owning
    /// the whole topology.
    pub shards: u8,
    /// `fig19 --full-scale`: the full-size 25 Gbps fabric and the paper's
    /// flow classes instead of the ~20x-scaled-down defaults.
    pub full_scale: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            full: false,
            seed: 20201201, // CoNEXT '20 opening day
            runs: 1,
            out_dir: PathBuf::from("results"),
            exec: Executor::serial(),
            shards: 1,
            full_scale: false,
        }
    }
}

impl ExpConfig {
    /// Picks the reduced or paper-scale variant of a knob.
    pub fn scale<T>(&self, reduced: T, paper: T) -> T {
        if self.full {
            paper
        } else {
            reduced
        }
    }

    /// Repetitions per point (bounded by the paper's 5).
    pub fn runs(&self) -> u64 {
        if self.full {
            self.runs.max(5)
        } else {
            self.runs
        }
    }
}
