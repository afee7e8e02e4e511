//! The experiments binary: `experiments <id>... [--full] [--seed N]
//! [--runs N] [--jobs N] [--shards N] [--full-scale] [--out DIR] [--trace FILE]
//! [--trace-filter LAYERS] [--metrics FILE] [--metrics-bin DUR]
//! [--faults SPEC]`, or `experiments all` / `experiments list`, or
//! `experiments report FILE` (flight-recorder Markdown from a metrics
//! stream), or `experiments udp [--udp-bytes N]` (real-socket loopback
//! demo), or `experiments check [--fluid] [--sweep] [--sweep-cases N]`
//! (theory oracles).

use mpcc_experiments::check;
use mpcc_experiments::report;
use mpcc_experiments::runner::{Executor, MetricsConfig, TraceConfig};
use mpcc_experiments::scenarios::{self, ALL};
use mpcc_experiments::udp_demo;
use mpcc_experiments::ExpConfig;
use mpcc_netsim::fault::{parse_duration, FaultPlan};
use mpcc_simcore::{Clock, MonotonicClock};
use mpcc_telemetry::LayerMask;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut trace_mask = LayerMask::ALL;
    let mut metrics_path: Option<String> = None;
    let mut metrics_bin: Option<mpcc_simcore::SimDuration> = None;
    let mut report_mode = false;
    let mut faults = FaultPlan::NONE;
    let mut check_mode = false;
    let mut check_fluid = false;
    let mut check_sweep = false;
    let mut sweep_cases = check::SWEEP_DEFAULT_CASES;
    let mut udp_mode = false;
    let mut udp_receiver = false;
    let mut udp_bytes = udp_demo::DEFAULT_BYTES;
    let mut jobs: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => cfg.full = true,
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--runs" => {
                cfg.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs an integer");
            }
            "--shards" => {
                cfg.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--shards needs an integer >= 1");
            }
            "--full-scale" => cfg.full_scale = true,
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--jobs needs an integer >= 1");
            }
            "--out" => {
                cfg.out_dir = it.next().expect("--out needs a directory").into();
            }
            "--trace" => {
                trace_path = Some(it.next().expect("--trace needs a file path"));
            }
            "--trace-filter" => {
                let spec = it.next().expect("--trace-filter needs layers");
                trace_mask = LayerMask::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("--trace-filter: {e}");
                    std::process::exit(2);
                });
            }
            "--metrics" => {
                metrics_path = Some(it.next().expect("--metrics needs a file path"));
            }
            "--metrics-bin" => {
                let spec = it
                    .next()
                    .expect("--metrics-bin needs a duration (e.g. 500ms)");
                metrics_bin = Some(parse_duration(&spec).unwrap_or_else(|e| {
                    eprintln!("--metrics-bin: {e}");
                    std::process::exit(2);
                }));
            }
            "--faults" => {
                let spec = it.next().expect("--faults needs a spec");
                faults = FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("--faults: {e}");
                    std::process::exit(2);
                });
            }
            "list" => {
                println!("available experiments: {}", ALL.join(" "));
                return;
            }
            "check" => check_mode = true,
            "--fluid" => check_fluid = true,
            "--sweep" => check_sweep = true,
            "--sweep-cases" => {
                sweep_cases = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--sweep-cases needs an integer >= 1");
            }
            "report" => report_mode = true,
            "udp" => udp_mode = true,
            "--udp-receiver" => udp_receiver = true,
            "--udp-bytes" => {
                udp_bytes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--udp-bytes needs a byte count >= 1");
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            id => ids.push(id.to_string()),
        }
    }
    if udp_receiver {
        std::process::exit(udp_demo::serve_receiver(cfg.seed));
    }
    if report_mode {
        // `experiments report FILE...`: flight-recorder Markdown from the
        // flushed metrics stream(s) of any earlier run.
        if ids.is_empty() {
            eprintln!("usage: experiments report METRICS_FILE...");
            std::process::exit(2);
        }
        for path in &ids {
            match report::render(std::path::Path::new(path)) {
                Ok(md) => print!("{md}"),
                Err(e) => {
                    eprintln!("report: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    if !udp_mode && !check_mode && ids.is_empty() {
        eprintln!(
            "usage: experiments <id>... | all | list  [--full] [--seed N] [--runs N] [--jobs N] \
             [--shards N] [--full-scale] \
             [--out DIR] [--trace FILE] [--trace-filter controller,transport,link] \
             [--metrics FILE] [--metrics-bin 500ms] \
             [--faults 'reorder:p=0.05,extra=20ms;outage:at=5s,down=1s']\n\
             or:    experiments check [--fluid] [--sweep] [--sweep-cases N] [--full] [--jobs N]\n\
             or:    experiments report METRICS_FILE...\n\
             or:    experiments udp [--udp-bytes N] [--seed N] [--trace FILE] [--metrics FILE]"
        );
        eprintln!("ids: {}", ALL.join(" "));
        std::process::exit(2);
    }
    // One executor for every mode that runs something: its telemetry is
    // the only path from a run to the `--trace`/`--metrics` files.
    let trace = trace_path.map(|p| TraceConfig {
        path: p.into(),
        mask: trace_mask,
    });
    cfg.exec = Executor::new(jobs, trace);
    if let Some(p) = metrics_path {
        let mut mc = MetricsConfig::new(p.into());
        if let Some(bin) = metrics_bin {
            mc = mc.with_bin(bin);
        }
        cfg.exec = cfg.exec.with_metrics(mc);
    }
    if udp_mode {
        let opts = udp_demo::DemoOpts {
            bytes: udp_bytes,
            seed: cfg.seed,
        };
        let code = udp_demo::run(&opts, &cfg.exec);
        if starved_sinks(&cfg.exec) {
            std::process::exit(1);
        }
        std::process::exit(code);
    }
    if check_mode {
        // `check` alone runs the LMMF oracle; `--fluid` / `--sweep` select
        // the trajectory oracle and the randomized equilibrium sweep
        // instead (both flags run both). Any failing mode exits nonzero.
        let announce = |name: &str| {
            eprintln!(
                ">>> running theory-oracle check [{name}] (full={}, seed={}, jobs={})",
                cfg.full,
                cfg.seed,
                cfg.exec.jobs()
            );
        };
        let mut failed = false;
        let mut handle = |result: Result<String, String>| match result {
            Ok(report) => println!("{report}"),
            Err(report) => {
                eprintln!("{report}");
                failed = true;
            }
        };
        if check_fluid {
            announce("fluid trajectory");
            handle(check::run_fluid(&cfg));
        }
        if check_sweep {
            announce("equilibrium sweep");
            let mut specs = check::regression_specs();
            specs.extend(check::random_sweep_specs(cfg.seed, sweep_cases));
            handle(check::run_sweep(&cfg, &specs));
        }
        if !check_fluid && !check_sweep {
            announce("LMMF");
            handle(check::run(&cfg));
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    // `all fig2` or `fig2 fig5 fig2` names fig2 twice: run it once, at its
    // first position.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    cfg.exec = cfg.exec.with_faults(faults);
    // Wall-clock timing goes through the Clock seam like every other
    // time source in the tree (the lint test in tests/wallclock_lint.rs
    // keeps raw `Instant::now()` out of everything but the clock and the
    // profiler).
    let mut wall = MonotonicClock::new();
    for id in ids {
        let start = wall.now();
        eprintln!(
            ">>> running {id} (full={}, seed={}, jobs={})",
            cfg.full,
            cfg.seed,
            cfg.exec.jobs()
        );
        let figures = scenarios::dispatch(&id, &cfg);
        for fig in figures {
            fig.emit(&cfg.out_dir);
        }
        eprintln!(
            "<<< {id} done in {:.1}s",
            wall.elapsed_since(start).as_secs_f64()
        );
    }
    if starved_sinks(&cfg.exec) {
        std::process::exit(1);
    }
    // In checked builds (debug, or --features invariants) a clean exit
    // also certifies the runtime invariant layer stayed silent.
    let violations = mpcc_check::violations();
    if violations > 0 {
        eprintln!("{violations} runtime invariant violations");
        std::process::exit(1);
    }
}

/// Reports every requested sink that captured nothing, and whether there
/// was one. A run that leaves a sink empty is a failure, not a quiet
/// success: every scenario and the UDP sender emit transport events at
/// minimum, so an empty stream means telemetry was never attached (the
/// historical sharded-run blackout) or the filter matched nothing.
fn starved_sinks(exec: &Executor) -> bool {
    let has_payload = |path: &std::path::Path, csv: bool| -> bool {
        use std::io::BufRead as _;
        // Header-only CSV counts as empty; reading two lines is enough.
        let need = 1 + usize::from(csv);
        std::fs::File::open(path)
            .map(|f| std::io::BufReader::new(f).lines().take(need).count() == need)
            .unwrap_or(false)
    };
    let mut starved = Vec::new();
    if let Some(tc) = exec.trace_config() {
        if !has_payload(&tc.path, tc.is_csv()) {
            starved.push(("--trace", tc.path.clone()));
        }
    }
    if let Some(mc) = exec.metrics_config() {
        if !has_payload(&mc.path, mc.is_csv()) {
            starved.push(("--metrics", mc.path.clone()));
        }
    }
    for (flag, path) in &starved {
        eprintln!(
            "{flag} {}: no events were captured — the sink was never \
             attached to a run, or --trace-filter excluded every \
             emitted layer",
            path.display()
        );
    }
    !starved.is_empty()
}
