//! `experiments check`: the theory-oracle harness.
//!
//! Three modes, all deterministic and byte-identical at any `--jobs`:
//!
//! * **LMMF equilibria** (default): runs the small parallel-link
//!   topologies the paper's theory section reasons about (Figs. 1–3 /
//!   §4–5) to steady state on the packet-level simulator and compares the
//!   measured equilibrium against the exact lexicographic max-min fair
//!   allocation computed by [`mpcc::theory::lmmf`]. Connection totals are
//!   always checked; the per-(connection, link) split is checked only for
//!   topologies where the LMMF split is unique.
//! * **Fluid trajectories** (`--fluid`): runs LIA, OLIA, and Balia on
//!   identical topologies through both the packet-level simulator and the
//!   RK4 integrator for Peng et al.'s fluid ODE ([`mpcc::theory::ode`]),
//!   and compares the *shape* of the rate trajectories — equilibrium
//!   level, convergence time, overshoot, rise time, and TCP-friendliness
//!   share — with per-controller tolerances (see `DESIGN.md` §15).
//! * **Randomized sweep** (`--sweep`): seeds × random parallel-link
//!   capacities/RTTs, each checked against both the LMMF oracle (MPCC
//!   connections) and the fluid equilibrium (coupled connections), far
//!   beyond the hand-picked topologies. Bounded by `--sweep-cases`.
//!
//! Tolerances absorb wire overhead, probing loss and finite-run averaging
//! noise — the oracles are convergence checks, not bit-exact ones.

use crate::runner::{ConnSpec, Scenario};
use crate::ExpConfig;
use mpcc::theory::ode::{self, CoupledKind, FluidConfig, FluidTopo};
use mpcc::theory::{lmmf_allocation, lmmf_with_flows, ParallelNetSpec};
use mpcc_metrics::{TrajStats, Trajectory};
use mpcc_netsim::topology::NetSpec;
use mpcc_netsim::LinkParams;
use mpcc_simcore::rng::{splitmix64, SimRng};
use mpcc_simcore::{Rate, SimDuration, SimTime};

/// Relative tolerance on per-connection totals and nonzero subflow rates.
pub const REL_TOL: f64 = 0.15;
/// Absolute floor (Mbps) — dominates for near-zero expected rates, where a
/// subflow still carries its probing floor.
pub const ABS_TOL: f64 = 10.0;

/// One oracle's running tally: a report line per check and the count of
/// failures, closed by a verdict line.
#[derive(Default)]
struct Tally {
    out: String,
    checks: usize,
    failures: usize,
    /// Report failed checks only.
    failures_only: bool,
}

impl Tally {
    /// Records one check, reporting `line()` marked `ok` or `FAIL`.
    fn check(&mut self, ok: bool, line: impl FnOnce() -> String) {
        self.checks += 1;
        self.failures += usize::from(!ok);
        if !ok || !self.failures_only {
            self.out.push_str(&line());
            self.out.push_str(if ok { "  ok\n" } else { "  FAIL\n" });
        }
    }

    /// Appends `verdict(passed, checks)`; `Ok` if every check passed,
    /// `Err` otherwise, carrying the report either way.
    fn finish(mut self, verdict: impl FnOnce(usize, usize) -> String) -> Result<String, String> {
        self.out
            .push_str(&verdict(self.checks - self.failures, self.checks));
        if self.failures == 0 {
            Ok(self.out)
        } else {
            Err(self.out)
        }
    }
}

/// One oracle topology: a parallel-link scenario with one MPCC-loss
/// connection per entry, checked against the LMMF allocation of its
/// network.
struct OracleCase {
    name: &'static str,
    sc: Scenario,
    /// Whether the LMMF per-(connection, link) split is unique, making the
    /// per-subflow rates checkable (totals are always checked).
    check_flows: bool,
}

fn cases(cfg: &ExpConfig) -> Vec<OracleCase> {
    // `reduced_secs` is the reduced-scale run length (`--full` always runs
    // the paper's 200 s). Shared-link topologies, where the MP connection
    // must vacate a link a single-path flow needs, drain the shared
    // subflow slowly and need longer than the 60 s that suffices
    // elsewhere. Measure the last ~35 s (reduced) / 140 s (paper scale):
    // equilibrium behaviour, not the transient.
    let case = |name, caps: &[f64], conns: &[&[usize]], check_flows, reduced_secs| {
        let link = |&c: &f64| LinkParams::paper_default().with_capacity(Rate::from_mbps(c));
        let mpcc = |ls: &&[usize]| ConnSpec::bulk("mpcc-loss", ls.to_vec());
        let dur_secs = cfg.scale(reduced_secs, 200);
        let warm_secs = dur_secs - cfg.scale(35, 140);
        let sc = Scenario::new(
            cfg.seed,
            caps.iter().map(link).collect(),
            conns.iter().map(mpcc).collect(),
        )
        .with_duration(
            SimDuration::from_secs(dur_secs),
            SimDuration::from_secs(warm_secs),
        );
        OracleCase {
            name,
            sc,
            check_flows,
        }
    };
    let mut cases = vec![
        // One MP connection pools two equal links (resource pooling,
        // §4.1): unique split (100, 100).
        case("pool-solo", &[100.0, 100.0], &[&[0, 1]], true, 60),
        // Fig. 3c: MP on {0, 1} vs SP on {1}. LMMF gives each a full
        // link, with the MP connection vacating the shared one.
        case("sp-mp-share", &[100.0, 100.0], &[&[0, 1], &[1]], true, 140),
        // Two identical MP connections over the same two links: totals
        // are unique (100 each) but the split is not — totals only.
        case("two-mp", &[100.0, 100.0], &[&[0, 1], &[0, 1]], false, 60),
        // Asymmetric capacities: SP on a 50 Mbps link, MP on {that,
        // 100 Mbps}. LMMF: SP keeps its whole link, MP vacates it.
        case("asym-sp-mp", &[50.0, 100.0], &[&[0], &[0, 1]], true, 140),
    ];
    for (i, case) in cases.iter_mut().enumerate() {
        case.sc.seed = cfg.seed.wrapping_add(i as u64);
    }
    cases
}

fn within(observed: f64, expected: f64) -> bool {
    (observed - expected).abs() <= (REL_TOL * expected).max(ABS_TOL)
}

/// Runs every oracle case and compares against the LMMF prediction.
///
/// Returns `Ok(report)` when every measurement is within tolerance and
/// `Err(report)` otherwise; the report is the human-readable comparison
/// table either way.
pub fn run(cfg: &ExpConfig) -> Result<String, String> {
    let cases = cases(cfg);
    let results = cfg
        .exec
        .run_batch(cases.iter().map(|c| c.sc.clone()).collect());

    let mut tally = Tally::default();
    for (case, result) in cases.iter().zip(&results) {
        let (totals, flows) = lmmf_with_flows(&ParallelNetSpec::of(&case.sc.net()));
        let warm = SimTime::ZERO + case.sc.warmup;
        for (c, conn) in result.conns.iter().enumerate() {
            tally.check(within(conn.goodput_mbps, totals[c]), || {
                format!(
                    "{:<12} conn {c} total: measured {:7.2} Mbps, lmmf {:7.2} Mbps",
                    case.name, conn.goodput_mbps, totals[c]
                )
            });
            if !case.check_flows {
                continue;
            }
            for (k, &l) in case.sc.conns[c].links.iter().enumerate() {
                let measured = conn.subflow_series[k].mean_after(warm);
                tally.check(within(measured, flows[c][l]), || {
                    format!(
                        "{:<12} conn {c} link {l}: measured {:7.2} Mbps, lmmf {:7.2} Mbps",
                        case.name, measured, flows[c][l]
                    )
                });
            }
        }
    }
    tally.finish(|passed, checks| {
        format!("theory oracle: {passed}/{checks} checks within tolerance (rel {REL_TOL}, abs {ABS_TOL} Mbps)")
    })
}

// ---------------------------------------------------------------------------
// Fluid trajectory oracle (`experiments check --fluid`)
// ---------------------------------------------------------------------------

/// Tail fraction of a trajectory used as the equilibrium estimate.
const TRAJ_TAIL_FRAC: f64 = 0.25;
/// Relative half-width of the convergence band around the equilibrium.
const TRAJ_BAND_REL: f64 = 0.3;
/// Absolute floor on the band half-width, Mbps (absorbs sawtooth noise on
/// small-capacity links).
const TRAJ_BAND_ABS: f64 = 4.0;
/// Packet-level sampling cadence for trajectory extraction, ms (matches
/// the ODE's `sample_every`).
const TRAJ_SAMPLE_MS: u64 = 500;

/// Per-controller tolerances for the fluid trajectory comparison
/// (documented in DESIGN.md §15). `rate_*` bound the equilibrium-level
/// disagreement; the rest bound the shape metrics.
#[derive(Clone, Copy, Debug)]
pub struct FluidTol {
    /// Relative tolerance on the equilibrium rate.
    pub rate_rel: f64,
    /// Absolute floor on the equilibrium-rate tolerance, Mbps.
    pub rate_abs: f64,
    /// Tolerance on |sim − ode| convergence time, seconds.
    pub conv_abs_secs: f64,
    /// Tolerance on |sim − ode| overshoot fraction.
    pub overshoot_abs: f64,
    /// Tolerance on |sim − ode| rise-to-80% time, seconds.
    pub rise_abs_secs: f64,
    /// Tolerance on the single-path Reno capacity share (friendliness).
    pub share_abs: f64,
}

/// The tolerance set for one controller. OLIA's α terms make its fluid
/// field discontinuous (set-membership switches), so it gets the loosest
/// band; LIA and Balia track the ODE more closely.
pub fn fluid_tol(kind: CoupledKind) -> FluidTol {
    match kind {
        CoupledKind::Olia => FluidTol {
            rate_rel: 0.28,
            rate_abs: 10.0,
            conv_abs_secs: 20.0,
            overshoot_abs: 0.5,
            rise_abs_secs: 16.0,
            share_abs: 0.25,
        },
        _ => FluidTol {
            rate_rel: 0.15,
            rate_abs: 8.0,
            conv_abs_secs: 20.0,
            overshoot_abs: 0.5,
            rise_abs_secs: 12.0,
            share_abs: 0.15,
        },
    }
}

/// The fluid-oracle topologies under controller `kind`, named: the
/// coupled connection spans every link, and `fluid-share` adds a competing
/// single-path Reno connection (the friendliness check). Seeds are
/// assigned by the caller.
fn fluid_cases(kind: CoupledKind, cfg: &ExpConfig) -> Vec<(&'static str, Scenario)> {
    let dur_secs = cfg.scale(60, 200);
    let case = |name, links: &[(f64, u64)], sp_reno_on: Option<usize>| {
        let links: Vec<LinkParams> = links.iter().map(|&(c, d)| fluid_link(c, d)).collect();
        let mut conns = vec![ConnSpec::bulk(kind.name(), (0..links.len()).collect())];
        conns.extend(sp_reno_on.map(|l| ConnSpec::bulk("reno", vec![l])));
        let sc = Scenario::new(cfg.seed, links, conns)
            .with_duration(
                SimDuration::from_secs(dur_secs),
                SimDuration::from_secs(dur_secs / 4),
            )
            .with_sampling(SimDuration::from_millis(TRAJ_SAMPLE_MS));
        (name, sc)
    };
    vec![
        // Resource pooling over two equal links.
        case("fluid-pool", &[(60.0, 20), (60.0, 20)], None),
        // 3:1 capacity asymmetry.
        case("fluid-asym", &[(30.0, 20), (90.0, 20)], None),
        // 4:1 RTT asymmetry at equal capacity.
        case("fluid-rtt", &[(50.0, 10), (50.0, 40)], None),
        // TCP-friendliness: single-path Reno shares link 1.
        case("fluid-share", &[(60.0, 20), (60.0, 20)], Some(1)),
    ]
}

/// A fluid-comparison link of `cap_mbps` and `delay_ms` one way. Its
/// buffer is half a bandwidth-delay product (floored at 8 packets): small
/// enough that the mean queueing delay stays a modest, predictable
/// fraction of the RTT the ODE uses ([`FluidTopo::of`]).
fn fluid_link(cap_mbps: f64, delay_ms: u64) -> LinkParams {
    let bdp = cap_mbps * 1e6 / 8.0 * (2.0 * delay_ms as f64 / 1e3);
    LinkParams::paper_default()
        .with_capacity(Rate::from_mbps(cap_mbps))
        .with_delay(SimDuration::from_millis(delay_ms))
        .with_buffer(((0.5 * bdp) as u64).max(8 * 1500))
}

/// The controllers the fluid oracle sweeps.
pub const FLUID_KINDS: [CoupledKind; 3] = [CoupledKind::Lia, CoupledKind::Olia, CoupledKind::Balia];

fn traj_stats(t: &Trajectory) -> TrajStats {
    t.stats(TRAJ_TAIL_FRAC, TRAJ_BAND_REL, TRAJ_BAND_ABS)
}

/// Runs the fluid trajectory oracle: every controller × topology, packet
/// simulator vs RK4 integrator, trajectory-shape metrics within
/// [`fluid_tol`]. `Ok`/`Err` carry the comparison table either way.
pub fn run_fluid(cfg: &ExpConfig) -> Result<String, String> {
    let mut setups: Vec<(CoupledKind, &str, Scenario)> = Vec::new();
    for kind in FLUID_KINDS {
        for (name, mut sc) in fluid_cases(kind, cfg) {
            sc.seed = cfg.seed.wrapping_add(setups.len() as u64);
            setups.push((kind, name, sc));
        }
    }
    let scenarios: Vec<Scenario> = setups.iter().map(|s| s.2.clone()).collect();
    let dur_secs = cfg.scale(60, 200) as f64;
    let results = cfg.exec.run_batch(scenarios);

    let mut tally = Tally::default();
    for ((kind, name, sc), result) in setups.iter().zip(&results) {
        let tol = fluid_tol(*kind);
        let ode_cfg = FluidConfig {
            duration: dur_secs,
            sample_every: TRAJ_SAMPLE_MS as f64 / 1e3,
            ..FluidConfig::default()
        };
        let kinds: Vec<CoupledKind> = sc
            .conns
            .iter()
            .map(|c| CoupledKind::parse(&c.proto).expect("fluid cases run coupled controllers"))
            .collect();
        let ft = ode::integrate(&FluidTopo::of(&sc.net()), &kinds, &ode_cfg);

        let sim_t = Trajectory::from_series(&result.conns[0].series);
        let ode_t = Trajectory::from_samples(&ft.secs, &ft.conn_mbps[0]);
        let sim = traj_stats(&sim_t);
        let ode_s = traj_stats(&ode_t);
        let tag = format!("{:<12} {:<6}", name, kind.name());

        tally.check(
            (sim.final_mean - ode_s.final_mean).abs()
                <= (tol.rate_rel * ode_s.final_mean).max(tol.rate_abs),
            || {
                format!(
                    "{tag} rate:      sim {:7.2} Mbps, ode {:7.2} Mbps",
                    sim.final_mean, ode_s.final_mean
                )
            },
        );
        tally.check(
            sim.convergence_secs.is_finite()
                && ode_s.convergence_secs.is_finite()
                && (sim.convergence_secs - ode_s.convergence_secs).abs() <= tol.conv_abs_secs,
            || {
                format!(
                    "{tag} converge:  sim {:7.1} s,    ode {:7.1} s",
                    sim.convergence_secs, ode_s.convergence_secs
                )
            },
        );
        tally.check(
            (sim.overshoot - ode_s.overshoot).abs() <= tol.overshoot_abs,
            || {
                format!(
                    "{tag} overshoot: sim {:7.3},      ode {:7.3}",
                    sim.overshoot, ode_s.overshoot
                )
            },
        );
        tally.check(
            sim.rise_secs_80.is_finite()
                && ode_s.rise_secs_80.is_finite()
                && (sim.rise_secs_80 - ode_s.rise_secs_80).abs() <= tol.rise_abs_secs,
            || {
                format!(
                    "{tag} rise-80%:  sim {:7.1} s,    ode {:7.1} s",
                    sim.rise_secs_80, ode_s.rise_secs_80
                )
            },
        );
        if kinds.len() > 1 {
            // Friendliness: the single-path Reno competitor's share of the
            // aggregate, simulator vs fluid model.
            let sim_sp = traj_stats(&Trajectory::from_series(&result.conns[1].series)).final_mean;
            let ode_sp =
                traj_stats(&Trajectory::from_samples(&ft.secs, &ft.conn_mbps[1])).final_mean;
            let sim_share = sim_sp / (sim_sp + sim.final_mean).max(1e-9);
            let ode_share = ode_sp / (ode_sp + ode_s.final_mean).max(1e-9);
            tally.check((sim_share - ode_share).abs() <= tol.share_abs, || {
                format!("{tag} sp-share:  sim {sim_share:7.3},      ode {ode_share:7.3}")
            });
        }
    }
    tally.finish(|passed, checks| {
        format!("fluid oracle: {passed}/{checks} trajectory checks within tolerance")
    })
}

// ---------------------------------------------------------------------------
// Randomized-topology equilibrium sweep (`experiments check --sweep`)
// ---------------------------------------------------------------------------

/// Relative tolerance for sweep equilibrium comparisons. Looser than the
/// hand-picked oracle's 0.15: random topologies include slow-drain shapes
/// (several multipath connections that must vacate shared links) whose
/// approach to the LMMF equilibrium is asymptotic on the run lengths the
/// sweep can afford.
pub const SWEEP_REL_TOL: f64 = 0.3;
/// Absolute floor for the sweep's LMMF-side comparison, Mbps.
pub const SWEEP_LMMF_ABS: f64 = 12.0;
/// LMMF-side relative tolerance for *slow-drain* topologies: when one
/// connection's link set is a strict subset of another's, max-min fairness
/// requires the superset connection to vacate the shared links almost
/// entirely, and MPCC's approach to that point is asymptotic — the rate
/// gap shrinks by only a few Mbps per minute at sweep run lengths.
pub const SWEEP_DRAIN_REL: f64 = 0.4;

/// True when some connection's link set is a strict subset of another's —
/// the shape whose LMMF point requires near-total vacation of every shared
/// link (see [`SWEEP_DRAIN_REL`]). Link lists must be sorted and deduped,
/// as the sweep generators guarantee.
pub fn is_slow_drain(conns: &[Vec<usize>]) -> bool {
    conns.iter().enumerate().any(|(i, a)| {
        conns
            .iter()
            .enumerate()
            .any(|(j, b)| i != j && a.len() < b.len() && a.iter().all(|l| b.contains(l)))
    })
}
/// Absolute floor for the sweep's fluid-side comparison, Mbps.
pub const SWEEP_FLUID_ABS: f64 = 10.0;

/// The sweep's fluid-side `(rel, abs Mbps)` tolerance for one controller.
/// OLIA is looser: its packet-level inter-loss estimator `ℓ` (bytes
/// between actual losses) deviates from the fluid expectation `1/q` on
/// shared-link multi-connection topologies, shifting the B set and with it
/// the equilibrium split.
pub fn sweep_fluid_tol(kind: CoupledKind) -> (f64, f64) {
    match kind {
        CoupledKind::Olia => (0.45, 12.0),
        _ => (SWEEP_REL_TOL, SWEEP_FLUID_ABS),
    }
}
/// Default number of random sweep topologies (`--sweep-cases` truncates
/// or extends).
pub const SWEEP_DEFAULT_CASES: usize = 50;

/// One sweep topology: random (or regression-pinned) capacities, RTTs and
/// connection layout, checked against both oracles.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Case label (names the seed in failure messages).
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// The parallel-link network: fluid-comparison links (half-BDP
    /// buffers) and each connection's single-link subflow routes.
    pub net: NetSpec,
    /// The coupled controller run on the fluid side of this case.
    pub kind: CoupledKind,
}

/// A sweep network: one [`fluid_link`] per `(capacity Mbps, one-way delay
/// ms)` entry, and one subflow per link of each connection's link set.
fn sweep_net(links: &[(f64, u64)], conns: &[Vec<usize>]) -> NetSpec {
    NetSpec {
        links: links.iter().map(|&(c, d)| fluid_link(c, d)).collect(),
        conns: conns
            .iter()
            .map(|ls| ls.iter().map(|&l| vec![l]).collect())
            .collect(),
    }
}

/// The 3 committed failing-shaped regression cases: shapes that historically
/// sit closest to the tolerance boundary (near-equal capacities flip LMMF
/// orderings; extreme asymmetry stresses the probing floor; high RTT ratio
/// stresses the coupled α terms). Replayed as named cases in
/// `tests/sweep_regression.rs` so a tolerance regression bisects cleanly.
pub fn regression_specs() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            name: "near-equal-caps".into(),
            seed: 0x5EED_0001,
            net: sweep_net(&[(40.0, 20), (40.4, 20)], &[vec![0, 1]]),
            kind: CoupledKind::Lia,
        },
        SweepSpec {
            name: "extreme-asym".into(),
            seed: 0x5EED_0002,
            net: sweep_net(&[(8.0, 20), (80.0, 20)], &[vec![0, 1]]),
            kind: CoupledKind::Balia,
        },
        SweepSpec {
            name: "high-rtt-ratio".into(),
            seed: 0x5EED_0003,
            net: sweep_net(&[(40.0, 5), (40.0, 45)], &[vec![0, 1]]),
            kind: CoupledKind::Olia,
        },
    ]
}

/// Generates `count` random sweep topologies from `master_seed`: 2–3
/// parallel links with capacities in 15–70 Mbps and one-way delays in
/// 8–35 ms, 1–2 connections on random distinct link sets, controllers
/// cycling LIA/OLIA/Balia. Pure function of its arguments.
pub fn random_sweep_specs(master_seed: u64, count: usize) -> Vec<SweepSpec> {
    let mut rng = SimRng::seed_from_u64(splitmix64(master_seed ^ 0x5EED_F1D0));
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let n_links = 2 + rng.index(2);
        let caps: Vec<f64> = (0..n_links)
            .map(|_| (rng.range_f64(15.0, 70.0) * 10.0).round() / 10.0)
            .collect();
        let links: Vec<(f64, u64)> = caps
            .into_iter()
            .map(|c| (c, rng.range_u64(8, 36)))
            .collect();
        let n_conns = 1 + rng.index(2);
        let conns: Vec<Vec<usize>> = (0..n_conns)
            .map(|_| {
                let size = 1 + rng.index(n_links);
                // Distinct links: draw from a shrinking pool.
                let mut pool: Vec<usize> = (0..n_links).collect();
                let mut links: Vec<usize> = (0..size)
                    .map(|_| pool.swap_remove(rng.index(pool.len())))
                    .collect();
                links.sort_unstable();
                links
            })
            .collect();
        let kind = FLUID_KINDS[i % FLUID_KINDS.len()];
        out.push(SweepSpec {
            name: format!("rand-{i:03}-{}", kind.name()),
            seed: splitmix64(master_seed ^ splitmix64(0xCA5E_0000 + i as u64)),
            net: sweep_net(&links, &conns),
            kind,
        });
    }
    out
}

/// Runs every spec against both oracles: an MPCC-loss scenario checked
/// against the LMMF totals, and a coupled-controller scenario checked
/// against the fluid-ODE equilibrium. One `run_batch` keeps the whole
/// sweep deterministic at any `--jobs`.
pub fn run_sweep(cfg: &ExpConfig, specs: &[SweepSpec]) -> Result<String, String> {
    // Connections that must *vacate* a shared link under LMMF drain it
    // slowly — the same reason the hand-picked sp-mp-share oracle case
    // runs 140 s — so the MPCC (LMMF) side gets the longest runs. The
    // coupled controllers reach their fluid equilibrium faster.
    let lmmf_secs = cfg.scale(200, 400);
    let fluid_secs = cfg.scale(140, 280);
    let tail = cfg.scale(40, 80);
    let lmmf_specs: Vec<ParallelNetSpec> = specs
        .iter()
        .map(|spec| ParallelNetSpec::of(&spec.net))
        .collect();
    let mk_scenario = |spec: &SweepSpec, lmmf: &ParallelNetSpec, proto, dur, salt| {
        let conns: Vec<ConnSpec> = lmmf
            .conns
            .iter()
            .map(|ls| ConnSpec::bulk(proto, ls.clone()))
            .collect();
        Scenario::new(spec.seed.wrapping_add(salt), spec.net.links.clone(), conns).with_duration(
            SimDuration::from_secs(dur),
            SimDuration::from_secs(dur - tail),
        )
    };
    // Two scenarios per spec, interleaved: 2i = LMMF side, 2i+1 = fluid side.
    let scenarios: Vec<Scenario> = specs
        .iter()
        .zip(&lmmf_specs)
        .flat_map(|(spec, lmmf)| {
            [
                mk_scenario(spec, lmmf, "mpcc-loss", lmmf_secs, 0),
                mk_scenario(spec, lmmf, spec.kind.name(), fluid_secs, 1),
            ]
        })
        .collect();
    let results = cfg.exec.run_batch(scenarios);

    let mut tally = Tally {
        failures_only: true,
        ..Tally::default()
    };
    for (i, (spec, net)) in specs.iter().zip(&lmmf_specs).enumerate() {
        let lmmf = lmmf_allocation(net);
        let kinds = vec![spec.kind; net.conns.len()];
        let fluid_eq = ode::equilibrium(
            &FluidTopo::of(&spec.net),
            &kinds,
            &FluidConfig {
                duration: fluid_secs as f64,
                ..FluidConfig::default()
            },
        );
        let delays_ms: Vec<u64> = spec
            .net
            .links
            .iter()
            .map(|l| l.delay.as_nanos() / 1_000_000)
            .collect();
        let shape = format!(
            "caps {:?} delays {delays_ms:?} conns {:?}",
            net.capacities, net.conns
        );
        let (lmmf_run, fluid_run) = (&results[2 * i], &results[2 * i + 1]);
        let lmmf_rel = if is_slow_drain(&net.conns) {
            SWEEP_DRAIN_REL
        } else {
            SWEEP_REL_TOL
        };
        for (c, conn) in lmmf_run.conns.iter().enumerate() {
            let ok =
                (conn.goodput_mbps - lmmf[c]).abs() <= (lmmf_rel * lmmf[c]).max(SWEEP_LMMF_ABS);
            tally.check(ok, || {
                format!(
                    "{} conn {c} lmmf: measured {:7.2} Mbps, lmmf {:7.2} Mbps ({shape})",
                    spec.name, conn.goodput_mbps, lmmf[c]
                )
            });
        }
        let (fluid_rel, fluid_abs) = sweep_fluid_tol(spec.kind);
        for (c, conn) in fluid_run.conns.iter().enumerate() {
            let ok =
                (conn.goodput_mbps - fluid_eq[c]).abs() <= (fluid_rel * fluid_eq[c]).max(fluid_abs);
            tally.check(ok, || {
                format!(
                    "{} conn {c} {}: measured {:7.2} Mbps, ode {:7.2} Mbps ({shape})",
                    spec.name,
                    spec.kind.name(),
                    conn.goodput_mbps,
                    fluid_eq[c]
                )
            });
        }
    }
    tally.finish(|passed, checks| {
        format!(
            "equilibrium sweep: {passed}/{checks} checks within tolerance over {} topologies \
             (rel {SWEEP_REL_TOL}, abs lmmf {SWEEP_LMMF_ABS} / fluid {SWEEP_FLUID_ABS} Mbps)",
            specs.len()
        )
    })
}
