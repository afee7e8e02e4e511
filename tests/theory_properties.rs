//! Randomized property tests of the theory module: the LMMF oracle's
//! defining properties, the agreement between fluid-model equilibria and
//! the oracle (Theorems 4.1/5.1/5.2) on randomized parallel-link networks,
//! and the defining properties of the coupled-controller ODE integrator
//! (`mpcc::theory::ode`): RK4 convergence order, trajectory
//! non-negativity/capacity invariance, and agreement with the closed-form
//! symmetric fixed points.
//!
//! The cases are generated from a seeded [`SimRng`] rather than a
//! property-testing framework, so the suite is deterministic, offline, and
//! every failure names the seed that reproduces it.

use mpcc::theory::ode::{self, CoupledKind, FluidConfig, FluidTopo};
use mpcc::theory::{
    fluid_converge, is_equilibrium, lmmf_allocation, lmmf_with_flows, totals, ParallelNetSpec,
};
use mpcc::UtilityParams;
use mpcc_simcore::SimRng;

/// Draws a random parallel-link network with 1–4 links of 10–200 Mbps and
/// 1–4 connections over non-empty link subsets.
fn random_spec(rng: &mut SimRng) -> ParallelNetSpec {
    let m = rng.range_u64(1, 5) as usize;
    let n = rng.range_u64(1, 5) as usize;
    let capacities: Vec<f64> = (0..m).map(|_| rng.range_f64(10.0, 200.0)).collect();
    let conns: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let k = rng.range_u64(1, m as u64 + 1) as usize;
            (0..k).map(|_| rng.index(m)).collect()
        })
        .collect();
    ParallelNetSpec { capacities, conns }
}

/// The LMMF allocation is feasible: some flow assignment realizes it within
/// link capacities, and no connection exceeds the capacity of its
/// accessible links.
#[test]
fn lmmf_is_feasible() {
    let mut rng = SimRng::seed_from_u64(0x11);
    for case in 0..64 {
        let spec = random_spec(&mut rng);
        let (tot, flows) = lmmf_with_flows(&spec);
        for (l, &cap) in spec.capacities.iter().enumerate() {
            let used: f64 = flows.iter().map(|f| f[l]).sum();
            assert!(used <= cap + 0.01, "case {case}: link {l}: {used} > {cap}");
        }
        for (i, t) in tot.iter().enumerate() {
            let flow_sum: f64 = flows[i].iter().sum();
            assert!((flow_sum - t).abs() < 0.01, "case {case}: conn {i}");
            let reach: f64 = {
                let mut links = spec.conns[i].clone();
                links.sort_unstable();
                links.dedup();
                links.iter().map(|&l| spec.capacities[l]).sum()
            };
            assert!(*t <= reach + 0.01, "case {case}: conn {i}");
        }
    }
}

/// Water-filling property: no connection can be raised without lowering a
/// connection that is no better off (the max-min condition). We check the
/// simplest consequence: every connection is "blocked" by a saturated link
/// on some link it uses.
#[test]
fn lmmf_no_strict_pareto_waste() {
    let mut rng = SimRng::seed_from_u64(0x22);
    for case in 0..64 {
        let spec = random_spec(&mut rng);
        let (tot, flows) = lmmf_with_flows(&spec);
        for (i, conn) in spec.conns.iter().enumerate() {
            let mut links = conn.clone();
            links.sort_unstable();
            links.dedup();
            // A connection with spare capacity on every link it uses would
            // contradict max-min fairness.
            let all_spare = links.iter().all(|&l| {
                let used: f64 = flows.iter().map(|f| f[l]).sum();
                used < spec.capacities[l] - 0.01
            });
            assert!(
                !all_spare,
                "case {case}: conn {i} ({:?} Mbps) wastes capacity",
                tot[i]
            );
        }
    }
}

/// Scaling all capacities scales the allocation (LMMF is homogeneous).
#[test]
fn lmmf_scales_with_capacity() {
    let mut rng = SimRng::seed_from_u64(0x33);
    for case in 0..64 {
        let spec = random_spec(&mut rng);
        let k = rng.range_f64(1.5, 3.0);
        let base = lmmf_allocation(&spec);
        let scaled_spec = ParallelNetSpec {
            capacities: spec.capacities.iter().map(|c| c * k).collect(),
            conns: spec.conns.clone(),
        };
        let scaled = lmmf_allocation(&scaled_spec);
        for (b, s) in base.iter().zip(&scaled) {
            assert!(
                (s - b * k).abs() < 0.05 * b.max(1.0),
                "case {case}: {b} * {k} vs {s}"
            );
        }
    }
}

/// Theorem 5.2 (numerically): fluid gradient dynamics from a random start
/// reach an approximate equilibrium whose totals are within a small band of
/// the LMMF oracle.
#[test]
fn fluid_equilibria_are_approximately_lmmf() {
    let mut rng = SimRng::seed_from_u64(0x44);
    let p = UtilityParams::mpcc_loss();
    for case in 0..64 {
        let spec = random_spec(&mut rng);
        let start_scale = rng.range_f64(1.0, 30.0);
        let start: Vec<Vec<f64>> = spec
            .conns
            .iter()
            .map(|links| links.iter().map(|_| start_scale).collect())
            .collect();
        let rates = fluid_converge(&p, &spec, &start, 30_000, 0.5);
        // Finite-step dynamics park O(η) above the loss kink, where a
        // deviating subflow can still harvest a few utility units by
        // vacating a slightly-overloaded link; 2-approximate equilibrium
        // is the right notion at this step size.
        assert!(
            is_equilibrium(&p, &spec, &rates, 2.0, 2.0),
            "case {case}: {rates:?}"
        );
        let opt = lmmf_allocation(&spec);
        for (i, (got, want)) in totals(&rates).iter().zip(&opt).enumerate() {
            // The β>3 loss floor permits a bounded overshoot band around
            // the exact LMMF point (the paper's equilibria sit at links
            // loaded to ≤ c·(1+1/(β−2))).
            let tol = (0.12 * want).max(8.0);
            assert!(
                (got - want).abs() <= tol,
                "case {case}: conn {i}: fluid {got:.1} vs LMMF {want:.1} in {spec:?}"
            );
        }
    }
}

/// Draws a small random parallel-link network suitable for the ODE
/// integrator: 1–3 links of 10–50 Mbps, 1–3 connections over *distinct*
/// link subsets (the fluid model routes one subflow per (conn, link) pair).
fn random_ode_topo(rng: &mut SimRng) -> FluidTopo {
    let m = rng.range_u64(1, 4) as usize;
    let n = rng.range_u64(1, 4) as usize;
    let capacities: Vec<f64> = (0..m).map(|_| rng.range_f64(10.0, 50.0)).collect();
    let conns: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let k = rng.range_u64(1, m as u64 + 1) as usize;
            let mut pool: Vec<usize> = (0..m).collect();
            let mut links = Vec::with_capacity(k);
            for _ in 0..k {
                links.push(pool.swap_remove(rng.index(pool.len())));
            }
            links.sort_unstable();
            links
        })
        .collect();
    let spec = ParallelNetSpec { capacities, conns };
    let rtt = rng.range_f64(0.02, 0.08);
    FluidTopo::uniform_rtt(spec, rtt)
}

/// RK4 order check: halving the step size must cut the global error by
/// roughly 2⁴ = 16×. The observable must not sit on a constraint: while a
/// link is overloaded its delivered aggregate is pinned at capacity, and a
/// lone underloaded window grows linearly (integrated exactly at any
/// step). So we use one Balia connection over an overloaded slow link plus
/// an underloaded fast link: the fast subflow's rate is a smooth nonlinear
/// functional of the slow subflow's transient (coupling through Σx), with
/// no kinks — the RTT asymmetry keeps the fast subflow's rate strictly
/// maximal so Balia's max/min terms never switch branch, and q stays > 0
/// on the slow link and = 0 on the fast one throughout.
#[test]
fn ode_rk4_step_halving_is_fourth_order() {
    let spec = ParallelNetSpec {
        capacities: vec![3.0, 100.0],
        conns: vec![vec![0, 1]],
    };
    let topo = FluidTopo {
        spec,
        rtt_secs: vec![0.1, 0.025],
    };
    let mk = |step: f64| FluidConfig {
        step: Some(step),
        duration: 0.05,
        sample_every: 0.05,
        slow_start: false,
        w0: 30.0,
    };
    let kinds = [CoupledKind::Balia];
    let h = 5.0e-4;
    let final_rate = |step: f64| {
        let traj = ode::integrate(&topo, &kinds, &mk(step));
        // The fast subflow's goodput: q = 0 there, so this is w/τ directly.
        *traj.subflow_mbps[0][1].last().unwrap()
    };
    let reference = final_rate(h / 16.0);
    let err_h = (final_rate(h) - reference).abs();
    let err_h2 = (final_rate(h / 2.0) - reference).abs();
    assert!(
        err_h > 0.0 && err_h2 > 0.0,
        "errors degenerate: {err_h:e} / {err_h2:e}"
    );
    let ratio = err_h / err_h2;
    // Fourth order ⇒ ratio ≈ 16; accept a wide band for accumulated
    // round-off and the finite reference step.
    assert!(
        (6.0..=64.0).contains(&ratio),
        "err(h) {err_h:e} / err(h/2) {err_h2:e} = {ratio:.1}, not ~16"
    );
}

/// Trajectory invariants on random topologies: every per-subflow goodput
/// sample is non-negative, and the delivered (post-loss) aggregate on each
/// link never exceeds the link's payload capacity.
#[test]
fn ode_trajectories_nonnegative_and_capacity_bounded() {
    let mut rng = SimRng::seed_from_u64(0x0DE1);
    let kinds_cycle = [
        CoupledKind::Lia,
        CoupledKind::Olia,
        CoupledKind::Balia,
        CoupledKind::Reno,
    ];
    for case in 0..8 {
        let topo = random_ode_topo(&mut rng);
        let kind = kinds_cycle[case % kinds_cycle.len()];
        let kinds = vec![kind; topo.spec.conns.len()];
        let cfg = FluidConfig {
            duration: 10.0,
            sample_every: 0.5,
            ..FluidConfig::default()
        };
        let traj = ode::integrate(&topo, &kinds, &cfg);
        let n_samples = traj.secs.len();
        for (i, sub) in traj.subflow_mbps.iter().enumerate() {
            for rates in sub {
                for &r in rates {
                    assert!(
                        r >= -1e-9,
                        "case {case} ({}): conn {i} negative rate {r}",
                        kind.name()
                    );
                }
            }
        }
        // Per-link delivered aggregate ≤ payload capacity (wire capacity
        // scaled by the payload fraction), with headroom for sampling on
        // the q = 0 boundary where delivered = offered.
        for (l, &cap) in topo.spec.capacities.iter().enumerate() {
            let payload_cap = cap * ode::MSS_PAYLOAD / ode::MSS_WIRE;
            for s in 0..n_samples {
                let mut agg = 0.0;
                for (i, conn) in topo.spec.conns.iter().enumerate() {
                    for (j, &link) in conn.iter().enumerate() {
                        if link == l {
                            agg += traj.subflow_mbps[i][j][s];
                        }
                    }
                }
                assert!(
                    agg <= payload_cap * 1.02 + 1e-6,
                    "case {case} ({}): link {l} delivered {agg:.3} > {payload_cap:.3} Mbps",
                    kind.name()
                );
            }
        }
    }
}

/// The integrated equilibrium of each coupled controller on a symmetric
/// two-link topology matches the closed-form symmetric fixed point from
/// the same window dynamics (bisection on the per-ACK/per-loss balance).
#[test]
fn ode_equilibrium_matches_symmetric_fixed_point() {
    let rtt = 0.05;
    for kind in [CoupledKind::Lia, CoupledKind::Olia, CoupledKind::Balia] {
        for cap in [20.0, 45.0] {
            let spec = ParallelNetSpec {
                capacities: vec![cap, cap],
                conns: vec![vec![0, 1]],
            };
            let topo = FluidTopo::uniform_rtt(spec, rtt);
            let kinds = [kind];
            let cfg = FluidConfig {
                duration: 60.0,
                ..FluidConfig::default()
            };
            let eq = ode::equilibrium(&topo, &kinds, &cfg);
            let (_, per_subflow) = ode::symmetric_fixed_point(kind, cap, rtt, 2);
            let want = 2.0 * per_subflow;
            assert!(
                (eq[0] - want).abs() <= (0.03 * want).max(0.5),
                "{} cap {cap}: integrated {:.2} vs fixed point {want:.2} Mbps",
                kind.name(),
                eq[0]
            );
        }
    }
}
