//! Lexicographic max-min fair (LMMF) allocations on parallel-link networks
//! — the global outcome Theorems 4.1/5.1/5.2 prove MPCC reaches.
//!
//! Computed exactly by progressive filling with a max-flow feasibility
//! oracle: binary-search the largest common rate `t` every unfrozen
//! connection can simultaneously receive, freeze the connections that
//! cannot individually exceed `t`, and repeat. Capacities are handled in
//! integer kbps, so results are exact to 1 kbps.

use super::maxflow::MaxFlow;
use mpcc_netsim::topology::NetSpec;

/// A parallel-link network with a subflow-to-link assignment.
#[derive(Clone, Debug)]
pub struct ParallelNetSpec {
    /// Capacity of each link, Mbps.
    pub capacities: Vec<f64>,
    /// `conns[i]` is the set of link indices connection `i` can use
    /// (duplicates are ignored: extra subflows on the same link add no
    /// capacity access).
    pub conns: Vec<Vec<usize>>,
}

impl ParallelNetSpec {
    /// The three-parallel-links example of the paper's Fig. 1: MPCC₁ on
    /// link 0, MPCC₃ on links {0, 1, 2}, all 100 Mbps.
    pub fn fig1() -> Self {
        ParallelNetSpec {
            capacities: vec![100.0, 100.0, 100.0],
            conns: vec![vec![0], vec![0, 1, 2]],
        }
    }

    /// The parallel-link view of `net`: each link's capacity, and the
    /// link of every subflow.
    ///
    /// # Panics
    ///
    /// If a route crosses more than one link: feasibility over multi-link
    /// routes is a linear program, not this module's bipartite max-flow.
    pub fn of(net: &NetSpec) -> Self {
        let link_of = |route: &Vec<usize>| match route[..] {
            [l] => l,
            _ => panic!("LMMF needs single-link routes, got route {route:?}"),
        };
        ParallelNetSpec {
            capacities: net.links.iter().map(|l| l.capacity.mbps()).collect(),
            conns: net
                .conns
                .iter()
                .map(|routes| routes.iter().map(link_of).collect())
                .collect(),
        }
    }

    fn links_of(&self, conn: usize) -> Vec<usize> {
        let mut v = self.conns[conn].clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

const KBPS: f64 = 1000.0;

/// Feasibility: can every connection receive at least `demand[i]` kbps?
fn feasible(spec: &ParallelNetSpec, demands_kbps: &[u64]) -> bool {
    let n = spec.conns.len();
    let m = spec.capacities.len();
    // Nodes: 0 = source, 1..=n conns, n+1..=n+m links, n+m+1 sink.
    let mut mf = MaxFlow::new(n + m + 2);
    let sink = n + m + 1;
    let total: u64 = demands_kbps.iter().sum();
    for (i, &d) in demands_kbps.iter().enumerate() {
        mf.add_edge(0, 1 + i, d);
        for l in spec.links_of(i) {
            mf.add_edge(1 + i, 1 + n + l, u64::MAX / 4);
        }
    }
    for (l, &c) in spec.capacities.iter().enumerate() {
        mf.add_edge(1 + n + l, sink, (c * KBPS).round() as u64);
    }
    mf.max_flow(0, sink) >= total
}

/// Computes the LMMF per-connection totals, in Mbps.
pub fn lmmf_allocation(spec: &ParallelNetSpec) -> Vec<f64> {
    let n = spec.conns.len();
    let mut fixed: Vec<Option<u64>> = vec![None; n];
    let cap_total: u64 = spec
        .capacities
        .iter()
        .map(|c| (c * KBPS).round() as u64)
        .sum();

    fn demands(fixed: &[Option<u64>], t: u64) -> Vec<u64> {
        fixed.iter().map(|f| f.unwrap_or(t)).collect()
    }
    while fixed.iter().any(Option::is_none) {
        // Binary search the maximal feasible common level.
        let mut lo = 0u64; // feasible
        let mut hi = cap_total + 1; // infeasible
        debug_assert!(feasible(spec, &demands(&fixed, lo)));
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(spec, &demands(&fixed, mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = lo;
        // Freeze every active connection that cannot individually exceed t.
        // Integer rounding can leave sub-unit slack shared among several
        // connections (none individually stuck at +1 even though the common
        // level cannot rise), so the test increment escalates: first the
        // exact +1, then ~0.1% and ~1.5% of t, before a freeze-all fallback.
        let mut froze = false;
        let active: Vec<usize> = (0..n).filter(|&i| fixed[i].is_none()).collect();
        for eps in [1, (t / 1024).max(2), (t / 64).max(4)] {
            for &i in &active {
                if fixed[i].is_some() {
                    continue;
                }
                let mut d = demands(&fixed, t);
                d[i] = t + eps;
                if !feasible(spec, &d) {
                    fixed[i] = Some(t);
                    froze = true;
                }
            }
            if froze {
                break;
            }
        }
        if !froze {
            for i in active {
                fixed[i] = Some(t);
            }
        }
    }
    fixed
        .into_iter()
        .map(|f| f.expect("all frozen") as f64 / KBPS)
        .collect()
}

/// Computes the LMMF totals and a consistent per-(connection, link) rate
/// split `x[i][l]` (Mbps; 0 where connection `i` does not use link `l`).
pub fn lmmf_with_flows(spec: &ParallelNetSpec) -> (Vec<f64>, Vec<Vec<f64>>) {
    let totals = lmmf_allocation(spec);
    let n = spec.conns.len();
    let m = spec.capacities.len();
    let mut mf = MaxFlow::new(n + m + 2);
    let sink = n + m + 1;
    // Remember edge indices to recover flows: conn i's k-th outgoing edge
    // (after its source edge) goes to its k-th deduped link.
    let mut conn_links: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (i, total) in totals.iter().enumerate() {
        mf.add_edge(0, 1 + i, (total * KBPS).round() as u64);
        let links = spec.links_of(i);
        for &l in &links {
            mf.add_edge(1 + i, 1 + n + l, u64::MAX / 4);
        }
        conn_links.push(links);
    }
    for (l, &c) in spec.capacities.iter().enumerate() {
        mf.add_edge(1 + n + l, sink, (c * KBPS).round() as u64);
    }
    mf.max_flow(0, sink);
    let mut x = vec![vec![0.0; m]; n];
    for i in 0..n {
        for (k, &l) in conn_links[i].iter().enumerate() {
            // graph[1+i][0] is the reverse of the source edge; the link
            // edges follow in insertion order.
            let f = mf.edge_flow(1 + i, k + 1, u64::MAX / 4);
            x[i][l] = f as f64 / KBPS;
        }
    }
    (totals, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 0.01
    }

    #[test]
    #[should_panic(expected = "LMMF needs single-link routes")]
    fn of_rejects_multi_link_routes() {
        // Host 0 to host 7 crosses the fabric: a 4-hop route.
        let net = mpcc_netsim::topology::ClosConfig::default().net(&[(0, 7, 1)]);
        ParallelNetSpec::of(&net);
    }

    #[test]
    fn fig1_example_is_100_200() {
        // The paper's Fig. 1c: MPCC₁ gets its whole link (100), MPCC₃ gets
        // the remaining two links (200) — LMMF, not just MMF.
        let totals = lmmf_allocation(&ParallelNetSpec::fig1());
        assert!(close(totals[0], 100.0), "{totals:?}");
        assert!(close(totals[1], 200.0), "{totals:?}");
    }

    #[test]
    fn resource_pooling_on_identical_sets() {
        // Two connections over the same two links split evenly.
        let spec = ParallelNetSpec {
            capacities: vec![100.0, 50.0],
            conns: vec![vec![0, 1], vec![0, 1]],
        };
        let totals = lmmf_allocation(&spec);
        assert!(
            close(totals[0], 75.0) && close(totals[1], 75.0),
            "{totals:?}"
        );
    }

    #[test]
    fn two_links_mp_sp_topology() {
        // Fig. 3c: MP on {0,1}, SP on {1}. LMMF: SP gets all of link 1,
        // MP gets all of link 0.
        let spec = ParallelNetSpec {
            capacities: vec![100.0, 100.0],
            conns: vec![vec![0, 1], vec![1]],
        };
        let totals = lmmf_allocation(&spec);
        assert!(close(totals[0], 100.0), "{totals:?}");
        assert!(close(totals[1], 100.0), "{totals:?}");
        // And the flow split puts the MP connection's traffic on link 0.
        let (_, x) = lmmf_with_flows(&spec);
        assert!(close(x[0][0], 100.0), "{x:?}");
        assert!(x[0][1] < 0.01, "{x:?}");
    }

    #[test]
    fn lia_cycle_topology_splits_evenly() {
        // Fig. 4b: three links, three connections in a cycle; by symmetry
        // each gets one link's worth.
        let spec = ParallelNetSpec {
            capacities: vec![100.0, 100.0, 100.0],
            conns: vec![vec![0, 1], vec![1, 2], vec![2, 0]],
        };
        let totals = lmmf_allocation(&spec);
        for t in &totals {
            assert!(close(*t, 100.0), "{totals:?}");
        }
    }

    #[test]
    fn asymmetric_capacities() {
        // SP on a 50 Mbps link; MP on {that, 500 Mbps}. SP: 50, MP: 500.
        let spec = ParallelNetSpec {
            capacities: vec![50.0, 500.0],
            conns: vec![vec![0], vec![0, 1]],
        };
        let totals = lmmf_allocation(&spec);
        assert!(close(totals[0], 50.0), "{totals:?}");
        assert!(close(totals[1], 500.0), "{totals:?}");
    }

    #[test]
    fn lexicographic_refinement_beyond_plain_mmf() {
        // Three conns: A on {0}, B on {0}, C on {0,1}; caps 100, 30.
        // Plain MMF level: everyone ≥ 43.3 (A,B,C share link0 + C's link1)
        // LMMF: A=B=50? Let's see: worst-off maximized: C can use link 1
        // (30) plus link 0; common level t: 3t−30 ≤ 100 → t ≤ 43.33; A and
        // B are pinned at 43.33; C then gets 100−86.67+30 = 43.33.
        // Actually all three pin at the same level here. Use caps 100,60:
        // t: 2t + max(t−60,0) ≤ 100 → t = 50, C = 60? C uses link1 (60) and
        // nothing of link0 → A=B=50, C=60.
        let spec = ParallelNetSpec {
            capacities: vec![100.0, 60.0],
            conns: vec![vec![0], vec![0], vec![0, 1]],
        };
        let totals = lmmf_allocation(&spec);
        assert!(close(totals[0], 50.0), "{totals:?}");
        assert!(close(totals[1], 50.0), "{totals:?}");
        assert!(close(totals[2], 60.0), "{totals:?}");
    }

    #[test]
    fn flows_respect_capacities() {
        let spec = ParallelNetSpec {
            capacities: vec![80.0, 120.0, 60.0],
            conns: vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![1]],
        };
        let (totals, x) = lmmf_with_flows(&spec);
        // Per-link sums within capacity.
        for (l, &cap) in spec.capacities.iter().enumerate() {
            let sum: f64 = (0..4).map(|i| x[i][l]).sum();
            assert!(sum <= cap + 0.01, "link {l}: {sum}");
        }
        // Per-connection flows add to the totals.
        for i in 0..4 {
            let sum: f64 = x[i].iter().sum();
            assert!((sum - totals[i]).abs() < 0.01);
        }
    }
}
