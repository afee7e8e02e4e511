//! Builders for the paper's evaluation topologies.
//!
//! * Parallel-link networks (Fig. 3a–3e and Fig. 4a): a bundle of
//!   independent bottleneck links between two vertices; connections differ
//!   only in which subset of links their subflows use.
//! * The "LIA topology" (Fig. 4b): three links, three multipath connections
//!   in a cycle.
//! * The data-center Clos (Fig. 18): two spines, four ToRs, dual-homed
//!   hosts, ECMP across the spines.
//!
//! Builders create links inside a fresh [`Simulation`]; the experiment layer
//! then adds paths and transport endpoints.

use crate::ids::{EndpointId, LinkId, PathId};
use crate::link::LinkParams;
use crate::network::Simulation;
use crate::shard::ShardedSimulation;
use mpcc_simcore::{Rate, SimDuration};

/// A parallel-link network: `links[i]` is the i-th bottleneck.
pub struct ParallelNet {
    /// The simulation owning the links.
    pub sim: Simulation,
    /// The parallel bottleneck links, in order.
    pub links: Vec<LinkId>,
}

/// Builds a parallel-link network with one link per entry of `params`.
pub fn parallel_links(seed: u64, params: &[LinkParams]) -> ParallelNet {
    let mut sim = Simulation::new(seed);
    let links = params.iter().map(|p| sim.add_link(*p)).collect();
    ParallelNet { sim, links }
}

/// Builds a parallel-link network of `n` identical links.
pub fn uniform_parallel_links(seed: u64, n: usize, params: LinkParams) -> ParallelNet {
    parallel_links(seed, &vec![params; n])
}

impl ParallelNet {
    /// Adds a single-bottleneck path over link `i`.
    pub fn path(&mut self, i: usize) -> PathId {
        let link = self.links[i];
        self.sim.add_path(vec![link], None)
    }
}

/// The two-layer Clos data-center network of Fig. 18.
///
/// Every ToR connects to every spine; hosts hang off ToRs. All links are
/// bidirectional (modelled as a pair of unidirectional links). The testbed
/// used 25 Gbps DAC cables and 6 hosts on 4 dual-homed machines; we default
/// to a 10× scale-down (2.5 Gbps) and place `hosts_per_tor` hosts on each
/// ToR for symmetry (see DESIGN.md §1 for the substitution rationale).
pub struct Clos {
    /// The simulation owning the links.
    pub sim: Simulation,
    n_spines: usize,
    n_tors: usize,
    hosts_per_tor: usize,
    /// `host_up[h]` / `host_down[h]`: host h ↔ its ToR.
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
    /// `tor_up[t][s]` / `tor_down[t][s]`: ToR t ↔ spine s.
    tor_up: Vec<Vec<LinkId>>,
    tor_down: Vec<Vec<LinkId>>,
}

/// Configuration of the Clos builder.
#[derive(Clone, Copy, Debug)]
pub struct ClosConfig {
    /// Number of spine switches.
    pub spines: usize,
    /// Number of top-of-rack switches.
    pub tors: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Capacity of every link.
    pub link_capacity: Rate,
    /// Propagation delay of every link (DAC cables: microseconds).
    pub link_delay: SimDuration,
    /// Switch buffer per link, bytes.
    pub buffer: u64,
}

impl ClosConfig {
    /// Total number of hosts.
    pub fn hosts(&self) -> usize {
        self.tors * self.hosts_per_tor
    }
}

impl Default for ClosConfig {
    fn default() -> Self {
        ClosConfig {
            spines: 2,
            tors: 4,
            hosts_per_tor: 2,
            link_capacity: Rate::from_gbps(2.5),
            link_delay: SimDuration::from_micros(5),
            buffer: 500_000,
        }
    }
}

/// What a rack-partitioned Clos registers on every shard, and which
/// shard owns each piece. Ids are assigned in registration order, so
/// they are identical on every shard.
pub struct ClosPartition {
    /// `paths[c]`: the subflow paths of connection `c`.
    pub paths: Vec<Vec<PathId>>,
    /// `slots[i]`: the `i`-th reserved endpoint slot.
    pub slots: Vec<EndpointId>,
    /// `slot_shard[i]`: the shard owning slot `i`.
    pub slot_shard: Vec<u8>,
    /// `link_shard[l]`: the shard owning link `l`.
    pub link_shard: Vec<u8>,
}

impl Clos {
    /// Builds the Clos fabric.
    pub fn new(seed: u64, cfg: ClosConfig) -> Self {
        let mut sim = Simulation::new(seed);
        let params = LinkParams {
            capacity: cfg.link_capacity,
            delay: cfg.link_delay,
            buffer: cfg.buffer,
            random_loss: 0.0,
            faults: crate::fault::FaultPlan::NONE,
        };
        let n_hosts = cfg.hosts();
        let host_up = (0..n_hosts).map(|_| sim.add_link(params)).collect();
        let host_down = (0..n_hosts).map(|_| sim.add_link(params)).collect();
        let tor_up = (0..cfg.tors)
            .map(|_| (0..cfg.spines).map(|_| sim.add_link(params)).collect())
            .collect();
        let tor_down = (0..cfg.tors)
            .map(|_| (0..cfg.spines).map(|_| sim.add_link(params)).collect())
            .collect();
        Clos {
            sim,
            n_spines: cfg.spines,
            n_tors: cfg.tors,
            hosts_per_tor: cfg.hosts_per_tor,
            host_up,
            host_down,
            tor_up,
            tor_down,
        }
    }

    /// Total number of hosts.
    pub fn hosts(&self) -> usize {
        self.n_tors * self.hosts_per_tor
    }

    /// The ToR a host hangs off.
    pub fn tor_of(&self, host: usize) -> usize {
        host / self.hosts_per_tor
    }

    /// All distinct shortest link-level routes from `src` to `dst` hosts.
    ///
    /// Same-ToR pairs have a single 2-link route (up to the ToR, down to the
    /// host); cross-ToR pairs have one 4-link route per spine. ECMP at flow
    /// setup picks among these.
    pub fn routes(&self, src: usize, dst: usize) -> Vec<Vec<LinkId>> {
        assert_ne!(src, dst, "no self-routes");
        let (ts, td) = (self.tor_of(src), self.tor_of(dst));
        if ts == td {
            return vec![vec![self.host_up[src], self.host_down[dst]]];
        }
        (0..self.n_spines)
            .map(|s| {
                vec![
                    self.host_up[src],
                    self.tor_up[ts][s],
                    self.tor_down[td][s],
                    self.host_down[dst],
                ]
            })
            .collect()
    }

    /// Registers `n_subflows` paths from `src` to `dst`, spreading subflows
    /// over the ECMP routes round-robin starting at a hash of the pair —
    /// the per-subflow 5-tuple hashing of the testbed.
    pub fn subflow_paths(&mut self, src: usize, dst: usize, n_subflows: usize) -> Vec<PathId> {
        let routes = self.routes(src, dst);
        let offset = (mpcc_simcore::rng::splitmix64((src as u64) << 32 | dst as u64) as usize)
            % routes.len();
        (0..n_subflows)
            .map(|i| {
                let route = routes[(offset + i) % routes.len()].clone();
                self.sim.add_path(route, None)
            })
            .collect()
    }

    /// Builds the Clos fabric as a `shards`-way [`ShardedSimulation`]
    /// partitioned by rack (DESIGN.md §16). Racks are dealt round-robin
    /// over the shards, so a host, its access links and its ToR's spine
    /// links always land together: a forward route crosses shards at most
    /// once (between the spine uplink and the destination rack's spine
    /// downlink), and the first hop of every route is co-owned with its
    /// source endpoint, as the engine requires.
    ///
    /// Every shard registers the fabric, then `conns[c] = (src, dst,
    /// subflows)`'s paths ([`Clos::subflow_paths`]) in order, then one
    /// endpoint slot per entry of `slot_hosts` (the host of each slot, in
    /// reservation order); slot `i` belongs to its host's shard. Then
    /// `install(shard, sim, partition)` adds that shard's endpoints and
    /// events. Returns the engine and the partition.
    pub fn partitioned<F>(
        seed: u64,
        cfg: ClosConfig,
        shards: u8,
        conns: &[(usize, usize, usize)],
        slot_hosts: &[usize],
        mut install: F,
    ) -> (ShardedSimulation, ClosPartition)
    where
        F: FnMut(u8, &mut Simulation, &ClosPartition),
    {
        let rack_shard = |tor: usize| (tor % shards as usize) as u8;
        // Each link's rack, in `Clos::new`'s link order: host uplinks,
        // host downlinks, ToR uplinks, ToR downlinks.
        let hosts = (0..cfg.hosts()).map(|h| h / cfg.hosts_per_tor);
        let tors = (0..cfg.tors * cfg.spines).map(|i| i / cfg.spines);
        let racks = hosts.clone().chain(hosts).chain(tors.clone()).chain(tors);
        let link_shard: Vec<u8> = racks.map(rack_shard).collect();
        let slot_shard: Vec<u8> = slot_hosts
            .iter()
            .map(|&h| rack_shard(h / cfg.hosts_per_tor))
            .collect();
        let mut partition: Option<ClosPartition> = None;
        let sim = ShardedSimulation::new(shards, link_shard.clone(), slot_shard.clone(), |me| {
            let mut clos = Clos::new(seed, cfg);
            let paths: Vec<Vec<PathId>> = conns
                .iter()
                .map(|&(src, dst, n)| clos.subflow_paths(src, dst, n))
                .collect();
            let slots: Vec<EndpointId> = slot_hosts
                .iter()
                .map(|_| clos.sim.reserve_endpoint())
                .collect();
            let part = partition.get_or_insert_with(|| ClosPartition {
                paths,
                slots,
                slot_shard: slot_shard.clone(),
                link_shard: link_shard.clone(),
            });
            install(me, &mut clos.sim, part);
            clos.sim
        });
        (sim, partition.expect("at least one shard"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_builder_creates_links_and_paths() {
        let mut net = uniform_parallel_links(1, 3, LinkParams::paper_default());
        assert_eq!(net.links.len(), 3);
        let p0 = net.path(0);
        let p1 = net.path(2);
        assert_ne!(p0, p1);
    }

    #[test]
    fn clos_routes() {
        let clos = Clos::new(7, ClosConfig::default());
        assert_eq!(clos.hosts(), 8);
        // Same ToR: one 2-hop route.
        assert_eq!(clos.routes(0, 1).len(), 1);
        assert_eq!(clos.routes(0, 1)[0].len(), 2);
        // Cross ToR: one route per spine, 4 hops each.
        let routes = clos.routes(0, 7);
        assert_eq!(routes.len(), 2);
        for r in &routes {
            assert_eq!(r.len(), 4);
        }
        // The two routes differ only in the spine links.
        assert_eq!(routes[0][0], routes[1][0]);
        assert_eq!(routes[0][3], routes[1][3]);
        assert_ne!(routes[0][1], routes[1][1]);
    }

    #[test]
    fn clos_subflow_paths_spread_over_spines() {
        let mut clos = Clos::new(7, ClosConfig::default());
        let paths = clos.subflow_paths(0, 7, 3);
        assert_eq!(paths.len(), 3);
        // Host 0 reaches host 7 over 2 ECMP routes, one per spine; 3
        // subflows dealt round-robin over them cover both spines.
        let mut uplinks: Vec<LinkId> = paths
            .iter()
            .map(|p| clos.sim.paths[p.0 as usize].links[1])
            .collect();
        uplinks.sort_unstable();
        uplinks.dedup();
        assert_eq!(uplinks, clos.tor_up[0]);
    }

    #[test]
    fn partition_deals_whole_racks_round_robin() {
        // Three hosts a rack against two spines, so the host links and the
        // spine links of a rack do not line up by index.
        let cfg = ClosConfig {
            hosts_per_tor: 3,
            ..ClosConfig::default()
        };
        let (_, part) = Clos::partitioned(7, cfg, 3, &[(2, 7, 2)], &[7, 2], |_, _, _| {});
        let clos = Clos::new(7, cfg);
        let owned_by = |links: &[LinkId], rack: usize| {
            links
                .iter()
                .all(|l| part.link_shard[l.0 as usize] == (rack % 3) as u8)
        };
        for h in 0..clos.hosts() {
            assert!(owned_by(
                &[clos.host_up[h], clos.host_down[h]],
                clos.tor_of(h)
            ));
        }
        for t in 0..cfg.tors {
            assert!(owned_by(&clos.tor_up[t], t) && owned_by(&clos.tor_down[t], t));
        }
        assert_eq!(part.slot_shard, [2, 0]);
        assert_eq!(part.slots, [EndpointId(0), EndpointId(1)]);
        assert_eq!(part.paths, [[PathId(0), PathId(1)]]);
    }
}
