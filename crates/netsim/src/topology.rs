//! Network descriptions and the paper's evaluation topologies.
//!
//! A [`NetSpec`] describes a simulated network: its links, plus one link
//! route per subflow of every connection. [`NetSpec::build`] is the only
//! code that turns a description into a [`Simulation`]; the LMMF and fluid
//! oracles (`mpcc::theory`) derive their inputs from the same value.
//!
//! * Parallel-link networks (Fig. 3a–3e and Fig. 4a): a bundle of
//!   independent bottleneck links between two vertices; every route is a
//!   single link, and connections differ only in which links their
//!   subflows use.
//! * The data-center Clos (Fig. 18): two spines, four ToRs, dual-homed
//!   hosts, ECMP across the spines ([`ClosConfig::net`]).
//!
//! The experiment layer then adds transport endpoints.

use crate::ids::{EndpointId, LinkId, PathId};
use crate::link::LinkParams;
use crate::network::{Route, RouteTable, Simulation};
use crate::shard::ShardedSimulation;
use mpcc_simcore::{Rate, SimDuration};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A network description: links plus a route per subflow.
#[derive(Clone, Debug)]
pub struct NetSpec {
    /// The links; `LinkId(i)` of a built network is `links[i]`.
    pub links: Vec<LinkParams>,
    /// `conns[c][k]`: the route of connection `c`'s subflow `k`, as
    /// indices into `links` in forward order.
    pub conns: Vec<Vec<Vec<usize>>>,
}

impl NetSpec {
    /// Builds the network: the links in order, then one path per subflow
    /// in `(c, k)` order, so `PathId`s are those [`NetSpec::paths`] names.
    pub fn build(&self, seed: u64) -> Simulation {
        self.build_on(seed, Arc::new(self.route_table()))
    }

    /// The links in order, over `routes`, this description's
    /// [`NetSpec::route_table`]; a sharded build hands every shard the
    /// same table.
    fn build_on(&self, seed: u64, routes: Arc<RouteTable>) -> Simulation {
        let mut sim = Simulation::with_routes(seed, routes);
        for params in &self.links {
            sim.add_link(*params);
        }
        sim
    }

    /// One path per subflow in `(c, k)` order. Each distinct route is
    /// stored once, with the reverse delay of a symmetric path (the sum of
    /// its links' delays).
    fn route_table(&self) -> RouteTable {
        let mut table = RouteTable::default();
        table.reserve(self.conns.iter().map(Vec::len).sum());
        let mut stored: HashMap<&[usize], u32> = HashMap::new();
        for route in self.conns.iter().flatten() {
            let r = *stored.entry(route).or_insert_with(|| {
                table.add_route(Route {
                    links: route.iter().map(|&l| LinkId(l as u32)).collect(),
                    reverse_delay: route
                        .iter()
                        .map(|&l| self.links[l].delay)
                        .fold(SimDuration::ZERO, |a, b| a + b),
                })
            });
            table.add_path(r);
        }
        table
    }

    /// Connection `c`'s path ids in a built network, one per subflow.
    pub fn paths(&self, c: usize) -> Vec<PathId> {
        let ids = self
            .path_ranges()
            .nth(c)
            .expect("connection index in range");
        ids.map(PathId).collect()
    }

    /// Each connection's range of path ids, in `conns` order.
    fn path_ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        self.conns.iter().scan(0u32, |next, routes| {
            let first = *next;
            *next += routes.len() as u32;
            Some(first..*next)
        })
    }
}

/// A parallel-link network: `links[i]` is the i-th bottleneck.
pub struct ParallelNet {
    /// The simulation owning the links.
    pub sim: Simulation,
    /// The parallel bottleneck links, in order.
    pub links: Vec<LinkId>,
}

/// Builds a parallel-link network with one link per entry of `params`.
pub fn parallel_links(seed: u64, params: &[LinkParams]) -> ParallelNet {
    let net = NetSpec {
        links: params.to_vec(),
        conns: Vec::new(),
    };
    ParallelNet {
        sim: net.build(seed),
        links: (0..params.len() as u32).map(LinkId).collect(),
    }
}

/// Builds a parallel-link network of `n` identical links.
pub fn uniform_parallel_links(seed: u64, n: usize, params: LinkParams) -> ParallelNet {
    parallel_links(seed, &vec![params; n])
}

impl ParallelNet {
    /// Adds a single-bottleneck path over link `i`.
    pub fn path(&mut self, i: usize) -> PathId {
        let link = self.links[i];
        self.sim.add_path(vec![link])
    }
}

/// The two-layer Clos data-center network of Fig. 18.
///
/// Every ToR connects to every spine; hosts hang off ToRs. All links are
/// bidirectional (modelled as a pair of unidirectional links). The testbed
/// used 25 Gbps DAC cables and 6 hosts on 4 dual-homed machines; we default
/// to a 10× scale-down (2.5 Gbps) and place `hosts_per_tor` hosts on each
/// ToR for symmetry (see DESIGN.md §1 for the substitution rationale).
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

impl ClosConfig {
    /// Total number of hosts.
    pub fn hosts(&self) -> usize {
        self.tors * self.hosts_per_tor
    }

    /// The ToR (rack) of each link, in [`ClosConfig::net`]'s link order:
    /// host uplinks, host downlinks, ToR uplinks, ToR downlinks (the ToR
    /// links `t * spines + s` of each block join ToR `t` and spine `s`).
    fn link_racks(&self) -> impl Iterator<Item = usize> {
        let hpt = self.hosts_per_tor;
        let spines = self.spines;
        let hosts = (0..self.hosts()).map(move |h| h / hpt);
        let tors = (0..self.tors * spines).map(move |i| i / spines);
        hosts.clone().chain(hosts).chain(tors.clone()).chain(tors)
    }

    /// The fabric with `conns[c] = (src, dst, subflows)`'s routes.
    ///
    /// A same-ToR pair has one 2-link route (up to the ToR, down to the
    /// host); a cross-ToR pair has one 4-link route per spine. Subflows
    /// take the pair's routes round-robin, starting at a hash of the pair
    /// — the per-subflow 5-tuple ECMP hashing of the testbed.
    pub fn net(&self, conns: &[(usize, usize, usize)]) -> NetSpec {
        let params = LinkParams {
            capacity: self.link_capacity,
            delay: self.link_delay,
            buffer: self.buffer,
            random_loss: 0.0,
            faults: crate::fault::FaultPlan::NONE,
        };
        let n_hosts = self.hosts();
        let n_links = 2 * n_hosts + 2 * self.tors * self.spines;
        let (host_down, tor_up) = (n_hosts, 2 * n_hosts);
        let tor_down = tor_up + self.tors * self.spines;
        let conns = conns
            .iter()
            .map(|&(src, dst, subflows)| {
                assert_ne!(src, dst, "no self-routes");
                let (ts, td) = (src / self.hosts_per_tor, dst / self.hosts_per_tor);
                let n_routes = if ts == td { 1 } else { self.spines };
                let pair = (src as u64) << 32 | dst as u64;
                let offset = mpcc_simcore::rng::splitmix64(pair) as usize % n_routes;
                (0..subflows)
                    .map(|k| {
                        if ts == td {
                            return vec![src, host_down + dst];
                        }
                        let s = (offset + k) % n_routes;
                        vec![
                            src,
                            tor_up + ts * self.spines + s,
                            tor_down + td * self.spines + s,
                            host_down + dst,
                        ]
                    })
                    .collect()
            })
            .collect();
        NetSpec {
            links: vec![params; n_links],
            conns,
        }
    }

    /// Builds the fabric carrying `conns` ([`ClosConfig::net`]) as a
    /// `shards`-way [`ShardedSimulation`] partitioned by rack (DESIGN.md
    /// §16). Racks are dealt round-robin over the shards, so a host, its
    /// access links and its ToR's spine links always land together: a
    /// forward route crosses shards at most once (between the spine
    /// uplink and the destination rack's spine downlink), and the first
    /// hop of every route is co-owned with its source endpoint, as the
    /// engine requires.
    ///
    /// The route table is built once and shared by every shard. Each
    /// shard builds the links over it, then reserves one endpoint slot per
    /// entry of `slot_hosts` (the host of each slot, in reservation
    /// order); slot `i` belongs to its host's shard. Then `install(shard,
    /// sim, partition)` adds that shard's endpoints and events. Returns
    /// the engine and the partition.
    pub fn partitioned<F>(
        &self,
        seed: u64,
        shards: u8,
        conns: &[(usize, usize, usize)],
        slot_hosts: &[usize],
        mut install: F,
    ) -> (ShardedSimulation, ClosPartition)
    where
        F: FnMut(u8, &mut Simulation, &ClosPartition),
    {
        let rack_shard = |rack: usize| (rack % shards as usize) as u8;
        let mut net = self.net(conns);
        let routes = Arc::new(net.route_table());
        let mut part = ClosPartition {
            paths: net
                .path_ranges()
                .map(|ids| ids.map(PathId).collect())
                .collect(),
            slots: Vec::new(),
            slot_shard: slot_hosts
                .iter()
                .map(|&h| rack_shard(h / self.hosts_per_tor))
                .collect(),
            link_shard: self.link_racks().map(rack_shard).collect(),
        };
        // The links are all the shards need of the description now; its
        // per-subflow routes go before the shards allocate.
        net.conns = Vec::new();
        let (link_shard, slot_shard) = (part.link_shard.clone(), part.slot_shard.clone());
        let sim = ShardedSimulation::new(shards, link_shard, slot_shard, |me| {
            let mut sim = net.build_on(seed, Arc::clone(&routes));
            part.slots = sim.reserve_endpoints(slot_hosts.len());
            install(me, &mut sim, &part);
            sim
        });
        (sim, part)
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
    fn build_numbers_links_in_order_and_paths_by_connection_then_subflow() {
        let mbps = |c| LinkParams::paper_default().with_capacity(Rate::from_mbps(c));
        let net = NetSpec {
            links: vec![mbps(10.0), mbps(20.0), mbps(30.0)],
            conns: vec![vec![vec![2], vec![0, 1]], vec![], vec![vec![1]]],
        };
        let sim = net.build(1);
        for (i, params) in net.links.iter().enumerate() {
            assert_eq!(
                sim.link(LinkId(i as u32)).params().capacity,
                params.capacity
            );
        }
        assert_eq!(net.paths(0), [PathId(0), PathId(1)]);
        assert!(net.paths(1).is_empty());
        assert_eq!(net.paths(2), [PathId(2)]);
        let routes: Vec<&[LinkId]> = (0..3)
            .map(|p| &sim.routes().get(PathId(p)).unwrap().links[..])
            .collect();
        assert_eq!(
            routes,
            [&[LinkId(2)][..], &[LinkId(0), LinkId(1)], &[LinkId(1)]]
        );
    }

    #[test]
    fn clos_routes() {
        let cfg = ClosConfig::default();
        assert_eq!(cfg.hosts(), 8);
        // Same ToR: one 2-hop route, whatever the subflow count.
        let same = cfg.net(&[(0, 1, 2)]);
        assert_eq!(same.conns[0][0], same.conns[0][1]);
        assert_eq!(same.conns[0][0].len(), 2);
        // Cross ToR: one route per spine, 4 hops each.
        let routes = &cfg.net(&[(0, 7, 2)]).conns[0];
        assert_eq!(routes.len(), 2);
        for r in routes {
            assert_eq!(r.len(), 4);
        }
        // The two routes differ only in the spine links.
        assert_eq!(routes[0][0], routes[1][0]);
        assert_eq!(routes[0][3], routes[1][3]);
        assert_ne!(routes[0][1], routes[1][1]);
    }

    #[test]
    fn clos_subflow_paths_spread_over_spines() {
        let cfg = ClosConfig::default();
        let net = cfg.net(&[(0, 7, 3)]);
        let sim = net.build(7);
        let paths = net.paths(0);
        assert_eq!(paths.len(), 3);
        // Host 0 reaches host 7 over 2 ECMP routes, one per spine; 3
        // subflows dealt round-robin over them cover both spines.
        let mut uplinks: Vec<LinkId> = paths
            .iter()
            .map(|&p| sim.routes().get(p).unwrap().links[1])
            .collect();
        uplinks.sort_unstable();
        uplinks.dedup();
        // ToR 0's spine uplinks follow the 2 × 8 host links.
        assert_eq!(uplinks, [LinkId(16), LinkId(17)]);
    }

    /// Records the first draw of its random stream at start.
    struct RngProbe(Option<u64>);

    impl crate::Endpoint for RngProbe {
        fn start(&mut self, ctx: &mut dyn crate::HostCtx) {
            self.0 = Some(ctx.rng().next_u64());
        }
        fn on_packet(&mut self, _: crate::Packet, _: &mut dyn crate::HostCtx) {}
        fn on_timer(&mut self, _: u64, _: &mut dyn crate::HostCtx) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Five cross-rack connections (two between the same hosts) on a
    /// 2-shard default Clos, each shard installing an `RngProbe` into
    /// every slot it owns.
    fn two_shard_clos() -> (ShardedSimulation, ClosPartition) {
        let conns = [(0, 7, 2), (2, 5, 2), (4, 1, 2), (6, 3, 2), (0, 7, 2)];
        let slot_hosts: Vec<usize> = conns.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        ClosConfig::default().partitioned(7, 2, &conns, &slot_hosts, |me, sim, part| {
            for (&id, &owner) in part.slots.iter().zip(&part.slot_shard) {
                if owner == me {
                    sim.install_endpoint(id, Box::new(RngProbe(None)));
                }
            }
        })
    }

    #[test]
    fn partitioned_shards_share_one_route_table_and_hold_only_owned_endpoints() {
        let (mut sim, part) = two_shard_clos();
        let routes = sim.shard(0).routes();
        assert!(Arc::ptr_eq(routes, sim.shard(1).routes()));
        // Ten subflow paths over four host pairs' two spine routes each.
        assert_eq!((routes.paths(), routes.routes().len()), (10, 8));
        sim.run_until(mpcc_simcore::SimTime::from_millis(1));
        for i in 0..2 {
            let owned: Vec<EndpointId> = (part.slots.iter().zip(&part.slot_shard))
                .filter(|&(_, &owner)| owner == i as u8)
                .map(|(&id, _)| id)
                .collect();
            assert!(!owned.is_empty() && owned.len() < part.slots.len());
            let shard = sim.shard(i);
            assert_eq!(shard.installed_endpoints().collect::<Vec<_>>(), owned);
            assert_eq!(shard.endpoint_states(), owned.len());
            // The stream forked at install is the one the id names.
            for &id in &owned {
                let first = crate::endpoint_rng(7, id).next_u64();
                assert_eq!(shard.endpoint::<RngProbe>(id).0, Some(first));
            }
        }
    }

    /// A removed endpoint's slot stays retired: installing into it again
    /// is rejected, so a stray packet or timer addressed to the old
    /// endpoint can never reach a new one.
    #[test]
    #[should_panic(expected = "was used before")]
    fn partitioned_slot_rejects_reinstall_after_removal() {
        let (mut sim, part) = two_shard_clos();
        let owner = part.slot_shard[0] as usize;
        let shard = sim.shard_mut(owner);
        let installed = shard.installed_endpoints().count();
        let ep = shard.remove_endpoint(part.slots[0]);
        assert_eq!(shard.installed_endpoints().count(), installed - 1);
        shard.install_endpoint(part.slots[0], ep);
    }

    #[test]
    fn partition_deals_whole_racks_round_robin() {
        // Three hosts a rack against two spines, so the host links and the
        // spine links of a rack do not line up by index.
        let cfg = ClosConfig {
            hosts_per_tor: 3,
            ..ClosConfig::default()
        };
        let (_, part) = cfg.partitioned(7, 3, &[(2, 7, 2)], &[7, 2], |_, _, _| {});
        // Every link of a route from `src` to `dst` on spine `s`: host
        // uplink and ToR uplink in the source rack, ToR downlink and host
        // downlink in the destination rack. Together the routes of all
        // cross-rack pairs name every link of the fabric.
        let rack = |h: usize| h / cfg.hosts_per_tor;
        let pairs: Vec<_> = (0..cfg.hosts())
            .flat_map(|src| (0..cfg.hosts()).map(move |dst| (src, dst, 2)))
            .filter(|&(src, dst, _)| rack(src) != rack(dst))
            .collect();
        let net = cfg.net(&pairs);
        let owned_by = |links: &[usize], rack: usize| {
            links
                .iter()
                .all(|&l| part.link_shard[l] == (rack % 3) as u8)
        };
        let mut seen = vec![false; net.links.len()];
        for (&(src, dst, _), routes) in pairs.iter().zip(&net.conns) {
            for r in routes {
                assert!(owned_by(&r[..2], rack(src)) && owned_by(&r[2..], rack(dst)));
                r.iter().for_each(|&l| seen[l] = true);
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(part.link_shard.len(), net.links.len());
        assert_eq!(part.slot_shard, [2, 0]);
        assert_eq!(part.slots, [EndpointId(0), EndpointId(1)]);
        assert_eq!(part.paths, [[PathId(0), PathId(1)]]);
    }
}
