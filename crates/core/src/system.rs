//! System assembly: wire the replica servers (one group, or `N` sharded
//! groups), their clients, the network and the oracle into a
//! ready-to-run simulation.

#![expect(
    clippy::indexing_slicing,
    reason = "servers is sized to n_servers at construction and indexed by server indices i < n_servers produced by the group maps"
)]

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use groupsafe_db::DbEngine;
use groupsafe_gcs::GcsStats;
use groupsafe_net::{NetConfig, Network, NodeId};
use groupsafe_sim::{ActorId, Engine, Fnv64, SimTime};

use crate::builder::{GeneratorFactory, SystemBuilder};
use crate::client::{Client, ClientConfig, LoadModel};
use crate::msg::{ClientEvent, CoreMsg, ServerEvent};
use crate::server::{ReplicaServer, Technique};
use crate::shard::ShardMap;
use crate::verify::{self, LostTransaction, Oracle};

/// A fully wired system: one replica group in the classic configuration,
/// `N` key-routed groups when built with [`SystemBuilder::shards`].
pub struct System {
    /// The simulation engine.
    pub engine: Engine<CoreMsg>,
    /// The shared network.
    pub net: Network,
    /// Server actor ids (index = node id; group `g` owns the contiguous
    /// slice `g * servers_per_group ..`).
    pub servers: Vec<ActorId>,
    /// Client actor ids.
    pub clients: Vec<ActorId>,
    /// The shared oracle.
    pub oracle: Rc<RefCell<Oracle>>,
    /// Total number of servers (all groups).
    pub n_servers: u32,
    /// The key → group router (single-group when unsharded).
    pub shard: Rc<ShardMap>,
    /// Servers per replica group.
    pub servers_per_group: u32,
    /// Number of replica groups.
    pub n_groups: u32,
}

impl System {
    /// Wire the system a validated builder denotes. `load` and `shard`
    /// are the builder's load and shard settings, resolved once against
    /// the client population and the item space; `make_gen` supplies
    /// each client's operation generator (called once per client with
    /// its id).
    pub(crate) fn wire(
        b: &SystemBuilder,
        load: LoadModel,
        shard: Rc<ShardMap>,
        mut make_gen: GeneratorFactory,
    ) -> System {
        let n_groups = shard.n_groups();
        let spg = b.n_servers;
        let total_servers = spg * n_groups;
        let mut engine = Engine::new(b.seed);
        engine.set_obs(b.obs);
        let net = Network::new(NetConfig::default());
        net.attach(engine.watch());
        let oracle = Rc::new(RefCell::new(Oracle::default()));
        let mut seeder = StdRng::seed_from_u64(b.seed);

        let mut servers = Vec::with_capacity(total_servers as usize);
        for i in 0..total_servers {
            let node = NodeId(i);
            let mut server = ReplicaServer::new(
                node,
                spg,
                b.replica.clone(),
                net.clone(),
                oracle.clone(),
                seeder.random(),
                shard.clone(),
            );
            // The replicas of a group append the same log records: they
            // share one WAL store, each group its own.
            if i % spg != 0 {
                let first: &ReplicaServer = engine.actor(servers[(i - i % spg) as usize]);
                server.join_wal(first);
            }
            let id = engine.add_actor(Box::new(server));
            net.register(node, id);
            servers.push(id);
        }

        let n_clients = total_servers * b.clients_per_server;
        let mut clients = Vec::with_capacity(n_clients as usize);
        for c in 0..n_clients {
            let node = NodeId(total_servers + c);
            let home = NodeId(c % total_servers);
            let client = Client::new(
                ClientConfig {
                    node,
                    id: c,
                    home,
                    n_servers: total_servers,
                    servers_per_group: spg,
                    shard: shard.clone(),
                    load,
                    timeout: b.client_timeout,
                    measure_from: SimTime::ZERO + b.warmup,
                    reads: b.replica.reads,
                },
                net.clone(),
                oracle.clone(),
                StdRng::seed_from_u64(seeder.random()),
                make_gen(c),
            );
            let id = engine.add_actor(Box::new(client));
            net.register(node, id);
            clients.push(id);
        }

        // One multicast domain per group (its servers plus the clients
        // nominally homed there) for per-group wire accounting.
        let domains: Vec<Vec<NodeId>> = (0..n_groups)
            .map(|g| {
                let mut d: Vec<NodeId> = (g * spg..(g + 1) * spg).map(NodeId).collect();
                for c in 0..n_clients {
                    if (c % total_servers) / spg == g {
                        d.push(NodeId(total_servers + c));
                    }
                }
                d
            })
            .collect();
        net.set_domains(&domains);

        System {
            engine,
            net,
            servers,
            clients,
            oracle,
            n_servers: total_servers,
            shard,
            servers_per_group: spg,
            n_groups,
        }
    }

    /// Schedule server initialisation (t = 0) and client start (staggered
    /// across the first 100 ms to avoid arrival synchronisation).
    pub fn start(&mut self) {
        for &s in &self.servers {
            self.engine.schedule(SimTime::ZERO, s, ServerEvent::Init);
        }
        let count = self.clients.len().max(1) as u64;
        for (i, &c) in self.clients.iter().enumerate() {
            let offset = SimTime::from_nanos(100_000_000 * i as u64 / count);
            self.engine.schedule(offset, c, ClientEvent::Start);
        }
    }

    /// Borrow server `i`'s actor.
    pub fn server(&self, i: u32) -> &ReplicaServer {
        self.engine.actor(self.servers[i as usize])
    }

    /// (engine, live) pairs for the verification functions.
    pub fn replica_states(&self) -> Vec<(&DbEngine, bool)> {
        self.servers
            .iter()
            .map(|&id| {
                let s: &ReplicaServer = self.engine.actor(id);
                (s.db(), self.engine.is_alive(id))
            })
            .collect()
    }

    /// Acknowledged transactions missing from every live replica.
    pub fn lost_transactions(&self) -> Vec<LostTransaction> {
        let replicas = self.replica_states();
        verify::check_no_loss(&self.oracle.borrow(), &replicas)
    }

    /// The global server indices of group `g`.
    pub fn group_server_indices(&self, g: u32) -> Vec<u32> {
        (g * self.servers_per_group..(g + 1) * self.servers_per_group).collect()
    }

    /// The group server `i` belongs to.
    pub fn group_of_server(&self, i: u32) -> u32 {
        i / self.servers_per_group.max(1)
    }

    /// (engine, live) pairs of group `g`'s replicas.
    pub fn replica_states_of(&self, g: u32) -> Vec<(&DbEngine, bool)> {
        self.group_server_indices(g)
            .into_iter()
            .map(|i| {
                let id = self.servers[i as usize];
                let s: &ReplicaServer = self.engine.actor(id);
                (s.db(), self.engine.is_alive(id))
            })
            .collect()
    }

    /// Distinct state digests per group across each group's live replicas
    /// (each inner vector of length ≤ 1 = that group converged).
    pub fn convergence_by_group(&self) -> Vec<Vec<u64>> {
        (0..self.n_groups)
            .map(|g| verify::check_convergence(&self.replica_states_of(g)))
            .collect()
    }

    /// Distinct state digests across live replicas (length ≤ 1 =
    /// converged). In a sharded system the groups hold different data by
    /// design, so convergence is checked *within* each group: when every
    /// group internally agrees this returns a single combined witness
    /// digest, otherwise the distinct digests of the divergent groups.
    #[deny(clippy::float_arithmetic)]
    pub fn convergence(&self) -> Vec<u64> {
        if self.n_groups <= 1 {
            return verify::check_convergence(&self.replica_states());
        }
        let by_group = self.convergence_by_group();
        if by_group.iter().all(|d| d.len() <= 1) {
            let mut h = Fnv64::new();
            for &d in by_group.iter().flatten() {
                h.mix(d);
            }
            vec![h.finish()]
        } else {
            by_group.into_iter().flatten().collect()
        }
    }

    /// The technique's label (from the first server's config).
    pub fn technique(&self) -> Technique {
        self.server(0).technique()
    }

    /// The live server currently acting as a sequencer, if any (the
    /// first one found in node order — use
    /// [`System::current_sequencer_of`] to target one group of a sharded
    /// system). `None` for techniques without group communication, or
    /// while the group is down. Scenario drivers use this to aim targeted
    /// faults at whoever holds the role *now*.
    pub fn current_sequencer(&self) -> Option<u32> {
        (0..self.n_servers).find(|&i| {
            self.engine.is_alive(self.servers[i as usize])
                && self.server(i).gcs().is_some_and(|g| g.is_sequencer())
        })
    }

    /// The live server currently acting as group `g`'s sequencer, if any.
    pub fn current_sequencer_of(&self, g: u32) -> Option<u32> {
        self.group_server_indices(g).into_iter().find(|&i| {
            self.engine.is_alive(self.servers[i as usize])
                && self.server(i).gcs().is_some_and(|s| s.is_sequencer())
        })
    }

    /// Cross-group transactions some *live* replica is still awaiting a
    /// decision for (probes in flight). Scenario drivers use this as a
    /// quiescence signal alongside [`System::delivery_backlog`].
    pub fn xg_unresolved(&self) -> usize {
        (0..self.n_servers)
            .filter(|&i| self.engine.is_alive(self.servers[i as usize]))
            .map(|i| self.server(i).xg_unresolved())
            .sum()
    }

    /// Undelivered atomic-broadcast entries summed over the *live*
    /// replicas (0 = every live endpoint has drained its known
    /// sequence). Scenario drivers use this as a quiescence signal.
    pub fn delivery_backlog(&self) -> u64 {
        (0..self.n_servers)
            .filter(|&i| self.engine.is_alive(self.servers[i as usize]))
            .filter_map(|i| self.server(i).gcs().map(|g| g.backlog()))
            .sum()
    }

    /// Partition the network into the given server groups; each group
    /// takes its home clients with it. Servers absent from every group
    /// (and their clients) form an implicit final component.
    pub fn apply_partition(&mut self, groups: &[Vec<u32>]) {
        let n = self.n_servers;
        let total = self.net.node_count() as u32;
        let mut sides: Vec<Vec<NodeId>> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut side: Vec<NodeId> = group.iter().map(|&i| NodeId(i)).collect();
            for c in n..total {
                if group.contains(&((c - n) % n)) {
                    side.push(NodeId(c));
                }
            }
            sides.push(side);
        }
        let refs: Vec<&[NodeId]> = sides.iter().map(|s| s.as_slice()).collect();
        self.net.partition(&refs);
    }

    /// Whole-group atomic-broadcast counters plus the merged batch-size
    /// histogram (size → frame count), summed over every server's
    /// endpoint. Empty/default for techniques without group
    /// communication.
    pub fn gcs_stats(&self) -> (GcsStats, Vec<(u32, u64)>) {
        let mut total = GcsStats::default();
        let mut hist: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for &id in &self.servers {
            let s: &ReplicaServer = self.engine.actor(id);
            if let Some(g) = s.gcs() {
                total.merge(&g.stats());
                for (&size, &count) in g.batch_histogram() {
                    *hist.entry(size).or_insert(0) += count;
                }
            }
        }
        (total, hist.into_iter().collect())
    }

    /// Group `g`'s atomic-broadcast counters plus its merged batch-size
    /// histogram, summed over the group's endpoints.
    pub fn gcs_stats_of(&self, g: u32) -> (GcsStats, Vec<(u32, u64)>) {
        let mut total = GcsStats::default();
        let mut hist: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for i in self.group_server_indices(g) {
            let s: &ReplicaServer = self.engine.actor(self.servers[i as usize]);
            if let Some(e) = s.gcs() {
                total.merge(&e.stats());
                for (&size, &count) in e.batch_histogram() {
                    *hist.entry(size).or_insert(0) += count;
                }
            }
        }
        (total, hist.into_iter().collect())
    }
}
