//! Layer-isolation drives: construct one layer alone, from its public
//! API, and replay the counts and rates the full run observed, timing it
//! on the wall clock. Each drive answers "what would this layer cost if
//! it were all the simulator did", so a change inside the layer moves its
//! drive and, by that layer's share, the end-to-end wall cost.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use groupsafe_core::{certify, certify_snapshot, SafetyLevel, Technique, WorkloadSpec};
use groupsafe_db::{DbConfig, DbEngine, ItemId, Operation, TxnId, Value, Version, WriteOp};
use groupsafe_gcs::harness::Cluster;
use groupsafe_gcs::BatchConfig;
use groupsafe_net::{NetConfig, Network, NodeId};
use groupsafe_sim::{
    Actor, ActorId, Ctx, Disk, DiskConfig, Engine, Fcfs, Payload, SimDuration, SimTime,
};

use crate::stats;

/// Most events, deliveries or operations one drive replays: per-unit
/// costs level off long before, and the drives share the traced run's
/// time budget.
const CAP: u64 = 1_500_000;

// ---------------------------------------------------------------------
// sim: the event kernel
// ---------------------------------------------------------------------

struct Tick;

/// Re-arms a no-op timer until its share of the events is spent.
struct NopTimer {
    period: SimDuration,
    left: u64,
}

impl Actor for NopTimer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
        if self.left > 0 {
            self.left -= 1;
            ctx.timer(self.period, Tick);
        }
    }
}

/// Wall ns per event of the bare kernel: as many actors as the full run
/// had, each cycling a no-op timer, `events` events over `sim_s` seconds
/// through `Engine::schedule` and `Engine::run_until`.
pub fn kernel_ns_per_event(actors: usize, events: u64, sim_s: f64) -> f64 {
    let actors = actors.max(1);
    let per_actor = (events.min(CAP) / actors as u64).max(1);
    let period = SimDuration::from_secs_f64(sim_s / per_actor as f64);
    let mut engine = Engine::new(1);
    let ids: Vec<ActorId> = (0..actors)
        .map(|_| {
            engine.add_actor(Box::new(NopTimer {
                period,
                left: per_actor - 1,
            }))
        })
        .collect();
    let start = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        engine.schedule(SimTime::from_nanos(i as u64), id, Tick);
    }
    engine.run_until(SimTime::ZERO + SimDuration::from_secs_f64(sim_s + 1.0));
    start.elapsed().as_nanos() as f64 / engine.dispatched().max(1) as f64
}

// ---------------------------------------------------------------------
// net: the simulated LAN
// ---------------------------------------------------------------------

struct Sink;

impl Actor for Sink {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        std::hint::black_box(&payload);
    }
}

/// Multicasts a shared payload to the group, `left` more times.
struct Multicaster {
    net: Network,
    me: NodeId,
    targets: Vec<NodeId>,
    payload: Rc<[u64; 8]>,
    left: u64,
}

impl Actor for Multicaster {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
        if self.left > 0 {
            self.left -= 1;
            self.net
                .multicast(ctx, self.me, &self.targets, Rc::clone(&self.payload));
            ctx.timer(SimDuration::from_micros(100), Tick);
        }
    }
}

/// Wall ns per delivery of `Network::multicast` to `fanout` sink actors,
/// `deliveries` deliveries in all.
pub fn net_ns_per_delivery(fanout: usize, deliveries: u64) -> f64 {
    let fanout = fanout.max(1);
    let mut engine = Engine::new(1);
    let net = Network::new(NetConfig::default());
    let targets: Vec<NodeId> = (0..fanout as u32).map(NodeId).collect();
    for &node in &targets {
        let id = engine.add_actor(Box::new(Sink));
        net.register(node, id);
    }
    let me = NodeId(fanout as u32);
    let source = engine.add_actor(Box::new(Multicaster {
        net: net.clone(),
        me,
        targets,
        payload: Rc::new([7; 8]),
        left: (deliveries.min(CAP) / fanout as u64).max(1),
    }));
    net.register(me, source);
    engine.schedule(SimTime::ZERO, source, Tick);
    let start = Instant::now();
    engine.run_to_completion();
    start.elapsed().as_nanos() as f64 / net.stats().sent.max(1) as f64
}

// ---------------------------------------------------------------------
// gcs: uniform atomic broadcast on the harness cluster
// ---------------------------------------------------------------------

/// What the atomic-broadcast drive measured.
pub struct GcsIso {
    /// Broadcast → delivery at the origin, median (simulated ms).
    pub abcast_ms_p50: f64,
    /// Kernel events per atomic broadcast delivered.
    pub events_per_delivery: f64,
    /// Wall ns per atomic broadcast delivered.
    pub wall_ns_per_delivery: f64,
}

/// Drive `harness::Cluster` (group-safe's uniform view-based broadcast,
/// unbatched, `n` members) at `rate` broadcasts per second from rotating
/// origins.
pub fn gcs(n: u32, rate: f64, seed: u64) -> Option<GcsIso> {
    let cfg = Technique::Dsm(SafetyLevel::GroupSafe)
        .gcs_config()?
        .with_batching(BatchConfig::unbatched());
    let n = n.max(1);
    let rate = rate.max(1.0);
    // Five simulated seconds of traffic, bounded.
    let count = ((rate * 5.0) as u64).clamp(200, 6_000);
    let gap_ns = (1.0e9 / rate) as u64;
    let first_ns = 100_000_000u64;
    let mut cluster = Cluster::new(n, cfg, seed);
    let mut sent: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for i in 0..count {
        let at_ns = first_ns + i * gap_ns;
        let origin = (i % u64::from(n)) as u32;
        cluster.broadcast_at(SimTime::from_nanos(at_ns), NodeId(origin), i);
        sent[origin as usize].push(at_ns);
    }
    let start = Instant::now();
    cluster.engine.run_until(SimTime::from_nanos(
        first_ns + count * gap_ns + 1_000_000_000,
    ));
    let wall_ns = start.elapsed().as_nanos() as f64;
    let obs = cluster.obs.borrow();
    let mut latencies = Vec::new();
    for (origin, submit) in sent.iter().enumerate() {
        let node = NodeId(origin as u32);
        // An origin's broadcasts carry ascending counters: its k-th own
        // delivery answers its k-th broadcast.
        let mut own: Vec<_> = obs
            .deliveries
            .get(&node)
            .map_or(&[][..], |d| d.as_slice())
            .iter()
            .filter(|d| d.id.origin == node)
            .collect();
        own.sort_by_key(|d| d.id.counter);
        for (d, &at_ns) in own.iter().zip(submit) {
            latencies.push((d.at.as_nanos().saturating_sub(at_ns)) as f64 / 1.0e6);
        }
    }
    let delivered = obs.deliveries.get(&NodeId(0)).map_or(0, Vec::len).max(1) as f64;
    Some(GcsIso {
        abcast_ms_p50: stats::median(&latencies),
        events_per_delivery: cluster.engine.dispatched() as f64 / delivered,
        wall_ns_per_delivery: wall_ns / delivered,
    })
}

// ---------------------------------------------------------------------
// db: a lone engine over benchmark-owned resources
// ---------------------------------------------------------------------

/// What the database drive measured.
#[derive(Default)]
pub struct DbIso {
    pub ns_per_read: f64,
    /// `None` when the workload keeps no versions.
    pub ns_per_versioned_read: Option<f64>,
    pub ns_per_commit: f64,
    pub ns_per_prune: Option<f64>,
    /// Busy share of the replica's CPUs, data disks and log disks over
    /// the replayed span: an estimate, since the real replica also
    /// spends CPU on the network and shares one disk pool.
    pub cpu_util: f64,
    pub data_disk_util: f64,
    pub log_disk_util: f64,
    /// Prunes the ordered replay timed.
    pub prunes: usize,
}

/// Shape of one replica's operation stream.
pub struct DbStream<'a> {
    pub spec: &'a WorkloadSpec,
    pub config: DbConfig,
    /// Transactions per second reaching the replica's group.
    pub group_tps: f64,
    /// The replica is delegate for one transaction in this many.
    pub delegate_every: u64,
    pub cpus: usize,
    pub wal_flush_interval: SimDuration,
    pub page_flush_interval: SimDuration,
    pub disk_sequential_factor: f64,
    pub seed: u64,
}

struct LoneEngine {
    db: DbEngine,
    cpu: Rc<RefCell<Fcfs>>,
    data_disk: Rc<RefCell<Disk>>,
    log_disk: Rc<RefCell<Disk>>,
}

fn lone_engine(s: &DbStream<'_>) -> LoneEngine {
    let disk = || {
        Rc::new(RefCell::new(Disk::pool(
            DiskConfig {
                sequential_factor: s.disk_sequential_factor,
                ..DiskConfig::default()
            },
            2,
        )))
    };
    let cpu = Rc::new(RefCell::new(Fcfs::new(s.cpus)));
    let (log_disk, data_disk) = (disk(), disk());
    let db = DbEngine::new(
        s.config.clone(),
        cpu.clone(),
        log_disk.clone(),
        data_disk.clone(),
        StdRng::seed_from_u64(s.seed),
    );
    LoneEngine {
        db,
        cpu,
        data_disk,
        log_disk,
    }
}

fn writes_of(ops: &[Operation], version: Version) -> Vec<WriteOp> {
    ops.iter()
        .filter_map(|op| match *op {
            Operation::Write(item, value) => Some(WriteOp {
                item,
                value,
                version,
            }),
            Operation::Read(_) => None,
        })
        .collect()
}

/// Replay one replica's operation stream in simulated-time order — the
/// reads of the transactions it is delegate for, the commit of every
/// update of its group, the periodic WAL flush, page flush and version
/// prune — then time each operation class in a tight loop on the
/// engine the replay left behind.
pub fn db(s: &DbStream<'_>) -> DbIso {
    let versioned = s.config.mvcc_depth > 0;
    let mut e = lone_engine(s);
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0x5eed);
    let gap_ns = (1.0e9 / s.group_tps.max(1.0)) as u64;
    // Sixty simulated seconds of the group's traffic, bounded.
    let plans = ((s.group_tps * 60.0) as u64).clamp(2_000, 200_000);
    let mut version: Version = 0;
    let mut next_wal = s.wal_flush_interval.as_nanos();
    let mut next_page = s.page_flush_interval.as_nanos();
    let mut prune_ns = Vec::new();
    let mut now_ns = 0u64;
    for k in 0..plans {
        now_ns += gap_ns;
        let now = SimTime::from_nanos(now_ns);
        while next_wal <= now_ns {
            e.db.flush_wal(SimTime::from_nanos(next_wal));
            next_wal += s.wal_flush_interval.as_nanos();
        }
        while next_page <= now_ns {
            e.db.flush_pages(SimTime::from_nanos(next_page));
            if versioned {
                let start = Instant::now();
                e.db.prune_versions(version.saturating_sub(4));
                prune_ns.push(start.elapsed().as_nanos() as f64);
            }
            next_page += s.page_flush_interval.as_nanos();
        }
        let plan = s.spec.generate_plan(&mut rng);
        if k % s.delegate_every.max(1) == 0 {
            for op in &plan.ops {
                if let Operation::Read(item) = *op {
                    if plan.snapshot {
                        e.db.read_versioned(now, item, version);
                    } else {
                        e.db.read(now, item);
                    }
                }
            }
        }
        if plan.ops.iter().any(|op| op.is_write()) {
            version += 1;
            let txn = TxnId {
                client: 0,
                seq: version,
            };
            e.db.commit(now, txn, &writes_of(&plan.ops, version));
        }
    }
    let horizon = SimTime::from_nanos(now_ns.max(1));
    let mut out = DbIso {
        cpu_util: e.cpu.borrow().utilisation(horizon),
        data_disk_util: e.data_disk.borrow().utilisation(horizon),
        log_disk_util: e.log_disk.borrow().utilisation(horizon),
        ns_per_prune: (!prune_ns.is_empty()).then(|| stats::median(&prune_ns)),
        prunes: prune_ns.len(),
        ..DbIso::default()
    };

    // Tight loops over pre-drawn inputs, on the warmed engine.
    const N: usize = 200_000;
    let items: Vec<ItemId> = (0..N)
        .map(|_| loop {
            if let Some(op) = s.spec.generate_plan(&mut rng).ops.first() {
                break op.item();
            }
        })
        .collect();
    let start = Instant::now();
    for &item in &items {
        now_ns += 1_000;
        std::hint::black_box(e.db.read(SimTime::from_nanos(now_ns), item));
    }
    out.ns_per_read = start.elapsed().as_nanos() as f64 / N as f64;
    if versioned {
        let limit = version.saturating_sub(2);
        let start = Instant::now();
        for &item in &items {
            now_ns += 1_000;
            std::hint::black_box(e.db.read_versioned(SimTime::from_nanos(now_ns), item, limit));
        }
        out.ns_per_versioned_read = Some(start.elapsed().as_nanos() as f64 / N as f64);
    }
    let commits: Vec<Vec<WriteOp>> = (0..N / 4)
        .map(|i| loop {
            let w = writes_of(&s.spec.generate_plan(&mut rng).ops, version + 1 + i as u64);
            if !w.is_empty() {
                break w;
            }
        })
        .collect();
    let start = Instant::now();
    for (i, writes) in commits.iter().enumerate() {
        now_ns += 1_000;
        let txn = TxnId {
            client: 1,
            seq: i as u64,
        };
        std::hint::black_box(e.db.commit(SimTime::from_nanos(now_ns), txn, writes));
        if i % 64 == 63 {
            e.db.flush_wal(SimTime::from_nanos(now_ns));
        }
    }
    out.ns_per_commit = start.elapsed().as_nanos() as f64 / commits.len() as f64;
    out
}

// ---------------------------------------------------------------------
// core: certification; workload: plan generation
// ---------------------------------------------------------------------

/// Wall ns per certification at the workload's set sizes: read-set
/// certification for classic transactions, write-set (first-committer-
/// wins) certification for snapshot transactions, in the workload's mix.
pub fn certify_ns(s: &DbStream<'_>) -> Option<f64> {
    let e = lone_engine(s);
    let spec = s.spec;
    let mut rng = StdRng::seed_from_u64(s.seed);
    enum Sets {
        Classic(Vec<(ItemId, Version)>),
        Snapshot(Vec<(ItemId, Value)>),
    }
    let sets: Vec<Sets> = (0..50_000)
        .map(|_| spec.generate_plan(&mut rng))
        .filter(|p| p.ops.iter().any(|op| op.is_write()))
        .map(|p| {
            if p.snapshot {
                Sets::Snapshot(
                    p.ops
                        .iter()
                        .filter_map(|op| match *op {
                            Operation::Write(item, v) => Some((item, v)),
                            Operation::Read(_) => None,
                        })
                        .collect(),
                )
            } else {
                Sets::Classic(
                    p.ops
                        .iter()
                        .filter(|op| !op.is_write())
                        .map(|op| (op.item(), 0))
                        .collect(),
                )
            }
        })
        .collect();
    if sets.is_empty() {
        return None;
    }
    let start = Instant::now();
    for set in &sets {
        match set {
            Sets::Classic(readset) => std::hint::black_box(certify(&e.db, readset)),
            Sets::Snapshot(writes) => std::hint::black_box(certify_snapshot(&e.db, 0, writes)),
        };
    }
    Some(start.elapsed().as_nanos() as f64 / sets.len() as f64)
}

/// Wall ns per `WorkloadSpec::generate_plan`, and the mean operations
/// per generated transaction.
pub fn plan_ns(spec: &WorkloadSpec, seed: u64) -> (f64, f64) {
    const N: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = 0usize;
    let start = Instant::now();
    for _ in 0..N {
        ops += std::hint::black_box(spec.generate_plan(&mut rng)).ops.len();
    }
    (
        start.elapsed().as_nanos() as f64 / N as f64,
        ops as f64 / N as f64,
    )
}
