//! The replicated database server: one actor per node, embedding the
//! group communication endpoint and the local database engine.
//!
//! Two techniques are implemented:
//!
//! * **Database state machine** (update-everywhere, non-voting, single
//!   network interaction — the paper's Fig. 2/Fig. 8): the delegate
//!   executes the read phase locally, atomically broadcasts the
//!   transaction's read and write sets, and every replica certifies and
//!   applies deliveries deterministically in delivery order. The *reply
//!   point* — where the client learns of the commit — is fixed by the
//!   configured [`SafetyLevel`]:
//!     - `ZeroSafe`: reply at (non-uniform) delivery, nothing logged;
//!     - `GroupSafe` (Fig. 8): reply at uniform delivery + certification,
//!       all disk writes asynchronous;
//!     - `GroupOneSafe` (Fig. 2): reply after the delegate's synchronous
//!       log flush;
//!     - `TwoSafe`: end-to-end atomic broadcast; reply after the
//!       delegate's flush, `ack(m)` sent once the transaction is logged.
//! * **Lazy (1-safe) replication**: full local execution under strict
//!   2PL, synchronous local log flush, reply, then asynchronous
//!   propagation of write sets applied at the other replicas under the
//!   Thomas write rule, with no conflict handling — the paper's baseline.
//!
//! In a sharded system ([`crate::shard`]) each server belongs to one
//! replica group and its group communication spans only that group.
//! Single-group transactions follow the paths above unchanged. A
//! transaction spanning groups commits through an ordered two-phase
//! protocol layered on the per-group broadcasts:
//!
//! 1. the coordinator (the delegate in the group of the transaction's
//!    first key) executes the read phase for its own slice and ships the
//!    remote slices to one *gateway* server per touched group
//!    ([`XgSubRequest`]),
//! 2. every touched group atomically broadcasts an
//!    [`XgPrepare`]; at its (uniform) delivery all
//!    replicas of the group certify the slice identically, reserve its
//!    items, and the broadcasting delegate votes to the coordinator,
//! 3. the coordinator collects one vote per group and broadcasts the
//!    [`XgDecision`] — in its own group directly
//!    (the ordered decision broadcast), to the other groups via their
//!    gateways; at the decision's delivery each group releases the
//!    reservations and applies (or discards) its slice, with the
//!    per-level reply point ([`SafetyLevel`]) enforced in the
//!    coordinator's group exactly as for single-group commits.
//!
//! Reservations make the window between vote and decision safe: any
//! other transaction touching a reserved item is deterministically
//! aborted at certification (no waiting, hence no distributed
//! deadlock). Participants probe the coordinator's group for lost
//! decisions ([`XgStatusQuery`]), so a crashed
//! gateway or a dropped forward cannot leave a group reserved forever.

#![expect(
    clippy::indexing_slicing,
    reason = "ops[exec.idx] is guarded by the execution state machine (idx < ops.len() checked at each step advance)"
)]

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use groupsafe_db::{
    DbCheckpoint, DbConfig, DbEngine, ItemId, LockMode, LockOutcome, Lsn, Operation, TxnId, Value,
    Version, WriteOp, CPU_PER_OP,
};
use groupsafe_gcs::{BatchConfig, GcsConfig, GcsEndpoint, GcsOutput, Wire};
use groupsafe_net::{Incoming, Network, NodeId, NET_CPU};
use groupsafe_sim::{Actor, Ctx, Disk, Fcfs, Fnv64, ObsEvent, SimDuration, SimTime, Wrap};

use crate::certify::{certify, certify_snapshot, Certification};
use crate::msg::{
    CoreMsg, DsmMsg, GroupMsg, LazyPropagation, LoggedConfirm, ServerEvent, ServerReply,
    TxnRequest, XgDecision, XgDecisionFwd, XgPrepare, XgStatusQuery, XgSubRequest, XgVote,
};
use crate::obs_txn;
use crate::reads::{ReadLevel, ReadPath, ReadReply, ReadRequest, READ_MAX_WAIT};
use crate::safety::SafetyLevel;
use crate::shard::ShardMap;
use crate::verify::{Oracle, ReadRecord, SiOutcome};

/// Which replication technique a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Database state machine at the given safety level
    /// (`ZeroSafe`, `GroupSafe`, `GroupOneSafe` or `TwoSafe`).
    Dsm(SafetyLevel),
    /// Lazy (1-safe) replication.
    Lazy,
}

impl Technique {
    /// The group communication configuration this technique requires
    /// (`None` for lazy replication, which uses plain messages).
    pub fn gcs_config(self) -> Option<GcsConfig> {
        match self {
            Technique::Dsm(SafetyLevel::ZeroSafe) => Some(GcsConfig::view_based_non_uniform()),
            Technique::Dsm(SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe) => {
                Some(GcsConfig::view_based_uniform())
            }
            Technique::Dsm(SafetyLevel::TwoSafe | SafetyLevel::VerySafe) => {
                Some(GcsConfig::end_to_end())
            }
            #[expect(
                clippy::panic,
                reason = "constructor-time exhaustiveness over Technique: SystemBuilder::build rejects Dsm(OneSafe) with BuildError::NoDsmVariant, so reaching it means a new safety level was added without a server implementation — a wiring bug that must abort, not limp"
            )]
            Technique::Dsm(l) => panic!("no DSM variant implements {l}"),
            Technique::Lazy => None,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Dsm(SafetyLevel::ZeroSafe) => "0-safe (dsm)",
            Technique::Dsm(SafetyLevel::GroupSafe) => "group-safe",
            Technique::Dsm(SafetyLevel::GroupOneSafe) => "group-1-safe",
            Technique::Dsm(SafetyLevel::TwoSafe) => "2-safe (e2e)",
            Technique::Dsm(SafetyLevel::VerySafe) => "very-safe",
            Technique::Dsm(_) => "dsm",
            Technique::Lazy => "lazy (1-safe)",
        }
    }
}

/// Disks per server (Table 4: 2), pooled; log and data traffic share
/// them ("all three techniques used the same logging setting, so they
/// share the same throughput limits").
pub const DISKS_PER_SERVER: usize = 2;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Replication technique.
    pub technique: Technique,
    /// Local database configuration.
    pub db: DbConfig,
    /// Number of CPUs (Table 4: 2).
    pub cpus: usize,
    /// Background WAL flush period (async durability).
    pub wal_flush_interval: SimDuration,
    /// Background data-page flush period (write caching).
    pub page_flush_interval: SimDuration,
    /// Lazy propagation batching period.
    pub lazy_prop_interval: SimDuration,
    /// Sequential-batch discount of the disk pool (fraction of a full
    /// access charged per extra page; 1.0 disables write caching — the
    /// §5.1 ablation).
    pub disk_sequential_factor: f64,
    /// Batching knobs of the atomic-broadcast pipeline (applied to
    /// whatever [`GcsConfig`] the technique selects; ignored by
    /// [`Technique::Lazy`], which uses no group communication).
    pub batch: BatchConfig,
    /// How read-only transactions travel (classic pipeline, broadcast,
    /// or the local follower-read path — see [`crate::reads`]).
    pub reads: ReadPath,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            technique: Technique::Dsm(SafetyLevel::GroupSafe),
            db: DbConfig::default(),
            cpus: 2,
            wal_flush_interval: SimDuration::from_millis(20),
            page_flush_interval: SimDuration::from_millis(100),
            lazy_prop_interval: SimDuration::from_millis(20),
            disk_sequential_factor: 0.3,
            batch: BatchConfig::unbatched(),
            reads: ReadPath::Classic,
        }
    }
}

/// Wire type of the replication layer's broadcasts. The payload is
/// `Rc`-shared: a broadcast fanned to the whole group ships one heap
/// allocation whose refcount bumps per receiver instead of a deep clone
/// per receiver (the group log holds another shared reference).
pub type RWire = Wire<Rc<GroupMsg>, DbCheckpoint>;

/// Server-internal timers: two words at most beside the tag, so they
/// travel inline in a [`CoreMsg`]; a reply the timer carries is boxed.
#[derive(Debug, Clone)]
pub enum ServerTimer {
    /// The read phase (or lazy execution) of `txn` completed.
    ExecDone(TxnId),
    /// Periodic background WAL flush.
    WalFlushTick,
    /// A WAL flush covering records below `lsn` hit the disk.
    WalDurable(Lsn),
    /// Periodic background page flush.
    PageFlushTick,
    /// Periodic lazy propagation.
    LazyPropTick,
    /// Send `reply` to `client` now (the reply point was reached).
    Reply {
        /// Destination client.
        client: NodeId,
        /// The reply.
        reply: Box<ServerReply>,
    },
    /// Send a read reply to `client` now (its simulated execution
    /// completed).
    ReadReplyAt {
        /// Destination client.
        client: NodeId,
        /// The reply.
        reply: Box<ReadReply>,
    },
    /// A parked session read's bounded wait expired: redirect unless the
    /// replica caught up meanwhile.
    ReadWaitTimeout {
        /// The parked read.
        txn: TxnId,
        /// The attempt the wait covers (a resubmission cancels it).
        attempt: u32,
    },
    /// A parked snapshot transaction's bounded wait expired: execute at
    /// the snapshot the replica has (snapshot isolation stays correct at
    /// any snapshot — only read-your-writes freshness is best-effort).
    TxnWaitTimeout {
        /// The parked transaction.
        txn: TxnId,
        /// The attempt the wait covers (a resubmission cancels it).
        attempt: u32,
    },
    /// Send a cross-group certification vote to the coordinator now (the
    /// slice's delivery point was reached).
    XgVoteAt {
        /// The coordinator to vote to.
        to: NodeId,
        /// The vote.
        vote: Box<XgVote>,
    },
    /// A group delivered a cross-group prepare but no decision yet: probe
    /// the coordinator's group for it (rotating through its members).
    XgProbe {
        /// The undecided transaction.
        txn: TxnId,
        /// Probe attempts so far (rotates the target).
        tries: u32,
    },
    /// A coordinated round has collected no full vote set within the
    /// round timeout: presume abort, so the touched groups' reservations
    /// are released instead of dangling behind a lost vote.
    XgRoundTimeout {
        /// The stalled transaction.
        txn: TxnId,
        /// The attempt the timeout covers (a newer round cancels it).
        attempt: u32,
    },
}

impl ServerTimer {
    /// The timer's kind, for an engine census.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerTimer::ExecDone(_) => "server.timer.exec-done",
            ServerTimer::WalFlushTick => "server.timer.wal-flush",
            ServerTimer::WalDurable(_) => "server.timer.wal-durable",
            ServerTimer::PageFlushTick => "server.timer.page-flush",
            ServerTimer::LazyPropTick => "server.timer.lazy-prop",
            ServerTimer::Reply { .. } => "server.timer.reply",
            ServerTimer::ReadReplyAt { .. } => "server.timer.read-reply",
            ServerTimer::ReadWaitTimeout { .. } => "server.timer.read-wait-timeout",
            ServerTimer::TxnWaitTimeout { .. } => "server.timer.txn-wait-timeout",
            ServerTimer::XgVoteAt { .. } => "server.timer.xg-vote",
            ServerTimer::XgProbe { .. } => "server.timer.xg-probe",
            ServerTimer::XgRoundTimeout { .. } => "server.timer.xg-round-timeout",
        }
    }
}

/// How long a prepare's delegate waits for the decision before probing
/// the coordinator's group for it.
const XG_PROBE_DELAY: SimDuration = SimDuration::from_millis(300);

/// How long a coordinator waits for the full vote set before presuming
/// abort (releasing every touched group's reservations; the client
/// retries). Covers votes lost to gateway crashes and groups that are
/// partitioned or down.
const XG_ROUND_TIMEOUT: SimDuration = SimDuration::from_millis(600);

/// Driver command after a *total* group failure in the dynamic model: all
/// processes restart as a brand-new group (the GC history is gone), with
/// sequence numbers continuing above `seq_base` (see
/// [`ServerEvent::Restart`]).
#[derive(Debug, Clone)]
pub struct RestartServerCmd {
    /// Members of the fresh group.
    pub members: Vec<NodeId>,
    /// Highest sequence number reflected in any recovered state.
    pub seq_base: u64,
}

/// What an in-flight local execution is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecKind {
    /// An ordinary (single-group) transaction.
    Local,
    /// The coordinator's own slice of a cross-group transaction.
    XgHome,
    /// A remote slice executed on behalf of `coordinator` (this server is
    /// the slice's gateway).
    XgSub {
        /// The coordinator awaiting this group's vote.
        coordinator: NodeId,
    },
}

/// An in-flight local execution (read phase or lazy 2PL execution).
struct Exec {
    req: TxnRequest,
    kind: ExecKind,
    idx: usize,
    cursor: SimTime,
    readset: Vec<(ItemId, Version)>,
    writes: Vec<(ItemId, Value)>,
    /// The delivery sequence number a snapshot-isolation read phase is
    /// pinned to (`None` = classic read-set-certified execution).
    snapshot: Option<u64>,
    /// Set when the multi-version store could no longer serve the
    /// pinned snapshot (the depth cap evicted its floor): the
    /// transaction is doomed to a delegate-side abort — a snapshot read
    /// must never observe a version above its snapshot.
    snapshot_too_old: bool,
}

impl Exec {
    /// The execution of `req` from `cursor`, before its first operation.
    fn new(req: TxnRequest, kind: ExecKind, cursor: SimTime, snapshot: Option<u64>) -> Self {
        Exec {
            req,
            kind,
            idx: 0,
            cursor,
            readset: Vec::new(),
            writes: Vec::new(),
            snapshot,
            snapshot_too_old: false,
        }
    }
}

/// Coordinator-side bookkeeping for one cross-group transaction between
/// its sub-request fan-out and its decision broadcast.
struct XgCoord {
    client: NodeId,
    attempt: u32,
    /// Touched groups, ascending.
    groups: Vec<u32>,
    /// Per-group operation slices, aligned with `groups`.
    slices: Vec<Vec<Operation>>,
    /// Votes received so far (group → certified).
    votes: std::collections::BTreeMap<u32, bool>,
}

/// What certification at delivery decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No conflict: commit.
    Commit,
    /// A certified item is stale: abort.
    Stale,
    /// An in-flight cross-group transaction reserved an item: abort.
    Reserved,
}

/// The replicated database server actor.
pub struct ReplicaServer {
    node: NodeId,
    cfg: ReplicaConfig,
    /// The technique currently in force (starts as `cfg.technique`; the
    /// safety level may be switched at runtime between group-safe and
    /// group-1-safe, §5.2).
    technique: Technique,
    net: Network,
    cpu: Rc<RefCell<Fcfs>>,
    /// The disk pool: the log, the data pages and the group
    /// communication endpoint's stable storage share it.
    disks: Rc<RefCell<Disk>>,
    gcs: Option<GcsEndpoint<Rc<GroupMsg>, DbCheckpoint>>,
    db: DbEngine,
    oracle: Rc<RefCell<Oracle>>,
    /// Members of this server's replica group (its abcast spans exactly
    /// these; the whole system in the unsharded case).
    n_servers: u32,
    /// The key → group router (single-group in the unsharded case).
    shard: Rc<ShardMap>,
    /// This server's group.
    group: u32,
    /// First node id of this server's group (`group * n_servers`).
    group_base: u32,

    // Volatile.
    execs: std::collections::BTreeMap<TxnId, Exec>,
    /// Last GCS sequence number applied to the database.
    applied_seq: u64,
    /// Delivered transactions are processed in delivery order: this is
    /// when the apply pipeline frees up (the next delivery's processing
    /// starts no earlier).
    apply_cursor: SimTime,
    /// An instant of the WAL flush grid: the init or recovery instant.
    /// A flush tick fires only at `wal_grid + k × wal_flush_interval`.
    wal_grid: SimTime,
    /// The instant of the queued `WalFlushTick`, while it is still due:
    /// it is armed when the first record enters an empty buffer, never
    /// to find nothing to flush.
    wal_due: Option<SimTime>,
    /// (record lsn, gcs seq) pairs awaiting durability before `ack(m)`
    /// (2-safe and very-safe).
    pending_acks: Vec<(Lsn, u64)>,
    /// (record lsn, txn, delegate) triples awaiting durability before a
    /// very-safe confirmation is sent to the delegate.
    pending_confirms: Vec<(Lsn, TxnId, NodeId)>,
    /// Delegate side of very-safe commits: per transaction, the client to
    /// answer, the attempt, the delivery sequence number, and the
    /// replicas that confirmed logging.
    very_waiting:
        std::collections::BTreeMap<TxnId, (NodeId, u32, u64, std::collections::BTreeSet<NodeId>)>,
    /// Confirmations that arrived before this delegate's own delivery
    /// opened the waiting entry (its local GC persist can lag behind a
    /// fast peer's whole flush-and-confirm path).
    very_early: std::collections::BTreeMap<TxnId, std::collections::BTreeSet<NodeId>>,
    /// Write sets awaiting lazy propagation.
    lazy_buffer: Vec<(TxnId, Vec<WriteOp>)>,
    /// Coordinator bookkeeping for in-flight cross-group transactions.
    xg_coord: std::collections::BTreeMap<TxnId, XgCoord>,
    /// Decisions this replica has delivered, kept as delivered (a
    /// [`GroupMsg::XgDecision`]) to answer participants' status probes
    /// and to suppress duplicate rebroadcasts.
    xg_decided: std::collections::BTreeMap<TxnId, Rc<GroupMsg>>,
    /// (coordinator, attempt) per undecided prepare this replica
    /// delivered (probe-target bookkeeping). An entry leaves only when a
    /// decision of the *same or a later* attempt arrives — a stale
    /// abort surfacing after a retry's prepare must not silence the
    /// probes still owed that retry's decision.
    xg_pending: std::collections::BTreeMap<TxnId, (NodeId, u32)>,
    /// Highest decision attempt this replica already rebroadcast into
    /// its group, and when (storm brake: while the broadcast drains
    /// through the delivery pipeline, further probe answers for the same
    /// decision must not queue it again — but a forward that never
    /// resulted in a delivery, e.g. lost in a loss burst, may be retried
    /// after a cool-down).
    xg_forwarded: std::collections::BTreeMap<TxnId, (u32, SimTime)>,
    /// Last version this delegate assigned (lazy technique): versions must
    /// be unique per node or the Thomas write rule diverges on ties.
    last_lazy_version: Version,
    /// Session reads parked until the applied state reaches their token
    /// (bounded by [`READ_MAX_WAIT`], then redirected).
    parked_reads: std::collections::BTreeMap<TxnId, ReadRequest>,
    /// Snapshot transactions parked until the applied state reaches
    /// their session token (bounded by [`READ_MAX_WAIT`],
    /// then executed at whatever snapshot the replica has).
    parked_txns: std::collections::BTreeMap<TxnId, TxnRequest>,
    /// The sequence number the replica's *recovered* state corresponds
    /// to: `applied_seq` restarts at 0 after a crash while the redone
    /// WAL prefix (or an installed checkpoint) already reflects newer
    /// versions — reads must serve at the max of both, or a read served
    /// right after recovery would claim a snapshot older than the
    /// values it returns.
    state_floor: u64,

    // Audit metadata for the scenario oracle (not replica state: it
    // survives crashes and is never part of any digest or checkpoint).
    /// Crashes this server suffered during the run.
    crashes: u32,
    /// Checkpoints installed from peers (join/rejoin state transfers).
    transfers: u32,
    /// FNV-1a hash over the delivery decisions `(seq, txn, verdict)` this
    /// replica processed, in processing order — the total-order witness
    /// the oracle compares across replicas that never crashed.
    order_digest: Fnv64,
    /// FNV-1a hash over the certification verdicts
    /// `(seq, txn, verdict, snapshot)` this replica reached for ordinary
    /// transaction deliveries, in processing order — the
    /// certification-determinism witness the oracle compares across
    /// replicas that never crashed (deterministic certification is the
    /// defining property of the non-voting technique, so any divergence
    /// here is a protocol bug even before states drift).
    cert_digest: Fnv64,
    /// Test support (negative controls): force every certification this
    /// replica reaches to `Commit`, corrupting its verdicts relative to
    /// its peers. Never set outside audit-control tests.
    force_commit_cert: bool,
}

impl ReplicaServer {
    /// Build a server for `node` in a group of `n_servers` replicas.
    ///
    /// In the unsharded system (`shard` is single-group) `n_servers` is
    /// the whole system; in a sharded one it is the group size and
    /// `node / n_servers` names the server's group.
    pub fn new(
        node: NodeId,
        n_servers: u32,
        cfg: ReplicaConfig,
        net: Network,
        oracle: Rc<RefCell<Oracle>>,
        seed: u64,
        shard: Rc<ShardMap>,
    ) -> Self {
        let cpu = Rc::new(RefCell::new(Fcfs::new(cfg.cpus)));
        let disks = Rc::new(RefCell::new(Disk::pool(
            groupsafe_sim::DiskConfig {
                sequential_factor: cfg.disk_sequential_factor,
                ..groupsafe_sim::DiskConfig::default()
            },
            DISKS_PER_SERVER,
        )));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0000_0000 ^ node.0 as u64);
        let group_id = node.0 / n_servers.max(1);
        let group_base = group_id * n_servers;
        let group: Vec<NodeId> = (group_base..group_base + n_servers).map(NodeId).collect();
        let gcs = cfg.technique.gcs_config().map(|gcfg| {
            GcsEndpoint::new(
                gcfg.with_batching(cfg.batch),
                node,
                group,
                net.clone(),
                Some(disks.clone()),
                StdRng::seed_from_u64(rng.random()),
            )
        });
        let db = DbEngine::new(
            cfg.db.clone(),
            cpu.clone(),
            disks.clone(),
            disks.clone(),
            StdRng::seed_from_u64(rng.random()),
        );
        ReplicaServer {
            node,
            technique: cfg.technique,
            cfg,
            net,
            cpu,
            disks,
            gcs,
            db,
            oracle,
            n_servers,
            shard,
            group: group_id,
            group_base,
            execs: std::collections::BTreeMap::new(),
            applied_seq: 0,
            apply_cursor: SimTime::ZERO,
            wal_grid: SimTime::ZERO,
            wal_due: None,
            pending_acks: Vec::new(),
            pending_confirms: Vec::new(),
            very_waiting: std::collections::BTreeMap::new(),
            very_early: std::collections::BTreeMap::new(),
            lazy_buffer: Vec::new(),
            xg_coord: std::collections::BTreeMap::new(),
            xg_decided: std::collections::BTreeMap::new(),
            xg_pending: std::collections::BTreeMap::new(),
            xg_forwarded: std::collections::BTreeMap::new(),
            last_lazy_version: 0,
            parked_reads: std::collections::BTreeMap::new(),
            parked_txns: std::collections::BTreeMap::new(),
            state_floor: 0,
            crashes: 0,
            transfers: 0,
            order_digest: Fnv64::new(),
            cert_digest: Fnv64::new(),
            force_commit_cert: false,
        }
    }

    /// The local database engine (verification access).
    pub fn db(&self) -> &DbEngine {
        &self.db
    }

    /// Share `group`'s WAL store ([`DbEngine::join_wal`]): the system
    /// joins the replicas of one group before they run.
    pub(crate) fn join_wal(&mut self, group: &ReplicaServer) {
        self.db.join_wal(&group.db);
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The group communication endpoint, if the technique uses one.
    pub fn gcs(&self) -> Option<&GcsEndpoint<Rc<GroupMsg>, DbCheckpoint>> {
        self.gcs.as_ref()
    }

    /// This server's replica group.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// This server's rank within its group.
    fn rank(&self) -> u32 {
        self.node.0 - self.group_base
    }

    /// The gateway this server uses in group `g`: the peer of its own
    /// rank, so a client failover to another coordinator also rotates the
    /// gateways (groups are homogeneous in size).
    fn gateway(&self, g: u32) -> NodeId {
        NodeId(g * self.n_servers + self.rank() % self.n_servers)
    }

    /// The group a peer server belongs to.
    fn group_of_server(&self, node: NodeId) -> u32 {
        node.0 / self.n_servers.max(1)
    }

    /// The technique currently in force.
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// Crashes this server suffered during the run (audit metadata).
    pub fn crash_count(&self) -> u32 {
        self.crashes
    }

    /// Peer checkpoints installed via state transfer (audit metadata).
    pub fn transfer_count(&self) -> u32 {
        self.transfers
    }

    /// FNV-1a hash of the delivery decisions processed so far, in order.
    /// Replicas that never crashed and never state-transferred must agree
    /// on it once the run quiesces (uniform total order).
    pub fn order_digest(&self) -> u64 {
        self.order_digest.finish()
    }

    /// FNV-1a hash of the certification verdicts reached so far, in
    /// order (classic and snapshot-isolation transaction deliveries).
    /// Replicas that never crashed and never state-transferred must
    /// agree on it once the run quiesces: certification is a
    /// deterministic function of (delivery order, message), so disagreeing
    /// verdicts are a protocol bug even while the states still match.
    pub fn cert_digest(&self) -> u64 {
        self.cert_digest.finish()
    }

    /// Test support: mutable access to the local database, so the
    /// oracle's negative controls can seed a state divergence that no
    /// correct run produces and assert `audit_scenario` reports it
    /// (`OracleViolation::Divergence`). Not part of the replica's
    /// protocol surface.
    #[doc(hidden)]
    pub fn db_mut_for_audit_controls(&mut self) -> &mut DbEngine {
        &mut self.db
    }

    /// Test support: perturb the delivery-order digest, seeding the
    /// order divergence a correct total order can never produce, so the
    /// negative controls can assert `audit_scenario` reports it
    /// (`OracleViolation::OrderDivergence`).
    #[doc(hidden)]
    pub fn poison_order_digest_for_audit_controls(&mut self, salt: u64) {
        self.order_digest.mix(salt);
    }

    /// Test support: perturb the certification digest, seeding the
    /// verdict divergence deterministic certification can never produce,
    /// so the negative controls can assert `audit_scenario` reports it
    /// (`OracleViolation::CertificationDivergence`).
    #[doc(hidden)]
    pub fn poison_cert_digest_for_audit_controls(&mut self, salt: u64) {
        self.cert_digest.mix(salt);
    }

    /// Test support: make this replica certify every delivery `Commit`
    /// from now on — the corruption hook the isolation-matrix negative
    /// controls use to demonstrate the oracle catches a replica whose
    /// certification disagrees with its peers.
    #[doc(hidden)]
    pub fn force_commit_certification_for_audit_controls(&mut self) {
        self.force_commit_cert = true;
    }

    /// Cross-group prepares delivered here whose decision has not
    /// arrived yet (the transactions this replica is still probing for).
    /// Scenario drivers treat a non-zero count as "not yet quiesced".
    pub fn xg_unresolved(&self) -> usize {
        self.xg_pending.len()
    }

    /// Scale this server's disk service times (1.0 = nominal). Applies to
    /// the disk pool the server and its GC endpoint share.
    pub fn set_disk_slowdown(&mut self, factor: f64) {
        self.disks.borrow_mut().set_slowdown(factor);
    }

    #[deny(clippy::float_arithmetic)]
    fn mix_order(&mut self, seq: u64, txn: TxnId, committed: bool) {
        for v in [
            seq,
            txn.client as u64,
            txn.seq,
            if committed { 0xC0 } else { 0xAB },
        ] {
            self.order_digest.mix(v);
        }
    }

    #[deny(clippy::float_arithmetic)]
    fn mix_cert(&mut self, seq: u64, txn: TxnId, committed: bool, snapshot: Option<u64>) {
        for v in [
            seq,
            txn.client as u64,
            txn.seq,
            if committed { 0xC0 } else { 0xAB },
            snapshot.unwrap_or(u64::MAX),
        ] {
            self.cert_digest.mix(v);
        }
    }

    fn init(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        if let Some(gcs) = &mut self.gcs {
            gcs.start(ctx);
        }
        self.wal_grid = ctx.now();
        ctx.timer(self.cfg.page_flush_interval, ServerTimer::PageFlushTick);
        if self.technique == Technique::Lazy {
            ctx.timer(self.cfg.lazy_prop_interval, ServerTimer::LazyPropTick);
        }
    }

    /// Switch between group-safe and group-1-safe (§5.2). Only these two
    /// levels share a group communication configuration, so only they can
    /// be swapped live.
    fn switch_safety(&mut self, ctx: &mut Ctx<'_, CoreMsg>, level: SafetyLevel) {
        assert!(
            matches!(level, SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe),
            "runtime switching is defined between group-safe and group-1-safe"
        );
        assert!(
            matches!(
                self.technique,
                Technique::Dsm(SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe)
            ),
            "the server must already run one of the switchable levels"
        );
        self.technique = Technique::Dsm(level);
        ctx.metrics().incr("safety_switches");
    }

    /// Collapse a transaction's write list into its write *set*: one entry
    /// per item, the last write wins. Without this, a transaction writing
    /// the same item twice diverges under the Thomas write rule (the
    /// delegate applies both in order; a remote skips the second, equal-
    /// version write).
    fn dedup_writes(writes: &[(ItemId, Value)]) -> Vec<(ItemId, Value)> {
        let mut out: Vec<(ItemId, Value)> = Vec::with_capacity(writes.len());
        for &(item, value) in writes {
            if let Some(slot) = out.iter_mut().find(|(i, _)| *i == item) {
                slot.1 = value;
            } else {
                out.push((item, value));
            }
        }
        out
    }

    /// Charge one network operation's CPU cost starting at `from`.
    fn charge_net_cpu(&mut self, from: SimTime) -> SimTime {
        self.cpu.borrow_mut().request(from, NET_CPU)
    }

    fn reply_at(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        at: SimTime,
        client: NodeId,
        reply: ServerReply,
    ) {
        let delay = at - ctx.now();
        let reply = Box::new(reply);
        ctx.timer(delay, ServerTimer::Reply { client, reply });
    }

    /// Answer `client` once the network operation this costs is done.
    fn reply_now(&mut self, ctx: &mut Ctx<'_, CoreMsg>, client: NodeId, reply: ServerReply) {
        let at = self.charge_net_cpu(ctx.now());
        self.reply_at(ctx, at, client, reply);
    }

    /// Send `msg` to `to`, charging its network CPU.
    fn send<T: Clone>(&mut self, ctx: &mut Ctx<'_, CoreMsg>, to: NodeId, msg: T)
    where
        CoreMsg: Wrap<Incoming<T>>,
    {
        self.charge_net_cpu(ctx.now());
        self.net.send(ctx, self.node, to, msg);
    }

    /// Release `txn`'s locks and resume every lazy execution the release
    /// granted.
    fn release_locks(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        for (t, _) in self.db.locks().release_all(txn) {
            self.continue_lazy(ctx, t);
        }
    }

    // ------------------------------------------------------------------
    // Request handling (delegate side)
    // ------------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<'_, CoreMsg>, req: TxnRequest) {
        ctx.metrics().incr("server_requests");
        let start = self.charge_net_cpu(ctx.now());
        // A DSM transaction spanning several groups takes the two-phase
        // cross-group path; everything else (single-group, lazy) follows
        // the classic pipeline. (A snapshot flag on a cross-group
        // transaction is ignored: its slices certify classically.)
        if matches!(self.technique, Technique::Dsm(_)) && self.shard.n_groups() > 1 {
            let groups = self.shard.groups_of(&req.ops);
            if groups.len() > 1 {
                self.start_xg(ctx, req, groups, start);
                return;
            }
        }
        // A snapshot transaction behind its session token waits (bounded)
        // for the applied state to catch up, so its snapshot observes the
        // session's own prior commits. Past the bound it executes at the
        // snapshot the replica has — snapshot isolation is correct at any
        // snapshot; only read-your-writes freshness is best-effort.
        if matches!(self.technique, Technique::Dsm(_))
            && req.snapshot
            && self.state_seq() < req.token
        {
            ctx.metrics().incr("txn_parked");
            let attempt = req.attempt;
            let txn = req.id;
            self.parked_txns.insert(txn, req);
            ctx.timer(READ_MAX_WAIT, ServerTimer::TxnWaitTimeout { txn, attempt });
            return;
        }
        self.start_local_exec(ctx, req, start);
    }

    /// Begin the local execution of a single-group transaction: pin the
    /// snapshot (snapshot-isolation requests under DSM) and run the
    /// technique's read phase.
    fn start_local_exec(&mut self, ctx: &mut Ctx<'_, CoreMsg>, req: TxnRequest, start: SimTime) {
        let snapshot = match self.technique {
            Technique::Dsm(_) if req.snapshot => Some(self.state_seq()),
            // The lazy baseline has no snapshot store: the flag degrades
            // to classic 2PL execution.
            Technique::Dsm(_) | Technique::Lazy => None,
        };
        let exec = Exec::new(req, ExecKind::Local, start, snapshot);
        let id = exec.req.id;
        self.execs.insert(id, exec);
        ctx.emit(|| ObsEvent::ExecStart { txn: obs_txn(id) });
        match self.technique {
            Technique::Dsm(_) => self.run_dsm_read_phase(ctx, id),
            Technique::Lazy => self.continue_lazy(ctx, id),
        }
    }

    /// Start every parked snapshot transaction the applied state has
    /// caught up to (called after each delivery advances `applied_seq`).
    fn drain_parked_txns(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        if self.parked_txns.is_empty() {
            return;
        }
        let state = self.state_seq();
        let ready: Vec<TxnId> = self
            .parked_txns
            .iter()
            .filter(|(_, r)| r.token <= state)
            .map(|(&t, _)| t)
            .collect();
        for t in ready {
            if let Some(req) = self.parked_txns.remove(&t) {
                let start = ctx.now();
                self.start_local_exec(ctx, req, start);
            }
        }
    }

    /// A parked snapshot transaction's bounded wait expired: execute at
    /// the snapshot this replica has.
    fn on_txn_wait_timeout(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, attempt: u32) {
        let Some(req) = take_parked(&mut self.parked_txns, txn, attempt, |r| r.attempt) else {
            return;
        };
        ctx.metrics().incr("txn_park_timeouts");
        let start = ctx.now();
        self.start_local_exec(ctx, req, start);
    }

    // ------------------------------------------------------------------
    // The local read path (follower reads; see `crate::reads`)
    // ------------------------------------------------------------------

    /// The group-stable watermark this replica's group communication
    /// endpoint exports (its applied head for techniques without one —
    /// degenerate, since the local path is only wired for DSM levels).
    fn stable_watermark(&self) -> u64 {
        self.gcs
            .as_ref()
            .map_or(self.applied_seq, |g| g.stable_watermark())
    }

    /// The delivery sequence number this replica's committed state
    /// corresponds to (the applied head, floored by what recovery
    /// rebuilt — see `state_floor`).
    fn state_seq(&self) -> u64 {
        self.applied_seq.max(self.state_floor)
    }

    /// A read-only transaction arrived on the local read path: serve it
    /// at the requested freshness level, park it (session level, behind
    /// its token) or — never — broadcast it.
    fn on_read_request(&mut self, ctx: &mut Ctx<'_, CoreMsg>, req: ReadRequest) {
        ctx.metrics().incr("read_requests");
        self.charge_net_cpu(ctx.now());
        if req.level == ReadLevel::Session && self.state_seq() < req.token {
            // Behind the session: wait (bounded) for the applied state to
            // catch up instead of serving a stale snapshot.
            ctx.metrics().incr("read_parked");
            let attempt = req.attempt;
            let txn = req.id;
            self.parked_reads.insert(txn, req);
            ctx.timer(READ_MAX_WAIT, ServerTimer::ReadWaitTimeout { txn, attempt });
            return;
        }
        self.serve_read(ctx, req);
    }

    /// Execute a read at its level's snapshot and schedule the reply at
    /// the simulated completion instant.
    fn serve_read(&mut self, ctx: &mut Ctx<'_, CoreMsg>, req: ReadRequest) {
        let now = ctx.now();
        let applied = self.state_seq();
        // The stability evidence this replica holds: the live vote
        // watermark its endpoint exports, floored by the recovered
        // state's horizon. `applied` is deliberately NOT folded in: where
        // delivery outruns stability tracking, stable reads pin *below*
        // the applied head rather than serve unproven state. At the
        // view-based levels it never does (asserted); at 2-safe it does
        // after a majority recovers from its logs, whose votes died with
        // the crash. (The builder rejects non-uniform stable reads.)
        let stable = self.stable_watermark().max(self.state_floor);
        let view_based = matches!(
            self.technique,
            Technique::Dsm(SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe)
        );
        debug_assert!(
            applied <= stable || !view_based,
            "applied {applied} past stable {stable}"
        );
        // The snapshot each level pins: `Stable` never exceeds the
        // stability evidence; `Session`/`Latest` serve the freshest
        // applied state (the session guarantee is a floor, not a pin).
        let (snapshot, limit) = match req.level {
            ReadLevel::Stable => {
                let s = stable.min(applied);
                (s, s)
            }
            ReadLevel::Session | ReadLevel::Latest => (applied, u64::MAX),
        };
        let mut cursor = now;
        let mut values = Vec::with_capacity(req.items.len());
        for &item in &req.items {
            let r = self.db.read_versioned(cursor, item, limit);
            values.push((item, r.value, r.version));
            cursor = r.done;
        }
        ctx.metrics().incr("reads_served");
        {
            let (id, redirected) = (req.id, req.attempt > 0);
            ctx.emit(|| ObsEvent::ReadServe {
                read: obs_txn(id),
                redirected,
            });
        }
        self.oracle.borrow_mut().record_read(
            ReadRecord {
                txn: req.id,
                group: self.group,
                level: req.level,
                token: req.token,
                snapshot_seq: snapshot,
                stable_seq: stable,
                applied_seq: applied,
                at: now,
            },
            &values,
        );
        let reply = ReadReply::Served {
            txn: req.id,
            attempt: req.attempt,
            group: self.group,
            snapshot_seq: snapshot,
            values,
        };
        let delay = cursor - now;
        ctx.timer(
            delay,
            ServerTimer::ReadReplyAt {
                client: req.client,
                reply: Box::new(reply),
            },
        );
    }

    /// Serve every parked session read the applied state has caught up
    /// to (called after each delivery advances `applied_seq`).
    fn drain_parked_reads(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        if self.parked_reads.is_empty() {
            return;
        }
        let state = self.state_seq();
        let ready: Vec<TxnId> = self
            .parked_reads
            .iter()
            .filter(|(_, r)| r.token <= state)
            .map(|(&t, _)| t)
            .collect();
        for t in ready {
            if let Some(req) = self.parked_reads.remove(&t) {
                self.serve_read(ctx, req);
            }
        }
    }

    /// A parked read's bounded wait expired: answer with a redirect so
    /// the client retries at a fresher group member.
    fn on_read_wait_timeout(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, attempt: u32) {
        let Some(req) = take_parked(&mut self.parked_reads, txn, attempt, |r| r.attempt) else {
            return;
        };
        ctx.metrics().incr("read_redirects");
        self.oracle.borrow_mut().record_read_redirect(self.group);
        let at = self.charge_net_cpu(ctx.now());
        let reply = ReadReply::Redirect {
            txn,
            attempt: req.attempt,
            group: self.group,
            applied_seq: self.applied_seq,
        };
        let delay = at - ctx.now();
        ctx.timer(
            delay,
            ServerTimer::ReadReplyAt {
                client: req.client,
                reply: Box::new(reply),
            },
        );
    }

    /// Coordinator entry point of a cross-group transaction: slice the
    /// operations by owning group, execute the home slice's read phase
    /// locally and ship the remote slices to their gateways. A retry of
    /// the same transaction restarts the round (stale votes are filtered
    /// by attempt).
    fn start_xg(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        req: TxnRequest,
        groups: Vec<u32>,
        start: SimTime,
    ) {
        ctx.metrics().incr("xg_coordinated");
        let id = req.id;
        ctx.emit(|| ObsEvent::ExecStart { txn: obs_txn(id) });
        let mut slices: Vec<Vec<Operation>> = vec![Vec::new(); groups.len()];
        for &op in &req.ops {
            let g = self.shard.group_of(op.item());
            #[expect(
                clippy::expect_used,
                reason = "g was taken from the slice map's own groups vector in the enclosing loop"
            )]
            let i = groups.iter().position(|&x| x == g).expect("sliced group");
            slices[i].push(op);
        }
        self.xg_coord.insert(
            req.id,
            XgCoord {
                client: req.client,
                attempt: req.attempt,
                groups: groups.clone(),
                slices: slices.clone(),
                votes: std::collections::BTreeMap::new(),
            },
        );
        // Presume abort if the vote set never completes (a gateway died,
        // a touched group is down): the abort decision releases every
        // reservation this round took, so a stalled round cannot pin its
        // items until the client's next retry happens to conclude.
        ctx.timer(
            XG_ROUND_TIMEOUT,
            ServerTimer::XgRoundTimeout {
                txn: req.id,
                attempt: req.attempt,
            },
        );
        for (i, &g) in groups.iter().enumerate() {
            if g == self.group {
                let slice = TxnRequest {
                    id: req.id,
                    ops: slices[i].clone(),
                    client: req.client,
                    attempt: req.attempt,
                    snapshot: false,
                    token: 0,
                };
                let exec = Exec::new(slice, ExecKind::XgHome, start, None);
                self.execs.insert(req.id, exec);
                self.run_dsm_read_phase(ctx, req.id);
            } else {
                let sub = XgSubRequest {
                    txn: req.id,
                    attempt: req.attempt,
                    coordinator: self.node,
                    client: req.client,
                    ops: slices[i].clone(),
                };
                self.send(ctx, self.gateway(g), sub);
            }
        }
    }

    /// Gateway entry point: execute a remote slice's read phase, then
    /// broadcast its prepare in this group.
    fn on_xg_sub(&mut self, ctx: &mut Ctx<'_, CoreMsg>, sub: XgSubRequest) {
        ctx.metrics().incr("xg_sub_requests");
        let start = self.charge_net_cpu(ctx.now());
        let slice = TxnRequest {
            id: sub.txn,
            ops: sub.ops,
            client: sub.client,
            attempt: sub.attempt,
            snapshot: false,
            token: 0,
        };
        let kind = ExecKind::XgSub {
            coordinator: sub.coordinator,
        };
        let exec = Exec::new(slice, kind, start, None);
        self.execs.insert(sub.txn, exec);
        self.run_dsm_read_phase(ctx, sub.txn);
    }

    /// DSM read phase: no locks; reads observe committed versions, writes
    /// are buffered. The whole chain is computed analytically and the
    /// completion scheduled as one event.
    fn run_dsm_read_phase(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        #[expect(
            clippy::expect_used,
            reason = "the execution record is created before the first disk/lock continuation that can resume it and removed only by the resume itself"
        )]
        let mut exec = self.execs.remove(&txn).expect("exec exists");
        while exec.idx < exec.req.ops.len() {
            match (exec.req.ops[exec.idx], exec.snapshot) {
                (Operation::Read(item), None) => {
                    let r = self.db.read(exec.cursor, item);
                    exec.readset.push((item, r.version));
                    exec.cursor = r.done;
                }
                (Operation::Write(item, value), None) => {
                    let done = self.cpu.borrow_mut().request(exec.cursor, CPU_PER_OP);
                    // Updates overwrite the current version: record it so
                    // certification catches write-write conflicts (and the
                    // oracle can recognise lost updates). The version is
                    // catalogue metadata — no disk access.
                    exec.readset.push((item, self.db.item(item).version));
                    exec.writes.push((item, value));
                    exec.cursor = done;
                }
                (Operation::Read(item), Some(snap)) => {
                    // Snapshot read: this transaction's own buffered write
                    // wins (read-your-own-writes); otherwise the
                    // multi-version store serves the snapshot. Reads enter
                    // the readset for the oracle's dirty-read audit but
                    // never conflict at certification.
                    if exec.writes.iter().any(|&(i, _)| i == item) {
                        exec.cursor = self.cpu.borrow_mut().request(exec.cursor, CPU_PER_OP);
                    } else {
                        let r = self.db.read_versioned(exec.cursor, item, snap);
                        exec.cursor = r.done;
                        if r.version > snap {
                            // The depth cap evicted the snapshot's floor
                            // and the store served its bounded-staleness
                            // fallback — a version a snapshot read must
                            // never observe. Doom the transaction to a
                            // delegate-side abort; the retry pins a
                            // fresh snapshot.
                            exec.snapshot_too_old = true;
                            break;
                        }
                        exec.readset.push((item, r.version));
                    }
                }
                (Operation::Write(item, value), Some(_)) => {
                    // Snapshot write: buffered client-side semantics — no
                    // readset entry, so a concurrent writer of an item
                    // this transaction merely overwrites no longer aborts
                    // it at read-set certification. First-committer-wins
                    // over the write set happens at delivery instead.
                    let done = self.cpu.borrow_mut().request(exec.cursor, CPU_PER_OP);
                    exec.writes.push((item, value));
                    exec.cursor = done;
                }
            }
            exec.idx += 1;
        }
        let at = exec.cursor;
        self.execs.insert(txn, exec);
        let delay = at - ctx.now();
        ctx.timer(delay, ServerTimer::ExecDone(txn));
    }

    /// Lazy execution: strict 2PL, one op at a time; parks on lock waits.
    fn continue_lazy(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        loop {
            let Some(exec) = self.execs.get(&txn) else {
                return; // aborted meanwhile
            };
            if exec.idx >= exec.req.ops.len() {
                let at = exec.cursor.max(ctx.now());
                let delay = at - ctx.now();
                ctx.timer(delay, ServerTimer::ExecDone(txn));
                return;
            }
            let op = exec.req.ops[exec.idx];
            let mode = if op.is_write() {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            match self.db.locks().acquire(txn, op.item(), mode) {
                LockOutcome::Granted => {
                    #[expect(
                        clippy::expect_used,
                        reason = "continuation of an execution this server scheduled; the record is removed only on completion, which is what schedules no further continuations"
                    )]
                    let exec = self.execs.get_mut(&txn).expect("exists");
                    let from = exec.cursor.max(ctx.now());
                    match op {
                        Operation::Read(item) => {
                            let r = self.db.read(from, item);
                            exec.readset.push((item, r.version));
                            exec.cursor = r.done;
                        }
                        Operation::Write(item, value) => {
                            let done = self.cpu.borrow_mut().request(from, CPU_PER_OP);
                            let version = self.db.item(item).version;
                            exec.readset.push((item, version));
                            exec.writes.push((item, value));
                            exec.cursor = done;
                        }
                    }
                    exec.idx += 1;
                }
                LockOutcome::Waiting => return,
                LockOutcome::Deadlock { victim } => {
                    ctx.metrics().incr("deadlocks");
                    if victim == txn {
                        self.abort_lazy(ctx, txn);
                        return;
                    }
                    self.abort_lazy(ctx, victim);
                    // Retry the acquire now that the victim released.
                }
            }
        }
    }

    /// Abort a lazy transaction (deadlock victim): release its locks,
    /// answer its client, resume whoever the release unblocked.
    fn abort_lazy(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        let Some(exec) = self.execs.remove(&txn) else {
            return;
        };
        ctx.metrics().incr("txn_aborted_deadlock");
        self.oracle.borrow_mut().aborts += 1;
        let reply = ServerReply::Aborted {
            txn,
            attempt: exec.req.attempt,
        };
        self.reply_now(ctx, exec.req.client, reply);
        self.release_locks(ctx, txn);
    }

    fn on_exec_done(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        match self.technique {
            Technique::Dsm(_) => self.dsm_exec_done(ctx, txn),
            Technique::Lazy => self.lazy_exec_done(ctx, txn),
        }
    }

    fn dsm_exec_done(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        let Some(exec) = self.execs.remove(&txn) else {
            return;
        };
        if exec.snapshot_too_old {
            // Snapshot too old: nothing was broadcast, so the group never
            // sees the doomed attempt. Record the served prefix (every
            // entry at or below the snapshot) so per-group accounting
            // counts the abort, and send the client back for a fresh
            // snapshot.
            ctx.metrics().incr("txn_aborted_snapshot_too_old");
            {
                let mut oracle = self.oracle.borrow_mut();
                oracle.aborts += 1;
                let outcome = SiOutcome {
                    txn,
                    group: self.group,
                    snapshot: exec.snapshot.unwrap_or(0),
                    committed: false,
                    commit_seq: 0,
                };
                let writes = exec.writes.iter().map(|&(i, _)| i);
                oracle.record_si_outcome(outcome, &exec.readset, writes);
            }
            let reply = ServerReply::Aborted {
                txn,
                attempt: exec.req.attempt,
            };
            self.reply_now(ctx, exec.req.client, reply);
            return;
        }
        if exec.kind != ExecKind::Local {
            // A cross-group slice: broadcast its prepare in this group
            // (even a read-only slice — certification still orders it).
            let coordinator = match exec.kind {
                ExecKind::XgSub { coordinator } => coordinator,
                // Exhaustive on purpose: a new execution kind must name
                // its coordinator explicitly (Local never reaches this
                // branch; XgHome coordinates itself).
                ExecKind::Local | ExecKind::XgHome => self.node,
            };
            let prepare = XgPrepare {
                txn,
                attempt: exec.req.attempt,
                delegate: self.node,
                coordinator,
                client: exec.req.client,
                group: self.group,
                readset: exec.readset,
                writes: Self::dedup_writes(&exec.writes),
            };
            if exec.kind == ExecKind::XgHome {
                // The coordinator's slice entering the ordered pipeline is
                // the commit phase's start for the whole transaction.
                ctx.emit(|| ObsEvent::BroadcastTxn { txn: obs_txn(txn) });
            }
            ctx.emit(|| ObsEvent::XgPrepare { txn: obs_txn(txn) });
            self.xg_gcs()
                .broadcast(ctx, Rc::new(GroupMsg::XgPrepare(prepare)));
            ctx.metrics().incr("xg_prepares");
            return;
        }
        if !exec.req.is_update() {
            if self.cfg.reads != ReadPath::Broadcast {
                // Read-only: commits locally without interaction (Fig. 2
                // note) — the classic path. (The local read path answers
                // read-only transactions before they ever reach the
                // transaction pipeline; this branch still serves the ones
                // it falls back on, e.g. cross-group read-only.)
                ctx.metrics().incr("txn_readonly");
                let reply = ServerReply::Committed {
                    txn,
                    attempt: exec.req.attempt,
                    commit_seq: 0,
                };
                self.reply_now(ctx, exec.req.client, reply);
                return;
            }
            // Broadcast reads: the read-only transaction's read set goes
            // through the full ordering round and certifies at delivery
            // like an update — strictly serializable reads, the baseline
            // the local read path is benchmarked against.
            ctx.metrics().incr("txn_readonly_broadcast");
        }
        let msg = DsmMsg {
            txn,
            attempt: exec.req.attempt,
            delegate: self.node,
            client: exec.req.client,
            readset: exec.readset,
            writes: Self::dedup_writes(&exec.writes),
            snapshot: exec.snapshot,
        };
        ctx.emit(|| ObsEvent::BroadcastTxn { txn: obs_txn(txn) });
        #[expect(
            clippy::expect_used,
            reason = "DSM delivery callback: the endpoint that produced the delivery is the one being borrowed"
        )]
        let gcs = self.gcs.as_mut().expect("DSM uses group communication");
        gcs.broadcast(ctx, Rc::new(GroupMsg::Txn(msg)));
        ctx.metrics().incr("dsm_broadcasts");
    }

    fn lazy_exec_done(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        let Some(exec) = self.execs.remove(&txn) else {
            return;
        };
        let now = ctx.now();
        let reply = ServerReply::Committed {
            txn,
            attempt: exec.req.attempt,
            commit_seq: 0,
        };
        if exec.writes.is_empty() {
            ctx.metrics().incr("txn_readonly");
            self.reply_now(ctx, exec.req.client, reply);
            self.release_locks(ctx, txn);
            return;
        }
        // Version: origin timestamp (µs) with the node id as tiebreaker —
        // totally ordered across replicas for the Thomas write rule. Two
        // local commits in the same microsecond must not collide (a tie
        // would be applied by this delegate but skipped by the others), so
        // bump the timestamp component monotonically.
        let mut version: Version = (now.as_nanos() / 1_000) << 8 | self.node.0 as u64;
        if version <= self.last_lazy_version {
            version = (((self.last_lazy_version >> 8) + 1) << 8) | self.node.0 as u64;
        }
        self.last_lazy_version = version;
        let writes: Vec<WriteOp> = Self::dedup_writes(&exec.writes)
            .into_iter()
            .map(|(item, value)| WriteOp {
                item,
                value,
                version,
            })
            .collect();
        let res = self.db.commit(now, txn, &writes);
        ctx.metrics().incr("txn_committed");
        self.oracle
            .borrow_mut()
            .record_commit(txn, self.node, &exec.readset, &writes);
        // 1-safe: reply after the local synchronous log flush.
        let reply_at = self.force_log(ctx, res.done);
        self.reply_at(ctx, reply_at, exec.req.client, reply);
        self.lazy_buffer.push((txn, writes));
        self.release_locks(ctx, txn);
    }

    // ------------------------------------------------------------------
    // DSM delivery handling (every replica)
    // ------------------------------------------------------------------

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, CoreMsg>, seq: u64, msg: &Rc<GroupMsg>, span: u32) {
        match &**msg {
            GroupMsg::Txn(m) => self.deliver_txn(ctx, seq, m, span),
            GroupMsg::XgPrepare(p) => self.deliver_xg_prepare(ctx, seq, p, span),
            GroupMsg::XgDecision(d) => self.deliver_xg_decision(ctx, seq, msg, d, span),
        }
    }

    /// The safety level of an ordered delivery.
    fn delivered_level(&self) -> SafetyLevel {
        match self.technique {
            Technique::Dsm(l) => l,
            #[expect(
                clippy::unreachable,
                reason = "only DSM-only delivery paths ask; the lazy technique never registers a GCS endpoint, so no delivery can be routed here (technique is fixed per run segment)"
            )]
            Technique::Lazy => unreachable!("lazy does not deliver"),
        }
    }

    /// The delivery-side CPU charge every ordered message pays: the
    /// ordering traffic's share plus certification over `cert_items`
    /// read-set entries. Returns the instant the verdict is reached.
    fn delivery_cpu(&mut self, now: SimTime, span: u32, cert_items: usize) -> SimTime {
        // CPU cost of the ordering traffic this delivery represents
        // (ordered message + the view's acknowledgements), charged in bulk
        // rather than one event per ack (ARCHITECTURE.md, single-group
        // data flow, step 4). Under the batched
        // pipeline the frame and its aggregated votes are shared by every
        // entry they carry, so each delivery pays its amortised share.
        let acks = self.n_servers as u64;
        self.cpu
            .borrow_mut()
            .request(now, NET_CPU * (acks + 1) / u64::from(span.max(1)));
        // Delivered transactions are processed strictly in delivery order
        // (determinism requires it): processing starts when the pipeline
        // frees up.
        let start = now.max(self.apply_cursor);
        // Certification cost.
        let cert_cpu = CPU_PER_OP * cert_items.max(1) as u64;
        self.cpu.borrow_mut().request(start, cert_cpu)
    }

    /// Certification at delivery, the same deterministic function of
    /// (delivery order, message) at every replica. A transaction that
    /// already committed here passes (testable transactions): a
    /// lost-reply retry must be answered "committed", not re-certified
    /// against state that includes its own writes. Otherwise a
    /// snapshot-isolation delivery certifies first-committer-wins over
    /// its writes against `snapshot`, any other its read set; then an
    /// item reserved by an in-flight cross-group transaction aborts any
    /// other transaction (all replicas share the reservation table at
    /// every delivery point).
    fn certify_delivered(
        &self,
        txn: TxnId,
        snapshot: Option<u64>,
        readset: &[(ItemId, Version)],
        writes: &[(ItemId, Value)],
    ) -> Verdict {
        if self.db.is_committed(txn) {
            return Verdict::Commit;
        }
        // Certification first; the reservation table only for a
        // transaction that passes it.
        let reserved = match snapshot {
            Some(snap) => {
                (certify_snapshot(&self.db, snap, writes) == Certification::Commit).then(|| {
                    self.db
                        .reserved_conflict(txn, writes.iter().map(|&(i, _)| i))
                })
            }
            None => (certify(&self.db, readset) == Certification::Commit).then(|| {
                self.db
                    .reserved_conflict(txn, readset.iter().map(|&(i, _)| i))
            }),
        };
        match reserved {
            None => Verdict::Stale,
            Some(Some(_)) => Verdict::Reserved,
            Some(None) => Verdict::Commit,
        }
    }

    /// Apply a committed delivery's `slice` at version `seq` from `at`,
    /// and complete its processing step by the level's rule. Under
    /// 0-safe and group-safe all disk writes leave the transaction
    /// boundary and the pipeline only pays CPU (Fig. 8). Under the
    /// logging levels commit(t) completes within the step (Fig. 2): the
    /// commit record is forced, serialised in the delivery pipeline,
    /// and the written pages are installed synchronously, concurrent
    /// with later deliveries. A duplicate was processed before. The
    /// next delivery's processing starts once this one's completes.
    ///
    /// Returns the writes, whether the commit was a duplicate, the
    /// instant processing completed and the commit record's LSN.
    fn apply(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        seq: u64,
        txn: TxnId,
        slice: &[(ItemId, Value)],
        at: SimTime,
    ) -> (Vec<WriteOp>, bool, SimTime, Lsn) {
        let writes: Vec<WriteOp> = slice
            .iter()
            .map(|&(item, value)| WriteOp {
                item,
                value,
                version: seq,
            })
            .collect();
        let res = self.db.commit(at, txn, &writes);
        let record_lsn = self.db.wal_end_lsn().saturating_sub(1);
        let processed_at = if self.delivered_level().reply_before_logging() || res.duplicate {
            res.done
        } else {
            let done = self.force_log(ctx, res.done);
            self.db.sync_install(done, slice.len())
        };
        self.apply_cursor = processed_at;
        (writes, res.duplicate, processed_at, record_lsn)
    }

    /// `ack(m)` for the delivery at `seq`, at the levels whose `ack(m)`
    /// waits for logging: once the record at `lsn` is durable, or now
    /// when the delivery logged nothing new.
    fn ack(&mut self, seq: u64, lsn: Option<Lsn>) {
        if !self.delivered_level().acks_after_logging() {
            return;
        }
        match lsn {
            Some(lsn) => self.pending_acks.push((lsn, seq)),
            None => {
                if let Some(gcs) = &mut self.gcs {
                    gcs.app_ack(seq);
                }
            }
        }
    }

    /// Very-safe: tell `delegate` that this replica's copy of `txn` is
    /// logged.
    fn confirm_logged(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, delegate: NodeId) {
        if delegate == self.node {
            self.record_confirm(ctx, txn, self.node);
        } else {
            self.send(ctx, delegate, LoggedConfirm { txn });
        }
    }

    fn deliver_txn(&mut self, ctx: &mut Ctx<'_, CoreMsg>, seq: u64, msg: &DsmMsg, span: u32) {
        let now = ctx.now();
        let cert_items = match msg.snapshot {
            Some(_) => msg.writes.len(),
            None => msg.readset.len(),
        };
        let decided_at = self.delivery_cpu(now, span, cert_items);
        let verdict = if self.force_commit_cert {
            Verdict::Commit
        } else {
            self.certify_delivered(msg.txn, msg.snapshot, &msg.readset, &msg.writes)
        };
        if verdict == Verdict::Reserved {
            ctx.metrics().incr("txn_aborted_reserved");
        }
        let level = self.delivered_level();
        let committed = verdict == Verdict::Commit;
        {
            let txn = msg.txn;
            ctx.emit(|| ObsEvent::Certify {
                txn: obs_txn(txn),
                committed,
            });
        }
        self.mix_order(seq, msg.txn, committed);
        self.mix_cert(seq, msg.txn, committed, msg.snapshot);
        // Delegate-side snapshot-transaction record for the SI oracle
        // (lost-update and dirty-read audits + per-group accounting).
        if let Some(snap) = msg.snapshot {
            if msg.delegate == self.node && !self.db.is_committed(msg.txn) {
                let outcome = SiOutcome {
                    txn: msg.txn,
                    group: self.group,
                    snapshot: snap,
                    committed,
                    commit_seq: if committed { seq } else { 0 },
                };
                let writes = msg.writes.iter().map(|&(i, _)| i);
                self.oracle
                    .borrow_mut()
                    .record_si_outcome(outcome, &msg.readset, writes);
            }
        }
        let is_delegate = msg.delegate == self.node;
        if !committed {
            ctx.metrics().incr("txn_aborted_cert");
            self.apply_cursor = decided_at;
            if is_delegate {
                self.oracle.borrow_mut().aborts += 1;
                let reply = ServerReply::Aborted {
                    txn: msg.txn,
                    attempt: msg.attempt,
                };
                self.reply_at(ctx, decided_at, msg.client, reply);
            }
            // Processing is complete (nothing to log): ack immediately.
            self.ack(seq, None);
            self.applied_seq = seq.max(self.applied_seq);
            return;
        }
        let (writes, duplicate, processed_at, record_lsn) =
            self.apply(ctx, seq, msg.txn, &msg.writes, decided_at);
        if !duplicate {
            let txn = msg.txn;
            ctx.emit(|| ObsEvent::Apply { txn: obs_txn(txn) });
        }
        if !duplicate && !writes.is_empty() {
            // Broadcast read-only transactions leave no commit record:
            // like classic read-only commits they promise no durability,
            // so the loss audit must not demand it.
            ctx.metrics().incr("txn_committed");
            self.oracle
                .borrow_mut()
                .record_commit(msg.txn, msg.delegate, &msg.readset, &writes);
        }
        if level == SafetyLevel::VerySafe && !duplicate {
            // Confirmations flow to the delegate once each record is
            // durable; the delegate answers after all n.
            self.pending_confirms
                .push((record_lsn, msg.txn, msg.delegate));
            ctx.metrics().incr("very_confirm_registered");
            if is_delegate {
                let early = self.very_early.remove(&msg.txn).unwrap_or_default();
                self.very_waiting
                    .insert(msg.txn, (msg.client, msg.attempt, seq, early));
                ctx.metrics().incr("very_waiting_opened");
                self.check_very_complete(ctx, msg.txn);
            }
        } else if level == SafetyLevel::VerySafe {
            // Duplicate delivery of a very-safe transaction — a failover
            // resubmission through a *different* delegate, or a retry
            // after a lost reply. The answer must still wait until the
            // whole group confirms logging (a new delegate holds none of
            // the original confirmations), so the group re-confirms:
            // every replica re-announces durability of its copy once its
            // appended log prefix is on disk.
            if is_delegate {
                let early = self.very_early.remove(&msg.txn).unwrap_or_default();
                let entry = self.very_waiting.entry(msg.txn).or_insert_with(|| {
                    (
                        msg.client,
                        msg.attempt,
                        seq,
                        std::collections::BTreeSet::new(),
                    )
                });
                entry.0 = msg.client;
                entry.1 = msg.attempt;
                entry.2 = seq;
                entry.3.extend(early);
                ctx.metrics().incr("very_waiting_reopened");
            }
            // The original record sits at an unknown earlier LSN; the
            // prefix appended so far covers it.
            let fence = self.db.wal_end_lsn();
            if self.db.wal_durable_lsn() >= fence {
                // Our copy is already durable: confirm at once.
                self.confirm_logged(ctx, msg.txn, msg.delegate);
            } else {
                self.pending_confirms
                    .push((fence.saturating_sub(1), msg.txn, msg.delegate));
            }
            if is_delegate {
                self.check_very_complete(ctx, msg.txn);
            }
        } else if is_delegate {
            let reply = ServerReply::Committed {
                txn: msg.txn,
                attempt: msg.attempt,
                commit_seq: seq,
            };
            self.reply_at(ctx, processed_at, msg.client, reply);
        }
        // ack(m) once the record is durable; a duplicate was logged
        // before.
        self.ack(seq, (!duplicate).then_some(record_lsn));
        self.applied_seq = seq.max(self.applied_seq);
    }

    /// Phase 1 delivery: certify the slice (certification plus the
    /// reservation check), reserve its items on success, and — on the
    /// replica that broadcast it — vote to the coordinator. Uniform
    /// delivery makes the verdict identical on every group member.
    fn deliver_xg_prepare(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        seq: u64,
        p: &XgPrepare,
        span: u32,
    ) {
        let now = ctx.now();
        let decided_at = self.delivery_cpu(now, span, p.readset.len());
        // The verdict depends only on delivery-ordered state that state
        // transfer carries (committed versions + the reservation table),
        // so every group member — including a mid-protocol joiner —
        // reaches the same answer. A retry's prepare racing its own
        // earlier decision is safe: reservations are keyed by
        // transaction and re-released by the retry's decision, and the
        // commit apply is idempotent. A slice already committed here
        // votes yes outright: the retry of a decided-but-unacknowledged
        // commit must converge on "committed".
        let ok = self.certify_delivered(p.txn, None, &p.readset, &[]) == Verdict::Commit;
        self.mix_order(seq, p.txn, ok);
        self.apply_cursor = decided_at;
        let mut reserve_lsn = None;
        if ok {
            ctx.metrics().incr("xg_reserved");
            let items: Vec<ItemId> = p
                .readset
                .iter()
                .map(|&(i, _)| i)
                .chain(p.writes.iter().map(|&(i, _)| i))
                .collect();
            if self.delivered_level().acks_after_logging() {
                // End-to-end abcast: the reservation must survive a
                // crash before `ack(m)` — an acked entry is never
                // redelivered, so an unlogged reservation would silently
                // unwind this replica's certification state while its
                // peers keep theirs. Append the record and ack once the
                // background group-commit flush covers it; nothing else
                // (vote, pipeline) waits on the disk.
                reserve_lsn = Some(self.db.reserve_logged(p.txn, p.coordinator.0, &items));
            } else {
                self.db.reserve(p.txn, p.coordinator.0, items);
            }
        }
        // A rejected prepare changes nothing durable: ack at once.
        self.ack(seq, reserve_lsn);
        if p.delegate == self.node {
            {
                let (txn, group) = (p.txn, self.group);
                ctx.emit(|| ObsEvent::XgVote {
                    txn: obs_txn(txn),
                    group,
                    commit: ok,
                });
            }
            let vote = XgVote {
                txn: p.txn,
                attempt: p.attempt,
                group: self.group,
                commit: ok,
            };
            let delay = decided_at - now;
            ctx.timer(
                delay,
                ServerTimer::XgVoteAt {
                    to: p.coordinator,
                    vote: Box::new(vote),
                },
            );
        }
        // Every member watches for the decision — not just the delegate,
        // whose crash would otherwise orphan the group's reservations
        // when the coordinator's forward raced its death. Probes rotate
        // through the coordinator's group, with each member starting at
        // a different offset.
        let stale = self
            .xg_pending
            .get(&p.txn)
            .is_some_and(|&(_, a)| a > p.attempt);
        if !stale {
            self.xg_pending.insert(p.txn, (p.coordinator, p.attempt));
            ctx.timer(
                (decided_at - now) + XG_PROBE_DELAY,
                ServerTimer::XgProbe {
                    txn: p.txn,
                    tries: self.rank(),
                },
            );
        }
        self.applied_seq = seq.max(self.applied_seq);
    }

    /// Phase 2 delivery: release the transaction's reservations and, on
    /// commit, apply this group's slice with the group's per-level
    /// processing semantics (asynchronous logging for 0-safe/group-safe,
    /// synchronous commit record otherwise). The coordinator's replica
    /// answers the client at the level's reply point.
    fn deliver_xg_decision(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        seq: u64,
        msg: &Rc<GroupMsg>,
        d: &XgDecision,
        span: u32,
    ) {
        let now = ctx.now();
        let slice = d.writes_of(self.group).unwrap_or(&[]);
        let decided_at = self.delivery_cpu(now, span, slice.len());
        {
            let (txn, commit) = (d.txn, d.commit);
            ctx.emit(|| ObsEvent::XgDecision {
                txn: obs_txn(txn),
                commit,
            });
        }
        let held = self.db.holds_reservation(d.txn);
        self.db.release(d.txn);
        if self
            .xg_pending
            .get(&d.txn)
            .is_some_and(|&(_, a)| a <= d.attempt)
        {
            self.xg_pending.remove(&d.txn);
        }
        // Keep the *latest* decision per transaction: a retry's commit
        // must supersede an earlier attempt's abort for probe answers
        // and rebroadcast suppression.
        match self.xg_decided.entry(d.txn) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(msg.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if e.get()
                    .xg_decision()
                    .is_none_or(|kept| d.attempt > kept.attempt)
                {
                    e.insert(msg.clone());
                }
            }
        }
        self.mix_order(seq, d.txn, d.commit);
        let is_coord = d.coordinator == self.node;
        let commit_lsn = if d.commit {
            let (writes, duplicate, processed_at, record_lsn) =
                self.apply(ctx, seq, d.txn, slice, decided_at);
            if !duplicate {
                ctx.metrics().incr("txn_committed");
                ctx.metrics().incr("xg_commits_applied");
                let coord_group = self.group_of_server(d.coordinator);
                let mut oracle = self.oracle.borrow_mut();
                oracle.record_commit_slice(d.txn, d.coordinator, &writes);
                oracle.record_xg(d.txn, d.groups.clone(), coord_group);
            }
            if is_coord {
                let reply = ServerReply::Committed {
                    txn: d.txn,
                    attempt: d.attempt,
                    commit_seq: seq,
                };
                self.reply_at(ctx, processed_at, d.client, reply);
            }
            (!duplicate).then_some(record_lsn)
        } else {
            ctx.metrics().incr("xg_aborts_applied");
            self.apply_cursor = decided_at;
            if is_coord {
                self.oracle.borrow_mut().aborts += 1;
                let reply = ServerReply::Aborted {
                    txn: d.txn,
                    attempt: d.attempt,
                };
                self.reply_at(ctx, decided_at, d.client, reply);
            }
            None
        };
        // A first commit's record releases the reservations at redo.
        // Otherwise only this decision's release is new (an abort, or a
        // duplicate commit releasing a re-prepare's reservation): it must
        // be redo-visible before ack(m), for the same reason the
        // reservation was logged.
        let logging = self.delivered_level().acks_after_logging();
        let lsn = commit_lsn.or_else(|| (logging && held).then(|| self.db.release_logged(d.txn)));
        self.ack(seq, lsn);
        self.applied_seq = seq.max(self.applied_seq);
    }

    /// Re-arm the decision probes for every transaction still holding a
    /// reservation in the (recovered or transferred) database: the
    /// probe timers died with the crash, and without them a decided-
    /// while-down transaction would stay reserved forever.
    fn rearm_xg_probes(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        for (txn, coord) in self.db.reservation_holders() {
            self.xg_pending.insert(txn, (NodeId(coord), 0));
            ctx.timer(
                XG_PROBE_DELAY,
                ServerTimer::XgProbe {
                    txn,
                    tries: self.rank(),
                },
            );
        }
    }

    /// The group-communication endpoint a cross-group round broadcasts on.
    fn xg_gcs(&mut self) -> &mut GcsEndpoint<Rc<GroupMsg>, DbCheckpoint> {
        #[expect(
            clippy::expect_used,
            reason = "cross-group paths are only reachable under DSM techniques, which always construct a GCS endpoint (builder invariant, validated at build time)"
        )]
        self.gcs.as_mut().expect("xg runs on group communication")
    }

    /// Coordinator side: count a group's certification vote; once every
    /// touched group voted, decide and broadcast the decision — directly
    /// in the home group, via the gateways elsewhere.
    fn on_xg_vote(&mut self, ctx: &mut Ctx<'_, CoreMsg>, v: XgVote) {
        let std::collections::btree_map::Entry::Occupied(mut slot) = self.xg_coord.entry(v.txn)
        else {
            return; // decided, superseded or crashed away
        };
        let entry = slot.get_mut();
        if v.attempt != entry.attempt {
            return; // stale vote from an earlier round
        }
        entry.votes.insert(v.group, v.commit);
        if entry.votes.len() < entry.groups.len() {
            return;
        }
        let entry = slot.remove();
        let commit = entry.votes.values().all(|&c| c);
        self.send_xg_decision(ctx, v.txn, entry, commit);
    }

    /// Build and fan out the decision for a completed (or timed-out)
    /// round: an ordered broadcast in the home group, gateway forwards to
    /// the other touched groups.
    fn send_xg_decision(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        txn: TxnId,
        entry: XgCoord,
        commit: bool,
    ) {
        ctx.metrics().incr(if commit {
            "xg_commit_decisions"
        } else {
            "xg_abort_decisions"
        });
        let writes_by_group: Vec<Vec<(ItemId, Value)>> = entry
            .slices
            .iter()
            .map(|ops| {
                let writes: Vec<(ItemId, Value)> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Operation::Write(item, value) => Some((item, value)),
                        Operation::Read(_) => None,
                    })
                    .collect();
                Self::dedup_writes(&writes)
            })
            .collect();
        let d = XgDecision {
            txn,
            attempt: entry.attempt,
            commit,
            coordinator: self.node,
            client: entry.client,
            groups: entry.groups.clone(),
            writes_by_group,
        };
        for &g in &entry.groups {
            if g == self.group {
                self.xg_gcs()
                    .broadcast(ctx, Rc::new(GroupMsg::XgDecision(d.clone())));
            } else {
                self.send(ctx, self.gateway(g), XgDecisionFwd(d.clone()));
            }
        }
    }

    /// A decision reached this replica by unicast (gateway fan-out or a
    /// probe answer): broadcast it in this group unless the group already
    /// delivered it.
    fn on_xg_decision_fwd(&mut self, ctx: &mut Ctx<'_, CoreMsg>, d: XgDecision) {
        self.charge_net_cpu(ctx.now());
        // Suppress decisions this group already delivered at the same
        // (or a later) attempt — a retry's decision supersedes an
        // earlier attempt's and must still go out — and decisions this
        // replica recently queued into the broadcast pipeline (probe
        // answers keep arriving while the delivery backlog drains; a
        // replica re-forwards the same decision only after a cool-down,
        // in case the first broadcast was lost on the wire).
        let now = ctx.now();
        if self
            .xg_decided
            .get(&d.txn)
            .and_then(|seen| seen.xg_decision())
            .is_some_and(|seen| seen.attempt >= d.attempt)
            || self
                .xg_forwarded
                .get(&d.txn)
                .is_some_and(|&(a, at)| a >= d.attempt && now < at + XG_ROUND_TIMEOUT)
        {
            return;
        }
        self.xg_forwarded.insert(d.txn, (d.attempt, now));
        if let Some(gcs) = &mut self.gcs {
            gcs.broadcast(ctx, Rc::new(GroupMsg::XgDecision(d)));
            ctx.metrics().incr("xg_decision_rebroadcasts");
        }
    }

    /// A participant asks whether a transaction was decided; answer with
    /// the stored decision if this replica delivered it.
    fn on_xg_status_query(&mut self, ctx: &mut Ctx<'_, CoreMsg>, from: NodeId, q: XgStatusQuery) {
        self.charge_net_cpu(ctx.now());
        let kept = self.xg_decided.get(&q.txn);
        if let Some(d) = kept.and_then(|msg| msg.xg_decision()) {
            let d = d.clone();
            self.net.send(ctx, self.node, from, XgDecisionFwd(d));
        }
    }

    /// Probe timer: the decision for `txn` has not been delivered here
    /// yet — ask a member of the coordinator's group (rotating, so a
    /// crashed coordinator does not silence the protocol) and re-arm.
    fn on_xg_probe(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, tries: u32) {
        let Some(&(coordinator, _)) = self.xg_pending.get(&txn) else {
            return; // decided meanwhile
        };
        let spg = self.n_servers.max(1);
        let base = (coordinator.0 / spg) * spg;
        let target = NodeId(base + (coordinator.0 - base + tries) % spg);
        self.send(ctx, target, XgStatusQuery { txn });
        ctx.metrics().incr("xg_probes");
        // Mild backoff: a decision that stays missing (its coordinator
        // group is down, or the delivery backlog is deep) is probed less
        // and less often, up to 8× the base period.
        let rounds = (tries / self.n_servers.max(1)).min(7) as u64 + 1;
        ctx.timer(
            XG_PROBE_DELAY * rounds,
            ServerTimer::XgProbe {
                txn,
                tries: tries.wrapping_add(1),
            },
        );
    }

    fn handle_gcs_outputs(
        &mut self,
        ctx: &mut Ctx<'_, CoreMsg>,
        outputs: Vec<GcsOutput<Rc<GroupMsg>, DbCheckpoint>>,
    ) {
        for o in outputs {
            match o {
                GcsOutput::Deliver {
                    seq, payload, span, ..
                } => self.on_deliver(ctx, seq, &payload, span),
                GcsOutput::CheckpointRequest { joiner, generation } => {
                    let ckpt = self.db.checkpoint();
                    let applied = self.applied_seq;
                    if let Some(gcs) = &mut self.gcs {
                        gcs.checkpoint_ready(ctx, joiner, generation, ckpt, applied);
                    }
                }
                GcsOutput::InstallState { state, applied_seq } => {
                    ctx.emit(|| ObsEvent::StateTransfer { applied_seq });
                    self.db.install_checkpoint(state);
                    self.applied_seq = applied_seq;
                    self.state_floor = self.state_floor.max(applied_seq);
                    self.transfers += 1;
                    // The transferred state may carry in-flight
                    // cross-group reservations: resume probing for their
                    // decisions.
                    self.rearm_xg_probes(ctx);
                    ctx.metrics().incr("state_transfers");
                }
                GcsOutput::ViewInstalled { view } => {
                    ctx.metrics().incr("view_changes");
                    ctx.emit(|| ObsEvent::ViewChange { view: view.id });
                }
                GcsOutput::Joined { .. } => {
                    ctx.metrics().incr("rejoins");
                }
                GcsOutput::GroupFailed => {
                    ctx.metrics().incr("group_failed_signals");
                }
            }
        }
        // Deliveries (and state installs) advanced the applied head:
        // parked session reads (and snapshot transactions waiting for a
        // fresh-enough snapshot) may be servable now.
        self.drain_parked_reads(ctx);
        self.drain_parked_txns(ctx);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CoreMsg>, t: ServerTimer) {
        match t {
            ServerTimer::ExecDone(txn) => self.on_exec_done(ctx, txn),
            ServerTimer::WalFlushTick => self.flush_wal_if_due(ctx),
            ServerTimer::WalDurable(lsn) => {
                ctx.emit(|| ObsEvent::WalSync { lsn });
                self.db.wal_mark_durable(lsn);
                // 2-safe/very-safe: transactions whose records are now
                // durable are "processed" — send their ack(m).
                let ready: Vec<u64> = self
                    .pending_acks
                    .iter()
                    .filter(|(l, _)| *l < lsn)
                    .map(|(_, s)| *s)
                    .collect();
                self.pending_acks.retain(|(l, _)| *l >= lsn);
                if let Some(gcs) = &mut self.gcs {
                    for seq in ready {
                        gcs.app_ack(seq);
                    }
                }
                // Very-safe: tell each delegate its record is on our disk.
                let confirms: Vec<(TxnId, NodeId)> = self
                    .pending_confirms
                    .iter()
                    .filter(|(l, _, _)| *l < lsn)
                    .map(|(_, t, d)| (*t, *d))
                    .collect();
                self.pending_confirms.retain(|(l, _, _)| *l >= lsn);
                for (txn, delegate) in confirms {
                    self.confirm_logged(ctx, txn, delegate);
                }
            }
            ServerTimer::PageFlushTick => {
                // A WAL tick at this instant was queued one WAL interval
                // ago when it ran every interval, so it came first when
                // that interval is the longer: it still does.
                if self.cfg.wal_flush_interval >= self.cfg.page_flush_interval {
                    self.flush_wal_if_due(ctx);
                }
                self.db.flush_pages(ctx.now());
                // Multi-version retention is bounded by the group-stable
                // watermark: snapshots below it are unreachable by any
                // read level, so their versions can go.
                self.db
                    .prune_versions(self.stable_watermark().min(self.applied_seq));
                ctx.timer(self.cfg.page_flush_interval, ServerTimer::PageFlushTick);
            }
            ServerTimer::LazyPropTick => {
                if !self.lazy_buffer.is_empty() {
                    let writesets = std::mem::take(&mut self.lazy_buffer);
                    let count = writesets.len() as u32;
                    ctx.emit(|| ObsEvent::LazyPropagate { count });
                    let msg = LazyPropagation { writesets };
                    self.charge_net_cpu(ctx.now());
                    for i in 0..self.n_servers {
                        let peer = NodeId(self.group_base + i);
                        if peer != self.node {
                            self.net.send(ctx, self.node, peer, msg.clone());
                        }
                    }
                    ctx.metrics().incr("lazy_propagations");
                }
                ctx.timer(self.cfg.lazy_prop_interval, ServerTimer::LazyPropTick);
            }
            ServerTimer::Reply { client, reply } => {
                let group = self.group;
                let (txn, committed) = match *reply {
                    ServerReply::Committed { txn, .. } => (txn, true),
                    ServerReply::Aborted { txn, .. } => (txn, false),
                };
                ctx.emit(|| ObsEvent::Reply {
                    txn: obs_txn(txn),
                    group,
                    committed,
                });
                self.send(ctx, client, *reply);
            }
            ServerTimer::ReadReplyAt { client, reply } => self.send(ctx, client, *reply),
            ServerTimer::ReadWaitTimeout { txn, attempt } => {
                self.on_read_wait_timeout(ctx, txn, attempt)
            }
            ServerTimer::TxnWaitTimeout { txn, attempt } => {
                self.on_txn_wait_timeout(ctx, txn, attempt)
            }
            ServerTimer::XgVoteAt { to, vote } => {
                if to == self.node {
                    self.on_xg_vote(ctx, *vote);
                } else {
                    self.send(ctx, to, *vote);
                }
            }
            ServerTimer::XgProbe { txn, tries } => self.on_xg_probe(ctx, txn, tries),
            ServerTimer::XgRoundTimeout { txn, attempt } => {
                if let std::collections::btree_map::Entry::Occupied(slot) = self.xg_coord.entry(txn)
                {
                    if slot.get().attempt == attempt {
                        let entry = slot.remove();
                        ctx.metrics().incr("xg_round_timeouts");
                        self.send_xg_decision(ctx, txn, entry, false);
                    }
                }
            }
        }
    }

    /// Delegate side of very-safe: count a replica's logging confirmation
    /// and answer the client once the whole group confirmed.
    fn record_confirm(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, from: NodeId) {
        ctx.metrics().incr("very_confirms_seen");
        let Some(entry) = self.very_waiting.get_mut(&txn) else {
            // Our own delivery has not opened the entry yet: buffer.
            self.very_early.entry(txn).or_default().insert(from);
            ctx.metrics().incr("very_confirms_early");
            return;
        };
        entry.3.insert(from);
        self.check_very_complete(ctx, txn);
    }

    /// Reply to the client once every group member confirmed logging.
    fn check_very_complete(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId) {
        let std::collections::btree_map::Entry::Occupied(slot) = self.very_waiting.entry(txn)
        else {
            return;
        };
        if slot.get().3.len() == self.n_servers as usize {
            ctx.metrics().incr("very_replies");
            let (client, attempt, commit_seq, _) = slot.remove();
            let reply = ServerReply::Committed {
                txn,
                attempt,
                commit_seq,
            };
            self.reply_now(ctx, client, reply);
        }
    }

    /// A group-communication message arrived from `from`.
    fn on_wire(&mut self, ctx: &mut Ctx<'_, CoreMsg>, from: NodeId, wire: &RWire) {
        let mut outputs = Vec::new();
        if let Some(gcs) = &mut self.gcs {
            gcs.on_net(ctx, from, wire, &mut outputs);
        }
        self.handle_gcs_outputs(ctx, outputs);
    }

    fn on_lazy_propagation(&mut self, ctx: &mut Ctx<'_, CoreMsg>, msg: LazyPropagation) {
        self.charge_net_cpu(ctx.now());
        for (txn, writes) in msg.writesets {
            // Thomas write rule, in memory only: 1-safe durability lives
            // in the delegate's log; remote replicas that crash
            // re-synchronise from peers instead of redoing a local log.
            let res = self.db.apply_unlogged(ctx.now(), txn, &writes);
            if !res.duplicate {
                ctx.metrics().incr("lazy_remote_applies");
            }
        }
    }
}

impl ReplicaServer {
    /// Tell the network whether a heartbeat to this server may be a
    /// beacon, accounted but not sent: only while the endpoint says a
    /// heartbeat could only refresh a timestamp, and no parked read or
    /// transaction waits. Every group-communication event retries those
    /// (see `handle_gcs_outputs`), and a heartbeat may be the one that
    /// serves them: a restart or a checkpoint install raises the state
    /// floor without draining them.
    fn publish_beacons(&self, ctx: &mut Ctx<'_, CoreMsg>) {
        if let Some(gcs) = &self.gcs {
            let receptive = self.parked_reads.is_empty() && self.parked_txns.is_empty();
            gcs.publish_beacons(ctx, receptive);
        }
    }

    /// Arm the background WAL flush at the next instant of its grid once
    /// a record waits for it: the tick a record would meet, at the
    /// instant it always fires, while a tick with nothing to flush is
    /// never queued.
    fn arm_wal_flush(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        if self.wal_due.is_some() || !self.db.wal_has_unflushed() {
            return;
        }
        let interval = self.cfg.wal_flush_interval;
        let k = ctx.now().since(self.wal_grid).as_nanos() / interval.as_nanos().max(1);
        let at = self.wal_grid + interval * (k + 1);
        ctx.timer(at - ctx.now(), ServerTimer::WalFlushTick);
        self.wal_due = Some(at);
    }

    /// Force the log inside the pipeline (the logging safety levels):
    /// write every record no flush covers, starting at `at`, and arm its
    /// completion. Returns when those records are durable, or `at` when
    /// none waited.
    fn force_log(&mut self, ctx: &mut Ctx<'_, CoreMsg>, at: SimTime) -> SimTime {
        let Some((done, lsn)) = self.db.flush_wal_sync(at) else {
            return at;
        };
        ctx.timer(done - ctx.now(), ServerTimer::WalDurable(lsn));
        done
    }

    /// The background WAL flush due now, if it has not run yet: group
    /// commit of every record no flush covers.
    fn flush_wal_if_due(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        if self.wal_due != Some(ctx.now()) {
            return;
        }
        self.wal_due = None;
        if let Some((done, lsn)) = self.db.flush_wal(ctx.now()) {
            let delay = done - ctx.now();
            ctx.timer(delay, ServerTimer::WalDurable(lsn));
        }
    }

    fn on_server_event(&mut self, ctx: &mut Ctx<'_, CoreMsg>, ev: ServerEvent) {
        match ev {
            ServerEvent::Init => self.init(ctx),
            ServerEvent::Restart(cmd) => {
                let RestartServerCmd { members, seq_base } = *cmd;
                if let Some(gcs) = &mut self.gcs {
                    gcs.restart_group(ctx, members, seq_base);
                }
                self.applied_seq = seq_base;
                self.state_floor = self.state_floor.max(seq_base);
                self.apply_cursor = ctx.now();
                // Cross-group state died with the group: in-flight
                // reservations can never be decided (their coordinator
                // history is gone) and would block items forever.
                self.db.clear_reservations();
                self.xg_coord.clear();
                self.xg_pending.clear();
                ctx.metrics().incr("group_restarts");
            }
            ServerEvent::SwitchSafety(level) => self.switch_safety(ctx, level),
            ServerEvent::InstallCheckpoint(ckpt) => {
                self.db.install_checkpoint(*ckpt);
                self.state_floor = self.state_floor.max(self.db.max_version());
            }
            ServerEvent::Wire(inc) => self.on_wire(ctx, inc.from, &inc.msg),
            ServerEvent::Heartbeat(from) => self.on_wire(ctx, from, &Wire::Heartbeat),
            ServerEvent::Request(req) => self.on_request(ctx, *req),
            ServerEvent::Read(req) => self.on_read_request(ctx, *req),
            ServerEvent::Confirm(inc) => {
                self.charge_net_cpu(ctx.now());
                self.record_confirm(ctx, inc.msg.txn, inc.from);
            }
            ServerEvent::Lazy(msg) => self.on_lazy_propagation(ctx, *msg),
            ServerEvent::XgSub(sub) => self.on_xg_sub(ctx, *sub),
            ServerEvent::XgVote(vote) => {
                self.charge_net_cpu(ctx.now());
                self.on_xg_vote(ctx, *vote);
            }
            ServerEvent::XgDecision(d) => self.on_xg_decision_fwd(ctx, *d),
            ServerEvent::XgStatusQuery(inc) => self.on_xg_status_query(ctx, inc.from, inc.msg),
            ServerEvent::Gcs(timer) => {
                let mut outputs = Vec::new();
                if let Some(gcs) = &mut self.gcs {
                    gcs.on_timer(ctx, timer, &mut outputs);
                }
                self.handle_gcs_outputs(ctx, outputs);
            }
            ServerEvent::Timer(t) => self.on_timer(ctx, t),
        }
    }
}

impl Actor<CoreMsg> for ReplicaServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_, CoreMsg>, msg: CoreMsg) {
        match msg {
            CoreMsg::Server(ev) => self.on_server_event(ctx, ev),
            CoreMsg::Client(_) => ctx.metrics().incr("misrouted"),
        }
        self.arm_wal_flush(ctx);
        self.publish_beacons(ctx);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        self.crashes += 1;
        if let Some(gcs) = &mut self.gcs {
            gcs.on_crash();
        }
        self.execs.clear();
        self.pending_acks.clear();
        self.pending_confirms.clear();
        self.very_waiting.clear();
        self.very_early.clear();
        self.lazy_buffer.clear();
        self.parked_reads.clear();
        self.parked_txns.clear();
        self.xg_coord.clear();
        self.xg_decided.clear();
        self.xg_pending.clear();
        self.xg_forwarded.clear();
        // In-flight work on the server's resources dies with it.
        self.cpu.borrow_mut().reset(ctx.now());
        self.disks.borrow_mut().reset(ctx.now());
        self.wal_due = None;
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        // Local database recovery: redo the durable WAL prefix.
        self.db.crash();
        // The redone state reflects versions up to its durable prefix;
        // reads served before catch-up must claim at least that
        // snapshot (`applied_seq` restarts at 0 below).
        self.state_floor = self.state_floor.max(self.db.max_version());
        self.applied_seq = 0;
        self.apply_cursor = ctx.now();
        let mut outputs = Vec::new();
        if let Some(gcs) = &mut self.gcs {
            gcs.on_recover(ctx, &mut outputs);
        }
        self.handle_gcs_outputs(ctx, outputs);
        self.wal_grid = ctx.now();
        ctx.timer(self.cfg.page_flush_interval, ServerTimer::PageFlushTick);
        if self.technique == Technique::Lazy {
            ctx.timer(self.cfg.lazy_prop_interval, ServerTimer::LazyPropTick);
        }
        // Reservations redone from the WAL need their decision probes
        // back (their timers died with the crash).
        self.rearm_xg_probes(ctx);
        ctx.metrics().incr("server_recoveries");
        self.arm_wal_flush(ctx);
        self.publish_beacons(ctx);
    }

    fn name(&self) -> &str {
        "replica-server"
    }
}

/// Take `txn`'s parked entry when its bounded wait for `attempt` expires:
/// none if it was served meanwhile or a resubmission owns it now.
fn take_parked<T>(
    parked: &mut std::collections::BTreeMap<TxnId, T>,
    txn: TxnId,
    attempt: u32,
    attempt_of: fn(&T) -> u32,
) -> Option<T> {
    let owned = parked.get(&txn).is_some_and(|r| attempt_of(r) == attempt);
    owned.then(|| parked.remove(&txn)).flatten()
}
