//! The fluent system-assembly API: [`SystemBuilder`] → [`Run`] →
//! [`Report`].
//!
//! One declarative entry point for the configuration and for the
//! warm-up / measure / stop-clients / drain lifecycle:
//!
//! ```
//! use groupsafe_core::{Load, SafetyLevel, System};
//! use groupsafe_sim::SimDuration;
//!
//! let report = System::builder()
//!     .servers(3)
//!     .clients_per_server(2)
//!     .safety(SafetyLevel::GroupSafe)
//!     .load(Load::open_tps(10.0))
//!     .measure(SimDuration::from_secs(2))
//!     .drain(SimDuration::from_secs(1))
//!     .seed(7)
//!     .build()
//!     .expect("a valid configuration")
//!     .execute();
//! assert!(report.commits > 0);
//! assert_eq!(report.lost, 0);
//! assert_eq!(report.distinct_states, 1, "replicas converged");
//! ```
//!
//! * [`SystemBuilder`] is the whole configuration: [`SystemBuilder::build`]
//!   checks and resolves every setting once ([`BuildError`]) and wires
//!   the full system from the result — the same seed produces the same
//!   commit count and state digests; the fuzzer's envelopes are builders
//!   too ([`fuzz::smoke`](crate::scenario::fuzz::smoke),
//!   [`fuzz::sharded`](crate::scenario::fuzz::sharded)),
//! * [`Run`] owns the warm-up → measure → stop-clients → drain lifecycle
//!   and fires the [`ScenarioPlan`]'s steps at their instants — mid-run
//!   commands such as [`ScenarioPlan::switch_safety`] among them,
//! * [`Report`] is the structured outcome — commits, mean/p95/p99,
//!   aborts, lost transactions, convergence digests, per-phase and
//!   per-shard-group stats — with [`Display`](std::fmt::Display) and
//!   JSON renderings.
//!
//! Sharded systems thread through the same pipeline:
//! [`SystemBuilder::shards`] splits the key space over `N` independent
//! replica groups ([`crate::shard`]) and the [`Report`] gains per-group
//! and cross-group statistics.

#![expect(
    clippy::indexing_slicing,
    reason = "servers/slices are indexed by indices derived from their own construction loops (i < n_servers, group < n_groups)"
)]

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use groupsafe_db::{DbConfig, ItemId, Operation};
use groupsafe_gcs::{BatchConfig, MAX_GROUP_SIZE};
use groupsafe_sim::{decompose_commits, CommitSpan, ObsConfig, SimDuration, SimTime};

use crate::client::{LoadModel, OpGenerator, TxnPlan};
use crate::msg::ClientEvent;
use crate::reads::{ReadLevel, ReadPath};
use crate::safety::SafetyLevel;
use crate::scenario::ScenarioPlan;
use crate::server::{ReplicaConfig, Technique};
use crate::shard::{self, ShardError, ShardMap, ShardSpec};
use crate::system::System;
use crate::verify::{self, LostTransaction};

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// How the clients generate load, expressed at the whole-system level.
///
/// Resolved against the client population at build time: `open_tps(30.0)`
/// on 36 clients becomes a per-client Poisson process at 30/36 tps.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop at a system-wide offered rate (Poisson arrivals,
    /// independent of outstanding work).
    OpenTps(f64),
    /// Closed loop calibrated for a system-wide target rate: each client
    /// keeps one transaction outstanding and thinks between replies, with
    /// the think time chosen so that `n_clients / (think + resp) ≈ tps`
    /// at [`DEFAULT_ASSUMED_RESP_MS`]. Under overload the population
    /// self-limits (the paper's client model).
    ClosedTps(f64),
    /// Open loop with an explicit per-client mean inter-arrival time.
    OpenInterarrival(SimDuration),
}

/// The base response time `Load::closed_tps` calibrates against.
pub const DEFAULT_ASSUMED_RESP_MS: f64 = 70.0;

impl Load {
    /// Open-loop Poisson arrivals at `tps` across the whole system.
    pub fn open_tps(tps: f64) -> Load {
        Load::OpenTps(tps)
    }

    /// Closed-loop clients calibrated for `tps` across the whole system.
    pub fn closed_tps(tps: f64) -> Load {
        Load::ClosedTps(tps)
    }

    /// Open loop with an explicit per-client mean inter-arrival time.
    pub fn open_interarrival(mean: SimDuration) -> Load {
        Load::OpenInterarrival(mean)
    }

    /// The system-wide offered rate, when one is implied.
    pub fn offered_tps(&self) -> Option<f64> {
        match *self {
            Load::OpenTps(tps) | Load::ClosedTps(tps) => Some(tps),
            Load::OpenInterarrival(_) => None,
        }
    }

    /// Resolve to the per-client [`LoadModel`].
    fn resolve(&self, n_clients: u32) -> Result<LoadModel, BuildError> {
        let n = n_clients.max(1) as f64;
        match *self {
            Load::OpenTps(tps) => {
                if tps.is_nan() || tps <= 0.0 {
                    return Err(BuildError::NonPositiveLoad { tps });
                }
                Ok(LoadModel::Open {
                    mean_interarrival: SimDuration::from_secs_f64(n / tps.max(1e-9)),
                })
            }
            Load::ClosedTps(tps) => {
                if tps.is_nan() || tps <= 0.0 {
                    return Err(BuildError::NonPositiveLoad { tps });
                }
                let cycle = n / tps.max(1e-9);
                let think = (cycle - DEFAULT_ASSUMED_RESP_MS / 1_000.0).max(0.001);
                Ok(LoadModel::Closed {
                    mean_think: SimDuration::from_secs_f64(think),
                })
            }
            Load::OpenInterarrival(mean) => {
                if mean == SimDuration::ZERO {
                    return Err(BuildError::NonPositiveLoad { tps: f64::INFINITY });
                }
                Ok(LoadModel::Open {
                    mean_interarrival: mean,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// The shape of the transactions the built-in generator produces
/// (Table 4 of the paper by default): `txn_len_min..=txn_len_max`
/// operations, each a write with probability `write_probability`, over
/// `n_items` items with an optional hotspot.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of items in the database.
    pub n_items: u32,
    /// Minimum operations per transaction.
    pub txn_len_min: usize,
    /// Maximum operations per transaction.
    pub txn_len_max: usize,
    /// Probability that an operation is a write.
    pub write_probability: f64,
    /// Fraction of accesses directed at the hot set (0 = uniform).
    pub hot_access_fraction: f64,
    /// Fraction of the database forming the hot set.
    pub hot_set_fraction: f64,
    /// Fraction of generated transactions that are read-only (every
    /// operation a read; the population the read path serves). 0 — the
    /// default — reproduces the historical generator draw-for-draw:
    /// reads then only occur inside mixed transactions per
    /// `write_probability`.
    pub read_fraction: f64,
    /// Fraction of generated *update* transactions that run as
    /// snapshot-isolation transactions: reads served off a consistent
    /// MVCC snapshot, certification first-committer-wins over the write
    /// set only. 0 — the default — draws no extra coin, so the classic
    /// pipeline stays bit-for-bit fingerprint-identical.
    pub txn_fraction: f64,
    /// Minimum operations per snapshot-isolation transaction.
    pub txn_ops_min: usize,
    /// Maximum operations per snapshot-isolation transaction.
    pub txn_ops_max: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::table4()
    }
}

impl WorkloadSpec {
    /// Table 4's workload: 10 000 items, 10–20 operations, 50 % writes,
    /// plus the mild hotspot calibrated for the paper's abort rate.
    pub fn table4() -> Self {
        WorkloadSpec {
            n_items: 10_000,
            txn_len_min: 10,
            txn_len_max: 20,
            write_probability: 0.5,
            hot_access_fraction: 0.15,
            hot_set_fraction: 0.02,
            read_fraction: 0.0,
            txn_fraction: 0.0,
            txn_ops_min: 10,
            txn_ops_max: 20,
        }
    }

    fn validate(&self) -> Result<(), BuildError> {
        if self.n_items == 0 {
            return Err(BuildError::EmptyDatabase);
        }
        if self.txn_len_min > self.txn_len_max || self.txn_len_max == 0 {
            return Err(BuildError::BadTxnLength {
                min: self.txn_len_min,
                max: self.txn_len_max,
            });
        }
        if self.txn_ops_min > self.txn_ops_max || self.txn_ops_max == 0 {
            return Err(BuildError::BadTxnLength {
                min: self.txn_ops_min,
                max: self.txn_ops_max,
            });
        }
        for (name, p) in [
            ("write_probability", self.write_probability),
            ("hot_access_fraction", self.hot_access_fraction),
            ("hot_set_fraction", self.hot_set_fraction),
            ("read_fraction", self.read_fraction),
            ("txn_fraction", self.txn_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(BuildError::BadProbability { name, value: p });
            }
        }
        Ok(())
    }

    /// One transaction's operations. The draw order is part of the
    /// behavioural contract: seeded runs reproduce bit-for-bit.
    pub fn generate_txn(&self, rng: &mut StdRng) -> Vec<Operation> {
        // The read-mix coin is drawn only when the knob is set, so the
        // default configuration's draw sequence is untouched (the
        // reads-off ≡ seed equivalence pin depends on it).
        if self.read_fraction > 0.0 && rng.random_bool(self.read_fraction) {
            return self.generate_readonly_txn(rng);
        }
        self.generate_mixed_txn(rng)
    }

    /// One read-only transaction's operations (the population the read
    /// path serves; drawn for a `read_fraction` of transactions).
    pub fn generate_readonly_txn(&self, rng: &mut StdRng) -> Vec<Operation> {
        let len = rng.random_range(self.txn_len_min..=self.txn_len_max);
        (0..len)
            .map(|_| Operation::Read(self.draw_item(rng)))
            .collect()
    }

    /// One transaction plan: the read-mix coin first (matching
    /// [`WorkloadSpec::generate_txn`] draw-for-draw), then — only when
    /// `txn_fraction` is set — the snapshot-isolation coin over the
    /// update population. With both knobs at their defaults this is
    /// `generate_txn` with a classic wrapper: zero extra RNG draws, so
    /// seeded runs stay fingerprint-identical.
    pub fn generate_plan(&self, rng: &mut StdRng) -> TxnPlan {
        if self.read_fraction > 0.0 && rng.random_bool(self.read_fraction) {
            let ops = self.generate_readonly_txn(rng);
            // With snapshot transactions in the mix, read-only
            // transactions ride snapshots too: their reads are served
            // off the multi-version store and leave certification
            // entirely (an empty write set cannot conflict), instead of
            // holding first-writer-wins read entries that any concurrent
            // writer invalidates. With `txn_fraction == 0` the classic
            // read-set-certified plan is preserved bit-for-bit.
            return if self.txn_fraction > 0.0 {
                TxnPlan::snapshot(ops)
            } else {
                TxnPlan::new(ops)
            };
        }
        if self.txn_fraction > 0.0 && rng.random_bool(self.txn_fraction) {
            return TxnPlan::snapshot(self.generate_si_txn(rng));
        }
        TxnPlan::new(self.generate_mixed_txn(rng))
    }

    /// One snapshot-isolation transaction's operations: `txn_ops_min..=
    /// txn_ops_max` operations over the same item distribution as mixed
    /// transactions, forced to contain at least one write (a read-only
    /// snapshot transaction belongs to the read path, not here).
    pub fn generate_si_txn(&self, rng: &mut StdRng) -> Vec<Operation> {
        let len = rng.random_range(self.txn_ops_min..=self.txn_ops_max);
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let item = self.draw_item(rng);
            if rng.random_bool(self.write_probability) {
                ops.push(Operation::Write(
                    item,
                    rng.random_range(-1_000_000..1_000_000),
                ));
            } else {
                ops.push(Operation::Read(item));
            }
        }
        if !ops.iter().any(|o| o.is_write()) {
            let item = self.draw_item(rng);
            ops.push(Operation::Write(
                item,
                rng.random_range(-1_000_000..1_000_000),
            ));
        }
        ops
    }

    fn generate_mixed_txn(&self, rng: &mut StdRng) -> Vec<Operation> {
        let len = rng.random_range(self.txn_len_min..=self.txn_len_max);
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let item = self.draw_item(rng);
            if rng.random_bool(self.write_probability) {
                ops.push(Operation::Write(
                    item,
                    rng.random_range(-1_000_000..1_000_000),
                ));
            } else {
                ops.push(Operation::Read(item));
            }
        }
        ops
    }

    fn draw_item(&self, rng: &mut StdRng) -> ItemId {
        let hot_items = ((self.n_items as f64 * self.hot_set_fraction) as u32).max(1);
        if self.hot_access_fraction > 0.0 && rng.random_bool(self.hot_access_fraction) {
            ItemId(rng.random_range(0..hot_items))
        } else {
            ItemId(rng.random_range(0..self.n_items))
        }
    }

    /// A per-client operation generator over this spec.
    pub fn generator(&self) -> OpGenerator {
        let spec = self.clone();
        Box::new(move |rng: &mut StdRng| spec.generate_plan(rng))
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a [`SystemBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `servers(0)`: a replicated database needs at least one replica.
    NoServers,
    /// `technique(Technique::Dsm(level))` at a level no database state
    /// machine variant implements (1-safe is the lazy baseline:
    /// [`SystemBuilder::safety`] selects it).
    NoDsmVariant {
        /// The requested level.
        level: SafetyLevel,
    },
    /// More servers per replica group than the group communication
    /// layer's stability-vote bitmask holds.
    GroupTooWide {
        /// The requested servers per group.
        servers: u32,
        /// The widest group supported.
        max: usize,
    },
    /// No clients at all: nothing would ever be submitted.
    NoClients,
    /// A rate-style [`Load`] with `tps <= 0` (or a zero inter-arrival
    /// time, reported as infinite tps).
    NonPositiveLoad {
        /// The offending rate.
        tps: f64,
    },
    /// `n_items == 0` in the workload spec.
    EmptyDatabase,
    /// Inverted or empty transaction-length range.
    BadTxnLength {
        /// Configured minimum.
        min: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A probability parameter outside `[0, 1]`.
    BadProbability {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault plan names a server the system does not have.
    FaultTargetOutOfRange {
        /// The requested server id.
        server: u32,
        /// The system size.
        n_servers: u32,
    },
    /// A scenario step carries an out-of-range parameter.
    BadScenario {
        /// What is wrong.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The shard configuration does not partition the key space.
    Shard(ShardError),
    /// Cross-group transactions need the database state machine (the
    /// lazy baseline has no certification to vote with, and very-safe's
    /// all-logged confirmation round is not defined across groups).
    UnsupportedCrossShard {
        /// The offending technique's label.
        technique: &'static str,
    },
    /// A scenario step names a group the system does not have.
    GroupOutOfRange {
        /// The requested group.
        group: u32,
        /// The system's group count.
        n_groups: u32,
    },
    /// The read-path configuration is not defined for the chosen
    /// technique (the lazy baseline serves reads through its own local
    /// execution; stable reads need a uniform-delivery level whose
    /// endpoint tracks group stability).
    UnsupportedReads {
        /// The offending read path's label.
        path: &'static str,
        /// The technique's label.
        technique: &'static str,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoServers => write!(f, "a system needs at least one server"),
            BuildError::NoDsmVariant { level } => {
                write!(f, "no database state machine variant implements {level}")
            }
            BuildError::GroupTooWide { servers, max } => {
                write!(
                    f,
                    "a replica group holds at most {max} servers, got {servers}"
                )
            }
            BuildError::NoClients => write!(f, "a system needs at least one client"),
            BuildError::NonPositiveLoad { tps } => {
                write!(f, "offered load must be positive, got {tps} tps")
            }
            BuildError::EmptyDatabase => write!(f, "the database needs at least one item"),
            BuildError::BadTxnLength { min, max } => {
                write!(f, "invalid transaction length range {min}..={max}")
            }
            BuildError::BadProbability { name, value } => {
                write!(f, "{name} must be in [0, 1], got {value}")
            }
            BuildError::FaultTargetOutOfRange { server, n_servers } => {
                write!(
                    f,
                    "fault plan names server {server} but the system has {n_servers}"
                )
            }
            BuildError::BadScenario { what, value } => {
                write!(f, "invalid scenario: {what} (got {value})")
            }
            BuildError::Shard(e) => write!(f, "invalid shard configuration: {e}"),
            BuildError::UnsupportedCrossShard { technique } => {
                write!(
                    f,
                    "cross-group transactions require a DSM technique, not {technique}"
                )
            }
            BuildError::GroupOutOfRange { group, n_groups } => {
                write!(
                    f,
                    "scenario names group {group} but the system has {n_groups}"
                )
            }
            BuildError::UnsupportedReads { path, technique } => {
                write!(
                    f,
                    "the {path} read path is not defined for the {technique} technique"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

// ---------------------------------------------------------------------
// SystemBuilder
// ---------------------------------------------------------------------

/// Factory for per-client operation generators (called once per client
/// with its numeric id).
pub type GeneratorFactory = Box<dyn FnMut(u32) -> OpGenerator>;

/// Fluent configuration of a full replicated-database experiment — the
/// only configuration there is: [`SystemBuilder::build`] checks and
/// resolves every setting once and wires the system from the result.
///
/// Obtain one with [`System::builder`]. Defaults are Table 4's system
/// (9 servers × 4 clients, group-safe DSM, Table 4 database, workload
/// and network, seed 42), open-loop clients at a 1.2 s mean
/// inter-arrival time each, a 60 s measurement window and 3 s drain.
pub struct SystemBuilder {
    pub(crate) n_servers: u32,
    pub(crate) clients_per_server: u32,
    pub(crate) replica: ReplicaConfig,
    load: Load,
    pub(crate) client_timeout: SimDuration,
    pub(crate) seed: u64,
    pub(crate) warmup: SimDuration,
    pub(crate) measure: SimDuration,
    pub(crate) drain: SimDuration,
    pub(crate) workload: WorkloadSpec,
    generator: Option<GeneratorFactory>,
    scenario: ScenarioPlan,
    pub(crate) shard: ShardSpec,
    pub(crate) obs: ObsConfig,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            n_servers: 9,
            clients_per_server: 4,
            replica: ReplicaConfig::default(),
            load: Load::OpenInterarrival(SimDuration::from_millis(1_200)),
            client_timeout: SimDuration::from_secs(2),
            seed: 42,
            warmup: SimDuration::ZERO,
            measure: SimDuration::from_secs(60),
            drain: SimDuration::from_secs(3),
            workload: WorkloadSpec::default(),
            generator: None,
            scenario: ScenarioPlan::new(),
            shard: ShardSpec::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl System {
    /// Start configuring a system fluently.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }
}

impl SystemBuilder {
    /// Number of replica servers.
    pub fn servers(mut self, n: u32) -> Self {
        self.n_servers = n;
        self
    }

    /// Clients attached to each server.
    pub fn clients_per_server(mut self, n: u32) -> Self {
        self.clients_per_server = n;
        self
    }

    /// Choose the replication technique by its client-visible safety
    /// level: [`SafetyLevel::OneSafe`] selects the lazy baseline, every
    /// other level the database state machine at that level.
    pub fn safety(mut self, level: SafetyLevel) -> Self {
        self.replica.technique = match level {
            SafetyLevel::OneSafe => Technique::Lazy,
            other @ (SafetyLevel::ZeroSafe
            | SafetyLevel::GroupSafe
            | SafetyLevel::GroupOneSafe
            | SafetyLevel::TwoSafe
            | SafetyLevel::VerySafe) => Technique::Dsm(other),
        };
        self
    }

    /// The client-visible safety level of the chosen technique (the
    /// inverse of [`SystemBuilder::safety`]).
    pub(crate) fn level(&self) -> SafetyLevel {
        match self.replica.technique {
            Technique::Lazy => SafetyLevel::OneSafe,
            Technique::Dsm(level) => level,
        }
    }

    /// Choose the replication technique explicitly.
    /// `Technique::Dsm(SafetyLevel::OneSafe)` is a build error: no
    /// database state machine variant is 1-safe (use
    /// [`SystemBuilder::safety`], which maps it to [`Technique::Lazy`]).
    pub fn technique(mut self, technique: Technique) -> Self {
        self.replica.technique = technique;
        self
    }

    /// Batching knobs of the atomic-broadcast pipeline: the sequencer
    /// packs up to `batch.max_msgs` pending broadcasts (flushed after at
    /// most `batch.max_delay`) into one ordered frame, and the replicas
    /// persist and vote per frame instead of per transaction.
    /// [`BatchConfig::unbatched`] (the default) reproduces the classic
    /// per-message pipeline bit-for-bit.
    pub fn batching(mut self, batch: BatchConfig) -> Self {
        self.replica.batch = batch;
        self
    }

    /// Shard the database over `n` independent replica groups (hash
    /// routing): [`SystemBuilder::servers`] then counts servers *per
    /// group*, and every group runs its own sequencer, GCS view and
    /// stable logs. `shards(1)` is the classic unsharded system —
    /// bit-for-bit, same fingerprint.
    pub fn shards(mut self, n: u32) -> Self {
        self.shard.groups = n;
        self
    }

    /// Fraction of built-in-generator transactions that span two groups
    /// (committed via the ordered cross-group protocol). Only meaningful
    /// with `shards(n > 1)`; requires a DSM technique.
    pub fn cross_shard_fraction(mut self, f: f64) -> Self {
        self.shard.cross_fraction = f;
        self
    }

    /// How read-only transactions travel (see [`crate::reads`]):
    /// [`ReadPath::Classic`] (the default — reads ride the transaction
    /// pipeline, bit-for-bit the pre-read-path behavior),
    /// [`ReadPath::Broadcast`] (reads are ordered and certified like
    /// updates), or [`ReadPath::Local`] (follower reads at a freshness
    /// level, parked at most [`READ_MAX_WAIT`] behind a session token).
    ///
    /// [`READ_MAX_WAIT`]: crate::reads::READ_MAX_WAIT
    pub fn read_path(mut self, path: ReadPath) -> Self {
        self.replica.reads = path;
        self
    }

    /// Serve read-only transactions locally at any replica of the
    /// owning group, at freshness `level` (sugar for
    /// `read_path(ReadPath::Local(level))`).
    pub fn read_level(self, level: ReadLevel) -> Self {
        self.read_path(ReadPath::Local(level))
    }

    /// Fraction of generated transactions that are read-only (the
    /// workload spec's `read_fraction`; plumbed into the built-in and
    /// the sharded generators). 0 reproduces the historical generator
    /// draw-for-draw. A later [`SystemBuilder::workload`] call replaces
    /// it.
    pub fn read_fraction(mut self, f: f64) -> Self {
        self.workload.read_fraction = f;
        self
    }

    /// Fraction of generated update transactions that run under snapshot
    /// isolation (the workload spec's `txn_fraction`: reads off a
    /// consistent MVCC snapshot, certification first-committer-wins over
    /// the write set). 0 reproduces the classic pipeline draw-for-draw.
    /// A later [`SystemBuilder::workload`] call replaces it.
    pub fn txn_fraction(mut self, f: f64) -> Self {
        self.workload.txn_fraction = f;
        self
    }

    /// Operations per snapshot-isolation transaction (the workload
    /// spec's `txn_ops_min..=txn_ops_max`). A later
    /// [`SystemBuilder::workload`] call replaces it.
    pub fn txn_ops(mut self, min: usize, max: usize) -> Self {
        self.workload.txn_ops_min = min;
        self.workload.txn_ops_max = max;
        self
    }

    /// Observability mode of the built engine (see
    /// [`ObsConfig`]): [`ObsConfig::disabled`] for the zero-cost path,
    /// [`ObsConfig::ring`] for the bounded flight recorder (the
    /// default), [`ObsConfig::stream`] for the full structured event
    /// stream the exporters and the phase decomposition consume.
    /// Recording never touches the dispatch fingerprint, the RNG or the
    /// event queue, so every mode replays bit-for-bit identically.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// The client load model.
    pub fn load(mut self, load: Load) -> Self {
        self.load = load;
        self
    }

    /// Master seed (drives every random stream in the simulation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Warm-up window; response samples before its end are discarded.
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.warmup = d;
        self
    }

    /// Measurement window (after warm-up).
    pub fn measure(mut self, d: SimDuration) -> Self {
        self.measure = d;
        self
    }

    /// Drain window after measurement: clients stop submitting, in-flight
    /// work completes, then convergence is checked.
    pub fn drain(mut self, d: SimDuration) -> Self {
        self.drain = d;
        self
    }

    /// Client request timeout (failover trigger).
    pub fn client_timeout(mut self, d: SimDuration) -> Self {
        self.client_timeout = d;
        self
    }

    /// Local database configuration of every replica. Start from
    /// `ReplicaConfig::default().db`, whose engine leaves flushing to the
    /// server; `..DbConfig::default()` selects [`FlushPolicy::Sync`].
    ///
    /// The workload owns the item space: with the built-in generator,
    /// `n_items` is the [`WorkloadSpec`]'s and the value here does not
    /// count. It counts only under [`SystemBuilder::generator`]. A zero
    /// `mvcc_depth` becomes 64 when the local read path or the built-in
    /// generator's snapshot transactions need the multi-version store.
    ///
    /// [`FlushPolicy::Sync`]: groupsafe_db::FlushPolicy::Sync
    pub fn db(mut self, db: DbConfig) -> Self {
        self.replica.db = db;
        self
    }

    /// Background WAL flush period (the asynchronous-durability window
    /// group-safety exposes on total failure).
    pub fn wal_flush_interval(mut self, d: SimDuration) -> Self {
        self.replica.wal_flush_interval = d;
        self
    }

    /// Lazy propagation batching period (the 1-safe inconsistency
    /// window; only affects [`Technique::Lazy`]).
    pub fn lazy_prop_interval(mut self, d: SimDuration) -> Self {
        self.replica.lazy_prop_interval = d;
        self
    }

    /// Sequential-batch discount of the disk pool (1.0 disables write
    /// caching — the §5.1 ablation).
    pub fn disk_sequential_factor(mut self, factor: f64) -> Self {
        self.replica.disk_sequential_factor = factor;
        self
    }

    /// The transaction shape for the built-in generator. Replaces the
    /// whole spec, including fractions and lengths set earlier through
    /// [`SystemBuilder::read_fraction`], [`SystemBuilder::txn_fraction`]
    /// or [`SystemBuilder::txn_ops`]: call those after this.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = spec;
        self
    }

    /// Replace the built-in generator with a custom per-client factory.
    pub fn generator(mut self, factory: impl FnMut(u32) -> OpGenerator + 'static) -> Self {
        self.generator = Some(Box::new(factory));
        self
    }

    /// The declarative fault-scenario timeline this run replays
    /// ([`ScenarioPlan`]): crashes with scripted recovery, partitions,
    /// targeted sequencer kills, loss/duplication/reorder bursts,
    /// slow-disk windows, operator restarts. Repeated calls accumulate.
    pub fn scenario(mut self, plan: ScenarioPlan) -> Self {
        self.scenario = std::mem::take(&mut self.scenario).merge(plan);
        self
    }

    /// True when the read path is defined for the technique: the lazy
    /// baseline serves reads through its own 2PL execution, and stable
    /// reads need an endpoint that tracks group stability (0-safe's
    /// non-uniform delivery casts no stability votes).
    fn reads_supported(technique: Technique, path: ReadPath) -> bool {
        !matches!(
            (technique, path),
            (Technique::Lazy, ReadPath::Broadcast | ReadPath::Local(_))
                | (
                    Technique::Dsm(SafetyLevel::ZeroSafe),
                    ReadPath::Local(ReadLevel::Stable)
                )
        )
    }

    /// Check every setting and resolve, in one pass, the ones the wiring
    /// cannot take as set: the database (its item space and
    /// multi-version depth, in place), the shard map and the per-client
    /// load model.
    fn resolve(&mut self) -> Result<(ShardMap, LoadModel), BuildError> {
        if self.n_servers == 0 {
            return Err(BuildError::NoServers);
        }
        if self.n_servers as usize > MAX_GROUP_SIZE {
            return Err(BuildError::GroupTooWide {
                servers: self.n_servers,
                max: MAX_GROUP_SIZE,
            });
        }
        if self.clients_per_server == 0 {
            return Err(BuildError::NoClients);
        }
        let builtin = self.generator.is_none();
        if builtin {
            self.workload.validate()?;
        }
        let technique = self.replica.technique;
        if technique == Technique::Dsm(SafetyLevel::OneSafe) {
            return Err(BuildError::NoDsmVariant {
                level: SafetyLevel::OneSafe,
            });
        }
        let path = self.replica.reads;
        if !Self::reads_supported(technique, path) {
            return Err(BuildError::UnsupportedReads {
                path: path.label(),
                technique: technique.label(),
            });
        }
        let shard = &self.shard;
        if !(0.0..=1.0).contains(&shard.cross_fraction) || shard.cross_fraction.is_nan() {
            return Err(BuildError::BadProbability {
                name: "cross_shard_fraction",
                value: shard.cross_fraction,
            });
        }
        if shard.cross_fraction > 0.0
            && shard.groups > 1
            && matches!(
                technique,
                Technique::Dsm(SafetyLevel::VerySafe) | Technique::Lazy
            )
        {
            return Err(BuildError::UnsupportedCrossShard {
                technique: technique.label(),
            });
        }
        let db = &mut self.replica.db;
        if builtin {
            // The built-in generator draws from the workload spec's item
            // space; keep the engine's catalogue in sync with it. Custom
            // generators own their item space via `.db(..)`.
            db.n_items = self.workload.n_items;
        }
        // The local read path serves snapshots, and snapshot-isolation
        // transactions read from them too: either switches the engines'
        // multi-version store on (bounded; pruned at the group-stable
        // watermark).
        let snapshots =
            matches!(path, ReadPath::Local(_)) || (builtin && self.workload.txn_fraction > 0.0);
        if snapshots && db.mvcc_depth == 0 {
            db.mvcc_depth = 64;
        }
        let map = shard.resolve(db.n_items).map_err(BuildError::Shard)?;
        let total_servers = self.n_servers * map.n_groups();
        self.scenario.validate(total_servers)?;
        self.scenario
            .validate_groups(map.n_groups(), self.n_servers)?;
        let load = self.load.resolve(total_servers * self.clients_per_server)?;
        Ok((map, load))
    }

    /// Validate, wire the system, install the fault scenario, and hand
    /// back a [`Run`] ready to [`execute`](Run::execute).
    pub fn build(mut self) -> Result<Run, BuildError> {
        let (map, load) = self.resolve()?;
        let map = Rc::new(map);
        let make_gen: GeneratorFactory = match self.generator.take() {
            Some(factory) => factory,
            None => {
                // Route the built-in generator through the shard map; a
                // single-group map delegates to the spec's own generator,
                // draw-for-draw (the sharded fingerprint-identity
                // invariant).
                let spec = self.workload.clone();
                let map = map.clone();
                let cross = self.shard.cross_fraction;
                Box::new(move |_| shard::sharded_generator(&spec, map.clone(), cross))
            }
        };
        let system = System::wire(&self, load, map, make_gen);
        let offered_tps = self.load.offered_tps();
        let mut run = Run::new(system, self.warmup, self.measure, self.drain, offered_tps);
        // Every scenario step becomes a sim-time hook that fires exactly
        // at its instant, under `execute` and the stepwise API alike.
        self.scenario.install(&mut run);
        Ok(run)
    }
}

// ---------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------

type Hook = Box<dyn FnOnce(&mut System)>;

/// A registered sim-time hook. Hooks fire in `(at, idx)` order — by
/// timestamp, ties broken by insertion — which is pinned by test: two
/// hooks sharing an instant must fire in the order they were registered,
/// never in registration order across different instants.
struct ScheduledHook {
    at: SimTime,
    idx: u64,
    label: &'static str,
    run: Hook,
}

/// A wired system plus its run lifecycle: warm-up → measure →
/// stop-clients → drain, with the [`ScenarioPlan`]'s steps as mid-run
/// phase hooks.
///
/// [`Run::execute`] performs the whole lifecycle; the stepwise methods
/// ([`Run::start`], [`Run::run_until`], [`Run::stop_clients_at`],
/// [`Run::finish`]) expose the same pieces for scripted scenarios that
/// need manual control between phases. The plan's steps fire at their
/// instants under both drivers: [`Run::run_until`] executes every hook
/// whose time falls inside the advance.
pub struct Run {
    system: System,
    warmup: SimDuration,
    measure: SimDuration,
    drain: SimDuration,
    offered_tps: Option<f64>,
    hooks: Vec<ScheduledHook>,
    next_hook_idx: u64,
    /// `(label, samples-so-far)` phase boundaries, in time order.
    marks: Vec<(&'static str, usize)>,
    started: bool,
}

impl Run {
    fn new(
        system: System,
        warmup: SimDuration,
        measure: SimDuration,
        drain: SimDuration,
        offered_tps: Option<f64>,
    ) -> Run {
        let measure_start = SimTime::ZERO + warmup;
        system.oracle.borrow_mut().measure_reads_from(measure_start);
        Run {
            system,
            warmup,
            measure,
            drain,
            offered_tps,
            hooks: Vec::new(),
            next_hook_idx: 0,
            marks: Vec::new(),
            started: false,
        }
    }

    /// Borrow the underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutably borrow the underlying system (escape hatch for scripted
    /// scenarios: partitions, checkpoint installs, ...).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// When the measurement window ends (warm-up + measure).
    pub fn measure_end(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// Register `hook` to fire at `at`: the run pauses the event loop
    /// there and hands the system to `hook`, and `label` names the phase
    /// that begins at the hook in the report's per-phase breakdown. The
    /// scenario engine installs its steps through this.
    pub(crate) fn hook_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        hook: impl FnOnce(&mut System) + 'static,
    ) {
        let idx = self.next_hook_idx;
        self.next_hook_idx += 1;
        self.hooks.push(ScheduledHook {
            at,
            idx,
            label,
            run: Box::new(hook),
        });
    }

    /// Extract the earliest pending hook due at or before `deadline`,
    /// ordered by (timestamp, insertion).
    fn next_due_hook(&mut self, deadline: SimTime) -> Option<ScheduledHook> {
        let pos = self
            .hooks
            .iter()
            .enumerate()
            .filter(|(_, h)| h.at <= deadline)
            .min_by_key(|(_, h)| (h.at, h.idx))
            .map(|(i, _)| i)?;
        Some(self.hooks.swap_remove(pos))
    }

    /// Advance to `deadline`, firing every due hook at its instant.
    fn advance_to(&mut self, deadline: SimTime) {
        while let Some(h) = self.next_due_hook(deadline) {
            self.system.engine.run_until(h.at);
            self.mark_phase(h.label);
            (h.run)(&mut self.system);
        }
        self.system.engine.run_until(deadline);
    }

    /// Start the servers and clients (idempotent; [`Run::execute`] calls
    /// it automatically).
    pub fn start(&mut self) {
        if !self.started {
            self.system.start();
            self.started = true;
        }
    }

    /// Advance simulated time (starting the system first if needed),
    /// firing every registered hook whose instant falls inside the
    /// advance — so scripted scenarios replay identically under the
    /// stepwise API and under [`Run::execute`].
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        self.advance_to(t);
    }

    /// Record a phase boundary at the current instant for the report's
    /// per-phase breakdown.
    pub fn mark_phase(&mut self, label: &'static str) {
        let samples = self
            .system
            .engine
            .metrics()
            .histogram("response_total_ms")
            .map_or(0, |h| h.count());
        self.marks.push((label, samples));
    }

    /// Stop every client at `t` (outstanding transactions still finish).
    pub fn stop_clients_at(&mut self, t: SimTime) {
        for &c in &self.system.clients.clone() {
            self.system
                .engine
                .schedule_resilient(t, c, ClientEvent::Stop);
        }
    }

    /// Run the complete lifecycle and report: warm-up, measurement (with
    /// any phase hooks), stop clients, drain, audit.
    pub fn execute(mut self) -> Report {
        self.start();
        let measure_start = SimTime::ZERO + self.warmup;
        let measure_end = self.measure_end();
        self.run_until(measure_start);
        self.mark_phase("measure");
        self.run_until(measure_end);
        // A hook may legitimately sit past the measurement window: run
        // the stragglers before stopping the clients, and never schedule
        // the stop into the past.
        self.advance_to(self.last_hook_at());
        self.mark_phase("drain");
        let stop_at = measure_end.max(self.system.engine.now());
        self.stop_clients_at(stop_at);
        let drain = self.drain;
        self.run_until(stop_at + drain);
        self.finish()
    }

    /// The latest registered hook instant (or the current time when no
    /// hooks are pending).
    fn last_hook_at(&self) -> SimTime {
        self.hooks
            .iter()
            .map(|h| h.at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.system.engine.now())
    }

    /// Audit the system as it stands and produce the [`Report`]
    /// (stepwise-API terminal; [`Run::execute`] ends here too).
    pub fn finish(mut self) -> Report {
        // Terminator mark: closes the last open phase.
        self.mark_phase("end");
        let system = &mut self.system;
        let lost_transactions = system.lost_transactions();
        let digests = system.convergence();
        let (abort_rate, aborts, timeouts, acked, lost_updates) = {
            let oracle = system.oracle.borrow();
            (
                oracle.abort_rate(),
                oracle.aborts,
                oracle.timeouts,
                oracle.acked_count(),
                verify::check_lost_updates(&oracle).len(),
            )
        };
        let technique = system.technique().label();
        let fingerprint = system.engine.fingerprint();
        let (gcs, batch_hist) = system.gcs_stats();

        // Read-path accounting: throughput over the measurement window
        // (mirroring `commits`), staleness and redirects over the whole
        // run — the oracle's tally, folded as the reads arrived.
        let measure_secs = self.measure.as_secs_f64().max(1e-9);
        let measure_start = SimTime::ZERO + self.warmup;
        let (tally, read_redirects) = {
            let oracle = system.oracle.borrow();
            (oracle.reads.tally().clone(), oracle.read_redirects())
        };
        let reads = tally.acked;
        let read_mean_ms = if reads == 0 {
            0.0
        } else {
            tally.ms_sum / reads as f64
        };
        let read_staleness = if tally.served == 0 {
            0.0
        } else {
            tally.lag_sum / tally.served as f64
        };

        // Snapshot-isolation accounting: certification outcomes recorded
        // by the delegates at delivery, whole run, split per group.
        let (txn_commits, txn_aborts, si_by_group) = {
            let oracle = system.oracle.borrow();
            let mut per_group = vec![(0usize, 0usize); system.n_groups.max(1) as usize];
            let mut commits = 0usize;
            let mut aborts = 0usize;
            for rec in oracle.si_txns.iter() {
                let slot = per_group.get_mut(rec.group as usize);
                if rec.committed {
                    commits += 1;
                    if let Some(s) = slot {
                        s.0 += 1;
                    }
                } else {
                    aborts += 1;
                    if let Some(s) = slot {
                        s.1 += 1;
                    }
                }
            }
            (commits, aborts, per_group)
        };

        // Per-group breakdown (sharded systems only): acked transactions
        // attributed to their owning group — the coordinator's group for
        // a cross-group commit — plus each group's abcast counters.
        let (groups, cross_group_commits, window_acks) = if system.n_groups > 1 {
            let spg = system.servers_per_group.max(1);
            // Count acknowledgements inside the measurement window only,
            // matching the top-level `commits`/`achieved_tps` (the oracle
            // also records warm-up and drain acks).
            let mut per_group = vec![0usize; system.n_groups as usize];
            let mut cross = 0usize;
            let window_acks = system.oracle.borrow().acked_in_window();
            {
                let oracle = system.oracle.borrow();
                for (txn, ack) in oracle.acked.iter() {
                    if ack.at < measure_start {
                        continue;
                    }
                    let g = if let Some(xg) = oracle.xg.get(&txn) {
                        cross += 1;
                        xg.coordinator_group
                    } else if let Some(c) = oracle.commits.get(txn) {
                        c.delegate().0 / spg
                    } else {
                        continue; // read-only: no durable owner
                    };
                    if let Some(slot) = per_group.get_mut(g as usize) {
                        *slot += 1;
                    }
                }
            }
            let groups = (0..system.n_groups)
                .map(|g| {
                    let (stats, hist) = system.gcs_stats_of(g);
                    let wire = system.net.domain_stats(g);
                    let gr = tally.group(g);
                    GroupStats {
                        group: g,
                        commits: per_group[g as usize],
                        achieved_tps: per_group[g as usize] as f64 / measure_secs,
                        reads: gr.acked,
                        read_tps: gr.acked as f64 / measure_secs,
                        read_redirects: (system.oracle.borrow().read_redirects_by_group)
                            .get(&g)
                            .copied()
                            .unwrap_or(0),
                        read_staleness: if gr.served == 0 {
                            0.0
                        } else {
                            gr.lag_sum / gr.served as f64
                        },
                        txn_commits: si_by_group[g as usize].0,
                        txn_aborts: si_by_group[g as usize].1,
                        abcast_batches: stats.batches_sent,
                        mean_batch_size: stats.mean_batch_size(),
                        votes_per_delivery: stats.votes_per_delivery(),
                        batch_hist: hist,
                        wire_sent: wire.sent,
                        wire_broadcasts: wire.broadcasts,
                    }
                })
                .collect();
            (groups, cross, window_acks)
        } else {
            (Vec::new(), 0, 0)
        };

        // Per-phase stats from the sample slices between marks. Samples
        // append in simulated-time order, so index ranges captured at the
        // boundaries segment the run exactly; compute before any quantile
        // call sorts the histogram in place. Each phase selects its
        // percentile inside its own range, which is disjoint from the
        // others', so nothing is copied.
        let mut phases = Vec::new();
        {
            let all = system
                .engine
                .metrics_mut()
                .histogram_mut("response_total_ms")
                .samples_mut();
            let len = all.len();
            for w in self.marks.windows(2) {
                let (label, from) = w[0];
                let (_, to) = w[1];
                let slice = &mut all[from.min(len)..to.min(len)];
                phases.push(PhaseStats::from_samples(label, slice));
            }
        }

        // Pipeline-phase decomposition from the structured event stream
        // (stream mode only; the ring flight recorder and the disabled
        // mode retain no stream, so the breakdown is empty). One global
        // row, plus one per replica group for sharded systems.
        let obs_phases = {
            let spans = decompose_commits(system.engine.obs().events());
            if spans.is_empty() {
                Vec::new()
            } else {
                let mut rows = vec![ObsPhaseStats::from_spans(None, spans.iter())];
                if system.n_groups > 1 {
                    for g in 0..system.n_groups {
                        rows.push(ObsPhaseStats::from_spans(
                            Some(g),
                            spans.iter().filter(|s| s.group == g),
                        ));
                    }
                }
                rows
            }
        };

        let h = system
            .engine
            .metrics_mut()
            .histogram_mut("response_total_ms");
        let commits = h.count();
        Report {
            technique,
            offered_tps: self.offered_tps,
            achieved_tps: commits as f64 / self.measure.as_secs_f64().max(1e-9),
            commits,
            acked,
            mean_ms: h.mean(),
            p50_ms: h.quantile(0.50),
            p95_ms: h.quantile(0.95),
            p99_ms: h.quantile(0.99),
            abort_rate,
            aborts,
            timeouts,
            lost: lost_transactions.len(),
            lost_transactions,
            distinct_states: digests.len(),
            digests,
            lost_updates,
            abcast_batches: gcs.batches_sent,
            mean_batch_size: gcs.mean_batch_size(),
            votes_per_delivery: gcs.votes_per_delivery(),
            batch_hist,
            cross_group_commits,
            cross_group_ratio: if window_acks > 0 {
                cross_group_commits as f64 / window_acks as f64
            } else {
                0.0
            },
            reads,
            read_tps: reads as f64 / measure_secs,
            read_mean_ms,
            read_redirects,
            read_staleness,
            txn_commits,
            txn_aborts,
            txn_abort_rate: if txn_commits + txn_aborts == 0 {
                0.0
            } else {
                txn_aborts as f64 / (txn_commits + txn_aborts) as f64
            },
            groups,
            phases,
            obs_phases,
            fingerprint,
        }
    }

    /// Consume the run and hand the raw system back (for audits the
    /// report does not cover).
    pub fn into_system(self) -> System {
        self.system
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Per-replica-group statistics of a sharded run.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Group id.
    pub group: u32,
    /// Acknowledged transactions owned by this group (cross-group
    /// commits count for their coordinator's group) inside the
    /// measurement window, like the top-level `commits`.
    pub commits: usize,
    /// `commits` over the measurement window length, tps.
    pub achieved_tps: f64,
    /// Read-only transactions acknowledged from this group inside the
    /// measurement window (all read paths).
    pub reads: usize,
    /// `reads` over the measurement window length, tps.
    pub read_tps: f64,
    /// Session reads this group's replicas answered with a redirect
    /// (whole run).
    pub read_redirects: u64,
    /// Mean `applied − snapshot` gap over this group's locally served
    /// reads, in delivery sequence numbers (whole run).
    pub read_staleness: f64,
    /// Snapshot-isolation transactions certified commit by this group's
    /// delegates (whole run).
    pub txn_commits: usize,
    /// Snapshot-isolation transactions certified abort by this group's
    /// delegates (whole run).
    pub txn_aborts: usize,
    /// Batch frames flushed by this group's sequencers.
    pub abcast_batches: u64,
    /// Mean messages per flushed frame.
    pub mean_batch_size: f64,
    /// Stability votes per delivered entry within the group.
    pub votes_per_delivery: f64,
    /// Batch-size histogram of the group.
    pub batch_hist: Vec<(u32, u64)>,
    /// Point-to-point deliveries sent from this group's domain.
    pub wire_sent: u64,
    /// Multicast operations from this group's domain.
    pub wire_broadcasts: u64,
}

/// Response-time statistics for one phase of a run.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label (`"measure"`, a hook label, `"drain"`, ...).
    pub label: &'static str,
    /// Commit acknowledgements recorded during the phase.
    pub commits: usize,
    /// Mean end-to-end response time, ms.
    pub mean_ms: f64,
    /// 95th-percentile response time, ms.
    pub p95_ms: f64,
}

impl PhaseStats {
    /// The phase's statistics, from its samples in recording order;
    /// leaves them reordered.
    fn from_samples(label: &'static str, samples: &mut [f64]) -> PhaseStats {
        if samples.is_empty() {
            return PhaseStats {
                label,
                commits: 0,
                mean_ms: 0.0,
                p95_ms: 0.0,
            };
        }
        // The mean sums the samples in recording order, before the
        // percentile selects in place. total_cmp: NaN-free total order,
        // no panic path (a NaN sample would rank last instead of
        // poisoning the percentile), and equal ranks are equal bits, so
        // selecting picks exactly what a full sort would put at that
        // rank.
        let mean_ms = samples.iter().sum::<f64>() / samples.len() as f64;
        let idx = ((0.95 * samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(samples.len() - 1);
        let (_, &mut p95_ms, _) = samples.select_nth_unstable_by(idx, f64::total_cmp);
        PhaseStats {
            label,
            commits: samples.len(),
            mean_ms,
            p95_ms,
        }
    }
}

/// Mean per-phase latency decomposition of committed transactions,
/// derived from the structured observability stream ([`CommitSpan`];
/// stream mode only). The four phases are consecutive — submit (client
/// send → delegate exec start), exec (local execution), commit
/// (broadcast → reply scheduled: ordering, stability, certification,
/// apply) and reply (reply → client ack) — so the phase means sum
/// exactly to the mean end-to-end latency of the spanned commits.
#[derive(Debug, Clone)]
pub struct ObsPhaseStats {
    /// Replica group the spans belong to (`None` for the global row).
    pub group: Option<u32>,
    /// Commit spans the means are over.
    pub commits: usize,
    /// Mean client-submit → exec-start latency, ms.
    pub submit_ms: f64,
    /// Mean local-execution latency, ms.
    pub exec_ms: f64,
    /// Mean broadcast → reply latency, ms.
    pub commit_ms: f64,
    /// Mean reply → client-ack latency, ms.
    pub reply_ms: f64,
}

impl ObsPhaseStats {
    fn from_spans<'a>(
        group: Option<u32>,
        spans: impl Iterator<Item = &'a CommitSpan>,
    ) -> ObsPhaseStats {
        let (mut n, mut su, mut ex, mut co, mut re) = (0usize, 0.0, 0.0, 0.0, 0.0);
        for s in spans {
            n += 1;
            su += s.submit_ms;
            ex += s.exec_ms;
            co += s.commit_ms;
            re += s.reply_ms;
        }
        let d = n.max(1) as f64;
        ObsPhaseStats {
            group,
            commits: n,
            submit_ms: su / d,
            exec_ms: ex / d,
            commit_ms: co / d,
            reply_ms: re / d,
        }
    }

    /// Mean end-to-end latency of the spanned commits; equals the sum of
    /// the four phase means by construction (each phase ends where the
    /// next begins).
    pub fn total_ms(&self) -> f64 {
        self.submit_ms + self.exec_ms + self.commit_ms + self.reply_ms
    }
}

/// The structured outcome of a [`Run`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Technique label (e.g. `"group-safe"`).
    pub technique: &'static str,
    /// Offered system load, when the [`Load`] implied one.
    pub offered_tps: Option<f64>,
    /// Committed throughput over the measurement window, tps.
    pub achieved_tps: f64,
    /// Commit acknowledgements inside the measurement window (the
    /// response-time sample count).
    pub commits: usize,
    /// All acknowledgements over the whole run (including warm-up).
    pub acked: usize,
    /// Mean end-to-end response time (submission to commit, including
    /// abort resubmissions), ms.
    pub mean_ms: f64,
    /// Median response time, ms.
    pub p50_ms: f64,
    /// 95th-percentile response time, ms.
    pub p95_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_ms: f64,
    /// Aborted attempts over answered attempts, whole run.
    pub abort_rate: f64,
    /// Total aborted attempts.
    pub aborts: u64,
    /// Client-observed timeouts (failovers).
    pub timeouts: u64,
    /// Acknowledged transactions missing from every live replica.
    pub lost: usize,
    /// The missing transactions themselves.
    pub lost_transactions: Vec<LostTransaction>,
    /// Distinct state digests across live replicas (1 = converged).
    pub distinct_states: usize,
    /// The digests themselves.
    pub digests: Vec<u64>,
    /// Lost updates among acknowledged commits (lazy anomaly, §7).
    pub lost_updates: usize,
    /// Atomic-broadcast batch frames flushed across the group (0 when
    /// batching is off or the technique uses no group communication).
    pub abcast_batches: u64,
    /// Mean messages per flushed batch frame (1.0 unbatched).
    pub mean_batch_size: f64,
    /// Stability-vote messages per delivered entry, both summed per-node
    /// over the whole group — the amortisation batching buys (1.0
    /// unbatched: one vote per node per entry; `≈ 1 / batch` batched).
    pub votes_per_delivery: f64,
    /// Batch-size histogram across the group: (size, frame count).
    pub batch_hist: Vec<(u32, u64)>,
    /// Acknowledged transactions that spanned more than one replica
    /// group, inside the measurement window (0 in unsharded runs).
    pub cross_group_commits: usize,
    /// `cross_group_commits` over the window's acknowledged
    /// transactions.
    pub cross_group_ratio: f64,
    /// Read-only transactions acknowledged inside the measurement
    /// window, over every read path (classic, broadcast and local).
    pub reads: usize,
    /// `reads` over the measurement window length, tps.
    pub read_tps: f64,
    /// Mean response time of the window's read-only transactions, ms.
    pub read_mean_ms: f64,
    /// Session reads a lagging replica answered with a redirect (whole
    /// run; local path only).
    pub read_redirects: u64,
    /// Mean `applied − snapshot` gap over locally served reads, in
    /// delivery sequence numbers (whole run; 0 when every read was
    /// served at the replica's applied head).
    pub read_staleness: f64,
    /// Snapshot-isolation transactions certified commit (whole run; 0
    /// when the mix contains none).
    pub txn_commits: usize,
    /// Snapshot-isolation transactions certified abort (whole run).
    pub txn_aborts: usize,
    /// `txn_aborts` over all certified snapshot-isolation transactions
    /// (0 when the mix contains none).
    pub txn_abort_rate: f64,
    /// Per-group breakdown (empty for unsharded systems — including the
    /// degenerate `shards(1)`, whose report matches the classic one
    /// field-for-field).
    pub groups: Vec<GroupStats>,
    /// Per-phase response-time breakdown.
    pub phases: Vec<PhaseStats>,
    /// Commit-pipeline latency decomposition from the structured
    /// observability stream (empty unless the run recorded in stream
    /// mode): one global row, then one per replica group when sharded.
    pub obs_phases: Vec<ObsPhaseStats>,
    /// The engine's dispatch fingerprint (determinism witness).
    pub fingerprint: u64,
}

impl Report {
    /// Version of the JSON rendering [`Report::to_json`] emits, bumped
    /// whenever a key is added, removed or changes meaning. Emitted as
    /// the object's first key so downstream consumers can dispatch on it
    /// before parsing the rest.
    pub const SCHEMA_VERSION: u32 = 2;

    /// True when nothing acknowledged was lost and all live replicas
    /// agree.
    pub fn is_safe_and_convergent(&self) -> bool {
        self.lost == 0 && self.distinct_states == 1
    }

    /// Render as a JSON object (hand-rolled; the workspace builds
    /// offline, without serde).
    pub fn to_json(&self) -> String {
        fn f(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".to_string()
            }
        }
        let mut s = String::from("{");
        s.push_str(&format!("\"schema_version\":{},", Report::SCHEMA_VERSION));
        s.push_str(&format!("\"technique\":\"{}\",", self.technique));
        match self.offered_tps {
            Some(t) => s.push_str(&format!("\"offered_tps\":{},", f(t))),
            None => s.push_str("\"offered_tps\":null,"),
        }
        s.push_str(&format!("\"achieved_tps\":{},", f(self.achieved_tps)));
        s.push_str(&format!("\"commits\":{},", self.commits));
        s.push_str(&format!("\"acked\":{},", self.acked));
        s.push_str(&format!("\"mean_ms\":{},", f(self.mean_ms)));
        s.push_str(&format!("\"p50_ms\":{},", f(self.p50_ms)));
        s.push_str(&format!("\"p95_ms\":{},", f(self.p95_ms)));
        s.push_str(&format!("\"p99_ms\":{},", f(self.p99_ms)));
        s.push_str(&format!("\"abort_rate\":{},", f(self.abort_rate)));
        s.push_str(&format!("\"aborts\":{},", self.aborts));
        s.push_str(&format!("\"timeouts\":{},", self.timeouts));
        s.push_str(&format!("\"lost\":{},", self.lost));
        s.push_str(&format!("\"distinct_states\":{},", self.distinct_states));
        s.push_str(&format!("\"lost_updates\":{},", self.lost_updates));
        s.push_str(&format!("\"abcast_batches\":{},", self.abcast_batches));
        s.push_str(&format!("\"mean_batch_size\":{},", f(self.mean_batch_size)));
        s.push_str(&format!(
            "\"votes_per_delivery\":{},",
            f(self.votes_per_delivery)
        ));
        s.push_str("\"batch_hist\":[");
        for (i, (size, count)) in self.batch_hist.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{size},{count}]"));
        }
        s.push_str("],");
        s.push_str(&format!(
            "\"cross_group_commits\":{},",
            self.cross_group_commits
        ));
        s.push_str(&format!(
            "\"cross_group_ratio\":{},",
            f(self.cross_group_ratio)
        ));
        s.push_str(&format!("\"reads\":{},", self.reads));
        s.push_str(&format!("\"read_tps\":{},", f(self.read_tps)));
        s.push_str(&format!("\"read_mean_ms\":{},", f(self.read_mean_ms)));
        s.push_str(&format!("\"read_redirects\":{},", self.read_redirects));
        s.push_str(&format!("\"read_staleness\":{},", f(self.read_staleness)));
        s.push_str(&format!("\"txn_commits\":{},", self.txn_commits));
        s.push_str(&format!("\"txn_aborts\":{},", self.txn_aborts));
        s.push_str(&format!("\"txn_abort_rate\":{},", f(self.txn_abort_rate)));
        s.push_str("\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"group\":{},\"commits\":{},\"achieved_tps\":{},\
                 \"reads\":{},\"read_tps\":{},\"read_redirects\":{},\
                 \"read_staleness\":{},\
                 \"txn_commits\":{},\"txn_aborts\":{},\
                 \"abcast_batches\":{},\"mean_batch_size\":{},\
                 \"votes_per_delivery\":{},\"wire_sent\":{},\"wire_broadcasts\":{}}}",
                g.group,
                g.commits,
                f(g.achieved_tps),
                g.reads,
                f(g.read_tps),
                g.read_redirects,
                f(g.read_staleness),
                g.txn_commits,
                g.txn_aborts,
                g.abcast_batches,
                f(g.mean_batch_size),
                f(g.votes_per_delivery),
                g.wire_sent,
                g.wire_broadcasts
            ));
        }
        s.push_str("],");
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"label\":\"{}\",\"commits\":{},\"mean_ms\":{},\"p95_ms\":{}}}",
                p.label,
                p.commits,
                f(p.mean_ms),
                f(p.p95_ms)
            ));
        }
        s.push_str("],");
        s.push_str("\"obs_phases\":[");
        for (i, p) in self.obs_phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let group = match p.group {
                Some(g) => g.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "{{\"group\":{},\"commits\":{},\"submit_ms\":{},\"exec_ms\":{},\
                 \"commit_ms\":{},\"reply_ms\":{},\"total_ms\":{}}}",
                group,
                p.commits,
                f(p.submit_ms),
                f(p.exec_ms),
                f(p.commit_ms),
                f(p.reply_ms),
                f(p.total_ms())
            ));
        }
        s.push_str("],");
        s.push_str(&format!("\"fingerprint\":\"{:#x}\"", self.fingerprint));
        s.push('}');
        s
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "technique              : {}", self.technique)?;
        if let Some(t) = self.offered_tps {
            writeln!(f, "offered load           : {t:.1} tps")?;
        }
        writeln!(
            f,
            "achieved throughput    : {:.2} tps ({} commits)",
            self.achieved_tps, self.commits
        )?;
        writeln!(
            f,
            "response time          : mean {:.1} ms, p50 {:.1}, p95 {:.1}, p99 {:.1}",
            self.mean_ms, self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        writeln!(
            f,
            "aborts                 : {} ({:.1} % of answered attempts)",
            self.aborts,
            self.abort_rate * 100.0
        )?;
        writeln!(f, "client timeouts        : {}", self.timeouts)?;
        writeln!(f, "lost transactions      : {}", self.lost)?;
        writeln!(
            f,
            "distinct replica states: {} (1 = converged)",
            self.distinct_states
        )?;
        writeln!(f, "lost updates           : {}", self.lost_updates)?;
        if self.abcast_batches > 0 {
            writeln!(
                f,
                "abcast batching        : {} frames, mean {:.1} msgs/frame, {:.2} votes/delivery",
                self.abcast_batches, self.mean_batch_size, self.votes_per_delivery
            )?;
        }
        if self.reads > 0 {
            writeln!(
                f,
                "read-only txns         : {} ({:.1} tps, mean {:.1} ms, {} redirects, \
                 staleness {:.2} seqs)",
                self.reads,
                self.read_tps,
                self.read_mean_ms,
                self.read_redirects,
                self.read_staleness
            )?;
        }
        if self.txn_commits + self.txn_aborts > 0 {
            writeln!(
                f,
                "snapshot txns          : {} committed, {} aborted ({:.1} % abort rate)",
                self.txn_commits,
                self.txn_aborts,
                self.txn_abort_rate * 100.0
            )?;
        }
        if !self.groups.is_empty() {
            writeln!(
                f,
                "cross-group commits    : {} ({:.1} % of acks)",
                self.cross_group_commits,
                self.cross_group_ratio * 100.0
            )?;
            for g in &self.groups {
                writeln!(
                    f,
                    "  group {:<2}             : {} commits ({:.1} tps), {:.2} votes/delivery",
                    g.group, g.commits, g.achieved_tps, g.votes_per_delivery
                )?;
            }
        }
        if self.phases.len() > 1 {
            for p in &self.phases {
                writeln!(
                    f,
                    "  phase {:<14} : {} commits, mean {:.1} ms, p95 {:.1} ms",
                    p.label, p.commits, p.mean_ms, p.p95_ms
                )?;
            }
        }
        if !self.obs_phases.is_empty() {
            writeln!(f, "pipeline decomposition : (mean ms per commit span)")?;
            for p in &self.obs_phases {
                let scope = match p.group {
                    None => "all".to_string(),
                    Some(g) => format!("group {g}"),
                };
                writeln!(
                    f,
                    "  {:<21}: submit {:.2} + exec {:.2} + commit {:.2} + reply {:.2} \
                     = {:.2} ms ({} spans)",
                    scope,
                    p.submit_ms,
                    p.exec_ms,
                    p.commit_ms,
                    p.reply_ms,
                    p.total_ms(),
                    p.commits
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// Selecting the 95th percentile picks the bits a full sort puts
        /// at that rank, and the mean sums in recording order: signed
        /// zeros, ties and NaNs included.
        #[test]
        fn phase_stats_select_what_a_sort_would(
            samples in proptest::collection::vec(
                proptest::prop_oneof![
                    0.0f64..5_000.0,
                    proptest::strategy::Just(0.0),
                    proptest::strategy::Just(-0.0),
                    proptest::strategy::Just(f64::NAN),
                    proptest::strategy::Just(17.25),
                ],
                1..300,
            )
        ) {
            let stats = PhaseStats::from_samples("measure", &mut samples.clone());
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let idx = ((0.95 * sorted.len() as f64).ceil() as usize)
                .saturating_sub(1)
                .min(sorted.len() - 1);
            proptest::prop_assert_eq!(stats.p95_ms.to_bits(), sorted[idx].to_bits());
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            proptest::prop_assert_eq!(stats.mean_ms.to_bits(), mean.to_bits());
            proptest::prop_assert_eq!(stats.commits, samples.len());
        }

        /// Phases selected in place, one after the other in the one
        /// sample buffer, give the bits the copying selection gave each
        /// phase: the mean is summed before the phase's range is
        /// reordered, and no phase disturbs another's samples.
        #[test]
        fn phase_stats_in_place_match_a_copy_per_phase(
            samples in proptest::collection::vec(0.001f64..5_000.0, 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..5),
        ) {
            /// The selection before it worked in place: on a copy.
            fn from_a_copy(samples: &[f64]) -> (usize, u64, u64) {
                if samples.is_empty() {
                    return (0, 0.0f64.to_bits(), 0.0f64.to_bits());
                }
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                let idx = ((0.95 * samples.len() as f64).ceil() as usize)
                    .saturating_sub(1)
                    .min(samples.len() - 1);
                let mut ranked = samples.to_vec();
                let (_, &mut p95, _) = ranked.select_nth_unstable_by(idx, f64::total_cmp);
                (samples.len(), mean.to_bits(), p95.to_bits())
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(samples.len())).collect();
            bounds.push(0);
            bounds.push(samples.len());
            bounds.sort_unstable();
            let mut buffer = samples.clone();
            for w in bounds.windows(2) {
                let stats = PhaseStats::from_samples("phase", &mut buffer[w[0]..w[1]]);
                let got = (stats.commits, stats.mean_ms.to_bits(), stats.p95_ms.to_bits());
                proptest::prop_assert_eq!(got, from_a_copy(&samples[w[0]..w[1]]));
            }
        }
    }

    #[test]
    fn zero_servers_is_a_typed_error() {
        assert_eq!(
            System::builder().servers(0).build().err(),
            Some(BuildError::NoServers)
        );
    }

    #[test]
    fn a_group_wider_than_the_vote_bitmask_is_a_typed_error() {
        let max = MAX_GROUP_SIZE;
        assert_eq!(
            System::builder().servers(max as u32 + 1).build().err(),
            Some(BuildError::GroupTooWide {
                servers: max as u32 + 1,
                max
            })
        );
        // The widest group itself is accepted (servers count per group).
        assert!(System::builder().servers(max as u32).build().is_ok());
    }

    #[test]
    fn a_dsm_technique_without_a_variant_is_a_typed_error() {
        assert_eq!(
            System::builder()
                .technique(Technique::Dsm(SafetyLevel::OneSafe))
                .build()
                .err(),
            Some(BuildError::NoDsmVariant {
                level: SafetyLevel::OneSafe
            })
        );
    }

    #[test]
    fn the_workload_owns_the_item_space() {
        let items = |b: SystemBuilder| {
            let run = b
                .servers(3)
                .clients_per_server(1)
                .db(DbConfig {
                    n_items: 500,
                    ..ReplicaConfig::default().db
                })
                .build()
                .expect("valid");
            run.system().server(0).db().config().n_items
        };
        // The built-in generator: the workload spec's item space wins.
        assert_eq!(items(System::builder()), WorkloadSpec::table4().n_items);
        // A custom generator: `.db(..)` sets it.
        let custom = System::builder().generator(|_| {
            WorkloadSpec {
                n_items: 500,
                ..WorkloadSpec::table4()
            }
            .generator()
        });
        assert_eq!(items(custom), 500);
    }

    #[test]
    fn zero_clients_is_a_typed_error() {
        assert_eq!(
            System::builder().clients_per_server(0).build().err(),
            Some(BuildError::NoClients)
        );
    }

    #[test]
    fn zero_tps_is_a_typed_error() {
        let err = System::builder()
            .load(Load::open_tps(0.0))
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, BuildError::NonPositiveLoad { .. }), "{err}");
        let err = System::builder()
            .load(Load::closed_tps(-3.0))
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, BuildError::NonPositiveLoad { .. }), "{err}");
    }

    #[test]
    fn bad_workload_is_a_typed_error() {
        let err = System::builder()
            .workload(WorkloadSpec {
                n_items: 0,
                ..WorkloadSpec::table4()
            })
            .build()
            .err();
        assert_eq!(err, Some(BuildError::EmptyDatabase));
        let err = System::builder()
            .workload(WorkloadSpec {
                txn_len_min: 9,
                txn_len_max: 3,
                ..WorkloadSpec::table4()
            })
            .build()
            .err();
        assert_eq!(err, Some(BuildError::BadTxnLength { min: 9, max: 3 }));
        let err = System::builder()
            .workload(WorkloadSpec {
                write_probability: 1.5,
                ..WorkloadSpec::table4()
            })
            .build()
            .err();
        assert!(matches!(err, Some(BuildError::BadProbability { .. })));
    }

    #[test]
    fn generated_lengths_mix_and_items_match_table4() {
        use rand::SeedableRng;
        let spec = WorkloadSpec::table4();
        let mut rng = StdRng::seed_from_u64(1);
        let mut writes = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let ops = spec.generate_txn(&mut rng);
            assert!((10..=20).contains(&ops.len()), "len {}", ops.len());
            assert!(ops.iter().all(|o| o.item().0 < spec.n_items));
            writes += ops.iter().filter(|o| o.is_write()).count();
            total += ops.len();
        }
        let ratio = writes as f64 / total as f64;
        assert!((0.45..=0.55).contains(&ratio), "write ratio {ratio}");
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        use rand::SeedableRng;
        let spec = WorkloadSpec {
            hot_access_fraction: 0.8,
            hot_set_fraction: 0.1,
            ..WorkloadSpec::table4()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let hot_limit = (spec.n_items as f64 * spec.hot_set_fraction) as u32;
        let ops: Vec<Operation> = (0..300).flat_map(|_| spec.generate_txn(&mut rng)).collect();
        let hot = ops.iter().filter(|o| o.item().0 < hot_limit).count();
        let frac = hot as f64 / ops.len() as f64;
        assert!(frac > 0.7, "hot fraction {frac}");
    }

    #[test]
    fn safety_level_selects_the_technique() {
        let b = System::builder().safety(SafetyLevel::OneSafe);
        assert_eq!(b.replica.technique, Technique::Lazy);
        let b = System::builder().safety(SafetyLevel::TwoSafe);
        assert_eq!(b.replica.technique, Technique::Dsm(SafetyLevel::TwoSafe));
    }

    #[test]
    fn small_run_executes_and_reports() {
        let report = System::builder()
            .servers(3)
            .clients_per_server(2)
            .safety(SafetyLevel::GroupSafe)
            .load(Load::open_tps(10.0))
            .warmup(SimDuration::from_secs(1))
            .measure(SimDuration::from_secs(4))
            .drain(SimDuration::from_secs(2))
            .seed(7)
            .build()
            .expect("valid config")
            .execute();
        assert!(report.commits > 10, "commits {}", report.commits);
        assert!(report.is_safe_and_convergent(), "{report}");
        assert!(report.mean_ms > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"technique\":\"group-safe\""), "{json}");
        assert!(json.contains("\"phases\":["), "{json}");
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let run = || {
            System::builder()
                .servers(3)
                .clients_per_server(2)
                .load(Load::open_tps(12.0))
                .measure(SimDuration::from_secs(3))
                .drain(SimDuration::from_secs(1))
                .seed(99)
                .build()
                .expect("valid")
                .execute()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.digests, b.digests);
    }

    #[test]
    fn hooks_after_the_measure_window_do_not_panic() {
        let mut run = System::builder()
            .servers(3)
            .clients_per_server(1)
            .load(Load::open_tps(8.0))
            .measure(SimDuration::from_secs(2))
            .drain(SimDuration::from_secs(1))
            .seed(5)
            .build()
            .expect("valid");
        // Later than warmup + measure: the lifecycle must push the
        // stop/drain window out instead of scheduling into the past.
        run.hook_at(SimTime::from_secs(4), "late", |_| {});
        let report = run.execute();
        assert!(report.commits > 0);
        assert_eq!(report.phases.last().expect("phases").label, "drain");
    }

    #[test]
    fn hooks_fire_by_timestamp_then_insertion() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let log = |tag: &'static str| {
            let order = order.clone();
            move |_: &mut System| order.borrow_mut().push(tag)
        };
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        // Registered out of time order, with a tie at t2: must fire as
        // (timestamp, then insertion) = late-a, early, late-b.
        let mut run = System::builder()
            .servers(3)
            .clients_per_server(1)
            .load(Load::open_tps(5.0))
            .measure(SimDuration::from_secs(3))
            .drain(SimDuration::from_secs(1))
            .seed(17)
            .build()
            .expect("valid");
        run.hook_at(t2, "late-a", log("late-a"));
        run.hook_at(t1, "early", log("early"));
        run.hook_at(t2, "late-b", log("late-b"));
        let report = run.execute();
        assert_eq!(*order.borrow(), vec!["early", "late-a", "late-b"]);
        assert!(report.commits > 0);
    }

    #[test]
    fn hooks_fire_under_the_stepwise_api_too() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let fired: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mark = |tag: &'static str| {
            let fired = fired.clone();
            move |_: &mut System| fired.borrow_mut().push(tag)
        };
        let mut run = System::builder()
            .servers(3)
            .clients_per_server(1)
            .load(Load::open_tps(5.0))
            .measure(SimDuration::from_secs(3))
            .seed(19)
            .build()
            .expect("valid");
        run.hook_at(SimTime::from_millis(1_500), "mid", mark("mid"));
        run.hook_at(SimTime::from_millis(2_500), "later", mark("later"));
        run.run_until(SimTime::from_secs(1));
        assert!(fired.borrow().is_empty(), "no hook is due yet");
        run.run_until(SimTime::from_secs(2));
        assert_eq!(*fired.borrow(), vec!["mid"], "due hooks fire in run_until");
        run.run_until(SimTime::from_secs(3));
        assert_eq!(*fired.borrow(), vec!["mid", "later"]);
    }

    #[test]
    fn scenario_plan_targets_are_validated() {
        let err = System::builder()
            .servers(3)
            .scenario(crate::scenario::ScenarioPlan::new().crash(SimTime::from_secs(1), 9))
            .build()
            .err();
        assert_eq!(
            err,
            Some(BuildError::FaultTargetOutOfRange {
                server: 9,
                n_servers: 3
            })
        );
        let err = System::builder()
            .servers(3)
            .scenario(crate::scenario::ScenarioPlan::new().loss_burst(
                SimTime::from_secs(1),
                1.5,
                SimDuration::from_millis(100),
            ))
            .build()
            .err();
        assert!(matches!(err, Some(BuildError::BadProbability { .. })));
        let err = System::builder()
            .servers(3)
            .scenario(crate::scenario::ScenarioPlan::new().slow_disk(
                SimTime::from_secs(1),
                vec![0],
                0.0,
                SimDuration::from_millis(100),
            ))
            .build()
            .err();
        assert!(matches!(err, Some(BuildError::BadScenario { .. })));
    }
}
