//! The four workloads: configuration, rate ladder, reference rate, SLO.
//!
//! Every workload runs the open-loop Poisson client of the simulator
//! itself (`Load::open_tps`) at `SafetyLevel::GroupSafe`. Each knob an
//! environment profile (`GROUPSAFE_*`) could override is set explicitly,
//! so the benchmark measures the same system whatever the environment.

use groupsafe_bench::{ordering_bound_workload, read_bound_workload};
use groupsafe_core::{
    BatchConfig, Load, ReadLevel, ReadPath, ReplicaConfig, SafetyLevel, ScenarioPlan, System,
    SystemBuilder, WorkloadSpec,
};
use groupsafe_db::{BufferModel, DbConfig};
use groupsafe_sim::{ObsConfig, SimDuration, SimTime};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Offered rates of the ladder pass, ascending; empty = no ladder.
    pub ladder: &'static [f64],
    /// The reference rate latencies and wall cost are measured at.
    pub ref_tps: f64,
    /// Latency limit on the tail percentile a sustained rung must meet.
    pub slo_ms: f64,
    /// The SLO is on read-only transactions (else on updates).
    pub slo_on_reads: bool,
    pub warmup_s: f64,
    /// Measurement window of one ladder rung.
    pub rung_s: f64,
    pub drain_s: f64,
    /// Measurement window of the reference-rate runs.
    pub long_s: f64,
    /// Seeds run back to back in one reference pass.
    pub ref_seeds: u64,
    pub servers_per_group: u32,
    pub groups: u32,
}

pub const TABLE4: Workload = Workload {
    name: "table4",
    why: "The paper's Table 4 system in its Fig. 9 load range: execution (db) dominates a commit and periodic timers dominate the event count",
    ladder: &[20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0],
    ref_tps: 30.0,
    slo_ms: 1000.0,
    slo_on_reads: false,
    warmup_s: 5.0,
    rung_s: 60.0,
    drain_s: 5.0,
    long_s: 600.0,
    ref_seeds: 1,
    servers_per_group: 9,
    groups: 1,
};

pub const ORDERING: Workload = Workload {
    name: "ordering",
    why: "Short blind writes: atomic broadcast, the wire and the event kernel dominate a commit, the database does little",
    ladder: &[500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0, 2500.0],
    ref_tps: 1000.0,
    slo_ms: 100.0,
    slo_on_reads: false,
    warmup_s: 1.0,
    rung_s: 3.0,
    drain_s: 2.0,
    long_s: 30.0,
    ref_seeds: 1,
    servers_per_group: 9,
    groups: 1,
};

pub const READMIX: Workload = Workload {
    name: "readmix",
    why: "90 % session follower reads beside snapshot-isolation writes: MVCC reads, pruning and session tokens, almost no broadcast",
    ladder: &[200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 1000.0],
    ref_tps: 400.0,
    slo_ms: 250.0,
    slo_on_reads: true,
    warmup_s: 5.0,
    rung_s: 20.0,
    drain_s: 2.0,
    long_s: 800.0,
    ref_seeds: 1,
    servers_per_group: 3,
    groups: 1,
};

pub const SHARDFAULT: Workload = Workload {
    name: "shardfault",
    why: "Four shards through a pinned fault plan: cross-group commit, view change, state transfer and recovery, with requests due during the outages counted",
    ladder: &[],
    ref_tps: 2000.0,
    slo_ms: f64::INFINITY,
    slo_on_reads: false,
    warmup_s: 1.0,
    rung_s: 19.0,
    drain_s: 4.0,
    long_s: 19.0,
    ref_seeds: 3,
    servers_per_group: 3,
    groups: 4,
};

// The pinned `shardfault` plan (simulated seconds): group 0 loses its
// sequencer for 2 s, server 4 (group 1) crashes for 3 s, one member of
// group 2 is partitioned away for 2 s.
const KILL_AT_S: f64 = 4.0;
const KILL_DOWN_S: f64 = 2.0;
const CRASH_AT_S: f64 = 8.0;
const CRASH_DOWN_S: f64 = 3.0;
const PARTITION_AT_S: f64 = 12.0;
const HEAL_AT_S: f64 = 14.0;

pub const ALL: [&Workload; 4] = [&TABLE4, &ORDERING, &READMIX, &SHARDFAULT];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

pub fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

pub fn at(s: f64) -> SimTime {
    SimTime::ZERO + secs(s)
}

impl Workload {
    pub fn has_faults(&self) -> bool {
        self.name == SHARDFAULT.name
    }

    /// Total servers across every group.
    pub fn servers(&self) -> u32 {
        self.servers_per_group * self.groups
    }

    /// The transaction shape the built-in generator draws from.
    pub fn spec(&self) -> WorkloadSpec {
        match self.name {
            "table4" => WorkloadSpec::table4(),
            "readmix" => WorkloadSpec {
                txn_fraction: 0.5,
                txn_ops_min: 3,
                txn_ops_max: 6,
                ..read_bound_workload(0.9)
            },
            _ => ordering_bound_workload(),
        }
    }

    /// True when read-only transactions take the local read path.
    pub fn local_reads(&self) -> bool {
        self.name == READMIX.name
    }

    /// The engine configuration of one replica, as the builder resolves
    /// it: the local read path and snapshot transactions switch the
    /// multi-version store on at depth 64.
    pub fn db_config(&self) -> DbConfig {
        let spec = self.spec();
        let base = if self.local_reads() {
            // Mostly cached, as in the `reads` bench: the ordering round,
            // not the data disks, is what a local read skips.
            DbConfig {
                buffer: BufferModel::Probabilistic { hit_ratio: 0.95 },
                ..DbConfig::default()
            }
        } else {
            ReplicaConfig::default().db
        };
        DbConfig {
            n_items: spec.n_items,
            mvcc_depth: if self.local_reads() || spec.txn_fraction > 0.0 {
                64
            } else {
                0
            },
            ..base
        }
    }

    /// The pinned fault plan (empty except on `shardfault`).
    pub fn plan(&self) -> ScenarioPlan {
        if !self.has_faults() {
            return ScenarioPlan::new();
        }
        ScenarioPlan::new()
            .kill_sequencer_in(at(KILL_AT_S), 0, Some(secs(KILL_DOWN_S)))
            .crash_for(at(CRASH_AT_S), 4, secs(CRASH_DOWN_S))
            .partition_group(at(PARTITION_AT_S), 2, vec![2])
            .heal(at(HEAL_AT_S))
    }

    /// Every scripted disturbance and recovery instant of the plan (ns):
    /// where a view change or a state transfer seen in the event stream
    /// is taken to have begun.
    pub fn fault_instants_ns(&self) -> Vec<u64> {
        if !self.has_faults() {
            return Vec::new();
        }
        [
            KILL_AT_S,
            KILL_AT_S + KILL_DOWN_S,
            CRASH_AT_S,
            CRASH_AT_S + CRASH_DOWN_S,
            PARTITION_AT_S,
            HEAL_AT_S,
        ]
        .iter()
        .map(|&s| at(s).as_nanos())
        .collect()
    }

    /// The system at `tps`, measuring for `measure_s` simulated seconds.
    pub fn builder(&self, tps: f64, seed: u64, measure_s: f64, obs: ObsConfig) -> SystemBuilder {
        let spec = self.spec();
        let b = System::builder()
            .safety(SafetyLevel::GroupSafe)
            .servers(self.servers_per_group)
            .shards(self.groups)
            .batching(BatchConfig::unbatched())
            .txn_fraction(spec.txn_fraction)
            .workload(spec)
            .load(Load::open_tps(tps))
            .seed(seed)
            .warmup(secs(self.warmup_s))
            .measure(secs(measure_s))
            .drain(secs(self.drain_s))
            .observe(obs)
            .scenario(self.plan());
        match self.name {
            "table4" => b
                .clients_per_server(4)
                .read_path(ReadPath::Classic)
                .client_timeout(secs(5.0)),
            "ordering" => b.clients_per_server(4).read_path(ReadPath::Classic),
            "readmix" => b
                .clients_per_server(6)
                .read_path(ReadPath::Local(ReadLevel::Session))
                .db(self.db_config()),
            _ => b
                .clients_per_server(4)
                .read_path(ReadPath::Classic)
                .cross_shard_fraction(0.05)
                .client_timeout(secs(2.0)),
        }
    }
}
