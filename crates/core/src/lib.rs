//! # groupsafe-core — the paper's contribution
//!
//! Group-safe database replication (Wiesmann & Schiper, EDBT 2004):
//!
//! * [`SafetyLevel`] — the taxonomy of §2.1 and §5 with Tables 1–3 as
//!   executable functions,
//! * [`certify`](mod@certify) — the database state machine's
//!   deterministic certification,
//! * [`ReplicaServer`] — update-everywhere, non-voting, single-network-
//!   interaction replication over atomic broadcast, with the reply point
//!   parameterised by safety level (0-safe, group-safe, group-1-safe,
//!   2-safe over end-to-end atomic broadcast), plus the lazy (1-safe)
//!   baseline with asynchronous propagation,
//! * [`Client`] — open/closed-loop clients with abort resubmission and
//!   timeout failover,
//! * [`verify`] — the oracle and the lost-transaction / convergence /
//!   lost-update checks,
//! * [`System`] — one-call assembly of a full replicated database,
//! * [`builder`] — the fluent [`SystemBuilder`] → [`Run`] → [`Report`]
//!   API: one declarative entry point over system wiring, the
//!   warm-up / measure / stop-clients / drain lifecycle, and structured
//!   results,
//! * [`scenario`] — the deterministic fault-scenario engine: declarative
//!   [`ScenarioPlan`] timelines (crashes, partitions, sequencer kills,
//!   network bursts, slow disks, group-targeted events), the
//!   per-safety-level oracle ([`audit_scenario`], with per-group loss
//!   rules and the cross-group atomicity digest) and the seeded
//!   scenario fuzzer ([`scenario::fuzz`]),
//! * [`shard`] — key-routed sharding over `N` independent replica
//!   groups: the [`ShardMap`] router (hash/range strategies), the
//!   sharded workload generator, and — in [`server`] — the ordered
//!   two-phase cross-group commit protocol layered on the per-group
//!   atomic broadcasts,
//! * [`reads`] — the local read path: follower reads at any replica
//!   under three freshness levels tied to the safety spectrum
//!   ([`ReadLevel::Stable`] at the group-stable watermark,
//!   [`ReadLevel::Session`] with per-group session tokens and
//!   bounded-wait redirects, [`ReadLevel::Latest`]), the broadcast-read
//!   baseline, and the read-freshness oracle ([`audit_reads`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism contract GS-P02/GS-P03: a panic in a protocol crate is a
// correctness bug the paper's crash model does not have.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod builder;
pub mod certify;
pub mod client;
pub mod msg;
pub mod reads;
pub mod safety;
pub mod scenario;
pub mod server;
pub mod shard;
pub mod system;
pub mod verify;

pub use builder::{
    BuildError, GroupStats, Load, ObsPhaseStats, PhaseStats, Report, Run, SystemBuilder,
    WorkloadSpec,
};

/// Stable `u64` encoding of a [`groupsafe_db::TxnId`] for observability
/// events ([`groupsafe_sim::ObsEvent`] keys transactions by a single
/// integer). Client ids are small and sequence numbers are per-client,
/// so `client << 40 ^ seq` is collision-free for any simulated run and
/// renders compactly.
#[inline]
pub fn obs_txn(id: groupsafe_db::TxnId) -> u64 {
    (u64::from(id.client) << 40) ^ id.seq
}
pub use certify::{certify, certify_snapshot, certify_versions, Certification};
pub use client::{Client, ClientConfig, LoadModel, OpGenerator, TxnPlan};
pub use groupsafe_gcs::BatchConfig;
pub use msg::{
    ClientEvent, ClientMsg, CoreMsg, DsmMsg, GroupMsg, LazyPropagation, LoggedConfirm, ServerEvent,
    ServerReply, TxnRequest, XgDecision, XgPrepare, XgVote,
};
pub use reads::{
    audit_reads, ReadLevel, ReadPath, ReadReply, ReadRequest, ReadViolation, READ_MAX_WAIT,
};
pub use safety::{table1, Guarantee, SafetyLevel};
pub use scenario::{
    audit_scenario, reconcile_restart, OracleViolation, ScenarioAudit, ScenarioEvent, ScenarioPlan,
    ScenarioStep,
};
pub use server::{
    RWire, ReplicaConfig, ReplicaServer, RestartServerCmd, Technique, DISKS_PER_SERVER,
};
pub use shard::{sharded_generator, ShardError, ShardMap, ShardSpec, ShardStrategy};
pub use system::System;
pub use verify::{
    check_convergence, check_lost_updates, check_no_loss, LostTransaction, LostUpdate, Oracle,
    SiLog, SiOutcome, SiRecord, SiView, XgRecord,
};
