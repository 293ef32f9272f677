//! # groupsafe-sim — deterministic discrete-event simulation kernel
//!
//! The substrate for the group-safety reproduction (Wiesmann & Schiper,
//! EDBT 2004). The paper's evaluation runs on a CSIM-style replicated
//! database simulator; this crate is our equivalent: a single-threaded,
//! fully deterministic discrete-event engine with
//!
//! * virtual time ([`SimTime`], [`SimDuration`]),
//! * an actor model with crash/recovery semantics matching the paper's
//!   process model ([`Engine`], [`Actor`], [`Ctx`]), generic over one
//!   message type per system ([`Message`], [`Wrap`]),
//! * analytic FCFS queueing resources for CPUs ([`Fcfs`]) and disks
//!   ([`Disk`], Table 4 parameters),
//! * block-wise storage for append-only logs ([`BlockVec`]), logs of
//!   records with variable-length bodies over it ([`Ragged`]) and paged
//!   storage for tables indexed by a dense id ([`WordPages`]),
//! * metrics ([`Metrics`], [`Histogram`]) and deterministic structured
//!   observability ([`ObsEvent`], [`Obs`], [`obs`]): typed pipeline
//!   events, a bounded flight recorder, and byte-stable exporters.
//!
//! Determinism is a hard invariant: one seed, one dispatch sequence
//! ([`Engine::fingerprint`]), so every experiment in the paper can be
//! replayed bit-for-bit.

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

pub mod blockvec;
pub mod disk;
pub mod engine;
pub mod fnv;
pub mod metrics;
pub mod obs;
pub mod ragged;
pub mod resource;
pub mod time;
pub mod wordpages;

pub use blockvec::BlockVec;
pub use disk::{Disk, DiskConfig, DiskStats};
pub use engine::{Actor, ActorId, AsAny, Ctx, Engine, Kind, Message, Payload, Watch, Wrap};
pub use fnv::Fnv64;
pub use metrics::{Histogram, Metrics};
pub use obs::{
    decompose_commits, prometheus_snapshot, CommitSpan, Obs, ObsConfig, ObsEvent, ObsMode,
    ObsRecord,
};
pub use ragged::{Body, Extent, Ragged};
pub use resource::Fcfs;
pub use time::{SimDuration, SimTime};
pub use wordpages::WordPages;
