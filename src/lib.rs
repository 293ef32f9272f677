//! # groupsafe — group-safe database replication
//!
//! Facade crate for the reproduction of *"Beyond 1-Safety and 2-Safety for
//! Replicated Databases: Group-Safety"* (Wiesmann & Schiper, EDBT 2004).
//!
//! Re-exports the whole workspace under stable module paths:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel,
//! * [`net`] — simulated LAN,
//! * [`gcs`] — group communication (atomic broadcast, end-to-end atomic
//!   broadcast, views, recovery),
//! * [`db`] — local database engine (buffer pool, 2PL, WAL, recovery),
//! * [`core`] — the paper's contribution: safety criteria, the database
//!   state machine replication technique, the lazy baseline, verification,
//! * [`workload`] — the Table 1–3 crash experiments (`CrashScenario`).
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use groupsafe_core as core;
pub use groupsafe_db as db;
pub use groupsafe_gcs as gcs;
pub use groupsafe_net as net;
pub use groupsafe_sim as sim;
pub use groupsafe_workload as workload;
