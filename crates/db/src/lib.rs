//! # groupsafe-db — the local database engine
//!
//! The paper assumes each server hosts a database component providing
//! local ACID execution, serialisability, and testable transactions
//! (§2.2). This crate is that substrate, built on the simulated resources
//! of [`groupsafe_sim`]:
//!
//! * [`BufferPool`] — Table 4's probabilistic 20 %-hit buffer plus a real
//!   LRU variant for ablations,
//! * [`LockManager`] — strict two-phase locking with wait-for-graph
//!   deadlock detection,
//! * [`Wal`] — write-ahead log with group commit, forced by the host
//!   per safety level (background flushes are the optimisation
//!   group-safety legitimises), stored as a
//!   [`Ragged`](groupsafe_sim::Ragged) log,
//! * [`TxnSet`] — the committed-transaction table as a paged bitmap
//!   over each client's own transaction counter, and [`TxnTable`], one
//!   value per transaction found through a presence mask and packed
//!   positions per page (a bit per id, 4 bytes per stored id: the run
//!   oracle's acknowledgement and commit tables),
//! * [`DbEngine`] — operation execution with simulated timing, exactly-
//!   once commits (testable transactions), WAL-redo crash recovery,
//!   checkpoints for state transfer, and state digests for replica-
//!   consistency verification.

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

pub mod buffer;
pub mod engine;
pub mod lock;
pub mod txnset;
pub mod txntable;
pub mod types;
mod versions;
pub mod wal;

pub use buffer::{BufferAccess, BufferModel, BufferPool, BufferStats, ITEMS_PER_PAGE};
pub use engine::{
    CommitResult, DbCheckpoint, DbConfig, DbEngine, DbStats, ReadResult, CPU_PER_IO, CPU_PER_OP,
};
pub use lock::{LockManager, LockMode, LockOutcome};
pub use txnset::TxnSet;
pub use txntable::TxnTable;
pub use types::{ItemId, ItemState, Operation, TxnId, Value, Version, WriteOp};
pub use wal::{Lsn, Wal, WalKind, WalStats};
