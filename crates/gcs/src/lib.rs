//! # groupsafe-gcs — group communication for the group-safety reproduction
//!
//! Implements the paper's group communication component (Wiesmann &
//! Schiper, EDBT 2004, §2.3–§4):
//!
//! * fixed-sequencer **atomic broadcast** with uniform ("safe") or
//!   non-uniform delivery over one ordering pipeline: the sequencer
//!   ships ordered entries in `Ordered` frames, and receivers persist a
//!   frame with a single stable-log write and vote for it with one
//!   `Ack`. Unbatched, every frame holds one entry; **batching**
//!   ([`BatchConfig`]) packs pending broadcasts into larger frames,
//!   amortising the per-transaction ordering cost without changing the
//!   total order,
//! * the **dynamic crash no-recovery** model: views, heartbeat failure
//!   detection, virtual-synchrony flush on view changes, join with
//!   checkpoint **state transfer**,
//! * the **static crash-recovery** model: persistent entry log, write-ahead
//!   delivery marks, catch-up after recovery,
//! * the paper's proposed **end-to-end atomic broadcast** (§4): application
//!   `ack(m)` tracking and redelivery of unacknowledged messages after
//!   recovery, with the refined uniform integrity property,
//! * runtime **property checkers** for validity, uniform agreement,
//!   uniform integrity (both flavours), uniform total order and the
//!   end-to-end property,
//! * the green/yellow/red **process classes** of §2.3.

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

pub mod config;
pub mod endpoint;
pub mod harness;
mod idtable;
pub mod message;
pub mod output;
pub mod process;
pub mod properties;
mod seqlog;
pub mod view;

pub use config::{BatchConfig, DeliveryGuarantee, GcsConfig, GcsModel};
pub use endpoint::{GcsEndpoint, GcsMessage, GcsStats};
pub use message::{Entry, GcsTimer, MsgId, Wire};
pub use output::GcsOutput;
pub use process::{classify, LifecycleEvent, ProcessClass};
pub use properties::{DeliveryRecord, RunObservation, Violation};
pub use seqlog::MAX_GROUP_SIZE;
pub use view::View;
