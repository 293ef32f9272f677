//! # groupsafe-net — simulated LAN for the group-safety reproduction
//!
//! Models the network of the paper's Table 4: a 100 Mb/s LAN where a
//! message or broadcast takes 0.07 ms on the wire and costs 0.07 ms of CPU
//! at each endpoint. Supports partitions and probabilistic loss for fault
//! injection. Messages to crashed nodes are lost (the kernel's incarnation
//! check), matching the paper's failure model.

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

pub mod network;
pub mod node;

pub use network::{Incoming, NetConfig, NetStats, Network, NET_CPU};
pub use node::NodeId;
