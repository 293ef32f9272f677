//! # groupsafe-sim — deterministic discrete-event simulation kernel
//!
//! The substrate for the group-safety reproduction (Wiesmann & Schiper,
//! EDBT 2004). The paper's evaluation runs on a CSIM-style replicated
//! database simulator; this crate is our equivalent: a single-threaded,
//! fully deterministic discrete-event engine with
//!
//! * virtual time ([`SimTime`], [`SimDuration`]),
//! * an actor model with crash/recovery semantics matching the paper's
//!   process model ([`Engine`], [`Actor`], [`Ctx`]),
//! * analytic FCFS queueing resources for CPUs ([`Fcfs`]) and disks
//!   ([`Disk`], Table 4 parameters),
//! * block-wise storage for logs that only grow ([`BlockVec`]) and paged
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

pub mod blockvec;
pub mod disk;
pub mod engine;
pub mod metrics;
pub mod obs;
pub mod resource;
pub mod time;
pub mod wordpages;

pub use blockvec::BlockVec;
pub use disk::{Disk, DiskConfig, DiskStats};
pub use engine::{Actor, ActorId, AsAny, Ctx, Engine, Payload, Scheduler, Shared};
pub use metrics::{Histogram, Metrics};
pub use obs::{
    decompose_commits, prometheus_snapshot, CommitSpan, Obs, ObsConfig, ObsEvent, ObsMode,
    ObsRecord,
};
pub use resource::Fcfs;
pub use time::{SimDuration, SimTime};
pub use wordpages::WordPages;

/// Downcast a [`Payload`] into one of several event types.
///
/// ```ignore
/// downcast_payload!(payload, {
///     ev: TickEvent => self.on_tick(ctx, ev),
///     ev: StopEvent => self.on_stop(ctx, ev),
/// });
/// ```
///
/// Falls through to a panic naming the actor when no arm matches, which
/// surfaces wiring bugs immediately in tests.
#[macro_export]
macro_rules! downcast_payload {
    ($payload:expr, $name:expr, { $($var:ident : $ty:ty => $body:expr),+ $(,)? }) => {{
        let mut __p: $crate::Payload = $payload;
        loop {
            $(
                __p = match __p.downcast::<$ty>() {
                    Ok(__boxed) => {
                        let $var: $ty = *__boxed;
                        #[allow(clippy::unused_unit)]
                        { $body };
                        break;
                    }
                    Err(__p) => __p,
                };
            )+
            panic!("{}: unhandled event payload", $name);
        }
    }};
}
