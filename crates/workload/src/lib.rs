//! # groupsafe-workload — the Table 1–3 crash experiments
//!
//! [`CrashScenario`] describes one fault-injection experiment on the
//! Table 4 system (which servers crash, under which partition, whether
//! and when they recover); [`run_crash_scenario`] compiles it to a core
//! [`ScenarioPlan`](groupsafe_core::ScenarioPlan), runs it on a
//! [`System::builder`](groupsafe_core::System::builder) system and
//! audits the outcome ([`CrashOutcome`]) — the rows of Tables 1–3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;

pub use faults::{run_crash_scenario, CrashOutcome, CrashScenario, RecoveryPlan};
