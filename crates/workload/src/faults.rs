//! Fault-injection scenarios: the machinery behind the Table 1–3 cells
//! of the behavioural contract (`crash/…` and `claim/table1…3/…` in
//! `CONTRACT.txt`).
//!
//! A [`CrashScenario`] runs the Table 4 workload against a chosen
//! technique, crashes a configurable subset of the servers mid-run
//! (optionally under a network partition, optionally recovering them and
//! restarting the group after a total failure), and then audits the
//! outcome: how many *acknowledged* transactions were lost, and whether
//! the surviving replicas agree.
//!
//! [`CrashScenario::scenario_plan`] compiles the experiment into a
//! declarative [`ScenarioPlan`]; [`run_crash_scenario`] installs that
//! plan on a [`System::builder`] system (the Table 4 defaults, open
//! load, a 5 s client timeout) and drives the
//! [`Run`](groupsafe_core::Run) lifecycle.
//! The behavioural contract (`CONTRACT.txt`) pins the outcome of every
//! scenario shape, and `crates/bench/tests/crash_scenario_equivalence.rs`
//! compares each against an imperative reference driver.

use groupsafe_core::{Load, ScenarioEvent, ScenarioPlan, ScenarioStep, System, Technique};
use groupsafe_sim::{SimDuration, SimTime};

/// What happens to the crashed servers afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPlan {
    /// They stay down for the rest of the run.
    StayDown,
    /// They recover after the given downtime. If *every* server crashed
    /// (total failure) and the technique runs in the dynamic model, the
    /// driver restarts the group and reconciles to the most advanced
    /// recovered state (durable-prefix union).
    Recover {
        /// Downtime before recovery.
        downtime: SimDuration,
    },
}

/// A crash experiment.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// Technique under test.
    pub technique: Technique,
    /// Number of servers (Table 4: 9; fewer for quicker experiments).
    pub n_servers: u32,
    /// Clients per server.
    pub clients_per_server: u32,
    /// Offered load.
    pub load_tps: f64,
    /// Run this long before any failure.
    pub steady_for: SimDuration,
    /// Servers to crash (ids into `0..n_servers`).
    pub crash: Vec<u32>,
    /// Isolate these servers from the rest just before the crash window
    /// (non-uniform delivery can then acknowledge messages nobody else
    /// ever receives — the 0-safe exposure).
    pub partition_before: Vec<u32>,
    /// How long the partition holds before the crash.
    pub partition_hold: SimDuration,
    /// Recovery plan.
    pub recovery: RecoveryPlan,
    /// Lazy propagation interval, ms (the 1-safe inconsistency window).
    pub lazy_prop_ms: f64,
    /// Background WAL flush interval, ms (the group-safe asynchronous-
    /// durability window).
    pub wal_flush_ms: f64,
    /// Crashed servers that stay down even under a `Recover` plan (e.g.
    /// "the delegate never recovers", Table 3's right column).
    pub stay_down: Vec<u32>,
    /// Crash this server later than the rest by the given delay: it keeps
    /// draining its pipeline — flushing and acknowledging — while the
    /// group is already gone, which is exactly the delegate-outlives-the-
    /// group window of Table 3.
    pub crash_last: Option<(u32, SimDuration)>,
    /// How long to keep running (and loading) after the crash.
    pub run_after: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl CrashScenario {
    /// A small-system scenario (5 servers, lighter load) for tests.
    pub fn small(technique: Technique, crash: Vec<u32>, seed: u64) -> Self {
        CrashScenario {
            technique,
            n_servers: 5,
            clients_per_server: 2,
            load_tps: 20.0,
            // Not a multiple of any background interval: the crash must be
            // able to land inside propagation/flush windows.
            steady_for: SimDuration::from_millis(3_330),
            crash,
            partition_before: Vec::new(),
            partition_hold: SimDuration::from_millis(200),
            recovery: RecoveryPlan::StayDown,
            lazy_prop_ms: 500.0,
            wal_flush_ms: 200.0,
            stay_down: Vec::new(),
            crash_last: None,
            run_after: SimDuration::from_secs(3),
            seed,
        }
    }

    /// The instant the crash block strikes (after any partition hold).
    fn crash_instant(&self) -> SimTime {
        let base = SimTime::ZERO + self.steady_for;
        if self.partition_before.is_empty() {
            base
        } else {
            base + self.partition_hold
        }
    }

    /// Compile this experiment into the declarative scenario timeline it
    /// denotes: partition before the crash window, the crash block (with
    /// scripted recoveries and the optional delayed "delegate outlives
    /// the group" strike), the heal, and the operator restart after a
    /// total failure in the dynamic model.
    pub fn scenario_plan(&self) -> ScenarioPlan {
        let partition_at = SimTime::ZERO + self.steady_for;
        let strike = self.crash_instant();
        let mut plan = ScenarioPlan::new();
        if !self.partition_before.is_empty() {
            plan = plan.partition(partition_at, vec![self.partition_before.clone()]);
        }
        let stagger = self.crash_last.map(|(_, d)| d).unwrap_or(SimDuration::ZERO);
        for &i in &self.crash {
            let after = match self.crash_last {
                Some((last, d)) if last == i => d,
                _ => SimDuration::ZERO,
            };
            let recover_after = match self.recovery {
                RecoveryPlan::StayDown => None,
                RecoveryPlan::Recover { .. } if self.stay_down.contains(&i) => None,
                // Every recovery lands at the same instant:
                // strike + stagger + downtime.
                RecoveryPlan::Recover { downtime } => Some(stagger + downtime - after),
            };
            plan = plan.then(ScenarioStep {
                at: strike,
                event: ScenarioEvent::Crash {
                    server: i,
                    after,
                    recover_after,
                },
            });
        }
        if !self.partition_before.is_empty() {
            plan = plan.heal(strike);
        }
        if let RecoveryPlan::Recover { downtime } = self.recovery {
            let total_failure = self.crash.len() == self.n_servers as usize;
            let dynamic = self
                .technique
                .gcs_config()
                .is_some_and(|c| c.model == groupsafe_gcs::GcsModel::ViewBased);
            if total_failure && dynamic {
                // Dynamic model, total failure: the group cannot re-form
                // on its own — script the operator restart.
                let recovered: Vec<u32> = self
                    .crash
                    .iter()
                    .copied()
                    .filter(|i| !self.stay_down.contains(i))
                    .collect();
                let recover_at = strike + stagger + downtime;
                plan = plan.restart_group(recover_at + SimDuration::from_millis(500), recovered);
            }
        }
        plan
    }
}

/// Audit of a crash run.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Transactions the clients were told had committed.
    pub acked: usize,
    /// Acknowledged transactions absent from every live replica.
    pub lost: usize,
    /// Distinct state digests among live replicas (1 = agreement).
    pub distinct_states: usize,
    /// Committed acknowledgements that arrived after the crash instant
    /// (the system kept making progress).
    pub acked_after_crash: usize,
    /// Client-observed timeouts (failovers).
    pub timeouts: u64,
    /// The engine's dispatch fingerprint at audit time (determinism and
    /// equivalence witness).
    pub fingerprint: u64,
}

/// Run a crash scenario to completion and audit it: compile it to its
/// [`ScenarioPlan`], install the plan, and let the hook-aware [`Run`]
/// lifecycle replay the timeline.
///
/// [`Run`]: groupsafe_core::Run
pub fn run_crash_scenario(sc: &CrashScenario) -> CrashOutcome {
    let mut run = System::builder()
        .servers(sc.n_servers)
        .clients_per_server(sc.clients_per_server)
        .technique(sc.technique)
        .lazy_prop_interval(SimDuration::from_millis_f64(sc.lazy_prop_ms))
        .wal_flush_interval(SimDuration::from_millis_f64(sc.wal_flush_ms))
        .load(Load::open_tps(sc.load_tps))
        .client_timeout(SimDuration::from_secs(5))
        .seed(sc.seed)
        .scenario(sc.scenario_plan())
        .build()
        .expect("a crash scenario always denotes a valid system");
    let crash_instant = sc.crash_instant();
    let end = crash_instant + sc.run_after;
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(3));
    audit(run.system(), crash_instant)
}

fn audit(system: &System, crash_instant: SimTime) -> CrashOutcome {
    let oracle = system.oracle.borrow();
    let acked = oracle.acked_count();
    let acked_after_crash = oracle
        .acked
        .values()
        .filter(|a| a.at > crash_instant)
        .count();
    let timeouts = oracle.timeouts;
    drop(oracle);
    let lost = system.lost_transactions().len();
    let distinct_states = system.convergence().len();
    CrashOutcome {
        acked,
        lost,
        distinct_states,
        acked_after_crash,
        timeouts,
        fingerprint: system.engine.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsafe_core::SafetyLevel;

    /// Group-safe survives a minority crash with zero loss and keeps
    /// serving (Table 2, "less than n crashes").
    #[test]
    fn group_safe_minority_crash_no_loss() {
        let sc = CrashScenario::small(Technique::Dsm(SafetyLevel::GroupSafe), vec![1, 3], 21);
        let out = run_crash_scenario(&sc);
        assert!(out.acked > 20, "acked {}", out.acked);
        assert_eq!(out.lost, 0, "group-safe must not lose under minority crash");
        assert!(out.acked_after_crash > 0, "system must keep committing");
    }

    /// Lazy (1-safe) loses transactions when the delegate crashes before
    /// propagating (Table 2, "0 crashes").
    #[test]
    fn lazy_delegate_crash_loses() {
        // Crash all-but-one delegates to make the window essentially
        // certain to contain un-propagated commits.
        let sc = CrashScenario {
            load_tps: 40.0,
            ..CrashScenario::small(Technique::Lazy, vec![0], 23)
        };
        let out = run_crash_scenario(&sc);
        assert!(out.acked > 20);
        assert!(
            out.lost > 0,
            "1-safe must lose delegate-local commits (acked {} lost {})",
            out.acked,
            out.lost
        );
    }
}
