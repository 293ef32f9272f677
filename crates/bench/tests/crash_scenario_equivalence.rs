//! Equivalence lock for `CrashScenario` → `ScenarioPlan`.
//!
//! `run_crash_scenario` compiles the experiment into a declarative plan.
//! This suite keeps an imperative driver (a test-local reference
//! implementation) and runs every crash shape of the behavioural
//! contract (`groupsafe_bench::contract::crash_shapes`) through both
//! paths: the audits — including the engine's dispatch fingerprint, the
//! strictest witness the simulator has — must match bit-for-bit. Any
//! scheduling drift in the scenario engine (hook ordering, event push
//! order, partition/heal timing, the operator-restart protocol) fails
//! this suite. Both paths wire the system with the same builder calls;
//! a wiring slip that moves both together (a dropped `client_timeout`)
//! moves the shape's line of `CONTRACT.txt` instead.

use groupsafe_bench::contract::crash_shapes;
use groupsafe_core::{reconcile_restart, Load, System};
use groupsafe_net::NodeId;
use groupsafe_sim::{SimDuration, SimTime};
use groupsafe_workload::{run_crash_scenario, CrashOutcome, CrashScenario, RecoveryPlan};

/// The imperative reference `run_crash_scenario` is held to: the same
/// system, its faults injected by hand between `run_until` calls.
fn run_crash_scenario_imperative(sc: &CrashScenario) -> CrashOutcome {
    let mut run = System::builder()
        .servers(sc.n_servers)
        .clients_per_server(sc.clients_per_server)
        .technique(sc.technique)
        .lazy_prop_interval(SimDuration::from_millis_f64(sc.lazy_prop_ms))
        .wal_flush_interval(SimDuration::from_millis_f64(sc.wal_flush_ms))
        .load(Load::open_tps(sc.load_tps))
        .client_timeout(SimDuration::from_secs(5))
        .seed(sc.seed)
        .build()
        .expect("a crash scenario always denotes a valid system");
    run.start();

    let crash_at = SimTime::ZERO + sc.steady_for;
    run.run_until(crash_at);

    if !sc.partition_before.is_empty() {
        let system = run.system_mut();
        let n = system.n_servers;
        let total_nodes = system.net.node_count() as u32;
        let mut isolated: Vec<NodeId> = sc.partition_before.iter().map(|&i| NodeId(i)).collect();
        for c in n..total_nodes {
            let home = (c - n) % n;
            if sc.partition_before.contains(&home) {
                isolated.push(NodeId(c));
            }
        }
        let rest: Vec<NodeId> = (0..total_nodes)
            .map(NodeId)
            .filter(|x| !isolated.contains(x))
            .collect();
        system.net.partition(&[&isolated, &rest]);
        run.run_until(crash_at + sc.partition_hold);
    }

    let system = run.system_mut();
    let now = system.engine.now();
    for &i in &sc.crash {
        let at = match sc.crash_last {
            Some((last, delay)) if last == i => now + delay,
            _ => now,
        };
        system.engine.schedule_crash(at, system.servers[i as usize]);
    }
    if !sc.partition_before.is_empty() {
        system.net.heal();
    }
    let crash_instant = now;

    if let RecoveryPlan::Recover { downtime } = sc.recovery {
        let stagger = sc.crash_last.map(|(_, d)| d).unwrap_or(SimDuration::ZERO);
        let recover_at = crash_instant + stagger + downtime;
        let recovered: Vec<u32> = sc
            .crash
            .iter()
            .copied()
            .filter(|i| !sc.stay_down.contains(i))
            .collect();
        for &i in &recovered {
            system
                .engine
                .schedule_recover(recover_at, system.servers[i as usize]);
        }
        let total_failure = sc.crash.len() == system.n_servers as usize;
        if total_failure
            && sc
                .technique
                .gcs_config()
                .is_some_and(|c| c.model == groupsafe_gcs::GcsModel::ViewBased)
        {
            run.run_until(recover_at + SimDuration::from_millis(500));
            reconcile_restart(run.system_mut(), &recovered);
        }
    }

    let end = crash_instant + sc.run_after;
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(3));

    let system = run.system();
    let oracle = system.oracle.borrow();
    let acked = oracle.acked.len();
    let acked_after_crash = oracle
        .acked
        .values()
        .filter(|a| a.at > crash_instant)
        .count();
    let timeouts = oracle.timeouts;
    drop(oracle);
    CrashOutcome {
        acked,
        lost: system.lost_transactions().len(),
        distinct_states: system.convergence().len(),
        acked_after_crash,
        timeouts,
        fingerprint: system.engine.fingerprint(),
    }
}

#[test]
fn scenario_engine_reproduces_the_imperative_runs_bit_for_bit() {
    for (label, sc, _) in crash_shapes() {
        let reference = run_crash_scenario_imperative(&sc);
        let ported = run_crash_scenario(&sc);
        assert_eq!(
            (
                ported.fingerprint,
                ported.acked,
                ported.lost,
                ported.distinct_states,
                ported.acked_after_crash,
                ported.timeouts,
            ),
            (
                reference.fingerprint,
                reference.acked,
                reference.lost,
                reference.distinct_states,
                reference.acked_after_crash,
                reference.timeouts,
            ),
            "{label}: the ScenarioPlan port diverged from the imperative reference"
        );
    }
}

/// The compiled plans are themselves deterministic values: compiling the
/// same `CrashScenario` twice yields the same timeline, and the plan
/// renders a non-empty reproduction dump.
#[test]
fn compiled_plans_are_deterministic_and_renderable() {
    for (label, sc, _) in crash_shapes() {
        let a = sc.scenario_plan();
        let b = sc.scenario_plan();
        assert_eq!(a, b, "{label}: plan compilation must be deterministic");
        assert!(!a.is_empty(), "{label}: a crash scenario denotes faults");
        assert!(a.render().contains("Crash"), "{label}: {}", a.render());
    }
}
