//! §5.2: "switching between group-1-safe and group-safe can be done
//! easily at runtime". Run one system, flip every server's safety level
//! mid-run through the run's scenario plan, and verify (a) the
//! response-time regime changes accordingly, (b) nothing is lost and the
//! replicas stay convergent throughout.

use groupsafe::core::{Load, SafetyLevel, ScenarioPlan, ServerEvent, System};
use groupsafe::sim::{SimDuration, SimTime};

#[test]
fn switching_changes_the_reply_point_live() {
    let report = System::builder()
        .servers(5)
        .clients_per_server(3)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(20.0))
        .measure(SimDuration::from_secs(40))
        .drain(SimDuration::from_secs(2))
        .seed(55)
        // Phase 1: group-safe for 12 s. Then switch every server to
        // group-1-safe for 12 s, then back for the rest.
        .scenario(
            ScenarioPlan::new()
                .switch_safety(SimTime::from_secs(12), SafetyLevel::GroupOneSafe)
                .switch_safety(SimTime::from_secs(24), SafetyLevel::GroupSafe),
        )
        .build()
        .expect("a valid configuration")
        .execute();

    // The per-phase breakdown names each hook's phase after its label.
    assert_eq!(report.phases.len(), 4, "measure + 2 switches + drain");
    let gs1 = &report.phases[0];
    let g1s = &report.phases[1];
    let gs2 = &report.phases[2];
    assert!(gs1.commits > 50 && g1s.commits > 50 && gs2.commits > 50);
    // The group-1-safe phase must be noticeably slower (its reply point
    // includes a synchronous log force and page install).
    assert!(
        g1s.mean_ms > gs1.mean_ms * 1.3,
        "group-1-safe phase must slow responses: {:.1} -> {:.1} ms",
        gs1.mean_ms,
        g1s.mean_ms
    );
    assert!(
        gs2.mean_ms < g1s.mean_ms,
        "switching back must speed responses up again: {:.1} -> {:.1} ms",
        g1s.mean_ms,
        gs2.mean_ms
    );

    // Safety held throughout: nothing lost, replicas agree.
    assert_eq!(report.lost, 0);
    assert_eq!(report.distinct_states, 1);
    assert!(
        report.acked > 300,
        "the system must have processed plenty across all three phases"
    );
}

#[test]
#[should_panic(expected = "runtime switching is defined between")]
fn switching_to_two_safe_is_rejected() {
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(1)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(5.0))
        .measure(SimDuration::from_secs(2))
        .drain(SimDuration::ZERO)
        .seed(1)
        .build()
        .expect("a valid configuration");
    run.run_until(SimTime::from_secs(1));
    let system = run.system_mut();
    let now = system.engine.now();
    let s0 = system.servers[0];
    system
        .engine
        .schedule_resilient(now, s0, ServerEvent::SwitchSafety(SafetyLevel::TwoSafe));
    // 2-safe needs a different broadcast primitive (end-to-end): the
    // switch must be refused loudly, not silently mis-configured.
    run.run_until(SimTime::from_secs(2));
}
