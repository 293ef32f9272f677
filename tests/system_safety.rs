//! Cross-crate integration tests: the safety taxonomy (Tables 1–3) as
//! executable scenarios on the full stack.

use groupsafe::core::{Load, SafetyLevel, System, Technique};
use groupsafe::db::DbConfig;
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe::workload::{run_crash_scenario, CrashScenario, RecoveryPlan};

fn recovering(sc: CrashScenario) -> CrashScenario {
    CrashScenario {
        recovery: RecoveryPlan::Recover {
            downtime: SimDuration::from_millis(400),
        },
        ..sc
    }
}

#[test]
fn group_safe_survives_minority_crash() {
    let out = run_crash_scenario(&CrashScenario::small(
        Technique::Dsm(SafetyLevel::GroupSafe),
        vec![1, 3],
        1,
    ));
    assert_eq!(out.lost, 0);
    assert!(out.acked_after_crash > 0, "must keep committing");
    assert_eq!(out.distinct_states, 1, "survivors agree");
}

#[test]
fn group_safe_survives_all_but_one_crash_without_loss() {
    // Table 2: "less than n crashes". Availability may stop (primary-
    // partition rule blocks a lone survivor) but nothing is lost.
    let out = run_crash_scenario(&CrashScenario::small(
        Technique::Dsm(SafetyLevel::GroupSafe),
        vec![0, 1, 2, 3],
        3,
    ));
    assert_eq!(out.lost, 0, "n-1 crashes must not lose acknowledged work");
}

#[test]
fn group_safe_total_failure_loses() {
    // Table 2: group-safe does not tolerate n crashes.
    let out = run_crash_scenario(&recovering(CrashScenario::small(
        Technique::Dsm(SafetyLevel::GroupSafe),
        vec![0, 1, 2, 3, 4],
        5,
    )));
    assert!(
        out.lost > 0,
        "total failure must expose the asynchronous-durability window (acked {})",
        out.acked
    );
}

#[test]
fn two_safe_survives_total_failure() {
    // Table 2: 2-safe tolerates n crashes — the end-to-end atomic
    // broadcast replays everything unacknowledged.
    let out = run_crash_scenario(&recovering(CrashScenario::small(
        Technique::Dsm(SafetyLevel::TwoSafe),
        vec![0, 1, 2, 3, 4],
        7,
    )));
    assert_eq!(out.lost, 0, "2-safe must survive the crash of all servers");
    assert!(out.acked > 10);
}

#[test]
fn lazy_loses_on_delegate_crash() {
    // Table 2: 1-safe tolerates no crash.
    let out = run_crash_scenario(&CrashScenario {
        load_tps: 40.0,
        ..CrashScenario::small(Technique::Lazy, vec![0], 11)
    });
    assert!(out.lost > 0, "1-safe must lose delegate-local commits");
}

#[test]
fn lazy_survivors_stay_available() {
    let out = run_crash_scenario(&CrashScenario::small(Technique::Lazy, vec![0], 13));
    assert!(
        out.acked_after_crash > 0,
        "remaining delegates keep serving; clients fail over"
    );
}

#[test]
fn zero_safe_partitioned_delegate_loses() {
    // Table 1's weakest cell: non-uniform delivery acknowledges messages
    // nobody else received while the delegate is isolated.
    let out = run_crash_scenario(&CrashScenario {
        partition_before: vec![0],
        partition_hold: SimDuration::from_millis(1_500),
        ..CrashScenario::small(Technique::Dsm(SafetyLevel::ZeroSafe), vec![0], 17)
    });
    assert!(out.lost > 0, "0-safe must lose under partition + crash");
}

#[test]
fn group_safe_partitioned_delegate_does_not_ack() {
    // Same partition, uniform delivery: the minority side blocks instead
    // of acknowledging, so nothing can be lost.
    let out = run_crash_scenario(&CrashScenario {
        partition_before: vec![0],
        partition_hold: SimDuration::from_millis(1_500),
        ..CrashScenario::small(Technique::Dsm(SafetyLevel::GroupSafe), vec![0], 19)
    });
    assert_eq!(
        out.lost, 0,
        "uniform delivery must not acknowledge on the minority side"
    );
}

#[test]
fn group_one_safe_outliving_delegate_loss_requires_delegate_death() {
    // Table 3's two right columns, in one pair of runs.
    let base = CrashScenario {
        load_tps: 40.0,
        crash_last: Some((0, SimDuration::from_millis(400))),
        ..CrashScenario::small(
            Technique::Dsm(SafetyLevel::GroupOneSafe),
            vec![0, 1, 2, 3, 4],
            23,
        )
    };
    // Delegate's log returns: no loss.
    let both = run_crash_scenario(&recovering(base.clone()));
    assert_eq!(both.lost, 0, "group-1-safe survives when all logs return");
    // Delegate never recovers: the loss is *possible* (Table 3), i.e. it
    // appears across a handful of adversarial runs.
    let mut lost = 0;
    for seed in [23, 29, 31, 37, 41, 43, 47, 53] {
        let out = run_crash_scenario(&recovering(CrashScenario {
            stay_down: vec![0],
            seed,
            ..base.clone()
        }));
        lost += out.lost;
    }
    assert!(
        lost > 0,
        "group-1-safe must lose when the delegate's log never returns"
    );
}

/// A group-safe replica built on `DbConfig::default()` makes its WAL
/// durable: the engine never forces the log inside `commit`, so the
/// server's background flush covers each commit record and arms its
/// completion.
#[test]
fn a_default_db_replica_makes_its_wal_durable() {
    let mut run = System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(3)
        .clients_per_server(2)
        .db(DbConfig::default())
        .load(Load::open_tps(50.0))
        .measure(SimDuration::from_secs(2))
        .seed(42)
        .build()
        .expect("a valid configuration");
    run.start();
    run.run_until(SimTime::from_secs(2));
    for i in 0..3 {
        let db = run.system().server(i).db();
        let (durable, end) = (db.wal_durable_lsn(), db.wal_end_lsn());
        assert!(
            0 < durable && durable <= end,
            "replica {i}: {durable} of {end}"
        );
    }
}
