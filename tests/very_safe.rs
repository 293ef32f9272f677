//! The very-safe level (§2.1): the client is notified only when the
//! transaction is logged on *all* servers — so it survives anything, but
//! "a single crash renders the system unavailable".

use groupsafe::core::{Load, Run, SafetyLevel, ScenarioPlan, System, Technique};
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe::workload::{run_crash_scenario, CrashScenario, RecoveryPlan};

fn build(seed: u64, faults: ScenarioPlan) -> Run {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::VerySafe)
        .load(Load::open_tps(10.0))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs(10))
        .drain(SimDuration::from_secs(3))
        .scenario(faults)
        .seed(seed)
        .build()
        .expect("a valid configuration")
}

#[test]
fn very_safe_commits_when_everyone_is_up() {
    let mut run = build(61, ScenarioPlan::new());
    let end = SimTime::from_secs(11);
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(3));
    let system = run.system();
    let acked = system.oracle.borrow().acked_count();
    assert!(
        acked > 40,
        "very-safe must make progress when all are up ({acked})"
    );
    assert!(system.lost_transactions().is_empty());
    assert_eq!(system.convergence().len(), 1);
    // Every acknowledged update transaction is durable on EVERY replica —
    // the defining property.
    let oracle = system.oracle.borrow();
    for (txn, _) in oracle.acked.iter() {
        if !oracle.commits.contains(txn) {
            continue; // read-only
        }
        for i in 0..system.n_servers {
            let db = system.server(i).db();
            assert!(db.is_committed(txn), "acked {txn} missing on replica {i}");
        }
    }
}

#[test]
fn very_safe_blocks_while_any_server_is_down() {
    // One crash: after a short grace period for in-flight confirmations,
    // no commit acknowledgement completes while the server is down — but
    // nothing is lost. (Contrast: group-safe keeps committing, see
    // tests/system_safety.rs.)
    let crash_at = SimTime::from_secs(4);
    let mut run = build(63, ScenarioPlan::new().crash(crash_at, 2));
    run.run_until(SimTime::from_secs(9));
    let system = run.system();
    let oracle = system.oracle.borrow();
    let pre = oracle.acked.values().filter(|a| a.at <= crash_at).count();
    let grace = crash_at + SimDuration::from_millis(500);
    // Read-only transactions never broadcast and keep answering; the
    // blocking property is about update transactions.
    let post_grace = oracle
        .acked
        .iter()
        .filter(|&(txn, a)| a.at > grace && oracle.commits.contains(txn))
        .count();
    drop(oracle);
    assert!(pre > 5, "pre-crash commits must have completed ({pre})");
    assert_eq!(
        post_grace, 0,
        "very-safe must block while a server is down (§2.1: a single crash \
         renders the system unavailable)"
    );
    assert!(
        system.lost_transactions().is_empty(),
        "blocking, not losing"
    );
}

#[test]
fn very_safe_survives_total_failure() {
    // All crash and recover: the end-to-end broadcast replays unlogged
    // deliveries; nothing acknowledged can be missing anywhere.
    let out = run_crash_scenario(&CrashScenario {
        load_tps: 10.0,
        recovery: RecoveryPlan::Recover {
            downtime: SimDuration::from_millis(400),
        },
        ..CrashScenario::small(
            Technique::Dsm(SafetyLevel::VerySafe),
            vec![0, 1, 2, 3, 4],
            67,
        )
    });
    assert_eq!(out.lost, 0, "very-safe can never lose an acknowledged txn");
    assert!(out.acked > 5);
}
