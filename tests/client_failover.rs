//! Client-side behaviour across failures: timeout-driven failover to
//! another delegate (update-everywhere), exactly-once commits across
//! retries, and abort resubmission. Systems are wired by the builder;
//! crashes come from a declarative `ScenarioPlan`; the audits use the
//! `Run` handle's stepwise API for direct oracle access.

use groupsafe::core::{Load, Run, SafetyLevel, ScenarioPlan, System};
use groupsafe::db::TxnId;
use groupsafe::sim::{SimDuration, SimTime};

const MEASURE: SimDuration = SimDuration::from_secs(20);
const DRAIN: SimDuration = SimDuration::from_secs(3);

fn build(seed: u64, faults: ScenarioPlan) -> Run {
    System::builder()
        .servers(3)
        .clients_per_server(1)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(10.0))
        .measure(MEASURE)
        .drain(DRAIN)
        .scenario(faults)
        .seed(seed)
        .build()
        .expect("a valid configuration")
}

fn drive_to_completion(run: &mut Run) {
    let end = SimTime::ZERO + MEASURE;
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + DRAIN);
}

/// Crash a delegate mid-run but let the group survive: its clients must
/// fail over to other servers and finish their work exactly once.
#[test]
fn clients_fail_over_when_their_delegate_dies() {
    // Crash server 0 (home of client 0) at 5 s; it stays down.
    let mut run = build(404, ScenarioPlan::new().crash(SimTime::from_secs(5), 0));
    drive_to_completion(&mut run);

    let system = run.system();
    let oracle = system.oracle.borrow();
    assert!(
        oracle.timeouts > 0,
        "requests to the dead delegate must time out"
    );
    // Client 0's transactions after the crash carry its id; they must
    // still be acknowledged (served by another delegate).
    let post_crash_acks_client0 = oracle
        .acked
        .iter()
        .filter(|(txn, ack)| txn.client == 0 && ack.at > SimTime::from_secs(6))
        .count();
    assert!(
        post_crash_acks_client0 > 10,
        "client 0 must keep committing through other delegates \
         (got {post_crash_acks_client0})"
    );
    drop(oracle);
    assert!(system.lost_transactions().is_empty());
    assert_eq!(system.convergence().len(), 1, "survivors agree");
}

/// Exactly-once across retries: no transaction id is ever committed with
/// two different write sets, and commit acknowledgements are unique per
/// transaction.
#[test]
fn retries_commit_exactly_once() {
    // Make life hard: crash and recover a server mid-run.
    let mut run = build(
        405,
        ScenarioPlan::new()
            .crash(SimTime::from_secs(4), 1)
            .recover(SimTime::from_secs(8), 1),
    );
    drive_to_completion(&mut run);
    let system = run.system();

    // Every acknowledged update transaction is committed on every live
    // replica exactly once — the testable-transaction table dedups
    // resubmissions that raced a slow first execution.
    let oracle = system.oracle.borrow();
    let acked: Vec<TxnId> = oracle.acked.keys().collect();
    drop(oracle);
    // Shard-aware form (identical to "on every replica" when there is
    // one group): a committed transaction must be held by *every*
    // member of each group that holds it at all.
    let mut on_all = 0;
    for txn in &acked {
        let mut any_group = false;
        let mut full = true;
        for g in 0..system.n_groups {
            let states = system.replica_states_of(g);
            let holders = states
                .iter()
                .filter(|(db, _)| db.is_committed(*txn))
                .count();
            if holders > 0 {
                any_group = true;
                if holders < states.len() {
                    full = false;
                }
            }
        }
        if any_group && full {
            on_all += 1;
        }
    }
    // Read-only transactions never enter the committed table; the rest
    // must be everywhere after the drain.
    let oracle = system.oracle.borrow();
    let updates = acked
        .iter()
        .filter(|&&t| oracle.commits.contains(t))
        .count();
    assert_eq!(
        on_all, updates,
        "every acknowledged update must be committed on all replicas"
    );
    assert!(updates > 100, "need a meaningful sample, got {updates}");
}
