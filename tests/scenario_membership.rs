//! Membership edges under the scenario engine, pinned to fixed seeds:
//! minority-partition blocking, heal-then-catch-up (state transfer after
//! exclusion), and a targeted sequencer kill mid-batch — the PR-2
//! batching invariants re-checked under injected faults.

use groupsafe::core::scenario::{audit_scenario, ScenarioPlan};
use groupsafe::core::{BatchConfig, Load, Run, SafetyLevel, System};
use groupsafe::sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn build(seed: u64, plan: ScenarioPlan, batch: Option<BatchConfig>) -> Run {
    let mut b = System::builder()
        .servers(5)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(25.0))
        .measure(SimDuration::from_secs(6))
        .drain(SimDuration::from_secs(3))
        .seed(seed)
        .scenario(plan);
    if let Some(batch) = batch {
        b = b.batching(batch);
    }
    b.build().expect("valid scenario configuration")
}

fn run_to_end(run: &mut Run) {
    let end = SimTime::from_secs(6);
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(3));
}

/// A minority partition (two servers and their clients) must block —
/// uniform delivery cannot acknowledge on the minority side — while the
/// majority keeps committing; nothing may be lost.
#[test]
fn minority_partition_blocks_but_stays_safe() {
    let plan = ScenarioPlan::new()
        .partition(ms(2_000), vec![vec![0, 1]])
        .heal(ms(3_500));
    let mut run = build(71, plan.clone(), None);
    run_to_end(&mut run);
    let system = run.into_system();

    let oracle = system.oracle.borrow();
    let in_window = |at: SimTime| at > ms(2_100) && at <= ms(3_500);
    // Update transactions acknowledged inside the partition window, split
    // by which side of the partition their client sat on.
    let (mut minority_acks, mut majority_acks) = (0, 0);
    for (txn, ack) in oracle.acked.iter() {
        if !in_window(ack.at) || !oracle.commits.contains(txn) {
            continue;
        }
        if txn.client % 5 <= 1 {
            minority_acks += 1;
        } else {
            majority_acks += 1;
        }
    }
    drop(oracle);
    assert_eq!(
        minority_acks, 0,
        "the minority side must block, not acknowledge"
    );
    assert!(
        majority_acks > 5,
        "the majority side must keep committing ({majority_acks})"
    );
    assert!(system.lost_transactions().is_empty());
    assert_eq!(system.convergence().len(), 1, "survivors re-converge");
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
    assert!(audit.quiescent, "the healed plan must be fully audited");
}

/// After the heal, the excluded minority learns it was dropped from the
/// view, demotes itself and catches up via state transfer.
#[test]
fn heal_then_catch_up_rejoins_via_state_transfer() {
    let plan = ScenarioPlan::new()
        .partition(ms(2_000), vec![vec![0, 1]])
        .heal(ms(3_500));
    let mut run = build(73, plan.clone(), None);
    run_to_end(&mut run);
    let system = run.into_system();

    let transfers: u32 = (0..2).map(|i| system.server(i).transfer_count()).sum();
    assert!(
        transfers >= 1,
        "an excluded minority member must rejoin via state transfer"
    );
    for i in 0..5 {
        assert_eq!(system.server(i).crash_count(), 0, "nobody crashed");
        assert!(
            system.server(i).gcs().expect("dsm").is_joined(),
            "server {i} must be a functioning member again"
        );
    }
    assert_eq!(system.convergence().len(), 1);
    // The majority never transferred: their order digests must agree.
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
}

/// Kill the sequencer mid-run with batching enabled (PR-2 invariants
/// under faults): the view change rolls the accumulator back, a new
/// sequencer takes over, nothing acknowledged is lost, and the batched
/// run stays deterministic.
#[test]
fn sequencer_kill_mid_batch_is_safe_and_deterministic() {
    let batch = BatchConfig {
        max_msgs: 8,
        max_delay: SimDuration::from_micros(500),
    };
    let plan = ScenarioPlan::new().kill_sequencer(ms(2_500), Some(SimDuration::from_millis(700)));
    let run_once = || {
        let mut run = build(79, plan.clone(), Some(batch));
        run_to_end(&mut run);
        run.into_system()
    };
    let system = run_once();

    assert!(system.lost_transactions().is_empty(), "no loss");
    assert_eq!(system.convergence().len(), 1, "replicas agree");
    let (gcs, _) = system.gcs_stats();
    assert!(gcs.batches_sent > 0, "batching must be exercised");
    assert!(
        gcs.view_changes >= 2,
        "the kill forces a view change and the rejoin another"
    );
    let killed: Vec<u32> = (0..5)
        .filter(|&i| system.server(i).crash_count() > 0)
        .collect();
    assert_eq!(killed.len(), 1, "exactly the sequencer died: {killed:?}");
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);

    // Bit-for-bit determinism of the batched faulty run.
    let again = run_once();
    assert_eq!(system.engine.fingerprint(), again.engine.fingerprint());
    assert_eq!(
        system.oracle.borrow().acked_count(),
        again.oracle.borrow().acked_count()
    );
}

/// The same fault timeline replayed against `execute()` (instead of the
/// stepwise driver) yields the same dispatch sequence: hooks fire at
/// their instants under both lifecycles.
#[test]
fn stepwise_and_execute_replay_identically() {
    let plan = ScenarioPlan::new()
        .crash_for(ms(1_500), 2, SimDuration::from_millis(600))
        .partition(ms(3_000), vec![vec![4]])
        .heal(ms(3_900));
    let stepwise = {
        let mut run = build(83, plan.clone(), None);
        run_to_end(&mut run);
        run.into_system().engine.fingerprint()
    };
    let executed = build(83, plan, None).execute().fingerprint;
    assert_eq!(stepwise, executed);
}
