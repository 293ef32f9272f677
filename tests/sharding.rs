//! The shard router and the cross-group commit protocol.
//!
//! * degenerate sharding: `shards(1)` is bit-for-bit the unsharded
//!   system (identical report fingerprints),
//! * build-time validation: empty/unowned/overlapping key ranges and
//!   unsupported technique combinations are typed errors,
//! * cross-group transactions: atomicity across groups under no faults
//!   and under a coordinator-group sequencer crash (PR 3 scenario
//!   events), audited by the extended `audit_scenario` oracle,
//! * whole-group failure with an operator restart audits clean at the
//!   group-safe level,
//! * a sharded scenario-fuzz smoke (seeded, deterministic).

use groupsafe_core::scenario::fuzz::{run_fuzz_case, FuzzSpec};
use groupsafe_core::shard::ShardError;
use groupsafe_core::{audit_scenario, BuildError, Load, SafetyLevel, ScenarioPlan, System};
use groupsafe_sim::{SimDuration, SimTime};

fn small(shards: u32, cross: f64, seed: u64) -> groupsafe_core::SystemBuilder {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .shards(shards)
        .cross_shard_fraction(cross)
        .load(Load::open_tps(15.0 * shards as f64))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
}

// ---------------------------------------------------------------------
// Degenerate sharding ≡ unsharded
// ---------------------------------------------------------------------

#[test]
fn shards_1_is_fingerprint_identical_to_unsharded() {
    // The untouched default builder against an explicit `shards(1)`.
    let unsharded = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(15.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(1234)
        .build()
        .expect("valid")
        .execute();
    let sharded = small(1, 0.0, 1234).build().expect("valid").execute();
    assert_eq!(unsharded.fingerprint, sharded.fingerprint, "bit-for-bit");
    assert_eq!(unsharded.commits, sharded.commits);
    assert_eq!(unsharded.digests, sharded.digests);
    assert_eq!(unsharded.to_json(), sharded.to_json(), "whole report");
    assert!(
        sharded.groups.is_empty(),
        "no per-group section when single"
    );
}

// ---------------------------------------------------------------------
// Build-time validation
// ---------------------------------------------------------------------

#[test]
fn bad_shard_configurations_are_typed_errors() {
    // A gap in the ranges: keys 5000..6000 unowned.
    let err = System::builder()
        .shard_ranges(vec![(0, 5_000), (6_000, 10_000)])
        .build()
        .err();
    assert_eq!(
        err,
        Some(BuildError::Shard(ShardError::UnownedKeys {
            from: 5_000,
            to: 6_000
        }))
    );
    // An empty range.
    let err = System::builder()
        .shard_ranges(vec![(0, 5_000), (5_000, 5_000), (5_000, 10_000)])
        .build()
        .err();
    assert_eq!(
        err,
        Some(BuildError::Shard(ShardError::EmptyGroup { group: 1 }))
    );
    // Overlap.
    let err = System::builder()
        .shard_ranges(vec![(0, 6_000), (5_000, 10_000)])
        .build()
        .err();
    assert_eq!(
        err,
        Some(BuildError::Shard(ShardError::OverlappingRanges {
            key: 5_000
        }))
    );
    // More hash groups than keys.
    let err = System::builder()
        .shards(10)
        .workload(groupsafe_core::WorkloadSpec {
            n_items: 5,
            txn_len_min: 1,
            txn_len_max: 2,
            ..groupsafe_core::WorkloadSpec::table4()
        })
        .build()
        .err();
    assert!(matches!(
        err,
        Some(BuildError::Shard(ShardError::EmptyGroup { .. }))
    ));
    // Cross-group fraction outside [0, 1].
    let err = System::builder()
        .shards(2)
        .cross_shard_fraction(1.5)
        .build()
        .err();
    assert!(matches!(err, Some(BuildError::BadProbability { .. })));
    // The lazy baseline cannot commit across groups.
    let err = System::builder()
        .safety(SafetyLevel::OneSafe)
        .shards(2)
        .cross_shard_fraction(0.1)
        .build()
        .err();
    assert!(matches!(
        err,
        Some(BuildError::UnsupportedCrossShard { .. })
    ));
    // Scenario events must name existing groups.
    let err = System::builder()
        .shards(2)
        .scenario(ScenarioPlan::new().crash_whole_group(SimTime::from_secs(1), 5, None))
        .build()
        .err();
    assert_eq!(
        err,
        Some(BuildError::GroupOutOfRange {
            group: 5,
            n_groups: 2
        })
    );
}

// ---------------------------------------------------------------------
// Cross-group commits
// ---------------------------------------------------------------------

#[test]
fn cross_group_transactions_commit_atomically() {
    let mut run = small(3, 0.2, 77).build().expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(8));
    let system = run.into_system();
    let audit = audit_scenario(&ScenarioPlan::new(), &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
    assert!(
        audit.cross_group_audited > 5,
        "cross-group commits expected, audited {}",
        audit.cross_group_audited
    );
    // Direct all-or-nothing check, independent of the oracle's excuse
    // rules (no faults here, so there is nothing to excuse).
    let oracle = system.oracle.borrow();
    for (txn, xg) in &oracle.xg {
        if !oracle.is_acked(*txn) {
            continue;
        }
        assert!(xg.groups.len() >= 2, "recorded as cross-group");
        for &g in &xg.groups {
            let committed = system
                .replica_states_of(g)
                .iter()
                .any(|(db, live)| *live && db.is_committed(*txn));
            assert!(committed, "{txn:?} missing from group {g}");
        }
    }
}

#[test]
fn sharded_report_carries_per_group_stats() {
    let report = small(3, 0.1, 42).build().expect("valid").execute();
    assert_eq!(report.groups.len(), 3);
    assert!(report.cross_group_commits > 0, "{report}");
    assert!(report.cross_group_ratio > 0.0 && report.cross_group_ratio < 0.5);
    assert!(report.lost == 0, "{report}");
    assert_eq!(report.distinct_states, 1, "every group converged");
    let total: usize = report.groups.iter().map(|g| g.commits).sum();
    assert!(total > 0);
    for g in &report.groups {
        assert!(g.commits > 0, "group {} starved: {report}", g.group);
        assert!(g.wire_sent > 0, "per-domain wire accounting");
    }
    let json = report.to_json();
    assert!(json.contains("\"groups\":[{"), "{json}");
    assert!(json.contains("\"cross_group_ratio\""), "{json}");
}

#[test]
fn cross_group_atomicity_survives_coordinator_group_sequencer_crash() {
    // Kill group 0's sequencer mid-run (twice), while cross-group
    // traffic flows: the two-phase protocol must keep every
    // acknowledged transaction all-or-nothing across groups.
    let plan = ScenarioPlan::new()
        .kill_sequencer_in(
            SimTime::from_millis(1_500),
            0,
            Some(SimDuration::from_millis(800)),
        )
        .kill_sequencer_in(
            SimTime::from_millis(3_000),
            1,
            Some(SimDuration::from_millis(800)),
        );
    let mut run = small(3, 0.25, 909)
        .scenario(plan.clone())
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(8));
    // Let stragglers drain like the fuzzer does.
    let mut extra = SimTime::from_secs(8);
    let cap = extra + SimDuration::from_secs(10);
    while (run.system().convergence().len() > 1 || run.system().delivery_backlog() > 0)
        && extra < cap
    {
        extra += SimDuration::from_secs(1);
        run.run_until(extra);
    }
    let system = run.into_system();
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
    assert!(audit.quiescent, "the audit must have applied in full");
    assert!(audit.cross_group_audited > 0, "cross traffic flowed");
}

#[test]
fn whole_group_failure_with_restart_audits_clean() {
    // Group 1 fails completely (the group-safe loss case, scoped to one
    // shard), recovers, and the operator restarts it as a fresh group.
    let down = SimDuration::from_millis(700);
    let plan = ScenarioPlan::new()
        .crash_whole_group(SimTime::from_millis(1_200), 1, Some(down))
        .restart_group(
            SimTime::from_millis(1_200) + down + SimDuration::from_millis(300),
            vec![3, 4, 5],
        );
    let mut run = small(3, 0.1, 5150)
        .scenario(plan.clone())
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(8));
    let mut extra = SimTime::from_secs(8);
    let cap = extra + SimDuration::from_secs(10);
    while (run.system().convergence().len() > 1 || run.system().delivery_backlog() > 0)
        && extra < cap
    {
        extra += SimDuration::from_secs(1);
        run.run_until(extra);
    }
    let system = run.into_system();
    assert!(
        plan.group_failure_of(3, 3, 1),
        "the plan is recognised as a whole-group failure of group 1"
    );
    assert!(!plan.group_failure_of(3, 3, 0), "group 0 never failed");
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.group_failed);
    assert!(audit.clean(), "{:?}", audit.violations);
}

#[test]
fn group_partition_isolates_one_groups_minority() {
    let plan = ScenarioPlan::new()
        .partition_group(SimTime::from_millis(1_500), 2, vec![0])
        .heal(SimTime::from_millis(2_700));
    let report = small(3, 0.1, 31)
        .scenario(plan)
        .build()
        .expect("valid")
        .execute();
    assert_eq!(report.lost, 0, "{report}");
    assert_eq!(report.distinct_states, 1, "{report}");
}

// ---------------------------------------------------------------------
// Sharded scenario fuzz (smoke; CI runs the 50-seed sweep)
// ---------------------------------------------------------------------

#[test]
fn sharded_fuzz_smoke_10_seeds_group_safe() {
    let spec = FuzzSpec::sharded(SafetyLevel::GroupSafe, 3);
    for seed in 0..10 {
        let out = run_fuzz_case(seed, &spec);
        assert!(out.ok(), "seed {seed}:\n{}", out.describe());
    }
}

#[test]
fn sharded_fuzz_replays_bit_for_bit() {
    let spec = FuzzSpec::sharded(SafetyLevel::GroupSafe, 3);
    let a = run_fuzz_case(4, &spec);
    let b = run_fuzz_case(4, &spec);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.plan, b.plan);
}
