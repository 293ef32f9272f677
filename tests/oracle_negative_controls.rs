//! Negative controls for the scenario oracle's convergence, total-order,
//! certification-determinism, cross-group atomicity and snapshot-
//! isolation arms (`OracleViolation::Divergence`,
//! `OracleViolation::OrderDivergence`,
//! `OracleViolation::CertificationDivergence`,
//! `OracleViolation::AtomicityViolation`, `OracleViolation::SiLostUpdate`,
//! `OracleViolation::SiDirtyRead`).
//!
//! A green oracle is only evidence if the oracle demonstrably *fails*
//! when its invariant is broken — and a correct run can never break
//! them, so each test seeds the violation by hand: a write applied to a
//! single replica behind the protocol's back, a poisoned delivery-order
//! or certification digest, a cross-group commit record whose slice one
//! group never committed, a forged snapshot-certification record. Each
//! test first audits the untouched run clean (the control's control),
//! then corrupts and asserts the specific violation variant is reported.
//! `tests/oracle_coverage.rs` (GS-P04) keeps this file honest: every
//! `OracleViolation` variant must be named by some test under `tests/`.

use groupsafe::core::scenario::{audit_scenario, OracleViolation, ScenarioPlan};
use groupsafe::core::server::ReplicaServer;
use groupsafe::core::{Load, SafetyLevel, SiRecord, SiView, System};
use groupsafe::db::{ItemId, TxnId, WriteOp};
use groupsafe::sim::{SimDuration, SimTime};

/// A clean, quiescent group-safe run (no injected faults), returned as
/// a live `System` so the tests can corrupt it surgically.
fn clean_system(shards: u32, cross: f64) -> System {
    clean_system_with_txns(shards, cross, 0.0)
}

/// Like [`clean_system`], but with a fraction of the workload issued as
/// interactive snapshot-isolation transactions, so the SI audit arms
/// have delegate certification records to chew on.
fn clean_system_with_txns(shards: u32, cross: f64, txns: f64) -> System {
    let mut b = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(15.0 * shards as f64))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(42);
    if txns > 0.0 {
        b = b.txn_fraction(txns);
    }
    if shards > 1 {
        b = b.shards(shards).cross_shard_fraction(cross);
    }
    let mut run = b.build().expect("valid");
    let end = SimTime::from_secs(5);
    run.run_until(end);
    run.stop_clients_at(end);
    // Drain past the audit's settle window so convergence is judged.
    run.run_until(end + SimDuration::from_secs(3));
    run.into_system()
}

fn violations(system: &System) -> Vec<OracleViolation> {
    audit_scenario(&ScenarioPlan::new(), system, SafetyLevel::GroupSafe).violations
}

/// Forge a delegate certification record, and check that the oracle's
/// SI log reads it back, through its last [`SiView`], as recorded.
fn forge_si(system: &System, rec: SiRecord) {
    let mut oracle = system.oracle.borrow_mut();
    oracle.record_si(rec.clone());
    let last: Option<SiView<'_>> = oracle.si_txns.iter().last();
    assert_eq!(
        last.map(SiRecord::from),
        Some(rec),
        "the log keeps the forgery"
    );
}

/// Seeded state divergence: one replica gets a write the protocol never
/// delivered. The convergence arm must name the distinct digests.
#[test]
fn oracle_catches_seeded_state_divergence() {
    let mut system = clean_system(1, 0.0);
    assert!(
        violations(&system).is_empty(),
        "the untouched run must audit clean"
    );

    let now = system.engine.now();
    let id = system.servers[0];
    let server: &mut ReplicaServer = system.engine.actor_mut(id);
    let db = server.db_mut_for_audit_controls();
    let rogue_version = db.max_version() + 1;
    db.apply_unlogged(
        now,
        TxnId {
            client: u32::MAX,
            seq: u64::MAX,
        },
        &[WriteOp {
            item: ItemId(0),
            value: -1,
            version: rogue_version,
        }],
    );

    let found = violations(&system);
    assert!(
        found
            .iter()
            .any(|v| matches!(v, OracleViolation::Divergence { digests } if digests.len() > 1)),
        "a replica with a rogue write must be reported as divergence: {found:?}"
    );
}

/// Seeded order divergence: one never-crashed replica claims a
/// different delivery history. The total-order arm must name both
/// digests even though the replicas' *states* still agree.
#[test]
fn oracle_catches_seeded_order_divergence() {
    let mut system = clean_system(1, 0.0);
    assert!(
        violations(&system).is_empty(),
        "the untouched run must audit clean"
    );

    let id = system.servers[1];
    let server: &mut ReplicaServer = system.engine.actor_mut(id);
    server.poison_order_digest_for_audit_controls(0xdead_beef_dead_beef);

    let found = violations(&system);
    assert!(
        found.iter().any(
            |v| matches!(v, OracleViolation::OrderDivergence { digests } if digests.len() > 1)
        ),
        "a poisoned order digest must be reported as order divergence: {found:?}"
    );
    assert!(
        !found
            .iter()
            .any(|v| matches!(v, OracleViolation::Divergence { .. })),
        "order divergence must be distinguished from state divergence: {found:?}"
    );
}

/// Seeded atomicity violation: a committed single-group transaction is
/// re-recorded as a cross-group commit touching a group that never
/// committed its slice. The all-or-nothing arm must name the
/// transaction and the missing group.
#[test]
fn oracle_catches_seeded_atomicity_violation() {
    let system = clean_system(2, 0.10);
    assert!(
        violations(&system).is_empty(),
        "the untouched run must audit clean"
    );

    // Find an acknowledged transaction committed in group 0 but (being
    // single-group) absent from group 1, then forge an oracle record
    // claiming it touched both.
    let victim = {
        let oracle = system.oracle.borrow();
        let found = oracle.acked.keys().find(|txn| {
            !oracle.xg.contains_key(txn)
                && system
                    .replica_states_of(0)
                    .iter()
                    .any(|(db, live)| *live && db.is_committed(*txn))
                && !system
                    .replica_states_of(1)
                    .iter()
                    .any(|(db, live)| *live && db.is_committed(*txn))
        });
        found.expect("a sharded run commits some group-0-only transaction")
    };
    system.oracle.borrow_mut().record_xg(victim, vec![0, 1], 0);

    let found = violations(&system);
    assert!(
        found.iter().any(|v| matches!(
            v,
            OracleViolation::AtomicityViolation { txn, group: 1, .. } if *txn == victim
        )),
        "a forged cross-group record must be reported as an atomicity \
         violation naming the missing group: {found:?}"
    );
}

/// Seeded certification divergence: one never-crashed replica claims
/// different certification verdicts. The determinism arm must name both
/// digests — and keep them distinct from the order and state arms,
/// since neither the delivery history nor the replica states changed.
#[test]
fn oracle_catches_seeded_certification_divergence() {
    let mut system = clean_system_with_txns(1, 0.0, 0.4);
    let audit = audit_scenario(&ScenarioPlan::new(), &system, SafetyLevel::GroupSafe);
    assert!(
        audit.violations.is_empty(),
        "the untouched run must audit clean"
    );
    assert!(
        audit.si_audited > 0,
        "the control run must actually exercise the snapshot path"
    );

    let id = system.servers[2];
    let server: &mut ReplicaServer = system.engine.actor_mut(id);
    server.poison_cert_digest_for_audit_controls(0xbad0_cafe_bad0_cafe);

    let found = violations(&system);
    assert!(
        found.iter().any(|v| matches!(
            v,
            OracleViolation::CertificationDivergence { group: 0, digests } if digests.len() > 1
        )),
        "a poisoned certification digest must be reported as \
         certification divergence: {found:?}"
    );
    assert!(
        !found.iter().any(|v| matches!(
            v,
            OracleViolation::OrderDivergence { .. } | OracleViolation::Divergence { .. }
        )),
        "certification divergence must be distinguished from order and \
         state divergence: {found:?}"
    );
}

/// Seeded lost update: two forged delegate certification records both
/// commit a write to the same item, the second from a snapshot taken
/// before the first committed. First-committer-wins certification makes
/// this impossible in a real run, so the SI arm must flag the pair.
#[test]
fn oracle_catches_seeded_si_lost_update() {
    let system = clean_system_with_txns(1, 0.0, 0.4);
    assert!(
        violations(&system).is_empty(),
        "the untouched run must audit clean"
    );

    let first = TxnId {
        client: u32::MAX,
        seq: 1,
    };
    let second = TxnId {
        client: u32::MAX,
        seq: 2,
    };
    let item = ItemId(3);
    forge_si(
        &system,
        SiRecord {
            txn: first,
            group: 0,
            snapshot: 0,
            readset: vec![],
            writes: vec![item],
            committed: true,
            commit_seq: 1_000_000,
        },
    );
    // Snapshot predates the first writer's commit, yet both committed:
    // the second writer overwrote an update it never saw.
    forge_si(
        &system,
        SiRecord {
            txn: second,
            group: 0,
            snapshot: 999_990,
            readset: vec![],
            writes: vec![item],
            committed: true,
            commit_seq: 1_000_010,
        },
    );

    let found = violations(&system);
    assert!(
        found.iter().any(|v| matches!(
            v,
            OracleViolation::SiLostUpdate { first: f, second: s, item: i }
                if *f == first && *s == second && *i == item
        )),
        "two committed writers across a stale-snapshot interval must be \
         reported as a lost update: {found:?}"
    );
}

/// Seeded dirty read: a forged certification record whose read set
/// claims a version above its own snapshot (equivalently, one no
/// committed transaction ever wrote). Snapshot containment makes this
/// impossible in a real run, so the SI arm must flag the read.
#[test]
fn oracle_catches_seeded_si_dirty_read() {
    let system = clean_system_with_txns(1, 0.0, 0.4);
    assert!(
        violations(&system).is_empty(),
        "the untouched run must audit clean"
    );

    let txn = TxnId {
        client: u32::MAX,
        seq: 7,
    };
    let item = ItemId(5);
    forge_si(
        &system,
        SiRecord {
            txn,
            group: 0,
            snapshot: 10,
            readset: vec![(item, 999_999)],
            writes: vec![],
            committed: false,
            commit_seq: 0,
        },
    );
    // Within its snapshot this time, but a version no commit wrote.
    let unwritten = TxnId {
        client: u32::MAX,
        seq: 8,
    };
    forge_si(
        &system,
        SiRecord {
            txn: unwritten,
            group: 0,
            snapshot: 2_000_000,
            readset: vec![(item, 1_000_001)],
            writes: vec![],
            committed: false,
            commit_seq: 0,
        },
    );

    let found = violations(&system);
    assert!(
        found.iter().any(|v| matches!(
            v,
            OracleViolation::SiDirtyRead { txn: t, item: i, version: 999_999 }
                if *t == txn && *i == item
        )),
        "a snapshot read above its snapshot must be reported as a dirty \
         read: {found:?}"
    );
    assert!(
        found.iter().any(|v| matches!(
            v,
            OracleViolation::SiDirtyRead { txn: t, item: i, version: 1_000_001 }
                if *t == unwritten && *i == item
        )),
        "a snapshot read of a version no commit wrote must be reported as \
         a dirty read: {found:?}"
    );
}
