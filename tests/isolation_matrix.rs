//! A hermitage-style isolation matrix for interactive snapshot-isolation
//! transactions over the multi-version store, run end to end through the
//! database state machine pipeline at every strong safety level
//! (group-safe, 2-safe, group-1-safe).
//!
//! Each test scripts one classic anomaly as hand-timed transactions
//! injected straight into the delegates of an otherwise idle system,
//! then asserts the outcome the SI contract promises — from the
//! delegates' certification records (`SiRecord`: verdict, pinned
//! snapshot, observed read versions) and the replicas' converged state:
//!
//! | anomaly                          | verdict under SI  |
//! |----------------------------------|-------------------|
//! | G0  dirty write                  | prevented         |
//! | G1a aborted read                 | prevented         |
//! | G1b intermediate read            | prevented         |
//! | G1c circular information flow    | prevented         |
//! | OTV observed transaction vanishes| prevented         |
//! | G-single read skew               | prevented         |
//! | lost update                      | prevented         |
//! | G2-item write skew               | **allowed**       |
//!
//! G2-item is the matrix's honesty check: snapshot isolation is *not*
//! serializability, and a suite in which write skew failed to commit
//! would be testing some other protocol.
//!
//! Every scenario then runs its negative control: corrupt one replica's
//! certification verdicts (the PR-6 seeded-corruption hooks) and assert
//! the scenario oracle reports `CertificationDivergence` — so a green
//! matrix is evidence, not vacuity. A final end-to-end control forces a
//! delegate to certify blindly and asserts the oracle convicts the
//! resulting lost update itself (`SiLostUpdate`).

use groupsafe::core::msg::{ClientMsg, TxnRequest};
use groupsafe::core::scenario::{audit_scenario, OracleViolation, ScenarioPlan};
use groupsafe::core::server::ReplicaServer;
use groupsafe::core::{Load, SafetyLevel, SiRecord, SiView, System};
use groupsafe::db::{DbConfig, ItemId, Operation, TxnId};
use groupsafe::net::{Incoming, NodeId};
use groupsafe::sim::{SimDuration, SimTime};

/// The safety levels the matrix runs at. SI semantics are carried by the
/// certification pipeline, which all three share; the levels differ only
/// in logging/ack discipline, and the matrix proves the isolation
/// guarantees are invariant across them.
const LEVELS: [SafetyLevel; 3] = [
    SafetyLevel::GroupSafe,
    SafetyLevel::TwoSafe,
    SafetyLevel::GroupOneSafe,
];

const X: ItemId = ItemId(10);
const Y: ItemId = ItemId(11);
/// Probe items: a snapshot read-only transaction commits locally without
/// a broadcast (and thus without a certification record), so readers
/// carry one write to a private item to travel the full pipeline.
const P1: ItemId = ItemId(100);
const P2: ItemId = ItemId(101);
const P3: ItemId = ItemId(102);

/// Injected transactions use a client id no generated workload can
/// collide with.
fn txn(seq: u64) -> TxnId {
    TxnId {
        client: u32::MAX,
        seq,
    }
}

/// One scripted transaction: injection time (ms), delegate server index,
/// id, operations.
struct Script {
    at_ms: u64,
    delegate: u32,
    id: TxnId,
    ops: Vec<Operation>,
}

fn script(at_ms: u64, delegate: u32, id: TxnId, ops: Vec<Operation>) -> Script {
    Script {
        at_ms,
        delegate,
        id,
        ops,
    }
}

/// Build an idle 3-replica system at `level`, inject the scripted
/// transactions as snapshot-isolation requests, run to quiescence and
/// hand back the system for inspection. `corrupt_delegate` switches one
/// server's certifier to commit-everything *before* the run — the
/// end-to-end negative control.
fn run_matrix(level: SafetyLevel, scripts: &[Script], corrupt_delegate: Option<u32>) -> System {
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(1)
        .safety(level)
        .db(DbConfig {
            mvcc_depth: 64,
            ..DbConfig::default()
        })
        .load(Load::open_tps(1.0))
        .measure(SimDuration::from_secs(6))
        .drain(SimDuration::from_secs(2))
        .seed(7)
        .build()
        .expect("a valid matrix configuration");
    // The generated workload never starts: the matrix is single-stepped.
    run.stop_clients_at(SimTime::ZERO);
    let sys = run.system_mut();
    // With 3 servers the first client is node 3; replies to injected
    // transactions land there and are dropped as unknown.
    let client = NodeId(3);
    if let Some(idx) = corrupt_delegate {
        let id = sys.servers[idx as usize];
        let server: &mut ReplicaServer = sys.engine.actor_mut(id);
        server.force_commit_certification_for_audit_controls();
    }
    for s in scripts {
        let target = sys.servers[s.delegate as usize];
        let req = TxnRequest {
            id: s.id,
            ops: s.ops.clone(),
            client,
            attempt: 0,
            snapshot: true,
            token: 0,
        };
        sys.engine.schedule_resilient(
            SimTime::from_millis(s.at_ms),
            target,
            Incoming {
                from: client,
                msg: ClientMsg::Request(req),
            },
        );
    }
    run.run_until(SimTime::from_secs(6));
    run.into_system()
}

/// The delegate's certification record for an injected transaction:
/// verdict, pinned snapshot, observed read versions, commit sequence.
fn record(system: &System, id: TxnId) -> SiRecord {
    let oracle = system.oracle.borrow();
    let recs: Vec<SiView<'_>> = oracle.si_txns.iter().filter(|r| r.txn == id).collect();
    assert_eq!(
        recs.len(),
        1,
        "exactly one certification record for {id:?} (no resubmissions)"
    );
    SiRecord::from(recs[0])
}

/// The version an injected reader observed for `item`, from its record.
fn read_version(rec: &SiRecord, item: ItemId) -> u64 {
    rec.readset
        .iter()
        .find(|(i, _)| *i == item)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("{:?} read no version of {item:?}", rec.txn))
}

/// The clean-run epilogue every scenario shares: the oracle audits the
/// run clean with the injected transactions actually on the snapshot
/// path, every live replica agrees on `item`'s final state — and the
/// negative control holds: poisoning one replica's certification digest
/// makes the same audit report `CertificationDivergence`.
fn assert_clean_then_control(
    mut system: System,
    level: SafetyLevel,
    min_si_records: usize,
    item: ItemId,
) {
    let audit = audit_scenario(&ScenarioPlan::new(), &system, level);
    assert!(
        audit.violations.is_empty(),
        "the scenario must audit clean at {level:?}: {:?}",
        audit.violations
    );
    assert!(
        audit.si_audited >= min_si_records,
        "the SI arms must have audited the injected transactions \
         ({} < {min_si_records})",
        audit.si_audited
    );
    let states: Vec<_> = system
        .replica_states_of(0)
        .iter()
        .filter(|(_, live)| *live)
        .map(|(db, _)| db.item(item))
        .collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "every live replica must agree on {item:?}: {states:?}"
    );

    // Negative control: a matrix that cannot fail is not a test. Corrupt
    // one replica's certification verdicts and the oracle must convict.
    let id = system.servers[1];
    let server: &mut ReplicaServer = system.engine.actor_mut(id);
    server.poison_cert_digest_for_audit_controls(0x5151_5151_5151_5151);
    let found = audit_scenario(&ScenarioPlan::new(), &system, level).violations;
    assert!(
        found
            .iter()
            .any(|v| matches!(v, OracleViolation::CertificationDivergence { .. })),
        "corrupted certification must be reported at {level:?}: {found:?}"
    );
}

/// G0 — dirty write: two concurrent transactions interleave writes to x
/// and y. Writes are buffered at the delegate and applied atomically at
/// delivery, and first-committer-wins aborts the overlapping write set:
/// one transaction wins both items wholesale.
#[test]
fn g0_dirty_write_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Write(X, 10), Operation::Write(Y, 10)],
                ),
                script(
                    1000,
                    1,
                    txn(2),
                    vec![Operation::Write(X, 20), Operation::Write(Y, 20)],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed ^ t2.committed,
            "concurrent overlapping writers must resolve to exactly one \
             commit at {level:?}: {t1:?} {t2:?}"
        );
        let winner = if t1.committed { &t1 } else { &t2 };
        let db0 = system.server(0).db();
        let (x, y) = (db0.item(X), db0.item(Y));
        assert_eq!(
            (x.version, y.version),
            (winner.commit_seq, winner.commit_seq),
            "both items must carry the single winner's versions at {level:?}"
        );
        assert_eq!(
            x.value, y.value,
            "interleaved writes must never mix at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// G1a — aborted read: a later reader must never observe a version
/// written by a transaction that aborted. Aborted writers never install
/// versions, so the reader sees exactly the surviving writer's commit.
#[test]
fn g1a_aborted_read_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(1000, 0, txn(1), vec![Operation::Write(X, 5)]),
                script(1000, 1, txn(2), vec![Operation::Write(X, 7)]),
                script(
                    3000,
                    2,
                    txn(3),
                    vec![Operation::Read(X), Operation::Write(P1, 1)],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed ^ t2.committed,
            "one of the conflicting writers must abort at {level:?}"
        );
        let winner = if t1.committed { &t1 } else { &t2 };
        let reader = record(&system, txn(3));
        assert!(reader.committed, "the probe reader commits at {level:?}");
        assert_eq!(
            read_version(&reader, X),
            winner.commit_seq,
            "the reader must observe the committed writer, never the \
             aborted one, at {level:?}"
        );
        assert_clean_then_control(system, level, 3, X);
    }
}

/// G1b — intermediate read: a transaction writes x twice; a concurrent
/// reader must see either the initial version or the final write, never
/// the intermediate one. Delegate-buffered writes make intermediates
/// unobservable by construction; the final value is what ships.
#[test]
fn g1b_intermediate_read_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Write(X, 41), Operation::Write(X, 42)],
                ),
                script(
                    1000,
                    1,
                    txn(2),
                    vec![Operation::Read(X), Operation::Write(P2, 1)],
                ),
                script(
                    3000,
                    2,
                    txn(3),
                    vec![Operation::Read(X), Operation::Write(P3, 1)],
                ),
            ],
            None,
        );
        let writer = record(&system, txn(1));
        assert!(writer.committed, "the double writer commits at {level:?}");
        let concurrent = record(&system, txn(2));
        assert_eq!(
            read_version(&concurrent, X),
            0,
            "a concurrent snapshot reader sees the initial version, \
             never a buffered intermediate, at {level:?}"
        );
        let after = record(&system, txn(3));
        assert_eq!(
            read_version(&after, X),
            writer.commit_seq,
            "a later reader sees the writer's single installed version \
             at {level:?}"
        );
        assert_eq!(
            system.server(0).db().item(X).value,
            42,
            "only the final write of the pair is ever installed at {level:?}"
        );
        assert_clean_then_control(system, level, 3, X);
    }
}

/// G1c — circular information flow: T1 reads y and writes x while T2
/// reads x and writes y. Both may commit under SI (disjoint write sets),
/// but each read from its pre-transaction snapshot: neither observes the
/// other's write, so no information cycle forms.
#[test]
fn g1c_circular_information_flow_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Read(Y), Operation::Write(X, 1)],
                ),
                script(
                    1000,
                    1,
                    txn(2),
                    vec![Operation::Read(X), Operation::Write(Y, 2)],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed && t2.committed,
            "disjoint write sets certify cleanly at {level:?}"
        );
        assert_eq!(
            (read_version(&t1, Y), read_version(&t2, X)),
            (0, 0),
            "neither transaction may observe the other's write at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// OTV — observed transaction vanishes: once a reader observes one of a
/// committed transaction's writes, it must observe all of them. The
/// reads execute against one pinned snapshot, so visibility is
/// all-or-nothing per transaction.
#[test]
fn otv_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Write(X, 3), Operation::Write(Y, 4)],
                ),
                script(
                    3000,
                    1,
                    txn(2),
                    vec![
                        Operation::Read(X),
                        Operation::Read(Y),
                        Operation::Write(P1, 1),
                    ],
                ),
            ],
            None,
        );
        let writer = record(&system, txn(1));
        assert!(writer.committed, "the writer commits at {level:?}");
        let reader = record(&system, txn(2));
        assert_eq!(
            (read_version(&reader, X), read_version(&reader, Y)),
            (writer.commit_seq, writer.commit_seq),
            "a reader observing one write must observe them all at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// G-single — read skew: T1 reads x, dawdles, then reads y; T2 writes
/// both and commits in between. T1's second read must come from its
/// pinned snapshot (the multi-version store serves the superseded
/// version), not from T2's newer commit.
#[test]
fn g_single_read_skew_prevented() {
    for level in LEVELS {
        // 20 filler reads (~8 ms of I/O each) hold T1's read phase open
        // across T2's entire pipeline.
        let mut slow_ops = vec![Operation::Read(X)];
        slow_ops.extend((200..220).map(|i| Operation::Read(ItemId(i))));
        slow_ops.push(Operation::Read(Y));
        slow_ops.push(Operation::Write(P1, 1));
        let system = run_matrix(
            level,
            &[
                script(1000, 0, txn(1), slow_ops.clone()),
                script(
                    1005,
                    1,
                    txn(2),
                    vec![Operation::Write(X, 9), Operation::Write(Y, 9)],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed && t2.committed,
            "reader and writer have disjoint write sets at {level:?}"
        );
        assert!(
            t2.commit_seq > t1.snapshot,
            "the writer must commit after the reader pinned its snapshot \
             (the scenario's timing premise) at {level:?}"
        );
        assert_eq!(
            (read_version(&t1, X), read_version(&t1, Y)),
            (0, 0),
            "both reads must come from the pinned snapshot even though \
             the second executed after the writer committed, at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// Lost update: two concurrent read-modify-writes of x. First-committer-
/// wins certification aborts the second writer — its snapshot predates
/// the first commit — so no update is silently overwritten.
#[test]
fn lost_update_prevented() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Read(X), Operation::Write(X, 100)],
                ),
                script(
                    1000,
                    1,
                    txn(2),
                    vec![Operation::Read(X), Operation::Write(X, 200)],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed ^ t2.committed,
            "concurrent read-modify-writes must resolve to exactly one \
             commit at {level:?}: {t1:?} {t2:?}"
        );
        let winner = if t1.committed { &t1 } else { &t2 };
        assert_eq!(
            system.server(0).db().item(X).version,
            winner.commit_seq,
            "the surviving update is the winner's at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// G2-item — write skew, the anomaly snapshot isolation famously admits:
/// both transactions read {x, y} and write disjoint items, so
/// first-committer-wins finds no overlap and both commit. The matrix
/// asserts the anomaly *happens* — a pipeline where this aborted would
/// be serializable, not SI, and the rest of the matrix would be testing
/// the wrong protocol.
#[test]
fn g2_item_write_skew_allowed() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![
                        Operation::Read(X),
                        Operation::Read(Y),
                        Operation::Write(X, 1),
                    ],
                ),
                script(
                    1000,
                    1,
                    txn(2),
                    vec![
                        Operation::Read(X),
                        Operation::Read(Y),
                        Operation::Write(Y, 1),
                    ],
                ),
            ],
            None,
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed && t2.committed,
            "snapshot isolation admits write skew — both must commit at \
             {level:?}: {t1:?} {t2:?}"
        );
        assert!(
            t1.snapshot < t2.commit_seq && t2.snapshot < t1.commit_seq,
            "the commits must be genuinely concurrent for the skew to be \
             meaningful at {level:?}"
        );
        assert_clean_then_control(system, level, 2, X);
    }
}

/// End-to-end negative control: force one delegate to certify
/// everything as committed and replay the lost-update scenario through
/// it. The corrupted delegate commits both writers and its own
/// certification records now exhibit the lost update — the oracle must
/// convict both the anomaly (`SiLostUpdate`) and the replica's verdict
/// divergence (`CertificationDivergence`).
#[test]
fn corrupted_certification_loses_update_and_oracle_convicts() {
    for level in LEVELS {
        let system = run_matrix(
            level,
            &[
                script(
                    1000,
                    0,
                    txn(1),
                    vec![Operation::Read(X), Operation::Write(X, 100)],
                ),
                script(
                    1000,
                    0,
                    txn(2),
                    vec![Operation::Read(X), Operation::Write(X, 200)],
                ),
            ],
            Some(0),
        );
        let (t1, t2) = (record(&system, txn(1)), record(&system, txn(2)));
        assert!(
            t1.committed && t2.committed,
            "the corrupted delegate certifies both writers at {level:?}"
        );
        let found = audit_scenario(&ScenarioPlan::new(), &system, level).violations;
        assert!(
            found
                .iter()
                .any(|v| matches!(v, OracleViolation::SiLostUpdate { item: X, .. })),
            "the oracle must convict the lost update itself at {level:?}: \
             {found:?}"
        );
        assert!(
            found
                .iter()
                .any(|v| matches!(v, OracleViolation::CertificationDivergence { .. })),
            "the oracle must convict the diverging verdicts at {level:?}: \
             {found:?}"
        );
    }
}
