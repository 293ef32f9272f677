//! The local read path: follower reads at the three freshness levels,
//! session-token behavior, the read-freshness oracle (positive runs and
//! the negative controls), and the broadcast-read baseline.

use groupsafe::core::reads::{audit_reads, ReadLevel, ReadPath, ReadViolation};
use groupsafe::core::scenario::{audit_scenario, OracleViolation, ScenarioPlan};
use groupsafe::core::verify::{LostTransaction, Oracle, ReadAckRecord, ReadRecord};
use groupsafe::core::{BuildError, Load, SafetyLevel, System};
use groupsafe::db::{ItemId, TxnId, WriteOp};
use groupsafe::net::NodeId;
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe_bench::contract::parting_reads;

fn read_builder(level: ReadLevel, fraction: f64, seed: u64) -> groupsafe::core::SystemBuilder {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .read_level(level)
        .read_fraction(fraction)
        .load(Load::open_tps(20.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
}

// ---------------------------------------------------------------------
// The local path serves reads, at every level, and audits clean
// ---------------------------------------------------------------------

#[test]
fn local_reads_serve_and_audit_clean_at_every_level() {
    for level in [ReadLevel::Stable, ReadLevel::Session, ReadLevel::Latest] {
        let mut run = read_builder(level, 0.5, 11).build().expect("valid");
        run.run_until(SimTime::from_secs(5));
        run.stop_clients_at(SimTime::from_secs(5));
        run.run_until(SimTime::from_secs(7));
        let system = run.into_system();
        {
            let oracle = system.oracle.borrow();
            let tally = oracle.reads.tally();
            assert!(
                tally.served > 20,
                "{level}: locally served reads expected, got {}",
                tally.served
            );
            assert_eq!(
                tally.served_by_level[level as usize], tally.served,
                "{level}: every local read carries its level"
            );
            // Session reads honour their token at serve time.
            let stale: Vec<_> = oracle
                .reads
                .violations()
                .iter()
                .filter(|v| matches!(v, ReadViolation::StaleSessionRead { .. }))
                .collect();
            assert!(stale.is_empty(), "{level}: {stale:?}");
        }
        let audit = audit_scenario(&ScenarioPlan::new(), &system, SafetyLevel::GroupSafe);
        assert!(audit.clean(), "{level}: {:?}", audit.violations);
        assert!(audit.reads_audited > 20, "{level}: audit saw the reads");
        assert!(system.lost_transactions().is_empty(), "{level}");
    }
}

#[test]
fn read_report_carries_throughput_and_staleness() {
    let report = read_builder(ReadLevel::Session, 0.6, 23)
        .build()
        .expect("valid")
        .execute();
    assert!(report.reads > 20, "{report}");
    assert!(report.read_tps > 4.0, "{report}");
    assert!(report.read_mean_ms > 0.0, "{report}");
    assert!(report.is_safe_and_convergent(), "{report}");
    let json = report.to_json();
    assert!(json.contains("\"reads\":"), "{json}");
    assert!(json.contains("\"read_tps\":"), "{json}");
    assert!(json.contains("\"read_staleness\":"), "{json}");
}

#[test]
fn session_tokens_advance_with_commits_and_reads() {
    let mut run = read_builder(ReadLevel::Session, 0.5, 31)
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(7));
    let system = run.into_system();
    let oracle = system.oracle.borrow();
    // Sessions that wrote before reading carry non-zero tokens: the
    // read-your-writes floor is actually exercised, not vacuous.
    let tally = oracle.reads.tally();
    assert!(
        tally.tokened > 5,
        "tokened session reads expected, got {}/{}",
        tally.tokened,
        tally.served
    );
    // Monotonic reads per session (ack order), by construction.
    let viols = audit_reads(&oracle, &[], &|_| false);
    assert!(viols.is_empty(), "{viols:?}");
}

#[test]
fn sharded_reads_stay_per_group_and_report_per_group() {
    let report = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .shards(3)
        .read_level(ReadLevel::Session)
        .read_fraction(0.5)
        .load(Load::open_tps(45.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(41)
        .build()
        .expect("valid")
        .execute();
    assert!(report.reads > 30, "{report}");
    assert_eq!(report.groups.len(), 3);
    let spread: Vec<usize> = report.groups.iter().map(|g| g.reads).collect();
    assert!(
        spread.iter().filter(|&&r| r > 0).count() >= 2,
        "reads spread over groups: {spread:?}"
    );
    assert!(report.is_safe_and_convergent(), "{report}");
}

// ---------------------------------------------------------------------
// Levels differ where they should
// ---------------------------------------------------------------------

/// `Stable` and `Latest` reads part at 2-safe after a majority crashes
/// and recovers: the recovered members' stability evidence trails their
/// applied head, so the two levels run the same dispatches but serve
/// other snapshots (the contract's `reads-part/…` cells pin both runs).
#[test]
fn stable_and_latest_reads_part_where_the_evidence_trails_the_applied_head() {
    let run = |level| {
        let mut run = parting_reads(level).build().expect("valid");
        run.run_until(SimTime::from_secs(6));
        run.stop_clients_at(SimTime::from_secs(6));
        run.run_until(SimTime::from_secs(9));
        let system = run.into_system();
        let tally = system.oracle.borrow().reads.tally().clone();
        (system.engine.fingerprint(), tally.served, tally.lag_sum)
    };
    let (stable, latest) = (run(ReadLevel::Stable), run(ReadLevel::Latest));
    assert_eq!(
        (stable.0, stable.1),
        (latest.0, latest.1),
        "the same dispatches"
    );
    assert!(
        stable.2 > 0.0,
        "a stable read pinned below the applied head"
    );
    assert_eq!(latest.2, 0.0, "every latest read served the applied head");
}

#[test]
fn stable_reads_never_exceed_the_watermark() {
    let mut run = read_builder(ReadLevel::Stable, 0.5, 53)
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(7));
    let system = run.into_system();
    let oracle = system.oracle.borrow();
    // Every stable read is kept, with the items it observed.
    let stable = oracle.reads.stable();
    assert!(
        stable.len() > 20,
        "stable reads expected, got {}",
        stable.len()
    );
    assert_eq!(stable.len(), oracle.reads.tally().served);
    for r in stable.iter() {
        let rec = *r;
        assert!(r.snapshot_seq <= r.stable_seq, "{rec:?}");
        assert!(r.snapshot_seq <= r.applied_seq, "{rec:?}");
        for (item, version) in r.items() {
            assert!(version <= r.snapshot_seq, "{item:?}@{version} in {rec:?}");
        }
    }
}

#[test]
fn unsupported_read_configurations_are_typed_errors() {
    // The lazy baseline serves reads through its own 2PL execution.
    let err = System::builder()
        .safety(SafetyLevel::OneSafe)
        .read_level(ReadLevel::Latest)
        .build()
        .err();
    assert!(
        matches!(err, Some(BuildError::UnsupportedReads { .. })),
        "{err:?}"
    );
    let err = System::builder()
        .safety(SafetyLevel::OneSafe)
        .read_path(ReadPath::Broadcast)
        .build()
        .err();
    assert!(
        matches!(err, Some(BuildError::UnsupportedReads { .. })),
        "{err:?}"
    );
    // 0-safe's non-uniform delivery casts no stability votes: no
    // watermark to serve stable reads under.
    let err = System::builder()
        .safety(SafetyLevel::ZeroSafe)
        .read_level(ReadLevel::Stable)
        .build()
        .err();
    assert!(
        matches!(err, Some(BuildError::UnsupportedReads { .. })),
        "{err:?}"
    );
    // Session/latest reads are fine at 0-safe.
    assert!(System::builder()
        .safety(SafetyLevel::ZeroSafe)
        .read_level(ReadLevel::Session)
        .build()
        .is_ok());
}

// ---------------------------------------------------------------------
// The broadcast baseline
// ---------------------------------------------------------------------

#[test]
fn broadcast_reads_pay_the_ordering_round() {
    let classic = read_builder(ReadLevel::Latest, 0.6, 67)
        .read_path(ReadPath::Classic)
        .build()
        .expect("valid")
        .execute();
    let broadcast = read_builder(ReadLevel::Latest, 0.6, 67)
        .read_path(ReadPath::Broadcast)
        .build()
        .expect("valid")
        .execute();
    assert!(classic.reads > 20, "{classic}");
    assert!(broadcast.reads > 0, "{broadcast}");
    // Broadcast reads ride the abcast: the same workload orders far
    // more entries than the classic path (which broadcasts only the
    // updates).
    assert!(
        broadcast.votes_per_delivery > 0.0 && broadcast.commits > 0,
        "{broadcast}"
    );
    assert!(broadcast.is_safe_and_convergent(), "{broadcast}");
    assert!(
        broadcast.read_mean_ms > classic.read_mean_ms,
        "an ordered read costs more than a delegate-local one: \
         broadcast {:.2} ms vs classic {:.2} ms",
        broadcast.read_mean_ms,
        classic.read_mean_ms
    );
}

/// Bounded-wait redirects fire when a replica's delivery head stalls
/// behind a session (here: a loss burst gaps its ordered stream until
/// gap repair, while the session's token keeps advancing through
/// commits answered by up-to-date replicas) — and the run still audits
/// clean: the redirect protocol trades latency, never freshness.
#[test]
fn lagging_replicas_redirect_session_reads() {
    let plan = ScenarioPlan::new().loss_burst(
        SimTime::from_millis(1_500),
        0.35,
        SimDuration::from_millis(1_000),
    );
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .read_level(ReadLevel::Session)
        .read_fraction(0.5)
        .load(Load::open_tps(60.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(3))
        .scenario(plan.clone())
        .seed(3)
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(8));
    let system = run.into_system();
    let redirects = system.oracle.borrow().read_redirects();
    assert!(redirects > 0, "the stalled replica must have redirected");
    assert!(system.lost_transactions().is_empty());
    let audit = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
}

// ---------------------------------------------------------------------
// Read clients mixed into the scenario fuzzer (smoke; CI runs the
// 50-seed sweeps per level)
// ---------------------------------------------------------------------

#[test]
fn read_mixed_fuzz_smoke() {
    use groupsafe::core::scenario::fuzz::{run_fuzz_case, smoke};
    for level in [ReadLevel::Stable, ReadLevel::Session, ReadLevel::Latest] {
        let envelope = || {
            smoke(SafetyLevel::GroupSafe)
                .read_level(level)
                .read_fraction(0.5)
        };
        let mut reads_audited = 0usize;
        for seed in 0..8 {
            let out = run_fuzz_case(seed, envelope());
            assert!(out.ok(), "{level}: {}", out.describe());
            reads_audited += out.audit.reads_audited;
        }
        assert!(
            reads_audited > 50,
            "{level}: local reads flowed through the plans"
        );
    }
}

#[test]
fn read_mixed_fuzz_replays_bit_for_bit() {
    use groupsafe::core::scenario::fuzz::{run_fuzz_case, smoke};
    let envelope = || {
        smoke(SafetyLevel::GroupSafe)
            .read_level(ReadLevel::Session)
            .read_fraction(0.5)
    };
    let a = run_fuzz_case(3, envelope());
    let b = run_fuzz_case(3, envelope());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.audit.reads_audited, b.audit.reads_audited);
}

// ---------------------------------------------------------------------
// Negative controls: the oracle must catch seeded violations
// ---------------------------------------------------------------------

fn served_read(level: ReadLevel, token: u64, snapshot: u64, stable: u64) -> ReadRecord {
    ReadRecord {
        txn: TxnId { client: 1, seq: 99 },
        group: 0,
        level,
        token,
        snapshot_seq: snapshot,
        stable_seq: stable,
        applied_seq: snapshot.max(stable),
        at: SimTime::from_secs(1),
    }
}

/// Report a served read that observed item 4 at the older of its
/// snapshot and watermark, as a replica does.
fn push_served(oracle: &mut Oracle, read: ReadRecord) {
    let observed = (ItemId(4), 0, read.snapshot_seq.min(read.stable_seq));
    oracle.record_read(read, &[observed]);
}

/// A deliberately stale session read — served below the token the
/// client carried — must be flagged.
#[test]
fn oracle_flags_a_stale_session_read() {
    let mut oracle = Oracle::default();
    push_served(&mut oracle, served_read(ReadLevel::Session, 12, 8, 20));
    let v = audit_reads(&oracle, &[], &|_| false);
    assert!(
        v.iter().any(|v| matches!(
            v,
            ReadViolation::StaleSessionRead {
                token: 12,
                snapshot_seq: 8,
                ..
            }
        )),
        "{v:?}"
    );
}

/// A stable read served above the group-stable watermark must be
/// flagged — and the scenario oracle must surface it as a violation.
#[test]
fn oracle_flags_a_stable_read_above_the_watermark() {
    let mut run = read_builder(ReadLevel::Stable, 0.4, 71)
        .build()
        .expect("valid");
    run.run_until(SimTime::from_secs(5));
    run.stop_clients_at(SimTime::from_secs(5));
    run.run_until(SimTime::from_secs(7));
    let system = run.into_system();
    // The honest run audits clean...
    let honest = audit_scenario(&ScenarioPlan::new(), &system, SafetyLevel::GroupSafe);
    assert!(honest.clean(), "{:?}", honest.violations);
    // ...then seed the violation: a fabricated stable read served two
    // sequence numbers above the watermark its replica exported.
    push_served(
        &mut system.oracle.borrow_mut(),
        served_read(ReadLevel::Stable, 0, 22, 20),
    );
    let dishonest = audit_scenario(&ScenarioPlan::new(), &system, SafetyLevel::GroupSafe);
    assert!(
        dishonest.violations.iter().any(|v| matches!(
            v,
            OracleViolation::Read(ReadViolation::UnstableRead {
                snapshot_seq: 22,
                stable_seq: 20,
                ..
            })
        )),
        "{:?}",
        dishonest.violations
    );
}

/// A stable read that observed a value the loss audit later declared
/// lost is flagged — unless the owning group wholly failed (the
/// level's own excused window).
#[test]
fn oracle_flags_a_stable_read_of_a_lost_value() {
    let mut oracle = Oracle::default();
    let lost_txn = TxnId { client: 3, seq: 7 };
    oracle.record_commit(
        lost_txn,
        NodeId(0),
        &[],
        &[WriteOp {
            item: ItemId(4),
            value: 5,
            version: 6,
        }],
    );
    let read = served_read(ReadLevel::Stable, 0, 6, 6);
    oracle.record_read(read, &[(ItemId(4), 5, 6)]);
    let lost = vec![LostTransaction { txn: lost_txn }];
    let v = audit_reads(&oracle, &lost, &|_| false);
    assert!(
        v.iter().any(
            |v| matches!(v, ReadViolation::LostValueObserved { lost_txn: t, .. } if *t == lost_txn)
        ),
        "{v:?}"
    );
    // The whole-group-failure excuse silences exactly this rule.
    let excused = audit_reads(&oracle, &lost, &|_| true);
    assert!(excused.is_empty(), "{excused:?}");
}

/// Monotonicity: a session that accepts a snapshot older than one it
/// already saw is flagged.
#[test]
fn oracle_flags_a_session_regression() {
    let mut oracle = Oracle::default();
    let ack = |seq: u64, n: u64| ReadAckRecord {
        txn: TxnId { client: 2, seq: n },
        group: 0,
        level: Some(ReadLevel::Session),
        snapshot_seq: seq,
        at: SimTime::from_millis(n),
        response_ms: 1.0,
    };
    oracle.record_read_ack(ack(9, 1));
    oracle.record_read_ack(ack(4, 2));
    let v = audit_reads(&oracle, &[], &|_| false);
    assert!(
        v.iter().any(|v| matches!(
            v,
            ReadViolation::SessionRegression {
                prev_seq: 9,
                snapshot_seq: 4,
                ..
            }
        )),
        "{v:?}"
    );
}

/// The measurement window's boundary: a read served and acknowledged
/// before the warm-up ends counts for staleness and for the audit, but
/// not for `reads`, `read_tps` or `read_mean_ms` — the twin run without
/// it reports those three bit for bit.
#[test]
fn a_read_acked_in_the_warm_up_counts_for_staleness_and_the_audit_only() {
    let plan = ScenarioPlan::new();
    let run_with = |inject: bool| {
        let mut run = read_builder(ReadLevel::Session, 0.5, 83)
            .warmup(SimDuration::from_secs(2))
            .build()
            .expect("valid");
        run.run_until(SimTime::from_secs(1));
        if inject {
            // A session read no client made, served 12 sequence numbers
            // behind its replica and below its token, acknowledged at
            // once with a response time that would dominate any mean.
            let read = ReadRecord {
                txn: TxnId {
                    client: 1_000,
                    seq: 1,
                },
                at: SimTime::from_secs(1),
                ..served_read(ReadLevel::Session, 12, 8, 20)
            };
            let mut oracle = run.system().oracle.borrow_mut();
            oracle.record_read(read, &[]);
            oracle.record_read_ack(ReadAckRecord {
                txn: read.txn,
                group: 0,
                level: Some(ReadLevel::Session),
                snapshot_seq: 8,
                at: read.at,
                response_ms: 1.0e6,
            });
        }
        run.run_until(SimTime::from_secs(7));
        run.stop_clients_at(SimTime::from_secs(7));
        run.run_until(SimTime::from_secs(9));
        let audit = audit_scenario(&plan, run.system(), SafetyLevel::GroupSafe);
        (audit.violations, run.finish())
    };
    let (honest_violations, honest) = run_with(false);
    let (violations, report) = run_with(true);
    assert!(honest_violations.is_empty(), "{honest_violations:?}");
    assert!(honest.reads > 20, "{honest}");

    assert_eq!(report.reads, honest.reads);
    assert_eq!(report.read_tps.to_bits(), honest.read_tps.to_bits());
    assert_eq!(report.read_mean_ms.to_bits(), honest.read_mean_ms.to_bits());
    assert!(
        report.read_staleness > honest.read_staleness,
        "staleness counts the whole run: {} vs {}",
        report.read_staleness,
        honest.read_staleness
    );
    assert!(
        matches!(
            violations.as_slice(),
            [OracleViolation::Read(ReadViolation::StaleSessionRead {
                txn: TxnId { client: 1_000, .. },
                token: 12,
                snapshot_seq: 8,
                ..
            })]
        ),
        "{violations:?}"
    );
}
