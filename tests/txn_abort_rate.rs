//! Regression pin for the first-writer-wins abort storm at a 50 % read
//! mix.
//!
//! With broadcast (strictly serializable) reads, the classic pipeline
//! certifies every read-only transaction's full read set, so under a
//! contended mix half the offered load consists of transactions any
//! concurrent writer can invalidate — the measured abort rate climbs to
//! ~0.42. Snapshot-isolation transactions serve those same reads off
//! MVCC snapshots and certify write sets only: an empty or disjoint
//! write set cannot conflict, and the abort rate collapses by an order
//! of magnitude at identical offered load.
//!
//! The two runs below differ in exactly one knob (`txn_fraction`), so a
//! regression in either direction is attributable: the classic floor
//! rising means the baseline changed; the snapshot ceiling breaking
//! means reads leaked back into certification.

use groupsafe::core::{Load, ReadPath, Report, SafetyLevel, System, WorkloadSpec};
use groupsafe::sim::SimDuration;

/// The contended 50 % read mix: Table 4 transaction shapes over
/// broadcast reads, offered just past the classic pipeline's knee.
fn contended_mix(txn_fraction: f64) -> Report {
    System::builder()
        .servers(3)
        .clients_per_server(4)
        .safety(SafetyLevel::GroupSafe)
        .read_path(ReadPath::Broadcast)
        .workload(WorkloadSpec {
            read_fraction: 0.5,
            ..WorkloadSpec::default()
        })
        .txn_fraction(txn_fraction)
        .load(Load::open_tps(32.0))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(2))
        .seed(11)
        .build()
        .expect("a valid contended mix")
        .execute()
}

#[test]
fn snapshot_txns_dissolve_the_first_writer_wins_abort_storm() {
    let classic = contended_mix(0.0);
    assert!(
        classic.abort_rate > 0.3,
        "the classic baseline's abort storm at the 50 % read mix has \
         moved (measured {:.3}, historically ~0.39–0.42) — retune the \
         load \
         before trusting the snapshot comparison",
        classic.abort_rate
    );

    let snapshot = contended_mix(1.0);
    assert!(
        snapshot.abort_rate < 0.1,
        "snapshot transactions must hold the abort rate below 0.1 at \
         the mix the classic pipeline aborts {:.3} of: measured {:.3}",
        classic.abort_rate,
        snapshot.abort_rate
    );
    assert!(
        snapshot.txn_abort_rate < 0.1,
        "certification aborts among snapshot transactions must stay \
         below 0.1: measured {:.3}",
        snapshot.txn_abort_rate
    );
    assert!(
        snapshot.txn_commits > 100,
        "the comparison is only meaningful if snapshot transactions \
         actually flowed: {} commits",
        snapshot.txn_commits
    );
    // The storm's dissolution is the headline: an order of magnitude.
    assert!(
        snapshot.abort_rate < classic.abort_rate / 3.0,
        "snapshot certification must beat the classic baseline by a \
         wide margin: {:.3} vs {:.3}",
        snapshot.abort_rate,
        classic.abort_rate
    );
}
