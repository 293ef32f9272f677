//! The `txns-off ≡ seed` pin: with snapshot transactions disabled (the
//! default), the system is bit-for-bit the pre-SI system — same dispatch
//! fingerprint, same commits, same digests, same report JSON. The
//! discipline is the draw-order contract: the SI coin is flipped only
//! when `txn_fraction > 0`, so a zero fraction consumes not a single
//! extra random draw anywhere in the generator. Same pattern as
//! `tests/reads_off_equivalence.rs`.

use groupsafe::core::{Load, SafetyLevel, System, SystemBuilder};
use groupsafe::sim::SimDuration;

fn base(seed: u64) -> SystemBuilder {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(15.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
}

#[test]
fn txns_off_is_fingerprint_identical_to_the_default() {
    // Explicitly zero snapshot-transaction fraction...
    let pinned = base(4242)
        .txn_fraction(0.0)
        .build()
        .expect("valid")
        .execute();
    // ...vs. the untouched default builder.
    let default = base(4242).build().expect("valid").execute();
    assert_eq!(pinned.fingerprint, default.fingerprint, "bit-for-bit");
    assert_eq!(pinned.commits, default.commits);
    assert_eq!(pinned.digests, default.digests);
    assert_eq!(pinned.to_json(), default.to_json(), "whole report");
    assert_eq!(
        default.txn_commits + default.txn_aborts,
        0,
        "no snapshot transactions at the Table 4 mix"
    );
}

/// The pin also holds with a read mix in play: the read coin precedes
/// the SI coin, and a zero `txn_fraction` must leave the read-mixed
/// draw sequence untouched too.
#[test]
fn txns_off_is_fingerprint_identical_under_a_read_mix() {
    let pinned = base(77)
        .read_fraction(0.5)
        .txn_fraction(0.0)
        .build()
        .expect("valid")
        .execute();
    let default = base(77)
        .read_fraction(0.5)
        .build()
        .expect("valid")
        .execute();
    assert_eq!(pinned.fingerprint, default.fingerprint, "bit-for-bit");
    assert_eq!(pinned.to_json(), default.to_json(), "whole report");
}

/// Sanity that the pin is not comparing two dead configurations: the
/// same seed with the fraction turned on actually runs snapshot
/// transactions, commits and converges.
#[test]
fn snapshot_txns_are_live_under_the_pinned_seed() {
    let si = base(4242)
        .txn_fraction(0.5)
        .build()
        .expect("valid")
        .execute();
    assert!(si.txn_commits > 10, "snapshot transactions must flow: {si}");
    assert!(si.is_safe_and_convergent(), "{si}");
}

/// Sharded runs honour the same draw-order contract: `txn_fraction(0)`
/// on a multi-group system is bit-for-bit the untouched sharded system.
#[test]
fn txns_off_is_fingerprint_identical_when_sharded() {
    let pinned = base(4242)
        .shards(2)
        .cross_shard_fraction(0.1)
        .txn_fraction(0.0)
        .build()
        .expect("valid")
        .execute();
    let default = base(4242)
        .shards(2)
        .cross_shard_fraction(0.1)
        .build()
        .expect("valid")
        .execute();
    assert_eq!(pinned.fingerprint, default.fingerprint, "bit-for-bit");
    assert_eq!(pinned.to_json(), default.to_json(), "whole report");
}
