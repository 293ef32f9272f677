//! The `reads-off ≡ seed` pin: with the read path disabled (the
//! default), the system is bit-for-bit the pre-read-path system — same
//! dispatch fingerprint, same commits, same digests, same report JSON.
//! Same pattern as the `shards(1)` pin in `tests/sharding.rs`.

use groupsafe::core::{Load, ReadLevel, ReadPath, SafetyLevel, System, SystemBuilder};
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
fn reads_off_is_fingerprint_identical_to_the_default() {
    // Explicitly classic + zero read fraction...
    let pinned = base(4242)
        .read_path(ReadPath::Classic)
        .read_fraction(0.0)
        .build()
        .expect("valid")
        .execute();
    // ...vs. the untouched default builder.
    let default = base(4242).build().expect("valid").execute();
    assert_eq!(pinned.fingerprint, default.fingerprint, "bit-for-bit");
    assert_eq!(pinned.commits, default.commits);
    assert_eq!(pinned.digests, default.digests);
    assert_eq!(pinned.to_json(), default.to_json(), "whole report");
    assert_eq!(default.reads, 0, "no read-only txns at the Table 4 mix");
    assert_eq!(default.read_redirects, 0);
}

/// The read *mix* alone (classic path, no local reads) must not change
/// the write-side machinery: the run still commits, converges and
/// loses nothing, and the read-only transactions are answered without
/// a single broadcast entry of their own.
#[test]
fn read_mix_on_the_classic_path_is_safe() {
    let report = base(77)
        .read_fraction(0.5)
        .build()
        .expect("valid")
        .execute();
    assert!(report.reads > 10, "{report}");
    assert!(report.is_safe_and_convergent(), "{report}");
}

/// Switching the read path while keeping the workload changes the read
/// plumbing only: the same seed still commits and converges, and the
/// local path actually serves (sanity that the pin above is not
/// comparing two dead configurations).
#[test]
fn local_reads_are_live_under_the_pinned_seed() {
    let local = base(4242)
        .read_level(ReadLevel::Session)
        .read_fraction(0.5)
        .build()
        .expect("valid")
        .execute();
    assert!(local.reads > 10, "{local}");
    assert!(local.is_safe_and_convergent(), "{local}");
}
