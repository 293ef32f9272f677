//! The lazy lost-update audit end to end (§7, Fig. 10): the `scaling`
//! bench's lazy-replication shape — 4 clients a server, 4 tps a server,
//! update-everywhere 1-safe replication propagating every 100 ms — at
//! three group sizes, with the lost updates `check_lost_updates` finds
//! and the commits in the window pinned. It is the one end-to-end run
//! in which the audit finds real pairs, so a change to the audit that
//! drops or invents a pair moves these numbers.

use groupsafe::core::{Load, SafetyLevel, System};
use groupsafe::sim::SimDuration;

/// Lost updates and window commits of the `scaling` bench's lazy run
/// with `n` servers, at the seed the bench gives it.
fn lazy_lost_updates(n: u32) -> (usize, usize) {
    let r = System::builder()
        .servers(n)
        .clients_per_server(4)
        .safety(SafetyLevel::OneSafe)
        .load(Load::open_tps(4.0 * n as f64))
        .client_timeout(SimDuration::from_secs(5))
        .lazy_prop_interval(SimDuration::from_millis(100))
        .warmup(SimDuration::from_secs(2))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(2))
        .seed(900 + u64::from(n))
        .build()
        .expect("a valid configuration")
        .execute();
    (r.lost_updates, r.commits)
}

#[test]
fn lazy_lost_update_counts_of_the_scaling_shape_are_pinned() {
    for (n, pinned) in [(3, (4, 230)), (5, (5, 409)), (9, (32, 761))] {
        assert_eq!(
            lazy_lost_updates(n),
            pinned,
            "n = {n}: (lost updates, commits)"
        );
    }
}
