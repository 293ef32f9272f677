//! The lazy lost-update audit end to end (§7, Fig. 10): the lazy shape
//! of the `claim/fig10/risk-against-n` cell — 4 clients a server, 4 tps
//! a server, update-everywhere 1-safe replication propagating every
//! 100 ms — at three group sizes, with the lost updates
//! `check_lost_updates` finds and the commits in the window pinned. It
//! is the one end-to-end run in which the audit finds real pairs, so a
//! change to the audit that drops or invents a pair moves these
//! numbers. The runs are the
//! `lost-updates/n<3|5|9>` cells of the behavioural contract:
//! `CONTRACT.txt` pins their `lost_updates=` and `commits=`, and each
//! cell's witness holds it to `lost_updates >= 1`.

use groupsafe_bench::contract;

#[test]
fn lazy_lost_update_counts_of_the_scaling_shape_are_pinned() {
    let committed = include_str!("../CONTRACT.txt");
    if let Err(e) = contract::check_families(committed, &["lost-updates/"]) {
        panic!("{e}");
    }
}
