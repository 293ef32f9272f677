//! Dispatch fingerprints of the whole stack, six safety levels × three
//! group sizes, first captured when every receiver of a multicast still
//! had a queue record of its own. A multicast is now one fan-out record
//! per run of same-instant receivers; the fingerprint hashes
//! `(time, target)` per dispatch, so equality here says that no delivery
//! moved, appeared, vanished or changed places. The 18 runs are the
//! `fanout/<level>/n<3|5|9>` cells of the behavioural contract, and their
//! fingerprints are pinned on those cells' lines of `CONTRACT.txt`.

use groupsafe_bench::contract;

#[test]
fn fingerprints_match_the_per_receiver_kernel() {
    let committed = include_str!("../CONTRACT.txt");
    if let Err(e) = contract::check_families(committed, &["fanout/"]) {
        panic!("{e}");
    }
}
