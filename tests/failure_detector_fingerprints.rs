//! Dispatch fingerprints of runs that exercise the failure detector's
//! side effects, first captured while every heartbeat was still
//! dispatched to its receiver as an actor event. A heartbeat that can only
//! refresh a timestamp is now a kernel write instead; these runs are the
//! ones where a heartbeat does more than that — it retracts a suspicion,
//! draws a `NotInView` that re-merges an excluded member, or reaches a
//! rejoining incarnation — so equality here says the latched path never
//! swallowed a heartbeat that mattered.
//!
//! Each path is two `detector/<path>/n<3|5>` cells of the behavioural
//! contract: `CONTRACT.txt` pins their fingerprint and dispatch count, and
//! each cell's witnesses hold the run to losing nothing, re-converging,
//! at least two view changes and the counters that say its path fired,
//! so no pin is vacuous.

use groupsafe_bench::contract;

fn check(family: &str) {
    let committed = include_str!("../CONTRACT.txt");
    if let Err(e) = contract::check_families(committed, &[family]) {
        panic!("{e}");
    }
}

/// A partition that leaves no side a majority of the view: every side
/// suspects the others by silence and no view change can complete. The
/// clients stopped before it, so only heartbeats cross the healed network
/// and only they can retract the suspicions. The last server then
/// crashes: it is excluded and rejoins. Witnessed by `retractions >= 1`.
#[test]
fn suspicion_by_silence_is_retracted_by_a_heartbeat() {
    check("detector/retract/");
}

/// A minority is excluded by the majority's view change; after the heal
/// its heartbeats reach the majority, which answers with `NotInView`, and
/// the minority demotes itself and rejoins by state transfer. Witnessed
/// by `demotions >= 1`, `transfers >= 1` and `crashes == 0`.
#[test]
fn exclusion_then_not_in_view_re_merges_after_the_heal() {
    check("detector/not-in-view/");
}

/// A member crashes, is excluded, recovers under a fresh incarnation and
/// rejoins the view by state transfer. Witnessed by `crashes == 1` and
/// `rejoins >= 1`.
#[test]
fn crash_and_recovery_rejoin_the_view() {
    check("detector/rejoin/");
}
