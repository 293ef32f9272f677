//! Load-model calibration: a run must actually deliver the load it
//! claims on the x-axis of Fig. 9.

use groupsafe_core::{Load, Report, SafetyLevel, System};
use groupsafe_sim::SimDuration;

fn run(level: SafetyLevel, load: Load, seed: u64) -> Report {
    System::builder()
        .safety(level)
        .load(load)
        .client_timeout(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(2))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
        .build()
        .expect("the Table 4 configuration is valid")
        .execute()
}

#[test]
fn open_loop_achieves_offered_load() {
    let r = run(SafetyLevel::GroupSafe, Load::open_tps(24.0), 1);
    let ratio = r.achieved_tps / 24.0;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "open loop must deliver the offered load: achieved {:.1} of 24",
        r.achieved_tps
    );
}

#[test]
fn closed_loop_achieves_target_at_moderate_load() {
    let r = run(SafetyLevel::GroupSafe, Load::closed_tps(24.0), 2);
    let ratio = r.achieved_tps / 24.0;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "calibrated closed loop must land near the target: achieved {:.1} of 24",
        r.achieved_tps
    );
}

#[test]
fn closed_loop_self_limits_under_overload() {
    // Group-1-safe at 40 tps is beyond its pipeline capacity: the closed
    // population must saturate below the offered load instead of
    // diverging (this is what bounds the paper's Fig. 9 curve).
    let r = run(SafetyLevel::GroupOneSafe, Load::closed_tps(40.0), 3);
    assert!(
        r.achieved_tps < 34.0,
        "group-1-safe cannot reach 40 tps (achieved {:.1})",
        r.achieved_tps
    );
    assert!(
        r.mean_ms > 200.0,
        "overload must show up as queueing delay ({:.0} ms)",
        r.mean_ms
    );
    assert_eq!(r.lost, 0);
}
