//! Pinned dispatch fingerprints of runs that exercise the failure
//! detector's side effects, captured while every heartbeat was still
//! dispatched to its receiver as an actor event. A heartbeat that can only
//! refresh a timestamp is now a kernel write instead; these runs are the
//! ones where a heartbeat does more than that — it retracts a suspicion,
//! draws a `NotInView` that re-merges an excluded member, or reaches a
//! rejoining incarnation — so equality here says the latched path never
//! swallowed a heartbeat that mattered. Each run also asserts that its
//! path fired, so no pin is vacuous.

use groupsafe::core::scenario::ScenarioPlan;
use groupsafe::core::{Load, SafetyLevel, System};
use groupsafe::gcs::GcsStats;
use groupsafe::sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// What a run left behind: its pins and the witnesses of its path.
struct Outcome {
    fingerprint: u64,
    dispatched: u64,
    gcs: GcsStats,
    transfers: u32,
    crashes: u32,
    rejoins: u64,
}

/// Run `plan` over `n` servers whose clients stop at `quiet` (at the
/// latest 6 s), then drain for 3 s.
fn run(n: u32, seed: u64, plan: ScenarioPlan, quiet: SimTime) -> Outcome {
    let end = SimTime::from_secs(6);
    let mut run = System::builder()
        .servers(n)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(25.0))
        .measure(SimDuration::from_secs(6))
        .drain(SimDuration::from_secs(3))
        .seed(seed)
        .scenario(plan)
        .build()
        .expect("valid scenario configuration");
    run.run_until(quiet);
    run.stop_clients_at(quiet);
    run.run_until(end + SimDuration::from_secs(3));
    let system = run.into_system();
    assert!(system.lost_transactions().is_empty(), "nothing may be lost");
    assert_eq!(system.convergence().len(), 1, "replicas re-converge");
    Outcome {
        fingerprint: system.engine.fingerprint(),
        dispatched: system.engine.dispatched(),
        gcs: system.gcs_stats().0,
        transfers: (0..n).map(|i| system.server(i).transfer_count()).sum(),
        crashes: (0..n).map(|i| system.server(i).crash_count()).sum(),
        rejoins: system.engine.metrics().counter("rejoins"),
    }
}

fn assert_pinned(name: &str, n: u32, got: &Outcome) {
    let (_, _, fingerprint, dispatched) = PINNED
        .iter()
        .find(|p| p.0 == name && p.1 == n)
        .expect("a pin per run");
    assert_eq!(
        (got.fingerprint, got.dispatched),
        (*fingerprint, *dispatched),
        "{name}, {n} servers"
    );
}

/// A partition that leaves no side a majority of the view: every side
/// suspects the others by silence and no view change can complete. The
/// clients stopped before it, so only heartbeats cross the healed network
/// and only they can retract the suspicions. The last server then
/// crashes: it is excluded — which takes a view change that counts every
/// other member as a survivor again — and rejoins.
#[test]
fn suspicion_by_silence_is_retracted_by_a_heartbeat() {
    for (n, seed, sides) in [
        (3, 101, vec![vec![0], vec![1]]),
        (5, 103, vec![vec![0, 1], vec![2, 3]]),
    ] {
        let plan = ScenarioPlan::new()
            .partition(ms(2_000), sides)
            .heal(ms(2_200))
            .crash_for(ms(2_400), n - 1, SimDuration::from_millis(600));
        let got = run(n, seed, plan, ms(1_500));
        assert!(got.gcs.retractions > 0, "{n} servers: nothing retracted");
        assert!(got.gcs.view_changes >= 2, "{n} servers: exclude, then join");
        assert_pinned("retract", n, &got);
    }
}

/// A minority is excluded by the majority's view change; after the heal
/// its heartbeats reach the majority, which answers with `NotInView`, and
/// the minority demotes itself and rejoins by state transfer.
#[test]
fn exclusion_then_not_in_view_re_merges_after_the_heal() {
    for (n, seed, minority) in [(3, 107, vec![0]), (5, 109, vec![0, 1])] {
        let plan = ScenarioPlan::new()
            .partition(ms(2_000), vec![minority])
            .heal(ms(3_500));
        let got = run(n, seed, plan, ms(6_000));
        assert!(got.gcs.demotions > 0, "{n} servers: no NotInView acted on");
        assert!(
            got.gcs.view_changes >= 2,
            "{n} servers: exclude, then merge"
        );
        assert!(got.transfers > 0, "{n} servers: no state transfer");
        assert_eq!(got.crashes, 0, "{n} servers: nobody crashed");
        assert_pinned("not-in-view", n, &got);
    }
}

/// A member crashes, is excluded, recovers under a fresh incarnation and
/// rejoins the view by state transfer.
#[test]
fn crash_and_recovery_rejoin_the_view() {
    for (n, seed, victim) in [(3, 113, 1), (5, 127, 3)] {
        let plan = ScenarioPlan::new().crash_for(ms(1_500), victim, SimDuration::from_millis(600));
        let got = run(n, seed, plan, ms(6_000));
        assert_eq!(got.crashes, 1, "{n} servers");
        assert!(got.rejoins > 0, "{n} servers: no rejoin");
        assert!(got.gcs.view_changes >= 2, "{n} servers: exclude, then join");
        assert_pinned("rejoin", n, &got);
    }
}

const PINNED: [(&str, u32, u64, u64); 6] = [
    ("retract", 3, 0xc3c7de5e962cfbc3, 9861),
    ("retract", 5, 0x98bcba7c319ea977, 26053),
    ("not-in-view", 3, 0xf02a3920d4f5c4f5, 12595),
    ("not-in-view", 5, 0x5efa8996ffc0cf83, 30288),
    ("rejoin", 3, 0xb9910a0ddd9e3b87, 12443),
    ("rejoin", 5, 0xfe75548c05fac177, 30250),
];
