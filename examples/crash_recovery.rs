//! The paper's Fig. 5 / Fig. 7 story, told on the replicated database:
//! a group-safe system loses a freshly acknowledged transaction when the
//! whole group fails, while the 2-safe system (end-to-end atomic
//! broadcast) replays and keeps it — and a minority crash hurts neither.
//!
//! The minority-crash case puts a declarative [`ScenarioPlan`] on the
//! builder; the total-failure cases need operator-style group restarts
//! and use the workload crate's [`CrashScenario`], which compiles to one.
//!
//! Run with: `cargo run --release --example crash_recovery`

use groupsafe::core::{Load, SafetyLevel, ScenarioPlan, System, Technique};
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe::workload::{run_crash_scenario, CrashScenario, RecoveryPlan};

/// Run the scenario over a few seeds: loss on total failure is about a
/// *window* (acknowledged commits whose records were not yet flushed when
/// everyone died), so any single instant may or may not catch it.
fn show_scenario(label: &str, technique: Technique, crash: Vec<u32>, recover: bool) -> usize {
    let mut acked = 0;
    let mut lost = 0;
    let mut progressed = false;
    for seed in [4242, 4243, 4244, 4245] {
        let sc = CrashScenario {
            recovery: if recover {
                RecoveryPlan::Recover {
                    downtime: SimDuration::from_millis(400),
                }
            } else {
                RecoveryPlan::StayDown
            },
            ..CrashScenario::small(technique, crash.clone(), seed)
        };
        let out = run_crash_scenario(&sc);
        acked += out.acked;
        lost += out.lost;
        progressed |= out.acked_after_crash > 0;
    }
    println!(
        "  {label:<42} acked {acked:>4}  lost {lost:>2}  progress after crash: {}",
        if progressed { "yes" } else { "no" }
    );
    lost
}

fn main() {
    println!("crash/recovery on 5 replicas (Table 4 workload):\n");

    // Minority crash, declaratively: 2 of 5 replicas die mid-run and stay
    // down; group-safety promises zero loss and continued progress.
    let crash_at = SimTime::from_millis(3_330);
    let minority = System::builder()
        .servers(5)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(20.0))
        .measure(SimDuration::from_secs(7))
        .drain(SimDuration::from_secs(3))
        .scenario(ScenarioPlan::new().crash(crash_at, 1).crash(crash_at, 3))
        .seed(4242)
        .build()
        .expect("a valid configuration")
        .execute();
    println!(
        "  {:<42} acked {:>4}  lost {:>2}  client failovers: {}",
        "group-safe, 2 of 5 crash (stay down)", minority.acked, minority.lost, minority.timeouts
    );

    let b = show_scenario(
        "group-safe, all 5 crash, recover + restart",
        Technique::Dsm(SafetyLevel::GroupSafe),
        vec![0, 1, 2, 3, 4],
        true,
    );
    let c = show_scenario(
        "2-safe (end-to-end), all 5 crash, recover",
        Technique::Dsm(SafetyLevel::TwoSafe),
        vec![0, 1, 2, 3, 4],
        true,
    );
    println!();
    assert_eq!(
        minority.lost, 0,
        "minority crashes never lose under group-safety"
    );
    assert!(b > 0, "total failure exposes group-safety's async window");
    assert_eq!(c, 0, "end-to-end atomic broadcast replays everything");
    println!("as in the paper: group-safety trades the all-crash case for");
    println!("disk-free response times; end-to-end atomic broadcast closes");
    println!("that last window at the cost of a log force per delivery.");
}
