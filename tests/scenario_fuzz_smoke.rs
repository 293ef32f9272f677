//! Seeded scenario fuzzing, smoke-sized for `cargo test` (CI runs the
//! full budget through the `scenario_fuzz` bench bin), plus the negative
//! control: the oracle must demonstrably *catch* violations when a run
//! is audited against a safety level it does not honour.
//!
//! The system configurations every level is fuzzed under are the
//! behavioural contract's [`ROWS`]: each row at every level and seed of
//! `FUZZ_SEEDS` is a cell of `CONTRACT.txt`, audited clean, committing
//! and replaying to the same fingerprint with the full event stream
//! recorded (`tests/contract.rs`).

use groupsafe::core::scenario::fuzz::{generate_plan, run_fuzz_case, FuzzSpec};
use groupsafe::core::scenario::{audit_scenario, OracleViolation, ScenarioPlan};
use groupsafe::core::{Load, SafetyLevel, System, Technique};
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe_bench::contract::ROWS;

/// Group-safe and 2-safe runs must satisfy the oracle on every seed.
#[test]
fn strong_levels_survive_random_scenarios() {
    for level in [SafetyLevel::GroupSafe, SafetyLevel::TwoSafe] {
        let spec = FuzzSpec::smoke(level);
        for seed in 0..25 {
            let out = run_fuzz_case(seed, &spec);
            assert!(out.ok(), "{}", out.describe());
            assert!(out.commits > 0, "seed {seed} never committed");
        }
    }
}

/// Weak levels under the same scenarios: the oracle's accounting rules
/// (rather than blanket no-loss) must hold — e.g. every 1-safe loss is
/// attributable to a delegate crash.
#[test]
fn weak_levels_satisfy_their_accounting_rules() {
    for level in [SafetyLevel::ZeroSafe, SafetyLevel::OneSafe] {
        let spec = FuzzSpec::smoke(level);
        for seed in 0..10 {
            let out = run_fuzz_case(seed, &spec);
            assert!(out.ok(), "{}", out.describe());
        }
    }
}

/// Same seed, same plan, same fingerprint, in every declared row: a
/// failing seed is a complete reproduction recipe.
#[test]
fn fuzz_cases_replay_bit_for_bit() {
    for (row, envelope) in ROWS {
        let spec = envelope(SafetyLevel::GroupSafe);
        let a = run_fuzz_case(7, &spec);
        let b = run_fuzz_case(7, &spec);
        assert_eq!(
            a.plan, b.plan,
            "{row}: plan generation must be deterministic"
        );
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{row}: replay must be bit-for-bit"
        );
        assert_eq!(a.commits, b.commits, "{row}");
        assert_ne!(
            a.plan,
            generate_plan(8, &spec),
            "{row}: different seeds explore different scenarios"
        );
    }
}

fn lazy_delegate_crash_system() -> (ScenarioPlan, groupsafe::core::System) {
    // The deliberately broken shadow configuration: a 1-safe (lazy)
    // system under a delegate crash, audited below as if it were
    // group-safe. High load + a delegate that never returns makes the
    // un-propagated window essentially certain to contain commits.
    let plan = ScenarioPlan::new().crash(SimTime::from_millis(2_333), 0);
    let mut run = System::builder()
        .servers(5)
        .clients_per_server(2)
        .technique(Technique::Lazy)
        // A wide propagation window (the 1-safe inconsistency window)
        // makes the delegate-local loss essentially certain.
        .lazy_prop_interval(SimDuration::from_millis(500))
        .load(Load::open_tps(40.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(23)
        .scenario(plan.clone())
        .build()
        .expect("valid");
    let end = SimTime::from_secs(5);
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(2));
    (plan, run.into_system())
}

/// Negative control: the oracle catches the seeded violation. A lazy
/// run that loses delegate-local commits is fine under its own level's
/// accounting — and a reported violation under a group-safe claim.
#[test]
fn oracle_catches_a_seeded_violation() {
    let (plan, system) = lazy_delegate_crash_system();
    assert!(
        !system.lost_transactions().is_empty(),
        "the shadow config must actually lose acknowledged work"
    );

    // Audited at its true level: every loss is accounted to the crashed
    // delegate — clean.
    let honest = audit_scenario(&plan, &system, SafetyLevel::OneSafe);
    assert!(honest.clean(), "{:?}", honest.violations);

    // Audited against the group-safe claim: the oracle must object,
    // naming the unaccounted losses.
    let dishonest = audit_scenario(&plan, &system, SafetyLevel::GroupSafe);
    assert!(!dishonest.clean(), "the oracle must catch the violation");
    assert!(
        dishonest.violations.iter().any(|v| matches!(
            v,
            OracleViolation::UnexpectedLoss {
                level: SafetyLevel::GroupSafe,
                ..
            }
        )),
        "{:?}",
        dishonest.violations
    );
    // And against the 2-safe claim, which never loses.
    let two = audit_scenario(&plan, &system, SafetyLevel::TwoSafe);
    assert!(!two.clean());
}
