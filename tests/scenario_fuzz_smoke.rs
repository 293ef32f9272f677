//! Seeded scenario fuzzing, smoke-sized for `cargo test` (CI runs every
//! row's budget through the `scenario_fuzz` bench bin), plus the negative
//! controls: the oracle must *catch* a run audited against a safety level
//! it does not honour, and the runner a row whose path did not fire.
//!
//! The configurations every level is fuzzed under are the fuzz matrix
//! [`FUZZ`]; its pinned rows are cells of `CONTRACT.txt`
//! (`tests/contract.rs`).

use groupsafe::core::scenario::fuzz::{generate_plan, run_fuzz_case, smoke};
use groupsafe::core::scenario::{audit_scenario, OracleViolation, ScenarioPlan};
use groupsafe::core::{Load, ReadLevel, SafetyLevel, System, Technique};
use groupsafe::sim::{SimDuration, SimTime};
use groupsafe_bench::contract::FUZZ;
use groupsafe_bench::fuzz::{self, Selection, Tally};
use groupsafe_bench::Flags;

/// An envelope keeps the fraction it is given: one outside [0, 1] is the
/// builder's `BadProbability`, which names it, never a silent clamp.
#[test]
#[should_panic(expected = "BadProbability { name: \"read_fraction\", value: 1.5 }")]
fn an_out_of_range_read_fraction_fails_naming_it() {
    let envelope = smoke(SafetyLevel::GroupSafe).read_level(ReadLevel::Session);
    run_fuzz_case(0, envelope.read_fraction(1.5));
}

/// As for reads, so for snapshot-isolation transactions.
#[test]
#[should_panic(expected = "BadProbability { name: \"txn_fraction\", value: 1.5 }")]
fn an_out_of_range_txn_fraction_fails_naming_it() {
    run_fuzz_case(0, smoke(SafetyLevel::GroupSafe).txn_fraction(1.5));
}

/// The lazy baseline has no local read path: an envelope that asks for
/// one at 1-safe is the builder's `UnsupportedReads`, never a run whose
/// reads silently ride the classic pipeline instead.
#[test]
#[should_panic(expected = "UnsupportedReads")]
fn local_reads_at_1_safe_fail_naming_it() {
    let envelope = smoke(SafetyLevel::OneSafe).read_level(ReadLevel::Session);
    run_fuzz_case(0, envelope.read_fraction(0.4));
}

/// Group-safe and 2-safe runs must satisfy the oracle on every seed.
#[test]
fn strong_levels_survive_random_scenarios() {
    for level in [SafetyLevel::GroupSafe, SafetyLevel::TwoSafe] {
        for seed in 0..25 {
            let out = run_fuzz_case(seed, smoke(level));
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
        for seed in 0..10 {
            let out = run_fuzz_case(seed, smoke(level));
            assert!(out.ok(), "{}", out.describe());
        }
    }
}

/// Same seed, same plan, same fingerprint, in every declared row at
/// every one of its levels: a failing seed is a complete reproduction
/// recipe.
#[test]
fn fuzz_cases_replay_bit_for_bit() {
    for row in &FUZZ {
        for &(level, _) in row.levels {
            let at = format!("{}/{level}", row.name);
            let a = run_fuzz_case(0, (row.envelope)(level));
            let b = run_fuzz_case(0, (row.envelope)(level));
            assert_eq!(
                a.plan, b.plan,
                "{at}: plan generation must be deterministic"
            );
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{at}: replay must be bit-for-bit"
            );
            assert_eq!(a.commits, b.commits, "{at}");
            assert_ne!(
                a.plan,
                generate_plan(1, &(row.envelope)(level)),
                "{at}: different seeds explore different scenarios"
            );
        }
    }
}

/// Negative controls of the runner's liveness checks: for every row at
/// every level, a tally in which each path the row exists for fired
/// passes, and one in which any of them did not is rejected, naming the
/// row. Every kind of path is some row's.
#[test]
fn a_row_whose_path_did_not_fire_is_rejected() {
    let mut fired = Tally::default();
    (fired.group_failures, fired.reads_audited, fired.si_audited) = (1, 1, 1);
    let mut unfired = [fired; 3];
    (
        unfired[0].group_failures,
        unfired[1].reads_audited,
        unfired[2].si_audited,
    ) = (0, 0, 0);
    let paths = ["whole-group failure", "local read", "certification"];
    let mut rejected = [0; 3];
    for row in &FUZZ {
        for &(level, _) in row.levels {
            let at = format!("{}/{level}", row.name);
            assert_eq!(fired.fired(row, level), Ok(()), "{at}");
            for (path, (name, tally)) in paths.iter().zip(&unfired).enumerate() {
                if let Err(e) = tally.fired(row, level) {
                    assert!(e.starts_with(&format!("{at}: ")), "{e}");
                    assert!(e.contains(name), "{e}");
                    rejected[path] += 1;
                }
            }
        }
    }
    assert!(rejected.iter().all(|&n| n > 0), "{rejected:?}");
}

/// The line a violation prints replays that case alone: it parses back
/// to its row, its level and its one seed, outside the budget.
#[test]
fn a_repro_line_parses_back_to_its_case() {
    for row in &FUZZ {
        for &(level, _) in row.levels {
            let line = fuzz::repro(row, level, 17);
            let args = line.split_whitespace().skip(1).map(String::from);
            let flags = Flags::read(args, &[], &fuzz::FLAGS).expect(&line);
            let selection = Selection::from_flags(&flags).expect(&line);
            assert!(!selection.budget, "{line}");
            let [(r, l, seeds)] = &selection.runs[..] else {
                panic!("{line} selects {:?}", selection.runs)
            };
            assert_eq!((r.name, *l, seeds.clone()), (row.name, level, 17..18));
        }
    }
}

/// A seed range past the last `u64` seed is an error that names the two
/// flags, not an overflow panic or an empty run reported as no match.
#[test]
fn a_seed_range_past_the_last_seed_is_rejected() {
    let args = ["--start", "18446744073709551615", "--seeds", "2"].map(String::from);
    let flags = Flags::read(args, &[], &fuzz::FLAGS).expect("known flags");
    let err = Selection::from_flags(&flags).expect_err("the range overflows");
    assert!(err.contains("--start") && err.contains("--seeds"), "{err}");
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
