//! The behavioural contract under `cargo test`: every cell of
//! `groupsafe_bench::contract::cells()` is regenerated, held to its
//! witnesses and compared with its line of the committed `CONTRACT.txt`,
//! a few families per test so that they run side by side. `cargo run -p
//! groupsafe-bench --bin contract -- --write` is the re-golden.

use groupsafe_bench::contract::{self, Outcome};

const COMMITTED: &str = include_str!("../CONTRACT.txt");

/// The name prefixes the tests below, and the three pin files that
/// predate the contract, check: together every cell.
const FAMILIES: [&str; 10] = [
    // tests/fanout_fingerprints.rs
    "fanout/",
    // tests/failure_detector_fingerprints.rs
    "detector/",
    // tests/lost_update_audit.rs
    "lost-updates/",
    "crash/",
    "reads-part/",
    "fuzz/smoke/",
    "fuzz/batched/",
    "fuzz/sharded/",
    "fuzz/session-reads/",
    "fuzz/snapshot-txns/",
];

/// Check the cells whose names start with one of `families`.
fn check(families: &[&str]) {
    if let Err(e) = contract::check_families(COMMITTED, families) {
        panic!("{e}");
    }
}

#[test]
fn crash_and_parting_read_cells_match_the_contract() {
    check(&FAMILIES[3..5]);
}

#[test]
fn fuzz_row_cells_match_the_contract() {
    check(&FAMILIES[5..7]);
}

#[test]
fn fuzz_sharded_row_cells_match_the_contract() {
    check(&FAMILIES[7..8]);
}

#[test]
fn fuzz_read_and_txn_row_cells_match_the_contract() {
    check(&FAMILIES[8..]);
}

#[test]
fn the_contract_holds_every_declared_cell_once() {
    let cells = contract::cells();
    if let Err(e) = contract::declared(COMMITTED, &cells) {
        panic!("{e}");
    }
    for cell in &cells {
        let name = &cell.name;
        assert!(
            FAMILIES.iter().any(|f| name.starts_with(f)),
            "no test checks {name}"
        );
    }
}

/// Negative controls: one digit changed in one cell's line fails the
/// check and names the cell; a missing, a duplicate and an undeclared
/// cell are errors that name it.
#[test]
fn a_changed_missing_duplicate_or_undeclared_cell_is_an_error() {
    let cells = contract::cells();
    let cell = cells
        .iter()
        .find(|c| c.name.starts_with("detector/"))
        .expect("a cell");
    let name = &cell.name;
    let line = COMMITTED
        .lines()
        .find(|l| l.starts_with(&format!("{name} |")))
        .expect("its line");
    let at = line.find("dispatched=").expect("a dispatch count") + "dispatched=".len();
    let digit = if &line[at..=at] == "9" { "0" } else { "9" };
    let changed = format!("{}{digit}{}", &line[..at], &line[at + 1..]);
    let err = contract::check(
        &COMMITTED.replace(line, &changed),
        std::slice::from_ref(cell),
    );
    assert!(err
        .expect_err("a moved cell")
        .contains(&format!("cell {name} moved")));

    let line = format!("{line}\n");
    let missing = contract::declared(&COMMITTED.replace(&line, ""), &cells);
    assert!(missing
        .expect_err("a missing cell")
        .contains(&format!("cell {name} is missing")));
    let twice = contract::declared(&format!("{COMMITTED}{line}"), &cells);
    assert!(twice
        .expect_err("a duplicate cell")
        .contains(&format!("cell {name} appears twice")));
    let extra = contract::declared(&format!("{COMMITTED}fuzz/none | - | -\n"), &cells);
    let extra = extra.expect_err("an undeclared cell");
    assert!(extra.contains("cell fuzz/none is in the contract but not declared"));
}

/// Non-vacuity: every cell has witnesses, each rejects some value of its
/// counter, and a run that satisfies every witness of a cell but that
/// one is rejected, naming it.
#[test]
fn every_witness_rejects_a_run_where_its_path_did_not_fire() {
    for cell in contract::cells() {
        assert!(
            cell.witnesses.iter().any(|w| w.counter == "acked"),
            "{}",
            cell.name
        );
        let counters = cell
            .witnesses
            .iter()
            .map(|w| (w.counter, w.value))
            .collect();
        let fired = Outcome {
            counters,
            ..Outcome::default()
        };
        cell.witness(&fired).expect("every witness at its bound");
        for (i, w) in cell.witnesses.iter().enumerate() {
            let missed = if w.exact {
                w.value.checked_add(1)
            } else {
                w.value.checked_sub(1)
            };
            let Some(missed) = missed else {
                panic!("{}: {w} rejects nothing", cell.name)
            };
            let mut unfired = fired.clone();
            unfired.counters[i].1 = missed;
            let err = cell.witness(&unfired).expect_err(&w.to_string());
            assert!(err.contains(&w.to_string()), "{}: {err}", cell.name);
        }
    }
}
