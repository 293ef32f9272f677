//! The behavioural contract under `cargo test`: every cell of
//! `groupsafe_bench::contract::cells()` is regenerated, held to its
//! witnesses and compared with its line of the committed `CONTRACT.txt`,
//! a few families per test so that they run side by side. `cargo run -p
//! groupsafe-bench --bin contract -- --write` is the re-golden.

use groupsafe_bench::contract::{self, Bound, Outcome};

const COMMITTED: &str = include_str!("../CONTRACT.txt");

/// The name prefixes the tests below, and the three pin files that
/// predate the contract, check: together every cell.
const FAMILIES: [&str; 11] = [
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
    "claim/",
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
    check(&FAMILIES[8..10]);
}

/// The paper's claims: Tables 1–3, Fig. 5 and Fig. 7, §6's costs, §7's
/// risk against n and the §5.1 ablations, each held to the witnesses
/// that state it.
#[test]
fn claim_cells_match_the_contract() {
    check(&FAMILIES[10..]);
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

/// Non-vacuity: every cell has witnesses, the witnesses on one counter
/// admit a common value, each rejects the value one past its bound, and
/// a run that satisfies every witness of a cell but that one is
/// rejected, naming it.
#[test]
fn every_witness_rejects_a_run_where_its_path_did_not_fire() {
    let mut upper_bounds = 0;
    for cell in contract::cells() {
        let name = &cell.name;
        assert!(
            cell.witnesses.iter().any(|w| w.counter == "acked"),
            "{name}"
        );
        let on = |counter| cell.witnesses.iter().filter(move |w| w.counter == counter);
        let mut fired = Outcome::default();
        for w in &cell.witnesses {
            let mut bounds = on(w.counter).map(|w| w.value);
            let value = bounds.find(|&v| on(w.counter).all(|w| w.admits(v)));
            let Some(value) = value else {
                panic!("{name}: the witnesses on {} admit no value", w.counter)
            };
            fired.counters.push((w.counter.to_string(), value));
        }
        cell.witness(&fired).expect("every witness at its bound");
        for w in &cell.witnesses {
            let missed = match w.bound {
                Bound::Exactly | Bound::AtMost => w.value.checked_add(1),
                Bound::AtLeast => w.value.checked_sub(1),
            };
            let Some(missed) = missed else {
                panic!("{name}: {w} rejects nothing")
            };
            let mut unfired = fired.clone();
            for c in unfired.counters.iter_mut().filter(|c| c.0 == w.counter) {
                c.1 = missed;
            }
            let err = cell.witness(&unfired).expect_err(&w.to_string());
            assert!(err.contains(&w.to_string()), "{name}: {err}");
            upper_bounds += usize::from(w.bound == Bound::AtMost);
        }
    }
    assert!(upper_bounds > 0, "no cell bounds a counter from above");
}
