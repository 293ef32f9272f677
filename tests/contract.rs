//! The behavioural contract under `cargo test`: every cell of
//! `groupsafe_bench::contract::cells()` is regenerated, held to its
//! witnesses and compared with its line of the committed `CONTRACT.txt`,
//! a few families per test so that they run side by side. `cargo run -p
//! groupsafe-bench --bin contract -- --write` is the re-golden.

use groupsafe_bench::contract::{self, Bound, Outcome};

const COMMITTED: &str = include_str!("../CONTRACT.txt");

/// The name prefixes the tests below check: together every cell. The
/// tests run two at a time, in name order, so each is sized — and the
/// long ones named — for the two queues to end together.
const FAMILIES: [&str; 24] = [
    "fanout/",
    "census/",
    "detector/retract/",
    "detector/not-in-view/",
    "detector/rejoin/",
    "crash/",
    "reads-part/",
    "fuzz/smoke/",
    "fuzz/batched/",
    "fuzz/sharded/",
    "fuzz/session-reads/",
    "fuzz/snapshot-txns/",
    "claim/table",
    "claim/fig5/",
    "claim/fig7/",
    "claim/s6/",
    "claim/fig10/",
    "claim/ablation/",
    "claim/fig9/",
    "claim/batching/",
    "claim/sharding/scaling",
    "claim/sharding/cross-cost",
    "claim/reads/",
    "claim/txn/",
];

/// Check the cells whose names start with one of `families`.
fn check(families: &[&str]) {
    if let Err(e) = contract::check_families(COMMITTED, families) {
        panic!("{e}");
    }
}

/// The whole stack at six levels × n ∈ {3, 5, 9}: no delivery moved
/// since each receiver of a multicast had a queue record of its own; and
/// the Table 4 system's dispatches by kind.
#[test]
fn fingerprints_match_the_per_receiver_kernel() {
    check(&FAMILIES[..2]);
}

/// The detector cells, where a heartbeat does more than refresh a
/// timestamp: here only heartbeats can retract the suspicions of a
/// partition no side holds a majority of.
#[test]
fn suspicion_by_silence_is_retracted_by_a_heartbeat() {
    check(&FAMILIES[2..3]);
}

/// An excluded minority's heartbeats draw `NotInView`; it rejoins.
#[test]
fn exclusion_then_not_in_view_re_merges_after_the_heal() {
    check(&FAMILIES[3..4]);
}

/// A crashed member rejoins under a fresh incarnation.
#[test]
fn crash_and_recovery_rejoin_the_view() {
    check(&FAMILIES[4..5]);
}

#[test]
fn crash_and_parting_read_cells_match_the_contract() {
    check(&FAMILIES[5..7]);
}

#[test]
fn fuzz_row_cells_match_the_contract() {
    check(&FAMILIES[7..9]);
}

#[test]
fn fuzz_sharded_row_cells_match_the_contract() {
    check(&FAMILIES[9..10]);
}

#[test]
fn fuzz_read_and_txn_row_cells_match_the_contract() {
    check(&FAMILIES[10..12]);
}

/// The paper's Tables 1–3 as crash shapes, each cell with the loss its
/// table claims.
#[test]
fn claim_cells_match_the_contract() {
    check(&FAMILIES[12..13]);
}

/// Fig. 5 and Fig. 7 on the gcs harness, §6's costs, §7's risk against n
/// and the §5.1 ablations, each held to the witnesses that state it.
#[test]
fn claim_cells_beyond_the_tables_match_the_contract() {
    check(&FAMILIES[13..18]);
}

/// Fig. 9's shape: group-safe < lazy < group-1-safe at low load, lazy no
/// slower than group-safe at high load, group-1-safe more than doubling:
/// 33 runs of the Table 4 system.
#[test]
fn claim_fig9_cell_matches_the_contract() {
    check(&FAMILIES[18..19]);
}

/// Batching at saturation: `max_msgs = 32` commits twice what 1 does.
#[test]
fn batching_at_least_doubles_the_saturated_commit_rate() {
    check(&FAMILIES[19..20]);
}

/// Sharding scales: 1, 2 and 4 groups commit more at each step.
#[test]
fn aggregate_throughput_grows_with_the_group_count() {
    check(&FAMILIES[20..21]);
}

/// 20 % cross-group traffic commits less than 5 %. The contract's longest
/// cell (≈ 14 s in debug): named to start first, beside the rest.
#[test]
fn across_groups_more_cross_traffic_commits_less() {
    check(&FAMILIES[21..22]);
}

/// Session reads serve 5× the broadcast baseline at a 90 % read mix.
#[test]
fn follower_reads_serve_five_times_the_broadcast_baseline() {
    check(&FAMILIES[22..23]);
}

/// Where classic certification aborts over 0.3, snapshots abort under 0.1.
#[test]
fn snapshot_txns_dissolve_the_first_writer_wins_abort_storm() {
    check(&FAMILIES[23..]);
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
/// check and names the cell and the key that moved; a missing, a duplicate and an undeclared
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
    let err = err.expect_err("a moved cell");
    assert!(err.contains(&format!("cell {name} moved (dispatched):")));
    assert!(err.ends_with("moved keys: dispatched ×1"), "{err}");
    assert_eq!(
        contract::moved_keys("a | s=1 | x=1 y=2", "a | s=2 | x=1 y=3 z=4"),
        ["settings", "y", "z"]
    );

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
