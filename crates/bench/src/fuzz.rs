//! The fuzz matrix's runner: each row of [`FUZZ`] at each of its levels,
//! every case audited by the scenario oracle — over each row's budget,
//! or over the seeds a command line names (`scenario_fuzz`).

use std::ops::Range;

use groupsafe_core::scenario::fuzz::{paths, run_fuzz_case, FuzzOutcome};
use groupsafe_core::SafetyLevel;

use crate::contract::{FuzzRow, FUZZ};
use crate::Flags;

/// The flags `scenario_fuzz` takes, each with a value.
pub const FLAGS: [&str; 4] = ["--row", "--level", "--start", "--seeds"];

/// What the cases of one (row, level) add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Cases run.
    pub scenarios: u64,
    /// Cases the oracle audited fully: the run quiesced.
    pub quiescent: u64,
    /// Cases whose plan holds a loss burst.
    pub with_loss: u64,
    /// Acknowledged commits.
    pub commits: u64,
    /// Cross-group commits audited for atomicity.
    pub cross_group_audited: u64,
    /// Cases with a whole-group failure.
    pub group_failures: u64,
    /// Local reads audited for freshness.
    pub reads_audited: u64,
    /// Delegate certifications audited for snapshot isolation.
    pub si_audited: u64,
}

impl Tally {
    fn add(&mut self, out: &FuzzOutcome) {
        self.scenarios += 1;
        self.quiescent += u64::from(out.audit.quiescent);
        self.with_loss += u64::from(out.plan.uses_loss());
        self.commits += out.commits as u64;
        self.cross_group_audited += out.audit.cross_group_audited as u64;
        self.group_failures += u64::from(out.audit.group_failed);
        self.reads_audited += out.audit.reads_audited as u64;
        self.si_audited += out.audit.si_audited as u64;
    }

    /// The paths `row` exists for fired at `level`: a whole-group failure
    /// in a sharded row, a local read served in a read row, a snapshot
    /// transaction certified in an SI row.
    pub fn fired(&self, row: &FuzzRow, level: SafetyLevel) -> Result<(), String> {
        let declared = paths(&(row.envelope)(level));
        let checks = [
            (declared.sharded, self.group_failures, "whole-group failure"),
            (declared.local_reads, self.reads_audited, "local read"),
            (declared.snapshots, self.si_audited, "certification"),
        ];
        let missed = checks.iter().filter(|&&(on, count, _)| on && count == 0);
        let missed: Vec<&str> = missed.map(|&(_, _, path)| path).collect();
        match missed.join(", no ") {
            none if none.is_empty() => Ok(()),
            paths => Err(format!(
                "{}/{level}: no {paths} in {} scenarios",
                row.name, self.scenarios
            )),
        }
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scenarios, {} fully audited, {} with loss bursts, {} commits, \
             {} cross-group audited, {} whole-group failures, {} reads audited, \
             {} SI audited",
            self.scenarios,
            self.quiescent,
            self.with_loss,
            self.commits,
            self.cross_group_audited,
            self.group_failures,
            self.reads_audited,
            self.si_audited
        )
    }
}

/// The (row, level)s a command line selects, each with its seeds.
#[derive(Debug)]
pub struct Selection {
    /// What to run, in table order.
    pub runs: Vec<(&'static FuzzRow, SafetyLevel, Range<u64>)>,
    /// Whether these are the declared budgets (neither `--start` nor
    /// `--seeds` given): then each (row, level) must fire its path.
    pub budget: bool,
}

impl Selection {
    /// `--row` and `--level` (a level's `Display` label) narrow the
    /// table; `--start S` and `--seeds N` replace each budget with seeds
    /// `S..S + N` (`S` defaults to 0, `N` to 1).
    pub fn from_flags(flags: &Flags) -> Result<Selection, String> {
        let number = |flag| {
            let parse = |v: &str| v.parse().map_err(|_| format!("{flag} takes a number"));
            flags.value(flag).map(parse).transpose()
        };
        let start: Option<u64> = number("--start")?;
        let seeds: Option<u64> = number("--seeds")?;
        let budget = start.is_none() && seeds.is_none();
        let (first, n) = (start.unwrap_or(0), seeds.unwrap_or(1));
        let overflow = || format!("--start {first} + --seeds {n} overflows a u64 seed");
        let given = first..first.checked_add(n).ok_or_else(overflow)?;
        let (row, level) = (flags.value("--row"), flags.value("--level"));
        let mut runs = Vec::new();
        for r in FUZZ.iter().filter(|r| row.is_none_or(|n| n == r.name)) {
            let levels = r.levels.iter();
            for &(l, n) in levels.filter(|(l, _)| level.is_none_or(|v| v == l.to_string())) {
                let seeds = if budget { 0..n } else { given.clone() };
                if !seeds.is_empty() {
                    runs.push((r, l, seeds));
                }
            }
        }
        if runs.is_empty() {
            let rows: Vec<&str> = FUZZ.iter().map(|r| r.name).collect();
            let rows = rows.join(", ");
            return Err(format!("no row and level match, or 0 seeds; rows: {rows}"));
        }
        Ok(Selection { runs, budget })
    }
}

/// The command that replays `seed` of `row` at `level` alone.
pub fn repro(row: &FuzzRow, level: SafetyLevel, seed: u64) -> String {
    let name = row.name;
    format!("scenario_fuzz --row {name} --level {level} --start {seed} --seeds 1")
}

/// Run `selection` in order, handing each (row, level)'s tally to `done`;
/// on the budget, hold each to [`Tally::fired`]. The error describes the
/// first case the oracle objects to, with the command that replays it,
/// or names the first (row, level) whose path did not fire.
pub fn run(
    selection: &Selection,
    mut done: impl FnMut(&FuzzRow, SafetyLevel, &Tally),
) -> Result<Tally, String> {
    let mut total = Tally::default();
    for &(row, level, ref seeds) in &selection.runs {
        let mut tally = Tally::default();
        for seed in seeds.clone() {
            let out = run_fuzz_case(seed, (row.envelope)(level));
            if !out.ok() {
                let (dump, repro) = (out.describe(), repro(row, level, seed));
                return Err(format!("ORACLE VIOLATION\n{dump}reproduce with: {repro}"));
            }
            tally.add(&out);
            total.add(&out);
        }
        done(row, level, &tally);
        if selection.budget {
            tally.fired(row, level)?;
        }
    }
    Ok(total)
}
