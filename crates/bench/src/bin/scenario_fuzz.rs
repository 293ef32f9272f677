//! Seeded scenario fuzzing: random fault timelines through the per-level
//! safety oracle, over the fuzz matrix `groupsafe_bench::contract::FUZZ`.
//!
//! Usage: `scenario_fuzz [--row R] [--level L] [--start S] [--seeds N]`.
//! With no flags it runs every row's CI budget at every level and holds
//! each (row, level) to the path it exists for; `--row` and `--level`
//! (`0-safe`, `1-safe`, `group-safe`, `group-1-safe`, `2-safe`) narrow
//! the matrix, `--start S --seeds N` run seeds `S..S + N` instead. A
//! violation prints the plan, the flight recorder's tail and the command
//! that replays the case alone, and exits 1.

use groupsafe_bench::fuzz::{self, Selection};
use groupsafe_bench::Flags;

fn main() {
    let flags = Flags::parse(&[], &fuzz::FLAGS);
    let selection = Selection::from_flags(&flags).unwrap_or_else(|e| {
        eprintln!("scenario-fuzz: {e}");
        std::process::exit(2)
    });
    #[expect(
        clippy::disallowed_types,
        reason = "GS-D02 exemption: bench binaries report wall-clock throughput and never feed a fingerprint"
    )]
    let started = std::time::Instant::now();
    let secs = || started.elapsed().as_secs_f64();
    let result = fuzz::run(&selection, |row, level, tally| {
        println!("  {}/{level}: {tally} ({:.1}s)", row.name, secs());
    });
    match result {
        Ok(total) => println!("scenario-fuzz: 0 violations, {total} ({:.1}s)", secs()),
        Err(e) => {
            eprintln!("scenario-fuzz: {e}");
            std::process::exit(1);
        }
    }
}
