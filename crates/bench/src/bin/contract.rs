//! `contract` — write or check the behavioural contract.
//!
//! ```text
//! contract --check [FILE]   # regenerate every cell and hold it to FILE
//! contract --write [FILE]   # regenerate FILE: a re-golden
//! ```
//!
//! FILE defaults to `CONTRACT.txt`. Both modes hold every cell to its
//! witness predicates first (see `groupsafe_bench::contract`); `--check`
//! names every cell that moved, is missing or is not declared, and exits
//! 1. Any other command line prints the usage line and exits 2.

use groupsafe_bench::contract;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode] => (mode.as_str(), "CONTRACT.txt"),
        [mode, path] => (mode.as_str(), path.as_str()),
        _ => ("", ""),
    };
    let cells = contract::cells();
    let result = match mode {
        "--write" => contract::render(&cells)
            .and_then(|text| std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))),
        "--check" => std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| {
                contract::declared(&text, &cells).and_then(|()| contract::check(&text, &cells))
            }),
        _ => {
            eprintln!("usage: contract --check|--write [FILE]");
            std::process::exit(2)
        }
    };
    match result {
        Ok(()) => println!("contract: {} cells, {path} {}", cells.len(), &mode[2..]),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
