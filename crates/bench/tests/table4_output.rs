//! `table4` prints the live defaults of `System::builder()` in the
//! paper's Table 4 layout. Its stdout is pinned here byte for byte, so a
//! change to any default (or to how the builder resolves one) fails
//! this test instead of silently rewriting the table.

use std::process::Command;

const EXPECTED: &str = "\
Table 4 — simulator parameters:

Number of items in the database                    10000
Number of Servers                                  9
Number of Clients per Server                       4
Disks per Server                                   2
CPUs per Server                                    2
Transaction Length                                 10 - 20 Operations
Probability that an operation is a write           50%
Buffer hit ratio                                   20%
Time for a read                                    4 - 12 ms
Time for a write                                   4 - 12 ms
CPU Time used for an I/O operation                 0.4 ms
Time for a message or a broadcast on the Network   0.07 ms
CPU time for a network operation                   0.07 ms

Extensions beyond Table 4 (EXPERIMENTS.md, \"Substitutions and extensions\"):
Hotspot (abort-rate calibration)                   15% of accesses to 2% of items
";

#[test]
fn table4_prints_the_pinned_defaults() {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .output()
        .expect("the table4 binary runs");
    assert!(out.status.success(), "table4 exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(stdout, EXPECTED);
}
