//! `contract` takes `--check` or `--write` and an optional file; any
//! other command line stops it with the usage line and status 2, apart
//! from a failing check's status 1.

use std::process::Command;

#[test]
fn contract_rejects_an_argument_with_the_usage_line() {
    for args in [&["--bogus"][..], &[], &["--check", "a", "b"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_contract"))
            .args(args)
            .output()
            .expect("the contract binary runs");
        assert_eq!(out.status.code(), Some(2), "contract {args:?}");
        assert!(out.stdout.is_empty(), "contract {args:?} printed a result");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
        assert_eq!(stderr, "usage: contract --check|--write [FILE]\n");
    }
}
