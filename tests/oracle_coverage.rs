//! The oracle's teeth are themselves tested (determinism contract,
//! GS-P04): every `OracleViolation` variant must be named, as
//! `OracleViolation::<Variant>`, by some other file under `tests/` — in
//! practice a negative control that seeds the violation and asserts the
//! audit reports it (`tests/oracle_negative_controls.rs` and friends).

use std::path::Path;

use groupsafe::core::scenario::OracleViolation;

/// The names of `OracleViolation`'s variants. The match below has no
/// wildcard arm, so a new variant does not compile until it is listed
/// here — and once listed, it needs a test that names it.
macro_rules! variants {
    ($($name:ident),* $(,)?) => {{
        fn listed(v: &OracleViolation) {
            match v {
                $(OracleViolation::$name { .. })|* => {}
            }
        }
        let _ = listed;
        [$(stringify!($name)),*]
    }};
}

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("read tests/") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read a test file");
            out.push((path.display().to_string(), text));
        }
    }
}

/// Whether `text` holds `needle` followed by a character that cannot
/// continue an identifier (so `Divergence` does not match `DivergenceX`).
fn names(text: &str, needle: &str) -> bool {
    text.match_indices(needle).any(|(at, _)| {
        !text[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn every_oracle_violation_has_a_negative_control() {
    let all = variants!(
        UnexpectedLoss,
        Divergence,
        OrderDivergence,
        AtomicityViolation,
        Read,
        CertificationDivergence,
        SiLostUpdate,
        SiDirtyRead,
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut files = Vec::new();
    sources(&dir, &mut files);
    let me = dir.join("oracle_coverage.rs").display().to_string();
    files.retain(|(path, _)| *path != me);
    assert!(!files.is_empty(), "no test files found under {dir:?}");
    let unproven: Vec<&str> = all
        .into_iter()
        .filter(|v| {
            let needle = format!("OracleViolation::{v}");
            !files.iter().any(|(_, text)| names(text, &needle))
        })
        .collect();
    assert!(
        unproven.is_empty(),
        "OracleViolation variants named by no test under tests/: {unproven:?} — \
         add a negative control that seeds each violation and asserts it fires"
    );
}
