//! The linter's own negative controls: every rule id must demonstrably
//! fire on its fixture, stay silent on the clean control, and respect
//! the test-scope and crate-scope carve-outs. Plus the two workspace
//! gates: the committed tree (with the committed `lint.toml`) audits
//! clean, and the committed `lint.toml` round-trips through the parser.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use groupsafe_lint::{
    apply_allowlist, oracle_coverage, scan_file, scan_workspace, Allowlist, Diagnostic, RuleId,
};

/// Scan fixture `name` as if it lived at `rel` in the workspace.
fn scan_as(name: &str, rel: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut diags = Vec::new();
    scan_file(rel, &text, &mut diags);
    diags
}

const PROTO: &str = "crates/core/src/fixture.rs";

#[test]
fn hash_collections_fixture_fires_gs_d01() {
    let diags = scan_as("hash_collections.rs", PROTO);
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::HashCollections)
        .collect();
    // use HashMap, use HashSet, HashMap field, HashSet field — and not
    // the BTreeMap lines, the comment, or the string literal.
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits.iter().all(|d| d.line <= 8), "{hits:?}");
}

#[test]
fn wall_clock_fixture_fires_gs_d02() {
    let diags = scan_as("wall_clock.rs", PROTO);
    let hits = diags.iter().filter(|d| d.rule == RuleId::WallClock).count();
    assert_eq!(hits, 3); // use Instant, Instant::now, SystemTime::now
}

#[test]
fn os_entropy_fixture_fires_gs_d03() {
    let diags = scan_as("os_entropy.rs", PROTO);
    let hits = diags.iter().filter(|d| d.rule == RuleId::OsEntropy).count();
    assert_eq!(hits, 2); // thread_rng, from_entropy
}

#[test]
fn threads_sleep_fixture_fires_gs_d04() {
    let diags = scan_as("threads_sleep.rs", PROTO);
    assert!(diags.iter().any(|d| d.rule == RuleId::ThreadsSleep));
}

#[test]
fn float_fingerprint_fixture_fires_gs_d05_only_in_fingerprint_scope() {
    let diags = scan_as("float_fingerprint.rs", PROTO);
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::FloatFingerprint)
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 5, "the accumulation inside fn fingerprint");
}

#[test]
fn determinism_rules_skip_the_bench_crate() {
    for fixture in ["wall_clock.rs", "os_entropy.rs", "threads_sleep.rs"] {
        let diags = scan_as(fixture, "crates/bench/src/fixture.rs");
        assert!(diags.is_empty(), "{fixture}: {diags:?}");
    }
}

#[test]
fn determinism_rules_do_apply_to_test_code() {
    // Tests replay too: a HashMap in a test file is still a finding.
    let diags = scan_as("hash_collections.rs", "tests/fixture.rs");
    assert!(diags.iter().any(|d| d.rule == RuleId::HashCollections));
}

#[test]
fn wildcard_dispatch_fixture_fires_gs_p01() {
    let diags = scan_as("wildcard_dispatch.rs", PROTO);
    let hits: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == RuleId::WildcardDispatch)
        .map(|d| d.line)
        .collect();
    // The `_ => {}` arm and the `other =>` catch-all binding — not the
    // integer match, the exhaustive match, or the cfg(test) module.
    assert_eq!(hits, vec![6, 13], "{diags:?}");
}

#[test]
fn message_dispatch_fixture_fires_gs_p01() {
    let diags = scan_as("message_dispatch.rs", PROTO);
    let hits: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == RuleId::WildcardDispatch)
        .map(|d| d.line)
        .collect();
    // The `_ => {}` arm over `ServerEvent` and the `rest =>` binding over
    // `HostMsg` — not the named misroute arm or the exhaustive match.
    assert_eq!(hits, vec![11, 19], "{diags:?}");
}

#[test]
fn panic_freedom_fixture_fires_gs_p02_outside_tests_only() {
    let diags = scan_as("panic_freedom.rs", PROTO);
    let hits: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == RuleId::PanicFreedom)
        .map(|d| d.line)
        .collect();
    // unwrap, expect, panic!, unreachable!, todo! — none from the
    // cfg(test) module at the bottom.
    assert_eq!(hits, vec![3, 4, 6, 9, 15], "{diags:?}");
}

#[test]
fn panic_freedom_does_not_apply_outside_protocol_crates() {
    for rel in [
        "crates/workload/src/fixture.rs",
        "crates/core/tests/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = scan_as("panic_freedom.rs", rel);
        assert!(
            !diags.iter().any(|d| d.rule == RuleId::PanicFreedom),
            "{rel}: {diags:?}"
        );
    }
}

#[test]
fn direct_index_fixture_fires_gs_p03() {
    let diags = scan_as("direct_index.rs", PROTO);
    let hits: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == RuleId::DirectIndex)
        .map(|d| d.line)
        .collect();
    // v[i] twice — not the attribute, array type, vec! macro or .get().
    assert_eq!(hits, vec![3, 7], "{diags:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let diags = scan_as("clean.rs", PROTO);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn oracle_coverage_flags_unreferenced_variants() {
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    sources.insert(
        "crates/core/src/scenario.rs".into(),
        "/// Violations.\npub enum OracleViolation {\n    UnexpectedLoss { txn: u64 },\n    Divergence { digests: Vec<u64> },\n}\n"
            .into(),
    );
    sources.insert(
        "tests/negative.rs".into(),
        "fn probe() { let _ = OracleViolation::UnexpectedLoss { txn: 0 }; }\n".into(),
    );
    let mut diags = Vec::new();
    oracle_coverage(&sources, &mut diags);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::OracleCoverage);
    assert!(diags[0].message.contains("Divergence"), "{diags:?}");

    // Referencing the variant in a test clears it.
    sources.insert(
        "tests/negative2.rs".into(),
        "fn probe2() { let _ = stringify!(Divergence); }\n".into(),
    );
    let mut diags = Vec::new();
    oracle_coverage(&sources, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The committed tree, filtered through the committed allowlist, is
/// clean — and the allowlist carries no stale entries. This is the
/// same gate CI runs via `cargo run -p groupsafe-lint`.
#[test]
fn committed_tree_audits_clean() {
    let root = workspace_root();
    let diags = scan_workspace(&root).expect("scan");
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let allow = Allowlist::parse(&text).expect("lint.toml parses");
    let filtered = apply_allowlist(diags, &allow);
    assert!(
        filtered.kept.is_empty(),
        "unallowlisted findings:\n{}",
        filtered
            .kept
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        filtered.unused.is_empty(),
        "stale allowlist entries: {:?}",
        filtered.unused
    );
}

/// The committed allowlist round-trips: parse → render → parse is the
/// identity, and every entry names a real rule and carries a
/// justification (the parser enforces the latter).
#[test]
fn committed_allowlist_round_trips() {
    let text = std::fs::read_to_string(workspace_root().join("lint.toml")).expect("lint.toml");
    let allow = Allowlist::parse(&text).expect("lint.toml parses");
    assert!(!allow.entries.is_empty());
    let again = Allowlist::parse(&allow.render()).expect("rendered form parses");
    assert_eq!(again, allow);
    for e in &allow.entries {
        assert!(
            e.justification.len() >= 20,
            "justification for {e} is too thin to document anything"
        );
    }
}
