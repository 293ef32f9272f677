//! The report JSON schema pin: `Report::to_json` is a hand-rolled,
//! key-ordered rendering that downstream tooling parses positionally, so
//! its shape is golden-filed. The run is fully deterministic (pinned
//! seed, simulated time only), so the whole rendering — values included
//! — must match `tests/golden/report_schema.json` byte-for-byte. Bump
//! [`Report::SCHEMA_VERSION`] and regenerate the golden file whenever a
//! key is added, removed or changes meaning.

use groupsafe::core::{Load, Report, SafetyLevel, System};
use groupsafe::sim::{ObsConfig, SimDuration};

const GOLDEN: &str = include_str!("golden/report_schema.json");

fn pinned_report() -> Report {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(10.0))
        .measure(SimDuration::from_secs(4))
        .drain(SimDuration::from_secs(2))
        .seed(42)
        .observe(ObsConfig::stream())
        .build()
        .expect("valid")
        .execute()
}

#[test]
fn report_json_matches_the_golden_file() {
    let json = pinned_report().to_json();
    // Regenerate with:
    //   GROUPSAFE_REGOLDEN=1 cargo test --test report_schema
    #[expect(
        clippy::disallowed_methods,
        reason = "a developer switch that rewrites the golden file; it never reaches a run, so the no-ambient-configuration ban does not apply"
    )]
    let regolden = std::env::var("GROUPSAFE_REGOLDEN").is_ok();
    if regolden {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/report_schema.json"
        );
        std::fs::write(path, format!("{json}\n")).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "Report::to_json drifted from tests/golden/report_schema.json — \
         if the change is intentional, bump Report::SCHEMA_VERSION and \
         regenerate the golden file"
    );
}

#[test]
fn schema_version_is_the_first_key() {
    let json = pinned_report().to_json();
    let prefix = format!("{{\"schema_version\":{},", Report::SCHEMA_VERSION);
    assert!(json.starts_with(&prefix), "{json}");
    assert_eq!(Report::SCHEMA_VERSION, 2);
    // The new sections are present and the object still closes on the
    // fingerprint (kept last so a truncated file is detectable).
    assert!(json.contains("\"obs_phases\":["), "{json}");
    assert!(json.contains("\"phases\":["), "{json}");
    let tail_ok = json.ends_with('}')
        && json.rfind("\"fingerprint\":").is_some_and(|i| {
            !json[i..].contains("\"obs_phases\"") && !json[i..].contains("\"phases\"")
        });
    assert!(tail_ok, "fingerprint must stay the last key: {json}");
}
