//! Regression for the CI read profile: `GROUPSAFE_READS` must reach the
//! built system whichever way the builder was assembled, and explicit
//! read setters must still win over it.
//!
//! One test, alone in its own binary: the env var is process-global, so
//! it must not race sibling tests that build systems concurrently.

use groupsafe::core::reads::{reads_from_env, ReadConfig, ReadLevel, ReadPath};
use groupsafe::core::{ReplicaConfig, System};

#[test]
fn env_profile_parses_plumbs_and_yields_to_explicit() {
    // ---- parsing: every recognised profile, and a typed error on typos
    // (a malformed value must never silently select the classic path —
    // that would make a "reads on" CI pass vacuous).
    let parse = |v: Option<&str>| {
        match v {
            Some(v) => std::env::set_var("GROUPSAFE_READS", v),
            None => std::env::remove_var("GROUPSAFE_READS"),
        }
        let got = reads_from_env();
        std::env::remove_var("GROUPSAFE_READS");
        got
    };
    assert_eq!(parse(None), Ok(None));
    assert_eq!(parse(Some("off")), Ok(None));
    assert_eq!(
        parse(Some("session")).map(|o| o.map(|(c, f)| (c.path, f))),
        Ok(Some((ReadPath::Local(ReadLevel::Session), None)))
    );
    assert_eq!(
        parse(Some("stable:0.9")).map(|o| o.map(|(c, f)| (c.path, f))),
        Ok(Some((ReadPath::Local(ReadLevel::Stable), Some(0.9))))
    );
    assert_eq!(
        parse(Some("latest:0.25")).map(|o| o.map(|(c, f)| (c.path, f))),
        Ok(Some((ReadPath::Local(ReadLevel::Latest), Some(0.25))))
    );
    assert_eq!(
        parse(Some("broadcast:0.5")).map(|o| o.map(|(c, f)| (c.path, f))),
        Ok(Some((ReadPath::Broadcast, Some(0.5))))
    );
    assert_eq!(
        parse(Some("classic")).map(|o| o.map(|(c, f)| (c.path, f))),
        Ok(Some((ReadPath::Classic, None)))
    );
    for bad in ["sessions", "session:2.0", "session:x", "snapshot"] {
        assert!(
            parse(Some(bad)).is_err(),
            "{bad:?} must be a typed error, not silently select classic"
        );
    }
    // And the error must surface through the builder as a typed
    // BuildError, failing the build loudly.
    std::env::set_var("GROUPSAFE_READS", "snapshot");
    let err = System::builder().build();
    std::env::remove_var("GROUPSAFE_READS");
    assert!(
        matches!(
            err.as_ref().map(|_| ()),
            Err(groupsafe::core::BuildError::BadEnvProfile {
                var: "GROUPSAFE_READS",
                ..
            })
        ),
        "a malformed profile must fail the build with a typed error"
    );

    // ---- precedence through the builder.
    std::env::set_var("GROUPSAFE_READS", "session:0.4");

    // A later `.replica(..)` must not shed the env-selected profile,
    // and the profile's fraction reaches the workload.
    let cfg = System::builder()
        .replica(ReplicaConfig::default())
        .to_system_config()
        .expect("valid");
    assert_eq!(
        cfg.replica.reads.path,
        ReadPath::Local(ReadLevel::Session),
        "env profile was dropped"
    );
    assert!(cfg.replica.db.mvcc_depth > 0, "local path enables MVCC");

    // Explicit calls still beat the env.
    let cfg = System::builder()
        .reads(ReadConfig::classic())
        .read_fraction(0.0)
        .to_system_config()
        .expect("valid");
    assert_eq!(cfg.replica.reads.path, ReadPath::Classic, "explicit wins");
    assert_eq!(cfg.replica.db.mvcc_depth, 0, "classic keeps MVCC off");

    std::env::remove_var("GROUPSAFE_READS");
}
