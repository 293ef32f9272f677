//! Regression for the CI transaction profile: `GROUPSAFE_TXN` must
//! reach the built system whichever way the builder was assembled, and
//! explicit transaction setters must still win over it.
//!
//! One test, alone in its own binary: the env var is process-global, so
//! it must not race sibling tests that build systems concurrently.

use groupsafe::core::{txn_from_env, System};

#[test]
fn env_profile_parses_plumbs_and_yields_to_explicit() {
    // ---- parsing: the recognised shapes, and a typed error on typos
    // (a malformed value must never silently select the classic mix —
    // that would make a "transactions on" CI pass vacuous).
    let parse = |v: Option<&str>| {
        match v {
            Some(v) => std::env::set_var("GROUPSAFE_TXN", v),
            None => std::env::remove_var("GROUPSAFE_TXN"),
        }
        let got = txn_from_env();
        std::env::remove_var("GROUPSAFE_TXN");
        got
    };
    assert_eq!(parse(None), Ok(None));
    assert_eq!(parse(Some("off")), Ok(None));
    assert_eq!(parse(Some("  ")), Ok(None));
    assert_eq!(parse(Some("0.5")), Ok(Some((0.5, None))));
    assert_eq!(parse(Some("1")), Ok(Some((1.0, None))));
    assert_eq!(parse(Some("0.25:4-8")), Ok(Some((0.25, Some((4, 8))))));
    assert_eq!(parse(Some(" 0.5 : 2 - 6 ")), Ok(Some((0.5, Some((2, 6))))));
    for bad in [
        "half", "1.5", "-0.1", "0.5:8-4", "0.5:0-0", "0.5:4", "0.5:a-b",
    ] {
        assert!(
            parse(Some(bad)).is_err(),
            "{bad:?} must be a typed error, not silently select the classic mix"
        );
    }
    // And the error must surface through the builder as a typed
    // BuildError, failing the build loudly.
    std::env::set_var("GROUPSAFE_TXN", "lots");
    let err = System::builder().build();
    std::env::remove_var("GROUPSAFE_TXN");
    assert!(
        matches!(
            err.as_ref().map(|_| ()),
            Err(groupsafe::core::BuildError::BadEnvProfile {
                var: "GROUPSAFE_TXN",
                ..
            })
        ),
        "a malformed profile must fail the build with a typed error"
    );

    // ---- precedence through the builder.
    std::env::set_var("GROUPSAFE_TXN", "0.4:5-9");

    // The profile reaches the effective workload, and the snapshot mix
    // switches the multi-version store on.
    let b = System::builder();
    let spec = b.effective_workload().expect("valid");
    assert_eq!(spec.txn_fraction, 0.4, "env profile was dropped");
    assert_eq!((spec.txn_ops_min, spec.txn_ops_max), (5, 9));
    let cfg = b.to_system_config().expect("valid");
    assert!(
        cfg.replica.db.mvcc_depth > 0,
        "the snapshot mix enables MVCC"
    );

    // Explicit calls still beat the env — including an explicit zero.
    let b = System::builder().txn_fraction(0.0);
    let spec = b.effective_workload().expect("valid");
    assert_eq!(spec.txn_fraction, 0.0, "explicit wins");
    let cfg = b.to_system_config().expect("valid");
    assert_eq!(cfg.replica.db.mvcc_depth, 0, "classic keeps MVCC off");
    let spec = System::builder()
        .txn_ops(2, 3)
        .effective_workload()
        .expect("valid");
    assert_eq!(
        (spec.txn_ops_min, spec.txn_ops_max),
        (2, 3),
        "explicit ops range wins"
    );

    std::env::remove_var("GROUPSAFE_TXN");
}
