//! Regression for the CI sharding profile: `GROUPSAFE_SHARDS` /
//! `GROUPSAFE_CROSS_SHARD` must reach the built system, a typo must
//! fail the build with a typed error instead of silently running
//! unsharded, and explicit shard setters must still win over it.
//!
//! One test, alone in its own binary: the env vars are process-global,
//! so it must not race sibling tests that build systems concurrently.

use groupsafe::core::{BuildError, ShardSpec, ShardStrategy, System};

#[test]
fn env_profile_parses_plumbs_and_yields_to_explicit() {
    let set = |shards: Option<&str>, cross: Option<&str>| {
        for (var, v) in [
            ("GROUPSAFE_SHARDS", shards),
            ("GROUPSAFE_CROSS_SHARD", cross),
        ] {
            match v {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
        }
    };
    let parse = |shards: Option<&str>, cross: Option<&str>| {
        set(shards, cross);
        let got = ShardSpec::from_env();
        set(None, None);
        got
    };
    let hashed = |groups, cross_fraction| ShardSpec {
        groups,
        strategy: ShardStrategy::Hash,
        cross_fraction,
    };

    // ---- parsing: every recognised profile, and a typed error on typos.
    assert_eq!(parse(None, None), Ok(None));
    assert_eq!(parse(Some("off"), None), Ok(None));
    assert_eq!(parse(Some(""), None), Ok(None));
    assert_eq!(parse(Some("3"), None), Ok(Some(hashed(3, 0.0))));
    assert_eq!(parse(Some(" 4 "), Some("0.1")), Ok(Some(hashed(4, 0.1))));
    // With the profile off the cross fraction is not read at all.
    assert_eq!(parse(None, Some("ten percent")), Ok(None));
    for (shards, cross) in [
        ("three", None),
        ("3x", None),
        ("-1", None),
        ("3", Some("ten percent")),
        ("3", Some("")),
    ] {
        assert!(
            parse(Some(shards), cross).is_err(),
            "{shards:?} / {cross:?} must be a typed error, not silently run unsharded"
        );
    }

    // ---- and the error surfaces through the builder as a typed
    // BuildError, failing the build loudly.
    for (shards, cross) in [("three", None), ("3", Some("lots"))] {
        set(Some(shards), cross);
        let err = System::builder().build();
        set(None, None);
        assert!(
            matches!(
                err.as_ref().map(|_| ()),
                Err(BuildError::BadEnvProfile {
                    var: "GROUPSAFE_SHARDS",
                    ..
                })
            ),
            "a malformed profile ({shards:?} / {cross:?}) must fail the build with a typed error"
        );
    }
    // Well-formed but out of range stays with the builder's own checks.
    set(Some("3"), Some("1.5"));
    let err = System::builder().build();
    set(None, None);
    assert!(matches!(
        err.as_ref().map(|_| ()),
        Err(BuildError::BadProbability {
            name: "cross_shard_fraction",
            ..
        })
    ));

    // ---- precedence through the builder.
    set(Some("3"), Some("0.1"));
    let cfg = System::builder().to_system_config().expect("valid");
    assert_eq!(cfg.shard, hashed(3, 0.1), "env profile was dropped");
    // An explicit setter still beats the env.
    let cfg = System::builder()
        .shards(2)
        .to_system_config()
        .expect("valid");
    assert_eq!(cfg.shard.groups, 2, "explicit .shards() must win");
    assert_eq!(cfg.shard.cross_fraction, 0.0);
    set(None, None);
}
