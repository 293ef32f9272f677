//! Regression for the CI batching profile: `GROUPSAFE_BATCHING` must
//! reach the built system whichever way the builder was assembled, and
//! an explicit `.batching(..)` call must still win over it.
//!
//! One test, alone in its own binary: the env var is process-global, so
//! it must not race sibling tests that build systems concurrently.

use groupsafe::core::{BatchConfig, ReplicaConfig, System};
use groupsafe::sim::SimDuration;

#[test]
fn env_profile_survives_replica_replacement_and_yields_to_explicit() {
    // ---- parsing: every recognised profile, and a typed error on typos
    // (a malformed value must never silently select the unbatched
    // profile — that would make a "batching on" CI pass vacuous).
    let parse = |v: Option<&str>| {
        match v {
            Some(v) => std::env::set_var("GROUPSAFE_BATCHING", v),
            None => std::env::remove_var("GROUPSAFE_BATCHING"),
        }
        let got = BatchConfig::from_env();
        std::env::remove_var("GROUPSAFE_BATCHING");
        got
    };
    assert_eq!(parse(None), Ok(None));
    assert_eq!(parse(Some("off")), Ok(None));
    assert_eq!(
        parse(Some("on")),
        Ok(Some(BatchConfig::of(8, SimDuration::from_micros(500))))
    );
    assert_eq!(
        parse(Some("msgs=16,delay_us=250,bytes=4096")),
        Ok(Some(BatchConfig {
            max_msgs: 16,
            max_bytes: 4096,
            max_delay: SimDuration::from_micros(250),
        }))
    );
    for bad in ["msg=8", "msgs=0", "msgs=eight", "batch"] {
        assert!(
            parse(Some(bad)).is_err(),
            "{bad:?} must be a typed error, not silently disable batching"
        );
    }
    // And the error must surface through the builder as a typed
    // BuildError, failing the build loudly.
    std::env::set_var("GROUPSAFE_BATCHING", "msgs=zero");
    let err = System::builder().build();
    std::env::remove_var("GROUPSAFE_BATCHING");
    assert!(
        matches!(
            err.as_ref().map(|_| ()),
            Err(groupsafe::core::BuildError::BadEnvProfile {
                var: "GROUPSAFE_BATCHING",
                ..
            })
        ),
        "a malformed profile must fail the build with a typed error"
    );

    // ---- precedence through the builder.
    std::env::set_var("GROUPSAFE_BATCHING", "msgs=4,delay_us=100");

    // A later `.replica(..)` must not shed the env-selected profile.
    let cfg = System::builder()
        .replica(ReplicaConfig::default())
        .to_system_config()
        .expect("valid");
    assert_eq!(cfg.replica.batch.max_msgs, 4, "env profile was dropped");

    // An explicit call still beats the env.
    let cfg = System::builder()
        .batching(BatchConfig::unbatched())
        .to_system_config()
        .expect("valid");
    assert!(
        !cfg.replica.batch.enabled(),
        "explicit .batching() must win"
    );

    std::env::remove_var("GROUPSAFE_BATCHING");
}
