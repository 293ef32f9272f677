//! The `obs ≡ seed` pin: observability recording never touches the
//! dispatch fingerprint, the RNG streams or the event queue, so the
//! disabled, flight-recorder-ring and full-stream modes replay one seed
//! bit-for-bit — same fingerprint, same commits, same digests.

use groupsafe::core::scenario::fuzz::{run_fuzz_case, smoke};
use groupsafe::core::scenario::OracleViolation;
use groupsafe::core::{Load, SafetyLevel, System, SystemBuilder};
use groupsafe::sim::{ObsConfig, SimDuration};

fn base(seed: u64) -> SystemBuilder {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(15.0))
        .measure(SimDuration::from_secs(5))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
}

#[test]
fn recording_mode_never_changes_the_run() {
    let disabled = base(4242)
        .observe(ObsConfig::disabled())
        .build()
        .expect("valid")
        .execute();
    // The untouched default: the bounded ring flight recorder.
    let ring = base(4242).build().expect("valid").execute();
    let stream = base(4242)
        .observe(ObsConfig::stream())
        .build()
        .expect("valid")
        .execute();
    assert_eq!(disabled.fingerprint, ring.fingerprint, "ring ≡ off");
    assert_eq!(disabled.fingerprint, stream.fingerprint, "stream ≡ off");
    assert_eq!(disabled.commits, ring.commits);
    assert_eq!(disabled.commits, stream.commits);
    assert_eq!(disabled.digests, ring.digests);
    assert_eq!(disabled.digests, stream.digests);
    // The ring retains no stream, so its report (decomposition included)
    // is byte-identical to the disabled run's.
    assert_eq!(disabled.to_json(), ring.to_json(), "whole report");
    assert!(disabled.obs_phases.is_empty());
    // Stream mode adds the phase decomposition — and nothing else.
    assert_eq!(stream.obs_phases.len(), 1, "one global row unsharded");
}

/// The acceptance reconciliation: each commit span's four phases are
/// consecutive, so their means sum exactly to the mean end-to-end
/// latency of the spanned commits.
#[test]
fn phase_means_reconcile_with_end_to_end_latency() {
    let report = base(7)
        .observe(ObsConfig::stream())
        .build()
        .expect("valid")
        .execute();
    let row = &report.obs_phases[0];
    assert!(row.commits > 10, "{report}");
    assert!(row.submit_ms >= 0.0 && row.exec_ms > 0.0 && row.commit_ms > 0.0);
    let total = row.total_ms();
    assert!(
        (total - (row.submit_ms + row.exec_ms + row.commit_ms + row.reply_ms)).abs() < 1e-12,
        "phases must sum to the end-to-end mean"
    );
    // Sanity against the wall: the commit phase (ordering + stability +
    // certification) dominates a group-safe pipeline.
    assert!(row.commit_ms > row.submit_ms, "{report}");
}

/// The fuzz repro dump carries the flight recorder's tail: the
/// default ring captures the pipeline's last events, and a violating
/// outcome's describe() appends them after the plan and violations.
/// The violation is seeded by hand (negative control) — a correct run
/// can never produce one.
#[test]
fn violation_dump_includes_the_flight_recorder_tail() {
    let clean = run_fuzz_case(3, smoke(SafetyLevel::GroupSafe));
    assert!(clean.ok(), "{}", clean.describe());
    assert!(
        !clean.flight.is_empty(),
        "the default ring must have recorded the pipeline's tail"
    );
    // A profile set on the envelope reaches the run: `off` records
    // nothing and replays the same run.
    let envelope = smoke(SafetyLevel::GroupSafe).observe(ObsConfig::disabled());
    let off = run_fuzz_case(3, envelope);
    assert!(off.flight.is_empty(), "{}", off.flight);
    assert_eq!(off.fingerprint, clean.fingerprint);
    // Seed a violation into a copy of the outcome and check the dump.
    let mut bad = clean.clone();
    bad.audit.violations = vec![OracleViolation::Divergence {
        digests: vec![1, 2],
    }];
    assert!(!bad.ok());
    let dump = bad.describe();
    assert!(dump.contains("VIOLATION"), "{dump}");
    assert!(dump.contains("flight recorder tail:"), "{dump}");
    assert!(
        dump.contains("client_ack") || dump.contains("uniform_deliver"),
        "the tail must carry rendered pipeline stages:\n{dump}"
    );
}
