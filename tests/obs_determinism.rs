//! Determinism of the observability layer itself: the structured event
//! stream and both exporters are pure functions of the seed. Two runs of
//! one seed must render byte-identical artefacts. (That the kernel
//! dispatches in `(time, scheduling order)` is pinned in `crates/sim`:
//! `tests/scheduler_equivalence.rs` and the engine's unit tests.)

use groupsafe::core::{Load, SafetyLevel, System};
use groupsafe::sim::{prometheus_snapshot, ObsConfig, SimDuration};

/// One full-stream run: the rendered event stream, the Chrome trace, the
/// Prometheus snapshot and the dispatch fingerprint.
fn run_stream(seed: u64) -> (String, String, String, u64) {
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(15.0))
        .measure(SimDuration::from_secs(4))
        .seed(seed)
        .observe(ObsConfig::stream())
        .build()
        .expect("valid");
    let end = run.measure_end();
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(2));
    let engine = &run.system().engine;
    (
        engine.obs().render_stream(),
        engine.obs().chrome_trace(),
        prometheus_snapshot(engine.metrics(), engine.obs()),
        engine.fingerprint(),
    )
}

#[test]
fn double_runs_render_byte_identical_artefacts() {
    let (stream_a, trace_a, prom_a, fp_a) = run_stream(31);
    let (stream_b, trace_b, prom_b, fp_b) = run_stream(31);
    assert_eq!(fp_a, fp_b);
    assert_eq!(stream_a, stream_b, "event stream must be byte-identical");
    assert_eq!(trace_a, trace_b, "chrome trace must be byte-identical");
    assert_eq!(prom_a, prom_b, "prometheus snapshot must be byte-identical");
    // And the artefacts actually carry the pipeline.
    for stage in ["client_submit", "exec_start", "broadcast", "client_ack"] {
        assert!(stream_a.contains(stage), "stream lacks {stage}");
        assert!(trace_a.contains(stage), "trace lacks {stage}");
    }
    assert!(prom_a.contains("groupsafe_obs_events_total"), "{prom_a}");
    assert!(trace_a.starts_with("{\"traceEvents\":["), "{trace_a}");
}
