//! Deterministic observability exporter: run the pinned reference
//! scenario with the full structured event stream and write the two
//! exporter artefacts —
//!
//! * a Chrome trace-event JSON (`OBS_trace.json`), loadable in
//!   Perfetto / `chrome://tracing`, one instant event per pipeline
//!   stage on the emitting actor's track, and
//! * a Prometheus text-format snapshot (`OBS_metrics.prom`) of the
//!   engine's counters, histogram summaries and per-stage event
//!   counts.
//!
//! Everything is stamped with *simulated* time only, so both files are
//! byte-identical on every run and every machine — the committed copies
//! double as golden files (`--check` regenerates and compares).
//!
//! Usage: `obs_export [--trace PATH] [--prom PATH] [--check] [--phases]`
//!   --trace   where to write the Chrome trace (default OBS_trace.json)
//!   --prom    where to write the Prometheus snapshot (default
//!             OBS_metrics.prom)
//!   --check   do not write; diff the regenerated artefacts against the
//!             files on disk and exit non-zero on any byte difference
//!   --phases  print the commit-pipeline phase decomposition of the
//!             pinned scenario at every DSM safety level instead (the
//!             EXPERIMENTS.md table; deterministic, markdown rows)

use groupsafe_bench::Flags;
use groupsafe_core::{Load, SafetyLevel, System};
use groupsafe_sim::{prometheus_snapshot, ObsConfig, SimDuration};

/// The pinned reference scenario: small enough to finish in seconds,
/// busy enough that every commit-pipeline stage appears in the trace.
fn artefacts() -> (String, String) {
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(10.0))
        .measure(SimDuration::from_secs(4))
        .seed(42)
        .observe(ObsConfig::stream())
        .build()
        .expect("the pinned reference configuration is valid");
    let end = run.measure_end();
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(2));
    let engine = &run.system().engine;
    let trace = engine.obs().chrome_trace();
    let prom = prometheus_snapshot(engine.metrics(), engine.obs());
    (trace, prom)
}

/// The pinned scenario at each DSM safety level: where each level's
/// latency actually goes, phase by phase (the EXPERIMENTS.md table).
fn print_phase_table() {
    println!("| level | commits | submit | exec | commit | reply | total (ms) |");
    println!("|---|---|---|---|---|---|---|");
    for level in [
        SafetyLevel::ZeroSafe,
        SafetyLevel::GroupSafe,
        SafetyLevel::GroupOneSafe,
        SafetyLevel::TwoSafe,
        SafetyLevel::VerySafe,
    ] {
        let report = System::builder()
            .servers(3)
            .clients_per_server(2)
            .safety(level)
            .load(Load::open_tps(10.0))
            .measure(SimDuration::from_secs(4))
            .drain(SimDuration::from_secs(2))
            .seed(42)
            .observe(ObsConfig::stream())
            .build()
            .expect("valid")
            .execute();
        let p = report
            .obs_phases
            .first()
            .expect("stream mode always yields the global row");
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            report.technique,
            p.commits,
            p.submit_ms,
            p.exec_ms,
            p.commit_ms,
            p.reply_ms,
            p.total_ms()
        );
    }
}

fn main() {
    let flags = Flags::parse(&["--check", "--phases"], &["--trace", "--prom"]);
    let trace_path = flags.value("--trace").unwrap_or("OBS_trace.json");
    let prom_path = flags.value("--prom").unwrap_or("OBS_metrics.prom");
    let check = flags.has("--check");

    if flags.has("--phases") {
        print_phase_table();
        return;
    }

    let (trace, prom) = artefacts();

    if check {
        let mut failed = false;
        for (path, fresh) in [(&trace_path, &trace), (&prom_path, &prom)] {
            match std::fs::read_to_string(path) {
                Ok(on_disk) if on_disk == *fresh => {
                    println!("obs-export: {path} matches the pinned scenario");
                }
                Ok(_) => {
                    eprintln!(
                        "obs-export: {path} DIFFERS from the regenerated artefact \
                         (rerun `obs_export` to refresh it)"
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("obs-export: cannot read {path}: {e}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    std::fs::write(trace_path, &trace).expect("write chrome trace");
    std::fs::write(prom_path, &prom).expect("write prometheus snapshot");
    println!(
        "obs-export: wrote {trace_path} ({} bytes) and {prom_path} ({} bytes)",
        trace.len(),
        prom.len()
    );
}
