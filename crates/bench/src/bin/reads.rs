//! Read-path sweep: committed read throughput vs. read fraction and
//! read level, against the broadcast-read baseline.
//!
//! A broadcast read pays the full group-safe ordering round — sequencer
//! forward, ordered frame, one stability vote per replica, certification
//! at every delivery — exactly like an update. A local follower read
//! pays a network hop and the serving replica's CPU, and the load
//! spreads over *all* replicas of the owning group. The sweep drives a
//! group-safe group far past the ordering pipeline's capacity with a
//! mostly-cached, read-heavy workload and measures committed read
//! throughput per (read fraction × read path) point.
//!
//! Usage: `reads [--quick] [--csv <path>] [--json <path>]`
//!   --quick   1.5 s measurement instead of 4 s
//!   --csv     one row per (fraction, path) point
//!   --json    JSON array with the full structured reports
//!
//! The binary asserts the headline claim — at a 90 % read mix,
//! `ReadLevel::Session` serves at least 5× the committed read
//! throughput of the broadcast-reads baseline — and exits non-zero if
//! the local path ever stops paying.

use groupsafe_bench::read_bound_workload;
use groupsafe_bench::Flags;
use groupsafe_core::{Load, ReadLevel, ReadPath, Report, SafetyLevel, System};
use groupsafe_db::{BufferModel, DbConfig};
use groupsafe_sim::SimDuration;

/// Offered load (tps) far above the broadcast pipeline's saturation
/// point, so the measured rates are capacity, not the offered rate.
const OVERLOAD_TPS: f64 = 9_000.0;

/// Servers in the (single) replica group.
const SERVERS: u32 = 3;

fn run_point(path: ReadPath, read_fraction: f64, quick: bool) -> Report {
    System::builder()
        .servers(SERVERS)
        .clients_per_server(6)
        .safety(SafetyLevel::GroupSafe)
        .read_path(path)
        // Mostly-cached database: the ordering round — not the data
        // disks — is what a broadcast read pays and a local read skips.
        .db(DbConfig {
            buffer: BufferModel::Probabilistic { hit_ratio: 0.95 },
            ..DbConfig::default()
        })
        .workload(read_bound_workload(read_fraction))
        .load(Load::open_tps(OVERLOAD_TPS))
        // No failover churn: the clients just queue behind the pipeline.
        .client_timeout(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs_f64(if quick { 1.5 } else { 4.0 }))
        .drain(SimDuration::from_secs(2))
        .seed(42)
        .build()
        .expect("the read sweep configuration is valid")
        .execute()
}

fn label(path: ReadPath) -> &'static str {
    path.label()
}

fn main() {
    let flags = Flags::parse(&["--quick"], &["--csv", "--json"]);
    let quick = flags.has("--quick");
    let csv_path = flags.value("--csv");
    let json_path = flags.value("--json");

    let fractions = [0.5, 0.9];
    let paths = [
        ReadPath::Broadcast,
        ReadPath::Local(ReadLevel::Stable),
        ReadPath::Local(ReadLevel::Session),
        ReadPath::Local(ReadLevel::Latest),
    ];
    println!(
        "Read sweep — group-safe, {SERVERS} servers, {OVERLOAD_TPS:.0} tps offered (overload)"
    );
    println!(
        "{:>9} {:>14} {:>9} {:>10} {:>9} {:>10} {:>10} {:>9}",
        "read mix", "path", "reads", "read tps", "tps", "read ms", "redirects", "speedup"
    );
    let mut reports: Vec<(f64, ReadPath, Report)> = Vec::new();
    let mut gate: Option<f64> = None; // broadcast read tps at the 90 % mix
    let mut session_90 = 0.0f64;
    for &fraction in &fractions {
        let mut base_read_tps = 0.0f64;
        for &path in &paths {
            let r = run_point(path, fraction, quick);
            assert_eq!(r.lost, 0, "the read path must never lose transactions");
            assert_eq!(r.distinct_states, 1, "replicas must converge");
            if path == ReadPath::Broadcast {
                base_read_tps = r.read_tps;
                if fraction == 0.9 {
                    gate = Some(r.read_tps);
                }
            }
            if path == ReadPath::Local(ReadLevel::Session) && fraction == 0.9 {
                session_90 = r.read_tps;
            }
            println!(
                "{:>8.0}% {:>14} {:>9} {:>10.1} {:>9.1} {:>10.2} {:>10} {:>8.2}x",
                fraction * 100.0,
                label(path),
                r.reads,
                r.read_tps,
                r.achieved_tps,
                r.read_mean_ms,
                r.read_redirects,
                r.read_tps / base_read_tps.max(1e-9),
            );
            reports.push((fraction, path, r));
        }
    }

    if let Some(path) = csv_path {
        let mut out = String::from(
            "read_fraction,path,reads,read_tps,read_mean_ms,read_redirects,read_staleness,\
             achieved_tps,commits,mean_ms\n",
        );
        for (fr, p, r) in &reports {
            out.push_str(&format!(
                "{},{},{},{:.2},{:.2},{},{:.3},{:.2},{},{:.2}\n",
                fr,
                label(*p),
                r.reads,
                r.read_tps,
                r.read_mean_ms,
                r.read_redirects,
                r.read_staleness,
                r.achieved_tps,
                r.commits,
                r.mean_ms
            ));
        }
        std::fs::write(path, out).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = json_path {
        let rows: Vec<String> = reports
            .iter()
            .map(|(fr, p, r)| {
                format!(
                    "{{\"read_fraction\":{},\"path\":\"{}\",\"report\":{}}}",
                    fr,
                    label(*p),
                    r.to_json()
                )
            })
            .collect();
        std::fs::write(path, format!("[{}]\n", rows.join(",\n"))).expect("write json");
        println!("wrote {path}");
    }

    let base = gate.expect("the sweep ran the 90 % broadcast baseline");
    let speedup = session_90 / base.max(1e-9);
    assert!(
        speedup >= 5.0,
        "session follower reads must serve at least 5x the broadcast baseline \
         at a 90 % read mix (measured {speedup:.2}x: {base:.0} -> {session_90:.0} read tps)"
    );
    println!(
        "claim holds: session reads serve {speedup:.2}x the broadcast baseline \
         at the 90 % mix ({base:.0} -> {session_90:.0} read tps)"
    );
}
