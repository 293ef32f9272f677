//! Snapshot-transaction sweep: abort rate and throughput vs.
//! `txn_fraction` and operations-per-transaction, against the classic
//! first-writer-wins baseline at a contended 50 % read mix.
//!
//! The classic pipeline certifies whole read sets: with broadcast
//! (strictly serializable) reads, every read-only transaction is a
//! certification target any concurrent writer can invalidate, and past
//! the pipeline's knee the abort rate storms to ~0.42. Snapshot
//! transactions serve reads off the multi-version store and certify
//! write sets only (first-committer-wins), so the same offered mix
//! certifies an order of magnitude fewer conflict candidates. The sweep
//! drives the identical contended mix through both pipelines and
//! measures abort rate per (txn_fraction × ops-per-transaction) point.
//!
//! Usage: `txn [--quick] [--csv <path>] [--json <path>]`
//!   --quick   only the gate points (classic baseline + all-snapshot
//!             headline) at the full measurement window — shrinking the
//!             window instead would dissolve the queueing the abort
//!             storm is made of, and the gate would pass vacuously
//!   --csv     one row per sweep point
//!   --json    JSON array with the full structured reports
//!
//! The binary asserts the headline claim — at the 50 % read mix whose
//! classic baseline aborts ≥ 0.3 of attempts, the all-snapshot mix
//! holds the abort rate under 0.1 — and exits non-zero if snapshot
//! certification ever stops paying.

use groupsafe_bench::Flags;
use groupsafe_core::{Load, ReadPath, Report, SafetyLevel, System, WorkloadSpec};
use groupsafe_sim::SimDuration;

/// Offered load (tps) just past the classic pipeline's knee at the
/// 50 % read mix: enough contention for the read-set abort storm
/// without collapsing the snapshot runs' throughput.
const CONTENDED_TPS: f64 = 32.0;

/// Servers in the (single) replica group.
const SERVERS: u32 = 3;

fn run_point(txn_fraction: f64, ops: Option<(usize, usize)>) -> Report {
    let mut b = System::builder()
        .servers(SERVERS)
        .clients_per_server(4)
        .safety(SafetyLevel::GroupSafe)
        // Strictly serializable reads: the baseline's read-only
        // transactions certify their full read sets, which is exactly
        // the storm the snapshot path dissolves.
        .read_path(ReadPath::Broadcast)
        .workload(WorkloadSpec {
            read_fraction: 0.5,
            ..WorkloadSpec::default()
        })
        .txn_fraction(txn_fraction)
        .load(Load::open_tps(CONTENDED_TPS))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(2))
        .seed(11);
    if let Some((lo, hi)) = ops {
        b = b.txn_ops(lo, hi);
    }
    b.build()
        .expect("the transaction sweep configuration is valid")
        .execute()
}

fn main() {
    let flags = Flags::parse(&["--quick"], &["--csv", "--json"]);
    let quick = flags.has("--quick");
    let csv_path = flags.value("--csv");
    let json_path = flags.value("--json");

    // (txn_fraction, ops-per-transaction range); None = the classic
    // baseline and the spec's Table 4 default respectively.
    let full: [(f64, Option<(usize, usize)>); 6] = [
        (0.0, None),
        (0.25, Some((10, 20))),
        (0.5, Some((10, 20))),
        (1.0, Some((4, 8))),
        (1.0, Some((10, 20))),
        (1.0, Some((20, 30))),
    ];
    let gates_only = [(0.0, None), (1.0, Some((10, 20)))];
    let points: &[(f64, Option<(usize, usize)>)] = if quick { &gates_only } else { &full };
    println!(
        "Snapshot-transaction sweep — group-safe, {SERVERS} servers, \
         50 % read mix, {CONTENDED_TPS:.0} tps offered (contended)"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>11} {:>10} {:>10} {:>10} {:>9}",
        "txn mix", "ops/txn", "commits", "abort rate", "txn commit", "txn abort", "txn rate", "tps"
    );
    type SweepRow = (f64, Option<(usize, usize)>, Report);
    let mut reports: Vec<SweepRow> = Vec::new();
    let mut baseline = 0.0f64;
    let mut headline = 1.0f64;
    for &(fraction, ops) in points {
        let r = run_point(fraction, ops);
        assert_eq!(r.lost, 0, "the snapshot mix must never lose transactions");
        assert_eq!(r.distinct_states, 1, "replicas must converge");
        if fraction == 0.0 {
            baseline = r.abort_rate;
        }
        if fraction == 1.0 && ops == Some((10, 20)) {
            headline = r.abort_rate;
        }
        println!(
            "{:>7.0}% {:>8} {:>8} {:>11.3} {:>10} {:>10} {:>10.3} {:>9.1}",
            fraction * 100.0,
            ops.map_or_else(|| "tbl4".to_string(), |(lo, hi)| format!("{lo}-{hi}")),
            r.commits,
            r.abort_rate,
            r.txn_commits,
            r.txn_aborts,
            r.txn_abort_rate,
            r.achieved_tps,
        );
        reports.push((fraction, ops, r));
    }

    if let Some(path) = csv_path {
        let mut out = String::from(
            "txn_fraction,ops_min,ops_max,commits,abort_rate,txn_commits,txn_aborts,\
             txn_abort_rate,achieved_tps,mean_ms\n",
        );
        for (fr, ops, r) in &reports {
            let (lo, hi) = ops.unwrap_or((0, 0));
            out.push_str(&format!(
                "{},{},{},{},{:.4},{},{},{:.4},{:.2},{:.2}\n",
                fr,
                lo,
                hi,
                r.commits,
                r.abort_rate,
                r.txn_commits,
                r.txn_aborts,
                r.txn_abort_rate,
                r.achieved_tps,
                r.mean_ms
            ));
        }
        std::fs::write(path, out).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = json_path {
        let rows: Vec<String> = reports
            .iter()
            .map(|(fr, ops, r)| {
                let (lo, hi) = ops.unwrap_or((0, 0));
                format!(
                    "{{\"txn_fraction\":{},\"ops_min\":{},\"ops_max\":{},\"report\":{}}}",
                    fr,
                    lo,
                    hi,
                    r.to_json()
                )
            })
            .collect();
        std::fs::write(path, format!("[{}]\n", rows.join(",\n"))).expect("write json");
        println!("wrote {path}");
    }

    assert!(
        baseline >= 0.3,
        "the classic baseline's abort storm has moved (measured {baseline:.3}, \
         historically ~0.39-0.42) — retune CONTENDED_TPS before trusting the sweep"
    );
    assert!(
        headline < 0.1,
        "snapshot transactions must hold the abort rate under 0.1 at the mix \
         the classic pipeline aborts {baseline:.3} of (measured {headline:.3})"
    );
    println!(
        "claim holds: the all-snapshot mix aborts {headline:.3} of attempts where \
         the classic pipeline aborts {baseline:.3} ({:.1}x fewer)",
        baseline / headline.max(1e-9)
    );
}
