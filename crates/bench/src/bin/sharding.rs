//! Sharding sweep: aggregate committed throughput vs. group count and
//! cross-group transaction ratio.
//!
//! A single group-safe group is capped by its sequencer's ordering
//! pipeline; partitioning the key space over `N` independent groups
//! multiplies that capacity, at the price of an ordered two-phase
//! protocol for the transactions that span groups. The sweep drives
//! every configuration far past one group's capacity with short
//! write-heavy transactions and measures:
//!
//! * how aggregate commit throughput scales from 1 to 4 groups at 0 %
//!   cross-group traffic (the headline: it must grow monotonically),
//! * what a 5 % / 20 % cross-group fraction costs (each cross
//!   transaction occupies two groups' pipelines plus a decision round).
//!
//! Usage: `sharding [--quick] [--csv <path>] [--json <path>]`
//!   --quick   1.5 s measurement instead of 4 s
//!   --csv     one row per (groups, cross-ratio) point
//!   --json    JSON array with the full structured reports
//!
//! The binary asserts the headline claim — throughput strictly
//! increases 1 → 2 → 4 groups at 0 % cross traffic — and exits
//! non-zero if sharding ever stops paying.

use groupsafe_bench::ordering_bound_workload;
use groupsafe_bench::Flags;
use groupsafe_core::{Load, Report, SafetyLevel, System};
use groupsafe_sim::SimDuration;

/// Offered load (tps) far above a single 3-server group's saturation
/// point, so the measured commit rate is pipeline capacity.
const OVERLOAD_TPS: f64 = 14_000.0;

/// Servers per replica group (every configuration keeps the group size
/// fixed and scales the number of groups).
const SERVERS_PER_GROUP: u32 = 3;

fn run_point(groups: u32, cross: f64, quick: bool) -> Report {
    System::builder()
        .servers(SERVERS_PER_GROUP)
        .clients_per_server(4)
        .safety(SafetyLevel::GroupSafe)
        .shards(groups)
        .cross_shard_fraction(cross)
        // Short write-heavy transactions: the per-group ordering
        // traffic, not the read phase, dominates — the regime sharding
        // multiplies capacity in.
        .workload(ordering_bound_workload())
        .load(Load::open_tps(OVERLOAD_TPS))
        // No failover churn: the clients just queue behind the pipeline.
        .client_timeout(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs_f64(if quick { 1.5 } else { 4.0 }))
        .drain(SimDuration::from_secs(2))
        .seed(42)
        .build()
        .expect("the sharding sweep configuration is valid")
        .execute()
}

fn main() {
    let flags = Flags::parse(&["--quick"], &["--csv", "--json"]);
    let quick = flags.has("--quick");
    let csv_path = flags.value("--csv");
    let json_path = flags.value("--json");

    let group_counts = [1u32, 2, 4];
    let cross_ratios = [0.0f64, 0.05, 0.2];
    println!(
        "Sharding sweep — group-safe, {SERVERS_PER_GROUP} servers/group, \
         {OVERLOAD_TPS:.0} tps offered (overload)"
    );
    println!(
        "{:>7} {:>7} {:>10} {:>9} {:>9} {:>11} {:>9}",
        "groups", "cross", "committed", "tps", "mean ms", "xg commits", "speedup"
    );
    let mut reports: Vec<(u32, f64, Report)> = Vec::new();
    let mut zero_cross_tps: Vec<(u32, f64)> = Vec::new();
    let mut base_tps = 0.0;
    for &groups in &group_counts {
        for &cross in &cross_ratios {
            if groups == 1 && cross > 0.0 {
                continue; // one group has nothing to cross into
            }
            let r = run_point(groups, cross, quick);
            assert_eq!(r.lost, 0, "sharding must never lose transactions");
            assert_eq!(r.distinct_states, 1, "every group must converge");
            if groups == 1 {
                base_tps = r.achieved_tps;
            }
            if cross == 0.0 {
                zero_cross_tps.push((groups, r.achieved_tps));
            }
            println!(
                "{:>7} {:>6.0}% {:>10} {:>9.1} {:>9.1} {:>11} {:>8.2}x",
                groups,
                cross * 100.0,
                r.commits,
                r.achieved_tps,
                r.mean_ms,
                r.cross_group_commits,
                r.achieved_tps / base_tps.max(1e-9),
            );
            reports.push((groups, cross, r));
        }
    }

    // The headline gate: aggregate capacity grows with every doubling of
    // the group count when no transaction crosses groups.
    for w in zero_cross_tps.windows(2) {
        let (g0, t0) = w[0];
        let (g1, t1) = w[1];
        assert!(
            t1 > t0,
            "sharding stopped paying: {g1} groups committed {t1:.1} tps \
             <= {g0} groups at {t0:.1} tps"
        );
    }
    let (gmax, tmax) = *zero_cross_tps.last().expect("swept");
    println!(
        "monotonic scaling holds: 1 group {base_tps:.1} tps -> {gmax} groups {tmax:.1} tps \
         ({:.2}x) at 0% cross traffic",
        tmax / base_tps.max(1e-9)
    );

    if let Some(path) = csv_path {
        let mut csv =
            String::from("groups,cross_ratio,commits,achieved_tps,mean_ms,cross_group_commits\n");
        for (groups, cross, r) in &reports {
            csv.push_str(&format!(
                "{},{:.2},{},{:.2},{:.2},{}\n",
                groups, cross, r.commits, r.achieved_tps, r.mean_ms, r.cross_group_commits
            ));
        }
        std::fs::write(path, csv).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = json_path {
        let mut json = String::from("[");
        for (i, (groups, cross, r)) in reports.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"groups\":{groups},\"cross_ratio\":{cross:.2},\"report\":{}}}",
                r.to_json()
            ));
        }
        json.push(']');
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
