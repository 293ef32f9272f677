//! Batching sweep: committed throughput vs. the abcast batch size under
//! open-loop overload.
//!
//! The group-safe pipeline pays one ordered message plus one stability
//! vote per replica for every transaction; at saturation that ordering
//! traffic — not the data path — caps throughput. The sweep drives the
//! Table 4 group (9 servers) far past its unbatched capacity with short
//! write-heavy transactions and measures how the knee moves as the
//! sequencer packs more transactions per frame (`max_msgs` from 1 to
//! 32, 1 ms flush deadline).
//!
//! Usage: `batching [--quick]`
//!   --quick   2 s measurement instead of 6 s
//!
//! The binary asserts the headline claim: at the highest load point,
//! `max_msgs = 32` commits at least 2× what `max_msgs = 1` does on the
//! same seed. It exits non-zero if batching ever stops paying.

use groupsafe_bench::ordering_bound_workload;
use groupsafe_bench::Flags;
use groupsafe_core::{BatchConfig, Load, Report, SafetyLevel, System};
use groupsafe_sim::SimDuration;

/// Offered load (tps) far above the unbatched saturation point, so the
/// measured commit rate is the pipeline's capacity, not the offered
/// rate.
const OVERLOAD_TPS: f64 = 4_000.0;

fn run_point(max_msgs: usize, quick: bool) -> Report {
    System::builder()
        .servers(9)
        .clients_per_server(4)
        .safety(SafetyLevel::GroupSafe)
        .batching(BatchConfig {
            max_msgs,
            max_delay: SimDuration::from_millis(1),
        })
        // Short write-heavy transactions: the ordering traffic, not the
        // read phase, dominates — the regime batching is built for.
        .workload(ordering_bound_workload())
        .load(Load::open_tps(OVERLOAD_TPS))
        // No failover churn: the clients just queue behind the pipeline.
        .client_timeout(SimDuration::from_secs(60))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs(if quick { 2 } else { 6 }))
        .drain(SimDuration::from_secs(2))
        .seed(42)
        .build()
        .expect("the batching sweep configuration is valid")
        .execute()
}

fn main() {
    let quick = Flags::parse(&["--quick"], &[]).has("--quick");

    let sizes = [1usize, 2, 4, 8, 16, 32];
    println!("Batching sweep — group-safe, 9 servers, {OVERLOAD_TPS:.0} tps offered (overload)");
    println!(
        "{:>9} {:>10} {:>9} {:>9} {:>11} {:>12} {:>9}",
        "max_msgs", "committed", "tps", "mean ms", "batch size", "votes/deliv", "speedup"
    );
    let mut reports: Vec<(usize, Report)> = Vec::new();
    let mut base_tps = 0.0;
    for &max_msgs in &sizes {
        let r = run_point(max_msgs, quick);
        assert_eq!(r.lost, 0, "batching must never lose transactions");
        assert_eq!(r.distinct_states, 1, "replicas must converge");
        if max_msgs == 1 {
            base_tps = r.achieved_tps;
        }
        println!(
            "{:>9} {:>10} {:>9.1} {:>9.1} {:>11.1} {:>12.2} {:>8.2}x",
            max_msgs,
            r.commits,
            r.achieved_tps,
            r.mean_ms,
            r.mean_batch_size,
            r.votes_per_delivery,
            r.achieved_tps / base_tps.max(1e-9),
        );
        reports.push((max_msgs, r));
    }

    let top = &reports.last().expect("non-empty sweep").1;
    let speedup = top.achieved_tps / base_tps.max(1e-9);
    assert!(
        speedup >= 2.0,
        "batching must at least double saturated commit throughput \
         (measured {speedup:.2}x: {base_tps:.0} -> {:.0} tps)",
        top.achieved_tps
    );
    assert!(
        top.mean_batch_size > 4.0,
        "the overload must actually fill batches (mean {:.1})",
        top.mean_batch_size
    );
    println!("claim holds: max_msgs=32 commits {speedup:.2}x the unbatched pipeline at saturation");
}
