//! Fig. 5 / Fig. 7 reproduction: the unrecoverable-failure scenario under
//! classic atomic broadcast, and its recovery under end-to-end atomic
//! broadcast — plus the §3 variant where even a persistent GC log cannot
//! help without the end-to-end property.
//!
//! The scenario (paper §3): a transaction's message m is delivered on all
//! three servers; the delegate commits and answers the client; then every
//! server crashes before S2/S3 process m. On recovery, can the system
//! still commit m?

use groupsafe_gcs::harness::{Cluster, HostMsg};
use groupsafe_gcs::GcsConfig;
use groupsafe_net::NodeId;
use groupsafe_sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

struct Outcome {
    recovered: usize,
    n: u32,
}

fn run_scenario(label: &str, cfg: GcsConfig, restart: bool) -> Outcome {
    let n = 3;
    let mut cluster = Cluster::with_process_delay(n, cfg, 1234, SimDuration::from_millis(50));
    // t is broadcast at 10 ms; delivery completes within ~20 ms; the
    // processing (logging) would finish at ~60 ms or later.
    cluster.broadcast_at(ms(10), NodeId(0), 4242);
    // Everyone crashes inside the delivered-but-unprocessed window.
    for &h in &cluster.hosts {
        cluster.engine.schedule_crash(ms(45), h);
    }
    for &h in &cluster.hosts {
        cluster.engine.schedule_recover(ms(100), h);
    }
    if restart {
        // Dynamic model, total failure: operator restarts the group.
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        for &h in &cluster.hosts {
            cluster.engine.schedule_resilient(
                ms(300),
                h,
                HostMsg::RestartGroup(members.clone().into()),
            );
        }
    }
    cluster.engine.run_until(ms(2_000));
    let recovered = (0..n)
        .filter(|&i| cluster.stable_values(NodeId(i)).contains(&4242))
        .count();
    println!(
        "  {label:<44} t recovered on {recovered}/{n} servers  {}",
        if recovered == n as usize {
            "-> 2-safe behaviour"
        } else {
            "-> transaction LOST"
        }
    );
    Outcome { recovered, n }
}

fn main() {
    println!("Fig. 5 / Fig. 7 — total failure inside the delivery-to-processing window:\n");
    let fig5 = run_scenario(
        "Fig. 5: classic atomic broadcast (view-based)",
        GcsConfig::view_based_uniform(),
        true,
    );
    let sect3 = run_scenario(
        "§3: crash-recovery log, no end-to-end property",
        GcsConfig::crash_recovery(),
        false,
    );
    let fig7 = run_scenario(
        "Fig. 7: end-to-end atomic broadcast",
        GcsConfig::end_to_end(),
        false,
    );
    assert_eq!(fig5.recovered, 0, "Fig. 5: t must be lost everywhere");
    assert_eq!(
        sect3.recovered, 0,
        "§3: uniform integrity forbids replay; t must be lost"
    );
    assert_eq!(
        fig7.recovered, fig7.n as usize,
        "Fig. 7: end-to-end replay must recover t everywhere"
    );
    println!("\nAll three verdicts match the paper: only end-to-end atomic broadcast");
    println!("recovers the delivered-but-unprocessed transaction (refined uniform");
    println!("integrity allows the redelivery that classic integrity forbids).");
}
