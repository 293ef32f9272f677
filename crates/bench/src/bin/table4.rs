//! Table 4 reproduction: the simulator parameters actually in use —
//! printed in the paper's layout, read from the system a default
//! `System::builder()` wires and from the defaults it starts from.

use groupsafe_bench::Flags;
use groupsafe_core::{ReplicaConfig, System, WorkloadSpec, DISKS_PER_SERVER};
use groupsafe_db::BufferModel;
use groupsafe_net::{NetConfig, NET_CPU};
use groupsafe_sim::DiskConfig;

fn main() {
    // It takes no flags: any argument is an error.
    Flags::parse(&[], &[]);
    let run = System::builder()
        .build()
        .expect("the default configuration is valid");
    let system = run.system();
    let db = system.server(0).db().config();
    let disk = DiskConfig::default();
    let w = WorkloadSpec::table4();
    let buffer = match db.buffer {
        BufferModel::Probabilistic { hit_ratio } => format!("{:.0}%", hit_ratio * 100.0),
        BufferModel::Lru { capacity } => format!("LRU, {capacity} pages"),
    };
    let io = format!("{} - {} ms", disk.min_ms, disk.max_ms);
    let rows: [(&str, String); 13] = [
        ("Number of items in the database", db.n_items.to_string()),
        ("Number of Servers", system.n_servers.to_string()),
        (
            "Number of Clients per Server",
            (system.clients.len() / system.servers.len()).to_string(),
        ),
        ("Disks per Server", DISKS_PER_SERVER.to_string()),
        ("CPUs per Server", ReplicaConfig::default().cpus.to_string()),
        (
            "Transaction Length",
            format!("{} - {} Operations", w.txn_len_min, w.txn_len_max),
        ),
        (
            "Probability that an operation is a write",
            format!("{:.0}%", w.write_probability * 100.0),
        ),
        ("Buffer hit ratio", buffer),
        ("Time for a read", io.clone()),
        ("Time for a write", io),
        (
            "CPU Time used for an I/O operation",
            format!("{} ms", db.cpu_per_io.as_millis_f64()),
        ),
        (
            "Time for a message or a broadcast on the Network",
            format!("{} ms", NetConfig::default().latency.as_millis_f64()),
        ),
        (
            "CPU time for a network operation",
            format!("{} ms", NET_CPU.as_millis_f64()),
        ),
    ];
    println!("Table 4 — simulator parameters:\n");
    for (k, v) in rows {
        println!("{k:<50} {v}");
    }
    println!("\nExtensions beyond Table 4 (EXPERIMENTS.md, \"Substitutions and extensions\"):");
    println!(
        "{:<50} {:.0}% of accesses to {:.0}% of items",
        "Hotspot (abort-rate calibration)",
        w.hot_access_fraction * 100.0,
        w.hot_set_fraction * 100.0
    );
}
