//! Ablations of the design decisions EXPERIMENTS.md records (the "§5.1
//! ablations" row and "Substitutions and extensions"), at one
//! moderate load point (28 tps, Table 4 configuration, 20 s windows):
//!
//! 1. write caching (sequential-batch discount) on/off — §5.1's "writes of
//!    adjacent pages … scheduled together";
//! 2. uniform vs non-uniform delivery — what the group-safety guarantee
//!    itself costs;
//! 3. hotspot on/off — the contention calibration;
//! 4. probabilistic vs real-LRU buffer — Table 4's 20 % hit model.
//!
//! Each variant is one builder chain off a shared base.

use groupsafe_core::{Load, Report, SafetyLevel, System, SystemBuilder, WorkloadSpec};
use groupsafe_db::{BufferModel, DbConfig, FlushPolicy};
use groupsafe_sim::SimDuration;

fn base() -> SystemBuilder {
    System::builder()
        .safety(SafetyLevel::GroupSafe)
        .load(Load::closed_tps(28.0))
        // The historical harness condition: failover only after 5 s.
        .client_timeout(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(5))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(3))
        .seed(13)
}

fn execute(builder: SystemBuilder) -> Report {
    builder.build().expect("a valid configuration").execute()
}

fn main() {
    println!("ablations at 28 tps (group-safe unless noted):\n");
    println!(
        "{:<44} {:>9} {:>9} {:>8}",
        "variant", "mean ms", "p95 ms", "abort%"
    );
    let show = |label: &str, r: &Report| {
        println!(
            "{label:<44} {:>9.1} {:>9.1} {:>7.1}%",
            r.mean_ms,
            r.p95_ms,
            r.abort_rate * 100.0
        );
    };

    // 1. Write caching.
    let cached = execute(base());
    let uncached = execute(base().disk_sequential_factor(1.0));
    show("write caching ON (sequential batches, 0.3x)", &cached);
    show("write caching OFF (every page random)", &uncached);
    assert!(
        cached.mean_ms < uncached.mean_ms,
        "write caching must pay for itself (the disk-write asynchrony is \
         what group-safety buys, §5.1)"
    );

    // 2. Uniform vs non-uniform delivery.
    let zero = execute(base().safety(SafetyLevel::ZeroSafe));
    show("\nuniform delivery (group-safe)".trim_start(), &cached);
    show("non-uniform delivery (0-safe)", &zero);
    assert!(
        zero.mean_ms <= cached.mean_ms + 2.0,
        "dropping uniformity must not be slower"
    );

    // 3. Contention.
    let uniform_items = execute(base().workload(WorkloadSpec {
        hot_access_fraction: 0.0,
        ..WorkloadSpec::table4()
    }));
    show("\nhotspot 15%/2% (default)".trim_start(), &cached);
    show("uniform access (no hotspot)", &uniform_items);
    assert!(
        uniform_items.abort_rate < cached.abort_rate,
        "the hotspot must be what drives the abort rate"
    );

    // 4. Buffer model.
    let lru = execute(base().db(DbConfig {
        // 200 pages of 10 items = 2 000 of 10 000 items cached: the
        // emergent hit ratio is workload-dependent instead of fixed.
        buffer: BufferModel::Lru { capacity: 200 },
        // The replica server orchestrates all flushing per safety level;
        // the engine must never flush inside `commit`.
        flush_policy: FlushPolicy::Async,
        ..DbConfig::default()
    }));
    show(
        "\nbuffer: probabilistic 20% (Table 4)".trim_start(),
        &cached,
    );
    show("buffer: real LRU, 200 pages", &lru);

    println!("\nall ablation expectations hold.");
}
