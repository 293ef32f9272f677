//! The metric catalogue: every metric the benchmark emits, with its
//! unit, its clock, which way is better and — for end-to-end metrics —
//! the bound by which it may worsen before `--diff` calls it a
//! regression. `--check` holds this table against `BENCHMARK.json`.

use crate::stats;

/// Which clock a number belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What the modelled replicated database would do: exact for a seed.
    Sim,
    /// What the simulator costs to run on this host: noisy.
    Wall,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// `Some((relative, absolute))`: the metric has regressed once it is
    /// worse than the old value by more than `relative × old` and by more
    /// than `absolute`. `None`: a per-layer metric, reported without a
    /// verdict.
    pub bound: Option<(f64, f64)>,
    /// Listed under `end_to_end` in `BENCHMARK.json`: every workload can
    /// produce it and it is never zero. The other bounded metrics exist
    /// on some workloads only, so the contract files them under
    /// `per_layer`.
    pub contract_e2e: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    relative: f64,
    absolute: f64,
    contract_e2e: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better,
        bound: Some((relative, absolute)),
        contract_e2e,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better: higher,
        bound: None,
        contract_e2e: false,
    }
}

use Clock::{Sim, Wall};

/// Every metric, end-to-end first. Bounds are a few times the spread of
/// ten runs with ten seeds at the seed commit (`benchmark/README.md`).
pub const CATALOGUE: &[MetricDef] = &[
    e2e("update_p50_ms", "ms", Sim, false, 0.10, 0.0, true),
    e2e("update_p99_ms", "ms", Sim, false, 0.15, 0.0, true),
    e2e("knee_tps", "tps", Sim, true, 0.17, 0.0, true),
    e2e("wall_us_per_commit", "us", Wall, false, 0.20, 0.0, true),
    e2e("setup_s", "s", Wall, false, 0.25, 0.002, true),
    e2e("peak_rss_mb", "MB", Wall, false, 0.05, 0.0, true),
    e2e("read_p50_ms", "ms", Sim, false, 0.10, 0.0, false),
    e2e("read_p99_ms", "ms", Sim, false, 0.15, 0.0, false),
    e2e("abort_rate", "ratio", Sim, false, 0.05, 0.002, false),
    e2e("failed_share", "ratio", Sim, false, 0.0, 0.001, false),
    e2e("unavail_ms", "ms", Sim, false, 0.10, 0.0, false),
    e2e("recovery_ms", "ms", Sim, false, 0.10, 0.0, false),
    // sim: the event kernel.
    layer("sim.events_per_commit", "count", Sim, false),
    layer("sim.wall_ns_per_event", "ns", Wall, false),
    layer("sim.sim_s_per_wall_s", "ratio", Wall, true),
    layer("sim.kernel_wall_ns_per_event", "ns", Wall, false),
    layer("sim.obs_records_per_commit", "count", Sim, false),
    layer("sim.obs_overhead_ratio", "ratio", Wall, false),
    // net: the simulated LAN.
    layer("net.deliveries_per_commit", "count", Sim, false),
    layer("net.transmissions_per_commit", "count", Sim, false),
    layer("net.frames_per_commit", "count", Sim, false),
    layer("net.dropped_share", "ratio", Sim, false),
    layer("net.wall_ns_per_delivery", "ns", Wall, false),
    // gcs: atomic broadcast, views, recovery.
    layer("gcs.broadcasts_per_commit", "count", Sim, false),
    layer("gcs.persists_per_delivery", "count", Sim, false),
    layer("gcs.votes_per_delivery", "count", Sim, false),
    layer("gcs.mean_batch_size", "count", Sim, true),
    layer("gcs.view_changes", "count", Sim, false),
    layer("gcs.redelivered", "count", Sim, false),
    layer("gcs.demotions", "count", Sim, false),
    layer("gcs.abcast_ms_p50", "ms", Sim, false),
    layer("gcs.events_per_delivery", "count", Sim, false),
    layer("gcs.wall_ns_per_delivery", "ns", Wall, false),
    // db: the local database engine.
    layer("db.reads_per_commit", "count", Sim, false),
    layer("db.read_miss_ratio", "ratio", Sim, false),
    layer("db.wal_flushes_per_commit", "count", Sim, false),
    layer("db.wal_records_per_flush", "count", Sim, true),
    layer("db.page_flushes", "count", Sim, false),
    layer("db.mvcc_retained", "count", Sim, false),
    layer("db.mvcc_evictions", "count", Sim, false),
    layer("db.deadlocks", "count", Sim, false),
    layer("db.wall_ns_per_read", "ns", Wall, false),
    layer("db.wall_ns_per_versioned_read", "ns", Wall, false),
    layer("db.wall_ns_per_commit", "ns", Wall, false),
    layer("db.wall_ns_per_prune", "ns", Wall, false),
    layer("db.cpu_util_est", "ratio", Sim, false),
    layer("db.data_disk_util_est", "ratio", Sim, false),
    layer("db.log_disk_util_est", "ratio", Sim, false),
    // core: the replication technique.
    layer("core.submit_ms", "ms", Sim, false),
    layer("core.exec_ms", "ms", Sim, false),
    layer("core.commit_ms", "ms", Sim, false),
    layer("core.reply_ms", "ms", Sim, false),
    layer("core.update_mean_ms.lazy", "ms", Sim, false),
    layer("core.update_mean_ms.group_safe", "ms", Sim, false),
    layer("core.update_mean_ms.group_1_safe", "ms", Sim, false),
    layer("core.update_mean_ms.two_safe", "ms", Sim, false),
    layer("core.commit_ms.group_safe", "ms", Sim, false),
    layer("core.commit_ms.group_1_safe", "ms", Sim, false),
    layer("core.commit_ms.two_safe", "ms", Sim, false),
    layer("core.commit_per_attempt", "ratio", Sim, true),
    layer("core.cert_aborts_per_commit", "ratio", Sim, false),
    layer("core.deadlock_aborts_per_commit", "ratio", Sim, false),
    layer("core.snapshot_too_old", "count", Sim, false),
    layer("core.client_timeouts", "count", Sim, false),
    layer("core.read_redirects_per_read", "ratio", Sim, false),
    layer("core.read_parked_per_read", "ratio", Sim, false),
    layer("core.read_staleness_seqs", "count", Sim, false),
    layer("core.xg_share", "ratio", Sim, false),
    layer("core.xg_round_timeouts", "count", Sim, false),
    layer("core.xg_probes_per_xg", "ratio", Sim, false),
    layer("core.state_transfers", "count", Sim, false),
    layer("core.server_recoveries", "count", Sim, false),
    layer("core.build_wall_ms", "ms", Wall, false),
    layer("core.finish_wall_ms", "ms", Wall, false),
    layer("core.audit_wall_ms", "ms", Wall, false),
    layer("core.certify_wall_ns", "ns", Wall, false),
    layer("core.wall_residual_share", "ratio", Wall, false),
    // workload: the transaction generator.
    layer("workload.wall_ns_per_plan", "ns", Wall, false),
    layer("workload.ops_per_txn", "count", Sim, false),
    // bench: harness health.
    layer("bench.calib_ns_per_iter", "ns", Wall, false),
    layer("bench.passes_rerun", "count", Wall, false),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// One measured metric: the value the benchmark stands behind, plus the
/// quartiles of the repetitions it is the median of (equal to the value
/// for a simulated-clock metric, which is exact).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Repetitions (wall) or samples (latencies) behind the value.
    pub n: usize,
    /// A remark printed beside the value (the percentile actually used,
    /// the seeds behind a median, ...).
    pub note: String,
}

impl Measured {
    /// An exact value.
    pub fn exact(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            value,
            q1: value,
            q3: value,
            n: 1,
            note: String::new(),
        }
    }

    /// The median of repeated measurements, with their quartiles.
    pub fn of_reps(name: &'static str, reps: &[f64]) -> Measured {
        let (q1, med, q3) = stats::quartiles(reps);
        Measured {
            name,
            value: med,
            q1,
            q3,
            n: reps.len(),
            note: String::new(),
        }
    }

    pub fn with_n(mut self, n: usize) -> Measured {
        self.n = n;
        self
    }

    pub fn noted(mut self, note: impl Into<String>) -> Measured {
        self.note = note.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        for (i, d) in CATALOGUE.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                CATALOGUE[..i].iter().all(|e| e.name != d.name),
                "{}",
                d.name
            );
            assert!(!d.contract_e2e || d.bound.is_some());
        }
        assert!(CATALOGUE.iter().filter(|d| d.bound.is_none()).count() <= 128);
    }
}
