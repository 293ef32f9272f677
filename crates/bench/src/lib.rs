//! # groupsafe-bench — harnesses regenerating the paper's tables/figures
//!
//! The paper's claims that a run states — Tables 1–3, Fig. 5 and
//! Fig. 7, §6's durability cost, §7's risk against n and the §5.1
//! ablations — are the `claim/…` cells of the behavioural contract
//! ([`contract`]), run and witnessed by `contract --check`.
//!
//! Binaries:
//! * `table4` — the simulator parameters in use,
//! * `fig9` — response time vs load for the three techniques (plus
//!   `--batch`: batched vs unbatched group-safe curves),
//! * `batching` — abcast batch-size sweep under open-loop overload
//!   (asserts the ≥2× saturated-throughput claim),
//! * `scenario_fuzz` — seeded random fault scenarios through the
//!   per-level safety oracle (`--shards G` runs the sharded envelope
//!   with group-targeted faults and the cross-group atomicity digest),
//! * `sharding` — group-count × cross-group-ratio sweep (asserts that
//!   aggregate commit throughput grows monotonically with the group
//!   count at 0 % cross traffic),
//! * `reads` / `txn` — the follower-read and snapshot-transaction
//!   sweeps behind `BENCH_reads.json` / `BENCH_txn.json`,
//! * `obs_export` — the observability exporter and its golden check,
//! * `contract` — writes and checks the behavioural contract
//!   (`CONTRACT.txt`, see [`contract`]).
//!
//! Wall-clock cost is measured by the stand-alone `perf` package
//! (`crates/bench/perf`, see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod flags;
pub mod plot;

pub use flags::Flags;

use groupsafe_core::WorkloadSpec;

/// The ordering-bound workload the batching harnesses share (`batching`
/// and `fig9 --batch`): short write-only transactions over the Table 4
/// database, so the per-transaction abcast traffic — not the read
/// phase or the data path — saturates first. Keeping it in one place
/// keeps the two harnesses measuring the same regime.
pub fn ordering_bound_workload() -> WorkloadSpec {
    WorkloadSpec {
        n_items: 10_000,
        txn_len_min: 2,
        txn_len_max: 4,
        write_probability: 1.0,
        hot_access_fraction: 0.0,
        hot_set_fraction: 0.02,
        read_fraction: 0.0,
        ..WorkloadSpec::default()
    }
}

/// The read-bound workload the `reads` bench sweeps: short transactions
/// over a mostly-cached database, so the ordering pipeline — not the
/// data disks — is what a broadcast read pays and a local read skips.
/// The read fraction is the sweep's x-axis; callers override it.
pub fn read_bound_workload(read_fraction: f64) -> WorkloadSpec {
    WorkloadSpec {
        n_items: 10_000,
        txn_len_min: 3,
        txn_len_max: 6,
        write_probability: 1.0,
        hot_access_fraction: 0.0,
        hot_set_fraction: 0.02,
        read_fraction,
        ..WorkloadSpec::default()
    }
}
