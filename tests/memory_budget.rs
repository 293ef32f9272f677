//! Memory budgets for a long run, measured without a shim.
//!
//! Everything the run oracle and the clients keep grows with the number
//! of transactions, so the heap a run needs is, past a fixed cost, a
//! per-transaction figure; and every heap allocation on the dispatch
//! path is paid once per event, so the allocator traffic of a run is a
//! per-event figure. This file's global allocator wraps the system
//! allocator and counts live and peak bytes and allocations in
//! thread-local counters: only the thread running a test counts,
//! whatever else the test harness does. One test runs a `readmix`-shaped
//! system — 3 servers × 6 clients, 90 % session follower reads beside
//! snapshot-isolation writes, open load — and holds its peak live heap
//! per acknowledged transaction to a pinned budget; one runs an
//! `ordering`-shaped system — 9 servers, blind writes of 2–4 items at
//! 1000 tps — and does the same; one runs a `shardfault`-shaped system
//! through its fault plan and the scenario audit and does the same; two
//! run the paper's Table 4 system and hold its peak live heap per
//! acknowledged transaction and its allocations per dispatched event to
//! one each; one holds what `Run::finish` allocates above the live heap
//! to one constant, after 20 and after 60 simulated seconds of the
//! `ordering` shape; one holds a histogram's first quantile to no
//! allocation at all; and one pins the width of the messages the kernel
//! stores.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use groupsafe::core::scenario::{audit_scenario, ScenarioPlan};
use groupsafe::core::{
    BatchConfig, CoreMsg, Load, ReadLevel, ReadPath, Report, SafetyLevel, System, SystemBuilder,
    WorkloadSpec,
};
use groupsafe::db::{BufferModel, DbConfig};
use groupsafe::gcs::harness::HostMsg;
use groupsafe::sim::{Engine, Histogram, ObsConfig, SimDuration, SimTime};

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Move this thread's live count by `delta` and raise its peak.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Count one fresh allocation of `size` bytes on this thread.
fn count_alloc(size: usize) {
    count(size as isize);
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters touch only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract,
        // which is the system allocator's.
        let ptr = unsafe { Heap.alloc(layout) };
        if !ptr.is_null() {
            count_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { Heap.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from the system
        // allocator, with this `layout`.
        unsafe { Heap.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` meets `realloc`'s contract
        // by the caller's.
        let moved = unsafe { Heap.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Peak live heap bytes per acknowledged transaction this test allows:
/// the value measured when the budget was last set, 68 bytes (3 298 112
/// bytes over 48 535 transactions, debug and release alike), plus 10 %.
/// While its engines ran on the `Sync` base, whose WAL never became
/// durable, 71 bytes were needed here (3 452 816), which passes it:
/// that is what was measured when the budget was set before, at 78.
/// While the oracle's transaction tables indexed every id of a client's
/// counter at 4 bytes each, stored or not (nine in ten of them are
/// local reads, never stored), 77 bytes were needed here (3 751 344),
/// which fails it: that is what was left, once each replica group kept
/// one redo image and a histogram its samples in fixed blocks, of the
/// 80 bytes (3 889 256) measured when the budget was set before that,
/// at 88.
/// While every endpoint's duplicate table kept each ordered id for the
/// whole run, 83 bytes were needed here (4 004 312), which fails it
/// (it was just inside 88); while every engine kept a version chain buffer for each item it had
/// ever written, 147 bytes were needed here (7 155 344), which fails it;
/// while every replica also kept its own copy of its group's WAL
/// records, 165 (8 030 656); when the budget was set before that, 167
/// (8 090 176). While the lost-update audit
/// stored every candidate, `Run::finish` copied each phase's samples and
/// the SI log kept two vectors per transaction, 176 bytes were needed
/// here (8 539 068), which fails it; while a local read's
/// acknowledgement was a 16-byte record beside an 8-byte index word and
/// every response time a kept sample, 211 bytes were needed here
/// (10 217 668), which fails it; while the oracle kept every served read
/// and every read acknowledgement for a replay after the run, 365
/// (17 729 372); while the oracle kept two vectors per commit and the
/// first latency quantile copied every sample, 400 (19 424 804); while
/// every endpoint's sequence log kept each entry for the whole run and
/// the report copied the latency samples twice, 444 (21 545 700); the
/// layout before the oracle's tables were indexed by id — B-trees of
/// acknowledgements and commits, a vector per served read, a completion
/// set per client — needed 583.
const BUDGET_BYTES_PER_ACK: f64 = 75.0;

#[test]
fn readmix_peak_heap_per_acknowledged_transaction_stays_in_budget() {
    let run = System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(3)
        .clients_per_server(6)
        .observe(ObsConfig::disabled())
        .read_path(ReadPath::Local(ReadLevel::Session))
        .workload(WorkloadSpec {
            n_items: 10_000,
            txn_len_min: 3,
            txn_len_max: 6,
            write_probability: 1.0,
            hot_access_fraction: 0.0,
            read_fraction: 0.9,
            ..WorkloadSpec::default()
        })
        .txn_fraction(0.5)
        .txn_ops(3, 6)
        .db(DbConfig {
            buffer: BufferModel::Probabilistic { hit_ratio: 0.95 },
            mvcc_depth: 64,
            ..DbConfig::default()
        })
        .load(Load::open_tps(400.0))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs(120))
        .drain(SimDuration::from_secs(2))
        .seed(42);

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = run.build().expect("a valid configuration").execute();
    let peak = PEAK.with(Cell::get) - base;

    assert!(report.is_safe_and_convergent(), "{report}");
    assert!(report.acked > 10_000, "{report}");
    let per_ack = peak as f64 / report.acked as f64;
    assert!(
        per_ack <= BUDGET_BYTES_PER_ACK,
        "peak live heap {peak} bytes over {} acknowledged transactions = {per_ack:.0} \
         bytes each, budget {BUDGET_BYTES_PER_ACK}",
        report.acked
    );
}

/// Peak live heap bytes per acknowledged transaction this test allows
/// on the Table 4 system: the value measured when the budget was set,
/// 1 283 bytes (4 989 472 bytes over 3 888 transactions, debug and
/// release alike), plus 10 %. While every replica folded its group's WAL
/// records into a redo image of its own — nine images of one durable
/// prefix — 1 655 bytes were needed here (6 433 248), which fails it.
/// While every endpoint's duplicate table
/// kept each ordered id for the whole run, 1 711 bytes were needed here
/// (6 652 920), just inside it; while every replica kept its own copy of
/// its group's WAL records, 1 826 bytes were needed here (7 097 640),
/// which fails it; when the budget was set before that, 1 834
/// (7 129 504). While the lost-update audit stored every candidate,
/// 1 987 bytes were needed here (7 724 360), which fails it; while every
/// engine kept an empty version chain per item without the version
/// store, the oracle's index took 8 bytes per id and every response
/// time was a kept sample, 2 569 bytes were needed here (9 989 152),
/// which fails it; while the oracle kept two vectors per commit and the
/// WAL a 24-byte copy of each write, 2 840 (11 043 488); while every
/// endpoint's sequence log kept each entry for the whole run, 3 759
/// (14 616 768); while every replica's WAL also kept each record, 5 087
/// (19 779 248).
const TABLE4_BUDGET_BYTES_PER_ACK: f64 = 1412.0;

#[test]
fn table4_peak_heap_per_acknowledged_transaction_stays_in_budget() {
    // The `table4` benchmark workload's system at its reference rate.
    let run = System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(9)
        .clients_per_server(4)
        .batching(BatchConfig::unbatched())
        .workload(WorkloadSpec::table4())
        .read_path(ReadPath::Classic)
        .client_timeout(SimDuration::from_secs(5))
        .observe(ObsConfig::disabled())
        .load(Load::open_tps(30.0))
        .warmup(SimDuration::from_secs(5))
        .measure(SimDuration::from_secs(120))
        .drain(SimDuration::from_secs(5))
        .seed(42);

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = run.build().expect("a valid configuration").execute();
    let peak = PEAK.with(Cell::get) - base;

    assert!(report.is_safe_and_convergent(), "{report}");
    assert!(report.acked > 3_000, "{report}");
    let per_ack = peak as f64 / report.acked as f64;
    assert!(
        per_ack <= TABLE4_BUDGET_BYTES_PER_ACK,
        "peak live heap {peak} bytes over {} acknowledged transactions = {per_ack:.0} \
         bytes each, budget {TABLE4_BUDGET_BYTES_PER_ACK}",
        report.acked
    );
}

/// Peak live heap bytes per acknowledged transaction this test allows
/// on an `ordering`-shaped system: the value measured when the budget
/// was set, 332 bytes (10 237 760 bytes over 30 878 transactions, debug
/// and release alike), plus 10 %. While every replica folded its
/// group's WAL records into a redo image of its own, 379 bytes were
/// needed here (11 698 816), which fails it. While every endpoint's
/// duplicate table kept each ordered id for the whole run — nine tables
/// of every id — 455 bytes were needed here (14 040 904), which fails it; while
/// every replica kept its own copy
/// of its group's WAL records — nine copies of one non-durable tail —
/// 900 bytes were needed here (27 778 816), which fails it; when the
/// budget was set before that, 903 (27 894 488). While the lost-update
/// audit stored every candidate — every write here, since the read phase
/// records the version each write overwrites — 962 bytes were needed here
/// (29 718 816), which fails it; while every engine kept an empty
/// version chain per item, the oracle's index took 8 bytes per id and
/// every response time was a kept sample, 1 058 bytes were needed here
/// (32 663 144), which fails it; while the WAL stored each write as a
/// 24-byte record with its own version and the oracle kept two vectors
/// per commit, 1 404 (43 365 016), which fails it.
const ORDERING_BUDGET_BYTES_PER_ACK: f64 = 365.0;

#[test]
fn ordering_peak_heap_per_acknowledged_transaction_stays_in_budget() {
    // The `ordering` benchmark workload's system at its reference rate:
    // short blind writes, so the write-ahead logs' non-durable tails and
    // the oracle's write sets are most of what the run keeps.
    let run = ordering_shaped(SimDuration::from_secs(30));

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = run.build().expect("a valid configuration").execute();
    let peak = PEAK.with(Cell::get) - base;

    assert!(report.is_safe_and_convergent(), "{report}");
    assert!(report.acked > 25_000, "{report}");
    let per_ack = peak as f64 / report.acked as f64;
    assert!(
        per_ack <= ORDERING_BUDGET_BYTES_PER_ACK,
        "peak live heap {peak} bytes over {} acknowledged transactions = {per_ack:.0} \
         bytes each, budget {ORDERING_BUDGET_BYTES_PER_ACK}",
        report.acked
    );
}

/// The `ordering`-shaped system, measuring for `measure`.
fn ordering_shaped(measure: SimDuration) -> SystemBuilder {
    System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(9)
        .clients_per_server(4)
        .batching(BatchConfig::unbatched())
        .workload(WorkloadSpec {
            n_items: 10_000,
            txn_len_min: 2,
            txn_len_max: 4,
            write_probability: 1.0,
            hot_access_fraction: 0.0,
            read_fraction: 0.0,
            ..WorkloadSpec::default()
        })
        .read_path(ReadPath::Classic)
        .observe(ObsConfig::disabled())
        .load(Load::open_tps(1000.0))
        .warmup(SimDuration::from_secs(1))
        .measure(measure)
        .drain(SimDuration::from_secs(2))
        .seed(42)
}

/// Run the lifecycle `Run::execute` runs, with its phase marks, up to
/// `Run::finish`, and return the live heap when `finish` starts, its
/// peak above that, and the report.
fn finish_overhead(
    builder: SystemBuilder,
    warmup: SimDuration,
    measure: SimDuration,
    drain: SimDuration,
) -> (isize, isize, Report) {
    let mut run = builder.build().expect("a valid configuration");
    let measure_start = SimTime::ZERO + warmup;
    let measure_end = measure_start + measure;
    run.run_until(measure_start);
    run.mark_phase("measure");
    run.run_until(measure_end);
    run.mark_phase("drain");
    run.stop_clients_at(measure_end);
    run.run_until(measure_end + drain);
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    let report = run.finish();
    (live, PEAK.with(Cell::get) - live, report)
}

/// Heap bytes `Run::finish` may hold above the live heap it starts
/// with, whatever the length of the run: the larger of the two values
/// measured when the budget was set, plus 10 % — 232 896 bytes after
/// 20 simulated seconds of the `ordering` shape and 316 480 after 60
/// (debug and release alike). Nearly all of it is the lost-update
/// audit, whose bitmaps stop growing at 128 KiB each and whose stored
/// candidates are the ones another candidate's hash hit. While the
/// audit stored every candidate, 24 bytes each, and the phase
/// statistics copied their samples, `finish` needed 1 515 296 and
/// 4 397 768 bytes here, growing with the run; with the bitmaps sized
/// to the whole run, 232 896 and 633 504.
const FINISH_BYTES_ABOVE_LIVE: isize = 348_128;

#[test]
fn run_finish_peak_above_live_stays_constant_as_the_run_grows() {
    let (warmup, drain) = (SimDuration::from_secs(1), SimDuration::from_secs(2));
    for secs in [20, 60] {
        let measure = SimDuration::from_secs(secs);
        let (live, above, report) =
            finish_overhead(ordering_shaped(measure), warmup, measure, drain);
        assert!(report.is_safe_and_convergent(), "{report}");
        assert!(report.acked > 900 * secs as usize, "{report}");
        assert!(
            above <= FINISH_BYTES_ABOVE_LIVE,
            "after {secs} s, Run::finish peaked {above} bytes above the {live} live when it \
             started, budget {FINISH_BYTES_ABOVE_LIVE}"
        );
    }
}

/// Heap allocations per acknowledged transaction this test allows on the
/// Table 4 system: 76 777 allocations were measured over the window when
/// the budget was set, plus 10 % (84 455), over the window's 2 005
/// acknowledged transactions. It was first set per dispatched event, at
/// 0.1078 (76 777 over 712 114 events) plus 10 %; once idle heartbeats
/// and ticks stopped being dispatched the window held 211 723 events for
/// 76 776 allocations (76 769 before), so the same allowance is now
/// counted per transaction, a unit the kernel's event count does not
/// move. While the
/// oracle copied each commit's readset and writes into two vectors of
/// their own it measured 80 072 allocations, both before and after the
/// sequence log began freeing what the whole group has delivered; 79 694
/// before that. With a boxed `dyn Any` per event and a boxed record per
/// fan-out, the kernel needed about 0.35 allocations per event of the
/// 712 114, and fails it; so does any new allocation per dispatched
/// event.
const BUDGET_ALLOCS_PER_ACK: f64 = 84_455.0 / 2_005.0;

#[test]
fn table4_heap_allocations_per_acknowledged_transaction_stay_in_budget() {
    // The paper's Table 4 system at 30 tps, as the `table4` benchmark
    // workload runs it, counted over its one-minute measurement window
    // after a 5 s warm-up.
    let warmup = SimDuration::from_secs(5);
    let window = SimDuration::from_secs(60);
    let mut run = System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(9)
        .clients_per_server(4)
        .batching(BatchConfig::unbatched())
        .workload(WorkloadSpec::table4())
        .read_path(ReadPath::Classic)
        .client_timeout(SimDuration::from_secs(5))
        .observe(ObsConfig::disabled())
        .load(Load::open_tps(30.0))
        .warmup(warmup)
        .measure(window)
        .seed(42)
        .build()
        .expect("a valid configuration");
    run.start();
    let from = SimTime::ZERO + warmup;
    run.run_until(from);
    let allocs_before = ALLOCS.with(Cell::get);
    run.run_until(from + window);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    assert_eq!(run.system().engine.metrics().counter("misrouted"), 0);
    let acked = run.finish().acked;

    assert!(acked > 1_900, "{acked} acknowledged");
    let per_ack = allocs as f64 / acked as f64;
    assert!(
        per_ack <= BUDGET_ALLOCS_PER_ACK,
        "{allocs} heap allocations over {acked} acknowledged transactions = {per_ack:.2} \
         each, budget {BUDGET_ALLOCS_PER_ACK:.2}"
    );
}

/// The first quantile of a histogram sorts its samples where they are:
/// the report asks for its latency quantiles when every log is at its
/// largest, so a copy of the samples or a sort's scratch buffer would
/// land on the run's peak. Copying the samples out to sort them, as the
/// first query once did, allocated a second buffer of the same capacity
/// and a stable sort's scratch, and fails this.
#[test]
fn a_histograms_first_quantile_allocates_nothing() {
    let mut h = Histogram::new();
    for i in 0..10_000u32 {
        h.record(f64::from(i.wrapping_mul(7919) % 10_007));
    }
    let before = ALLOCS.with(Cell::get);
    let median = h.quantile(0.5);
    assert_eq!(
        ALLOCS.with(Cell::get) - before,
        0,
        "the first query allocated"
    );
    let mut sorted: Vec<f64> = (0..10_000u32)
        .map(|i| f64::from(i.wrapping_mul(7919) % 10_007))
        .collect();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(median, sorted[4_999]);
    // Each block is sorted where it lies; together they hold the samples.
    let mut held: Vec<f64> = h.samples().collect();
    held.sort_by(f64::total_cmp);
    assert_eq!(held, sorted);
}

/// A pending event is one message and two words in the kernel's slab: a
/// system's enum stays three words wide, so its slot stays 32 bytes, by
/// boxing what is larger than two words beside its tag.
#[test]
fn message_enums_fit_the_kernel_slot() {
    assert_eq!(std::mem::size_of::<CoreMsg>(), 24);
    assert_eq!(Engine::<CoreMsg>::SLOT_BYTES, 32);
    assert_eq!(std::mem::size_of::<HostMsg>(), 24);
    assert_eq!(Engine::<HostMsg>::SLOT_BYTES, 32);
}

/// The pinned `shardfault` fault plan: group 0 loses its sequencer for
/// 2 s, server 4 crashes for 3 s, one member of group 2 is partitioned
/// away for 2 s.
fn shardfault_plan() -> ScenarioPlan {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    ScenarioPlan::new()
        .kill_sequencer_in(at(4), 0, Some(SimDuration::from_secs(2)))
        .crash_for(at(8), 4, SimDuration::from_secs(3))
        .partition_group(at(12), 2, vec![2])
        .heal(at(14))
}

/// Peak live heap bytes per acknowledged transaction this test allows
/// on a `shardfault`-shaped system — four groups of three, 2000 tps of
/// short writes, 5 % of them cross-group, through the pinned fault
/// plan — counting `audit_scenario` and `Run::finish` as `perf` runs
/// them: the value measured when the budget was set, 415 bytes
/// (16 523 556 bytes over 39 779 transactions, debug and release alike,
/// reached before the audit), plus 10 %. While every replica folded its
/// group's WAL records into a redo image of its own, 444 bytes were
/// needed here (17 673 820), just inside it. While every endpoint's
/// duplicate table kept each ordered id for the whole run, 471 bytes
/// were needed here (18 747 396), just inside it; while every replica
/// kept its
/// own copy of its group's WAL records and a deep copy of every
/// cross-group decision it delivered, 571 bytes were needed here
/// (22 718 924), which fails it; when the budget was set before that,
/// 575 (22 876 436). While the scenario audit built a set of every
/// committed write to check the snapshot reads — of which this run has
/// none — its peak came inside the audit, at 639 bytes (25 432 292),
/// which fails it.
const SHARDFAULT_BUDGET_BYTES_PER_ACK: f64 = 457.0;

#[test]
fn shardfault_peak_heap_per_acknowledged_transaction_stays_in_budget() {
    let (warmup, measure, drain) = (
        SimDuration::from_secs(1),
        SimDuration::from_secs(19),
        SimDuration::from_secs(4),
    );
    let run = System::builder()
        .safety(SafetyLevel::GroupSafe)
        .servers(3)
        .shards(4)
        .clients_per_server(4)
        .batching(BatchConfig::unbatched())
        .workload(WorkloadSpec {
            n_items: 10_000,
            txn_len_min: 2,
            txn_len_max: 4,
            write_probability: 1.0,
            hot_access_fraction: 0.0,
            hot_set_fraction: 0.02,
            read_fraction: 0.0,
            ..WorkloadSpec::default()
        })
        .read_path(ReadPath::Classic)
        .cross_shard_fraction(0.05)
        .client_timeout(SimDuration::from_secs(2))
        .observe(ObsConfig::disabled())
        .load(Load::open_tps(2000.0))
        .warmup(warmup)
        .measure(measure)
        .drain(drain)
        .seed(42)
        .scenario(shardfault_plan());

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let mut run = run.build().expect("a valid configuration");
    let measure_end = SimTime::ZERO + warmup + measure;
    run.run_until(measure_end);
    run.stop_clients_at(measure_end);
    let mut end = measure_end + drain;
    run.run_until(end);
    let cap = end + SimDuration::from_secs(30);
    while (run.system().convergence().len() > 1
        || run.system().delivery_backlog() > 0
        || run.system().xg_unresolved() > 0)
        && end < cap
    {
        end += SimDuration::from_secs(1);
        run.run_until(end);
    }
    let before_audit = PEAK.with(Cell::get) - base;
    let audit = audit_scenario(&shardfault_plan(), run.system(), SafetyLevel::GroupSafe);
    assert!(audit.clean() && audit.quiescent, "{:?}", audit.violations);
    let report = run.finish();
    let peak = PEAK.with(Cell::get) - base;

    assert!(report.is_safe_and_convergent(), "{report}");
    assert!(report.acked > 35_000, "{report}");
    let per_ack = peak as f64 / report.acked as f64;
    assert!(
        per_ack <= SHARDFAULT_BUDGET_BYTES_PER_ACK,
        "peak live heap {peak} bytes ({before_audit} before the audit) over {} acknowledged \
         transactions = {per_ack:.0} bytes each, budget {SHARDFAULT_BUDGET_BYTES_PER_ACK}",
        report.acked
    );
}
