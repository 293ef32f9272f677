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
//! 1000 tps — and does the same; two run the paper's Table 4 system and
//! hold its peak live heap per acknowledged transaction and its
//! allocations per dispatched event to one each; one holds a
//! histogram's first quantile to no allocation at all; and one pins the
//! width of the messages the kernel stores.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use groupsafe::core::{
    BatchConfig, CoreMsg, Load, ReadLevel, ReadPath, SafetyLevel, System, WorkloadSpec,
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
/// the value measured when the budget was set, 176 bytes (8 539 068
/// bytes over 48 535 transactions, debug and release alike), plus 10 %.
/// While a local read's acknowledgement was a 16-byte record beside an
/// 8-byte index word and every response time a kept sample, 211 bytes
/// were needed here (10 217 668), which fails it; while the oracle kept
/// every served read and every read acknowledgement for a replay after
/// the run, 365 (17 729 372); while the oracle kept two vectors per
/// commit and the first latency quantile copied every sample, 400
/// (19 424 804); while every endpoint's sequence log kept each entry
/// for the whole run and the report copied the latency samples twice,
/// 444 (21 545 700); the layout before the oracle's tables were indexed
/// by id — B-trees of acknowledgements and commits, a vector per served
/// read, a completion set per client — needed 583.
const BUDGET_BYTES_PER_ACK: f64 = 194.0;

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
/// 1 987 bytes (7 724 360 bytes over 3 888 transactions, debug and
/// release alike), plus 10 %. While every engine kept an empty version
/// chain per item without the version store, the oracle's index took 8
/// bytes per id and every response time was a kept sample, 2 569 bytes
/// were needed here (9 989 152), which fails it; while the oracle kept
/// two vectors per commit and the WAL a 24-byte copy of each write,
/// 2 840 (11 043 488); while every endpoint's sequence log kept each
/// entry for the whole run, 3 759 (14 616 768); while every replica's
/// WAL also kept each record, 5 087 (19 779 248).
const TABLE4_BUDGET_BYTES_PER_ACK: f64 = 2185.0;

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
/// was set, 962 bytes (29 718 816 bytes over 30 878 transactions, debug
/// and release alike), plus 10 %. While every engine kept an empty
/// version chain per item, the oracle's index took 8 bytes per id and
/// every response time was a kept sample, 1 058 bytes were needed here
/// (32 663 144), just inside it; while the WAL stored each write as a
/// 24-byte record with its own version and the oracle kept two vectors
/// per commit, 1 404 (43 365 016), which fails it.
const ORDERING_BUDGET_BYTES_PER_ACK: f64 = 1059.0;

#[test]
fn ordering_peak_heap_per_acknowledged_transaction_stays_in_budget() {
    // The `ordering` benchmark workload's system at its reference rate:
    // short blind writes, so the write-ahead logs' non-durable tails and
    // the oracle's write sets are most of what the run keeps.
    let run = System::builder()
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
        .measure(SimDuration::from_secs(30))
        .drain(SimDuration::from_secs(2))
        .seed(42);

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

/// Heap allocations per dispatched event this test allows on the Table 4
/// system: the value measured when the budget was set, 0.1078 (76 777
/// allocations over 712 114 events, debug and release alike), plus 10 %.
/// While the oracle copied each commit's readset and writes into two
/// vectors of their own it measured 0.1124 (80 072 allocations), both
/// before and after the sequence log began freeing what the whole group
/// has delivered; 0.112 (79 694) before that. With a boxed `dyn Any` per
/// event and a boxed record per fan-out, the kernel needed about 0.35
/// here, and fails it.
const BUDGET_ALLOCS_PER_EVENT: f64 = 0.119;

#[test]
fn table4_heap_allocations_per_dispatched_event_stay_in_budget() {
    // The paper's Table 4 system at 30 tps, as the `table4` benchmark
    // workload runs it, counted over one minute after a 5 s warm-up.
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
    let events_before = run.system().engine.dispatched();
    let allocs_before = ALLOCS.with(Cell::get);
    run.run_until(from + window);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let events = run.system().engine.dispatched() - events_before;

    assert!(events > 500_000, "{events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BUDGET_ALLOCS_PER_EVENT,
        "{allocs} heap allocations over {events} dispatched events = {per_event:.4} each, \
         budget {BUDGET_ALLOCS_PER_EVENT}"
    );
    assert_eq!(run.system().engine.metrics().counter("misrouted"), 0);
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
    assert_eq!(h.samples(), &sorted[..]);
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
