//! A memory budget for a long run's evidence, measured without a shim.
//!
//! Everything the run oracle and the clients keep grows with the number
//! of transactions, so the heap a run needs is, past a fixed cost, a
//! per-transaction figure. This file's global allocator wraps the
//! system allocator and counts live and peak bytes in thread-local
//! counters: only the thread running the test counts, whatever else the
//! test harness does. The single test runs a `readmix`-shaped system —
//! 3 servers × 6 clients, 90 % session follower reads beside
//! snapshot-isolation writes, open load — and holds its peak live heap
//! per acknowledged transaction to a pinned budget.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use groupsafe::core::{Load, ReadLevel, ReadPath, SafetyLevel, System, WorkloadSpec};
use groupsafe::db::{BufferModel, DbConfig};
use groupsafe::sim::{ObsConfig, SimDuration};

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Move this thread's live count by `delta` and raise its peak.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
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
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { Heap.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
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
/// the value measured when the budget was set, 444 bytes (21 541 220
/// bytes over 48 535 transactions, debug and release alike), plus 10 %.
/// The layout before the oracle's tables were indexed by id — B-trees
/// of acknowledgements and commits, a vector per served read, a
/// completion set per client — needed 583 bytes here, and fails it.
const BUDGET_BYTES_PER_ACK: f64 = 488.0;

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
