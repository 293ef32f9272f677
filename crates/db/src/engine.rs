//! The local database engine: executes operations with simulated timing,
//! enforces ACID locally, and recovers from its WAL after crashes.
//!
//! The engine is passive: methods take the current instant and return
//! completion instants computed against the server's shared resources
//! (CPU, log disk, data disk); the owning server actor schedules its
//! continuations at those instants. State changes are applied eagerly at
//! call time (the standard simulator simplification; the interleaving
//! semantics are governed by the caller's concurrency control).
//!
//! The per-transaction state is indexed, not searched: the committed-
//! transaction table is a [`TxnSet`] (a bitmap over each client's own
//! counter) and a commit's writes are copied straight into the flat
//! [`Wal`], so committing allocates nothing per transaction.

#![expect(
    clippy::indexing_slicing,
    reason = "items is sized to n_items at construction and indexed by ItemId::index(); the workload generator only draws item ids < n_items (construction invariant of the run)"
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;

use groupsafe_sim::{Disk, Fcfs, Fnv64, SimDuration, SimTime};

use crate::buffer::{BufferModel, BufferPool};
use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::txnset::TxnSet;
use crate::types::{ItemId, ItemState, TxnId, Value, Version, WriteOp};
use crate::versions::VersionStore;
use crate::wal::{Lsn, Wal, WalKind, WalRecord};

/// CPU time per disk I/O (Table 4: 0.4 ms).
pub const CPU_PER_IO: SimDuration = SimDuration::from_micros(400);

/// CPU time per logical operation served from the buffer (Table 4's
/// 50 µs).
pub const CPU_PER_OP: SimDuration = SimDuration::from_micros(50);

/// Engine configuration (defaults follow Table 4). When the log is
/// written is not part of it: the host forces it per safety level
/// through [`DbEngine::flush_wal`] and [`DbEngine::flush_wal_sync`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Number of items in the database (Table 4: 10 000).
    pub n_items: u32,
    /// Buffer model (Table 4: probabilistic, 20 % hits).
    pub buffer: BufferModel,
    /// Target retained versions per item in the multi-version store
    /// backing snapshot reads (0 disables version retention — the
    /// engine then keeps only the committed head, the seed behavior).
    /// Versions below the pruning watermark are dropped down to the
    /// newest one at or below it, so a snapshot at the watermark stays
    /// servable. The cap only trims entries strictly *below* that
    /// floor: retention is effectively `max(watermark need, depth cap)`,
    /// so a burst of writes under a lagging watermark grows the chain
    /// past the cap instead of evicting a still-pinned floor (which
    /// would force spurious snapshot-too-old aborts).
    pub mvcc_depth: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            n_items: 10_000,
            buffer: BufferModel::Probabilistic { hit_ratio: 0.2 },
            mvcc_depth: 0,
        }
    }
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Read operations served.
    pub reads: u64,
    /// Reads that went to the data disk.
    pub read_misses: u64,
    /// Transactions committed (first time).
    pub commits: u64,
    /// Duplicate commit attempts suppressed (testable transactions).
    pub duplicate_commits: u64,
    /// Background page-flush batches.
    pub page_flushes: u64,
}

/// Result of a read: when it completes and what it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Completion instant (CPU + optional disk).
    pub done: SimTime,
    /// The committed value observed.
    pub value: Value,
    /// The committed version observed (certification input).
    pub version: Version,
}

/// Result of a commit application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitResult {
    /// Instant at which the commit is applied in memory. Its record is
    /// durable only once a flush covering it completes.
    pub done: SimTime,
    /// The commit was a duplicate (already committed — testable
    /// transactions make this a no-op).
    pub duplicate: bool,
}

/// The local database engine.
pub struct DbEngine {
    config: DbConfig,
    cpu: Rc<RefCell<Fcfs>>,
    data_disk: Rc<RefCell<Disk>>,
    rng: StdRng,

    // Volatile (rebuilt by redo on recovery).
    items: Vec<ItemState>,
    committed: TxnSet,
    buffer: BufferPool,
    locks: LockManager,
    dirty_pages: usize,
    stats: DbStats,
    /// Items reserved by in-flight cross-group transactions between their
    /// certification vote and the coordinator's decision (item →
    /// (holder, coordinator node)). Certification state, like
    /// `committed`: it travels with checkpoints so a state-transferred
    /// joiner reaches the same verdicts as its peers, and under the
    /// logging safety levels it is additionally WAL-durable
    /// ([`WalKind::Reserve`]/[`WalKind::Release`]) so crash recovery
    /// redoes it; it is *not* part of [`DbEngine::state_digest`] (a
    /// quiesced system has released every reservation).
    reservations: BTreeMap<ItemId, (TxnId, u32)>,
    /// Bounded multi-version store backing snapshot reads: the retained
    /// versions of the items written since the group-stable watermark,
    /// in recycled chain buffers behind a 4-byte index per item.
    /// Allocates nothing when `config.mvcc_depth == 0`; pruned at the
    /// watermark by [`DbEngine::prune_versions`].
    versions: VersionStore,

    // Stable: the log, whose store keeps the redo image.
    wal: Wal,
}

/// A full application checkpoint (state transfer payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbCheckpoint {
    /// All item states.
    pub items: Vec<ItemState>,
    /// Committed transaction ids (testable-transaction table).
    pub committed: TxnSet,
    /// In-flight cross-group reservations (item → (holder, coordinator)).
    pub reservations: BTreeMap<ItemId, (TxnId, u32)>,
}

impl DbCheckpoint {
    /// The empty database of `n_items` items.
    pub(crate) fn empty(n_items: usize) -> Self {
        DbCheckpoint {
            items: vec![ItemState::default(); n_items],
            committed: TxnSet::new(),
            reservations: BTreeMap::new(),
        }
    }

    /// Redo one record, in LSN (= processing) order: commits apply
    /// writes and drop the transaction's reservations; reserve/release
    /// records rebuild the reservation table exactly as the pre-crash
    /// processing left its durable prefix.
    pub(crate) fn redo(&mut self, rec: &WalRecord<'_>) {
        match rec.kind {
            WalKind::Commit => {
                for w in rec.writes() {
                    self.items[w.item.index()] = ItemState {
                        value: w.value,
                        version: w.version,
                    };
                }
                self.committed.insert(rec.txn);
                self.reservations.retain(|_, &mut (t, _)| t != rec.txn);
            }
            WalKind::Reserve { coordinator } => {
                for i in rec.items() {
                    self.reservations.insert(i, (rec.txn, coordinator));
                }
            }
            WalKind::Release => {
                self.reservations.retain(|_, &mut (t, _)| t != rec.txn);
            }
        }
    }
}

impl DbEngine {
    /// Create an engine over the given shared resources.
    pub fn new(
        config: DbConfig,
        cpu: Rc<RefCell<Fcfs>>,
        log_disk: Rc<RefCell<Disk>>,
        data_disk: Rc<RefCell<Disk>>,
        rng: StdRng,
    ) -> Self {
        let buffer = BufferPool::new(config.buffer.clone());
        DbEngine {
            items: vec![ItemState::default(); config.n_items as usize],
            committed: TxnSet::new(),
            buffer,
            locks: LockManager::new(),
            dirty_pages: 0,
            stats: DbStats::default(),
            reservations: BTreeMap::new(),
            versions: VersionStore::new(config.n_items as usize, config.mvcc_depth),
            wal: Wal::new(log_disk, config.n_items as usize),
            config,
            cpu,
            data_disk,
            rng,
        }
    }

    /// Share `group`'s WAL store: the replicas of one group append the
    /// same records, and the store keeps one copy of each and one redo
    /// image (see [`Wal::join`]). Nothing either engine observes
    /// changes.
    ///
    /// # Panics
    ///
    /// If either engine has logged anything: engines join before that.
    pub fn join_wal(&mut self, group: &DbEngine) {
        self.wal.join(&group.wal);
    }

    /// The write-ahead log (inspection: its cursors and its store).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The configuration in use.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Current committed state of `item`.
    pub fn item(&self, item: ItemId) -> ItemState {
        self.items[item.index()]
    }

    /// True if `txn` already committed here (testable transactions).
    pub fn is_committed(&self, txn: TxnId) -> bool {
        self.committed.contains(txn)
    }

    /// The lock manager (2PL paths: local execution, lazy technique).
    pub fn locks(&mut self) -> &mut LockManager {
        &mut self.locks
    }

    /// The first of `items` reserved by a transaction other than `txn`
    /// (a cross-group transaction between its certification vote and its
    /// coordinator's decision), if any. Re-certifying the holder itself
    /// is not a conflict — a client retry of the same transaction
    /// re-prepares.
    pub fn reserved_conflict(
        &self,
        txn: TxnId,
        items: impl IntoIterator<Item = ItemId>,
    ) -> Option<ItemId> {
        items
            .into_iter()
            .find(|i| self.reservations.get(i).is_some_and(|&(t, _)| t != txn))
    }

    /// Reserve `items` for `txn`, decided by `coordinator` (certify-
    /// then-block phase of a cross-group commit). The caller must have
    /// checked [`DbEngine::reserved_conflict`] first; re-reserving for
    /// the same holder is idempotent.
    pub fn reserve(
        &mut self,
        txn: TxnId,
        coordinator: u32,
        items: impl IntoIterator<Item = ItemId>,
    ) {
        for i in items {
            self.reservations.insert(i, (txn, coordinator));
        }
    }

    /// Drop every reservation held by `txn` (the coordinator's decision
    /// arrived — commit or abort). Idempotent.
    pub fn release(&mut self, txn: TxnId) {
        self.reservations.retain(|_, &mut (t, _)| t != txn);
    }

    /// True if `txn` currently reserves any item (cheap hot-path check;
    /// see [`DbEngine::reservation_holders`] for the full listing).
    pub fn holds_reservation(&self, txn: TxnId) -> bool {
        self.reservations.values().any(|&(t, _)| t == txn)
    }

    /// The distinct `(transaction, coordinator)` pairs currently holding
    /// reservations — what a recovered replica must resume probing for.
    pub fn reservation_holders(&self) -> Vec<(TxnId, u32)> {
        let mut out: Vec<(TxnId, u32)> = self.reservations.values().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Drop every reservation (operator restart after a total group
    /// failure: the in-flight cross-group transactions died with the
    /// coordinator history and will be resubmitted by their clients).
    pub fn clear_reservations(&mut self) {
        self.reservations.clear();
    }

    /// Apply `txn`'s reservation of `items` and append the WAL record
    /// that redoes it (the logging safety levels' cross-group prepare:
    /// the end-to-end `ack(m)` must wait for the record's durability,
    /// else a crash would silently unwind this replica's certification
    /// state while its peers keep theirs). The record rides the normal
    /// background group-commit flush — nothing in the protocol waits on
    /// it except the ack. Returns the record's LSN.
    pub fn reserve_logged(&mut self, txn: TxnId, coordinator: u32, items: &[ItemId]) -> Lsn {
        self.reserve(txn, coordinator, items.iter().copied());
        self.wal.append_reserve(txn, coordinator, items)
    }

    /// Release `txn`'s reservations and append the WAL record that
    /// redoes it (a cross-group abort under a logging level). Returns
    /// the record's LSN.
    pub fn release_logged(&mut self, txn: TxnId) -> Lsn {
        self.release(txn);
        self.wal.append_release(txn)
    }

    /// Read `item` at `now`: returns value, version and completion time
    /// (buffer hit: CPU only; miss: CPU + data-disk access, plus a
    /// write-back if a dirty page was evicted).
    pub fn read(&mut self, now: SimTime, item: ItemId) -> ReadResult {
        self.stats.reads += 1;
        let access = self.buffer.access(item, &mut self.rng);
        let done = if access.hit {
            self.cpu.borrow_mut().request(now, CPU_PER_OP)
        } else {
            self.stats.read_misses += 1;
            let cpu_done = self.cpu.borrow_mut().request(now, CPU_PER_IO);
            let mut disk = self.data_disk.borrow_mut();
            let mut t = cpu_done;
            if access.writeback {
                t = disk.access(t, &mut self.rng);
            }
            disk.access(t, &mut self.rng)
        };
        let s = self.items[item.index()];
        ReadResult {
            done,
            value: s.value,
            version: s.version,
        }
    }

    /// Read `item` at `now` from the snapshot at or below version
    /// `limit`: same simulated timing as [`DbEngine::read`], but the
    /// value and version come from the multi-version store ([`DbConfig::
    /// mvcc_depth`]). With `limit == u64::MAX` (or the store disabled)
    /// this is exactly a committed-head read.
    pub fn read_versioned(&mut self, now: SimTime, item: ItemId, limit: Version) -> ReadResult {
        let head = self.read(now, item);
        if limit == Version::MAX || self.config.mvcc_depth == 0 || head.version <= limit {
            return head;
        }
        let s = self.version_at(item, limit);
        ReadResult {
            done: head.done,
            value: s.value,
            version: s.version,
        }
    }

    /// The state of `item` in the snapshot at or below version `limit`:
    /// the newest retained version `≤ limit`, the never-written default
    /// when the item has no retained version that old, or — for a
    /// snapshot below everything retained — the oldest version still
    /// retained (bounded-staleness fallback).
    pub fn version_at(&self, item: ItemId, limit: Version) -> ItemState {
        self.versions
            .version_at(item, limit, self.items[item.index()])
    }

    /// Drop retained versions below the newest one at or below `stable`
    /// (the group-stable watermark): snapshots at or above the watermark
    /// stay servable, everything older is unreachable by construction.
    ///
    /// Visits only the chains still held, and none at all while `stable`
    /// is below every chain's second-oldest version (the usual case
    /// between two advances of the watermark).
    pub fn prune_versions(&mut self, stable: Version) {
        self.versions.prune(stable);
    }

    /// Retained versions across all items (inspection/test helper).
    pub fn mvcc_retained(&self) -> usize {
        self.versions.retained()
    }

    /// Entries the depth cap trimmed below the pruning floor.
    pub fn mvcc_evictions(&self) -> u64 {
        self.versions.evictions()
    }

    /// Apply and commit `writes` for `txn` at `now`.
    ///
    /// Exactly-once: a duplicate commit is detected via the committed-
    /// transaction table and applies nothing. The record is appended to
    /// the log and waits for the host's next flush ([`DbEngine::flush_wal`]
    /// or [`DbEngine::flush_wal_sync`]); `done` only covers the in-memory
    /// apply.
    ///
    /// Every write of one commit must carry the same version — the
    /// delivery sequence number, or the origin timestamp under lazy
    /// replication: the log stores one version per record (debug-asserted).
    pub fn commit(&mut self, now: SimTime, txn: TxnId, writes: &[WriteOp]) -> CommitResult {
        debug_assert!(
            writes
                .iter()
                .all(|w| writes.first().is_some_and(|f| f.version == w.version)),
            "the writes of one commit carry one version"
        );
        if !self.committed.insert(txn) {
            self.stats.duplicate_commits += 1;
            return CommitResult {
                done: now,
                duplicate: true,
            };
        }
        self.stats.commits += 1;
        // Apply to the committed in-memory state and dirty the pages.
        let cpu_time = CPU_PER_OP * writes.len().max(1) as u64;
        let cpu_done = self.cpu.borrow_mut().request(now, cpu_time);
        for w in writes {
            let state = ItemState {
                value: w.value,
                version: w.version,
            };
            let old = std::mem::replace(&mut self.items[w.item.index()], state);
            self.buffer.mark_dirty(w.item);
            self.versions.retain(w.item, old, state);
        }
        self.dirty_pages += writes.len();
        self.wal.append_commit(txn, writes);
        CommitResult {
            done: cpu_done,
            duplicate: false,
        }
    }

    /// Apply `writes` only where newer than the current version (Thomas
    /// write rule — the lazy technique's reconciliation-free apply).
    /// Returns the writes actually applied.
    pub fn apply_newer(&mut self, now: SimTime, txn: TxnId, writes: &[WriteOp]) -> CommitResult {
        let newer: Vec<WriteOp> = writes
            .iter()
            .copied()
            .filter(|w| w.version > self.items[w.item.index()].version)
            .collect();
        self.commit(now, txn, &newer)
    }

    /// Background WAL flush (group commit; the host drives it on a timer).
    /// Returns `(completion, covered_lsn)` when a batch was started.
    pub fn flush_wal(&mut self, now: SimTime) -> Option<(SimTime, Lsn)> {
        self.wal.flush(now, &mut self.rng)
    }

    /// Synchronous critical-path WAL flush: unbatched random writes (see
    /// [`Wal::flush_unbatched`]). Used by techniques that must log before
    /// replying (1-safe, group-1-safe, 2-safe).
    pub fn flush_wal_sync(&mut self, now: SimTime) -> Option<(SimTime, Lsn)> {
        self.wal.flush_unbatched(now, &mut self.rng)
    }

    /// Apply `writes` to the in-memory committed state *without logging*
    /// (lazy replication's remote apply: 1-safe durability lives only in
    /// the delegate's log; a crashed remote re-synchronises from peers).
    /// Applies the Thomas write rule and testable-transaction dedup.
    pub fn apply_unlogged(&mut self, now: SimTime, txn: TxnId, writes: &[WriteOp]) -> CommitResult {
        if !self.committed.insert(txn) {
            self.stats.duplicate_commits += 1;
            return CommitResult {
                done: now,
                duplicate: true,
            };
        }
        self.stats.commits += 1;
        let cpu_time = CPU_PER_OP * writes.len().max(1) as u64;
        let cpu_done = self.cpu.borrow_mut().request(now, cpu_time);
        for w in writes {
            let old = self.items[w.item.index()];
            if w.version > old.version {
                let state = ItemState {
                    value: w.value,
                    version: w.version,
                };
                self.items[w.item.index()] = state;
                self.buffer.mark_dirty(w.item);
                self.dirty_pages += 1;
                self.versions.retain(w.item, old, state);
            }
        }
        CommitResult {
            done: cpu_done,
            duplicate: false,
        }
    }

    /// A WAL flush completed: records below `lsn` are durable. Once the
    /// durable records not yet taken fill a block of WAL headers, the
    /// WAL takes them, and its store folds them into its redo image and
    /// frees them once every member has: the store frees whole blocks,
    /// so taking fewer would free nothing, and a short run (or a
    /// warm-up) folds nothing at all.
    pub fn wal_mark_durable(&mut self, lsn: Lsn) {
        self.wal.mark_durable(lsn);
        if self.wal.durable_block_ready() {
            self.fold_durable();
        }
    }

    /// Hand every durable record the WAL still holds to redo: its
    /// store folds it into the redo image once every member has taken
    /// it.
    fn fold_durable(&mut self) {
        self.wal.take_durable();
    }

    /// True when WAL records wait that no flush covers yet (see
    /// [`Wal::has_unflushed`](crate::wal::Wal::has_unflushed)).
    pub fn wal_has_unflushed(&self) -> bool {
        self.wal.has_unflushed()
    }

    /// LSN after the last appended record.
    pub fn wal_end_lsn(&self) -> Lsn {
        self.wal.end_lsn()
    }

    /// LSN after the last durable record.
    pub fn wal_durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// Install `pages` dirty pages synchronously (inside the transaction
    /// boundary — what group-1-safe pays and group-safety avoids, §5.1).
    /// The pages go out as one per-transaction sequential batch and no
    /// longer wait for the background flush.
    pub fn sync_install(&mut self, now: SimTime, pages: usize) -> SimTime {
        if pages == 0 {
            return now;
        }
        let done = self
            .data_disk
            .borrow_mut()
            .sequential_batch(now, pages, &mut self.rng);
        self.dirty_pages = self.dirty_pages.saturating_sub(pages);
        done
    }

    /// Background data-page flush: write all dirtied pages as one
    /// sequential batch (write caching — what group-safety permits).
    /// Returns the completion instant if anything was dirty.
    pub fn flush_pages(&mut self, now: SimTime) -> Option<SimTime> {
        if self.dirty_pages == 0 {
            return None;
        }
        self.stats.page_flushes += 1;
        let done =
            self.data_disk
                .borrow_mut()
                .sequential_batch(now, self.dirty_pages, &mut self.rng);
        self.dirty_pages = 0;
        self.buffer.flush_all();
        Some(done)
    }

    /// Take a checkpoint of the committed state (state-transfer payload).
    pub fn checkpoint(&self) -> DbCheckpoint {
        DbCheckpoint {
            items: self.items.clone(),
            committed: self.committed.clone(),
            reservations: self.reservations.clone(),
        }
    }

    /// Replace the committed state with `ckpt` (joining replica).
    pub fn install_checkpoint(&mut self, ckpt: DbCheckpoint) {
        assert_eq!(
            ckpt.items.len(),
            self.items.len(),
            "checkpoint shape mismatch"
        );
        self.items = ckpt.items;
        self.committed = ckpt.committed;
        self.reservations = ckpt.reservations;
        // The checkpoint replaces the committed state, not the log: the
        // WAL drops its non-durable tail but keeps its durable prefix,
        // and its store the image of it. So a crash after an install
        // redoes the pre-install durable log and loses the checkpoint's
        // state. Resetting the log to the checkpoint would change what
        // that crash recovers.
        self.wal.crash();
        self.dirty_pages = 0;
        self.versions.reseed();
    }

    /// Crash: volatile state is lost. The committed state becomes what
    /// redoing the durable WAL prefix from the empty database yields:
    /// the WAL takes its last durable records and leaves for a store of
    /// its own ([`Wal::crash`]), whose redo image — the fold its group's
    /// store kept as flushes completed, carried up to this replica's
    /// taken point — is copied in ([`Wal::recover_into`]). History is
    /// never replayed.
    pub fn crash(&mut self) {
        self.fold_durable();
        self.wal.crash();
        self.buffer.clear();
        self.locks.clear();
        self.dirty_pages = 0;
        let mut state = DbCheckpoint {
            items: std::mem::take(&mut self.items),
            committed: std::mem::take(&mut self.committed),
            reservations: std::mem::take(&mut self.reservations),
        };
        self.wal.recover_into(&mut state);
        DbCheckpoint {
            items: self.items,
            committed: self.committed,
            reservations: self.reservations,
        } = state;
        self.versions.reseed();
    }

    /// Highest committed version in the database (the sequence-number
    /// watermark used when restarting a group after total failure).
    pub fn max_version(&self) -> Version {
        self.items.iter().map(|s| s.version).max().unwrap_or(0)
    }

    /// FNV-1a digest of the committed state (replica-consistency checks).
    #[deny(clippy::float_arithmetic)]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (i, s) in self.items.iter().enumerate() {
            if s.version != 0 {
                h.mix(i as u64);
                h.mix(s.value as u64);
                h.mix(s.version);
            }
        }
        h.finish()
    }

    /// Convenience for tests: acquire a lock.
    pub fn lock(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> LockOutcome {
        self.locks.acquire(txn, item, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn engine() -> DbEngine {
        let cfg = DbConfig {
            n_items: 100,
            ..DbConfig::default()
        };
        DbEngine::new(
            cfg,
            Rc::new(RefCell::new(Fcfs::new(2))),
            Rc::new(RefCell::new(Disk::paper_default())),
            Rc::new(RefCell::new(Disk::paper_default())),
            StdRng::seed_from_u64(7),
        )
    }

    fn t(seq: u64) -> TxnId {
        TxnId { client: 0, seq }
    }

    fn w(item: u32, value: i64, version: u64) -> WriteOp {
        WriteOp {
            item: ItemId(item),
            value,
            version,
        }
    }

    #[test]
    fn read_timing_hit_vs_miss() {
        let mut e = engine();
        let mut hits = 0;
        let mut misses = 0;
        for i in 0..200u32 {
            let r = e.read(SimTime::from_secs(i as u64), ItemId(i % 100));
            let elapsed = r.done - SimTime::from_secs(i as u64);
            if elapsed < SimDuration::from_millis(1) {
                hits += 1;
            } else {
                assert!(elapsed >= SimDuration::from_millis(4));
                misses += 1;
            }
        }
        assert!(hits > 10, "some hits expected, got {hits}");
        assert!(misses > 100, "80% misses expected, got {misses}");
        assert_eq!(e.stats().reads, 200);
        assert_eq!(e.stats().read_misses, misses);
    }

    #[test]
    fn commit_applies_and_sync_flushes() {
        let mut e = engine();
        let res = e.commit(SimTime::ZERO, t(1), &[w(5, 42, 1)]);
        assert!(!res.duplicate);
        let (flush_done, lsn) = e.flush_wal(res.done).expect("the commit record flushes");
        assert!(flush_done >= SimTime::from_millis(4), "log write ≈ 8 ms");
        e.wal_mark_durable(lsn);
        assert_eq!(
            e.item(ItemId(5)),
            ItemState {
                value: 42,
                version: 1
            }
        );
        assert!(e.is_committed(t(1)));
        assert_eq!(e.wal_durable_lsn(), 1);
    }

    #[test]
    fn async_commit_returns_fast_and_flushes_later() {
        let mut e = engine();
        let res = e.commit(SimTime::ZERO, t(1), &[w(5, 42, 1)]);
        assert!(res.done < SimTime::from_millis(1), "no disk wait");
        assert_eq!(e.wal_durable_lsn(), 0);
        let (done, lsn) = e
            .flush_wal(SimTime::from_millis(10))
            .expect("background flush");
        assert!(done > SimTime::from_millis(10));
        e.wal_mark_durable(lsn);
        assert!(e.wal_durable_lsn() == 1);
    }

    #[test]
    fn duplicate_commit_is_noop() {
        let mut e = engine();
        e.commit(SimTime::ZERO, t(1), &[w(5, 42, 1)]);
        let res = e.commit(SimTime::from_millis(50), t(1), &[w(5, 99, 2)]);
        assert!(res.duplicate);
        assert_eq!(e.item(ItemId(5)).value, 42, "duplicate must not re-apply");
        assert_eq!(e.stats().duplicate_commits, 1);
    }

    #[test]
    fn crash_recovers_durable_prefix_only() {
        let mut e = engine();
        let r1 = e.commit(SimTime::ZERO, t(1), &[w(1, 10, 1)]);
        let (_, lsn) = e.flush_wal(r1.done).expect("flush");
        e.wal_mark_durable(lsn);
        // Second commit: appended, flush started, but the completion event
        // never fires (we never call wal_mark_durable).
        let r2 = e.commit(SimTime::from_millis(20), t(2), &[w(2, 20, 2)]);
        e.flush_wal(r2.done).expect("flush");
        // t(2)'s flush was started but never completed (no
        // mark_durable call) — the crash drops it.
        e.crash();
        assert_eq!(e.item(ItemId(1)).value, 10, "durable commit survived");
        assert_eq!(e.item(ItemId(2)).value, 0, "unflushed commit lost");
        assert!(e.is_committed(t(1)));
        assert!(!e.is_committed(t(2)));
    }

    /// Today's behaviour, pinned: an install replaces the committed
    /// state but not the log, so a crash after it redoes the local
    /// durable log and the checkpoint's state is lost.
    #[test]
    fn a_crash_after_an_install_redoes_the_pre_install_log() {
        let mut e = engine();
        let r = e.commit(SimTime::ZERO, t(1), &[w(1, 10, 1)]);
        let (_, lsn) = e.flush_wal(r.done).expect("flush");
        e.wal_mark_durable(lsn);
        let mut donor = engine();
        donor.commit(SimTime::ZERO, t(2), &[w(2, 20, 2)]);
        e.install_checkpoint(donor.checkpoint());
        assert_eq!((e.item(ItemId(1)).value, e.item(ItemId(2)).value), (0, 20));
        e.crash();
        assert_eq!((e.item(ItemId(1)).value, e.item(ItemId(2)).value), (10, 0));
        assert!(e.is_committed(t(1)) && !e.is_committed(t(2)));
        assert_eq!(e.max_version(), 1);
    }

    /// A log record as the reference replay reads it.
    #[derive(Debug, Clone)]
    enum Logged {
        Commit(TxnId, Vec<WriteOp>),
        Reserve(TxnId, u32, Vec<ItemId>),
        Release(TxnId),
    }

    /// What a crash recovered before the engine kept a redo image: a
    /// replay of the durable log from the empty database. The reference
    /// the image is held to.
    fn replay_from_empty(
        n_items: usize,
        durable: &[Logged],
    ) -> (Vec<ItemState>, TxnSet, BTreeMap<ItemId, (TxnId, u32)>) {
        let mut items = vec![ItemState::default(); n_items];
        let mut committed = TxnSet::new();
        let mut reservations = BTreeMap::new();
        for rec in durable {
            match rec {
                Logged::Commit(txn, writes) => {
                    for w in writes {
                        items[w.item.index()] = ItemState {
                            value: w.value,
                            version: w.version,
                        };
                    }
                    committed.insert(*txn);
                    reservations.retain(|_, &mut (t, _): &mut (TxnId, u32)| t != *txn);
                }
                Logged::Reserve(txn, coordinator, reserved) => {
                    for &i in reserved {
                        reservations.insert(i, (*txn, *coordinator));
                    }
                }
                Logged::Release(txn) => reservations.retain(|_, &mut (t, _)| t != *txn),
            }
        }
        (items, committed, reservations)
    }

    /// The operations of one case: an opcode, an item or client, and a
    /// transaction number or count.
    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u32, u64)>> {
        proptest::collection::vec((0u8..11, 0u32..8, 0u64..6), 1..120)
    }

    /// Run `ops` against an engine and hold each crash's recovery to a
    /// replay of the durable log from the empty database.
    fn check(ops: Vec<(u8, u32, u64)>) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut e = engine();
        let mut log: Vec<Logged> = Vec::new();
        let mut durable = 0;
        let mut covered: Vec<Lsn> = Vec::new();
        let mut saved: Option<DbCheckpoint> = None;
        let mut fresh = 0;
        for (i, (op, a, b)) in ops.into_iter().enumerate() {
            // A small id space, so that commits repeat: duplicates,
            // and recommits of transactions a crash lost.
            let txn = TxnId {
                client: a % 2,
                seq: b,
            };
            let now = SimTime::from_millis(i as u64);
            match op {
                0..=2 => {
                    let writes: Vec<WriteOp> = (0..b as u32 % 4)
                        .map(|k| w(a * 10 + k, i as i64, i as u64))
                        .collect();
                    let res = e.commit(now, txn, &writes);
                    if !res.duplicate {
                        log.push(Logged::Commit(txn, writes));
                    }
                }
                3 => {
                    let items = [ItemId(a), ItemId(a + 1 + b as u32)];
                    e.reserve_logged(txn, b as u32, &items);
                    log.push(Logged::Reserve(txn, b as u32, items.to_vec()));
                }
                4 => {
                    e.release_logged(txn);
                    log.push(Logged::Release(txn));
                }
                5 => covered.extend(e.flush_wal(now).map(|(_, lsn)| lsn)),
                6 => covered.extend(e.flush_wal_sync(now).map(|(_, lsn)| lsn)),
                7 => {
                    // Complete a started flush, in any order, or one
                    // that a crash has since overtaken.
                    if !covered.is_empty() {
                        let lsn = covered.swap_remove(a as usize % covered.len());
                        e.wal_mark_durable(lsn);
                        durable = durable.max(lsn as usize).min(log.len());
                    }
                }
                8 => {
                    e.crash();
                    log.truncate(durable);
                    let (items, committed, reservations) = replay_from_empty(100, &log);
                    proptest::prop_assert_eq!(&e.items, &items);
                    proptest::prop_assert_eq!(&e.committed, &committed);
                    proptest::prop_assert_eq!(&e.reservations, &reservations);
                }
                9 => {
                    // A burst of fresh commits, so that durable
                    // blocks fill and fold before a crash; an odd `b`
                    // flushes after each commit, many small flushes.
                    for _ in 0..100 * (b + 1) {
                        fresh += 1;
                        let txn = TxnId {
                            client: 2,
                            seq: fresh,
                        };
                        let writes = [w(a * 10 + fresh as u32 % 10, i as i64, fresh)];
                        let res = e.commit(now, txn, &writes);
                        log.push(Logged::Commit(txn, writes.to_vec()));
                        if b % 2 == 1 {
                            covered.extend(e.flush_wal(res.done).map(|(_, lsn)| lsn));
                        }
                    }
                }
                _ => {
                    if b % 2 == 0 {
                        saved = Some(e.checkpoint());
                    } else if let Some(ckpt) = saved.clone() {
                        e.install_checkpoint(ckpt);
                        log.truncate(durable);
                    }
                }
            }
            proptest::prop_assert_eq!(e.wal_end_lsn(), log.len() as Lsn);
            proptest::prop_assert_eq!(e.wal_durable_lsn(), durable as Lsn);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Whatever commits, reservations, releases, flushes of both
        /// sorts, out-of-order flush completions, crashes and checkpoint
        /// installs come before it, a crash recovers exactly what a
        /// replay of the durable log from the empty database recovers.
        #[test]
        fn the_redo_image_is_a_replay_of_the_durable_prefix(ops in ops()) {
            check(ops)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1_000))]

        /// The same comparison over more cases (CI's bench job runs it:
        /// `cargo test --release -p groupsafe-db --lib engine -- --ignored`).
        #[test]
        #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
        fn the_redo_image_is_a_replay_of_the_durable_prefix_heavy(ops in ops()) {
            check(ops)?;
        }
    }

    #[test]
    fn thomas_write_rule_skips_stale() {
        let mut e = engine();
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 5)]);
        e.apply_newer(SimTime::from_millis(1), t(2), &[w(1, 99, 3)]);
        assert_eq!(e.item(ItemId(1)).value, 10, "stale write skipped");
        e.apply_newer(SimTime::from_millis(2), t(3), &[w(1, 77, 9)]);
        assert_eq!(e.item(ItemId(1)).value, 77, "newer write applied");
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut e = engine();
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 1), w(2, 20, 1)]);
        let ckpt = e.checkpoint();
        let mut other = engine();
        other.install_checkpoint(ckpt);
        assert_eq!(other.item(ItemId(2)).value, 20);
        assert!(other.is_committed(t(1)));
        assert_eq!(e.state_digest(), other.state_digest());
    }

    #[test]
    fn page_flush_batches_dirty_pages() {
        let mut e = engine();
        e.commit(SimTime::ZERO, t(1), &[w(1, 1, 1), w(2, 2, 1), w(3, 3, 1)]);
        let done = e.flush_pages(SimTime::from_millis(5)).expect("dirty pages");
        assert!(done > SimTime::from_millis(5));
        assert!(
            e.flush_pages(SimTime::from_millis(50)).is_none(),
            "clean now"
        );
        assert_eq!(e.stats().page_flushes, 1);
    }

    fn mvcc_engine(depth: usize) -> DbEngine {
        let cfg = DbConfig {
            n_items: 100,
            mvcc_depth: depth,
            ..DbConfig::default()
        };
        DbEngine::new(
            cfg,
            Rc::new(RefCell::new(Fcfs::new(2))),
            Rc::new(RefCell::new(Disk::paper_default())),
            Rc::new(RefCell::new(Disk::paper_default())),
            StdRng::seed_from_u64(9),
        )
    }

    #[test]
    fn snapshot_reads_observe_older_versions() {
        let mut e = mvcc_engine(8);
        e.commit(SimTime::ZERO, t(1), &[w(3, 10, 2)]);
        e.commit(SimTime::ZERO, t(2), &[w(3, 20, 5)]);
        e.commit(SimTime::ZERO, t(3), &[w(3, 30, 9)]);
        // Head read.
        assert_eq!(e.version_at(ItemId(3), Version::MAX).value, 30);
        // Snapshots between versions resolve to the newest at-or-below.
        assert_eq!(e.version_at(ItemId(3), 9).value, 30);
        assert_eq!(e.version_at(ItemId(3), 8).value, 20);
        assert_eq!(e.version_at(ItemId(3), 4).value, 10);
        // Before the first write: the never-written default.
        assert_eq!(e.version_at(ItemId(3), 1).version, 0);
        // An untouched item serves the default at any snapshot.
        assert_eq!(e.version_at(ItemId(7), 3).version, 0);
        let r = e.read_versioned(SimTime::from_secs(1), ItemId(3), 8);
        assert_eq!((r.value, r.version), (20, 5));
    }

    #[test]
    fn pruning_keeps_the_snapshot_floor() {
        let mut e = mvcc_engine(8);
        for (i, seq) in [2u64, 5, 9, 12].iter().enumerate() {
            e.commit(
                SimTime::ZERO,
                t(i as u64 + 1),
                &[w(3, 10 * (i as i64 + 1), *seq)],
            );
        }
        e.prune_versions(9);
        // The floor (seq 9) and everything above survive...
        assert_eq!(e.version_at(ItemId(3), 9).value, 30);
        assert_eq!(e.version_at(ItemId(3), 11).value, 30);
        assert_eq!(e.version_at(ItemId(3), 12).value, 40);
        // ...and the watermark bounds retention.
        assert!(e.mvcc_retained() <= 2, "retained {}", e.mvcc_retained());
        // Pruning at the head collapses the chain entirely.
        e.prune_versions(12);
        assert_eq!(e.mvcc_retained(), 0);
        assert_eq!(e.version_at(ItemId(3), 12).value, 40);
    }

    #[test]
    fn depth_cap_defers_to_the_watermark() {
        let mut e = mvcc_engine(4);
        // A write burst with the watermark still at zero: nothing is
        // below the floor, so the cap must not evict anything and every
        // snapshot stays exactly servable.
        for seq in 1..=20u64 {
            e.commit(SimTime::ZERO, t(seq), &[w(1, seq as i64, seq)]);
        }
        assert_eq!(e.mvcc_evictions(), 0);
        for seq in 1..=20u64 {
            let s = e.version_at(ItemId(1), seq);
            assert_eq!((s.version, s.value), (seq, seq as i64));
        }
        // Once the watermark advances, pruning re-bounds the chain and
        // the floor snapshot is still exact.
        e.prune_versions(18);
        assert!(e.mvcc_retained() <= 4, "retained {}", e.mvcc_retained());
        assert_eq!(e.version_at(ItemId(1), 18).version, 18);
        // Below the new floor, snapshots degrade to the oldest retained
        // version (bounded-staleness fallback) instead of fabricating
        // the default.
        let oldest = e.version_at(ItemId(1), 1);
        assert_eq!(oldest.version, 18, "oldest retained {oldest:?}");
    }

    #[test]
    fn hot_key_under_lagging_watermark_keeps_its_floor() {
        let mut e = mvcc_engine(4);
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 3)]);
        // The group-stable watermark reaches 3, then stalls (e.g. a
        // lagging replica holds back group-stability)...
        e.prune_versions(3);
        // ...while a burst of writes on the same hot key runs far past
        // the depth cap.
        for seq in 4..=30u64 {
            e.commit(SimTime::ZERO, t(seq), &[w(1, seq as i64 * 10, seq)]);
        }
        // The pinned floor is still *exactly* servable — the cap did
        // not evict it out from under the watermark, so a follower
        // snapshot read at the watermark cannot spuriously abort.
        let floor = e.version_at(ItemId(1), 3);
        assert_eq!((floor.version, floor.value), (3, 10));
        let r = e.read_versioned(SimTime::from_secs(1), ItemId(1), 3);
        assert_eq!((r.version, r.value), (3, 10));
        // Intermediate snapshots above the floor are exact too.
        assert_eq!(e.version_at(ItemId(1), 17).version, 17);
        assert_eq!(e.mvcc_evictions(), 0);
        // The watermark catches up: pruning re-bounds the hot chain.
        e.prune_versions(28);
        assert!(e.mvcc_retained() <= 4, "retained {}", e.mvcc_retained());
        assert_eq!(e.version_at(ItemId(1), 28).version, 28);
        assert_eq!(e.version_at(ItemId(1), 30).version, 30);
    }

    #[test]
    fn mvcc_disabled_retains_nothing() {
        let mut e = mvcc_engine(0);
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 2)]);
        e.commit(SimTime::ZERO, t(2), &[w(1, 20, 5)]);
        assert_eq!(e.mvcc_retained(), 0);
        // version_at degrades to the committed head.
        assert_eq!(e.version_at(ItemId(1), 3).value, 20);
    }

    #[test]
    fn crash_and_checkpoint_reseed_versions() {
        let mut e = mvcc_engine(8);
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 2)]);
        e.commit(SimTime::ZERO, t(2), &[w(1, 20, 5)]);
        let ckpt = e.checkpoint();
        let mut other = mvcc_engine(8);
        other.install_checkpoint(ckpt);
        // The transferred state is one consistent snapshot: history
        // before it is unreachable, the head is served at any limit.
        assert_eq!(other.mvcc_retained(), 0);
        assert_eq!(other.version_at(ItemId(1), 5).value, 20);
        other.commit(SimTime::ZERO, t(3), &[w(1, 30, 9)]);
        assert_eq!(other.version_at(ItemId(1), 5).value, 20);
        assert_eq!(other.version_at(ItemId(1), 9).value, 30);
    }

    /// Without the version store an engine keeps no chain per item, and
    /// a snapshot read is a read of the committed head.
    #[test]
    fn an_engine_without_the_version_store_allocates_no_chains() {
        let mut e = mvcc_engine(0);
        assert_eq!(e.versions.capacity(), 0);
        e.commit(SimTime::ZERO, t(1), &[w(1, 10, 2)]);
        e.commit(SimTime::ZERO, t(2), &[w(1, 20, 5)]);
        assert_eq!(e.version_at(ItemId(1), 3).value, 20);
        e.prune_versions(5);
        let (_, lsn) = e.flush_wal(SimTime::ZERO).expect("two records to flush");
        e.wal_mark_durable(lsn);
        e.crash();
        assert_eq!(e.version_at(ItemId(1), 3), e.item(ItemId(1)));
        let donor = mvcc_engine(0);
        e.install_checkpoint(donor.checkpoint());
        e.commit(SimTime::ZERO, t(3), &[w(2, 30, 9)]);
        assert_eq!(e.version_at(ItemId(2), 1).value, 30);
        assert_eq!((e.mvcc_retained(), e.versions.capacity()), (0, 0));
    }

    #[test]
    fn digests_differ_on_divergence() {
        let mut a = engine();
        let mut b = engine();
        a.commit(SimTime::ZERO, t(1), &[w(1, 10, 1)]);
        b.commit(SimTime::ZERO, t(1), &[w(1, 11, 1)]);
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
