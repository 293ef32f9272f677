//! Write-ahead log with group commit and sync/async flush policies.
//!
//! The WAL is the authority for crash recovery: the recovered state is the
//! redo of the *durable* prefix. Under the synchronous policy the commit
//! reply waits for the flush (1-safe, group-1-safe); under the
//! asynchronous policy flushes happen periodically in the background —
//! exactly the optimisation group-safety legitimises (§5.1: "group-safe
//! replication basically allows all disk writes to be done
//! asynchronously").

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;

use groupsafe_sim::{BlockVec, Disk, SimTime};

use crate::types::{ItemId, TxnId, WriteOp};

/// Log sequence number: index of a record in the log (0-based).
pub type Lsn = u64;

/// What a log record does at redo time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalKind {
    /// Apply the record's writes, mark the transaction committed, and
    /// drop any reservation it held.
    Commit,
    /// Reserve the listed items for the transaction (a cross-group
    /// prepare certified under a logging safety level; `coordinator` is
    /// the deciding server's node id, kept so a recovered replica can
    /// resume probing for the missing decision).
    Reserve {
        /// The reserved items.
        items: Vec<ItemId>,
        /// The coordinator to probe for the decision.
        coordinator: u32,
    },
    /// Drop the transaction's reservations without committing anything
    /// (a cross-group abort decision).
    Release,
}

/// A log record: everything redo needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The transaction the record belongs to.
    pub txn: TxnId,
    /// Its writes, with assigned versions ([`WalKind::Commit`] only).
    pub writes: Vec<WriteOp>,
    /// What redo does with the record.
    pub kind: WalKind,
}

/// When commit records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush before acknowledging the commit (the commit pays the write).
    Sync,
    /// Flush in the background on a timer; commits return immediately.
    Async,
}

/// WAL counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Flush batches written to the log disk.
    pub flushes: u64,
    /// Records covered by flush batches (≥ flushes under group commit).
    pub flushed_records: u64,
}

/// The write-ahead log. It keeps every record for redo, so it only
/// grows: the records sit in a [`BlockVec`], which adds a block at a time
/// instead of copying the whole log at every doubling.
pub struct Wal {
    records: BlockVec<CommitRecord>,
    /// Records below this index are on disk.
    durable: usize,
    /// Records below this index are covered by an in-flight flush.
    flushing: usize,
    log_disk: Rc<RefCell<Disk>>,
    stats: WalStats,
}

impl Wal {
    /// Create a WAL backed by `log_disk`.
    pub fn new(log_disk: Rc<RefCell<Disk>>) -> Self {
        Wal {
            records: BlockVec::new(),
            durable: 0,
            flushing: 0,
            log_disk,
            stats: WalStats::default(),
        }
    }

    /// Append a commit record (buffered, not yet durable). Returns its LSN.
    pub fn append(&mut self, record: CommitRecord) -> Lsn {
        self.stats.appends += 1;
        self.records.push(record);
        (self.records.len() - 1) as Lsn
    }

    /// Highest appended LSN + 1 (0 when empty).
    pub fn end_lsn(&self) -> Lsn {
        self.records.len() as Lsn
    }

    /// Records at or above this LSN are not yet durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable as Lsn
    }

    /// True if `lsn` is on disk.
    pub fn is_durable(&self, lsn: Lsn) -> bool {
        (lsn as usize) < self.durable
    }

    /// Start flushing everything appended so far that is not yet covered
    /// by a flush. Returns `Some((completion, covered_lsn))` if a batch was
    /// written: the host must call [`Wal::mark_durable`]`(covered_lsn)` at
    /// `completion`. Returns `None` when there is nothing new to flush.
    ///
    /// Group commit: all pending records go out as one sequential batch.
    pub fn flush(&mut self, now: SimTime, rng: &mut StdRng) -> Option<(SimTime, Lsn)> {
        let end = self.records.len();
        if end <= self.flushing {
            return None;
        }
        let batch = end - self.flushing;
        self.flushing = end;
        self.stats.flushes += 1;
        self.stats.flushed_records += batch as u64;
        let done = self.log_disk.borrow_mut().sequential_batch(now, batch, rng);
        Some((done, end as Lsn))
    }

    /// Synchronous flush: a single pending commit record is forced with
    /// one *individual random access* (the transaction is waiting; there
    /// is nothing to batch with). When several records are pending —
    /// e.g. cross-group reserve/release records queued since the last
    /// force — they go out as one sequential group-commit batch, exactly
    /// as a real log does when a forced write finds company. This is the
    /// flush the synchronous-durability techniques pay on their critical
    /// path; the background [`Wal::flush`] always batches.
    pub fn flush_unbatched(&mut self, now: SimTime, rng: &mut StdRng) -> Option<(SimTime, Lsn)> {
        let end = self.records.len();
        if end <= self.flushing {
            return None;
        }
        let batch = end - self.flushing;
        let done = {
            let mut disk = self.log_disk.borrow_mut();
            if batch == 1 {
                disk.access(now, rng)
            } else {
                disk.sequential_batch(now, batch, rng)
            }
        };
        self.stats.flushes += 1;
        self.stats.flushed_records += batch as u64;
        self.flushing = end;
        Some((done, end as Lsn))
    }

    /// A flush covering records below `lsn` completed.
    pub fn mark_durable(&mut self, lsn: Lsn) {
        self.durable = self.durable.max(lsn as usize).min(self.records.len());
    }

    /// Redo: the durable commit records in LSN order.
    pub fn durable_records(&self) -> impl Iterator<Item = &CommitRecord> {
        self.records.iter().take(self.durable)
    }

    /// Crash: lose everything that never reached the disk. In-flight
    /// flushes are conservatively treated as failed (their completion
    /// event dies with the crash).
    pub fn crash(&mut self) {
        self.records.truncate(self.durable);
        self.flushing = self.durable;
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ItemId;
    use rand::SeedableRng;

    fn rec(seq: u64) -> CommitRecord {
        CommitRecord {
            txn: TxnId { client: 0, seq },
            writes: vec![WriteOp {
                item: ItemId(1),
                value: seq as i64,
                version: seq,
            }],
            kind: WalKind::Commit,
        }
    }

    fn wal() -> (Wal, StdRng) {
        (
            Wal::new(Rc::new(RefCell::new(Disk::paper_default()))),
            StdRng::seed_from_u64(3),
        )
    }

    #[test]
    fn append_then_flush_then_durable() {
        let (mut w, mut rng) = wal();
        let lsn = w.append(rec(1));
        assert_eq!(lsn, 0);
        assert!(!w.is_durable(lsn));
        let (done, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush starts");
        assert!(done > SimTime::ZERO);
        assert_eq!(covered, 1);
        w.mark_durable(covered);
        assert!(w.is_durable(lsn));
        assert_eq!(w.durable_records().count(), 1);
    }

    #[test]
    fn group_commit_batches_pending_records() {
        let (mut w, mut rng) = wal();
        for i in 0..5 {
            w.append(rec(i));
        }
        let (_, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush starts");
        assert_eq!(covered, 5);
        assert_eq!(w.stats().flushes, 1);
        assert_eq!(w.stats().flushed_records, 5);
        // Nothing new: no second flush.
        assert!(w.flush(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn crash_drops_unflushed_tail() {
        let (mut w, mut rng) = wal();
        w.append(rec(1));
        let (_, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush");
        w.mark_durable(covered);
        w.append(rec(2));
        w.append(rec(3));
        // Start a flush but crash before completion: records 2, 3 are gone.
        let _ = w.flush(SimTime::from_millis(1), &mut rng);
        w.crash();
        assert_eq!(w.durable_records().count(), 1);
        assert_eq!(w.end_lsn(), 1);
        // New appends continue after the truncation point.
        let lsn = w.append(rec(4));
        assert_eq!(lsn, 1);
    }

    #[test]
    fn concurrent_flushes_cover_disjoint_ranges() {
        let (mut w, mut rng) = wal();
        w.append(rec(1));
        let (_, c1) = w.flush(SimTime::ZERO, &mut rng).expect("first");
        w.append(rec(2));
        let (_, c2) = w.flush(SimTime::ZERO, &mut rng).expect("second");
        assert_eq!((c1, c2), (1, 2));
        w.mark_durable(c2);
        // Out-of-order completion of the first flush must not regress.
        w.mark_durable(c1);
        assert_eq!(w.durable_lsn(), 2);
    }
}
