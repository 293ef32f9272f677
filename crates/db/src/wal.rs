//! Write-ahead log with group commit.
//!
//! The WAL is the authority for crash recovery: the recovered state is the
//! redo of the *durable* prefix. Appending never writes the disk; the
//! host decides when the log is forced, per safety level. The logging
//! levels (1-safe, group-1-safe, 2-safe) force a commit record inside
//! the pipeline ([`Wal::flush_unbatched`]) before the reply; group-safe
//! replication flushes periodically in the background ([`Wal::flush`])
//! — exactly the optimisation group-safety legitimises (§5.1:
//! "group-safe replication basically allows all disk writes to be done
//! asynchronously").
//!
//! The records are a [`Ragged`] log indexed by LSN: a 32-byte header per
//! record, its body the `(item, value)` pairs of the writes. A write
//! needs no version of its own: every write of one commit carries the
//! record's (the delivery sequence number under the state machine, the
//! origin timestamp under lazy replication), which
//! [`DbEngine::commit`](crate::DbEngine::commit) requires and
//! debug-asserts. A reserve record's items share the item column; their
//! value cells are 0 and never read.
//!
//! Redo is a fold kept as the log goes: [`Wal::take_durable`] marks
//! the records that have become durable as taken, and the store the log
//! shares (below) folds each record into one redo image once every
//! member has taken it, then releases it; [`Wal::crash`] truncates the
//! log to its durable prefix. So the log holds its non-durable tail,
//! the durable records not yet folded and at most a block of each
//! column below them — not its history.
//!
//! # One store per replica group
//!
//! A [`Wal`] keeps only its cursors — the LSNs below which it has taken
//! records, covered them by a flush, made them durable and appended
//! them — beside its disk and counters. The records live in a store
//! that one or more logs share, record `i` of the store being the
//! record at the same LSN of every member. A lone log ([`Wal::new`],
//! and so [`DbEngine::new`](crate::DbEngine::new)) is the only member of
//! a store of its own. The system joins the logs of one replica group,
//! each shard's group apart, into one store before anything is appended
//! ([`Wal::join`]): under the state machine every replica appends the
//! same records at the same LSNs, and since group-safety lets a log's
//! durable point trail what its replica applied (§5.1) — on a run whose
//! disks are busy, by most of the run — a copy per replica would keep
//! the group's non-durable tail once per replica.
//!
//! The store also keeps the redo image: the committed state that
//! redoing its records from the empty database up to the image point
//! yields, the image point being the lowest member's taken point. Right
//! before the store frees below that point it folds the records up to
//! it into the image, so each record is applied once per store, not
//! once per member, and a record that one member has not yet taken —
//! not yet made durable — never reaches that member's recovery. What a
//! member's crash recovers ([`Wal::recover_into`]) is the image plus
//! the store's records from the image point up to that member's own
//! taken point, which the store still holds.
//!
//! A member appending a record the store already holds at its next LSN
//! compares header and body, and on a match only moves its end. A member
//! leaves for a store of its own, copying its live records (those not
//! yet taken) and the image at its taken point, when
//! * it appends a record that differs from the one the store holds there
//!   — under lazy replication, a delegate's first own commit;
//! * it crashes or installs a checkpoint ([`Wal::crash`]) — a crash takes
//!   the durable records first, so a crashed member leaves with nothing
//!   live, and a member that stays down pins nothing;
//! * its live records all lie below every other member's taken point —
//!   a lagging or partitioned member, or one that never appends — or,
//!   while the store would hold more records than its members' logs
//!   would hold apart, its taken point is the lowest. Another member's
//!   take or leave moves it; the member picks its new store up at its
//!   next append, take or crash.
//!
//! The store folds and frees below the lowest member's taken point and
//! cuts above the highest member's end. So what pins a record is a
//! member that has not taken it, and by the last rule the store never
//! holds more records than its members' logs would hold apart. Nothing a
//! member observes — its LSNs, flush batches, durable point and what a
//! crash recovers — depends on whom it shares its store with.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;

use groupsafe_sim::{BlockVec, Body, Disk, Extent, Ragged, SimTime};

use crate::engine::DbCheckpoint;
use crate::types::{ItemId, TxnId, Value, Version, WriteOp};

/// Log sequence number: index of a record in the log (0-based).
pub type Lsn = u64;

/// What a log record does at redo time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalKind {
    /// Apply the record's writes, mark the transaction committed, and
    /// drop any reservation it held.
    Commit,
    /// Reserve the record's items for the transaction (a cross-group
    /// prepare certified under a logging safety level).
    Reserve {
        /// The deciding server's node id, kept so a recovered replica
        /// can resume probing for the missing decision.
        coordinator: u32,
    },
    /// Drop the transaction's reservations without committing anything
    /// (a cross-group abort decision).
    Release,
}

/// A record's header as stored: 32 bytes, the [`Extent`] of its body
/// included. `version` is the version of every write of a commit (0 for
/// the other kinds). The transaction id is stored as its two fields
/// because a nested [`TxnId`] would carry four bytes of padding.
#[derive(Debug, Clone, Copy)]
struct Header {
    seq: u64,
    version: Version,
    client: u32,
    end: u32,
    kind: WalKind,
}

impl Header {
    /// True when both headers describe the same record, wherever its
    /// body is stored.
    fn same_record(&self, other: &Header) -> bool {
        (self.seq, self.version, self.client, self.kind)
            == (other.seq, other.version, other.client, other.kind)
    }

    /// The record with `body`, as redo reads it.
    fn record<'a>(&self, body: Body<'a, ItemId, Value>) -> WalRecord<'a> {
        WalRecord {
            txn: TxnId {
                client: self.client,
                seq: self.seq,
            },
            kind: self.kind,
            version: self.version,
            body,
        }
    }
}

impl Extent for Header {
    fn end(&self) -> u32 {
        self.end
    }

    fn set_end(&mut self, end: u32) {
        self.end = end;
    }
}

/// A log record as redo sees it: a view borrowed from the store's log.
pub(crate) struct WalRecord<'a> {
    /// The transaction the record belongs to.
    pub txn: TxnId,
    /// What redo does with the record.
    pub kind: WalKind,
    version: Version,
    body: Body<'a, ItemId, Value>,
}

impl<'a> WalRecord<'a> {
    /// The writes to apply, with assigned versions (empty unless the
    /// record is a [`WalKind::Commit`]).
    pub fn writes(&self) -> impl Iterator<Item = WriteOp> + 'a {
        let version = self.version;
        let writes = (self.kind == WalKind::Commit).then(|| self.body.iter());
        writes
            .into_iter()
            .flatten()
            .map(move |(item, value)| WriteOp {
                item,
                value,
                version,
            })
    }

    /// The items to reserve (empty unless the record is a
    /// [`WalKind::Reserve`]).
    pub fn items(&self) -> impl Iterator<Item = ItemId> + 'a {
        let reserve = matches!(self.kind, WalKind::Reserve { .. });
        let items = reserve.then(|| self.body.iter());
        items.into_iter().flatten().map(|(item, _)| item)
    }
}

/// WAL counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Flush batches written to the log disk.
    pub flushes: u64,
    /// Records covered by flush batches (≥ flushes under group commit).
    pub flushed_records: u64,
}

/// The records that one or more [`Wal`]s hold, and their redo image;
/// see the module docs.
#[derive(Debug)]
struct WalStore {
    log: Ragged<Header, ItemId, Value>,
    /// The LSN of record 0: 0 for a store its members joined empty, the
    /// leaver's first live LSN for a store a member left for.
    base: Lsn,
    /// Each member's slot, in joining order.
    members: Vec<Member>,
    /// Items in the database the log redoes into.
    n_items: usize,
    /// The fold of the records below `image_lsn`. Allocated at the first
    /// record folded, so a store whose members never take a record pays
    /// nothing.
    image: Option<DbCheckpoint>,
    /// The image point: the lowest member's taken point at the last
    /// settle, at or above `base`.
    image_lsn: Lsn,
}

/// What a store knows of one of its members.
#[derive(Debug)]
enum Member {
    /// In the store, with the records `taken..end` live.
    In { taken: Lsn, end: Lsn },
    /// Moved to a store of its own by another member's take; the member
    /// picks it up at its next append, take or crash.
    Moved(Rc<RefCell<WalStore>>),
    /// Left the store.
    Out,
}

impl WalStore {
    /// A store of one member, holding `log` from LSN `base` on and the
    /// image of the records below it.
    fn alone(
        log: Ragged<Header, ItemId, Value>,
        base: Lsn,
        end: Lsn,
        n_items: usize,
        image: Option<DbCheckpoint>,
    ) -> Rc<RefCell<WalStore>> {
        Rc::new(RefCell::new(WalStore {
            log,
            base,
            members: vec![Member::In { taken: base, end }],
            n_items,
            image,
            image_lsn: base,
        }))
    }

    /// Where the record at `lsn` is stored.
    fn index(&self, lsn: Lsn) -> usize {
        (lsn - self.base) as usize
    }

    fn set(&mut self, slot: usize, member: Member) {
        if let Some(m) = self.members.get_mut(slot) {
            *m = member;
        }
    }

    /// A store of its own for a member whose records `taken..end` are
    /// live, holding a copy of them and the image at `taken`.
    fn split_off(&self, taken: Lsn, end: Lsn) -> Rc<RefCell<WalStore>> {
        let mut log = Ragged::default();
        let live = self.log.iter_from(self.index(taken));
        for (header, body) in live.take((end - taken) as usize) {
            log.push(*header, body.iter());
        }
        let mut image = self.image.clone();
        self.fold_into(&mut image, taken);
        WalStore::alone(log, taken, end, self.n_items, image)
    }

    /// Fold the records from the image point up to `lsn` into `image`,
    /// in LSN order, allocating it at the first record.
    fn fold_into(&self, image: &mut Option<DbCheckpoint>, lsn: Lsn) {
        let records = self.log.iter_from(self.index(self.image_lsn));
        for (header, body) in records.take((lsn - self.image_lsn) as usize) {
            let image = image.get_or_insert_with(|| DbCheckpoint::empty(self.n_items));
            image.redo(&header.record(body));
        }
    }

    /// The members in the store: `(slot, taken, end)`.
    fn live(&self) -> impl Iterator<Item = (usize, Lsn, Lsn)> + '_ {
        (self.members.iter().enumerate()).filter_map(|(slot, m)| match *m {
            Member::In { taken, end } => Some((slot, taken, end)),
            Member::Moved(_) | Member::Out => None,
        })
    }

    /// The member to move to a store of its own, if any: one whose live
    /// records all lie below every other member's taken point, or else,
    /// while the store would hold more records than its members' logs
    /// would hold apart, the one with the lowest taken point.
    fn laggard(&self) -> Option<(usize, Lsn, Lsn)> {
        let below_all = self.live().find(|&(slot, _, end)| {
            let mut others = self
                .live()
                .filter(|&(other, _, _)| other != slot)
                .peekable();
            others.peek().is_some() && others.all(|(_, taken, _)| end < taken)
        });
        if below_all.is_some() {
            return below_all;
        }
        let lowest = self.live().min_by_key(|&(_, taken, _)| taken)?;
        let highest = self.live().map(|(_, _, end)| end).max()?;
        let apart: Lsn = self.live().map(|(_, taken, end)| end - taken).sum();
        (highest - lowest.1 > apart).then_some(lowest)
    }

    /// Move the laggards to stores of their own, then fold the image up
    /// to the lowest taken point left, free below it and cut above the
    /// highest end.
    fn settle(&mut self) {
        while let Some((slot, taken, end)) = self.laggard() {
            let own = self.split_off(taken, end);
            self.set(slot, Member::Moved(own));
        }
        let lowest = self.live().map(|(_, taken, _)| taken).min();
        let highest = self.live().map(|(_, _, end)| end).max();
        if let (Some(lowest), Some(highest)) = (lowest, highest) {
            let mut image = self.image.take();
            self.fold_into(&mut image, lowest);
            (self.image, self.image_lsn) = (image, lowest);
            self.log.release_below(self.index(lowest));
            self.log.truncate(self.index(highest));
        }
    }
}

/// The write-ahead log of one engine: its cursors over the records of a
/// store it may share with the logs of its replica group (see the module
/// docs). It keeps each record until every member of the store has
/// taken it ([`Wal::take_durable`]) and the store has folded it into its
/// redo image.
pub struct Wal {
    store: Rc<RefCell<WalStore>>,
    /// This log's slot among the store's members.
    slot: usize,
    /// Records below this LSN were taken for redo (`≤ durable`).
    taken: Lsn,
    /// Records below this LSN are covered by an in-flight flush.
    flushing: Lsn,
    /// Records below this LSN are on disk (`≤ end`).
    durable: Lsn,
    /// The LSN of the next record.
    end: Lsn,
    log_disk: Rc<RefCell<Disk>>,
    stats: WalStats,
}

impl Wal {
    /// Create a WAL backed by `log_disk` that redoes into a database of
    /// `n_items` items, the only member of a store of its own.
    pub fn new(log_disk: Rc<RefCell<Disk>>, n_items: usize) -> Self {
        Wal {
            store: WalStore::alone(Ragged::default(), 0, 0, n_items, None),
            slot: 0,
            taken: 0,
            flushing: 0,
            durable: 0,
            end: 0,
            log_disk,
            stats: WalStats::default(),
        }
    }

    /// Share `group`'s store from now on: a record this log appends that
    /// the store already holds at the same LSN is not stored again. See
    /// the module docs.
    ///
    /// # Panics
    ///
    /// If either log has appended anything: logs join before that; or if
    /// they redo into databases of different sizes.
    pub fn join(&mut self, group: &Wal) {
        let fresh = |store: &WalStore| store.base == 0 && store.log.is_empty();
        assert!(
            self.end == 0 && fresh(&self.store.borrow()) && fresh(&group.store.borrow()),
            "logs join a store before anything is appended"
        );
        assert_eq!(
            self.store.borrow().n_items,
            group.store.borrow().n_items,
            "logs of one store redo into one database"
        );
        self.store.borrow_mut().set(self.slot, Member::Out);
        self.store = group.store.clone();
        let mut store = self.store.borrow_mut();
        self.slot = store.members.len();
        store.members.push(Member::In { taken: 0, end: 0 });
    }

    /// Append a commit record for `txn`, copying `writes` into the log
    /// (buffered, not yet durable). Returns its LSN.
    ///
    /// Every write must carry the same version, as
    /// [`DbEngine::commit`](crate::DbEngine::commit) requires: the record
    /// stores the first write's.
    pub fn append_commit(&mut self, txn: TxnId, writes: &[WriteOp]) -> Lsn {
        let version = writes.first().map_or(0, |w| w.version);
        let body = writes.iter().map(|w| (w.item, w.value));
        self.push(txn, WalKind::Commit, version, body)
    }

    /// Append a record reserving `items` for `txn`, decided by
    /// `coordinator`. Returns its LSN.
    pub fn append_reserve(&mut self, txn: TxnId, coordinator: u32, items: &[ItemId]) -> Lsn {
        let body = items.iter().map(|&item| (item, 0));
        self.push(txn, WalKind::Reserve { coordinator }, 0, body)
    }

    /// Append a record releasing `txn`'s reservations. Returns its LSN.
    pub fn append_release(&mut self, txn: TxnId) -> Lsn {
        self.push(txn, WalKind::Release, 0, [].into_iter())
    }

    fn push(
        &mut self,
        txn: TxnId,
        kind: WalKind,
        version: Version,
        body: impl Iterator<Item = (ItemId, Value)> + Clone,
    ) -> Lsn {
        self.stats.appends += 1;
        let header = Header {
            seq: txn.seq,
            version,
            client: txn.client,
            end: 0,
            kind,
        };
        self.follow();
        let held = {
            let store = self.store.borrow();
            let held = store.log.get(store.index(self.end));
            held.map(|(h, cells)| h.same_record(&header) && cells.iter().eq(body.clone()))
        };
        if held != Some(true) {
            if held == Some(false) {
                self.leave();
            }
            let mut store = self.store.borrow_mut();
            let index = store.log.push(header, body);
            debug_assert_eq!(index, store.index(self.end), "a record lands at its LSN");
        }
        let lsn = self.end;
        self.end += 1;
        self.publish();
        lsn
    }

    /// Pick up the store another member's take moved this log to.
    fn follow(&mut self) {
        let mut store = self.store.borrow_mut();
        let Some(member) = store.members.get_mut(self.slot) else {
            return;
        };
        if let Member::Moved(_) = member {
            if let Member::Moved(own) = std::mem::replace(member, Member::Out) {
                drop(store);
                self.store = own;
                self.slot = 0;
            }
        }
    }

    /// Tell the store this log's live range.
    fn publish(&mut self) {
        let (taken, end) = (self.taken, self.end);
        self.store
            .borrow_mut()
            .set(self.slot, Member::In { taken, end });
    }

    /// Leave the store for one of this log's own holding a copy of its
    /// live records, unless no other member is in it; then settle the
    /// store left.
    fn leave(&mut self) {
        let mut store = self.store.borrow_mut();
        let slot = self.slot;
        let others = (store.members.iter().enumerate())
            .any(|(k, m)| k != slot && matches!(m, Member::In { .. }));
        let own = others.then(|| store.split_off(self.taken, self.end));
        if own.is_some() {
            store.set(slot, Member::Out);
        }
        store.settle();
        drop(store);
        if let Some(own) = own {
            self.store = own;
            self.slot = 0;
        }
    }

    /// Highest appended LSN + 1 (0 when empty).
    pub fn end_lsn(&self) -> Lsn {
        self.end
    }

    /// True when records wait that no flush covers yet: a background
    /// flush would find something to write.
    pub fn has_unflushed(&self) -> bool {
        self.end > self.flushing
    }

    /// Records at or above this LSN are not yet durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable
    }

    /// True when the durable records not yet taken fill a block of
    /// headers: taking fewer would free no header block.
    pub fn durable_block_ready(&self) -> bool {
        self.durable - self.taken >= BlockVec::<Header>::BLOCK_LEN as Lsn
    }

    /// True if `lsn` is on disk.
    pub fn is_durable(&self, lsn: Lsn) -> bool {
        lsn < self.durable
    }

    /// Start flushing everything appended so far that is not yet covered
    /// by a flush. Returns `Some((completion, covered_lsn))` if a batch was
    /// written: the host must call [`Wal::mark_durable`]`(covered_lsn)` at
    /// `completion`. Returns `None` when there is nothing new to flush.
    ///
    /// Group commit: all pending records go out as one sequential batch.
    pub fn flush(&mut self, now: SimTime, rng: &mut StdRng) -> Option<(SimTime, Lsn)> {
        if self.end <= self.flushing {
            return None;
        }
        let batch = self.end - self.flushing;
        self.flushing = self.end;
        self.stats.flushes += 1;
        self.stats.flushed_records += batch;
        let done = (self.log_disk.borrow_mut()).sequential_batch(now, batch as usize, rng);
        Some((done, self.end))
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
        if self.end <= self.flushing {
            return None;
        }
        let batch = self.end - self.flushing;
        let done = {
            let mut disk = self.log_disk.borrow_mut();
            if batch == 1 {
                disk.access(now, rng)
            } else {
                disk.sequential_batch(now, batch as usize, rng)
            }
        };
        self.stats.flushes += 1;
        self.stats.flushed_records += batch;
        self.flushing = self.end;
        Some((done, self.end))
    }

    /// A flush covering records below `lsn` completed.
    pub fn mark_durable(&mut self, lsn: Lsn) {
        self.durable = self.durable.max(lsn).min(self.end);
    }

    /// Take every record that became durable since the last call for
    /// redo: the store folds a record into its image, and frees it,
    /// once every member has taken it.
    pub fn take_durable(&mut self) {
        self.follow();
        self.taken = self.durable;
        self.publish();
        self.store.borrow_mut().settle();
    }

    /// Write into `state` what redo recovers for this log: the store's
    /// image — the empty database when the store has none — and then
    /// the store's records from the image point up to this log's taken
    /// point. The items reuse `state`'s buffer, which holds as many as
    /// the database.
    pub fn recover_into(&self, state: &mut DbCheckpoint) {
        let store = self.current_store();
        let store = store.borrow();
        match &store.image {
            Some(image) => {
                state.items.clone_from(&image.items);
                state.committed.clone_from(&image.committed);
                state.reservations.clone_from(&image.reservations);
            }
            None => {
                state.items.fill(Default::default());
                state.committed.clear();
                state.reservations.clear();
            }
        }
        let tail = store.log.iter_from(store.index(store.image_lsn));
        for (header, body) in tail.take((self.taken - store.image_lsn) as usize) {
            state.redo(&header.record(body));
        }
    }

    /// Crash: lose everything that never reached the disk. In-flight
    /// flushes are conservatively treated as failed (their completion
    /// event dies with the crash). The log leaves a shared store with
    /// its durable records not yet taken and the image at its taken
    /// point.
    pub fn crash(&mut self) {
        self.follow();
        self.end = self.durable;
        self.flushing = self.durable;
        self.publish();
        self.leave();
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The store this log reads, a move another member's take made
    /// included.
    fn current_store(&self) -> Rc<RefCell<WalStore>> {
        let store = self.store.borrow();
        if let Some(Member::Moved(own)) = store.members.get(self.slot) {
            return own.clone();
        }
        self.store.clone()
    }

    /// Records the store holds (freed ones not counted): at most the sum
    /// of its members' records appended and not yet taken.
    pub fn store_records(&self) -> usize {
        self.current_store().borrow().log.live()
    }

    /// The LSN the store's redo image stands at, if the store has
    /// allocated one: one image per store, whatever its members.
    pub fn store_image(&self) -> Option<Lsn> {
        let store = self.current_store();
        let store = store.borrow();
        store.image.as_ref().map(|_| store.image_lsn)
    }

    /// Records below this LSN are taken for redo (`≤ durable`).
    pub fn taken_lsn(&self) -> Lsn {
        self.taken
    }

    /// True when this log and `other` read one store.
    pub fn shares_store_with(&self, other: &Wal) -> bool {
        Rc::ptr_eq(&self.current_store(), &other.current_store())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ItemState;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn t(seq: u64) -> TxnId {
        TxnId { client: 0, seq }
    }

    fn commit(w: &mut Wal, seq: u64) -> Lsn {
        w.append_commit(
            t(seq),
            &[WriteOp {
                item: ItemId(1),
                value: seq as i64,
                version: seq,
            }],
        )
    }

    const N_ITEMS: usize = 1000;

    fn wal() -> (Wal, StdRng) {
        (
            Wal::new(Rc::new(RefCell::new(Disk::paper_default())), N_ITEMS),
            StdRng::seed_from_u64(3),
        )
    }

    /// What a crash of `w`'s replica would recover.
    fn recovered(w: &Wal) -> DbCheckpoint {
        let mut state = DbCheckpoint::empty(N_ITEMS);
        w.recover_into(&mut state);
        state
    }

    fn with_log<T>(w: &Wal, read: impl FnOnce(&Ragged<Header, ItemId, Value>) -> T) -> T {
        read(&w.current_store().borrow().log)
    }

    /// The lengths of the store's item and value columns.
    fn cells(w: &Wal) -> (usize, usize) {
        with_log(w, |log| (log.columns().0.len(), log.columns().1.len()))
    }

    #[test]
    fn a_record_header_is_32_bytes() {
        assert!(std::mem::size_of::<Header>() <= 32);
    }

    #[test]
    fn append_then_flush_then_durable() {
        let (mut w, mut rng) = wal();
        let lsn = commit(&mut w, 1);
        assert_eq!(lsn, 0);
        assert!(!w.is_durable(lsn));
        let (done, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush starts");
        assert!(done > SimTime::ZERO);
        assert_eq!(covered, 1);
        w.mark_durable(covered);
        assert!(w.is_durable(lsn));
        w.take_durable();
        w.take_durable();
        assert_eq!((w.taken_lsn(), w.store_image()), (1, Some(1)));
        let state = recovered(&w);
        let one = ItemState {
            value: 1,
            version: 1,
        };
        assert_eq!(state.items.get(1), Some(&one));
        assert!(state.committed.iter().eq([t(1)]), "a record is folded once");
    }

    #[test]
    fn taking_frees_the_blocks_below_and_keeps_lsns() {
        let (mut w, mut rng) = wal();
        for i in 0..1200 {
            commit(&mut w, i);
        }
        let (_, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush");
        w.mark_durable(covered - 100);
        w.take_durable();
        let state = recovered(&w);
        assert!(state.committed.iter().eq((0..1100).map(t)));
        let last = ItemState {
            value: 1099,
            version: 1099,
        };
        assert_eq!(state.items.get(1), Some(&last));
        // Headers and bodies below the taken point's block are gone.
        let held = with_log(&w, |log| (log.columns().0.held(), log.columns().1.held()));
        assert_eq!(held, (176, 176));
        assert!(with_log(&w, |log| log.get(1099).is_none() && log.get(1100).is_some()));
        // The tail is intact: a crash cuts it at the durable point, and
        // appends go on at absolute positions.
        w.crash();
        assert_eq!((w.end_lsn(), cells(&w)), (1100, (1100, 1100)));
        assert_eq!(commit(&mut w, 7), 1100);
        w.mark_durable(1101);
        w.take_durable();
        let seven = ItemState {
            value: 7,
            version: 7,
        };
        assert_eq!(recovered(&w).items.get(1), Some(&seven));
    }

    #[test]
    fn group_commit_batches_pending_records() {
        let (mut w, mut rng) = wal();
        for i in 0..5 {
            commit(&mut w, i);
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
        commit(&mut w, 1);
        let (_, covered) = w.flush(SimTime::ZERO, &mut rng).expect("flush");
        w.mark_durable(covered);
        commit(&mut w, 2);
        commit(&mut w, 3);
        // Start a flush but crash before completion: records 2, 3 are gone.
        let _ = w.flush(SimTime::from_millis(1), &mut rng);
        w.crash();
        assert_eq!(w.durable_lsn(), 1);
        assert_eq!(w.end_lsn(), 1);
        assert_eq!(cells(&w), (1, 1), "the dropped bodies went with them");
        // New appends continue after the truncation point.
        let lsn = commit(&mut w, 4);
        assert_eq!(lsn, 1);
    }

    #[test]
    fn concurrent_flushes_cover_disjoint_ranges() {
        let (mut w, mut rng) = wal();
        commit(&mut w, 1);
        let (_, c1) = w.flush(SimTime::ZERO, &mut rng).expect("first");
        commit(&mut w, 2);
        let (_, c2) = w.flush(SimTime::ZERO, &mut rng).expect("second");
        assert_eq!((c1, c2), (1, 2));
        w.mark_durable(c2);
        // Out-of-order completion of the first flush must not regress.
        w.mark_durable(c1);
        assert_eq!(w.durable_lsn(), 2);
    }

    /// The log this one replaces: a vector of records that own their
    /// bodies.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct OwnedRecord {
        txn: TxnId,
        kind: WalKind,
        writes: Vec<WriteOp>,
        items: Vec<ItemId>,
    }

    #[derive(Default)]
    struct VecWal {
        records: Vec<OwnedRecord>,
        durable: usize,
        taken: usize,
        flushing: usize,
        stats: WalStats,
    }

    impl VecWal {
        fn append(&mut self, record: OwnedRecord) -> Lsn {
            self.stats.appends += 1;
            self.records.push(record);
            (self.records.len() - 1) as Lsn
        }

        fn flush(&mut self) -> Option<Lsn> {
            let end = self.records.len();
            if end <= self.flushing {
                return None;
            }
            self.stats.flushes += 1;
            self.stats.flushed_records += (end - self.flushing) as u64;
            self.flushing = end;
            Some(end as Lsn)
        }

        fn mark_durable(&mut self, lsn: Lsn) {
            self.durable = self.durable.max(lsn as usize).min(self.records.len());
        }

        fn crash(&mut self) {
            self.records.truncate(self.durable);
            self.flushing = self.durable;
        }

        /// Take the durable records, replaying them into `image`.
        fn take(&mut self, image: &mut DbCheckpoint) {
            for record in self.records.get(self.taken..self.durable).unwrap_or(&[]) {
                replay(image, record);
            }
            self.taken = self.durable;
        }
    }

    /// Redo `record` into `image`, as a replay of owned records does it.
    fn replay(image: &mut DbCheckpoint, record: &OwnedRecord) {
        let txn = record.txn;
        match record.kind {
            WalKind::Commit => {
                for w in &record.writes {
                    if let Some(item) = image.items.get_mut(w.item.index()) {
                        (item.value, item.version) = (w.value, w.version);
                    }
                }
                image.committed.insert(txn);
                image.reservations.retain(|_, &mut (t, _)| t != txn);
            }
            WalKind::Reserve { coordinator } => {
                for &item in &record.items {
                    image.reservations.insert(item, (txn, coordinator));
                }
            }
            WalKind::Release => image.reservations.retain(|_, &mut (t, _)| t != txn),
        }
    }

    proptest! {
        /// Any sequence of appends of the three kinds, flushes of both
        /// sorts, completions, takes and crashes leaves the LSNs and the
        /// counters of the vector of owned records, and redo recovers
        /// what a replay of the records taken recovers: every durable
        /// record folded once, in LSN order, with its body, whatever was
        /// freed below it. Reserve bodies, short or longer than a column
        /// block, sit between commit bodies in the shared item column,
        /// and a crash may follow a take at once.
        #[test]
        fn behaves_like_a_vec_of_owned_records(
            ops in proptest::collection::vec((0u8..10, 0u64..6, 0usize..700), 1..60),
        ) {
            let (mut wal, mut rng) = wal();
            let mut model = VecWal::default();
            let mut covered: Vec<Lsn> = Vec::new();
            // The replay of `model.records[..model.taken]`.
            let mut image = DbCheckpoint::empty(N_ITEMS);
            for (i, (op, n, len)) in ops.into_iter().enumerate() {
                let txn = TxnId { client: n as u32, seq: i as u64 };
                match op {
                    0 | 1 => {
                        // Bodies from empty to longer than one column
                        // block, every write at the record's version.
                        let writes: Vec<WriteOp> = (0..len)
                            .map(|k| WriteOp {
                                item: ItemId(k as u32),
                                value: i as i64 - k as i64,
                                version: n,
                            })
                            .collect();
                        let lsn = wal.append_commit(txn, &writes);
                        let kind = WalKind::Commit;
                        let items = Vec::new();
                        prop_assert_eq!(lsn, model.append(OwnedRecord { txn, kind, writes, items }));
                    }
                    2 => {
                        let len = if n % 2 == 0 { len } else { len % 5 };
                        let items: Vec<ItemId> = (0..len).map(|k| ItemId((i + k) as u32)).collect();
                        let lsn = wal.append_reserve(txn, n as u32, &items);
                        let kind = WalKind::Reserve { coordinator: n as u32 };
                        let writes = Vec::new();
                        prop_assert_eq!(lsn, model.append(OwnedRecord { txn, kind, writes, items }));
                    }
                    3 => {
                        let lsn = wal.append_release(txn);
                        let kind = WalKind::Release;
                        let (writes, items) = (Vec::new(), Vec::new());
                        prop_assert_eq!(lsn, model.append(OwnedRecord { txn, kind, writes, items }));
                    }
                    4 | 5 => {
                        let started = if op == 4 {
                            wal.flush(SimTime::ZERO, &mut rng)
                        } else {
                            wal.flush_unbatched(SimTime::ZERO, &mut rng)
                        };
                        let lsn = started.map(|(_, lsn)| lsn);
                        prop_assert_eq!(lsn, model.flush());
                        covered.extend(lsn);
                    }
                    6 => {
                        // Complete a started flush, in any order, or one
                        // that a crash has since overtaken.
                        if !covered.is_empty() {
                            let lsn = covered.swap_remove(len % covered.len());
                            wal.mark_durable(lsn);
                            model.mark_durable(lsn);
                        }
                    }
                    7 | 8 => {
                        wal.take_durable();
                        model.take(&mut image);
                        if op == 8 {
                            // A crash right after a take cuts the columns
                            // at the taken bodies' end.
                            wal.crash();
                            model.crash();
                        }
                    }
                    _ => {
                        wal.crash();
                        model.crash();
                    }
                }
                prop_assert_eq!(wal.end_lsn(), model.records.len() as Lsn);
                prop_assert_eq!(wal.durable_lsn(), model.durable as Lsn);
                prop_assert_eq!(wal.stats(), model.stats);
                prop_assert_eq!(wal.taken_lsn(), model.taken as Lsn);
                prop_assert_eq!(&recovered(&wal), &image);
                // Both columns count the surviving bodies, freed or not.
                let bodies = model.records.iter().map(|r| r.writes.len() + r.items.len());
                let n = bodies.sum::<usize>();
                prop_assert_eq!(cells(&wal), (n, n));
            }
            wal.take_durable();
            model.take(&mut image);
            prop_assert_eq!(&recovered(&wal), &image);
        }
    }
}
