//! Verification: the oracle records what clients were told and what
//! servers committed; after a run (and its crash schedule) the checks
//! decide whether any *acknowledged* transaction was lost, whether the
//! replicas converged, and whether lazy replication produced lost
//! updates (§7).
//!
//! # Evidence layout
//!
//! The oracle keeps its evidence for the whole run — all but the reads,
//! which it audits on arrival — so its layout is the run's memory. Every
//! table is either keyed by a [`TxnId`] — a client
//! plus that client's own counter, dense by construction — or appended
//! once in arrival order, and is stored by position accordingly:
//!
//! * [`Oracle::acked`] is a [`TxnTable`] of the acknowledgements of
//!   transactions that went through a commit path: the 8-byte instants
//!   in insertion order, found through a paged index addressed by
//!   `(client, seq)`: a bit per id, a 4-byte position per stored one. An acknowledgement of a read served by
//!   the local read path is one bit in a [`TxnSet`] instead, and a count
//!   of those inside the measurement window: no reader asks when one
//!   arrived. The first acknowledgement of a transaction wins, across
//!   both; [`Oracle::acked_count`] and [`Oracle::is_acked`] read both.
//! * [`Oracle::commits`] is a [`CommitLog`]: a [`Ragged`] log of the
//!   commits' readsets and write sets, found through such a table's
//!   index. The value a write stored is not kept: no audit reads it.
//!   Reading it yields [`CommitView`]s.
//! * [`Oracle::reads`] is a [`ReadAudit`]: the read-freshness oracle,
//!   which audits each served read and each read acknowledgement on
//!   arrival and keeps no history of them — a fixed-size [`ReadTally`]
//!   of what the report reads, the highest snapshot each
//!   (session, group) accepted, the violations found, and a [`ReadLog`]
//!   of the [`ReadLevel::Stable`] reads alone, whose observed items the
//!   post-run lost-value rule needs.
//! * [`Oracle::si_txns`] is an [`SiLog`]: the snapshot-isolation
//!   outcomes in delivery order, their readsets and writes in [`Ragged`]
//!   logs. Reading it yields [`SiView`]s.
//!
//! # Audits
//!
//! The audits run once the run is over, when every table above is at
//! its largest, so each allocates by what it finds, not by what the run
//! did. [`check_lost_updates`] walks the commit log in counting passes
//! and stores only the candidates whose `(item, version read)` bucket
//! another candidate hit — 2 bytes of bitmap per candidate, in bitmaps
//! of at most 128 KiB; a clean run's candidates are mostly never
//! stored. The snapshot-containment rule of
//! [`crate::scenario::audit_scenario`] collects the versions the audited
//! snapshot reads observed and strikes out those a commit wrote, reading
//! no commit when there are none.

use std::collections::BTreeMap;
use std::ops::Deref;

use groupsafe_db::{DbEngine, ItemId, TxnId, TxnSet, TxnTable, Value, Version, WriteOp};
use groupsafe_net::NodeId;
use groupsafe_sim::{BlockVec, Body, Extent, Ragged, SimTime};

use crate::reads::{ReadLevel, ReadViolation};

/// A commit as the [`CommitLog`] stores it: who executed it, how many
/// of its body's pairs are its readset (the rest are its writes), and
/// where its body ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitRecord {
    delegate: NodeId,
    reads: u32,
    end: u32,
}

impl Extent for CommitRecord {
    fn end(&self) -> u32 {
        self.end
    }

    fn set_end(&mut self, end: u32) {
        self.end = end;
    }
}

/// The server-side commit records, one per transaction: the first
/// report of a transaction is kept, and the later slices of a
/// cross-group commit merge their writes into it — in place while the
/// record is the log's last, into a small overflow after that.
#[derive(Debug, Default)]
pub struct CommitLog {
    /// Each transaction's position in `records`.
    index: TxnTable<()>,
    records: Ragged<CommitRecord, ItemId, Version>,
    /// Writes merged into a record after it was stored, by transaction,
    /// in merge order.
    merged: BTreeMap<TxnId, Vec<(ItemId, Version)>>,
}

impl CommitLog {
    /// Store `txn`'s commit unless it has one: the first insert wins,
    /// and a later one copies nothing. Returns true if `txn` was absent.
    pub(crate) fn insert(
        &mut self,
        txn: TxnId,
        delegate: NodeId,
        readset: &[(ItemId, Version)],
        writes: impl IntoIterator<Item = (ItemId, Version)>,
    ) -> bool {
        let fresh = self.index.insert_with(txn, || ());
        if fresh {
            let reads = readset.len() as u32;
            let record = CommitRecord {
                delegate,
                reads,
                end: 0,
            };
            self.records
                .push(record, readset.iter().copied().chain(writes));
        }
        fresh
    }

    /// Merge `writes` into `txn`'s write set, skipping every
    /// `(item, version)` pair it holds already; a transaction without a
    /// record gets one, executed by `delegate`, with an empty readset.
    pub(crate) fn merge_writes(
        &mut self,
        txn: TxnId,
        delegate: NodeId,
        writes: impl IntoIterator<Item = (ItemId, Version)>,
    ) {
        let fresh = self.insert(txn, delegate, &[], std::iter::empty());
        for w in writes {
            if self.get(txn).is_some_and(|c| c.writes().any(|e| e == w)) {
                continue;
            }
            if fresh {
                self.records.extend_last([w]);
            } else {
                self.merged.entry(txn).or_default().push(w);
            }
        }
    }

    /// `txn`'s commit, if it has one.
    pub fn get(&self, txn: TxnId) -> Option<CommitView<'_>> {
        self.view(txn, self.index.position(txn)?)
    }

    /// True if `txn` has a commit.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.index.contains(txn)
    }

    /// Number of transactions with a commit.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no commit was recorded.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The commits in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, CommitView<'_>)> {
        let views = self.index.positions();
        views.filter_map(|(txn, position)| Some((txn, self.view(txn, position)?)))
    }

    /// The commits in ascending id order, without their ids.
    pub fn values(&self) -> impl Iterator<Item = CommitView<'_>> {
        self.iter().map(|(_, view)| view)
    }

    fn view(&self, txn: TxnId, position: usize) -> Option<CommitView<'_>> {
        let (record, body) = self.records.get(position)?;
        let (readset, writes) = body.split_at(record.reads as usize);
        let merged = self.merged.get(&txn).map_or(&[][..], Vec::as_slice);
        Some(CommitView {
            delegate: record.delegate,
            readset,
            writes,
            merged,
        })
    }
}

/// One commit as the audits see it, borrowed from the [`CommitLog`].
#[derive(Clone, Copy)]
pub struct CommitView<'a> {
    delegate: NodeId,
    readset: Body<'a, ItemId, Version>,
    writes: Body<'a, ItemId, Version>,
    merged: &'a [(ItemId, Version)],
}

impl<'a> CommitView<'a> {
    /// The delegate that executed the transaction.
    pub fn delegate(&self) -> NodeId {
        self.delegate
    }

    /// Items read, with the versions observed.
    pub fn readset(&self) -> impl Iterator<Item = (ItemId, Version)> + 'a {
        self.readset.iter()
    }

    /// Items written, with the versions assigned: the first report's,
    /// then those merged from later slices.
    pub fn writes(&self) -> impl Iterator<Item = (ItemId, Version)> + 'a {
        self.writes.iter().chain(self.merged.iter().copied())
    }
}

/// An acknowledgement of a transaction that went through a commit
/// path, as observed by the client.
#[derive(Debug, Clone, Copy)]
pub struct AckRecord {
    /// When the client received the commit notification.
    pub at: SimTime,
}

/// A locally served read, as reported by the replica that served it
/// (the read-freshness oracle's server-side evidence). The session is
/// `txn.client`. The [`ReadAudit`] checks it on arrival and keeps it,
/// with the items it observed, only at [`ReadLevel::Stable`] (see
/// [`ReadView::items`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// The read transaction.
    pub txn: TxnId,
    /// The serving replica's group.
    pub group: u32,
    /// Freshness level requested.
    pub level: ReadLevel,
    /// The session token the client carried (0 for non-session levels).
    pub token: u64,
    /// The snapshot the read was served at.
    pub snapshot_seq: u64,
    /// The serving replica's group-stable watermark at serve time.
    pub stable_seq: u64,
    /// The serving replica's applied head at serve time.
    pub applied_seq: u64,
    /// Serve instant.
    pub at: SimTime,
}

/// Served reads in serve order, with the `(item, version)` pairs each
/// observed. The [`ReadAudit`] keeps one, of its [`ReadLevel::Stable`]
/// reads.
#[derive(Debug, Default)]
pub struct ReadLog {
    records: BlockVec<ReadRecord>,
    /// The pairs each read observed (lockstep with `records`).
    observed: Ragged<u32, ItemId, Version>,
}

impl ReadLog {
    /// Append a read and the `(item, version)` pairs it observed.
    pub(crate) fn push(
        &mut self,
        record: ReadRecord,
        observed: impl IntoIterator<Item = (ItemId, Version)>,
    ) {
        self.records.push(record);
        self.observed.push(0, observed);
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no read was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The reads in serve order.
    pub fn iter(&self) -> impl Iterator<Item = ReadView<'_>> {
        let observed = self.observed.iter_from(0);
        let reads = self.records.iter().zip(observed);
        reads.map(|(record, (_, items))| ReadView { record, items })
    }
}

/// One served read as the audit sees it: the [`ReadRecord`] (through
/// `Deref`) plus the items it observed, borrowed from the log.
#[derive(Clone, Copy)]
pub struct ReadView<'a> {
    record: &'a ReadRecord,
    items: Body<'a, ItemId, Version>,
}

impl<'a> ReadView<'a> {
    /// The items observed, with the committed versions returned.
    pub fn items(&self) -> impl Iterator<Item = (ItemId, Version)> + 'a {
        self.items.iter()
    }
}

impl Deref for ReadView<'_> {
    type Target = ReadRecord;

    fn deref(&self) -> &ReadRecord {
        self.record
    }
}

/// A read-only transaction's acknowledgement as accepted by the client
/// (the read-freshness oracle's session-order evidence; the session is
/// `txn.client`, and `level` is `None` for reads that rode the classic
/// or broadcast pipeline).
#[derive(Debug, Clone, Copy)]
pub struct ReadAckRecord {
    /// The read transaction.
    pub txn: TxnId,
    /// The group the read was served from.
    pub group: u32,
    /// Freshness level (None = classic/broadcast pipeline).
    pub level: Option<ReadLevel>,
    /// The snapshot the session observed (0 when the pipeline carries
    /// no snapshot, i.e. classic/broadcast reads).
    pub snapshot_seq: u64,
    /// Acceptance instant.
    pub at: SimTime,
    /// Response time of the successful attempt, milliseconds.
    pub response_ms: f64,
}

/// The read path's counters, folded as the reads arrive: what the
/// report reads, plus the per-level and tokened counts that show a run's
/// reads took the level it asked for. Its size is set by the number of
/// groups, not of reads, and it sums in arrival order, so every sum is
/// the one a walk over the recorded reads and acknowledgements would
/// make, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ReadTally {
    /// Reads served locally, whole run.
    pub served: usize,
    /// Of those, per level, indexed by `ReadLevel as usize`.
    pub served_by_level: [usize; 3],
    /// Served reads whose session token was above 0.
    pub tokened: usize,
    /// Σ `applied_seq − snapshot_seq` over the served reads.
    pub lag_sum: f64,
    /// Read acknowledgements accepted at or after the measurement start.
    pub acked: usize,
    /// Σ response time of those, milliseconds.
    pub ms_sum: f64,
    /// Per serving group (see [`ReadTally::group`]).
    groups: BTreeMap<u32, GroupReadTally>,
}

/// One group's share of the [`ReadTally`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupReadTally {
    /// Reads the group's replicas served, whole run.
    pub served: usize,
    /// Σ `applied_seq − snapshot_seq` over them.
    pub lag_sum: f64,
    /// Read acknowledgements from the group inside the window.
    pub acked: usize,
}

impl ReadTally {
    /// Group `g`'s share (zero if it served and answered nothing).
    pub fn group(&self, g: u32) -> GroupReadTally {
        self.groups.get(&g).copied().unwrap_or_default()
    }
}

/// The read-freshness oracle, run as the reads arrive (see the module
/// docs). Each served read is checked against its level's serve-time
/// invariants, and each session acknowledgement against the highest
/// snapshot its (session, group) accepted before; the violations are
/// kept in arrival order, and the reads themselves are not — except the
/// [`ReadLevel::Stable`] ones, for the lost-value rule
/// [`crate::audit_reads`] applies once the loss audit has run.
#[derive(Debug, Default)]
pub struct ReadAudit {
    measure_start: SimTime,
    tally: ReadTally,
    /// Highest snapshot each `(client, group)` session accepted.
    session_high: BTreeMap<(u32, u32), u64>,
    violations: Vec<ReadViolation>,
    stable: ReadLog,
}

impl ReadAudit {
    /// Audit and count a served read that observed `observed`.
    fn serve(&mut self, r: ReadRecord, observed: impl Iterator<Item = (ItemId, Version)> + Clone) {
        let lag = r.applied_seq.saturating_sub(r.snapshot_seq) as f64;
        let t = &mut self.tally;
        t.served += 1;
        if let Some(n) = t.served_by_level.get_mut(r.level as usize) {
            *n += 1;
        }
        t.tokened += usize::from(r.token > 0);
        t.lag_sum += lag;
        let g = t.groups.entry(r.group).or_default();
        g.served += 1;
        g.lag_sum += lag;

        if r.level == ReadLevel::Session && r.snapshot_seq < r.token {
            self.violations.push(ReadViolation::StaleSessionRead {
                txn: r.txn,
                group: r.group,
                token: r.token,
                snapshot_seq: r.snapshot_seq,
            });
        }
        if r.level == ReadLevel::Stable && r.snapshot_seq > r.stable_seq {
            self.violations.push(ReadViolation::UnstableRead {
                txn: r.txn,
                group: r.group,
                snapshot_seq: r.snapshot_seq,
                stable_seq: r.stable_seq,
            });
        }
        for (item, version) in observed.clone() {
            if version > r.snapshot_seq {
                self.violations.push(ReadViolation::ValueAboveSnapshot {
                    txn: r.txn,
                    item,
                    version,
                    snapshot_seq: r.snapshot_seq,
                });
            }
        }
        if r.level == ReadLevel::Stable {
            self.stable.push(r, observed);
        }
    }

    /// Count an accepted read acknowledgement and check monotonic reads
    /// for its session. Only the session level promises monotonicity;
    /// `Latest` explicitly trades it away.
    fn accept(&mut self, a: ReadAckRecord) {
        if a.at >= self.measure_start {
            self.tally.acked += 1;
            self.tally.ms_sum += a.response_ms;
            self.tally.groups.entry(a.group).or_default().acked += 1;
        }
        if a.level != Some(ReadLevel::Session) {
            return;
        }
        let prev = self
            .session_high
            .entry((a.txn.client, a.group))
            .or_insert(0);
        if a.snapshot_seq < *prev {
            self.violations.push(ReadViolation::SessionRegression {
                client: a.txn.client,
                group: a.group,
                txn: a.txn,
                prev_seq: *prev,
                snapshot_seq: a.snapshot_seq,
            });
        } else {
            *prev = a.snapshot_seq;
        }
    }

    /// The counters the report reads.
    pub fn tally(&self) -> &ReadTally {
        &self.tally
    }

    /// The violations found on arrival, in arrival order.
    pub fn violations(&self) -> &[ReadViolation] {
        &self.violations
    }

    /// The [`ReadLevel::Stable`] reads, in serve order, with the items
    /// each observed.
    pub fn stable(&self) -> &ReadLog {
        &self.stable
    }
}

/// A snapshot-isolation transaction's certification outcome, recorded by
/// the delegate at delivery time (the SI oracle's evidence for the
/// lost-update and dirty-read audits and the per-group commit/abort
/// accounting), as a record that owns its readset and writes. The
/// [`SiLog`] stores it flat: [`Oracle::record_si`] keeps its
/// [`SiOutcome`] and copies the two lists into columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiRecord {
    /// The transaction.
    pub txn: TxnId,
    /// The delegate's group.
    pub group: u32,
    /// The delivery sequence number the read phase executed against.
    pub snapshot: u64,
    /// Items read (outside the transaction's own write buffer), with the
    /// committed versions observed.
    pub readset: Vec<(ItemId, Version)>,
    /// Items written.
    pub writes: Vec<ItemId>,
    /// Certification verdict.
    pub committed: bool,
    /// The delivery sequence number the commit was applied at (0 on
    /// abort).
    pub commit_seq: u64,
}

/// The fixed-size part of an [`SiRecord`]: everything but its readset
/// and writes. 40 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiOutcome {
    /// The transaction.
    pub txn: TxnId,
    /// The delegate's group.
    pub group: u32,
    /// The delivery sequence number the read phase executed against.
    pub snapshot: u64,
    /// Certification verdict.
    pub committed: bool,
    /// The delivery sequence number the commit was applied at (0 on
    /// abort).
    pub commit_seq: u64,
}

/// Snapshot-isolation outcomes in delivery order, with their readsets
/// and the items they wrote.
#[derive(Debug, Default)]
pub struct SiLog {
    outcomes: BlockVec<SiOutcome>,
    /// Each outcome's readset (lockstep with `outcomes`).
    readsets: Ragged<u32, ItemId, Version>,
    /// The items each outcome wrote (lockstep with `outcomes`).
    writes: Ragged<u32, ItemId>,
}

impl SiLog {
    /// Append an outcome, the pairs its snapshot reads observed and the
    /// items it wrote.
    pub(crate) fn push(
        &mut self,
        outcome: SiOutcome,
        readset: impl IntoIterator<Item = (ItemId, Version)>,
        writes: impl IntoIterator<Item = ItemId>,
    ) {
        self.outcomes.push(outcome);
        self.readsets.push(0, readset);
        self.writes
            .push(0, writes.into_iter().map(|item| (item, ())));
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when no outcome was recorded.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The outcomes in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = SiView<'_>> {
        let lists = self.readsets.iter_from(0).zip(self.writes.iter_from(0));
        let outcomes = self.outcomes.iter().zip(lists);
        outcomes.map(|(outcome, ((_, readset), (_, writes)))| SiView {
            outcome,
            readset,
            writes,
        })
    }
}

/// One snapshot-isolation outcome as the audits see it: the
/// [`SiOutcome`] (through `Deref`) plus its readset and writes, borrowed
/// from the [`SiLog`].
#[derive(Clone, Copy)]
pub struct SiView<'a> {
    outcome: &'a SiOutcome,
    readset: Body<'a, ItemId, Version>,
    writes: Body<'a, ItemId>,
}

impl<'a> SiView<'a> {
    /// Items read (outside the transaction's own write buffer), with
    /// the committed versions observed.
    pub fn readset(&self) -> impl Iterator<Item = (ItemId, Version)> + 'a {
        self.readset.iter()
    }

    /// Items written.
    pub fn writes(&self) -> impl Iterator<Item = ItemId> + 'a {
        self.writes.iter().map(|(item, ())| item)
    }
}

impl Deref for SiView<'_> {
    type Target = SiOutcome;

    fn deref(&self) -> &SiOutcome {
        self.outcome
    }
}

impl From<SiView<'_>> for SiRecord {
    fn from(view: SiView<'_>) -> SiRecord {
        SiRecord {
            txn: view.txn,
            group: view.group,
            snapshot: view.snapshot,
            readset: view.readset().collect(),
            writes: view.writes().collect(),
            committed: view.committed,
            commit_seq: view.commit_seq,
        }
    }
}

/// Touched-group record of one committed cross-group transaction.
#[derive(Debug, Clone)]
pub struct XgRecord {
    /// Every group the transaction wrote or read in, ascending.
    pub groups: Vec<u32>,
    /// The coordinator's group (the decision's origin).
    pub coordinator_group: u32,
}

/// Shared run oracle. See the module docs for how the evidence is laid
/// out.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Client-visible acknowledgements of the transactions that went
    /// through a commit path — updates, classic and broadcast read-only,
    /// cross-group — first per transaction. Reads served by the local
    /// read path are not here: count and test through
    /// [`Oracle::acked_count`] and [`Oracle::is_acked`].
    pub acked: TxnTable<AckRecord>,
    /// Acknowledgements of reads served by the local read path, a bit
    /// each (first per transaction, across both tables).
    local_read_acks: TxnSet,
    /// Of those, the ones received at or after the measurement start.
    local_read_acks_in_window: usize,
    /// Server-side commit records (first commit per transaction; the
    /// slices of a cross-group commit merged in).
    pub commits: CommitLog,
    /// Cross-group commits and the groups they touched (the atomicity
    /// oracle audits all-or-nothing over these).
    pub xg: BTreeMap<TxnId, XgRecord>,
    /// Aborted attempts (certification + deadlock victims).
    pub aborts: u64,
    /// Committed attempt acknowledgements received by clients.
    pub commit_acks: u64,
    /// Client-side timeouts (requests that got no reply in time).
    pub timeouts: u64,
    /// The read-freshness oracle: locally served reads and read-only
    /// acknowledgements, audited and counted on arrival.
    pub reads: ReadAudit,
    /// Session reads a lagging replica answered with a redirect, per
    /// serving group.
    pub read_redirects_by_group: BTreeMap<u32, u64>,
    /// Snapshot-isolation certification outcomes, in delegate delivery
    /// order (SI anomaly audits + per-group accounting).
    pub si_txns: SiLog,
}

impl Oracle {
    /// Record a server-side commit (idempotent per transaction: every
    /// replica reports it, only the first report is copied and kept).
    pub fn record_commit(
        &mut self,
        txn: TxnId,
        delegate: NodeId,
        readset: &[(ItemId, Version)],
        writes: &[WriteOp],
    ) {
        let pairs = writes.iter().map(|w| (w.item, w.version));
        self.commits.insert(txn, delegate, readset, pairs);
    }

    /// Record one group's applied slice of a cross-group commit. Unlike
    /// [`Oracle::record_commit`] — idempotent per transaction, which is
    /// right for single-group commits, where every replica reports the
    /// same writes — the slices of a cross-group transaction differ per
    /// group, so each group's writes are merged into the record (the SI
    /// snapshot-containment audit would otherwise see the second group's
    /// versions as written by nobody). Replicas of one group report
    /// identical (item, version) pairs; the dedup keeps one of each.
    pub fn record_commit_slice(&mut self, txn: TxnId, coordinator: NodeId, writes: &[WriteOp]) {
        let pairs = writes.iter().map(|w| (w.item, w.version));
        self.commits.merge_writes(txn, coordinator, pairs);
    }

    /// Record a cross-group commit's touched groups (idempotent).
    pub fn record_xg(&mut self, txn: TxnId, groups: Vec<u32>, coordinator_group: u32) {
        self.xg.entry(txn).or_insert(XgRecord {
            groups,
            coordinator_group,
        });
    }

    /// Count read acknowledgements, and acknowledgements inside the
    /// window, as measured from `start` on (the end of the warm-up; the
    /// run sets it when it is built).
    pub fn measure_reads_from(&mut self, start: SimTime) {
        self.reads.measure_start = start;
    }

    /// Record a locally served read (server side, at serve time) with
    /// the values its reply carries: audited and counted on arrival,
    /// and kept, items and versions copied, only at the stable level.
    pub fn record_read(&mut self, rec: ReadRecord, values: &[(ItemId, Value, Version)]) {
        let observed = values.iter().map(|&(item, _, version)| (item, version));
        self.reads.serve(rec, observed);
    }

    /// Record a read-only transaction's acknowledgement (client side, in
    /// session-accept order — the monotonic-reads evidence), audited and
    /// counted on arrival.
    pub fn record_read_ack(&mut self, rec: ReadAckRecord) {
        self.reads.accept(rec);
    }

    /// Record a snapshot-isolation certification outcome (delegate side,
    /// at delivery time).
    pub fn record_si(&mut self, rec: SiRecord) {
        let outcome = SiOutcome {
            txn: rec.txn,
            group: rec.group,
            snapshot: rec.snapshot,
            committed: rec.committed,
            commit_seq: rec.commit_seq,
        };
        self.record_si_outcome(outcome, &rec.readset, rec.writes);
    }

    /// As [`Oracle::record_si`], from borrowed lists: the readset's
    /// pairs and the written items are copied into the log's columns.
    pub fn record_si_outcome(
        &mut self,
        outcome: SiOutcome,
        readset: &[(ItemId, Version)],
        writes: impl IntoIterator<Item = ItemId>,
    ) {
        self.si_txns.push(outcome, readset.iter().copied(), writes);
    }

    /// Count a session-read redirect answered by a replica of `group`.
    pub fn record_read_redirect(&mut self, group: u32) {
        *self.read_redirects_by_group.entry(group).or_insert(0) += 1;
    }

    /// Session-read redirects over the whole run, all groups.
    pub fn read_redirects(&self) -> u64 {
        self.read_redirects_by_group.values().sum()
    }

    /// Record a client-side acknowledgement of a transaction that went
    /// through a commit path.
    pub fn record_ack(&mut self, txn: TxnId, at: SimTime) {
        self.commit_acks += 1;
        if !self.local_read_acks.contains(txn) {
            self.acked.insert_with(txn, || AckRecord { at });
        }
    }

    /// Record the client's acknowledgement of a read served by the local
    /// read path: one bit, and one more in the window count if `at` is
    /// at or after the measurement start.
    pub fn record_local_read_ack(&mut self, txn: TxnId, at: SimTime) {
        self.commit_acks += 1;
        if !self.acked.contains(txn)
            && self.local_read_acks.insert(txn)
            && at >= self.reads.measure_start
        {
            self.local_read_acks_in_window += 1;
        }
    }

    /// Transactions acknowledged to their client, whole run.
    pub fn acked_count(&self) -> usize {
        self.acked.len() + self.local_read_acks.len()
    }

    /// True if `txn` was acknowledged to its client.
    pub fn is_acked(&self, txn: TxnId) -> bool {
        self.acked.contains(txn) || self.local_read_acks.contains(txn)
    }

    /// Transactions first acknowledged at or after the measurement
    /// start.
    pub fn acked_in_window(&self) -> usize {
        let start = self.reads.measure_start;
        let committed = self.acked.values().filter(|a| a.at >= start).count();
        committed + self.local_read_acks_in_window
    }

    /// Abort rate over all answered attempts.
    pub fn abort_rate(&self) -> f64 {
        let total = self.aborts + self.commit_acks;
        if total == 0 {
            return 0.0;
        }
        self.aborts as f64 / total as f64
    }
}

/// A transaction the client was told committed but that no surviving
/// replica knows about: the durability violation the safety criteria are
/// about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostTransaction {
    /// The lost transaction.
    pub txn: TxnId,
}

/// Check for lost transactions: every acknowledged *update* transaction
/// must be committed on at least one *live* replica (from where the group
/// will re-propagate it). Read-only transactions have no durability
/// footprint — they commit locally without entering any committed-
/// transaction table — so only transactions with a recorded commit (i.e.
/// with writes) are audited. `replicas` pairs each engine with its
/// liveness.
pub fn check_no_loss(oracle: &Oracle, replicas: &[(&DbEngine, bool)]) -> Vec<LostTransaction> {
    let mut lost = Vec::new();
    for txn in oracle.acked.keys() {
        if !oracle.commits.contains(txn) {
            continue; // read-only: nothing durable was promised
        }
        let present = replicas
            .iter()
            .any(|(db, live)| *live && db.is_committed(txn));
        if !present {
            lost.push(LostTransaction { txn });
        }
    }
    lost
}

/// Check replica convergence: all live replicas hold the same committed
/// state (digest equality). Returns the set of distinct digests observed
/// (length 1 = consistent).
pub fn check_convergence(replicas: &[(&DbEngine, bool)]) -> Vec<u64> {
    let mut digests: Vec<u64> = replicas
        .iter()
        .filter(|(_, live)| *live)
        .map(|(db, _)| db.state_digest())
        .collect();
    digests.sort_unstable();
    digests.dedup();
    digests
}

/// A lazy-replication lost update (§7): two acknowledged transactions
/// wrote the same item having read the same version of it — serially, one
/// would have observed the other, so one update was silently destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostUpdate {
    /// First transaction.
    pub a: TxnId,
    /// Second transaction.
    pub b: TxnId,
    /// The contended item.
    pub item: ItemId,
}

/// Buckets in one of the lost-update audit's bitmaps at most: 2^20, 128
/// KiB.
const MAX_BUCKETS: usize = 1 << 20;

/// The lost-update audit's hash of a candidate's `(item, version read)`:
/// a splitmix64 mix. Its top bits pick a bucket, its low bits a slice.
fn candidate_key(item: ItemId, read: Version) -> u64 {
    let mut x = (read.rotate_left(32) ^ u64::from(item.0)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bitmap of a power-of-two number of buckets, addressed by the top
/// bits of a [`candidate_key`].
struct Buckets {
    words: Vec<u64>,
    /// `64 − log2(buckets)`.
    shift: u32,
}

impl Buckets {
    /// `buckets` clear buckets: a power of two, 64 or more.
    fn new(buckets: usize) -> Buckets {
        Buckets {
            words: vec![0; buckets / 64],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    fn bit(&self, key: u64) -> (usize, u64) {
        let b = (key >> self.shift) as usize;
        (b / 64, 1 << (b % 64))
    }

    /// Set `key`'s bucket; true if it was set already.
    fn set(&mut self, key: u64) -> bool {
        let (word, bit) = self.bit(key);
        self.words.get_mut(word).is_some_and(|w| {
            let was = *w & bit != 0;
            *w |= bit;
            was
        })
    }

    /// True if `key`'s bucket is set.
    fn contains(&self, key: u64) -> bool {
        let (word, bit) = self.bit(key);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }
}

/// Detect lost updates among acknowledged commits.
///
/// Only a write whose item the same transaction read (the first readset
/// entry for it) can take part, so those are the candidates. On the
/// classic and lazy pipelines that is every write, blind ones included:
/// execution records the version each write overwrites in the readset
/// (`(Operation::Write, None)` in `run_dsm_read_phase`, and the lazy
/// executor's write arm), so a blind-write workload such as `ordering`
/// yields a candidate per write. A snapshot write is a candidate only if
/// its transaction read the item first, and a cross-group slice, which
/// is recorded without a readset, never is. Sorted by item, version read
/// and transaction, the candidates of one `(item, version read)` form a
/// run, and every pair of a run is a lost update: the pairs come out by
/// item, then version read, then `a` before `b` in id order.
///
/// The audit runs when every log is at its largest, and a clean run has
/// no pair, so it stores only the candidates that might have a partner.
/// A counting pass sets each candidate's bucket, by a hash of
/// `(item, version read)`, in a "seen once" bitmap and, if it was set
/// already, in a "seen again" one — about 8 buckets per candidate, 2
/// bytes for the two. Only the candidates whose bucket was seen again
/// are stored (24 bytes each, in a vector of exactly their number),
/// sorted and paired. Every run shares a bucket, so every pair survives;
/// a candidate that only shares a bucket by hash sits alone in its run
/// after the sort and pairs with nothing. A bitmap has at most 2^20
/// buckets (128 KiB): past about 131 072 candidates the hash space is
/// taken in slices, so what the audit holds at once stops growing with
/// the run.
pub fn check_lost_updates(oracle: &Oracle) -> Vec<LostUpdate> {
    lost_updates_in_slices(oracle, MAX_BUCKETS)
}

/// [`check_lost_updates`] with bitmaps of at most `max_buckets` (a power
/// of two, 64 or more): with more candidates than an eighth of that, the
/// hash space is taken in slices, a pass of its own each, and the pairs
/// the slices found are put back in run order.
fn lost_updates_in_slices(oracle: &Oracle, max_buckets: usize) -> Vec<LostUpdate> {
    /// The derived order is the sort order: item, version read, then
    /// the transaction (`client`, `seq`). 24 bytes.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Candidate {
        item: ItemId,
        read: Version,
        client: u32,
        seq: u64,
    }
    let candidates = || {
        oracle
            .commits
            .iter()
            .filter(|&(txn, _)| oracle.is_acked(txn))
            .flat_map(|(txn, rec)| {
                rec.writes().filter_map(move |(item, _)| {
                    let (_, read) = rec.readset().find(|&(i, _)| i == item)?;
                    Some(Candidate {
                        item,
                        read,
                        client: txn.client,
                        seq: txn.seq,
                    })
                })
            })
    };
    let n = candidates().count();
    if n < 2 {
        return Vec::new();
    }
    let wanted = n.saturating_mul(8).next_power_of_two().max(64);
    let buckets = wanted.min(max_buckets);
    // Both powers of two: the slice is the key's low bits.
    let slices = (wanted / buckets) as u64;
    let key = |c: &Candidate| candidate_key(c.item, c.read);
    let txn = |c: &Candidate| TxnId {
        client: c.client,
        seq: c.seq,
    };
    // Each pair with the version its transactions read, the sort key
    // between slices.
    let mut found: Vec<(Version, LostUpdate)> = Vec::new();
    for slice in 0..slices {
        let mine = |key: u64| key & (slices - 1) == slice;
        let again = {
            let mut once = Buckets::new(buckets);
            let mut again = Buckets::new(buckets);
            for k in candidates().map(|c| key(&c)).filter(|&k| mine(k)) {
                if once.set(k) {
                    again.set(k);
                }
            }
            again
        };
        let paired = |c: &Candidate| {
            let k = key(c);
            mine(k) && again.contains(k)
        };
        let mut sorted = Vec::with_capacity(candidates().filter(paired).count());
        sorted.extend(candidates().filter(paired));
        drop(again);
        sorted.sort_unstable();
        for run in sorted.chunk_by(|x, y| (x.item, x.read) == (y.item, y.read)) {
            for (i, a) in run.iter().enumerate() {
                for b in run.iter().skip(i + 1) {
                    let pair = LostUpdate {
                        a: txn(a),
                        b: txn(b),
                        item: a.item,
                    };
                    found.push((a.read, pair));
                }
            }
        }
    }
    if slices > 1 {
        // Stable: a run lies in one slice, and keeps its own order.
        found.sort_by_key(|&(read, pair)| (pair.item, read));
    }
    found.into_iter().map(|(_, pair)| pair).collect()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn t(seq: u64) -> TxnId {
        TxnId { client: 0, seq }
    }

    fn w(item: u32, version: u64) -> WriteOp {
        WriteOp {
            item: ItemId(item),
            value: 1,
            version,
        }
    }

    #[test]
    fn abort_rate_counts_both_outcomes() {
        let mut o = Oracle::default();
        o.record_ack(t(1), SimTime::ZERO);
        o.record_ack(t(2), SimTime::ZERO);
        o.aborts = 2;
        assert!((o.abort_rate() - 0.5).abs() < 1e-12);
        assert_eq!(Oracle::default().abort_rate(), 0.0);
    }

    #[test]
    fn duplicate_acks_dedup() {
        let mut o = Oracle::default();
        o.record_ack(t(1), SimTime::ZERO);
        o.record_ack(t(1), SimTime::from_millis(5));
        assert_eq!(o.acked.len(), 1);
        assert_eq!(o.commit_acks, 2);
        let first = o.acked.get(t(1)).map(|a| a.at);
        assert_eq!(first, Some(SimTime::ZERO), "the first ack wins");
    }

    #[test]
    fn lost_update_detection() {
        let mut o = Oracle::default();
        // Both read version 0 of item 7 and wrote it: lost update.
        o.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o.record_commit(t(2), NodeId(1), &[(ItemId(7), 0)], &[w(7, 101)]);
        o.record_ack(t(1), SimTime::ZERO);
        o.record_ack(t(2), SimTime::ZERO);
        let lu = check_lost_updates(&o);
        assert_eq!(lu.len(), 1);
        assert_eq!(lu[0].item, ItemId(7));
        // If the second read the first's version, it is a normal overwrite.
        let mut o2 = Oracle::default();
        o2.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o2.record_commit(t(2), NodeId(1), &[(ItemId(7), 100)], &[w(7, 101)]);
        o2.record_ack(t(1), SimTime::ZERO);
        o2.record_ack(t(2), SimTime::ZERO);
        assert!(check_lost_updates(&o2).is_empty());
    }

    #[test]
    fn three_readers_of_one_version_make_three_pairs() {
        let mut o = Oracle::default();
        for seq in [3, 1, 2] {
            o.record_commit(t(seq), NodeId(0), &[(ItemId(7), 5)], &[w(7, 10 + seq)]);
            o.record_ack(t(seq), SimTime::ZERO);
        }
        // A blind write of the same item takes part in nothing.
        o.record_commit(t(4), NodeId(0), &[], &[w(7, 20)]);
        o.record_ack(t(4), SimTime::ZERO);
        let pairs: Vec<_> = check_lost_updates(&o)
            .into_iter()
            .map(|p| (p.a.seq, p.b.seq))
            .collect();
        assert_eq!(pairs, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn unacked_commits_do_not_count_as_lost_updates() {
        let mut o = Oracle::default();
        o.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o.record_commit(t(2), NodeId(1), &[(ItemId(7), 0)], &[w(7, 101)]);
        // Neither acked.
        assert!(check_lost_updates(&o).is_empty());
    }

    #[test]
    fn cross_group_slices_merge_into_one_record() {
        let mut o = Oracle::default();
        // Two replicas of group 0 and one of group 1 report their slices.
        o.record_commit_slice(t(4), NodeId(2), &[w(1, 10)]);
        o.record_commit_slice(t(4), NodeId(5), &[w(1, 10)]);
        o.record_commit_slice(t(4), NodeId(5), &[w(9, 11)]);
        let rec = o.commits.get(t(4)).expect("recorded");
        assert_eq!(rec.delegate(), NodeId(2), "the first report names it");
        let writes: Vec<_> = rec.writes().collect();
        assert_eq!(writes, vec![(ItemId(1), 10), (ItemId(9), 11)]);
        // A later single-group report of the same id changes nothing.
        o.record_commit(t(4), NodeId(0), &[(ItemId(1), 3)], &[]);
        assert_eq!(o.commits.get(t(4)).expect("kept").readset().count(), 0);
    }

    #[test]
    fn evidence_records_stay_small() {
        use std::mem::size_of;
        // Each with the 4-byte ends of its lists, kept beside it.
        assert!(size_of::<ReadRecord>() + size_of::<u32>() <= 64 + 4);
        assert!(size_of::<SiOutcome>() <= 40);
        assert!(size_of::<SiOutcome>() + 2 * size_of::<u32>() <= 48);
        assert!(size_of::<ReadAckRecord>() <= 48);
        assert!(size_of::<AckRecord>() <= 8);
        // The end of its pairs included.
        assert!(size_of::<CommitRecord>() <= 12);
    }

    /// The lost-update audit before it counted into buckets: every
    /// candidate materialised, sorted and paired.
    fn lost_updates_materialising_every_candidate(oracle: &Oracle) -> Vec<LostUpdate> {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Candidate {
            item: ItemId,
            read: Version,
            client: u32,
            seq: u64,
        }
        let candidates = || {
            oracle
                .commits
                .iter()
                .filter(|&(txn, _)| oracle.is_acked(txn))
                .flat_map(|(txn, rec)| {
                    rec.writes().filter_map(move |(item, _)| {
                        let (_, read) = rec.readset().find(|&(i, _)| i == item)?;
                        Some(Candidate {
                            item,
                            read,
                            client: txn.client,
                            seq: txn.seq,
                        })
                    })
                })
        };
        let mut sorted = Vec::with_capacity(candidates().count());
        sorted.extend(candidates());
        sorted.sort_unstable();
        let txn = |c: &Candidate| TxnId {
            client: c.client,
            seq: c.seq,
        };
        let mut out = Vec::new();
        for run in sorted.chunk_by(|x, y| (x.item, x.read) == (y.item, y.read)) {
            for (i, a) in run.iter().enumerate() {
                for b in run.iter().skip(i + 1) {
                    out.push(LostUpdate {
                        a: txn(a),
                        b: txn(b),
                        item: a.item,
                    });
                }
            }
        }
        out
    }

    /// One generated commit for the bucket audit: readset pairs (raw,
    /// reduced into the case's domain), how many of them it also wrote,
    /// other items it wrote, whether it was acknowledged, and how it was
    /// recorded — 0 to 3 whole, 4 whole plus a later cross-group slice,
    /// 5 as a slice only, 6 with its readset dropped.
    type BucketCommit = (Vec<(u32, u64)>, usize, Vec<u32>, bool, u8);

    fn bucket_commit() -> impl Strategy<Value = BucketCommit> {
        (
            proptest::collection::vec((0u32..1_000_000, 0u64..1_000_000), 0..5),
            0usize..5,
            proptest::collection::vec(0u32..1_000_000, 0..3),
            any::<bool>(),
            0u8..7,
        )
    }

    proptest! {
        /// The bucket-counting audit reports exactly the pairs, in the
        /// same order, as materialising every candidate did: over domains
        /// where `(item, version read)` collides often, where it almost
        /// never does, and where every candidate shares one key; with
        /// partly acknowledged runs, slices merged into a recorded commit
        /// or recorded alone, blind writes, no candidates at all, and
        /// candidate counts across bitmaps of 64 to 8 192 buckets — in one
        /// slice, and with the bitmaps capped so the hash space is taken
        /// in several.
        #[test]
        fn bucket_audit_matches_materialising_every_candidate(
            domain in prop_oneof![Just((1u32, 1u64)), Just((6, 3)), Just((5_000, 1_000))],
            commits in proptest::collection::vec(bucket_commit(), 0..200),
        ) {
            let (items, versions) = domain;
            let mut o = Oracle::default();
            for (n, (reads, overwritten, extra, acked, kind)) in commits.into_iter().enumerate() {
                let txn = TxnId { client: (n % 5) as u32, seq: n as u64 };
                let readset: Vec<(ItemId, Version)> = reads
                    .iter()
                    .map(|&(i, v)| (ItemId(i % items), v % versions))
                    .collect();
                let version = 100 + n as u64;
                let writes: Vec<WriteOp> = readset
                    .iter()
                    .take(overwritten)
                    .map(|&(i, _)| w(i.0, version))
                    .chain(extra.iter().map(|&i| w(i % items, version)))
                    .collect();
                match kind {
                    0..=3 => o.record_commit(txn, NodeId(0), &readset, &writes),
                    4 => {
                        let (first, second) = writes.split_at(writes.len() / 2);
                        o.record_commit(txn, NodeId(0), &readset, first);
                        // A second group's slice: other versions, and the
                        // readset's items again.
                        let slice: Vec<WriteOp> = readset
                            .iter()
                            .map(|&(i, _)| w(i.0, version + 1))
                            .chain(second.iter().copied())
                            .collect();
                        o.record_commit_slice(txn, NodeId(3), &slice);
                    }
                    5 => o.record_commit_slice(txn, NodeId(3), &writes),
                    _ => o.record_commit(txn, NodeId(0), &[], &writes),
                }
                if acked {
                    o.record_ack(txn, SimTime::ZERO);
                }
            }
            let want = lost_updates_materialising_every_candidate(&o);
            prop_assert_eq!(&check_lost_updates(&o), &want);
            // Bitmaps capped small: the same pairs through 2 to 128 slices.
            for max_buckets in [64, 256, 1024] {
                prop_assert_eq!(&lost_updates_in_slices(&o, max_buckets), &want);
            }
        }

        /// The SI log returns every outcome with its own readset and
        /// writes, in delivery order, whatever the lengths (0 to more than
        /// a column block), whether recorded owned or borrowed.
        #[test]
        fn si_log_behaves_like_a_vec_of_owned_records(
            recs in proptest::collection::vec(
                (
                    prop_oneof![0usize..6, 500usize..700],
                    prop_oneof![0usize..6, 500usize..700],
                    any::<bool>(),
                    any::<bool>(),
                ),
                0..12,
            ),
        ) {
            let mut o = Oracle::default();
            let mut model: Vec<SiRecord> = Vec::new();
            for (n, (reads, writes, committed, borrowed)) in recs.into_iter().enumerate() {
                let rec = SiRecord {
                    txn: TxnId { client: (n % 3) as u32, seq: n as u64 },
                    group: (n % 4) as u32,
                    snapshot: 10 * n as u64,
                    readset: (0..reads).map(|k| (ItemId((n + k) as u32), (n * k) as u64)).collect(),
                    writes: (0..writes).map(|k| ItemId((n * 7 + k) as u32)).collect(),
                    committed,
                    commit_seq: if committed { 10 * n as u64 + 3 } else { 0 },
                };
                if borrowed {
                    let outcome = SiOutcome {
                        txn: rec.txn,
                        group: rec.group,
                        snapshot: rec.snapshot,
                        committed: rec.committed,
                        commit_seq: rec.commit_seq,
                    };
                    o.record_si_outcome(outcome, &rec.readset, rec.writes.iter().copied());
                } else {
                    o.record_si(rec.clone());
                }
                model.push(rec);
                prop_assert_eq!(o.si_txns.len(), model.len());
            }
            prop_assert_eq!(o.si_txns.is_empty(), model.is_empty());
            let seen: Vec<SiRecord> = o.si_txns.iter().map(SiRecord::from).collect();
            prop_assert_eq!(&seen, &model);
        }
    }

    fn read(seq: u64, snapshot_seq: u64) -> ReadRecord {
        ReadRecord {
            txn: TxnId { client: 3, seq },
            group: (seq % 2) as u32,
            level: ReadLevel::Session,
            token: seq / 2,
            snapshot_seq,
            stable_seq: snapshot_seq / 2,
            applied_seq: snapshot_seq + 1,
            at: SimTime::from_millis(seq),
        }
    }

    /// The audit this one replaces: every acknowledged commit's writes
    /// indexed by item in a tree of vectors, then every pair of entries
    /// of an item compared.
    fn lost_updates_by_item_tree(oracle: &Oracle) -> Vec<LostUpdate> {
        type Entry = (TxnId, Option<Version>, Version);
        let mut by_item: BTreeMap<ItemId, Vec<Entry>> = BTreeMap::new();
        for (txn, rec) in oracle.commits.iter() {
            if !oracle.acked.contains(txn) {
                continue;
            }
            for (item, version) in rec.writes() {
                let read_v = rec.readset().find(|&(i, _)| i == item).map(|(_, v)| v);
                by_item
                    .entry(item)
                    .or_default()
                    .push((txn, read_v, version));
            }
        }
        let mut out = Vec::new();
        for (item, entries) in by_item {
            for (i, &(ta, ra, _)) in entries.iter().enumerate() {
                for &(tb, rb, _) in entries.iter().skip(i + 1) {
                    if let (Some(ra), Some(rb)) = (ra, rb) {
                        if ra == rb {
                            out.push(LostUpdate { a: ta, b: tb, item });
                        }
                    }
                }
            }
        }
        out
    }

    fn sorted(mut pairs: Vec<LostUpdate>) -> Vec<(ItemId, TxnId, TxnId)> {
        let mut keys: Vec<_> = pairs.drain(..).map(|p| (p.item, p.a, p.b)).collect();
        keys.sort_unstable();
        keys
    }

    /// One generated commit: its readset, its writes, whether it was
    /// acknowledged, and whether it arrives as cross-group slices.
    type GenCommit = (Vec<(u32, u64)>, Vec<u32>, bool, bool);

    fn commit_strategy() -> impl Strategy<Value = GenCommit> {
        (
            // Few items and versions, so several transactions read one
            // version of one item; an empty readset is a blind write.
            proptest::collection::vec((0u32..4, 0u64..3), 0..4),
            proptest::collection::vec(0u32..4, 0..4),
            any::<bool>(),
            any::<bool>(),
        )
    }

    type Pairs = Vec<(ItemId, Version)>;

    /// A commit record that owns its readset and write set.
    type OwnedCommit = (NodeId, Pairs, Pairs);

    /// The commit table the [`CommitLog`] replaces: records that own
    /// their pairs, by transaction, the first report winning.
    #[derive(Debug, Default)]
    struct OwnedCommits(BTreeMap<TxnId, OwnedCommit>);

    impl OwnedCommits {
        fn record_commit(
            &mut self,
            txn: TxnId,
            delegate: NodeId,
            readset: &[(ItemId, Version)],
            writes: &[WriteOp],
        ) {
            let writes = writes.iter().map(|w| (w.item, w.version)).collect();
            self.0
                .entry(txn)
                .or_insert((delegate, readset.to_vec(), writes));
        }

        fn record_commit_slice(&mut self, txn: TxnId, coordinator: NodeId, writes: &[WriteOp]) {
            let record = self.0.entry(txn);
            let (_, _, merged) = record.or_insert((coordinator, Vec::new(), Vec::new()));
            for w in writes {
                if !merged.contains(&(w.item, w.version)) {
                    merged.push((w.item, w.version));
                }
            }
        }
    }

    fn owned(c: CommitView<'_>) -> OwnedCommit {
        (c.delegate(), c.readset().collect(), c.writes().collect())
    }

    proptest! {
        /// Any interleaving of whole commits and cross-group slices —
        /// repeated ids, repeated and overlapping slices, bodies longer
        /// than a column block — leaves the commit log equal to the
        /// table of owned records: the same lookups, length and
        /// iteration order, the first report's delegate and readset, and
        /// the merged write sets, deduplicated by `(item, version)`.
        #[test]
        fn commit_log_behaves_like_a_table_of_owned_records(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..8, 0u32..4, prop_oneof![0usize..5, 500usize..700]),
                1..40,
            ),
        ) {
            let mut o = Oracle::default();
            let mut model = OwnedCommits::default();
            for (i, (slice, seq, node, len)) in ops.into_iter().enumerate() {
                let txn = TxnId { client: (seq % 3) as u32, seq };
                let writes: Vec<WriteOp> =
                    (0..len).map(|k| w((k % 7) as u32 + node, (k % 3) as u64 + seq)).collect();
                if slice {
                    o.record_commit_slice(txn, NodeId(node), &writes);
                    model.record_commit_slice(txn, NodeId(node), &writes);
                } else {
                    let readset: Vec<(ItemId, Version)> =
                        (0..len % 4).map(|k| (ItemId(k as u32), i as u64)).collect();
                    o.record_commit(txn, NodeId(node), &readset, &writes);
                    model.record_commit(txn, NodeId(node), &readset, &writes);
                }
                prop_assert_eq!(o.commits.len(), model.0.len());
                prop_assert_eq!(o.commits.is_empty(), model.0.is_empty());
                for probe in (0..8).map(|seq| TxnId { client: (seq % 3) as u32, seq }) {
                    prop_assert_eq!(o.commits.contains(probe), model.0.contains_key(&probe));
                    prop_assert_eq!(o.commits.get(probe).map(owned), model.0.get(&probe).cloned());
                }
            }
            let got: Vec<(TxnId, OwnedCommit)> = o.commits.iter().map(|(t, c)| (t, owned(c))).collect();
            let want: Vec<(TxnId, OwnedCommit)> = model.0.iter().map(|(&t, c)| (t, c.clone())).collect();
            prop_assert_eq!(got, want);
        }

        /// The sorting audit finds exactly the pairs the tree of
        /// vectors found, over blind writes, unacknowledged commits,
        /// cross-group slices and transactions writing an item twice.
        #[test]
        fn sorting_audit_matches_the_item_tree(
            commits in proptest::collection::vec(commit_strategy(), 0..24),
        ) {
            let mut o = Oracle::default();
            for (n, (readset, writes, acked, sliced)) in commits.into_iter().enumerate() {
                let txn = TxnId { client: (n % 3) as u32, seq: n as u64 };
                let readset: Vec<(ItemId, Version)> =
                    readset.into_iter().map(|(i, v)| (ItemId(i), v)).collect();
                let writes: Vec<WriteOp> =
                    writes.into_iter().map(|i| w(i, 100 + n as u64)).collect();
                if sliced {
                    // A cross-group commit records its readset nowhere:
                    // each group merges its own write slice.
                    let (first, second) = writes.split_at(writes.len() / 2);
                    o.record_commit_slice(txn, NodeId(0), first);
                    o.record_commit_slice(txn, NodeId(3), second);
                } else {
                    o.record_commit(txn, NodeId(0), &readset, &writes);
                }
                if acked {
                    o.record_ack(txn, SimTime::ZERO);
                }
            }
            let new = check_lost_updates(&o);
            let old = lost_updates_by_item_tree(&o);
            prop_assert_eq!(new.len(), old.len());
            prop_assert_eq!(sorted(new), sorted(old));
        }

        /// The read log returns every record with its own items, in
        /// serve order, whatever the lengths (0 to more than a column
        /// block).
        #[test]
        fn read_log_behaves_like_records_that_own_their_items(
            lens in proptest::collection::vec(
                prop_oneof![0usize..6, Just(0usize), 500usize..700],
                0..12,
            ),
        ) {
            let mut log = ReadLog::default();
            let mut model: Vec<(ReadRecord, Vec<(ItemId, Version)>)> = Vec::new();
            for (n, len) in lens.into_iter().enumerate() {
                let record = read(n as u64, 10 * n as u64);
                let items: Vec<(ItemId, Version)> =
                    (0..len).map(|k| (ItemId((n + k) as u32), (n * k) as u64)).collect();
                log.push(record, items.iter().copied());
                model.push((record, items));
                prop_assert_eq!(log.len(), model.len());
            }
            prop_assert_eq!(log.is_empty(), model.is_empty());
            let seen: Vec<(ReadRecord, Vec<(ItemId, Version)>)> =
                log.iter().map(|r| (*r, r.items().collect())).collect();
            prop_assert_eq!(&seen, &model);
        }
    }

    /// The one acknowledgement table the split replaces: every
    /// acknowledgement — commit path or local read — in one
    /// [`TxnTable`], the first per transaction winning, plus the count
    /// of them all. The flag marks a local read's.
    #[derive(Default)]
    struct OneAckTable {
        acked: TxnTable<(SimTime, bool)>,
        commit_acks: u64,
    }

    impl OneAckTable {
        fn record(&mut self, txn: TxnId, at: SimTime, local: bool) {
            self.commit_acks += 1;
            self.acked.insert_with(txn, || (at, local));
        }
    }

    proptest! {
        /// The split table — commit-path acknowledgements as records,
        /// local-read ones as bits and a window count — answers every
        /// question the one table answered, over update, classic
        /// read-only and local-read acknowledgements of few ids (so
        /// duplicates, across the two paths too), on both sides of the
        /// measurement start.
        #[test]
        fn split_acks_behave_like_one_table(
            acks in proptest::collection::vec((0u8..3, 0u32..3, 0u64..10, 0u64..20), 0..60),
        ) {
            let start = SimTime::from_millis(10);
            let mut o = Oracle::default();
            o.measure_reads_from(start);
            let mut model = OneAckTable::default();
            for (path, client, seq, ms) in acks {
                let (txn, at) = (TxnId { client, seq }, SimTime::from_millis(ms));
                let read_ack = |level| ReadAckRecord {
                    txn,
                    group: 0,
                    level,
                    snapshot_seq: seq,
                    at,
                    response_ms: 1.0,
                };
                match path {
                    // An update.
                    0 => o.record_ack(txn, at),
                    // A read-only transaction on the classic pipeline.
                    1 => {
                        o.record_ack(txn, at);
                        o.record_read_ack(read_ack(None));
                    }
                    // A read served by the local read path.
                    _ => {
                        o.record_local_read_ack(txn, at);
                        o.record_read_ack(read_ack(Some(ReadLevel::Latest)));
                    }
                }
                model.record(txn, at, path == 2);
                prop_assert_eq!(o.acked_count(), model.acked.len());
                prop_assert_eq!(o.commit_acks, model.commit_acks);
                let in_window = model.acked.values().filter(|&&(at, _)| at >= start).count();
                prop_assert_eq!(o.acked_in_window(), in_window);
            }
            for probe in (0..3).flat_map(|client| (0..11).map(move |seq| TxnId { client, seq })) {
                prop_assert_eq!(o.is_acked(probe), model.acked.contains(probe));
            }
            let got: Vec<(TxnId, SimTime)> = o.acked.iter().map(|(t, a)| (t, a.at)).collect();
            let want: Vec<(TxnId, SimTime)> = model
                .acked
                .iter()
                .filter(|(_, &(_, local))| !local)
                .map(|(t, &(at, _))| (t, at))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn record_read_keeps_the_reply_items_and_versions() {
        let mut o = Oracle::default();
        let stable = |seq, snapshot| ReadRecord {
            level: ReadLevel::Stable,
            ..read(seq, snapshot)
        };
        o.record_read(stable(1, 8), &[(ItemId(4), -3, 7), (ItemId(2), 0, 8)]);
        o.record_read(read(2, 9), &[(ItemId(5), 1, 9)]);
        o.record_read(stable(3, 9), &[]);
        let views: Vec<_> = o
            .reads
            .stable()
            .iter()
            .map(|r| (r.txn.seq, r.items().collect::<Vec<_>>()))
            .collect();
        assert_eq!(
            views,
            vec![(1, vec![(ItemId(4), 7), (ItemId(2), 8)]), (3, vec![])]
        );
        assert_eq!(o.reads.tally().served, 3, "every read is counted");
    }
}
