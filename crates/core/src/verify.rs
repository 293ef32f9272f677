//! Verification: the oracle records what clients were told and what
//! servers committed; after a run (and its crash schedule) the checks
//! decide whether any *acknowledged* transaction was lost, whether the
//! replicas converged, and whether lazy replication produced lost
//! updates (§7).

use std::collections::BTreeMap;

use groupsafe_db::{DbEngine, ItemId, TxnId, Version, WriteOp};
use groupsafe_net::NodeId;
use groupsafe_sim::{BlockVec, SimTime};

use crate::reads::ReadLevel;

/// A commit as recorded at the replica that processed it.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// The delegate that executed the transaction.
    pub delegate: NodeId,
    /// Items read with observed versions.
    pub readset: Vec<(ItemId, Version)>,
    /// Writes applied.
    pub writes: Vec<WriteOp>,
}

/// An acknowledgement as observed by the client.
#[derive(Debug, Clone, Copy)]
pub struct AckRecord {
    /// When the client received the commit notification.
    pub at: SimTime,
    /// Response time of the successful attempt, milliseconds.
    pub response_ms: f64,
}

/// A locally served read, as recorded by the replica that served it
/// (the read-freshness oracle's server-side evidence).
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// The read transaction.
    pub txn: TxnId,
    /// The issuing session (numeric client id).
    pub client: u32,
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
    /// Items observed, with the committed versions returned.
    pub items: Vec<(ItemId, Version)>,
}

/// A read-only transaction's acknowledgement as accepted by the client
/// (the read-freshness oracle's session-order evidence; `level` is
/// `None` for reads that rode the classic or broadcast pipeline).
#[derive(Debug, Clone)]
pub struct ReadAckRecord {
    /// The read transaction.
    pub txn: TxnId,
    /// The accepting session (numeric client id).
    pub client: u32,
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

/// A snapshot-isolation transaction's certification outcome, recorded by
/// the delegate at delivery time (the SI oracle's evidence for the
/// lost-update and dirty-read audits and the per-group commit/abort
/// accounting).
#[derive(Debug, Clone)]
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

/// Touched-group record of one committed cross-group transaction.
#[derive(Debug, Clone)]
pub struct XgRecord {
    /// Every group the transaction wrote or read in, ascending.
    pub groups: Vec<u32>,
    /// The coordinator's group (the decision's origin).
    pub coordinator_group: u32,
}

/// Shared run oracle.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Client-visible commit acknowledgements.
    pub acked: BTreeMap<TxnId, AckRecord>,
    /// Server-side commit records (first commit per transaction).
    pub commits: BTreeMap<TxnId, CommitRecord>,
    /// Cross-group commits and the groups they touched (the atomicity
    /// oracle audits all-or-nothing over these).
    pub xg: BTreeMap<TxnId, XgRecord>,
    /// Aborted attempts (certification + deadlock victims).
    pub aborts: u64,
    /// Committed attempt acknowledgements received by clients.
    pub commit_acks: u64,
    /// Client-side timeouts (requests that got no reply in time).
    pub timeouts: u64,
    /// Locally served reads, in serve order (read-freshness oracle).
    /// Grow-only over a run, like `read_acks`: a [`BlockVec`] adds a
    /// block at a time where a `Vec` would copy itself at every doubling.
    pub reads: BlockVec<ReadRecord>,
    /// Read-only transaction acknowledgements, in client-accept order.
    pub read_acks: BlockVec<ReadAckRecord>,
    /// Session reads a lagging replica answered with a redirect, per
    /// serving group.
    pub read_redirects_by_group: BTreeMap<u32, u64>,
    /// Snapshot-isolation certification outcomes, in delegate delivery
    /// order (SI anomaly audits + per-group accounting).
    pub si_txns: Vec<SiRecord>,
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
        self.commits.entry(txn).or_insert_with(|| CommitRecord {
            delegate,
            readset: readset.to_vec(),
            writes: writes.to_vec(),
        });
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
        let rec = self.commits.entry(txn).or_insert_with(|| CommitRecord {
            delegate: coordinator,
            readset: Vec::new(),
            writes: Vec::new(),
        });
        for &w in writes {
            if !rec
                .writes
                .iter()
                .any(|e| e.item == w.item && e.version == w.version)
            {
                rec.writes.push(w);
            }
        }
    }

    /// Record a cross-group commit's touched groups (idempotent).
    pub fn record_xg(&mut self, txn: TxnId, groups: Vec<u32>, coordinator_group: u32) {
        self.xg.entry(txn).or_insert(XgRecord {
            groups,
            coordinator_group,
        });
    }

    /// Record a locally served read (server side, at serve time).
    pub fn record_read(&mut self, rec: ReadRecord) {
        self.reads.push(rec);
    }

    /// Record a read-only transaction's acknowledgement (client side, in
    /// session-accept order — the monotonic-reads evidence).
    pub fn record_read_ack(&mut self, rec: ReadAckRecord) {
        self.read_acks.push(rec);
    }

    /// Record a snapshot-isolation certification outcome (delegate side,
    /// at delivery time).
    pub fn record_si(&mut self, rec: SiRecord) {
        self.si_txns.push(rec);
    }

    /// Count a session-read redirect answered by a replica of `group`.
    pub fn record_read_redirect(&mut self, group: u32) {
        *self.read_redirects_by_group.entry(group).or_insert(0) += 1;
    }

    /// Session-read redirects over the whole run, all groups.
    pub fn read_redirects(&self) -> u64 {
        self.read_redirects_by_group.values().sum()
    }

    /// Record a client-side acknowledgement.
    pub fn record_ack(&mut self, txn: TxnId, at: SimTime, response_ms: f64) {
        self.commit_acks += 1;
        self.acked
            .entry(txn)
            .or_insert(AckRecord { at, response_ms });
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
        if !oracle.commits.contains_key(txn) {
            continue; // read-only: nothing durable was promised
        }
        let present = replicas
            .iter()
            .any(|(db, live)| *live && db.is_committed(*txn));
        if !present {
            lost.push(LostTransaction { txn: *txn });
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

/// Detect lost updates among acknowledged commits.
pub fn check_lost_updates(oracle: &Oracle) -> Vec<LostUpdate> {
    // Index: item -> [(txn, version read, version written)].
    let mut by_item: BTreeMap<ItemId, Vec<(TxnId, Option<Version>, Version)>> = BTreeMap::new();
    for (txn, rec) in &oracle.commits {
        if !oracle.acked.contains_key(txn) {
            continue;
        }
        for w in &rec.writes {
            let read_v = rec
                .readset
                .iter()
                .find(|(i, _)| *i == w.item)
                .map(|(_, v)| *v);
            by_item
                .entry(w.item)
                .or_default()
                .push((*txn, read_v, w.version));
        }
    }
    let mut out = Vec::new();
    for (item, entries) in by_item {
        for i in 0..entries.len() {
            for j in i + 1..entries.len() {
                let (ta, ra, _) = entries[i];
                let (tb, rb, _) = entries[j];
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

#[cfg(test)]
mod tests {
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
        o.record_ack(t(1), SimTime::ZERO, 10.0);
        o.record_ack(t(2), SimTime::ZERO, 10.0);
        o.aborts = 2;
        assert!((o.abort_rate() - 0.5).abs() < 1e-12);
        assert_eq!(Oracle::default().abort_rate(), 0.0);
    }

    #[test]
    fn duplicate_acks_dedup() {
        let mut o = Oracle::default();
        o.record_ack(t(1), SimTime::ZERO, 10.0);
        o.record_ack(t(1), SimTime::from_millis(5), 12.0);
        assert_eq!(o.acked.len(), 1);
        assert_eq!(o.commit_acks, 2);
    }

    #[test]
    fn lost_update_detection() {
        let mut o = Oracle::default();
        // Both read version 0 of item 7 and wrote it: lost update.
        o.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o.record_commit(t(2), NodeId(1), &[(ItemId(7), 0)], &[w(7, 101)]);
        o.record_ack(t(1), SimTime::ZERO, 1.0);
        o.record_ack(t(2), SimTime::ZERO, 1.0);
        let lu = check_lost_updates(&o);
        assert_eq!(lu.len(), 1);
        assert_eq!(lu[0].item, ItemId(7));
        // If the second read the first's version, it is a normal overwrite.
        let mut o2 = Oracle::default();
        o2.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o2.record_commit(t(2), NodeId(1), &[(ItemId(7), 100)], &[w(7, 101)]);
        o2.record_ack(t(1), SimTime::ZERO, 1.0);
        o2.record_ack(t(2), SimTime::ZERO, 1.0);
        assert!(check_lost_updates(&o2).is_empty());
    }

    #[test]
    fn unacked_commits_do_not_count_as_lost_updates() {
        let mut o = Oracle::default();
        o.record_commit(t(1), NodeId(0), &[(ItemId(7), 0)], &[w(7, 100)]);
        o.record_commit(t(2), NodeId(1), &[(ItemId(7), 0)], &[w(7, 101)]);
        // Neither acked.
        assert!(check_lost_updates(&o).is_empty());
    }
}
