//! The local read path: safety-level-aware follower reads.
//!
//! Every update transaction pays the group's atomic-broadcast round, but
//! a read-only transaction has no durability footprint — serving it
//! *locally* at any replica is the classic deferred-update optimisation
//! and the biggest throughput lever the system has (coordination
//! avoidance: an invariant-safe read needs no ordering). The price is
//! freshness, and the paper's safety spectrum names the exact lines a
//! read can be served at:
//!
//! * [`ReadLevel::Stable`] — serve only state at or below the
//!   **group-stable watermark** exported by the group communication
//!   layer ([`GcsEndpoint::stable_watermark`]): every observed value is
//!   held by a majority of the group, so no failure the safety level
//!   tolerates can un-commit it. A stable read never observes a value
//!   that the claimed level's loss rules would later allow to disappear
//!   (whole-group failure excepted — exactly the case the level itself
//!   excuses).
//! * [`ReadLevel::Session`] — the client carries a per-group **session
//!   token** (the highest commit sequence number it has written or
//!   read); a replica serves the read once its applied state has caught
//!   up to the token, giving read-your-writes and monotonic reads. A
//!   replica that stays behind the token past a bounded wait answers
//!   with a redirect carrying its applied sequence number, and the
//!   client retries at another group member.
//! * [`ReadLevel::Latest`] — the freshest state the serving replica has
//!   applied, with no cross-replica guarantee (the delegate-local
//!   semantics the classic path always had, now available at any
//!   follower).
//!
//! [`ReadPath`] selects how read-only transactions travel:
//! [`ReadPath::Classic`] (the pre-read-path behavior: reads ride the
//! normal transaction pipeline and commit locally at their delegate),
//! [`ReadPath::Broadcast`] (reads are atomically broadcast and certified
//! like updates — the strongest, strictly serializable semantics and the
//! bench baseline the local path is measured against), and
//! [`ReadPath::Local`] (the follower-read subsystem of this module).
//!
//! The replica serves local reads from a bounded multi-version store in
//! the database engine (versions keyed by delivery sequence number,
//! pruned at the stable watermark — see `groupsafe_db::DbEngine`), so a
//! snapshot read never blocks write application.
//!
//! The read-freshness oracle audits on arrival: the run oracle checks
//! each served read and each read acknowledgement against the
//! invariants each level promises as it is recorded, and keeps only
//! counters and the stable reads. [`audit_reads`] returns the
//! violations ([`ReadViolation`]), adding the post-run lost-value rule
//! for stable reads. The scenario oracle
//! ([`crate::audit_scenario`]) folds these into its per-level verdict.
//!
//! [`GcsEndpoint::stable_watermark`]: groupsafe_gcs::GcsEndpoint::stable_watermark

use groupsafe_db::{ItemId, TxnId, Value, Version};
use groupsafe_net::NodeId;
use groupsafe_sim::SimDuration;

use crate::verify::{LostTransaction, Oracle};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Freshness level of a locally served read (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadLevel {
    /// Serve only state at or below the group-stable watermark.
    Stable,
    /// Serve once caught up to the client's per-group session token
    /// (read-your-writes + monotonic reads), redirecting after a bounded
    /// wait.
    Session,
    /// Serve the replica's freshest applied state.
    Latest,
}

impl ReadLevel {
    /// Short label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            ReadLevel::Stable => "stable",
            ReadLevel::Session => "session",
            ReadLevel::Latest => "latest",
        }
    }
}

impl std::fmt::Display for ReadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How read-only transactions travel through the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// The pre-read-path pipeline: a read-only transaction executes at
    /// its delegate and commits locally without interaction (bit-for-bit
    /// the seed behavior; the default).
    Classic,
    /// Read-only transactions are atomically broadcast and certified at
    /// delivery like updates: strictly serializable reads that pay the
    /// full ordering round (the baseline the contract's `claim/reads/…`
    /// cell measures the local path against).
    Broadcast,
    /// Serve read-only transactions locally at any replica of the owning
    /// group, at the given freshness level — no broadcast.
    Local(ReadLevel),
}

impl ReadPath {
    /// Short label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            ReadPath::Classic => "classic",
            ReadPath::Broadcast => "broadcast",
            ReadPath::Local(ReadLevel::Stable) => "local-stable",
            ReadPath::Local(ReadLevel::Session) => "local-session",
            ReadPath::Local(ReadLevel::Latest) => "local-latest",
        }
    }
}

/// How long a replica parks a [`ReadLevel::Session`] read (or a snapshot
/// transaction) while its applied state is behind the client's token,
/// before answering with a redirect (or executing at the snapshot it
/// has).
pub const READ_MAX_WAIT: SimDuration = SimDuration::from_millis(50);

// ---------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------

/// A read-only transaction submitted on the local read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequest {
    /// Stable identity (kept across resubmissions and redirects).
    pub id: TxnId,
    /// The items to read.
    pub items: Vec<ItemId>,
    /// Where to send the reply.
    pub client: NodeId,
    /// Freshness level requested.
    pub level: ReadLevel,
    /// Session token: the lowest applied sequence number of the target
    /// group the serving replica must have reached ([`ReadLevel::Session`];
    /// 0 otherwise).
    pub token: u64,
    /// Resubmission attempt number (0 = first try).
    pub attempt: u32,
}

/// Server → client answer to a [`ReadRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadReply {
    /// The read was served at `snapshot_seq`.
    Served {
        /// Transaction id.
        txn: TxnId,
        /// Attempt being answered.
        attempt: u32,
        /// The serving replica's group.
        group: u32,
        /// The delivery sequence number the snapshot corresponds to
        /// (the serving replica's applied head for `Session`/`Latest`,
        /// the stable watermark for `Stable`).
        snapshot_seq: u64,
        /// The values observed, with their committed versions.
        values: Vec<(ItemId, Value, Version)>,
    },
    /// The replica could not serve within the bounded wait (its applied
    /// state is behind the session token): try another group member.
    Redirect {
        /// Transaction id.
        txn: TxnId,
        /// Attempt being answered.
        attempt: u32,
        /// The serving replica's group.
        group: u32,
        /// How far the replica had applied when it gave up (diagnostic;
        /// lets the client observe the lag it is redirecting around).
        applied_seq: u64,
    },
}

// ---------------------------------------------------------------------
// The read-freshness oracle
// ---------------------------------------------------------------------

/// A violation of the read path's per-level freshness invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadViolation {
    /// A [`ReadLevel::Session`] read was served below its token: the
    /// session saw state older than its own writes or earlier reads.
    StaleSessionRead {
        /// The read transaction.
        txn: TxnId,
        /// The serving group.
        group: u32,
        /// The token the client carried.
        token: u64,
        /// The (too old) snapshot it was served at.
        snapshot_seq: u64,
    },
    /// A session observed snapshots moving backwards within one group
    /// (monotonic-reads violation in client-acknowledgement order).
    SessionRegression {
        /// The session (client id).
        client: u32,
        /// The group read from.
        group: u32,
        /// The read that went backwards.
        txn: TxnId,
        /// The snapshot a previous read of the session already saw.
        prev_seq: u64,
        /// The older snapshot this read returned.
        snapshot_seq: u64,
    },
    /// A [`ReadLevel::Stable`] read was served above the group-stable
    /// watermark the serving replica exported.
    UnstableRead {
        /// The read transaction.
        txn: TxnId,
        /// The serving group.
        group: u32,
        /// The snapshot served.
        snapshot_seq: u64,
        /// The watermark at serve time.
        stable_seq: u64,
    },
    /// A read returned an item version newer than the snapshot it
    /// claimed (the snapshot was not actually consistent).
    ValueAboveSnapshot {
        /// The read transaction.
        txn: TxnId,
        /// The offending item.
        item: ItemId,
        /// The too-new version observed.
        version: Version,
        /// The snapshot the read claimed.
        snapshot_seq: u64,
    },
    /// A [`ReadLevel::Stable`] read observed a value whose transaction
    /// the loss audit later declared lost — the read leaked state that
    /// durability never covered, in a situation the level's own loss
    /// rules do not excuse.
    LostValueObserved {
        /// The read transaction.
        txn: TxnId,
        /// The item whose value leaked.
        item: ItemId,
        /// The observed version.
        version: Version,
        /// The lost transaction that wrote it.
        lost_txn: TxnId,
    },
}

impl std::fmt::Display for ReadViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadViolation::StaleSessionRead {
                txn,
                group,
                token,
                snapshot_seq,
            } => write!(
                f,
                "session read {txn:?} in group {group} served at seq {snapshot_seq} \
                 below its token {token}"
            ),
            ReadViolation::SessionRegression {
                client,
                group,
                txn,
                prev_seq,
                snapshot_seq,
            } => write!(
                f,
                "session {client} went backwards in group {group}: read {txn:?} \
                 returned seq {snapshot_seq} after the session already saw {prev_seq}"
            ),
            ReadViolation::UnstableRead {
                txn,
                group,
                snapshot_seq,
                stable_seq,
            } => write!(
                f,
                "stable read {txn:?} in group {group} served at seq {snapshot_seq} \
                 above the stable watermark {stable_seq}"
            ),
            ReadViolation::ValueAboveSnapshot {
                txn,
                item,
                version,
                snapshot_seq,
            } => write!(
                f,
                "read {txn:?} observed {item:?} at version {version} beyond its \
                 claimed snapshot {snapshot_seq}"
            ),
            ReadViolation::LostValueObserved {
                txn,
                item,
                version,
                lost_txn,
            } => write!(
                f,
                "stable read {txn:?} observed {item:?}@{version} written by \
                 {lost_txn:?}, which was later lost"
            ),
        }
    }
}

/// The read-freshness verdict: every violation of a read level's
/// invariants in the run.
///
/// The oracle audits each read and each acknowledgement on arrival
/// ([`crate::verify::ReadAudit`]); this adds the one rule that needs the
/// post-run loss audit. `lost` is its output ([`crate::check_no_loss`])
/// and `group_excused(g)` reports whether group `g` suffered the
/// whole-group failure its loss rules excuse (a stable read of a value
/// that only a total group failure could lose is not a read-path bug —
/// it is the level's own documented window).
///
/// Order: first the violations found on arrival, in the order the
/// oracle was told of them — per served read its
/// [`ReadViolation::StaleSessionRead`], [`ReadViolation::UnstableRead`]
/// and one [`ReadViolation::ValueAboveSnapshot`] per offending item,
/// and per accepted session acknowledgement its
/// [`ReadViolation::SessionRegression`], interleaved as they arrived —
/// then every [`ReadViolation::LostValueObserved`], in serve order and
/// item order. Within each of the three kinds (per-read, regression,
/// lost value) this is the order a replay of the recorded reads, then of
/// the recorded acknowledgements, would give.
pub fn audit_reads(
    oracle: &Oracle,
    lost: &[LostTransaction],
    group_excused: &dyn Fn(u32) -> bool,
) -> Vec<ReadViolation> {
    let mut violations = oracle.reads.violations().to_vec();
    let stable = oracle.reads.stable();
    if lost.is_empty() || stable.is_empty() {
        return violations;
    }

    // (item, version) → lost transaction, for the stable-durability rule.
    let mut lost_writes: std::collections::BTreeMap<(ItemId, Version), TxnId> =
        std::collections::BTreeMap::new();
    for lt in lost {
        if let Some(c) = oracle.commits.get(lt.txn) {
            for write in c.writes() {
                lost_writes.insert(write, lt.txn);
            }
        }
    }
    for r in stable.iter().filter(|r| !group_excused(r.group)) {
        for (item, version) in r.items() {
            if let Some(&lost_txn) = lost_writes.get(&(item, version)) {
                violations.push(ReadViolation::LostValueObserved {
                    txn: r.txn,
                    item,
                    version,
                    lost_txn,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::verify::{ReadAckRecord, ReadRecord};
    use groupsafe_db::WriteOp;
    use groupsafe_sim::SimTime;

    fn t(seq: u64) -> TxnId {
        TxnId { client: 7, seq }
    }

    fn rec(level: ReadLevel, token: u64, snapshot: u64, stable: u64) -> ReadRecord {
        ReadRecord {
            txn: t(snapshot + 100),
            group: 0,
            level,
            token,
            snapshot_seq: snapshot,
            stable_seq: stable,
            applied_seq: snapshot.max(stable),
            at: SimTime::ZERO,
        }
    }

    /// Record a read that observed item 1 at the older of its snapshot
    /// and watermark (a clean observation).
    fn push(o: &mut Oracle, r: ReadRecord) {
        let observed = (ItemId(1), 0, r.snapshot_seq.min(r.stable_seq));
        o.record_read(r, &[observed]);
    }

    #[test]
    fn clean_reads_audit_clean() {
        let mut o = Oracle::default();
        push(&mut o, rec(ReadLevel::Session, 3, 5, 5));
        push(&mut o, rec(ReadLevel::Stable, 0, 4, 4));
        push(&mut o, rec(ReadLevel::Latest, 0, 9, 4));
        assert!(audit_reads(&o, &[], &|_| false).is_empty());
    }

    #[test]
    fn stale_session_read_is_flagged() {
        let mut o = Oracle::default();
        push(&mut o, rec(ReadLevel::Session, 9, 5, 5));
        let v = audit_reads(&o, &[], &|_| false);
        assert!(
            matches!(
                v.as_slice(),
                [ReadViolation::StaleSessionRead { token: 9, .. }]
            ),
            "{v:?}"
        );
    }

    #[test]
    fn read_above_watermark_is_flagged() {
        let mut o = Oracle::default();
        push(&mut o, rec(ReadLevel::Stable, 0, 8, 5));
        let v = audit_reads(&o, &[], &|_| false);
        assert!(
            v.iter()
                .any(|v| matches!(v, ReadViolation::UnstableRead { stable_seq: 5, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn value_beyond_snapshot_is_flagged() {
        let mut o = Oracle::default();
        o.record_read(rec(ReadLevel::Latest, 0, 5, 5), &[(ItemId(2), 0, 12)]);
        let v = audit_reads(&o, &[], &|_| false);
        assert!(
            matches!(
                v.as_slice(),
                [ReadViolation::ValueAboveSnapshot { version: 12, .. }]
            ),
            "{v:?}"
        );
    }

    fn session_ack(seq: u64, txn: u64) -> ReadAckRecord {
        ReadAckRecord {
            txn: t(txn),
            group: 1,
            level: Some(ReadLevel::Session),
            snapshot_seq: seq,
            at: SimTime::ZERO,
            response_ms: 1.0,
        }
    }

    #[test]
    fn session_regression_is_flagged_in_ack_order() {
        let mut o = Oracle::default();
        o.record_read_ack(session_ack(5, 1));
        o.record_read_ack(session_ack(7, 2));
        o.record_read_ack(session_ack(6, 3));
        let v = audit_reads(&o, &[], &|_| false);
        assert!(
            matches!(
                v.as_slice(),
                [ReadViolation::SessionRegression {
                    prev_seq: 7,
                    snapshot_seq: 6,
                    ..
                }]
            ),
            "{v:?}"
        );
    }

    /// The lost-value rule runs after the others: a stable read's
    /// arrival-time violations come first, in arrival order with the
    /// acknowledgements', and its lost values last.
    #[test]
    fn violations_come_in_arrival_order_then_lost_values() {
        let mut o = Oracle::default();
        let lost_txn = TxnId { client: 3, seq: 1 };
        let write = WriteOp {
            item: ItemId(4),
            value: 0,
            version: 9,
        };
        o.record_commit(lost_txn, groupsafe_net::NodeId(0), &[], &[write]);
        o.record_read(rec(ReadLevel::Stable, 0, 8, 5), &[(ItemId(4), 0, 9)]);
        o.record_read_ack(session_ack(5, 1));
        o.record_read_ack(session_ack(4, 2));
        push(&mut o, rec(ReadLevel::Session, 9, 5, 5));
        let lost = [LostTransaction { txn: lost_txn }];
        let kinds: Vec<&str> = audit_reads(&o, &lost, &|_| false)
            .iter()
            .map(|v| match v {
                ReadViolation::StaleSessionRead { .. } => "stale",
                ReadViolation::SessionRegression { .. } => "regression",
                ReadViolation::UnstableRead { .. } => "unstable",
                ReadViolation::ValueAboveSnapshot { .. } => "above",
                ReadViolation::LostValueObserved { .. } => "lost",
            })
            .collect();
        assert_eq!(kinds, ["unstable", "above", "regression", "stale", "lost"]);
    }

    #[test]
    fn read_path_labels() {
        assert_eq!(ReadPath::Local(ReadLevel::Session).label(), "local-session");
        assert_eq!(ReadPath::Broadcast.label(), "broadcast");
        assert_eq!(ReadPath::Classic.label(), "classic");
    }

    // -----------------------------------------------------------------
    // The online audit against the batch audit it replaced
    // -----------------------------------------------------------------

    type Observed = Vec<(ItemId, Version)>;

    /// The audit this one replaces: a replay of every recorded read,
    /// then of every recorded acknowledgement, after the run.
    fn batch_audit(
        oracle: &Oracle,
        reads: &[(ReadRecord, Observed)],
        read_acks: &[ReadAckRecord],
        lost: &[LostTransaction],
        group_excused: &dyn Fn(u32) -> bool,
    ) -> Vec<ReadViolation> {
        let mut violations = Vec::new();
        let mut lost_writes: BTreeMap<(ItemId, Version), TxnId> = BTreeMap::new();
        for lt in lost {
            if let Some(c) = oracle.commits.get(lt.txn) {
                for write in c.writes() {
                    lost_writes.insert(write, lt.txn);
                }
            }
        }
        for (r, items) in reads {
            if r.level == ReadLevel::Session && r.snapshot_seq < r.token {
                violations.push(ReadViolation::StaleSessionRead {
                    txn: r.txn,
                    group: r.group,
                    token: r.token,
                    snapshot_seq: r.snapshot_seq,
                });
            }
            if r.level == ReadLevel::Stable && r.snapshot_seq > r.stable_seq {
                violations.push(ReadViolation::UnstableRead {
                    txn: r.txn,
                    group: r.group,
                    snapshot_seq: r.snapshot_seq,
                    stable_seq: r.stable_seq,
                });
            }
            for &(item, version) in items {
                if version > r.snapshot_seq {
                    violations.push(ReadViolation::ValueAboveSnapshot {
                        txn: r.txn,
                        item,
                        version,
                        snapshot_seq: r.snapshot_seq,
                    });
                }
                if r.level == ReadLevel::Stable && !group_excused(r.group) {
                    if let Some(&lost_txn) = lost_writes.get(&(item, version)) {
                        violations.push(ReadViolation::LostValueObserved {
                            txn: r.txn,
                            item,
                            version,
                            lost_txn,
                        });
                    }
                }
            }
        }
        let mut seen: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for a in read_acks {
            if a.level != Some(ReadLevel::Session) {
                continue;
            }
            let prev = seen.entry((a.txn.client, a.group)).or_insert(0);
            if a.snapshot_seq < *prev {
                violations.push(ReadViolation::SessionRegression {
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
        violations
    }

    /// The violations of one kind — per read, regression, lost value —
    /// in the order given.
    fn of_kind(v: &[ReadViolation], kind: usize) -> Vec<ReadViolation> {
        let kind_of = |v: &ReadViolation| match v {
            ReadViolation::SessionRegression { .. } => 1,
            ReadViolation::LostValueObserved { .. } => 2,
            ReadViolation::StaleSessionRead { .. }
            | ReadViolation::UnstableRead { .. }
            | ReadViolation::ValueAboveSnapshot { .. } => 0,
        };
        v.iter().filter(|v| kind_of(v) == kind).cloned().collect()
    }

    /// `(served, lag sum bits)` per group, then `(acked, ms sum bits)`
    /// overall and `acked` per group: the numbers the report's old fold
    /// over the recorded reads and acknowledgements produced.
    type Fold = (Vec<(usize, u64)>, usize, u64, Vec<usize>, usize, u64);

    /// The report's read accounting as it was: a walk over every
    /// recorded acknowledgement (those from `measure_start` on) and
    /// every recorded read, for groups `0..n_groups`.
    fn batch_fold(
        reads: &[(ReadRecord, Observed)],
        read_acks: &[ReadAckRecord],
        measure_start: SimTime,
        n_groups: usize,
    ) -> Fold {
        let mut n = 0usize;
        let mut ms = 0.0f64;
        let mut acked = vec![0usize; n_groups];
        let mut lags = vec![(0usize, 0.0f64); n_groups];
        for a in read_acks {
            if a.at < measure_start {
                continue;
            }
            n += 1;
            ms += a.response_ms;
            if let Some(slot) = acked.get_mut(a.group as usize) {
                *slot += 1;
            }
        }
        let mut lag_sum = 0.0f64;
        for (r, _) in reads {
            let lag = r.applied_seq.saturating_sub(r.snapshot_seq) as f64;
            lag_sum += lag;
            if let Some(slot) = lags.get_mut(r.group as usize) {
                slot.0 += 1;
                slot.1 += lag;
            }
        }
        let lags = lags.into_iter().map(|(n, s)| (n, s.to_bits())).collect();
        (lags, reads.len(), lag_sum.to_bits(), acked, n, ms.to_bits())
    }

    fn level(k: u8) -> ReadLevel {
        [ReadLevel::Stable, ReadLevel::Session, ReadLevel::Latest][k as usize % 3]
    }

    /// One recorded event: a served read
    /// `(level, client, group, token, snapshot, stable, applied − snapshot,
    /// observed)` or an acknowledgement
    /// `(level or pipeline, client, group, snapshot, response)`, with
    /// its instant in milliseconds.
    #[derive(Debug, Clone)]
    enum Event {
        Read(u8, u32, u32, u64, u64, u64, u64, Vec<(u32, u64)>, u64),
        Ack(u8, u32, u32, u64, u64, u64),
    }

    fn event_strategy() -> impl Strategy<Value = Event> {
        prop_oneof![
            (
                (0u8..3, 0u32..3, 0u32..3),
                (0u64..8, 0u64..8, 0u64..8, 0u64..4),
                // Few items and versions, so stable reads observe lost
                // writes and some versions sit above the snapshot.
                proptest::collection::vec((0u32..4, 0u64..10), 0..4),
                0u64..2_000,
            )
                .prop_map(|((lv, c, g), (tok, snap, stab, lag), items, at)| {
                    Event::Read(lv, c, g, tok, snap, stab, lag, items, at)
                }),
            (
                (0u8..4, 0u32..3, 0u32..3),
                (0u64..8, 0u64..2_000, 0u64..500),
            )
                .prop_map(|((lv, c, g), (snap, at, ms))| Event::Ack(lv, c, g, snap, at, ms)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of served reads at all three levels — below
        /// their token, above their watermark, with an item above the
        /// snapshot — and acknowledgements that regress within a session
        /// or come from other levels and pipelines, on both sides of the
        /// measurement start, audited with random lost sets and excused
        /// groups: the audit on arrival finds the violations the replay
        /// found, in the replay's order within each kind, and its tally
        /// is bit-equal to the report's old fold over the records.
        #[test]
        fn the_audit_on_arrival_matches_the_replay(
            events in proptest::collection::vec(event_strategy(), 0..48),
            commits in proptest::collection::vec(
                (proptest::collection::vec((0u32..4, 0u64..10), 1..3), any::<bool>()),
                0..5,
            ),
            measure_ms in 0u64..2_000,
            excused_mask in 0u32..8,
        ) {
            let mut o = Oracle::default();
            let measure_start = SimTime::from_millis(measure_ms);
            o.measure_reads_from(measure_start);
            let mut lost = Vec::new();
            for (n, (writes, is_lost)) in commits.into_iter().enumerate() {
                let txn = TxnId { client: 9, seq: n as u64 };
                let writes: Vec<WriteOp> = writes
                    .into_iter()
                    .map(|(i, v)| WriteOp { item: ItemId(i), value: 0, version: v })
                    .collect();
                o.record_commit(txn, groupsafe_net::NodeId(0), &[], &writes);
                if is_lost {
                    lost.push(LostTransaction { txn });
                }
            }
            let mut reads: Vec<(ReadRecord, Observed)> = Vec::new();
            let mut acks: Vec<ReadAckRecord> = Vec::new();
            for (seq, event) in events.into_iter().enumerate() {
                let seq = seq as u64;
                match event {
                    Event::Read(lv, client, group, token, snapshot, stable, lag, items, at) => {
                        let r = ReadRecord {
                            txn: TxnId { client, seq },
                            group,
                            level: level(lv),
                            token,
                            snapshot_seq: snapshot,
                            stable_seq: stable,
                            applied_seq: snapshot + lag,
                            at: SimTime::from_millis(at),
                        };
                        let values: Vec<(ItemId, Value, Version)> =
                            items.iter().map(|&(i, v)| (ItemId(i), -1, v)).collect();
                        o.record_read(r, &values);
                        let observed = items.into_iter().map(|(i, v)| (ItemId(i), v)).collect();
                        reads.push((r, observed));
                    }
                    Event::Ack(lv, client, group, snapshot, at, ms) => {
                        let a = ReadAckRecord {
                            txn: TxnId { client, seq },
                            group,
                            level: (lv < 3).then(|| level(lv)),
                            snapshot_seq: snapshot,
                            at: SimTime::from_millis(at),
                            response_ms: ms as f64 / 7.0,
                        };
                        o.record_read_ack(a);
                        acks.push(a);
                    }
                }
            }
            let excused = |g: u32| excused_mask & (1 << g) != 0;

            let online = audit_reads(&o, &lost, &excused);
            let replay = batch_audit(&o, &reads, &acks, &lost, &excused);
            prop_assert_eq!(online.len(), replay.len());
            for kind in 0..3 {
                prop_assert_eq!(of_kind(&online, kind), of_kind(&replay, kind));
            }

            let tally = o.reads.tally();
            let (lags, served, lag_sum, acked, n, ms) = batch_fold(&reads, &acks, measure_start, 3);
            prop_assert_eq!(tally.served, served);
            prop_assert_eq!(tally.lag_sum.to_bits(), lag_sum);
            prop_assert_eq!(tally.acked, n);
            prop_assert_eq!(tally.ms_sum.to_bits(), ms);
            let got_lags: Vec<(usize, u64)> = (0..3)
                .map(|g| (tally.group(g).served, tally.group(g).lag_sum.to_bits()))
                .collect();
            prop_assert_eq!(got_lags, lags);
            let got_acked: Vec<usize> = (0..3).map(|g| tally.group(g).acked).collect();
            prop_assert_eq!(got_acked, acked);
            for lv in [ReadLevel::Stable, ReadLevel::Session, ReadLevel::Latest] {
                let want = reads.iter().filter(|(r, _)| r.level == lv).count();
                prop_assert_eq!(tally.served_by_level[lv as usize], want);
            }
            let tokened = reads.iter().filter(|(r, _)| r.token > 0).count();
            prop_assert_eq!(tally.tokened, tokened);

            // Only the stable reads are kept, each with its own items.
            let kept: Vec<(ReadRecord, Observed)> =
                o.reads.stable().iter().map(|r| (*r, r.items().collect())).collect();
            let stable: Vec<(ReadRecord, Observed)> =
                reads.into_iter().filter(|(r, _)| r.level == ReadLevel::Stable).collect();
            prop_assert_eq!(kept, stable);
        }
    }
}
