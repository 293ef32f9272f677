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
//! [`audit_reads`] is the read-freshness oracle: it replays the recorded
//! reads against the invariants each level promises and returns the
//! violations ([`ReadViolation`]). The scenario oracle
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
    /// full ordering round (the baseline the `reads` bench measures the
    /// local path against).
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

/// Audit every recorded read against its level's freshness invariants.
///
/// `lost` is the post-run loss audit's output ([`crate::check_no_loss`])
/// and `group_excused(g)` reports whether group `g` suffered the
/// whole-group failure its loss rules excuse (a stable read of a value
/// that only a total group failure could lose is not a read-path bug —
/// it is the level's own documented window).
pub fn audit_reads(
    oracle: &Oracle,
    lost: &[LostTransaction],
    group_excused: &dyn Fn(u32) -> bool,
) -> Vec<ReadViolation> {
    let mut violations = Vec::new();

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

    // Server-side records: per-read invariants at serve time.
    for r in oracle.reads.iter() {
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
        for (item, version) in r.items() {
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

    // Client-side acknowledgements: monotonic reads per (session, group)
    // in the order the session accepted them. Only the session level
    // promises monotonicity; `Latest` explicitly trades it away.
    let mut seen: std::collections::BTreeMap<(u32, u32), u64> = std::collections::BTreeMap::new();
    for a in &oracle.read_acks {
        if a.level != Some(ReadLevel::Session) {
            continue;
        }
        let key = (a.txn.client, a.group);
        let prev = seen.entry(key).or_insert(0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{ReadAckRecord, ReadRecord};
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
        let observed = (ItemId(1), r.snapshot_seq.min(r.stable_seq));
        o.reads.push(r, [observed]);
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
        o.reads
            .push(rec(ReadLevel::Latest, 0, 5, 5), [(ItemId(2), 12)]);
        let v = audit_reads(&o, &[], &|_| false);
        assert!(
            matches!(
                v.as_slice(),
                [ReadViolation::ValueAboveSnapshot { version: 12, .. }]
            ),
            "{v:?}"
        );
    }

    #[test]
    fn session_regression_is_flagged_in_ack_order() {
        let mut o = Oracle::default();
        let ack = |seq: u64, txn: u64| ReadAckRecord {
            txn: t(txn),
            group: 1,
            level: Some(ReadLevel::Session),
            snapshot_seq: seq,
            at: SimTime::ZERO,
            response_ms: 1.0,
        };
        o.read_acks.push(ack(5, 1));
        o.read_acks.push(ack(7, 2));
        o.read_acks.push(ack(6, 3));
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

    #[test]
    fn read_path_labels() {
        assert_eq!(ReadPath::Local(ReadLevel::Session).label(), "local-session");
        assert_eq!(ReadPath::Broadcast.label(), "broadcast");
        assert_eq!(ReadPath::Classic.label(), "classic");
    }
}
