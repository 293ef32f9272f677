//! Deterministic certification (the database state machine's conflict
//! detection, §2.1).
//!
//! At delivery, every replica checks the transaction's read set against
//! the current committed versions: if any item read has since been
//! written by a committed transaction, the reader observed stale data and
//! must abort. The check is a deterministic function of (delivery order,
//! read set), so every replica reaches the same verdict without voting —
//! the defining property of the *non-voting* technique.

use groupsafe_db::{DbEngine, ItemId, Value, Version};

/// Certification verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// No conflicting committed writer: commit.
    Commit,
    /// The read set is stale: abort. Carries the first conflicting item
    /// (diagnostics).
    Abort {
        /// First item whose committed version exceeds the one read.
        conflict: ItemId,
    },
}

/// Certify `readset` against the engine's committed state.
pub fn certify(engine: &DbEngine, readset: &[(ItemId, Version)]) -> Certification {
    for &(item, version) in readset {
        if engine.item(item).version > version {
            return Certification::Abort { conflict: item };
        }
    }
    Certification::Commit
}

/// Snapshot-isolation certification: first-committer-wins over the
/// *write* set only. A snapshot transaction that read from delivery
/// sequence number `snapshot` aborts iff some item it writes has been
/// committed with a version above that snapshot — a concurrent committed
/// writer won the item. Reads never conflict (they were served from the
/// multi-version store at the snapshot), which is exactly the reduction
/// in aborts snapshot isolation buys over read-set certification.
pub fn certify_snapshot(
    engine: &DbEngine,
    snapshot: Version,
    writes: &[(ItemId, Value)],
) -> Certification {
    for &(item, _) in writes {
        if engine.item(item).version > snapshot {
            return Certification::Abort { conflict: item };
        }
    }
    Certification::Commit
}

/// Pure-function variant used by property tests: certify against an
/// explicit version lookup.
pub fn certify_versions(
    current: impl Fn(ItemId) -> Version,
    readset: &[(ItemId, Version)],
) -> Certification {
    for &(item, version) in readset {
        if current(item) > version {
            return Certification::Abort { conflict: item };
        }
    }
    Certification::Commit
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsafe_db::{DbConfig, TxnId, WriteOp};
    use groupsafe_sim::{Disk, Fcfs, SimTime};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn engine() -> DbEngine {
        DbEngine::new(
            DbConfig {
                n_items: 10,
                ..DbConfig::default()
            },
            Rc::new(RefCell::new(Fcfs::new(2))),
            Rc::new(RefCell::new(Disk::paper_default())),
            Rc::new(RefCell::new(Disk::paper_default())),
            StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn fresh_readset_commits() {
        let e = engine();
        let rs = vec![(ItemId(1), 0), (ItemId(2), 0)];
        assert_eq!(certify(&e, &rs), Certification::Commit);
    }

    #[test]
    fn stale_readset_aborts() {
        let mut e = engine();
        e.commit(
            SimTime::ZERO,
            TxnId { client: 0, seq: 1 },
            &[WriteOp {
                item: ItemId(2),
                value: 7,
                version: 4,
            }],
        );
        // Read version 3 < committed version 4: stale.
        let rs = vec![(ItemId(1), 0), (ItemId(2), 3)];
        assert_eq!(
            certify(&e, &rs),
            Certification::Abort {
                conflict: ItemId(2)
            }
        );
        // Reading the current version is fine.
        let rs = vec![(ItemId(2), 4)];
        assert_eq!(certify(&e, &rs), Certification::Commit);
    }

    #[test]
    fn pure_variant_matches() {
        let rs = vec![(ItemId(0), 2), (ItemId(1), 5)];
        let verdict = certify_versions(|i| if i == ItemId(1) { 6 } else { 0 }, &rs);
        assert_eq!(
            verdict,
            Certification::Abort {
                conflict: ItemId(1)
            }
        );
        let verdict = certify_versions(|_| 0, &rs);
        assert_eq!(verdict, Certification::Commit);
    }

    #[test]
    fn empty_readset_always_commits() {
        let e = engine();
        assert_eq!(certify(&e, &[]), Certification::Commit);
    }

    #[test]
    fn snapshot_certification_is_first_committer_wins_on_writes() {
        let mut e = engine();
        e.commit(
            SimTime::ZERO,
            TxnId { client: 0, seq: 1 },
            &[WriteOp {
                item: ItemId(3),
                value: 7,
                version: 6,
            }],
        );
        // Snapshot 4 predates the committed writer at version 6: the
        // write-write conflict aborts.
        assert_eq!(
            certify_snapshot(&e, 4, &[(ItemId(3), 1)]),
            Certification::Abort {
                conflict: ItemId(3)
            }
        );
        // A snapshot at (or above) the committed version wins the item.
        assert_eq!(
            certify_snapshot(&e, 6, &[(ItemId(3), 1)]),
            Certification::Commit
        );
        // Items nobody re-wrote never conflict, whatever the snapshot.
        assert_eq!(
            certify_snapshot(&e, 0, &[(ItemId(1), 5)]),
            Certification::Commit
        );
    }

    #[test]
    fn snapshot_certification_ignores_reads() {
        let mut e = engine();
        e.commit(
            SimTime::ZERO,
            TxnId { client: 0, seq: 2 },
            &[WriteOp {
                item: ItemId(2),
                value: 9,
                version: 8,
            }],
        );
        // Read-set certification would abort this interval; the snapshot
        // rule does not (the transaction writes nothing that moved).
        assert_eq!(
            certify(&e, &[(ItemId(2), 3)]),
            Certification::Abort {
                conflict: ItemId(2)
            }
        );
        assert_eq!(certify_snapshot(&e, 3, &[]), Certification::Commit);
        assert_eq!(
            certify_snapshot(&e, 3, &[(ItemId(1), 0)]),
            Certification::Commit
        );
    }
}
