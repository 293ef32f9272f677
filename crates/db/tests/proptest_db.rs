//! Property-based tests for the database engine's invariants.

use std::cell::RefCell;
use std::rc::Rc;

use groupsafe_db::{
    DbConfig, DbEngine, ItemId, ItemState, LockManager, LockMode, LockOutcome, TxnId, WriteOp,
};
use groupsafe_sim::{Disk, Fcfs, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(n_items: u32, seed: u64) -> DbEngine {
    DbEngine::new(
        DbConfig {
            n_items,
            ..DbConfig::default()
        },
        Rc::new(RefCell::new(Fcfs::new(2))),
        Rc::new(RefCell::new(Disk::paper_default())),
        Rc::new(RefCell::new(Disk::paper_default())),
        StdRng::seed_from_u64(seed),
    )
}

/// A step of the random lock-manager workload.
#[derive(Debug, Clone)]
enum LockStep {
    Acquire { txn: u8, item: u8, exclusive: bool },
    Release { txn: u8 },
}

fn lock_step() -> impl Strategy<Value = LockStep> {
    prop_oneof![
        (0u8..6, 0u8..4, any::<bool>()).prop_map(|(txn, item, exclusive)| LockStep::Acquire {
            txn,
            item,
            exclusive
        }),
        (0u8..6).prop_map(|txn| LockStep::Release { txn }),
    ]
}

proptest! {
    /// 2PL invariant: at no point do two transactions hold incompatible
    /// locks on the same item, and every deadlock verdict names a waiting
    /// transaction.
    #[test]
    fn lock_manager_never_grants_conflicting_locks(
        steps in proptest::collection::vec(lock_step(), 1..80)
    ) {
        let mut lm = LockManager::new();
        // Reference view: (item -> holders with mode), rebuilt from grants.
        let mut holders: std::collections::BTreeMap<u8, Vec<(u8, bool)>> = Default::default();
        let mut waiting: std::collections::BTreeSet<u8> = Default::default();
        for step in steps {
            match step {
                LockStep::Acquire { txn, item, exclusive } => {
                    if waiting.contains(&txn) {
                        continue; // a waiting transaction cannot issue ops
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let t = TxnId { client: txn as u32, seq: 1 };
                    match lm.acquire(t, ItemId(item as u32), mode) {
                        LockOutcome::Granted => {
                            let hs = holders.entry(item).or_default();
                            hs.retain(|(h, _)| *h != txn);
                            hs.push((txn, exclusive));
                        }
                        LockOutcome::Waiting => {
                            waiting.insert(txn);
                        }
                        LockOutcome::Deadlock { victim } => {
                            // The victim must actually be waiting (it is on
                            // a cycle, and every cycle member waits).
                            prop_assert!(lm.is_waiting(victim) || victim == t,
                                "victim {victim} is not waiting");
                            let vid = victim.client as u8;
                            let granted = lm.release_all(victim);
                            holders.iter_mut().for_each(|(_, hs)| hs.retain(|(h, _)| *h != vid));
                            waiting.remove(&vid);
                            if victim != t {
                                waiting.insert(txn); // requester still queued
                            }
                            for (g, gi) in granted {
                                waiting.remove(&(g.client as u8));
                                holders
                                    .entry(gi.0 as u8)
                                    .or_default()
                                    .push((g.client as u8, false)); // mode unknown; conflict check below is via lm
                            }
                        }
                    }
                }
                LockStep::Release { txn } => {
                    let t = TxnId { client: txn as u32, seq: 1 };
                    let granted = lm.release_all(t);
                    holders.iter_mut().for_each(|(_, hs)| hs.retain(|(h, _)| *h != txn));
                    waiting.remove(&txn);
                    for (g, gi) in granted {
                        waiting.remove(&(g.client as u8));
                        holders.entry(gi.0 as u8).or_default().push((g.client as u8, false));
                    }
                }
            }
            // Core invariant via the authoritative manager: an exclusive
            // grant excludes everyone else. We probe it per item with a
            // scratch transaction: if someone holds X, a fresh S request
            // must not be granted immediately... (probing would mutate
            // state, so instead check our mirror for double-X.)
            for hs in holders.values() {
                let x_holders = hs.iter().filter(|(_, ex)| *ex).count();
                if x_holders > 0 {
                    prop_assert!(hs.len() == x_holders && x_holders == 1,
                        "exclusive lock shared: {hs:?}");
                }
            }
        }
    }

    /// Crash recovery: the recovered state equals the redo of the durable
    /// prefix, exactly-once semantics included.
    #[test]
    fn recovery_replays_exactly_the_durable_prefix(
        commits in proptest::collection::vec(
            (0u32..20, -1000i64..1000),
            1..40
        ),
        durable_upto in 0usize..40
    ) {
        let mut e = engine(20, 42);
        let mut t = SimTime::ZERO;
        for (i, (item, value)) in commits.iter().enumerate() {
            let txn = TxnId { client: 0, seq: i as u64 + 1 };
            let w = WriteOp { item: ItemId(*item), value: *value, version: i as u64 + 1 };
            let res = e.commit(t, txn, &[w]);
            t = res.done + groupsafe_sim::SimDuration::from_millis(1);
            if i + 1 == durable_upto.min(commits.len()) {
                // Flush everything appended so far and mark durable.
                if let Some((done, lsn)) = e.flush_wal(t) {
                    e.wal_mark_durable(lsn);
                    t = done;
                }
            }
        }
        let cut = durable_upto.min(commits.len());
        e.crash();
        // Recovered state: exactly the first `cut` commits.
        let mut expect = vec![ItemState::default(); 20];
        for (i, (item, value)) in commits.iter().take(cut).enumerate() {
            expect[*item as usize] = ItemState { value: *value, version: i as u64 + 1 };
        }
        for idx in 0..20u32 {
            prop_assert_eq!(e.item(ItemId(idx)), expect[idx as usize], "item {}", idx);
        }
        for (i, _) in commits.iter().enumerate() {
            let txn = TxnId { client: 0, seq: i as u64 + 1 };
            prop_assert_eq!(e.is_committed(txn), i < cut);
        }
        // A duplicate commit of a recovered transaction is a no-op.
        if cut > 0 {
            let txn = TxnId { client: 0, seq: 1 };
            let res = e.commit(SimTime::from_secs(100), txn, &[WriteOp {
                item: ItemId(0), value: 999_999, version: 999_999,
            }]);
            prop_assert!(res.duplicate);
        }
    }

    /// The Thomas write rule is order-insensitive: any permutation of the
    /// same write sets converges to the same state.
    #[test]
    fn thomas_rule_is_order_insensitive(
        mut writes in proptest::collection::vec(
            (0u32..10, -100i64..100, 1u64..50),
            1..20
        ),
        swap_a in 0usize..20,
        swap_b in 0usize..20
    ) {
        // Unique versions (ties are resolved by uniqueness in the system).
        writes.sort_by_key(|w| w.2);
        writes.dedup_by_key(|w| w.2);
        let apply = |order: &[(u32, i64, u64)]| {
            let mut e = engine(10, 7);
            for (i, (item, value, version)) in order.iter().enumerate() {
                let txn = TxnId { client: 1, seq: *version };
                let _ = i;
                e.apply_unlogged(SimTime::ZERO, txn, &[WriteOp {
                    item: ItemId(*item), value: *value, version: *version,
                }]);
            }
            e.state_digest()
        };
        let d1 = apply(&writes);
        let mut shuffled = writes.clone();
        if !shuffled.is_empty() {
            let a = swap_a % shuffled.len();
            let b = swap_b % shuffled.len();
            shuffled.swap(a, b);
        }
        let d2 = apply(&shuffled);
        prop_assert_eq!(d1, d2, "Thomas rule must be commutative");
    }
}
