//! Strict two-phase locking with deadlock detection.
//!
//! Used by the delegate's local execution phase and by the lazy (1-safe)
//! technique, which runs full 2PL locally. Shared/exclusive item locks,
//! FIFO wait queues, and wait-for-graph cycle detection with
//! youngest-victim selection.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::types::{ItemId, TxnId};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted immediately.
    Granted,
    /// The request is queued behind conflicting holders.
    Waiting,
    /// Granting would deadlock; `victim` must abort. The victim is the
    /// youngest transaction on the cycle (highest id).
    Deadlock {
        /// Transaction chosen to abort.
        victim: TxnId,
    },
}

#[derive(Debug, Default)]
struct ItemLock {
    holders: BTreeMap<TxnId, LockMode>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: BTreeMap<ItemId, ItemLock>,
    /// item set held per transaction (for fast release).
    held: BTreeMap<TxnId, BTreeSet<ItemId>>,
    waiting: BTreeMap<TxnId, ItemId>,
    deadlocks: u64,
}

impl LockManager {
    /// Create an empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Number of deadlocks detected so far.
    pub fn deadlocks(&self) -> u64 {
        self.deadlocks
    }

    /// True if `txn` currently waits for a lock.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.waiting.contains_key(&txn)
    }

    /// Request `mode` on `item` for `txn`.
    ///
    /// Re-requests by a holder are upgrades: a shared holder asking for
    /// exclusive is granted immediately when it is the only holder,
    /// otherwise it waits (or deadlocks).
    pub fn acquire(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> LockOutcome {
        let lock = self.locks.entry(item).or_default();
        if let Some(&held_mode) = lock.holders.get(&txn) {
            if held_mode == LockMode::Exclusive || mode == LockMode::Shared {
                return LockOutcome::Granted; // already strong enough
            }
            // Upgrade S -> X: possible only as the single holder with no
            // queued waiters ahead.
            if lock.holders.len() == 1 && lock.waiters.is_empty() {
                lock.holders.insert(txn, LockMode::Exclusive);
                return LockOutcome::Granted;
            }
        }
        let compatible = lock
            .holders
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(mode) && mode.compatible(*m));
        if compatible && lock.waiters.is_empty() {
            // `txn` cannot be a pre-existing holder here: every holder case
            // returned above (grant or fall through to the queue).
            lock.holders.insert(txn, mode);
            self.held.entry(txn).or_default().insert(item);
            return LockOutcome::Granted;
        }
        // Queue and check for deadlock.
        lock.waiters.push_back((txn, mode));
        self.waiting.insert(txn, item);
        if let Some(victim) = self.find_deadlock_victim(txn) {
            self.deadlocks += 1;
            return LockOutcome::Deadlock { victim };
        }
        LockOutcome::Waiting
    }

    /// Wait-for graph: `txn` waits for every holder of (and every earlier
    /// waiter on) the item it is queued on. DFS from `txn`; if the walk
    /// returns to `txn`, pick the youngest transaction on the cycle.
    fn find_deadlock_victim(&self, start: TxnId) -> Option<TxnId> {
        let mut stack = vec![start];
        let mut visited = BTreeSet::new();
        let mut on_cycle = BTreeSet::new();
        // Iterative DFS carrying the path implicitly: we only need cycle
        // membership through `start`, so walk edges and remember everything
        // reachable; a cycle exists iff `start` is reachable from one of
        // its successors.
        let mut reachable = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if !visited.insert(t) {
                continue;
            }
            for next in self.waits_for(t) {
                reachable.insert(next);
                stack.push(next);
            }
        }
        if !reachable.contains(&start) {
            return None;
        }
        // Everything reachable that also reaches start is on a cycle with
        // start; approximate the victim as the youngest transaction among
        // the waiting ones reachable from start (including start). This
        // always breaks the cycle because every cycle member is waiting.
        on_cycle.insert(start);
        for t in reachable {
            if self.waiting.contains_key(&t) {
                on_cycle.insert(t);
            }
        }
        on_cycle.iter().max().copied()
    }

    fn waits_for(&self, txn: TxnId) -> Vec<TxnId> {
        let Some(&item) = self.waiting.get(&txn) else {
            return Vec::new();
        };
        let Some(lock) = self.locks.get(&item) else {
            return Vec::new();
        };
        let mut out: Vec<TxnId> = lock.holders.keys().copied().filter(|t| *t != txn).collect();
        for (w, _) in &lock.waiters {
            if *w == txn {
                break;
            }
            out.push(*w);
        }
        out
    }

    /// Release everything `txn` holds or waits for. Returns the requests
    /// newly granted, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, ItemId)> {
        let mut granted = Vec::new();
        let items: Vec<ItemId> = self
            .held
            .remove(&txn)
            .unwrap_or_default()
            .into_iter()
            .collect();
        let waiting_on = self.waiting.remove(&txn);
        for item in items.into_iter().chain(waiting_on) {
            if let Some(lock) = self.locks.get_mut(&item) {
                lock.holders.remove(&txn);
                lock.waiters.retain(|(t, _)| *t != txn);
            }
            granted.extend(self.promote(item));
        }
        granted
    }

    /// Grant as many queued waiters on `item` as compatibility allows.
    fn promote(&mut self, item: ItemId) -> Vec<(TxnId, ItemId)> {
        let mut granted = Vec::new();
        let Some(lock) = self.locks.get_mut(&item) else {
            return granted;
        };
        while let Some(&(txn, mode)) = lock.waiters.front() {
            let compatible = lock
                .holders
                .iter()
                .all(|(t, m)| *t == txn || m.compatible(mode) && mode.compatible(*m));
            if !compatible {
                break;
            }
            lock.waiters.pop_front();
            lock.holders.insert(txn, mode);
            self.held.entry(txn).or_default().insert(item);
            self.waiting.remove(&txn);
            granted.push((txn, item));
        }
        if lock.holders.is_empty() && lock.waiters.is_empty() {
            self.locks.remove(&item);
        }
        granted
    }

    /// Number of locks `txn` holds.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.held.get(&txn).map(|s| s.len()).unwrap_or(0)
    }

    /// Drop everything (crash).
    pub fn clear(&mut self) {
        self.locks.clear();
        self.held.clear();
        self.waiting.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u32, s: u64) -> TxnId {
        TxnId { client: c, seq: s }
    }
    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(lm.held_count(t(0, 1)), 1);
    }

    #[test]
    fn exclusive_blocks_and_releases_grant() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        assert!(lm.is_waiting(t(0, 2)));
        let granted = lm.release_all(t(0, 1));
        assert_eq!(granted, vec![(t(0, 2), x(1))]);
        assert!(!lm.is_waiting(t(0, 2)));
    }

    #[test]
    fn fifo_no_starvation_of_writers() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        // A later shared request queues behind the waiting writer.
        assert_eq!(
            lm.acquire(t(0, 3), x(1), LockMode::Shared),
            LockOutcome::Waiting
        );
        let granted = lm.release_all(t(0, 1));
        assert_eq!(granted, vec![(t(0, 2), x(1))]);
        let granted = lm.release_all(t(0, 2));
        assert_eq!(granted, vec![(t(0, 3), x(1))]);
    }

    #[test]
    fn upgrade_single_holder() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
        // Another reader now blocks.
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Shared),
            LockOutcome::Waiting
        );
    }

    #[test]
    fn two_txn_deadlock_detected_youngest_victim() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(2), LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 1), x(2), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Exclusive),
            LockOutcome::Deadlock { victim: t(0, 2) }
        );
        assert_eq!(lm.deadlocks(), 1);
        // Aborting the victim unblocks the other transaction.
        let granted = lm.release_all(t(0, 2));
        assert_eq!(granted, vec![(t(0, 1), x(2))]);
    }

    #[test]
    fn three_txn_cycle_detected() {
        let mut lm = LockManager::new();
        for i in 1..=3 {
            assert_eq!(
                lm.acquire(t(0, i), x(i as u32), LockMode::Exclusive),
                LockOutcome::Granted
            );
        }
        assert_eq!(
            lm.acquire(t(0, 1), x(2), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(3), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        assert_eq!(
            lm.acquire(t(0, 3), x(1), LockMode::Exclusive),
            LockOutcome::Deadlock { victim: t(0, 3) }
        );
    }

    #[test]
    fn release_of_waiter_cleans_queue() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 2), x(1), LockMode::Exclusive),
            LockOutcome::Waiting
        );
        lm.release_all(t(0, 2)); // waiter gives up
        let granted = lm.release_all(t(0, 1));
        assert!(granted.is_empty());
    }

    #[test]
    fn reacquire_held_lock_is_granted() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.acquire(t(0, 1), x(1), LockMode::Exclusive),
            LockOutcome::Granted
        );
    }
}
