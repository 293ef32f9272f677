//! A table of values keyed by [`TxnId`], indexed by the id.
//!
//! [`TxnSet`](crate::TxnSet) answers "is this transaction in the set";
//! [`TxnTable`] also holds one value per transaction — an
//! acknowledgement, a commit record. The values sit in a [`BlockVec`] in
//! insertion order, and a [`WordPages`] word at `(client, seq)` holds
//! the value's position + 1 (0 = absent): a lookup is one page probe, a
//! value is never moved, and a run of one client's consecutive ids costs
//! eight bytes of index each. As with `TxnSet`, an id far from every
//! other one costs one page.

use groupsafe_sim::{BlockVec, WordPages};

use crate::types::TxnId;

/// Values keyed by [`TxnId`]; the first insert of an id wins. Iterates
/// in ascending `(client, seq)` order, the order of [`TxnId`]'s `Ord`.
#[derive(Debug)]
pub struct TxnTable<T> {
    slots: WordPages,
    values: BlockVec<T>,
}

impl<T> Default for TxnTable<T> {
    fn default() -> Self {
        TxnTable::new()
    }
}

impl<T> TxnTable<T> {
    /// The empty table; allocates nothing.
    pub fn new() -> Self {
        TxnTable {
            slots: WordPages::default(),
            values: BlockVec::new(),
        }
    }

    /// Position of `txn`'s value, if it has one.
    fn slot(&self, txn: TxnId) -> Option<usize> {
        let word = self.slots.get(txn.client, txn.seq);
        word.checked_sub(1).map(|slot| slot as usize)
    }

    /// Store `value()` for `txn` unless it already has a value: the
    /// first insert wins, and a later one neither calls `value` nor
    /// touches what is stored. Returns true if `txn` was absent.
    pub fn insert_with(&mut self, txn: TxnId, value: impl FnOnce() -> T) -> bool {
        let next = self.values.len() as u64 + 1;
        let old = self
            .slots
            .update(txn.client, txn.seq, |w| if w == 0 { next } else { w });
        let fresh = old == 0;
        if fresh {
            self.values.push(value());
        }
        fresh
    }

    /// The value stored for `txn`.
    pub fn get(&self, txn: TxnId) -> Option<&T> {
        self.values.get(self.slot(txn)?)
    }

    /// As [`TxnTable::get`], mutable.
    pub fn get_mut(&mut self, txn: TxnId) -> Option<&mut T> {
        let slot = self.slot(txn)?;
        self.values.get_mut(slot)
    }

    /// True if `txn` has a value.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.slots.get(txn.client, txn.seq) != 0
    }

    /// Number of transactions with a value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &T)> + '_ {
        self.slots.iter().filter_map(|(client, seq, word)| {
            let value = self.values.get(word.checked_sub(1)? as usize)?;
            Some((TxnId { client, seq }, value))
        })
    }

    /// The ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.slots
            .iter()
            .map(|(client, seq, _)| TxnId { client, seq })
    }

    /// The values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn an_id_at_the_end_of_the_range_costs_one_page() {
        let mut t = TxnTable::new();
        let far = TxnId {
            client: u32::MAX,
            seq: u64::MAX,
        };
        assert!(t.insert_with(far, || 7u64));
        assert!(!t.insert_with(far, || unreachable!("first insert wins")));
        assert_eq!(t.get(far), Some(&7));
        assert_eq!(t.slots.pages(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(far, &7)]);
    }

    fn txn_id() -> impl Strategy<Value = TxnId> {
        let dense = (0u32..3, 0u64..9000).prop_map(|(client, seq)| TxnId { client, seq });
        let corners = (
            prop_oneof![Just(0u32), Just(u32::MAX)],
            prop_oneof![Just(0u64), Just(1 << 32), Just(u64::MAX)],
        )
            .prop_map(|(client, seq)| TxnId { client, seq });
        prop_oneof![dense, corners]
    }

    proptest! {
        /// Every operation agrees with the `BTreeMap<TxnId, T>` the table
        /// replaces, where an insert is `entry(id).or_insert(value)`.
        #[test]
        fn behaves_like_a_btreemap(
            ops in proptest::collection::vec((0u8..4, txn_id(), 0u64..1000), 1..150),
        ) {
            let mut table = TxnTable::new();
            let mut model: BTreeMap<TxnId, u64> = BTreeMap::new();
            for (op, txn, value) in ops {
                match op {
                    0 => {
                        // Change a stored value in place.
                        if let (Some(a), Some(b)) = (table.get_mut(txn), model.get_mut(&txn)) {
                            *a += value;
                            *b += value;
                        }
                        prop_assert_eq!(table.get_mut(txn).is_some(), model.contains_key(&txn));
                    }
                    _ => {
                        let fresh = !model.contains_key(&txn);
                        model.entry(txn).or_insert(value);
                        prop_assert_eq!(table.insert_with(txn, || value), fresh);
                    }
                }
                prop_assert_eq!(table.get(txn), model.get(&txn));
                prop_assert_eq!(table.contains(txn), model.contains_key(&txn));
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
            }
            prop_assert!(table.iter().eq(model.iter().map(|(&k, v)| (k, v))));
            prop_assert!(table.keys().eq(model.keys().copied()));
            prop_assert!(table.values().eq(model.values()));
        }
    }
}
