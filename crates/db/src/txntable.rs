//! A table of values keyed by [`TxnId`], indexed by the id.
//!
//! [`TxnSet`](crate::TxnSet) answers "is this transaction in the set";
//! [`TxnTable`] also holds one value per transaction — an
//! acknowledgement, a commit record. The values sit in a [`BlockVec`] in
//! insertion order, and the value's position + 1 (0 = absent) sits in a
//! 32-bit half of the [`WordPages`] word at `(client, seq / 2)` — the
//! low half for an even `seq`, the high half for an odd one: a lookup is
//! one page probe, a value is never moved, and a run of one client's
//! consecutive ids costs four bytes of index each (a page covers 128
//! ids). As with `TxnSet`, an id far from every other one costs one
//! page. A `TxnTable<()>` is the index alone: it stores no value, and
//! [`TxnTable::position`] finds an id's place in a log kept beside it.

use groupsafe_sim::{BlockVec, WordPages};

use crate::types::TxnId;

/// One half of an index word: a position + 1.
const HALF: u64 = u32::MAX as u64;

/// Index word and bit shift of `txn`'s half within its client's index.
fn locate(txn: TxnId) -> (u64, u32) {
    (txn.seq / 2, 32 * (txn.seq % 2) as u32)
}

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

    /// `txn`'s stored position + 1 (0 = absent).
    fn half(&self, txn: TxnId) -> u64 {
        let (word, shift) = locate(txn);
        (self.slots.get(txn.client, word) >> shift) & HALF
    }

    /// Position of `txn`'s value in insertion order, if it has one.
    pub fn position(&self, txn: TxnId) -> Option<usize> {
        self.half(txn).checked_sub(1).map(|slot| slot as usize)
    }

    /// Store `value()` for `txn` unless it already has a value: the
    /// first insert wins, and a later one neither calls `value` nor
    /// touches what is stored. Returns true if `txn` was absent.
    ///
    /// # Panics
    ///
    /// If the table already holds `u32::MAX` values: a position must fit
    /// its half word.
    pub fn insert_with(&mut self, txn: TxnId, value: impl FnOnce() -> T) -> bool {
        let next = self.values.len() as u64 + 1;
        assert!(next <= HALF, "transaction table full");
        let (word, shift) = locate(txn);
        let old = self.slots.update(txn.client, word, |w| {
            if (w >> shift) & HALF == 0 {
                w | (next << shift)
            } else {
                w
            }
        });
        let fresh = (old >> shift) & HALF == 0;
        if fresh {
            self.values.push(value());
        }
        fresh
    }

    /// The value stored for `txn`.
    pub fn get(&self, txn: TxnId) -> Option<&T> {
        self.values.get(self.position(txn)?)
    }

    /// True if `txn` has a value.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.half(txn) != 0
    }

    /// Number of transactions with a value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `(id, position)` pairs in ascending id order.
    pub fn positions(&self) -> impl Iterator<Item = (TxnId, usize)> + '_ {
        self.slots.iter().flat_map(move |(client, word, halves)| {
            [0, 1].into_iter().filter_map(move |odd| {
                let slot = ((halves >> (32 * odd)) & HALF).checked_sub(1)?;
                let txn = TxnId {
                    client,
                    seq: word * 2 + odd,
                };
                Some((txn, slot as usize))
            })
        })
    }

    /// The `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &T)> + '_ {
        let positions = self.positions();
        positions.filter_map(|(txn, slot)| Some((txn, self.values.get(slot)?)))
    }

    /// The ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.iter().map(|(txn, _)| txn)
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
        assert!(!t.insert_with(far, || panic!("first insert wins")));
        assert_eq!(t.get(far), Some(&7));
        assert_eq!(t.slots.pages(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(far, &7)]);
    }

    #[test]
    fn a_page_holds_128_consecutive_ids() {
        let mut t = TxnTable::new();
        for seq in 128..256 {
            assert!(t.insert_with(TxnId { client: 3, seq }, || seq));
        }
        assert_eq!(t.slots.pages(), 1);
        assert!(t.keys().map(|txn| txn.seq).eq(128..256));
        assert!(t.values().copied().eq(128..256));
        let next_page = TxnId {
            client: 3,
            seq: 256,
        };
        t.insert_with(next_page, || 0);
        assert_eq!(t.slots.pages(), 2);
    }

    fn txn_id() -> impl Strategy<Value = TxnId> {
        let dense = (0u32..3, 0u64..9000).prop_map(|(client, seq)| TxnId { client, seq });
        // Both ids of one index word: an even `seq` and the odd one
        // after it share a word, each in its own half.
        let pair = (0u32..2, 0u64..4, 0u64..2).prop_map(|(client, word, odd)| TxnId {
            client,
            seq: word * 2 + odd,
        });
        let corners = (
            prop_oneof![Just(0u32), Just(u32::MAX)],
            prop_oneof![
                Just(0u64),
                Just(1),
                Just(1 << 32),
                Just(u64::MAX - 1),
                Just(u64::MAX)
            ],
        )
            .prop_map(|(client, seq)| TxnId { client, seq });
        prop_oneof![dense, pair, corners]
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
                        // A position lookup, present or not.
                        prop_assert_eq!(table.position(txn).is_some(), model.contains_key(&txn));
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
            for (txn, position) in table.positions() {
                prop_assert_eq!(table.position(txn), Some(position));
                prop_assert_eq!(table.values.get(position), model.get(&txn));
            }
        }
    }
}
