//! The committed-transaction table as a paged bitmap.
//!
//! A [`TxnId`] is a client plus that client's own counter, so the set
//! of transactions one client has committed is a run of consecutive
//! integers with few holes. [`TxnSet`] keeps one bit per id in a
//! [`WordPages`] addressed by `(client, seq / 64)`: one 512-byte page
//! covers 4 096 consecutive `seq` of one client, membership is a shift
//! and a mask, and a checkpoint clone copies a handful of pages. An id
//! far from every other one — `TxnId { client: u32::MAX, seq: u64::MAX }`
//! — costs one page like any other.

use groupsafe_sim::WordPages;

use crate::types::TxnId;

/// A set of [`TxnId`]s. Iterates in ascending `(client, seq)` order,
/// the order of [`TxnId`]'s `Ord`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnSet {
    bits: WordPages,
    len: usize,
}

/// Word index and bit mask of `txn` within its client's bitmap.
fn locate(txn: TxnId) -> (u64, u64) {
    (txn.seq / 64, 1 << (txn.seq % 64))
}

impl TxnSet {
    /// The empty set; allocates nothing.
    pub fn new() -> Self {
        TxnSet::default()
    }

    /// Add `txn`. Returns false if it was already present.
    pub fn insert(&mut self, txn: TxnId) -> bool {
        let (word, bit) = locate(txn);
        let fresh = self.bits.update(txn.client, word, |w| w | bit) & bit == 0;
        self.len += usize::from(fresh);
        fresh
    }

    /// True if `txn` is in the set.
    pub fn contains(&self, txn: TxnId) -> bool {
        let (word, bit) = locate(txn);
        self.bits.get(txn.client, word) & bit != 0
    }

    /// Number of transactions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove everything and free every page.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    /// The members in ascending `(client, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.bits.iter().flat_map(|(client, word, bits)| {
            (0..64u64)
                .filter(move |b| bits >> b & 1 != 0)
                .map(move |b| TxnId {
                    client,
                    seq: word * 64 + b,
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn an_id_at_the_end_of_the_range_costs_one_page() {
        let mut s = TxnSet::new();
        let far = TxnId {
            client: u32::MAX,
            seq: u64::MAX,
        };
        assert!(s.insert(far));
        assert!(!s.insert(far));
        assert!(s.contains(far));
        assert_eq!(s.bits.pages(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![far]);
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
        /// Every operation agrees with the `BTreeSet<TxnId>` the table
        /// replaces, iteration order and equality of clones included.
        #[test]
        fn behaves_like_a_btreeset(
            ops in proptest::collection::vec((0u8..8, txn_id()), 1..120),
        ) {
            let mut set = TxnSet::new();
            let mut model: BTreeSet<TxnId> = BTreeSet::new();
            for (op, txn) in ops {
                match op {
                    0 => {
                        set.clear();
                        model.clear();
                    }
                    1 => {
                        // A clone is equal until it diverges.
                        let mut copy = set.clone();
                        prop_assert_eq!(&copy, &set);
                        copy.insert(txn);
                        prop_assert_eq!(copy == set, model.contains(&txn));
                    }
                    _ => prop_assert_eq!(set.insert(txn), model.insert(txn)),
                }
                prop_assert_eq!(set.contains(txn), model.contains(&txn));
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            prop_assert!(set.iter().eq(model.iter().copied()));
            // Equality is membership: the same ids in another order.
            let mut again = TxnSet::new();
            for &txn in model.iter().rev() {
                again.insert(txn);
            }
            prop_assert_eq!(&again, &set);
        }
    }
}
