//! A table of values keyed by [`TxnId`], indexed by the ids it holds.
//!
//! [`TxnSet`](crate::TxnSet) answers "is this transaction in the set";
//! [`TxnTable`] also holds one value per transaction — an
//! acknowledgement, a commit record. The values sit in a [`BlockVec`] in
//! insertion order, and the index maps an id to its value's position.
//! The index is a map of pages, one per `(client, seq / 128)` that holds
//! an id, and a page keeps two things: a 128-bit presence mask, bit
//! `seq % 128` set when the id is stored, and the positions (`u32`) of
//! the ids present, packed in `seq` order. An id's position is the
//! entry at its rank — the popcount of the mask below its bit — so a
//! lookup is one map probe and a popcount, an insert shifts at most 127
//! positions of one page, and a value is never moved.
//!
//! An id that is never stored costs one bit: a client's counter also
//! numbers requests that never reach the table (the run oracle's local
//! reads), and the index grows with the ids stored, not with the range
//! they span. A stored id costs 4 bytes, and a page at full density
//! costs 32 bytes more than a plain array of 128 positions would. As
//! with `TxnSet`, an id far from every other one costs one page. A
//! `TxnTable<()>` is the index alone: it stores no value, and
//! [`TxnTable::position`] finds an id's place in a log kept beside it.

use std::collections::BTreeMap;

use groupsafe_sim::BlockVec;

use crate::types::TxnId;

/// Ids per page: one bit of the presence mask each.
const PAGE_IDS: u64 = 128;

/// Page key and bit of `txn` within its page.
fn locate(txn: TxnId) -> ((u32, u64), u32) {
    (
        (txn.client, txn.seq / PAGE_IDS),
        (txn.seq % PAGE_IDS) as u32,
    )
}

/// The index of one `(client, seq / 128)` page.
#[derive(Debug, Default)]
struct Page {
    /// Bit `seq % 128` set when the id is stored: the low 64 ids in the
    /// first word. Two words rather than a `u128`, whose 16-byte
    /// alignment would pad the page by 8 bytes.
    mask: [u64; 2],
    /// The stored ids' positions, in `seq` order.
    slots: Vec<u32>,
}

impl Page {
    /// The mask as one integer.
    fn bits(&self) -> u128 {
        u128::from(self.mask[0]) | (u128::from(self.mask[1]) << 64)
    }

    /// True if `bit`'s id is stored.
    fn has(&self, bit: u32) -> bool {
        (self.bits() >> bit) & 1 != 0
    }

    /// Where `bit`'s position sits in `slots`: the stored ids below it.
    fn rank(&self, bit: u32) -> usize {
        let below = self.bits() & ((1 << bit) - 1);
        #[cfg(test)]
        let below = tests::fault(below, bit);
        below.count_ones() as usize
    }

    /// The position of `bit`'s id, if it is stored.
    fn slot(&self, bit: u32) -> Option<usize> {
        if !self.has(bit) {
            return None;
        }
        self.slots.get(self.rank(bit)).map(|&slot| slot as usize)
    }

    /// The stored bits, ascending.
    fn stored(&self) -> impl Iterator<Item = u64> {
        let mut rest = self.bits();
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros();
            rest &= rest.checked_sub(1)?;
            Some(u64::from(bit))
        })
    }
}

/// Values keyed by [`TxnId`]; the first insert of an id wins. Iterates
/// in ascending `(client, seq)` order, the order of [`TxnId`]'s `Ord`.
#[derive(Debug)]
pub struct TxnTable<T> {
    pages: BTreeMap<(u32, u64), Page>,
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
            pages: BTreeMap::new(),
            values: BlockVec::new(),
        }
    }

    /// Position of `txn`'s value in insertion order, if it has one.
    pub fn position(&self, txn: TxnId) -> Option<usize> {
        let (key, bit) = locate(txn);
        self.pages.get(&key)?.slot(bit)
    }

    /// Store `value()` for `txn` unless it already has a value: the
    /// first insert wins, and a later one neither calls `value` nor
    /// touches what is stored. Returns true if `txn` was absent.
    ///
    /// # Panics
    ///
    /// If the table already holds more than `u32::MAX` values: a
    /// position must fit its 32-bit slot.
    pub fn insert_with(&mut self, txn: TxnId, value: impl FnOnce() -> T) -> bool {
        let next = self.values.len();
        assert!(next <= u32::MAX as usize, "transaction table full");
        let (key, bit) = locate(txn);
        let page = self.pages.entry(key).or_default();
        if page.has(bit) {
            return false;
        }
        page.slots.insert(page.rank(bit), next as u32);
        if let Some(word) = page.mask.get_mut((bit / 64) as usize) {
            *word |= 1 << (bit % 64);
        }
        self.values.push(value());
        true
    }

    /// The value stored for `txn`.
    pub fn get(&self, txn: TxnId) -> Option<&T> {
        self.values.get(self.position(txn)?)
    }

    /// True if `txn` has a value.
    pub fn contains(&self, txn: TxnId) -> bool {
        let (key, bit) = locate(txn);
        self.pages.get(&key).is_some_and(|page| page.has(bit))
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
        self.pages.iter().flat_map(|(&(client, page), index)| {
            index.stored().zip(&index.slots).map(move |(bit, &slot)| {
                let txn = TxnId {
                    client,
                    seq: page * PAGE_IDS + bit,
                };
                (txn, slot as usize)
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
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::mem::size_of;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    thread_local! {
        /// Negative control: the rank counts only the bits below the id
        /// in its own 64-bit word, ignoring the word below.
        static FAULTY_RANK: Cell<bool> = const { Cell::new(false) };
    }

    /// The mask bits [`Page::rank`] counts, as the control has them.
    pub(super) fn fault(below: u128, bit: u32) -> u128 {
        if FAULTY_RANK.get() && bit >= 64 {
            below >> 64 << 64
        } else {
            below
        }
    }

    impl<T> TxnTable<T> {
        /// Bytes the index holds: each page's key and inline fields, and
        /// its positions' capacity.
        fn index_bytes(&self) -> usize {
            let inline = size_of::<(u32, u64)>() + size_of::<Page>();
            let slots: usize = self.pages.values().map(|p| p.slots.capacity()).sum();
            self.pages.len() * inline + slots * size_of::<u32>()
        }
    }

    /// A page of the index this one replaced: a key and a boxed array of
    /// 64 words, two 4-byte positions + 1 each.
    const ARRAY_PAGE_BYTES: usize = size_of::<(u32, u64)>() + size_of::<Box<[u64; 64]>>() + 512;

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
        assert_eq!(t.pages.len(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(far, &7)]);
    }

    #[test]
    fn a_page_holds_128_consecutive_ids() {
        let mut t = TxnTable::new();
        for seq in 128..256 {
            assert!(t.insert_with(TxnId { client: 3, seq }, || seq));
        }
        assert_eq!(t.pages.len(), 1);
        assert!(t.keys().map(|txn| txn.seq).eq(128..256));
        assert!(t.values().copied().eq(128..256));
        assert_eq!(t.index_bytes(), ARRAY_PAGE_BYTES + 32);
        let next_page = TxnId {
            client: 3,
            seq: 256,
        };
        t.insert_with(next_page, || 0);
        assert_eq!(t.pages.len(), 2);
    }

    /// One step: look `txn` up (`op` 0) or insert `value` for it.
    type Step = (u8, TxnId, u64);

    /// How a run's ids are drawn.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stream {
        /// Anywhere: dense runs, both sides of a mask word and of a
        /// page, the ends of the range, repeats.
        Mixed,
        /// One id in every ten of each client's counter, ascending, as
        /// the updates among a read-mostly client's requests.
        Sparse,
        /// Whole pages, each inserted in a shuffled order.
        Dense,
    }

    fn txn_id() -> impl Strategy<Value = TxnId> {
        let dense = (0u32..3, 0u64..9000).prop_map(|(client, seq)| TxnId { client, seq });
        // Ids beside a boundary of a mask word (bit 63 | 64) and of a
        // page (bit 127 | the next page's 0).
        let edge = (0u32..2, prop_oneof![60u64..68, 124..132])
            .prop_map(|(client, seq)| TxnId { client, seq });
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
        prop_oneof![dense, edge, corners]
    }

    fn mixed() -> impl Strategy<Value = (Stream, Vec<Step>)> {
        proptest::collection::vec((0u8..4, txn_id(), 0u64..1000), 1..150)
            .prop_map(|steps| (Stream::Mixed, steps))
    }

    fn sparse() -> impl Strategy<Value = (Stream, Vec<Step>)> {
        let draws = proptest::collection::vec((0u8..4, 0u32..3, 0u64..10, 0u64..1000), 1..300);
        draws.prop_map(|draws| {
            let mut next = [0u64; 3];
            let steps = draws.into_iter().filter_map(|(op, client, jitter, value)| {
                let count = next.get_mut(client as usize)?;
                let seq = *count * 10 + jitter;
                // A lookup probes the id before it is stored.
                *count += u64::from(op != 0);
                Some((op, TxnId { client, seq }, value))
            });
            (Stream::Sparse, steps.collect())
        })
    }

    fn dense() -> impl Strategy<Value = (Stream, Vec<Step>)> {
        let page = (
            0u32..3,
            prop_oneof![Just(0u64), Just(1), Just(u64::MAX / PAGE_IDS)],
            proptest::collection::vec(0usize..PAGE_IDS as usize, PAGE_IDS as usize),
        );
        proptest::collection::vec(page, 1..4).prop_map(|pages| {
            let mut done = Vec::new();
            let mut steps = Vec::new();
            for (client, page, swaps) in pages {
                if done.contains(&(client, page)) {
                    continue;
                }
                done.push((client, page));
                let mut bits: Vec<u64> = (0..PAGE_IDS).collect();
                for (i, &draw) in swaps.iter().enumerate() {
                    bits.swap(i, i + draw % (PAGE_IDS as usize - i));
                }
                steps.extend(bits.into_iter().map(|bit| {
                    let seq = page * PAGE_IDS + bit;
                    (1, TxnId { client, seq }, seq % 1000)
                }));
            }
            (Stream::Dense, steps)
        })
    }

    fn streams() -> impl Strategy<Value = (Stream, Vec<Step>)> {
        prop_oneof![mixed(), sparse(), dense()]
    }

    /// Drive a table and the `BTreeMap<TxnId, u64>` it replaces through
    /// `steps`, an insert being `entry(id).or_insert(value)`, and compare
    /// them after every step and in full at the end; hold the index to
    /// its size: no page above an array page + 32 bytes, a sparse run
    /// at most 12 bytes per stored id beyond 60 per client (a last page
    /// of 1 to 4 ids costs 72), a dense one at most 4.5 bytes per id.
    fn check(stream: Stream, steps: &[Step]) -> Result<(), TestCaseError> {
        let mut table = TxnTable::new();
        let mut model: BTreeMap<TxnId, u64> = BTreeMap::new();
        for &(op, txn, value) in steps {
            if op == 0 {
                prop_assert_eq!(table.position(txn).is_some(), model.contains_key(&txn));
            } else {
                let fresh = !model.contains_key(&txn);
                model.entry(txn).or_insert(value);
                prop_assert_eq!(table.insert_with(txn, || value), fresh);
            }
            prop_assert_eq!(table.get(txn), model.get(&txn), "{:?}", txn);
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

        let bytes = table.index_bytes();
        let (pages, stored) = (table.pages.len(), table.len());
        prop_assert!(
            bytes <= pages * (ARRAY_PAGE_BYTES + 32),
            "{} B, {} pages",
            bytes,
            pages
        );
        match stream {
            Stream::Mixed => {}
            Stream::Sparse => {
                let clients: BTreeSet<u32> = model.keys().map(|txn| txn.client).collect();
                let bound = 12 * stored + 60 * clients.len();
                prop_assert!(bytes <= bound, "{} B for {} sparse ids", bytes, stored);
            }
            Stream::Dense => {
                prop_assert!(
                    2 * bytes <= 9 * stored,
                    "{} B for {} dense ids",
                    bytes,
                    stored
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// Every operation agrees with the `BTreeMap<TxnId, T>` the table
        /// replaces, on ids drawn anywhere, sparse and dense, within the
        /// index's size bounds.
        #[test]
        fn behaves_like_a_btreemap((stream, steps) in streams()) {
            check(stream, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The same comparison over more cases (CI's bench job runs it:
        /// `cargo test --release -p groupsafe-db --lib txntable -- --ignored`).
        #[test]
        #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
        fn behaves_like_a_btreemap_heavy((stream, steps) in streams()) {
            check(stream, &steps)?;
        }
    }

    /// Negative control: a rank that ignores the mask word below the
    /// id's own misplaces every id in a page's upper half once the lower
    /// half holds one, and the comparison must catch it on the sparse
    /// and the dense cases the proptest draws.
    #[test]
    fn a_rank_that_ignores_the_bits_below_fails_the_comparison() {
        FAULTY_RANK.set(true);
        for streams in [sparse().boxed(), dense().boxed()] {
            let failed = (0..64u64).find(|&case| {
                let (stream, steps) = streams.generate(&mut StdRng::seed_from_u64(case));
                check(stream, &steps).is_err()
            });
            assert!(failed.is_some(), "no case caught the faulty rank");
        }
        FAULTY_RANK.set(false);
    }
}
