//! A sparse array of `u64` words, for tables keyed by a dense id.
//!
//! Transaction ids, message ids and log positions are counters: the
//! n-th one issued by an owner is n. A table keyed by such an id needs
//! no search tree over the ids — the id *is* the position. What it does
//! need is a bound for the ids that are not dense (a test hands in
//! `u64::MAX`), so the positions are grouped into pages of
//! [`PAGE_WORDS`] words and only the pages that hold something exist:
//! a run of consecutive ids shares a page, a stray id costs one page,
//! never an allocation proportional to its value.
//!
//! [`WordPages`] is that array: a word is addressed by `(space, index)`
//! — the owner and the owner's counter — and reads 0 until something
//! else is stored, so 0 is how a user of the table says "absent".

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

/// Words per page (512 bytes).
pub const PAGE_WORDS: u64 = 64;

type Page = Box<[u64; PAGE_WORDS as usize]>;

/// A sparse array of words addressed by `(space, index)`; every word
/// reads 0 until set, and the empty array allocates nothing. See the
/// module docs.
///
/// A page is allocated by the first non-zero store into it and lives
/// until [`WordPages::clear`] or [`WordPages::free_page_if`], so two
/// arrays that went through the same stores (and frees) compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordPages {
    pages: BTreeMap<(u32, u64), Page>,
}

impl WordPages {
    /// The word at `(space, index)`.
    pub fn get(&self, space: u32, index: u64) -> u64 {
        self.pages
            .get(&(space, index / PAGE_WORDS))
            .and_then(|page| page.get((index % PAGE_WORDS) as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Replace the word at `(space, index)` by `f` of it and return
    /// what it was. Storing 0 where no page exists allocates nothing.
    pub fn update(&mut self, space: u32, index: u64, f: impl FnOnce(u64) -> u64) -> u64 {
        let at = (index % PAGE_WORDS) as usize;
        match self.pages.entry((space, index / PAGE_WORDS)) {
            Entry::Occupied(page) => match page.into_mut().get_mut(at) {
                Some(word) => std::mem::replace(word, f(*word)),
                None => 0,
            },
            Entry::Vacant(slot) => {
                let new = f(0);
                if new != 0 {
                    let page = slot.insert(Box::new([0; PAGE_WORDS as usize]));
                    if let Some(word) = page.get_mut(at) {
                        *word = new;
                    }
                }
                0
            }
        }
    }

    /// Free the page holding `(space, index)` if `free` says so of its
    /// words, which then read 0 again; true if a page was freed. An
    /// absent page is not offered to `free`.
    pub fn free_page_if(
        &mut self,
        space: u32,
        index: u64,
        free: impl FnOnce(&[u64]) -> bool,
    ) -> bool {
        match self.pages.entry((space, index / PAGE_WORDS)) {
            Entry::Occupied(page) if free(page.get().as_slice()) => {
                page.remove();
                true
            }
            Entry::Occupied(_) | Entry::Vacant(_) => false,
        }
    }

    /// Zero every word and free every page.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Pages currently allocated.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently allocated that hold a word of `(space, indices)`.
    pub fn pages_in(&self, space: u32, indices: Range<u64>) -> usize {
        if indices.is_empty() {
            return 0;
        }
        let last = (indices.end - 1) / PAGE_WORDS;
        self.pages
            .range((space, indices.start / PAGE_WORDS)..=(space, last))
            .count()
    }

    /// The non-zero words as `(space, index, word)`, ascending by
    /// `(space, index)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.pages.iter().flat_map(|(&(space, page), words)| {
            words
                .iter()
                .enumerate()
                .filter(|&(_, &word)| word != 0)
                .map(move |(at, &word)| (space, page * PAGE_WORDS + at as u64, word))
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn a_stray_index_costs_one_page() {
        let mut w = WordPages::default();
        assert_eq!(w.update(u32::MAX, u64::MAX, |_| 7), 0);
        assert_eq!(w.update(0, 0, |_| 9), 0);
        assert_eq!(w.pages(), 2);
        assert_eq!(w.get(u32::MAX, u64::MAX), 7);
        assert_eq!(w.get(u32::MAX, u64::MAX - 1), 0);
        // Zeroing an absent word allocates nothing.
        assert_eq!(w.update(5, 1 << 40, |_| 0), 0);
        assert_eq!(w.pages(), 2);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            vec![(0, 0, 9), (u32::MAX, u64::MAX, 7)]
        );
    }

    #[test]
    fn a_page_is_freed_only_if_asked_to() {
        let mut w = WordPages::default();
        w.update(1, 70, |_| 3);
        w.update(1, 200, |_| 4);
        assert_eq!(w.pages_in(1, 0..PAGE_WORDS), 0);
        assert_eq!(w.pages_in(1, 64..201), 2);
        assert_eq!(w.pages_in(1, 64..64), 0);
        // An absent page is never offered.
        assert!(!w.free_page_if(1, 0, |_| panic!("an absent page was offered")));
        assert!(!w.free_page_if(1, 64, |words| words.iter().all(|&x| x == 0)));
        assert!(w.free_page_if(1, 127, |words| words[70 - 64] == 3));
        assert_eq!(w.get(1, 70), 0);
        assert_eq!((w.pages(), w.get(1, 200)), (1, 4));
    }

    proptest! {
        /// Any run of stores leaves what a map from address to word
        /// holds, zero words being the ones the map does not have.
        #[test]
        fn behaves_like_a_map_of_nonzero_words(
            ops in proptest::collection::vec(
                (0u32..3, prop_oneof![0u64..200, Just(u64::MAX - 1), Just(u64::MAX)], 0u64..4),
                1..80,
            ),
        ) {
            let mut w = WordPages::default();
            let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            for (space, index, value) in ops {
                let old = w.update(space, index, |_| value);
                let was = if value == 0 {
                    model.remove(&(space, index))
                } else {
                    model.insert((space, index), value)
                };
                prop_assert_eq!(old, was.unwrap_or(0));
                prop_assert_eq!(w.get(space, index), value);
            }
            let expect: Vec<_> = model.iter().map(|(&(s, i), &v)| (s, i, v)).collect();
            prop_assert_eq!(w.iter().collect::<Vec<_>>(), expect);
            w.clear();
            prop_assert_eq!(w.pages(), 0);
            prop_assert_eq!(w.iter().count(), 0);
        }
    }
}
