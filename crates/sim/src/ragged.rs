//! Append-only logs of records with variable-length bodies.
//!
//! [`Ragged`] keeps a fixed-size record per entry in a [`BlockVec`] and
//! copies each record's body of `(A, B)` cells, back to back, into two
//! columns in lockstep, a [`BlockVec`] of each field (a body of single
//! values leaves `B` as `()`, a column that holds no data). A record
//! holds only the column offset where its body ends ([`Extent`]): its
//! body starts where the previous record's ends. A record with four
//! bytes of padding to spare holds its end there for free; `u32` is the
//! record that is its end alone. Indices and offsets stay absolute for
//! life: [`Ragged::release_below`] frees a front no longer read, whole
//! blocks at a time, and [`Ragged::truncate`] cuts a tail. Ends are
//! `u32`, so the columns hold at most `u32::MAX` cells over the log's
//! life.

use crate::BlockVec;

/// A [`Ragged`] record: it holds the column offset where its body ends,
/// which the log sets.
pub trait Extent {
    /// Where the body ends.
    fn end(&self) -> u32;
    /// Store where the body ends.
    fn set_end(&mut self, end: u32);
}

impl Extent for u32 {
    fn end(&self) -> u32 {
        *self
    }

    fn set_end(&mut self, end: u32) {
        *self = end;
    }
}

/// Records with bodies of `(A, B)` cells, appended in order. See the
/// module docs.
#[derive(Debug)]
pub struct Ragged<R, A, B = ()> {
    records: BlockVec<R>,
    columns: (BlockVec<A>, BlockVec<B>),
    /// Records below this index are released.
    first: usize,
    /// Where record `first`'s body starts.
    first_start: usize,
}

impl<R, A, B> Default for Ragged<R, A, B> {
    fn default() -> Self {
        Ragged {
            records: BlockVec::new(),
            columns: (BlockVec::new(), BlockVec::new()),
            first: 0,
            first_start: 0,
        }
    }
}

impl<R: Extent, A: Copy, B: Copy> Ragged<R, A, B> {
    /// Number of records, released ones included.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when there is no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records not released.
    pub fn live(&self) -> usize {
        self.len() - self.first
    }

    /// The two columns.
    pub fn columns(&self) -> &(BlockVec<A>, BlockVec<B>) {
        &self.columns
    }

    /// Append `record` with its body; returns its index.
    pub fn push(&mut self, mut record: R, body: impl IntoIterator<Item = (A, B)>) -> usize {
        record.set_end(self.start(self.len()) as u32);
        self.records.push(record);
        self.extend_last(body);
        self.len() - 1
    }

    /// Append `cells` to the last record's body.
    ///
    /// # Panics
    ///
    /// If the last record is released or absent, or if the columns
    /// would hold more than `u32::MAX` cells.
    pub fn extend_last(&mut self, cells: impl IntoIterator<Item = (A, B)>) {
        let last = self.len().checked_sub(1).filter(|&last| last >= self.first);
        assert!(last.is_some(), "no live record to grow");
        for (a, b) in cells {
            self.columns.0.push(a);
            self.columns.1.push(b);
        }
        let end = self.columns.0.len();
        assert!(end <= u32::MAX as usize, "ragged log columns full");
        if let Some(record) = last.and_then(|last| self.records.get_mut(last)) {
            record.set_end(end as u32);
        }
    }

    /// Where record `index`'s body starts, for `first ≤ index ≤ len`.
    fn start(&self, index: usize) -> usize {
        match index.checked_sub(1).and_then(|prev| self.records.get(prev)) {
            Some(prev) if index > self.first => prev.end() as usize,
            _ => self.first_start,
        }
    }

    /// Record `index` with its body, unless it is released or absent.
    pub fn get(&self, index: usize) -> Option<(&R, Body<'_, A, B>)> {
        self.iter_from(index).next().filter(|_| index >= self.first)
    }

    /// The records from `index` on, with their bodies (from the first
    /// live one if `index` is released).
    pub fn iter_from(&self, index: usize) -> impl Iterator<Item = (&R, Body<'_, A, B>)> {
        let index = index.max(self.first);
        let mut start = self.start(index);
        self.records.iter_from(index).map(move |record| {
            let end = record.end() as usize;
            let columns = &self.columns;
            let body = Body {
                columns,
                start,
                end,
            };
            start = end;
            (record, body)
        })
    }

    /// Release the records below `index` and their bodies: they read as
    /// absent from then on, and the whole blocks of records and of both
    /// columns below them are freed ([`BlockVec::release_below`]).
    pub fn release_below(&mut self, index: usize) {
        let index = index.clamp(self.first, self.len());
        self.first_start = self.start(index);
        self.first = index;
        self.records.release_below(index);
        self.columns.0.release_below(self.first_start);
        self.columns.1.release_below(self.first_start);
    }

    /// Keep the first `len` records and their bodies.
    ///
    /// # Panics
    ///
    /// If records are to be dropped and `len` is below the first live
    /// one.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            assert!(len >= self.first, "truncating into released records");
            let start = self.start(len);
            self.columns.0.truncate(start);
            self.columns.1.truncate(start);
            self.records.truncate(len);
        }
    }
}

/// One record's body, borrowed from a [`Ragged`] log.
pub struct Body<'a, A, B = ()> {
    columns: &'a (BlockVec<A>, BlockVec<B>),
    start: usize,
    end: usize,
}

impl<A, B> Clone for Body<'_, A, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A, B> Copy for Body<'_, A, B> {}

impl<'a, A: Copy, B: Copy> Body<'a, A, B> {
    /// The cells in order.
    pub fn iter(&self) -> impl Iterator<Item = (A, B)> + 'a {
        let (a, b) = self.columns;
        let cells = a.iter_from(self.start).zip(b.iter_from(self.start));
        cells.take(self.end - self.start).map(|(&a, &b)| (a, b))
    }

    /// The first `n` cells (all of them if there are fewer) and the
    /// rest.
    pub fn split_at(&self, n: usize) -> (Self, Self) {
        let (mut head, mut rest) = (*self, *self);
        head.end = self.end.min(self.start + n);
        rest.start = head.end;
        (head, rest)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const BLOCK: usize = BlockVec::<()>::BLOCK_LEN;

    /// A record with an end field, as a log's own record type keeps it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec {
        id: u32,
        end: u32,
    }

    impl Extent for Rec {
        fn end(&self) -> u32 {
            self.end
        }

        fn set_end(&mut self, end: u32) {
            self.end = end;
        }
    }

    fn cells(id: u32, len: usize) -> Vec<(u32, u64)> {
        (0..len as u32)
            .map(|k| (id ^ k, u64::from(id) + 7 * u64::from(k)))
            .collect()
    }

    #[test]
    fn a_body_starts_where_the_previous_one_ends() {
        let mut log: Ragged<u32, u32, u64> = Ragged::default();
        assert_eq!(log.push(0, cells(1, 2)), 0);
        assert_eq!(log.push(0, []), 1);
        assert_eq!(log.push(9, cells(3, 1)), 2);
        let bodies: Vec<Vec<_>> = log.iter_from(0).map(|(_, b)| b.iter().collect()).collect();
        assert_eq!(bodies, [cells(1, 2), vec![], cells(3, 1)]);
        let (&end, body) = log.get(2).expect("pushed");
        assert_eq!((end, body.iter().count()), (3, 1));
        let (_, body) = log.get(0).expect("pushed");
        let (head, tail) = body.split_at(1);
        assert!(head.iter().eq(cells(1, 1)));
        assert_eq!(tail.iter().collect::<Vec<_>>(), vec![(0, 8)]);
        assert_eq!(body.split_at(5).1.iter().count(), 0);
    }

    #[test]
    fn releasing_keeps_indices_and_frees_whole_blocks() {
        let mut log: Ragged<u32, u32, u64> = Ragged::default();
        for id in 0..2 * BLOCK as u32 {
            log.push(0, cells(id, 1));
        }
        log.release_below(BLOCK + 1);
        assert!(log.get(BLOCK).is_none());
        assert_eq!(log.records.held(), BLOCK);
        let (items, versions) = log.columns();
        assert_eq!((items.held(), versions.held()), (BLOCK, BLOCK));
        let (_, body) = log.get(BLOCK + 1).expect("live");
        assert!(body.iter().eq(cells(BLOCK as u32 + 1, 1)));
        // A truncate down to the release point empties the live bodies,
        // and the next push lands at the next index.
        log.truncate(BLOCK + 1);
        assert_eq!(log.push(0, cells(5, 2)), BLOCK + 1);
        assert_eq!(log.columns().0.len(), BLOCK + 3);
        assert!(log.iter_from(0).map(|(_, b)| b.iter().count()).eq([2]));
    }

    proptest! {
        /// Any interleaving of pushes, growth of the last body, releases
        /// and truncations leaves the log equal to a vector of records
        /// that own their bodies: the same length, every live index read
        /// the same by `get` and by iteration from any index, and the
        /// released front absent. Bodies run from empty to longer than a
        /// column block, so releases and truncations fall inside bodies
        /// and on block boundaries.
        #[test]
        fn behaves_like_a_vec_of_records_that_own_their_bodies(
            ops in proptest::collection::vec(
                (0u8..4, prop_oneof![0usize..4, 500usize..700], 0usize..1500),
                1..80,
            ),
        ) {
            let mut log: Ragged<Rec, u32, u64> = Ragged::default();
            let mut model: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
            // The model's records below this index are released.
            let mut first = 0;
            for (n, (op, len, index)) in ops.into_iter().enumerate() {
                let id = n as u32;
                match op {
                    0 => {
                        let index = log.push(Rec { id, end: 0 }, cells(id, len));
                        prop_assert_eq!(index, model.len());
                        model.push((id, cells(id, len)));
                    }
                    1 => {
                        if model.len() > first {
                            log.extend_last(cells(id, len));
                            if let Some((_, body)) = model.last_mut() {
                                body.extend(cells(id, len));
                            }
                        }
                    }
                    2 => {
                        log.release_below(index);
                        first = index.clamp(first, model.len());
                    }
                    _ => {
                        let len = index.max(first);
                        log.truncate(len);
                        model.truncate(len);
                    }
                }
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.is_empty(), model.is_empty());
                prop_assert_eq!(log.live(), model.len() - first);
                let cells: usize = model.iter().map(|(_, body)| body.len()).sum();
                let (items, versions) = log.columns();
                prop_assert_eq!((items.len(), versions.len()), (cells, cells));
                let owned = |(rec, body): (&Rec, Body<'_, u32, u64>)| (rec.id, body.iter().collect::<Vec<_>>());
                for index in 0..=model.len() {
                    let want = model.get(index).filter(|_| index >= first).cloned();
                    prop_assert_eq!(log.get(index).map(owned), want);
                    let from = model.get(index.max(first)..).unwrap_or(&[]);
                    prop_assert!(log.iter_from(index).map(owned).eq(from.iter().cloned()));
                }
            }
        }
    }
}
