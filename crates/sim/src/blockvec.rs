//! A growable sequence that never moves its elements.
//!
//! A `Vec` that only ever grows — a write-ahead log, a sequence log —
//! pays for its contiguity twice over a long run: every doubling copies
//! the whole log into a new allocation, leaving the old one as a hole
//! no later (larger) incarnation fits in, and between doublings up to
//! half the capacity is slack. With one such log per replica the
//! process's resident set then depends on where the allocator happened
//! to place each incarnation — on the seed, not on the workload.
//!
//! [`BlockVec`] stores its elements in blocks of 512 instead:
//! growing allocates one more block, shrinking frees whole blocks, an
//! element keeps its address for life, and indexing stays O(1).
//!
//! A log that no longer reads its front can free it:
//! [`BlockVec::release_below`] frees the whole blocks below an index,
//! and every other element keeps its index.

/// Elements per block.
const BLOCK: usize = 512;

/// A sequence stored in fixed-size blocks. See the module docs.
///
/// Every block but the last is full, and the last is never empty —
/// except the first `released` blocks, which are freed: empty, owning
/// no allocation, and kept in place so that indices stay absolute.
#[derive(Debug, Clone)]
pub struct BlockVec<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
    /// Leading blocks freed by [`BlockVec::release_below`].
    released: usize,
}

impl<T> Default for BlockVec<T> {
    fn default() -> Self {
        BlockVec::new()
    }
}

impl<T> BlockVec<T> {
    /// Elements per block: the unit [`BlockVec::release_below`] frees.
    pub const BLOCK_LEN: usize = BLOCK;

    /// An empty sequence; allocates nothing.
    pub fn new() -> Self {
        BlockVec {
            blocks: Vec::new(),
            len: 0,
            released: 0,
        }
    }

    /// Number of elements, released ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements not released: what the sequence still stores.
    pub fn held(&self) -> usize {
        self.len - self.released * BLOCK
    }

    /// The element at `index`, if there is one and it is not released.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.blocks.get(index / BLOCK)?.get(index % BLOCK)
    }

    /// As [`BlockVec::get`], mutable.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.blocks.get_mut(index / BLOCK)?.get_mut(index % BLOCK)
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        // Decided by `len`, not by the last block's length: truncating
        // to the released boundary leaves an empty, released block last.
        match self.blocks.last_mut() {
            Some(last) if !self.len.is_multiple_of(BLOCK) => last.push(value),
            _ => {
                let mut block = Vec::with_capacity(BLOCK);
                block.push(value);
                self.blocks.push(block);
            }
        }
        self.len += 1;
    }

    /// Keep the first `len` elements and drop the rest (no-op when
    /// there are no more than that). `len` must not fall inside the
    /// released blocks: the elements there are gone.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        assert!(
            len >= self.released * BLOCK,
            "truncating into released blocks"
        );
        self.blocks.truncate(len.div_ceil(BLOCK));
        if let Some(last) = self.blocks.last_mut() {
            last.truncate(len - (len - 1) / BLOCK * BLOCK);
        }
        self.len = len;
    }

    /// Grow to `len` elements with values from `fill`, or truncate to
    /// `len`.
    pub fn resize_with(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        self.truncate(len);
        while self.len < len {
            self.push(fill());
        }
    }

    /// Drop every element and free every block.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
        self.released = 0;
    }

    /// Free the whole blocks below `index`, but never the last block:
    /// their elements read as absent from then on (`get` is `None`,
    /// iteration skips them), and every other element keeps its index.
    /// A block is freed once, so the calls of a run cost one step per
    /// block in all.
    pub fn release_below(&mut self, index: usize) {
        let end = (index / BLOCK).min(self.blocks.len().saturating_sub(1));
        for block in self.blocks.iter_mut().take(end).skip(self.released) {
            *block = Vec::new();
        }
        self.released = self.released.max(end);
    }

    /// The elements in order (released ones skipped).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flatten()
    }

    /// As [`BlockVec::iter`], mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.blocks.iter_mut().flatten()
    }

    /// The blocks in order, as slices: block `k` holds the elements from
    /// index `k × BLOCK_LEN` on (a released block is empty).
    pub fn blocks(&self) -> impl Iterator<Item = &[T]> {
        self.blocks.iter().map(Vec::as_slice)
    }

    /// As [`BlockVec::blocks`], mutable: a caller may reorder the
    /// elements within a block, and none moves to another block.
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        self.blocks.iter_mut().map(Vec::as_mut_slice)
    }

    /// The elements from `start` on, in order, found without walking
    /// the ones before (empty when `start` is at or past the end;
    /// released ones skipped).
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let mut blocks = self.blocks.get(start / BLOCK..).unwrap_or(&[]).iter();
        let first = blocks.next().and_then(|b| b.get(start % BLOCK..));
        first.into_iter().flatten().chain(blocks.flatten())
    }
}

impl<T> FromIterator<T> for BlockVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = BlockVec::new();
        iter.into_iter().for_each(|value| out.push(value));
        out
    }
}

impl<T> IntoIterator for BlockVec<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn elements_keep_their_address_while_the_sequence_grows() {
        let mut v = BlockVec::new();
        v.push(7u64);
        let first: *const u64 = v.get(0).expect("pushed");
        (1..4 * BLOCK as u64).for_each(|i| v.push(i));
        assert_eq!(v.len(), 4 * BLOCK);
        assert!(std::ptr::eq(first, v.get(0).expect("still there")));
        assert_eq!(v.get(BLOCK), Some(&(BLOCK as u64)));
        assert_eq!(v.get(4 * BLOCK), None);
    }

    #[test]
    fn truncating_to_a_block_boundary_leaves_no_empty_block() {
        let mut v: BlockVec<usize> = (0..2 * BLOCK + 3).collect();
        v.truncate(2 * BLOCK);
        assert_eq!(v.blocks.len(), 2);
        v.push(9);
        assert_eq!(v.get(2 * BLOCK), Some(&9));
        v.truncate(0);
        assert!(v.is_empty() && v.blocks.is_empty());
    }

    #[test]
    fn releasing_frees_whole_blocks_and_keeps_every_other_index() {
        let mut v: BlockVec<usize> = (0..2 * BLOCK + 3).collect();
        v.release_below(BLOCK + 1);
        assert_eq!(v.released, 1);
        assert_eq!(v.blocks.first().map(Vec::capacity), Some(0));
        assert_eq!(v.get(BLOCK - 1), None);
        assert_eq!(v.get(BLOCK), Some(&BLOCK));
        assert_eq!(v.len(), 2 * BLOCK + 3);
        assert!(v.iter().copied().eq(BLOCK..2 * BLOCK + 3));
        // Everything below the end is not enough to free the last block.
        v.release_below(v.len());
        assert_eq!(v.released, 2);
        assert_eq!(v.get(2 * BLOCK), Some(&(2 * BLOCK)));
    }

    #[test]
    fn a_release_right_after_a_block_boundary() {
        // One full block, released below its end: it is the last block,
        // so it stays.
        let mut v: BlockVec<usize> = (0..BLOCK).collect();
        v.release_below(BLOCK);
        assert_eq!(v.released, 0);
        // One element past the boundary: now the full block goes.
        v.push(BLOCK);
        v.release_below(BLOCK);
        assert_eq!(v.released, 1);
        assert_eq!(v.get(BLOCK), Some(&BLOCK));
        // Truncating back to the boundary leaves the freed block last;
        // the next push still lands at the next index.
        v.truncate(BLOCK);
        v.push(7);
        assert_eq!((v.len(), v.get(BLOCK)), (BLOCK + 1, Some(&7)));
        assert!(v.iter().eq([7].iter()));
    }

    proptest! {
        /// Any mix of the mutating operations leaves the same elements
        /// a `Vec` holds, minus the released front, and every reader
        /// agrees with the slice.
        #[test]
        fn behaves_like_a_vec(
            ops in proptest::collection::vec((0u8..6, 0usize..3 * BLOCK), 1..40),
            from in 0usize..4 * BLOCK,
        ) {
            let mut v = BlockVec::new();
            let mut model = Vec::new();
            // The model's elements below this index are released in `v`.
            let mut freed = 0;
            let mut next = 0u32;
            for (op, n) in ops {
                match op {
                    0 => {
                        v.push(next);
                        model.push(next);
                        next += 1;
                    }
                    1 => {
                        v.truncate(n.max(freed));
                        model.truncate(n.max(freed));
                    }
                    2 => {
                        v.resize_with(n.max(freed), || 0);
                        model.resize_with(n.max(freed), || 0);
                    }
                    3 => {
                        if let (Some(a), Some(b)) = (v.get_mut(n), model.get_mut(n)) {
                            *a += 1;
                            *b += 1;
                        }
                    }
                    _ => {
                        // Below an arbitrary index, or below the end
                        // (often right at a block boundary).
                        let index = if op == 4 { n } else { model.len() };
                        v.release_below(index);
                        let last_block = model.len().saturating_sub(1) / BLOCK * BLOCK;
                        freed = freed.max((index / BLOCK * BLOCK).min(last_block));
                    }
                }
                prop_assert_eq!(v.len(), model.len());
                prop_assert_eq!(v.released * BLOCK, freed);
                prop_assert!(v.blocks.iter().take(v.released).all(|b| b.capacity() == 0));
                prop_assert!(v.blocks.iter().skip(v.released).all(|b| !b.is_empty()));
            }
            let held = &model[freed..];
            prop_assert_eq!(v.held(), held.len());
            prop_assert!(v.iter().eq(held));
            prop_assert!(v.iter_from(from).eq(model.get(from.max(freed)..).unwrap_or(&[])));
            prop_assert_eq!(v.get(from), model.get(from).filter(|_| from >= freed));
            prop_assert_eq!(v.into_iter().collect::<Vec<_>>(), held.to_vec());
        }
    }
}
