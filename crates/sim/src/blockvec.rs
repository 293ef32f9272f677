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

/// Elements per block.
const BLOCK: usize = 512;

/// A sequence stored in fixed-size blocks. See the module docs.
///
/// Every block but the last is full, and the last is never empty.
#[derive(Debug)]
pub struct BlockVec<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for BlockVec<T> {
    fn default() -> Self {
        BlockVec::new()
    }
}

impl<T> BlockVec<T> {
    /// An empty sequence; allocates nothing.
    pub fn new() -> Self {
        BlockVec {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.blocks.get(index / BLOCK)?.get(index % BLOCK)
    }

    /// As [`BlockVec::get`], mutable.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.blocks.get_mut(index / BLOCK)?.get_mut(index % BLOCK)
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        match self.blocks.last_mut() {
            Some(last) if last.len() < BLOCK => last.push(value),
            _ => {
                let mut block = Vec::with_capacity(BLOCK);
                block.push(value);
                self.blocks.push(block);
            }
        }
        self.len += 1;
    }

    /// Keep the first `len` elements and drop the rest (no-op when
    /// there are no more than that).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
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
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.into_iter()
    }

    /// As [`BlockVec::iter`], mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.blocks.iter_mut().flatten()
    }

    /// The elements from `start` on, in order, found without walking
    /// the ones before (empty when `start` is at or past the end).
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let mut blocks = self.blocks.get(start / BLOCK..).unwrap_or(&[]).iter();
        let first = blocks.next().and_then(|b| b.get(start % BLOCK..));
        first.into_iter().flatten().chain(blocks.flatten())
    }
}

impl<T> Extend<T> for BlockVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T> FromIterator<T> for BlockVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = BlockVec::new();
        out.extend(iter);
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

impl<'a, T> IntoIterator for &'a BlockVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter().flatten()
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
        v.extend(1..4 * BLOCK as u64);
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

    proptest! {
        /// Any mix of the mutating operations leaves the same elements
        /// a `Vec` holds, and every reader agrees with the slice.
        #[test]
        fn behaves_like_a_vec(
            ops in proptest::collection::vec((0u8..4, 0usize..3 * BLOCK), 1..40),
            from in 0usize..4 * BLOCK,
        ) {
            let mut v = BlockVec::new();
            let mut model = Vec::new();
            let mut next = 0u32;
            for (op, n) in ops {
                match op {
                    0 => {
                        v.push(next);
                        model.push(next);
                        next += 1;
                    }
                    1 => {
                        v.truncate(n);
                        model.truncate(n);
                    }
                    2 => {
                        v.resize_with(n, || 0);
                        model.resize_with(n, || 0);
                    }
                    _ => {
                        if let (Some(a), Some(b)) = (v.get_mut(n), model.get_mut(n)) {
                            *a += 1;
                            *b += 1;
                        }
                    }
                }
                prop_assert_eq!(v.len(), model.len());
                prop_assert!(v.blocks.iter().all(|b| !b.is_empty()));
            }
            prop_assert!(v.iter().eq(&model));
            prop_assert!((&v).into_iter().eq(&model));
            prop_assert!(v.iter_from(from).eq(model.get(from..).unwrap_or(&[])));
            prop_assert_eq!(v.get(from), model.get(from));
            prop_assert_eq!(v.into_iter().collect::<Vec<_>>(), model);
        }
    }
}
