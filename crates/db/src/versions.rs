//! The multi-version store behind snapshot reads.
//!
//! A snapshot read needs versions only back to the oldest snapshot a
//! reader can still take: the group-stable watermark. So per item the
//! store keeps a *chain*, the retained `(version, state)` pairs in
//! ascending version order (versions are delivery sequence numbers under
//! the state machine), and [`VersionStore::prune`] cuts every chain back
//! to the newest entry at or below the watermark.
//!
//! The chains live in a slab of buffers behind a 4-byte index per item:
//!
//! * `index[item]` is the item's slot + 1, or 0 when the item has no
//!   chain — so a snapshot read is one index lookup and a binary search
//!   of one chain;
//! * `slots` holds the chain buffers, occupied or free;
//! * `free` lists the emptied slots: a chain that collapses to the
//!   committed head (which the item table already holds) is cleared and
//!   its slot goes back to the free list, its buffer keeping its
//!   capacity for the next chain, as the kernel's fan-out table recycles
//!   its target vectors;
//! * `occupied` lists the items that have a chain, in no particular
//!   order: what pruning, reseeding and counting visit instead of every
//!   item.
//!
//! Invariants: an item's index is nonzero exactly when the item is in
//! `occupied`; the slots of the occupied items and the free list are
//! every slot, each once; an occupied chain is never empty, and after a
//! prune or a reseed it has at least two entries (one entry is the head
//! alone); a free slot's buffer is empty.
//!
//! So the store's memory is 4 bytes per item for the index plus, per
//! slot, a buffer as long as the longest chain that slot ever held, and
//! there are as many slots as the most chains ever populated at once —
//! not one per item ever written. In steady state nothing is allocated
//! per chain. A store with depth 0 (no snapshot reads) allocates
//! nothing at all.

use crate::types::{ItemId, ItemState, Version};

/// Per item, the versions snapshot reads may still need (see the module
/// docs).
#[derive(Debug)]
pub struct VersionStore {
    /// Target retained versions per item (`DbConfig::mvcc_depth`); 0
    /// disables the store.
    depth: usize,
    /// Per item: its chain's slot + 1, or 0 when it has none.
    index: Vec<u32>,
    /// The chain buffers, occupied or free.
    slots: Vec<Vec<(Version, ItemState)>>,
    /// Emptied slots, whose buffers the next chains reuse.
    free: Vec<u32>,
    /// The items that have a chain.
    occupied: Vec<u32>,
    /// A lower bound on the watermarks at which pruning changes
    /// anything: the smallest second-oldest version over the occupied
    /// chains (pruning at `w` drops a chain's oldest entry only if the
    /// next one is also at or below `w`). `Version::MAX` when nothing is
    /// retained.
    prune_from: Version,
    /// Newest group-stable watermark seen by [`VersionStore::prune`]:
    /// the depth cap may only trim chain entries strictly below the
    /// snapshot floor this watermark pins.
    stable_floor: Version,
    /// Entries the depth cap trimmed (always already below the pruning
    /// floor — the floor itself is pinned until the watermark passes it).
    evictions: u64,
}

impl VersionStore {
    /// A store for `n_items` items keeping `depth` versions per item;
    /// with `depth == 0` it keeps none and allocates nothing.
    pub fn new(n_items: usize, depth: usize) -> Self {
        VersionStore {
            depth,
            index: if depth > 0 {
                vec![0; n_items]
            } else {
                Vec::new()
            },
            slots: Vec::new(),
            free: Vec::new(),
            occupied: Vec::new(),
            prune_from: Version::MAX,
            stable_floor: 0,
            evictions: 0,
        }
    }

    /// The chain of `item`, if it has one.
    fn chain(&self, item: ItemId) -> Option<&Vec<(Version, ItemState)>> {
        let slot = self.index.get(item.index())?.checked_sub(1)?;
        self.slots.get(slot as usize)
    }

    /// The state of `item` in the snapshot at or below version `limit`,
    /// `head` being its committed state: the newest retained version
    /// `≤ limit`, the never-written default when the item has no
    /// retained version that old, or — for a snapshot below everything
    /// retained — the oldest version still retained (bounded-staleness
    /// fallback).
    pub fn version_at(&self, item: ItemId, limit: Version, head: ItemState) -> ItemState {
        if head.version <= limit {
            return head;
        }
        // No chain (store disabled or chain pruned to the head): the
        // head is all we have.
        let Some(chain) = self.chain(item) else {
            return head;
        };
        // Chains are version-sorted: binary-search the newest `≤ limit`
        // — or, when the snapshot predates everything retained, take
        // the oldest retained version (bounded-staleness fallback). A
        // chain started by the item's first write begins with the
        // never-written default at version 0.
        let above = chain.partition_point(|&(v, _)| v <= limit);
        chain.get(above.saturating_sub(1)).map_or(head, |&(_, s)| s)
    }

    /// Record `state`, the new committed head of `item`, which
    /// overwrote `old`. A chain starts with the overwritten state — the
    /// never-written default, or the single consistent snapshot a crash
    /// redo / checkpoint install left — so snapshots below the first
    /// retained write stay servable.
    pub fn retain(&mut self, item: ItemId, old: ItemState, state: ItemState) {
        if self.depth == 0 {
            return;
        }
        let Some(entry) = self.index.get_mut(item.index()) else {
            return;
        };
        if *entry == 0 {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Vec::new());
                self.slots.len() as u32 - 1
            });
            *entry = slot + 1;
            self.occupied.push(item.0);
        }
        let Some(chain) = self.slots.get_mut(*entry as usize - 1) else {
            return;
        };
        if chain.is_empty() {
            chain.push((old.version, old));
        }
        match chain.last_mut() {
            Some(last @ &mut (v, _)) if v == state.version => *last = (state.version, state),
            Some(&mut (v, _)) if v > state.version => {
                // Out-of-order version (lazy Thomas-rule interleavings):
                // insert in place to keep the chain sorted.
                let pos = chain.partition_point(|&(cv, _)| cv < state.version);
                chain.insert(pos, (state.version, state));
            }
            _ => chain.push((state.version, state)),
        }
        // Over the cap, trim from the front — but only entries strictly
        // below the stable floor (the successor must still be at or
        // below the floor, so the floor snapshot stays servable). Under
        // a lagging watermark the chain grows past the cap instead;
        // `prune` re-bounds it once the watermark advances.
        while chain.len() > self.depth.max(2)
            && chain.get(1).is_some_and(|&(v, _)| v <= self.stable_floor)
        {
            chain.remove(0);
            self.evictions += 1;
        }
        // A one-entry chain (a write at the version it overwrote) is
        // freed by the next prune at any watermark.
        let second = chain.get(1).map_or(0, |&(v, _)| v);
        self.prune_from = self.prune_from.min(second);
    }

    /// Drop retained versions below the newest one at or below `stable`
    /// (the group-stable watermark): snapshots at or above the watermark
    /// stay servable, everything older is unreachable by construction.
    /// A chain left with the head alone is freed.
    ///
    /// Visits only the occupied chains, and none at all while `stable`
    /// is below every chain's second-oldest version (the usual case
    /// between two advances of the watermark).
    pub fn prune(&mut self, stable: Version) {
        if self.depth == 0 {
            return;
        }
        self.stable_floor = self.stable_floor.max(stable);
        if stable < self.prune_from {
            return;
        }
        let VersionStore {
            index,
            slots,
            free,
            occupied,
            ..
        } = self;
        let mut prune_from = Version::MAX;
        occupied.retain(|&item| {
            let Some(entry) = index.get_mut(item as usize) else {
                return false;
            };
            let Some(chain) = slots.get_mut(*entry as usize - 1) else {
                return false;
            };
            // Index of the first version above the watermark; the entry
            // just below it is the floor snapshot and must survive.
            let above = chain.partition_point(|&(v, _)| v <= stable);
            if above > 1 {
                chain.drain(..above - 1);
            }
            // A chain collapsed to the committed head alone carries no
            // information the item table lacks.
            if let Some(&(second, _)) = chain.get(1) {
                prune_from = prune_from.min(second);
                return true;
            }
            chain.clear();
            free.push(*entry - 1);
            *entry = 0;
            false
        });
        self.prune_from = prune_from;
    }

    /// Free every chain after a crash redo or checkpoint install: the
    /// surviving state is a single consistent snapshot, which the item
    /// table holds, so nothing needs retaining until new commits layer
    /// versions on top (the next [`VersionStore::retain`] of each item
    /// seeds its chain with the snapshot state it overwrites).
    pub fn reseed(&mut self) {
        for item in self.occupied.drain(..) {
            let Some(entry) = self.index.get_mut(item as usize) else {
                continue;
            };
            if let Some(chain) = self.slots.get_mut(*entry as usize - 1) {
                chain.clear();
            }
            self.free.push(*entry - 1);
            *entry = 0;
        }
        self.prune_from = Version::MAX;
    }

    /// Retained versions across all items.
    pub fn retained(&self) -> usize {
        self.occupied
            .iter()
            .filter_map(|&i| self.chain(ItemId(i)))
            .map(Vec::len)
            .sum()
    }

    /// Entries the depth cap trimmed below the pruning floor.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Elements of capacity the store holds in its index, slab and
    /// lists: 0 for a store that keeps nothing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.index.capacity()
            + self.slots.capacity()
            + self.free.capacity()
            + self.occupied.capacity()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    const N_ITEMS: usize = 8;

    /// The reference: a sorted chain per item with the same prune,
    /// depth-cap and reseed rules, every chain visited at every prune
    /// (no skip below `prune_from`, no list of occupied chains, no
    /// recycling).
    struct Model {
        depth: usize,
        chains: Vec<Vec<(Version, ItemState)>>,
        stable_floor: Version,
        evictions: u64,
    }

    impl Model {
        fn retain(&mut self, item: usize, old: ItemState, state: ItemState) {
            let Some(chain) = self.chains.get_mut(item) else {
                return;
            };
            if chain.is_empty() {
                chain.push((old.version, old));
            }
            match chain.last_mut() {
                Some(last @ &mut (v, _)) if v == state.version => *last = (state.version, state),
                Some(&mut (v, _)) if v > state.version => {
                    let pos = chain.partition_point(|&(cv, _)| cv < state.version);
                    chain.insert(pos, (state.version, state));
                }
                _ => chain.push((state.version, state)),
            }
            while chain.len() > self.depth.max(2)
                && chain.get(1).is_some_and(|&(v, _)| v <= self.stable_floor)
            {
                chain.remove(0);
                self.evictions += 1;
            }
        }

        fn prune(&mut self, stable: Version) {
            self.stable_floor = self.stable_floor.max(stable);
            for chain in &mut self.chains {
                let above = chain.partition_point(|&(v, _)| v <= stable);
                if above > 1 {
                    chain.drain(..above - 1);
                }
                if chain.len() <= 1 {
                    chain.clear();
                }
            }
        }

        fn version_at(&self, item: usize, limit: Version, head: ItemState) -> ItemState {
            let chain = self.chains.get(item).map_or(&[][..], Vec::as_slice);
            if head.version <= limit || chain.is_empty() {
                return head;
            }
            match chain.iter().rev().find(|&&(v, _)| v <= limit) {
                Some(&(_, s)) => s,
                None => match chain.first() {
                    Some(&(v, s)) if v > 0 => s,
                    _ => ItemState::default(),
                },
            }
        }

        fn live(&self) -> usize {
            self.chains.iter().filter(|c| !c.is_empty()).count()
        }
    }

    /// One step: `(code, item, arg)`.
    type Step = (u8, usize, u64);

    fn steps() -> impl Strategy<Value = (usize, Vec<Step>)> {
        (
            2usize..5,
            proptest::collection::vec((0u8..16, 0..N_ITEMS, 0u64..48), 1..150),
        )
    }

    /// Drive a store and the model through `steps` at `depth` and compare
    /// them after every step: every snapshot of every item, the retained
    /// count and the evictions; and hold the store to its bound — no more
    /// slots than the most chains ever live at once, no collapsed chain
    /// left occupied after a prune or a reseed. With `leak` the store
    /// loses its free list after every step, as a store that never frees
    /// its emptied slots would.
    fn check(depth: usize, steps: &[Step], leak: bool) -> Result<(), TestCaseError> {
        let mut store = VersionStore::new(N_ITEMS, depth);
        let mut model = Model {
            depth,
            chains: vec![Vec::new(); N_ITEMS],
            stable_floor: 0,
            evictions: 0,
        };
        let mut heads = [ItemState::default(); N_ITEMS];
        let mut saved = heads;
        let mut newest: Version = 0;
        let mut peak_live = 0;
        for (i, &(code, item, arg)) in steps.iter().enumerate() {
            let Some(&old) = heads.get(item) else {
                continue;
            };
            let version = match code {
                // In delivery order.
                0..=5 => newest + 1 + arg % 3,
                // Out of order: anywhere, below the head too.
                6 | 7 => arg,
                // At or below the stable floor (redelivery after a crash).
                8 => arg % (model.stable_floor + 1),
                // At the version it overwrites.
                9 => old.version,
                _ => 0,
            };
            let collapses = match code {
                0..=9 => {
                    let state = ItemState {
                        value: i as i64 + 1,
                        version,
                    };
                    newest = newest.max(version);
                    if let Some(head) = heads.get_mut(item) {
                        *head = state;
                    }
                    store.retain(ItemId(item as u32), old, state);
                    model.retain(item, old, state);
                    false
                }
                10..=12 => {
                    let stable = arg.min(newest);
                    store.prune(stable);
                    model.prune(stable);
                    true
                }
                13 => {
                    saved = heads;
                    false
                }
                // A crash redoes an older state, a checkpoint install
                // brings a newer one; either way the store reseeds.
                14 => {
                    heads = saved;
                    store.reseed();
                    model.chains.iter_mut().for_each(Vec::clear);
                    true
                }
                _ => {
                    for (k, head) in heads.iter_mut().enumerate() {
                        *head = ItemState {
                            value: -1,
                            version: newest + k as u64,
                        };
                    }
                    newest += N_ITEMS as u64;
                    store.reseed();
                    model.chains.iter_mut().for_each(Vec::clear);
                    true
                }
            };
            if leak {
                store.free.clear();
            }

            for (item, &head) in heads.iter().enumerate() {
                for limit in (0..newest + 2).chain([Version::MAX]) {
                    prop_assert_eq!(
                        store.version_at(ItemId(item as u32), limit, head),
                        model.version_at(item, limit, head),
                        "item {} at {}",
                        item,
                        limit
                    );
                }
            }
            prop_assert_eq!(store.retained(), model.chains.iter().map(Vec::len).sum());
            prop_assert_eq!(store.evictions(), model.evictions);

            peak_live = peak_live.max(model.live());
            prop_assert_eq!(store.occupied.len(), model.live(), "occupied chains");
            prop_assert!(
                store.slots.len() <= peak_live,
                "{} slots, at most {} chains ever live",
                store.slots.len(),
                peak_live
            );
            for &item in &store.occupied {
                let len = store.chain(ItemId(item)).map_or(0, Vec::len);
                prop_assert!(len >= if collapses { 2 } else { 1 }, "item {item}: {len}");
            }
        }
        Ok(())
    }

    proptest! {
        /// The store serves, retains and evicts what sorted per-item
        /// chains scanned in full at every prune do — also when versions
        /// arrive out of order or at or below the floor (lazy
        /// interleavings, redelivery after a crash) — within its bound.
        #[test]
        fn behaves_like_sorted_per_item_chains((depth, steps) in steps()) {
            check(depth, &steps, false)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The same comparison over more cases (CI's bench job runs it:
        /// `cargo test --release -p groupsafe-db --lib versions -- --ignored`).
        #[test]
        #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
        fn behaves_like_sorted_per_item_chains_heavy((depth, steps) in steps()) {
            check(depth, &steps, false)?;
        }
    }

    /// Negative control: a store that never freed its emptied slots
    /// would grow a slot per chain ever started, and the bound must
    /// catch it on the cases the proptest draws.
    #[test]
    fn a_store_that_never_frees_its_slots_fails_the_bound() {
        let failed = (0..64u64).find(|&case| {
            let (depth, steps) = steps().generate(&mut StdRng::seed_from_u64(case));
            check(depth, &steps, true).is_err_and(|e| e.to_string().contains("ever live"))
        });
        assert!(failed.is_some(), "no case caught a store that never frees");
    }

    #[test]
    fn a_store_of_depth_zero_keeps_nothing() {
        let mut store = VersionStore::new(N_ITEMS, 0);
        let head = ItemState {
            value: 1,
            version: 5,
        };
        store.retain(ItemId(1), ItemState::default(), head);
        store.prune(5);
        store.reseed();
        assert_eq!(store.version_at(ItemId(1), 3, head), head);
        assert_eq!((store.retained(), store.capacity()), (0, 0));
    }
}
