//! Which sequence number a message was ordered at, indexed by its id.
//!
//! A [`MsgId`] is an origin plus that origin's own counter —
//! `generation << 32 | n`, `n` counting the incarnation's broadcasts
//! from 1 — so the ids one incarnation of one origin issues are
//! consecutive. [`IdTable`] stores the sequence number at the id's
//! position in a [`WordPages`] addressed by `(origin, counter)`: a
//! lookup finds the page of the (origin, generation) run and indexes
//! it, and an id outside every run costs one page. Sequence numbers
//! are 1-based, so the 0 an untouched word reads means "not ordered".

use groupsafe_sim::WordPages;

use crate::message::MsgId;

/// A map from [`MsgId`] to the (non-zero) sequence number it was
/// ordered at.
#[derive(Debug, Default)]
pub(crate) struct IdTable {
    seqs: WordPages,
}

impl IdTable {
    /// Record that `id` was ordered at `seq`, replacing any earlier
    /// assignment.
    pub fn insert(&mut self, id: MsgId, seq: u64) {
        debug_assert!(seq != 0, "sequence numbers are 1-based");
        self.seqs.update(id.origin.0, id.counter, |_| seq);
    }

    /// The sequence number `id` was ordered at, if it was.
    pub fn get(&self, id: MsgId) -> Option<u64> {
        Some(self.seqs.get(id.origin.0, id.counter)).filter(|&seq| seq != 0)
    }

    /// Forget `id`'s assignment.
    pub fn remove(&mut self, id: MsgId) {
        self.seqs.update(id.origin.0, id.counter, |_| 0);
    }

    /// Forget every assignment and free every page.
    pub fn clear(&mut self) {
        self.seqs.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use groupsafe_net::NodeId;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn an_id_outside_every_run_costs_one_page() {
        let mut t = IdTable::default();
        let far = MsgId {
            origin: NodeId(u32::MAX),
            counter: u64::MAX,
        };
        t.insert(far, 3);
        assert_eq!(t.get(far), Some(3));
        assert_eq!(t.seqs.pages(), 1);
        t.remove(far);
        assert_eq!(t.get(far), None);
    }

    proptest! {
        /// Every operation agrees with the `BTreeMap<MsgId, u64>` the
        /// table replaces, over three generations of three origins and
        /// one origin that is no member of the static group.
        #[test]
        fn behaves_like_a_btreemap(
            ops in proptest::collection::vec(
                (0u8..8, prop_oneof![0u32..3, Just(1000u32)], 0u64..3, 1u64..150, 1u64..500),
                1..120,
            ),
        ) {
            let mut table = IdTable::default();
            let mut model: BTreeMap<MsgId, u64> = BTreeMap::new();
            for (op, origin, generation, n, seq) in ops {
                let id = MsgId { origin: NodeId(origin), counter: generation << 32 | n };
                match op {
                    0 => {
                        table.clear();
                        model.clear();
                    }
                    1 | 2 => {
                        table.remove(id);
                        model.remove(&id);
                    }
                    _ => {
                        table.insert(id, seq);
                        model.insert(id, seq);
                    }
                }
                prop_assert_eq!(table.get(id), model.get(&id).copied());
            }
            for origin in [0, 1, 2, 1000] {
                for generation in 0..3u64 {
                    for n in 0..150 {
                        let id = MsgId { origin: NodeId(origin), counter: generation << 32 | n };
                        prop_assert_eq!(table.get(id), model.get(&id).copied());
                    }
                }
            }
        }
    }
}
