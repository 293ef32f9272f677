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
//! A generation spans whole pages, so no page holds two runs.
//!
//! # Release floors
//!
//! The view-based endpoint frees its log below the highest sequence
//! number every member of the static group has delivered, and
//! [`IdTable::release_below`] frees the ids with it. Each run keeps a
//! *release floor*: every counter of the run from its lowest stored
//! counter up to the floor was ordered at a sequence number below a
//! bound handed to `release_below` — one every member had delivered —
//! and its page is gone. The table answers [`Lookup::Released`] for such
//! an id, and storing one does nothing. A run's pages go from its low
//! end, a whole page at a time, while every word of the page at or above
//! the lowest stored counter holds a sequence number below the bound, so
//! the floor is page-aligned and stops at the first id not yet delivered
//! everywhere, or not ordered at all. Counters below the lowest stored
//! one — counter 0, which is never issued, and, at an endpoint that
//! joined by state transfer, the ids delivered before it joined — are
//! never released: they read as ordered only if stored.
//!
//! Memory is therefore one page per 64 counters between a run's floor
//! and its highest ordered id — the ids the group has not all delivered
//! yet — plus at most one partly filled page for each run whose
//! generation ended, and two words per run.

use std::collections::BTreeMap;

use groupsafe_sim::wordpages::PAGE_WORDS;
use groupsafe_sim::WordPages;

use crate::message::MsgId;

/// What an [`IdTable`] knows of an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// Not ordered (or its assignment was removed).
    Unordered,
    /// Ordered at this sequence number.
    At(u64),
    /// Ordered at a sequence number every member has delivered; the
    /// table no longer says which.
    Released,
}

/// A map from [`MsgId`] to the (non-zero) sequence number it was
/// ordered at, which forgets the ids below each run's release floor.
/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct IdTable {
    seqs: WordPages,
    /// The released counters of each (origin, generation) run that was
    /// stored into.
    runs: BTreeMap<(u32, u32), Run>,
}

/// The released counters of a run: `low..floor`.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The lowest counter stored while nothing was released.
    low: u64,
    /// Where the run's lowest page that may still be held starts; at or
    /// below `low` while nothing is released.
    floor: u64,
}

impl Run {
    fn contains(&self, counter: u64) -> bool {
        self.low <= counter && counter < self.floor
    }
}

/// The `runs` key of `id`: its origin and generation.
fn run_of(id: MsgId) -> (u32, u32) {
    (id.origin.0, (id.counter >> 32) as u32)
}

impl IdTable {
    /// Record that `id` was ordered at `seq`, replacing any earlier
    /// assignment; nothing if `id` is released.
    pub fn insert(&mut self, id: MsgId, seq: u64) {
        debug_assert!(seq != 0, "sequence numbers are 1-based");
        let fresh = Run {
            low: id.counter,
            floor: id.counter / PAGE_WORDS * PAGE_WORDS,
        };
        let run = self.runs.entry(run_of(id)).or_insert(fresh);
        if run.contains(id.counter) {
            return;
        }
        if id.counter < run.low && run.floor <= run.low {
            *run = fresh;
        }
        self.seqs.update(id.origin.0, id.counter, |_| seq);
    }

    /// What the table knows of `id`.
    pub fn get(&self, id: MsgId) -> Lookup {
        if self
            .runs
            .get(&run_of(id))
            .is_some_and(|run| run.contains(id.counter))
        {
            return Lookup::Released;
        }
        match self.seqs.get(id.origin.0, id.counter) {
            0 => Lookup::Unordered,
            seq => Lookup::At(seq),
        }
    }

    /// Forget `id`'s assignment (a released id has none left).
    pub fn remove(&mut self, id: MsgId) {
        self.seqs.update(id.origin.0, id.counter, |_| 0);
    }

    /// Free, from each run's floor up, every page whose ids were all
    /// ordered below `below`, and raise the run's floor past it. Reads
    /// the page at each run's floor and the pages it frees; allocates
    /// nothing.
    pub fn release_below(&mut self, below: u64) {
        for (&(origin, _), run) in &mut self.runs {
            // The last page of counters stays: its floor would not fit.
            while let Some(next) = run.floor.checked_add(PAGE_WORDS) {
                let Run { low, floor } = *run;
                let released = |words: &[u64]| {
                    (floor..)
                        .zip(words)
                        .all(|(counter, &seq)| counter < low || seq != 0 && seq < below)
                };
                if !self.seqs.free_page_if(origin, floor, released) {
                    break;
                }
                run.floor = next;
            }
        }
    }

    /// Forget every assignment and release floor, and free every page.
    pub fn clear(&mut self) {
        self.seqs.clear();
        self.runs.clear();
    }

    /// Pages held (inspection/test helper).
    pub fn pages(&self) -> usize {
        self.seqs.pages()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use groupsafe_net::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn id(origin: u32, generation: u64, n: u64) -> MsgId {
        MsgId {
            origin: NodeId(origin),
            counter: generation << 32 | n,
        }
    }

    #[test]
    fn an_id_outside_every_run_costs_one_page() {
        let mut t = IdTable::default();
        let far = MsgId {
            origin: NodeId(u32::MAX),
            counter: u64::MAX,
        };
        t.insert(far, 3);
        assert_eq!(t.get(far), Lookup::At(3));
        assert_eq!(t.seqs.pages(), 1);
        t.remove(far);
        assert_eq!(t.get(far), Lookup::Unordered);
        // Its run's last page never goes, even once full.
        for counter in u64::MAX - 63..=u64::MAX {
            t.insert(MsgId { counter, ..far }, 1);
        }
        t.release_below(u64::MAX);
        assert_eq!((t.pages(), t.get(far)), (1, Lookup::At(1)));
    }

    #[test]
    fn a_run_is_released_from_its_low_end_a_page_at_a_time() {
        let mut t = IdTable::default();
        for n in 1..=130 {
            t.insert(id(2, 1, n), n);
        }
        assert_eq!(t.pages(), 3);
        // Seq 63 is not below 63: the first page stays.
        t.release_below(63);
        assert_eq!((t.pages(), t.get(id(2, 1, 1))), (3, Lookup::At(1)));
        t.release_below(64);
        assert_eq!(t.pages(), 2);
        assert_eq!(t.get(id(2, 1, 1)), Lookup::Released);
        assert_eq!(t.get(id(2, 1, 63)), Lookup::Released);
        assert_eq!(t.get(id(2, 1, 64)), Lookup::At(64));
        // Counter 0 was never stored: it is not released.
        assert_eq!(t.get(id(2, 1, 0)), Lookup::Unordered);
        // A hole (an id not ordered) holds the floor back.
        t.remove(id(2, 1, 100));
        t.release_below(1_000);
        assert_eq!((t.pages(), t.get(id(2, 1, 100))), (2, Lookup::Unordered));
        // Storing a released id does nothing; other runs are untouched.
        t.insert(id(2, 1, 5), 900);
        assert_eq!((t.pages(), t.get(id(2, 1, 5))), (2, Lookup::Released));
        assert_eq!(t.get(id(2, 0, 5)), Lookup::Unordered);
        t.clear();
        assert_eq!((t.pages(), t.get(id(2, 1, 5))), (0, Lookup::Unordered));
    }

    #[test]
    fn a_run_stored_from_its_middle_is_released_from_there() {
        // An endpoint that joined by state transfer first stores a run
        // at the first id delivered after its applied point.
        let mut t = IdTable::default();
        for n in 100..=300 {
            t.insert(id(1, 0, n), n);
        }
        // Ids stored below the lowest one lower it while nothing is
        // released.
        for n in 90..100 {
            t.insert(id(1, 0, n), 300 + n);
        }
        t.release_below(400);
        assert_eq!(t.get(id(1, 0, 90)), Lookup::Released);
        assert_eq!(t.get(id(1, 0, 255)), Lookup::Released);
        assert_eq!((t.pages(), t.get(id(1, 0, 256))), (1, Lookup::At(256)));
        // Below the lowest stored id nothing is released, and a late
        // store there is kept.
        assert_eq!(t.get(id(1, 0, 89)), Lookup::Unordered);
        t.insert(id(1, 0, 20), 400);
        assert_eq!((t.pages(), t.get(id(1, 0, 20))), (2, Lookup::At(400)));
        t.release_below(500);
        assert_eq!((t.pages(), t.get(id(1, 0, 20))), (2, Lookup::At(400)));
    }

    /// Counters per run the model uses: `1..=MAX_N`.
    const MAX_N: u64 = 200;
    const ORIGINS: [u32; 3] = [0, 1, 1000];
    const GENERATIONS: u64 = 3;

    /// One step: `(code, origin, generation, n, arg)`.
    type Step = (u8, usize, u64, u64, u64);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (
                0u8..32,
                0..ORIGINS.len(),
                0..GENERATIONS,
                1..=MAX_N,
                0u64..100,
            ),
            1..120,
        )
    }

    /// Drive a table and the model — a `BTreeMap<MsgId, u64>` beside the
    /// ids ordered below some bound handed to `release_below` since
    /// their last store — through `steps`, and compare them after every
    /// step over every id of every run: an id the table answers
    /// released is one of those ids, and any other answer is the map's.
    /// After a release no run's floor page may still be releasable, and
    /// every run holds at most the pages between its floor and its
    /// highest ordered id. With `floorless` the table forgets its floors
    /// after every release, as a table that only freed pages would.
    fn check(steps: &[Step], floorless: bool) -> Result<(), TestCaseError> {
        let mut table = IdTable::default();
        let mut model: BTreeMap<MsgId, u64> = BTreeMap::new();
        let mut releasable: BTreeSet<MsgId> = BTreeSet::new();
        // The next counter each run orders in counter order, and the
        // highest counter it ever ordered (both from 1).
        let mut next_n: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut high: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut next_seq = 1;
        for &(code, origin, generation, n, arg) in steps {
            let origin = ORIGINS[origin];
            let mut store = |id: MsgId, seq: Option<u64>| {
                if table.get(id) == Lookup::Released {
                    // A no-op on a released id: the model keeps it too.
                    match seq {
                        Some(seq) => table.insert(id, seq),
                        None => table.remove(id),
                    }
                    return;
                }
                releasable.remove(&id);
                match seq {
                    Some(seq) => {
                        table.insert(id, seq);
                        model.insert(id, seq);
                        let h = high.entry((origin, generation)).or_insert(0);
                        *h = (*h).max(id.counter & 0xFFFF_FFFF);
                    }
                    None => {
                        table.remove(id);
                        model.remove(&id);
                    }
                }
            };
            match code {
                // Order the run's next counters, in counter order.
                0..=15 => {
                    let next = next_n.entry((origin, generation)).or_insert(1);
                    let end = (*next + 1 + arg % 80).min(MAX_N + 1);
                    for n in *next..end {
                        store(id(origin, generation, n), Some(next_seq));
                        next_seq += 1;
                    }
                    *next = end;
                }
                // One counter, out of counter order.
                16..=21 => {
                    store(id(origin, generation, n), Some(next_seq));
                    next_seq += 1;
                }
                22..=24 => store(id(origin, generation, n), None),
                25..=30 => {
                    let below = next_seq.saturating_sub(arg);
                    table.release_below(below);
                    releasable.extend(model.iter().filter(|&(_, &s)| s < below).map(|(&i, _)| i));
                    for (&(origin, generation), run) in &mut table.runs {
                        let Run { low, floor } = *run;
                        let origin = NodeId(origin);
                        prop_assert!(
                            !(floor..floor + PAGE_WORDS).all(|counter| {
                                counter < low || releasable.contains(&MsgId { origin, counter })
                            }),
                            "run ({origin:?}, {generation}) kept a releasable page at {floor:#x}"
                        );
                        if floorless {
                            run.floor = low / PAGE_WORDS * PAGE_WORDS;
                        }
                    }
                }
                _ => {
                    table.clear();
                    model.clear();
                    releasable.clear();
                    high.clear();
                }
            }
            for origin in ORIGINS {
                for generation in 0..GENERATIONS {
                    for n in 0..=MAX_N {
                        let id = id(origin, generation, n);
                        match table.get(id) {
                            Lookup::Released => prop_assert!(
                                releasable.contains(&id),
                                "{id:?} read released, never ordered below a bound"
                            ),
                            got @ (Lookup::Unordered | Lookup::At(_)) => prop_assert_eq!(
                                got,
                                model.get(&id).map_or(Lookup::Unordered, |&s| Lookup::At(s)),
                                "{:?}",
                                id
                            ),
                        }
                    }
                    let start = generation << 32;
                    let end = start + MAX_N + 1;
                    let Some(&Run { low, floor }) = table.runs.get(&(origin, generation as u32))
                    else {
                        prop_assert_eq!(table.seqs.pages_in(origin, start..end), 0);
                        continue;
                    };
                    // Below the floor only pages that hold a counter
                    // stored below the run's lowest; above it only the
                    // pages up to its highest stored counter.
                    prop_assert_eq!(
                        table.seqs.pages_in(origin, start..floor),
                        table.seqs.pages_in(origin, start..low.min(floor)),
                        "run ({}, {}) holds a page between {:#x} and its floor {:#x}",
                        origin,
                        generation,
                        low,
                        floor
                    );
                    let top = start + high.get(&(origin, generation)).map_or(0, |&h| h + 1);
                    let held = table.seqs.pages_in(origin, floor..end);
                    prop_assert!(
                        held as u64 <= top.saturating_sub(floor).div_ceil(PAGE_WORDS),
                        "run ({origin}, {generation}) holds {held} pages from {floor:#x}, highest {top:#x}"
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// The table answers what a `BTreeMap<MsgId, u64>` with a release
        /// floor does, over in- and out-of-order stores, removes, clears
        /// and releases at random bounds across three generations of
        /// three origins (one of them no member of the static group),
        /// and holds no page below a run's floor or above its highest id.
        #[test]
        fn behaves_like_a_btreemap(steps in steps()) {
            check(&steps, false)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The same comparison over more cases (CI's bench job runs it:
        /// `cargo test --release -p groupsafe-gcs --lib idtable -- --ignored`).
        #[test]
        #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
        fn behaves_like_a_btreemap_heavy(steps in steps()) {
            check(&steps, false)?;
        }
    }

    /// Negative control: a table that freed pages but kept no floor
    /// would read a released id as never ordered — the sequencer would
    /// order a stale forward of it again — and the comparison must
    /// catch it on the cases the proptest draws.
    #[test]
    fn a_table_without_release_floors_fails_the_comparison() {
        let failed = (0..64u64).find(|&case| {
            let steps = steps().generate(&mut StdRng::seed_from_u64(case));
            check(&steps, true).is_err_and(|e| e.to_string().contains("(Unordered != At("))
        });
        assert!(failed.is_some(), "no case caught a table without floors");
    }
}
