//! The endpoint's sequence log: everything it knows about a sequence
//! number, in one slot of a dense window.
//!
//! Sequence numbers are assigned densely and monotonically, so the log
//! is a dense sequence of slots addressed by `seq - base` (a
//! [`BlockVec`]: it grows a block at a time and never moves a slot, so a
//! long run neither copies the log nor carries a doubling's slack). A slot
//! holds the ordered entry, the stability votes cast for it (a bitmask
//! over the voters' ranks in the static group, tagged with the era the
//! votes were cast for) and the per-seq flags the endpoint keeps.
//! Recording a vote or testing stability is one bounds-checked access
//! plus bit operations: no allocation, no tree walk.
//!
//! Invariants:
//!
//! * `base` is the lowest sequence number touched since the last
//!   [`SeqLog::clear`]; the window is anchored by the first touch and
//!   grows in either direction until the first release. Retention is
//!   the endpoint's decision: it clears the log on crash and on group
//!   restart, forgets entries and votes on a state-transfer install,
//!   and releases the front it will never read again.
//! * [`SeqLog::release_below`] raises `floor`, and every sequence number
//!   below `floor` is released for good (until the next clear): reading
//!   it answers `None`, touching it is refused and allocates nothing,
//!   and iteration starts at `floor`. The whole blocks below it are
//!   freed; the rest of the block `floor` falls in stays allocated but
//!   unreadable. A release never moves a slot, so the window cannot grow
//!   downward past `floor` (that would compact indices across the freed
//!   blocks).
//! * A slot's votes count only for the era of the entry it holds
//!   ([`Slot::is_stable`] compares the two); a slot without an entry is
//!   era 0.
//! * Votes of a higher era supersede the slot's votes; votes of a lower
//!   era are ignored.

use groupsafe_sim::BlockVec;

use crate::message::Entry;

/// Widest group the vote bitmask holds (one bit per member's rank in
/// the static group).
pub const MAX_GROUP_SIZE: usize = u64::BITS as usize;

/// Who must have voted for an entry to be stable: `majority` of the
/// members whose rank bits are set in `mask`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quorum {
    pub mask: u64,
    pub majority: u32,
}

/// Everything known about one sequence number.
pub(crate) struct Slot<P> {
    /// The ordered entry, once received.
    pub entry: Option<Entry<P>>,
    /// Era the votes in `votes` were cast for.
    vote_era: u64,
    /// Voters, by rank in the static group.
    votes: u64,
    /// Persisted locally (crash-recovery model).
    pub persisted: bool,
    /// Handed to the application in this incarnation.
    pub emitted: bool,
    /// Messages in the frame that carried the entry held (1 for an
    /// entry a view's flush, a fetch or a catch-up carried, a frame of
    /// one; 0 for one a state transfer or a recovery installed).
    pub frame_span: u32,
}

impl<P> Slot<P> {
    fn empty() -> Self {
        Slot {
            entry: None,
            vote_era: 0,
            votes: 0,
            persisted: false,
            emitted: false,
            frame_span: 0,
        }
    }

    /// Era of the entry held (0 without one).
    pub fn era(&self) -> u64 {
        self.entry.as_ref().map_or(0, |e| e.era)
    }

    /// Record a vote for `era` from the voter whose rank bit is `bit`
    /// (0 for a voter outside the static group: it can supersede an
    /// older era's votes but never counts).
    pub fn vote(&mut self, bit: u64, era: u64) {
        if era > self.vote_era {
            self.vote_era = era;
            self.votes = 0;
        } else if era < self.vote_era {
            return; // stale vote for a superseded incarnation
        }
        self.votes |= bit;
    }

    /// True once a majority of the quorum voted for the incarnation of
    /// the entry actually held.
    pub fn is_stable(&self, quorum: Quorum) -> bool {
        self.vote_era == self.era() && (self.votes & quorum.mask).count_ones() >= quorum.majority
    }

    /// Drop everything attached to the incarnation held — the entry, its
    /// votes and its local persistence — ahead of a higher-era
    /// assignment of the same sequence number.
    pub fn discard_incarnation(&mut self) {
        self.entry = None;
        self.vote_era = 0;
        self.votes = 0;
        self.persisted = false;
    }
}

/// The dense window of slots. See the module docs.
pub(crate) struct SeqLog<P> {
    /// Sequence number of `slots[0]` (meaningless while empty).
    base: u64,
    /// Every sequence number below this is released (0: none is).
    floor: u64,
    slots: BlockVec<Slot<P>>,
}

impl<P> SeqLog<P> {
    pub fn new() -> Self {
        SeqLog {
            base: 0,
            floor: 0,
            slots: BlockVec::new(),
        }
    }

    fn index(&self, seq: u64) -> Option<usize> {
        if seq < self.floor {
            return None;
        }
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    /// The release boundary: every sequence number below it is released.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// The slot of `seq`, if anything was ever recorded at or around it.
    pub fn get(&self, seq: u64) -> Option<&Slot<P>> {
        self.slots.get(self.index(seq)?)
    }

    /// As [`SeqLog::get`], mutable; never grows the window.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut Slot<P>> {
        let i = self.index(seq)?;
        self.slots.get_mut(i)
    }

    /// The slot of `seq`, growing the window to cover it: the first
    /// touch after a clear anchors the window, later ones extend it up
    /// (the common case: the next sequence number) or down (a vote or
    /// frame older than the anchor, before any release). `None` below
    /// the release boundary, or if the distance does not fit the
    /// address space.
    pub fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot<P>> {
        if seq < self.floor {
            return None;
        }
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            let gap = usize::try_from(self.base - seq).ok()?;
            let above = std::mem::take(&mut self.slots);
            let below = std::iter::repeat_with(Slot::empty).take(gap);
            self.slots = below.chain(above).collect();
            self.base = seq;
        }
        let i = self.index(seq)?;
        if i >= self.slots.len() {
            self.slots.resize_with(i.checked_add(1)?, Slot::empty);
        }
        self.slots.get_mut(i)
    }

    /// Every slot at or above `from` (and the release boundary),
    /// ascending, with its sequence number.
    pub fn range(&self, from: u64) -> impl Iterator<Item = (u64, &Slot<P>)> {
        let from = from.max(self.base).max(self.floor);
        let skip = usize::try_from(from - self.base).unwrap_or(usize::MAX);
        (from..).zip(self.slots.iter_from(skip))
    }

    /// Entries held at or above `from`, ascending.
    pub fn entries_from(&self, from: u64) -> impl Iterator<Item = &Entry<P>> {
        self.range(from).filter_map(|(_, slot)| slot.entry.as_ref())
    }

    /// The end of the contiguous run of stable slots that starts right
    /// above `mark` (`mark` itself when the next slot is not stable).
    pub fn stable_run_end(&self, mark: u64, quorum: Quorum) -> u64 {
        let mut s = mark;
        while self.get(s + 1).is_some_and(|slot| slot.is_stable(quorum)) {
            s += 1;
        }
        s
    }

    /// Release every sequence number below `seq` (capped at the end of
    /// the window): free the whole blocks below it, and refuse every
    /// later read or touch there. The boundary only rises.
    pub fn release_below(&mut self, seq: u64) {
        let end = seq.min(self.base.saturating_add(self.slots.len() as u64));
        if end <= self.floor.max(self.base) {
            return;
        }
        self.floor = end;
        self.slots.release_below((end - self.base) as usize);
    }

    /// Slots still stored: those of the window minus the released
    /// blocks.
    pub fn held(&self) -> usize {
        self.slots.held()
    }

    /// Forget everything (crash, group restart). The next touch anchors
    /// a fresh window wherever it lands, so restarting far above the old
    /// window allocates nothing for the distance.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.floor = 0;
    }

    /// Forget every entry and every vote but keep the per-seq flags
    /// (state-transfer install: the ordering state is replaced by the
    /// donor's, what this incarnation already emitted is not).
    pub fn forget_entries(&mut self) {
        for slot in self.slots.iter_mut() {
            slot.entry = None;
            slot.vote_era = 0;
            slot.votes = 0;
        }
    }

    /// Slots currently allocated (tests: the window never spans the
    /// distance from 1 to a far-away base).
    #[cfg(test)]
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use groupsafe_net::NodeId;
    use proptest::prelude::*;

    use super::*;
    use crate::message::MsgId;

    /// The static group: ids that are not their own ranks, so a rank
    /// mix-up cannot hide.
    const GROUP: [u32; 5] = [10, 11, 13, 14, 17];

    fn rank_bit(node: u32) -> u64 {
        GROUP.binary_search(&node).map_or(0, |rank| 1 << rank)
    }

    fn quorum_of(view: &[u32]) -> Quorum {
        Quorum {
            mask: view.iter().fold(0, |m, &n| m | rank_bit(n)),
            majority: (view.len() / 2 + 1) as u32,
        }
    }

    fn entry(seq: u64, era: u64, payload: u32) -> Entry<u32> {
        Entry {
            seq,
            id: MsgId {
                origin: NodeId(payload % 7),
                counter: u64::from(payload),
            },
            payload,
            era,
        }
    }

    /// The per-sequence-number B-tree collections the log replaced, with
    /// the bookkeeping the endpoint did on them, and the release
    /// boundary below which nothing is kept or accepted.
    #[derive(Default)]
    struct Model {
        ordered: BTreeMap<u64, Entry<u32>>,
        acks: BTreeMap<u64, (u64, BTreeSet<u32>)>,
        persisted: BTreeSet<u64>,
        emitted: BTreeSet<u64>,
        frame_spans: BTreeMap<u64, u32>,
        floor: u64,
    }

    impl Model {
        /// Drop everything below `end` and refuse it from now on.
        fn release_below(&mut self, end: u64) {
            self.floor = end;
            self.ordered = self.ordered.split_off(&end);
            self.acks = self.acks.split_off(&end);
            self.persisted = self.persisted.split_off(&end);
            self.emitted = self.emitted.split_off(&end);
            self.frame_spans = self.frame_spans.split_off(&end);
        }

        fn era(&self, seq: u64) -> u64 {
            self.ordered.get(&seq).map_or(0, |e| e.era)
        }

        /// Store unless an entry of the same or a higher era is held; a
        /// higher era supersedes entry, votes and persistence.
        fn insert(&mut self, e: Entry<u32>) {
            if let Some(old) = self.ordered.get(&e.seq) {
                if e.era <= old.era {
                    return;
                }
                self.acks.remove(&e.seq);
                self.persisted.remove(&e.seq);
            }
            self.ordered.insert(e.seq, e);
        }

        fn vote(&mut self, from: u32, seq: u64, era: u64) {
            let slot = self
                .acks
                .entry(seq)
                .or_insert_with(|| (era, BTreeSet::new()));
            if era > slot.0 {
                *slot = (era, BTreeSet::new());
            } else if era < slot.0 {
                return;
            }
            slot.1.insert(from);
        }

        fn is_stable(&self, seq: u64, view: &[u32]) -> bool {
            let Some((vote_era, votes)) = self.acks.get(&seq) else {
                return false;
            };
            *vote_era == self.era(seq)
                && votes.iter().filter(|v| view.contains(v)).count() > view.len() / 2
        }

        fn stable_run_end(&self, mark: u64, view: &[u32]) -> u64 {
            let mut s = mark;
            while self.is_stable(s + 1, view) {
                s += 1;
            }
            s
        }
    }

    /// What the endpoint does on the log for the same operations.
    fn log_insert(log: &mut SeqLog<u32>, e: Entry<u32>) {
        let Some(slot) = log.slot_mut(e.seq) else {
            return; // released
        };
        if let Some(old) = &slot.entry {
            if e.era <= old.era {
                return;
            }
            slot.discard_incarnation();
        }
        slot.entry = Some(e);
    }

    fn assert_same(log: &SeqLog<u32>, model: &Model, lo: u64, hi: u64) {
        let views: [&[u32]; 3] = [&GROUP, &[10, 13, 17], &[11]];
        for seq in lo.saturating_sub(2)..=hi + 2 {
            let slot = log.get(seq);
            assert_eq!(
                slot.and_then(|s| s.entry.as_ref()),
                model.ordered.get(&seq),
                "entry at {seq}"
            );
            assert_eq!(
                slot.is_some_and(|s| s.persisted),
                model.persisted.contains(&seq),
                "persisted at {seq}"
            );
            assert_eq!(
                slot.is_some_and(|s| s.emitted),
                model.emitted.contains(&seq),
                "emitted at {seq}"
            );
            assert_eq!(
                slot.map_or(0, |s| s.frame_span),
                model.frame_spans.get(&seq).copied().unwrap_or(0),
                "frame span at {seq}"
            );
            let member_votes = model.acks.get(&seq).map_or(0, |(_, votes)| {
                votes.iter().filter(|v| GROUP.contains(v)).count()
            });
            assert_eq!(
                slot.map_or(0, |s| s.votes.count_ones()) as usize,
                member_votes,
                "vote count at {seq}"
            );
            for view in views {
                let q = quorum_of(view);
                assert_eq!(
                    slot.is_some_and(|s| s.is_stable(q)),
                    model.is_stable(seq, view),
                    "stability of {seq} in {view:?}"
                );
                assert_eq!(
                    log.stable_run_end(seq, q),
                    model.stable_run_end(seq, view),
                    "stable run above {seq} in {view:?}"
                );
            }
            let held: Vec<&Entry<u32>> = log.entries_from(seq).collect();
            let expected: Vec<&Entry<u32>> = model.ordered.range(seq..).map(|(_, e)| e).collect();
            assert_eq!(held, expected, "entries from {seq}");
            let persisted: Vec<u64> = log
                .range(seq)
                .filter(|(_, s)| s.persisted)
                .map(|(s, _)| s)
                .collect();
            let expected: Vec<u64> = model.persisted.range(seq..).copied().collect();
            assert_eq!(persisted, expected, "persisted from {seq}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random insert / supersede-by-higher-era / vote (before its
        /// entry, stale era, from a non-member) / persist / emit / frame
        /// span operations over out-of-order and gapped sequence
        /// numbers, with releases of the front, clears that re-anchor the
        /// window far away and state-transfer forgets: the log answers
        /// every question the B-tree model answers, identically, refuses
        /// every touch below the release boundary, and never allocates
        /// more slots than the span of sequence numbers touched since the
        /// last clear.
        #[test]
        fn log_matches_the_btree_model(
            ops in proptest::collection::vec(
                (0u32..18, 1u64..25, 8u32..19, 0u64..3, 0u32..1000),
                1..120,
            )
        ) {
            let mut log = SeqLog::new();
            let mut model = Model::default();
            let mut offset = 0u64;
            let mut touched: Option<(u64, u64)> = None;
            for (kind, seq, who, era, extra) in ops {
                let seq = seq + offset;
                let accepted = seq >= model.floor;
                if accepted && matches!(kind, 0..=9 | 12) {
                    touched = Some(touched.map_or((seq, seq), |(lo, hi)| (lo.min(seq), hi.max(seq))));
                }
                match kind {
                    0..=3 => {
                        log_insert(&mut log, entry(seq, era, extra));
                        if accepted {
                            model.insert(entry(seq, era, extra));
                        }
                    }
                    4..=9 => match log.slot_mut(seq) {
                        Some(slot) => {
                            prop_assert!(accepted, "touched {seq} below the boundary");
                            slot.vote(rank_bit(who), era);
                            model.vote(who, seq, era);
                        }
                        None => prop_assert!(!accepted, "refused {seq} above the boundary"),
                    },
                    10 => {
                        if let Some(slot) = log.get_mut(seq).filter(|s| s.entry.is_some()) {
                            slot.persisted = true;
                            model.persisted.insert(seq);
                        }
                    }
                    11 => {
                        if let Some(slot) = log.get_mut(seq).filter(|s| s.entry.is_some()) {
                            slot.emitted = true;
                            model.emitted.insert(seq);
                        }
                    }
                    12 => {
                        if let Some(slot) = log.slot_mut(seq) {
                            slot.frame_span = extra + 1;
                            model.frame_spans.insert(seq, extra + 1);
                        }
                    }
                    13 => {
                        // State-transfer install: entries and votes go,
                        // the per-seq marks stay.
                        log.forget_entries();
                        model.ordered.clear();
                        model.acks.clear();
                    }
                    14 | 15 => {
                        // Release below a point, or below the whole
                        // window (which stops at its end).
                        let below = if kind == 14 { seq } else { u64::MAX };
                        log.release_below(below);
                        if let Some((lo, hi)) = touched {
                            let end = below.min(hi + 1);
                            if end > model.floor.max(lo) {
                                model.release_below(end);
                            }
                        }
                    }
                    _ => {
                        // Crash or group restart, resuming far away.
                        log.clear();
                        model = Model::default();
                        touched = None;
                        offset = [0, 40, 1_000_000_000][(extra % 3) as usize];
                    }
                }
                let (lo, hi) = touched.unwrap_or((seq, seq));
                prop_assert!(log.allocated() as u64 <= hi - lo + 1, "window wider than touched span");
                prop_assert!(log.held() <= log.allocated());
                prop_assert_eq!(log.floor(), model.floor);
                assert_same(&log, &model, lo.min(seq), hi.max(seq));
            }
        }
    }

    #[test]
    fn a_vote_outside_the_group_supersedes_but_never_counts() {
        let mut log: SeqLog<u32> = SeqLog::new();
        let q = quorum_of(&[11]);
        let slot = log.slot_mut(5).expect("in range");
        slot.vote(rank_bit(11), 0);
        assert!(slot.is_stable(q));
        slot.vote(rank_bit(99), 1); // an outsider, newer era
        assert_eq!(slot.votes, 0);
        assert!(!slot.is_stable(q));
        slot.vote(rank_bit(11), 0); // stale now
        assert_eq!(slot.votes, 0);
    }

    #[test]
    fn below_the_release_boundary_nothing_reads_and_nothing_allocates() {
        let block = BlockVec::<Slot<u32>>::BLOCK_LEN as u64;
        let base = 7;
        let mut log: SeqLog<u32> = SeqLog::new();
        for seq in base..base + 3 * block {
            log_insert(&mut log, entry(seq, 0, seq as u32));
        }
        let floor = base + 2 * block + 5;
        log.release_below(floor);
        assert_eq!(log.floor(), floor);
        assert_eq!(
            log.held() as u64,
            block,
            "the two whole blocks below the boundary are freed, the one it falls in is kept"
        );
        let stored = (log.allocated(), log.held());
        for seq in [0, 1, base - 1, base, base + block, floor - 1] {
            assert!(log.get(seq).is_none(), "get({seq})");
            assert!(log.get_mut(seq).is_none(), "get_mut({seq})");
            assert!(log.slot_mut(seq).is_none(), "slot_mut({seq})");
            assert_eq!(
                (log.allocated(), log.held()),
                stored,
                "touching {seq} regrew the log"
            );
        }
        assert_eq!(log.entries_from(0).next().map(|e| e.seq), Some(floor));
        assert_eq!(log.range(base).next().map(|(seq, _)| seq), Some(floor));
        assert!(log.get(floor).is_some() && log.slot_mut(floor).is_some());
        // A lower release changes nothing; one past the window stops at
        // its end and still keeps the last block.
        log.release_below(base + block);
        assert_eq!(log.floor(), floor);
        log.release_below(u64::MAX);
        assert_eq!(log.floor(), base + 3 * block);
        assert_eq!(log.held() as u64, block);
        assert!(
            log.slot_mut(base + 3 * block).is_some(),
            "the next seq grows the window"
        );
        // A clear lifts the boundary with everything else.
        log.clear();
        assert_eq!(log.floor(), 0);
        assert!(log.slot_mut(1).is_some());
    }
}
