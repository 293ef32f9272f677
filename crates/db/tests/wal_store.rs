//! A shared WAL store against private logs.
//!
//! The logs of one replica group share one store of records and one
//! redo image ([`Wal::join`]); a log alone is the only member of a store
//! of its own. Sharing must be invisible: one to five logs joined into
//! one store, driven by any sequence of appends (the group's record, or
//! one that differs from it), flushes of both sorts, completions, takes,
//! crashes, checkpoint installs and members that stop appending, must
//! each give what the same log gives alone — every LSN, flush result,
//! durable point and counter, and what redo recovers. And the stores
//! must hold no more records than the private logs would: at most the
//! sum of the members' records appended and not yet taken. The same
//! holds one layer up, for engines joined by [`DbEngine::join_wal`]:
//! every crash recovers what the engine alone recovers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use groupsafe_db::{
    DbCheckpoint, DbConfig, DbEngine, ItemId, ItemState, Lsn, TxnId, TxnSet, Wal, WalKind, WriteOp,
};
use groupsafe_sim::{Disk, Fcfs, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A log record as redo sees it, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    txn: TxnId,
    kind: WalKind,
    writes: Vec<WriteOp>,
    items: Vec<ItemId>,
}

impl Rec {
    /// What a record's stored header holds: the version is the first
    /// write's.
    fn header(&self) -> (TxnId, WalKind, u64) {
        let version = self.writes.first().map_or(0, |w| w.version);
        (self.txn, self.kind, version)
    }

    fn append_to(&self, wal: &mut Wal) -> Lsn {
        match self.kind {
            WalKind::Commit => wal.append_commit(self.txn, &self.writes),
            WalKind::Reserve { coordinator } => {
                wal.append_reserve(self.txn, coordinator, &self.items)
            }
            WalKind::Release => wal.append_release(self.txn),
        }
    }
}

/// Items in the database the logs redo into: every write below.
const N_ITEMS: usize = 1000;

/// The empty database.
fn empty() -> DbCheckpoint {
    DbCheckpoint {
        items: vec![ItemState::default(); N_ITEMS],
        committed: TxnSet::new(),
        reservations: BTreeMap::new(),
    }
}

/// What redoing `records` from the empty database yields.
fn replay<'a>(records: impl IntoIterator<Item = &'a Rec>) -> DbCheckpoint {
    let mut image = empty();
    for r in records {
        let txn = r.txn;
        match r.kind {
            WalKind::Commit => {
                for w in &r.writes {
                    if let Some(item) = image.items.get_mut(w.item.0 as usize) {
                        (item.value, item.version) = (w.value, w.version);
                    }
                }
                image.committed.insert(txn);
                image.reservations.retain(|_, &mut (t, _)| t != txn);
            }
            WalKind::Reserve { coordinator } => {
                for &item in &r.items {
                    image.reservations.insert(item, (txn, coordinator));
                }
            }
            WalKind::Release => image.reservations.retain(|_, &mut (t, _)| t != txn),
        }
    }
    image
}

/// What a crash of `wal`'s replica would recover.
fn recovered(wal: &Wal) -> DbCheckpoint {
    let mut state = empty();
    wal.recover_into(&mut state);
    state
}

/// The record every replica of the group appends at LSN `k`: commits of
/// zero to three writes, reserves and releases.
fn group_record(k: Lsn) -> Rec {
    let txn = TxnId {
        client: (k % 3) as u32,
        seq: k,
    };
    let (writes, items) = (Vec::new(), Vec::new());
    match k % 7 {
        5 => Rec {
            txn,
            kind: WalKind::Reserve {
                coordinator: (k % 4) as u32,
            },
            writes,
            items: (0..1 + k % 3).map(|j| ItemId((k + j) as u32)).collect(),
        },
        6 => Rec {
            txn,
            kind: WalKind::Release,
            writes,
            items,
        },
        _ => Rec {
            txn,
            kind: WalKind::Commit,
            writes: (0..k % 4)
                .map(|j| WriteOp {
                    item: ItemId(((k * 7 + j) % 1000) as u32),
                    value: (k * 10 + j) as i64,
                    version: k + 1,
                })
                .collect(),
            items,
        },
    }
}

/// A record that differs from the group's at LSN `k`: in its header
/// (`how` 0, or a release, whose body is empty), or with the same
/// header and another body — a changed last cell (`how` 1) or one cell
/// more or fewer (`how` 2).
fn differing_record(k: Lsn, how: usize) -> Rec {
    let mut r = group_record(k);
    match (how % 3, r.kind) {
        (0, _) | (_, WalKind::Release) => r.txn.seq += 1_000_000,
        (1, WalKind::Commit) => match r.writes.last_mut() {
            Some(w) => w.value += 1,
            None => r.writes.push(WriteOp {
                item: ItemId(0),
                value: 1,
                version: 0,
            }),
        },
        (_, WalKind::Commit) => {
            if r.writes.len() > 1 {
                r.writes.pop();
            } else {
                r.txn.seq += 1_000_000;
            }
        }
        (1, WalKind::Reserve { .. }) => {
            if let Some(item) = r.items.last_mut() {
                item.0 += 1;
            }
        }
        (_, WalKind::Reserve { .. }) => r.items.push(ItemId(999)),
    }
    r
}

/// One member's two logs, shared and private, and what was observed of
/// the private one.
struct Pair {
    shared: Wal,
    private: Wal,
    rngs: (StdRng, StdRng),
    /// Flushes started, not yet completed: their covered LSNs.
    started: Vec<Lsn>,
    stopped: bool,
}

impl Pair {
    fn take(&mut self) {
        self.shared.take_durable();
        self.private.take_durable();
    }

    fn flush(&mut self, sync: bool) -> Result<(), TestCaseError> {
        let (a, b) = &mut self.rngs;
        let (shared, private) = if sync {
            let shared = self.shared.flush_unbatched(SimTime::ZERO, a);
            (shared, self.private.flush_unbatched(SimTime::ZERO, b))
        } else {
            let shared = self.shared.flush(SimTime::ZERO, a);
            (shared, self.private.flush(SimTime::ZERO, b))
        };
        prop_assert_eq!(shared, private, "flush result");
        self.started.extend(private.map(|(_, lsn)| lsn));
        Ok(())
    }

    fn complete(&mut self, pick: usize) {
        if !self.started.is_empty() {
            let lsn = self.started.swap_remove(pick % self.started.len());
            self.shared.mark_durable(lsn);
            self.private.mark_durable(lsn);
        }
    }

    fn crash(&mut self) {
        self.shared.crash();
        self.private.crash();
    }

    fn agree(&self) -> Result<(), TestCaseError> {
        let (s, p) = (&self.shared, &self.private);
        prop_assert_eq!(s.end_lsn(), p.end_lsn(), "end");
        prop_assert_eq!(s.durable_lsn(), p.durable_lsn(), "durable point");
        prop_assert_eq!(s.has_unflushed(), p.has_unflushed(), "unflushed");
        prop_assert_eq!(
            s.durable_block_ready(),
            p.durable_block_ready(),
            "block ready"
        );
        prop_assert_eq!(s.stats(), p.stats(), "counters");
        prop_assert_eq!(s.taken_lsn(), p.taken_lsn(), "taken point");
        prop_assert_eq!(recovered(s), recovered(p), "what redo recovers");
        Ok(())
    }
}

/// One step: `(code, member, arg)`.
type Step = (u8, usize, usize);

fn steps() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (
        1usize..6,
        proptest::collection::vec((0u8..24, 0usize..5, 0usize..700), 1..120),
    )
}

/// Drive `n` members through `steps`, shared and private side by side,
/// and compare them after every step and after a final drain. With
/// `header_only` the shared side mimics a store that compares headers
/// but not bodies: a member appending a record whose header matches the
/// one first appended at that LSN gets that record, body and all.
fn check(n: usize, steps: &[Step], header_only: bool) -> Result<(), TestCaseError> {
    let disk = || Rc::new(RefCell::new(Disk::paper_default()));
    let mut pairs: Vec<Pair> = (0..n)
        .map(|i| Pair {
            shared: Wal::new(disk(), N_ITEMS),
            private: Wal::new(disk(), N_ITEMS),
            rngs: (
                StdRng::seed_from_u64(i as u64),
                StdRng::seed_from_u64(i as u64),
            ),
            started: Vec::new(),
            stopped: false,
        })
        .collect();
    for i in 1..n {
        let (first, rest) = pairs.split_at_mut(i);
        rest[0].shared.join(&first[0].shared);
    }
    let mut first_at: BTreeMap<Lsn, Rec> = BTreeMap::new();
    let mut append = |pair: &mut Pair, rec: Rec| -> Result<(), TestCaseError> {
        let lsn = pair.private.end_lsn();
        let held = first_at.entry(lsn).or_insert_with(|| rec.clone());
        let stored = if header_only && held.header() == rec.header() {
            held.clone()
        } else {
            rec.clone()
        };
        prop_assert_eq!(stored.append_to(&mut pair.shared), lsn);
        prop_assert_eq!(rec.append_to(&mut pair.private), lsn);
        Ok(())
    };
    for &(code, member, arg) in steps {
        let Some(pair) = pairs.get_mut(member % n) else {
            continue;
        };
        match code {
            // A burst, past a block of headers now and then.
            7 if !pair.stopped => {
                for _ in 0..arg {
                    let lsn = pair.private.end_lsn();
                    append(pair, group_record(lsn))?;
                }
            }
            8 if !pair.stopped => {
                let lsn = pair.private.end_lsn();
                append(pair, differing_record(lsn, arg))?;
            }
            7 | 8 | 16 => pair.stopped = true,
            9 | 10 => pair.flush(code == 10)?,
            11 | 12 => pair.complete(arg),
            13 => pair.take(),
            // A crash folds the durable records first; a checkpoint
            // install does not.
            14 => {
                pair.take();
                pair.crash();
            }
            15 => pair.crash(),
            _ if !pair.stopped => {
                let lsn = pair.private.end_lsn();
                append(pair, group_record(lsn))?;
            }
            _ => {}
        }
        for pair in &pairs {
            pair.agree()?;
        }
        // No store holds more than its members would hold apart.
        let mut held = 0;
        for (i, pair) in pairs.iter().enumerate() {
            let seen = pairs.iter().take(i);
            if !seen
                .into_iter()
                .any(|p| p.shared.shares_store_with(&pair.shared))
            {
                held += pair.shared.store_records();
            }
        }
        let live: u64 = pairs
            .iter()
            .map(|p| p.private.end_lsn() - p.private.taken_lsn())
            .sum();
        prop_assert!(
            held as u64 <= live,
            "the stores hold {held} records, the members {live}"
        );
    }
    for pair in &mut pairs {
        pair.flush(false)?;
        let end = pair.private.end_lsn();
        pair.shared.mark_durable(end);
        pair.private.mark_durable(end);
        pair.take();
        pair.agree()?;
    }
    Ok(())
}

proptest! {
    /// One to five logs over one store give, each, what the log alone
    /// gives, and the stores hold no more than the logs would apart.
    #[test]
    fn a_shared_store_behaves_like_private_logs((n, steps) in steps()) {
        check(n, &steps, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The same comparison over more cases (CI's bench job runs it:
    /// `cargo test --release -p groupsafe-db --test wal_store -- --ignored`).
    #[test]
    #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
    fn a_shared_store_behaves_like_private_logs_heavy((n, steps) in steps()) {
        check(n, &steps, false)?;
    }
}

/// Negative control: a store that shared a record on a matching header
/// alone would hand a member another member's body, and the comparison
/// must catch it on the cases the proptest draws.
#[test]
fn a_store_comparing_headers_only_fails_the_comparison() {
    let failed = (0..64u64).find(|&case| {
        let (n, steps) = steps().generate(&mut StdRng::seed_from_u64(case));
        check(n, &steps, true).is_err()
    });
    assert!(failed.is_some(), "no case caught a header-only store");
}

/// Three logs appending the same records keep one copy. A member that
/// stops appending keeps the records it has not taken, which the others'
/// takes move to a store of its own, and a member appending a record
/// other than the one the store holds at its LSN leaves.
#[test]
fn a_group_keeps_one_copy_until_its_members_part() {
    let disk = || Rc::new(RefCell::new(Disk::paper_default()));
    let mut rng = StdRng::seed_from_u64(1);
    let mut wals: Vec<Wal> = (0..3).map(|_| Wal::new(disk(), N_ITEMS)).collect();
    let (first, rest) = wals.split_at_mut(1);
    for w in rest {
        w.join(&first[0]);
    }
    let append_group = |w: &mut Wal, n: u64| {
        for _ in 0..n {
            let lsn = w.end_lsn();
            assert_eq!(group_record(lsn).append_to(w), lsn);
        }
    };
    let drain = |w: &mut Wal, rng: &mut StdRng| {
        if let Some((_, lsn)) = w.flush(SimTime::ZERO, rng) {
            w.mark_durable(lsn);
        }
        w.take_durable();
        recovered(w)
    };
    let group = |end: Lsn| replay(&(0..end).map(group_record).collect::<Vec<_>>());
    for w in &mut wals {
        append_group(w, 1500);
    }
    assert!(wals.iter().all(|w| w.shares_store_with(&wals[0])));
    assert_eq!(wals[0].store_records(), 1500);

    // Member 2 stops; the others go on and take past its end.
    for w in &mut wals[..2] {
        append_group(w, 1500);
        assert_eq!(drain(w, &mut rng), group(3000));
    }
    assert!(!wals[2].shares_store_with(&wals[0]));
    assert!(wals[1].shares_store_with(&wals[0]));
    assert_eq!(wals[0].store_records(), 0);
    assert_eq!(wals[2].store_records(), 1500);
    // One image for the two members left; the one moved out has none,
    // since it had taken nothing.
    assert_eq!(wals[0].store_image(), Some(3000));
    assert_eq!(wals[2].store_image(), None);
    assert_eq!(drain(&mut wals[2], &mut rng), group(1500));
    assert_eq!(wals[2].store_records(), 0);
    assert_eq!(wals[2].store_image(), Some(1500));

    // Member 0 appends a record of its own; member 1, appending the
    // group's record at that LSN, leaves for a store of its own.
    let lsn = wals[0].end_lsn();
    assert_eq!(differing_record(lsn, 1).append_to(&mut wals[0]), lsn);
    append_group(&mut wals[1], 1);
    assert!(!wals[0].shares_store_with(&wals[1]));
    assert_eq!((wals[0].store_records(), wals[1].store_records()), (1, 1));
}

/// One member's two engines, joined and alone, driven alike, and the
/// records appended to them as the private engine's log holds them.
struct Engines {
    shared: DbEngine,
    private: DbEngine,
    /// Flushes started, not yet completed: their covered LSNs.
    started: Vec<Lsn>,
    /// The private engine's log: its records below its end.
    log: Vec<Rec>,
    stopped: bool,
    /// Start a flush right after each commit, at its completion.
    flush_each_commit: bool,
}

fn db_engine(seed: u64) -> DbEngine {
    let disk = || Rc::new(RefCell::new(Disk::paper_default()));
    let config = DbConfig {
        n_items: N_ITEMS as u32,
        ..DbConfig::default()
    };
    let cpu = Rc::new(RefCell::new(Fcfs::new(2)));
    DbEngine::new(config, cpu, disk(), disk(), StdRng::seed_from_u64(seed))
}

impl Engines {
    /// Apply `rec` to both engines as the server would: a commit, or a
    /// logged reservation or release.
    fn apply(&mut self, rec: Rec, now: SimTime) -> Result<(), TestCaseError> {
        let end = self.private.wal_end_lsn();
        let flush_each_commit = self.flush_each_commit;
        let apply = |e: &mut DbEngine| match rec.kind {
            WalKind::Commit => {
                let res = e.commit(now, rec.txn, &rec.writes);
                let flush = flush_each_commit && !res.duplicate;
                flush.then(|| e.flush_wal(res.done)).flatten()
            }
            WalKind::Reserve { coordinator } => {
                e.reserve_logged(rec.txn, coordinator, &rec.items);
                None
            }
            WalKind::Release => {
                e.release_logged(rec.txn);
                None
            }
        };
        let (shared, private) = (apply(&mut self.shared), apply(&mut self.private));
        prop_assert_eq!(shared, private, "flush result");
        self.started.extend(private.map(|(_, lsn)| lsn));
        prop_assert_eq!(self.shared.wal_end_lsn(), self.private.wal_end_lsn());
        if self.private.wal_end_lsn() > end {
            self.log.push(rec);
        }
        Ok(())
    }

    fn flush(&mut self, now: SimTime, sync: bool) -> Result<(), TestCaseError> {
        let (shared, private) = if sync {
            (
                self.shared.flush_wal_sync(now),
                self.private.flush_wal_sync(now),
            )
        } else {
            (self.shared.flush_wal(now), self.private.flush_wal(now))
        };
        prop_assert_eq!(shared, private, "flush result");
        self.started.extend(private.map(|(_, lsn)| lsn));
        Ok(())
    }

    fn complete(&mut self, pick: usize) {
        if !self.started.is_empty() {
            let lsn = self.started.swap_remove(pick % self.started.len());
            self.shared.wal_mark_durable(lsn);
            self.private.wal_mark_durable(lsn);
        }
    }

    /// The log a crash or an install leaves: its durable prefix.
    fn cut_log(&mut self) {
        let durable = self.private.wal_durable_lsn() as usize;
        self.log.truncate(durable);
    }

    fn agree(&self) -> Result<(), TestCaseError> {
        let (s, p) = (&self.shared, &self.private);
        prop_assert_eq!(s.wal_end_lsn(), p.wal_end_lsn(), "end");
        prop_assert_eq!(s.wal_durable_lsn(), p.wal_durable_lsn(), "durable point");
        prop_assert_eq!(s.wal().taken_lsn(), p.wal().taken_lsn(), "taken point");
        prop_assert_eq!(s.wal().stats(), p.wal().stats(), "counters");
        Ok(())
    }
}

/// What a crash recovered on both engines of a member: equal on every
/// count the system reads.
fn same_recovery(shared: &DbCheckpoint, private: &DbEngine) -> Result<(), TestCaseError> {
    let mut alone = db_engine(0);
    alone.install_checkpoint(shared.clone());
    prop_assert_eq!(alone.state_digest(), private.state_digest(), "digest");
    prop_assert_eq!(alone.max_version(), private.max_version(), "max version");
    let expected = private.checkpoint();
    prop_assert_eq!(&shared.committed, &expected.committed, "committed set");
    prop_assert_eq!(&shared.reservations, &expected.reservations, "reservations");
    prop_assert_eq!(&shared.items, &expected.items, "items");
    Ok(())
}

/// Drive `n` members' engines through `steps`, joined and alone side by
/// side, and compare what every crash recovers. With `fold_to_highest`
/// the joined side mimics a store that folds up to the highest member's
/// taken point, not the lowest: a member recovers its store-mates'
/// records up to that point, made durable on its own disk or not.
fn check_recovery(
    n: usize,
    flush_each_commit: bool,
    steps: &[Step],
    fold_to_highest: bool,
) -> Result<(), TestCaseError> {
    let mut members: Vec<Engines> = (0..n as u64)
        .map(|i| Engines {
            shared: db_engine(i),
            private: db_engine(i),
            started: Vec::new(),
            log: Vec::new(),
            stopped: false,
            flush_each_commit,
        })
        .collect();
    for i in 1..n {
        let (first, rest) = members.split_at_mut(i);
        rest[0].shared.join_wal(&first[0].shared);
    }
    let mut saved: Option<DbCheckpoint> = None;
    for (i, &(code, member, arg)) in steps.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        let m = member % n;
        // Under the mutant, what a crash of the member would recover:
        // its store-mates' records up to the highest taken point among
        // them, taken before anything moves.
        let mutant = if fold_to_highest && matches!(code, 14 | 15) {
            let wal = members[m].shared.wal();
            let mates = members
                .iter()
                .filter(|o| o.shared.wal().shares_store_with(wal));
            let top = mates.max_by_key(|o| o.shared.wal().taken_lsn());
            top.map(|o| {
                let taken = o.shared.wal().taken_lsn();
                (taken, replay(o.log.get(..taken as usize).unwrap_or(&[])))
            })
        } else {
            None
        };
        let Some(e) = members.get_mut(m) else {
            continue;
        };
        match code {
            // Bursts, past a block of headers now and then, so that
            // members take and the store folds.
            0..=5 if !e.stopped => {
                for _ in 0..arg {
                    let lsn = e.private.wal_end_lsn();
                    e.apply(group_record(lsn), now)?;
                }
            }
            6 if !e.stopped => {
                let lsn = e.private.wal_end_lsn();
                e.apply(differing_record(lsn, arg), now)?;
            }
            0..=7 => e.stopped = true,
            8 | 9 => e.flush(now, code == 9)?,
            10..=13 => e.complete(arg),
            14 | 15 => {
                e.shared.crash();
                e.private.crash();
                e.cut_log();
                let got = match mutant {
                    Some((taken, image)) if taken > e.private.wal_durable_lsn() => image,
                    _ => e.shared.checkpoint(),
                };
                same_recovery(&got, &e.private)?;
            }
            16 => {
                // A state transfer: from a saved peer state, or this
                // member's own.
                let ckpt = match saved.take() {
                    Some(ckpt) if arg % 2 == 0 => ckpt,
                    _ => e.private.checkpoint(),
                };
                e.shared.install_checkpoint(ckpt.clone());
                e.private.install_checkpoint(ckpt);
                e.cut_log();
            }
            17 => saved = Some(e.private.checkpoint()),
            _ if !e.stopped => {
                let lsn = e.private.wal_end_lsn();
                e.apply(group_record(lsn), now)?;
            }
            _ => {}
        }
        for e in &members {
            e.agree()?;
        }
        // One image per store at most, whatever its members.
        let mut stores = 0;
        let mut images = 0;
        for (k, e) in members.iter().enumerate() {
            let wal = e.shared.wal();
            if !members[..k]
                .iter()
                .any(|o| o.shared.wal().shares_store_with(wal))
            {
                stores += 1;
                images += usize::from(wal.store_image().is_some());
            }
        }
        prop_assert!(images <= stores, "{images} images in {stores} stores");
    }
    // Every member's last crash, after whatever became durable.
    for e in &mut members {
        e.shared.crash();
        e.private.crash();
        same_recovery(&e.shared.checkpoint(), &e.private)?;
    }
    Ok(())
}

fn engine_steps() -> impl Strategy<Value = (usize, bool, Vec<Step>)> {
    (
        1usize..6,
        any::<bool>(),
        proptest::collection::vec((0u8..24, 0usize..5, 0usize..700), 1..120),
    )
}

proptest! {
    /// One to five engines joined by their WAL store recover, at every
    /// crash, what each engine alone recovers.
    #[test]
    fn recovery_through_a_shared_image_equals_recovery_alone(
        (n, flush_each_commit, steps) in engine_steps(),
    ) {
        check_recovery(n, flush_each_commit, &steps, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The same comparison over more cases (CI's bench job runs it:
    /// `cargo test --release -p groupsafe-db --test wal_store -- --ignored`).
    #[test]
    #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
    fn recovery_through_a_shared_image_equals_recovery_alone_heavy(
        (n, flush_each_commit, steps) in engine_steps(),
    ) {
        check_recovery(n, flush_each_commit, &steps, false)?;
    }
}

/// Negative control: a store that folded up to the highest member's
/// taken point would hand a crashed member records it never made
/// durable, and the comparison must catch it on the cases the proptest
/// draws.
#[test]
fn a_store_folding_past_the_lowest_taken_point_fails_the_comparison() {
    let failed = (0..64u64).find(|&case| {
        let (n, flush_each, steps) = engine_steps().generate(&mut StdRng::seed_from_u64(case));
        check_recovery(n, flush_each, &steps, true).is_err()
    });
    assert!(failed.is_some(), "no case caught a store folding too far");
}
