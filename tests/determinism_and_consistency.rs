//! Cross-crate integration tests: determinism of the whole stack and
//! one-copy-serialisability-style consistency checks, driven through the
//! builder API.

use groupsafe::core::{Load, Report, SafetyLevel, System, SystemBuilder};
use groupsafe::db::{ItemId, Version};
use groupsafe::sim::{SimDuration, SimTime};

const N_ITEMS: u32 = 10_000;

fn small_builder(level: SafetyLevel, seed: u64) -> SystemBuilder {
    System::builder()
        .servers(3)
        .clients_per_server(2)
        .safety(level)
        .load(Load::open_tps(15.0))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs(8))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
}

fn run_system(level: SafetyLevel, seed: u64) -> Report {
    small_builder(level, seed)
        .build()
        .expect("a valid configuration")
        .execute()
}

/// Run the full lifecycle but keep the system for post-hoc inspection.
fn run_and_keep(level: SafetyLevel, seed: u64) -> System {
    let mut run = small_builder(level, seed)
        .build()
        .expect("a valid configuration");
    let end = SimTime::from_secs(9);
    run.run_until(end);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(2));
    run.into_system()
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let a = run_system(SafetyLevel::GroupSafe, 77);
    let b = run_system(SafetyLevel::GroupSafe, 77);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "dispatch fingerprints must match"
    );
    assert_eq!(a.acked, b.acked, "commit counts must match");
    assert_eq!(a.digests, b.digests, "final states must match");
}

#[test]
fn different_seeds_still_converge() {
    for seed in [1, 2, 3, 4] {
        let r = run_system(SafetyLevel::GroupSafe, seed);
        assert!(r.acked > 20, "seed {seed}: too few commits ({})", r.acked);
        assert_eq!(r.distinct_states, 1, "seed {seed}: replicas diverged");
    }
}

#[test]
fn lazy_converges_after_drain() {
    for seed in [5, 6, 7] {
        let r = run_system(SafetyLevel::OneSafe, seed);
        assert!(r.acked > 20);
        assert_eq!(r.distinct_states, 1, "seed {seed}: lazy replicas diverged");
    }
}

/// One-copy serialisability witness for the database state machine: the
/// committed transactions, replayed in version (= delivery) order against
/// a fresh database, must leave every item of every replica at the
/// version the replay leaves it at — and the replicas of a group must
/// hold the same value there. (The oracle keeps each write's item and
/// version, not the value it stored.)
#[test]
fn dsm_commit_history_replays_to_the_replica_state() {
    let system = run_and_keep(SafetyLevel::GroupSafe, 123);

    // Versions are per-group delivery sequence numbers and each group
    // holds only its own keys, so the replay runs group by group (one
    // pass over everything in the unsharded case).
    for g in 0..system.n_groups {
        // Gather the group's committed write sets, sorted by version
        // (delivery seq within the group).
        let oracle = system.oracle.borrow();
        let mut history: Vec<(Version, Vec<(ItemId, Version)>)> = oracle
            .commits
            .values()
            .filter_map(|r| {
                let (item, version) = r.writes().next()?;
                (system.shard.group_of(item) == g).then(|| (version, r.writes().collect()))
            })
            .collect();
        drop(oracle);
        history.sort_by_key(|(v, _)| *v);

        // Replay into a fresh version image.
        let mut image = vec![0; N_ITEMS as usize];
        for (_, writes) in &history {
            for &(item, version) in writes {
                image[item.index()] = version;
            }
        }

        // Compare with every replica of the group, on the keys it owns.
        let first = system.server(g * system.servers_per_group).db();
        for i in g * system.servers_per_group..(g + 1) * system.servers_per_group {
            let db = system.server(i).db();
            for (idx, &expect) in image.iter().enumerate() {
                let item = ItemId(idx as u32);
                if system.shard.group_of(item) != g {
                    continue;
                }
                let got = db.item(item);
                assert_eq!(
                    got.version, expect,
                    "group {g}, replica {i}, item {idx}: serial replay mismatch"
                );
                assert_eq!(
                    got,
                    first.item(item),
                    "group {g}, replica {i}, item {idx}: replicas disagree"
                );
            }
        }
    }
}

/// The certification invariant: no committed transaction observed a stale
/// read — for every (item, version) in a committed read set, no other
/// committed transaction wrote that item with a version between the read
/// version and the reader's own commit version.
#[test]
fn dsm_no_committed_transaction_read_stale_data() {
    let mut run = small_builder(SafetyLevel::GroupSafe, 321)
        .build()
        .expect("a valid configuration");
    run.run_until(SimTime::from_secs(10));
    let system = run.system();

    let oracle = system.oracle.borrow();
    // item -> sorted committed write versions
    let mut writes_by_item: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for rec in oracle.commits.values() {
        for (item, version) in rec.writes() {
            writes_by_item.entry(item.0).or_default().push(version);
        }
    }
    for v in writes_by_item.values_mut() {
        v.sort_unstable();
    }
    let mut checked = 0;
    for rec in oracle.commits.values() {
        let Some((_, own)) = rec.writes().next() else {
            continue;
        };
        for (item, read_v) in rec.readset() {
            if let Some(vs) = writes_by_item.get(&item.0) {
                let conflicting = vs.iter().any(|&wv| wv > read_v && wv < own);
                assert!(
                    !conflicting,
                    "committed txn at version {own} read item {item} at stale version {read_v}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "the invariant must actually be exercised");
}
