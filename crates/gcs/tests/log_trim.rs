//! The view-based endpoint's sequence log is bounded by delivery, not by
//! history: every endpoint frees the log below the highest sequence
//! number all members of the static group have delivered. While a
//! member is down, its last reported delivery head holds that point
//! back; once it has rejoined, trimming resumes. The sequencer's
//! duplicate table releases the ids of what it frees, so it is bounded
//! the same way, and a forward that arrives after its id was released
//! is dropped, not ordered again — except at a sequencer that rejoined
//! by state transfer, which is pinned here as it stands.

use std::collections::BTreeMap;
use std::rc::Rc;

use groupsafe_gcs::harness::{Cluster, HostMsg};
use groupsafe_gcs::{BatchConfig, DeliveryRecord, GcsConfig, MsgId, ProcessClass, Wire};
use groupsafe_net::{Incoming, NodeId};
use groupsafe_sim::{BlockVec, SimDuration, SimTime};

const N: u32 = 5;
/// The unit the log frees.
const BLOCK: u64 = BlockVec::<()>::BLOCK_LEN as u64;
/// Broadcasts per phase: before the crash, while a member is down, and
/// after it rejoined.
const PER_PHASE: u64 = 2_000;
/// One broadcast per millisecond, from rotating origins.
const STEP_US: u64 = 1_000;
/// Ids per page of the duplicate table.
const PAGE: u64 = 64;
/// (origin, generation) runs of ids over a whole test: one per member,
/// and one more for the member that rejoins under a new generation.
const RUNS: u64 = N as u64 + 1;

/// Broadcast `count` values from rotating origins among the first
/// `origins` nodes, one per millisecond from `from`, valued from `value`.
fn broadcast(cluster: &mut Cluster, from: SimTime, count: u64, origins: u32, value: u64) {
    for i in 0..count {
        let at = from + SimDuration::from_micros(i * STEP_US);
        let node = NodeId((i % u64::from(origins)) as u32);
        cluster.broadcast_at(at, node, value + i);
    }
}

/// The group's spread: highest sequence number seen anywhere minus the
/// lowest delivery head among `members`.
fn in_flight(cluster: &Cluster, members: &[u32]) -> u64 {
    let heads = members
        .iter()
        .map(|&i| cluster.endpoint(NodeId(i)).next_deliver() - 1);
    let seen = members.iter().map(|&i| {
        let ep = cluster.endpoint(NodeId(i));
        ep.next_deliver() - 1 + ep.backlog()
    });
    seen.max().unwrap_or(0) - heads.min().unwrap_or(0)
}

/// Step the run to `until` in 20 ms strides and check, at every stride,
/// that each of `members` holds at most two blocks plus twice the
/// largest spread seen so far (the spread when it last trimmed, and
/// now), and ids within the log's bound: a page for every 64 slots the
/// log holds, plus two per run of ids (the partly released page at its
/// floor, and its newest). Returns that largest spread.
fn run_bounded(cluster: &mut Cluster, until: SimTime, members: &[u32], mut spread: u64) -> u64 {
    let stride = SimDuration::from_millis(20);
    while cluster.engine.now() < until {
        let next = (cluster.engine.now() + stride).min(until);
        cluster.engine.run_until(next);
        spread = spread.max(in_flight(cluster, members));
        for &i in members {
            let held = cluster.endpoint(NodeId(i)).log_held() as u64;
            assert!(
                held <= 2 * BLOCK + 2 * spread,
                "node {i} holds {held} slots at {:?} (spread {spread})",
                cluster.engine.now()
            );
            assert_ids_within_the_log(cluster, i);
        }
    }
    spread
}

/// Pages of ids a drained member holds: the ids above the last trim's
/// bound, less than two blocks of them, plus two pages per run.
fn drained_ids_bound() -> u64 {
    (2 * BLOCK).div_ceil(PAGE) + 2 * RUNS
}

/// `node`'s duplicate table holds at most a page per 64 slots its log
/// holds, plus two pages per run of ids.
fn assert_ids_within_the_log(cluster: &Cluster, node: u32) {
    let ep = cluster.endpoint(NodeId(node));
    let (ids, held) = (ep.ids_held() as u64, ep.log_held() as u64);
    assert!(
        ids <= held.div_ceil(PAGE) + 2 * RUNS,
        "node {node} holds {ids} pages of ids beside {held} log slots at {:?}",
        cluster.engine.now()
    );
}

fn trims_below_what_every_member_delivered(cfg: GcsConfig, seed: u64) {
    let mut cluster = Cluster::new(N, cfg, seed);
    let all: Vec<u32> = (0..N).collect();
    let survivors: Vec<u32> = (0..N - 1).collect();
    let down = NodeId(N - 1);
    let ms = SimTime::from_millis;

    // Phase 1: the whole group; the log stays bounded everywhere.
    broadcast(&mut cluster, ms(10), PER_PHASE, N, 0);
    let crash_at = ms(10) + SimDuration::from_micros(PER_PHASE * STEP_US + 50_000);
    let spread = run_bounded(&mut cluster, crash_at, &all, 0);
    for &i in &all {
        let ep = cluster.endpoint(NodeId(i));
        assert_eq!(ep.next_deliver(), PER_PHASE + 1, "node {i} drained");
        assert!(
            ep.log_floor() > PER_PHASE - 2 * BLOCK,
            "node {i} trimmed only below {}",
            ep.log_floor()
        );
        assert!(
            ep.ids_held() as u64 <= drained_ids_bound(),
            "node {i} holds {} pages of ids",
            ep.ids_held()
        );
    }

    // Phase 2: one member down. Nobody frees what it has not reported
    // delivered, so every survivor keeps everything since, ids too.
    let last_head = cluster.endpoint(down).next_deliver() - 1;
    cluster
        .engine
        .schedule_crash(crash_at, cluster.hosts[down.index()]);
    let from = crash_at + SimDuration::from_millis(200);
    broadcast(&mut cluster, from, PER_PHASE, N - 1, 10_000);
    let midway = from + SimDuration::from_micros(PER_PHASE * STEP_US / 2);
    cluster.engine.run_until(midway);
    let floors: Vec<u64> = survivors
        .iter()
        .map(|&i| cluster.endpoint(NodeId(i)).log_floor())
        .collect();
    let recover_at = from + SimDuration::from_micros(PER_PHASE * STEP_US + 50_000);
    cluster.engine.run_until(recover_at);
    for (&i, &floor) in survivors.iter().zip(&floors) {
        let ep = cluster.endpoint(NodeId(i));
        assert_eq!(ep.next_deliver(), 2 * PER_PHASE + 1, "node {i} drained");
        assert!(
            floor <= last_head + 1,
            "node {i} freed what the down member lacks"
        );
        assert_eq!(ep.log_floor(), floor, "node {i}'s retention did not freeze");
        assert!(
            ep.log_held() as u64 >= PER_PHASE,
            "node {i} freed entries delivered while a member was down"
        );
        assert!(
            ep.ids_held() as u64 >= PER_PHASE / PAGE,
            "node {i} released ids delivered while a member was down"
        );
        assert_ids_within_the_log(&cluster, i);
    }
    let grown: Vec<usize> = survivors
        .iter()
        .map(|&i| cluster.endpoint(NodeId(i)).ids_held())
        .collect();

    // Phase 3: the member rejoins by state transfer and reports its
    // head again; trimming resumes everywhere within the next trim
    // period (a block of deliveries), and the bound holds again.
    cluster
        .engine
        .schedule_recover(recover_at, cluster.hosts[down.index()]);
    cluster
        .engine
        .run_until(recover_at + SimDuration::from_millis(300));
    assert!(cluster.endpoint(down).is_joined(), "the member rejoined");
    let from = cluster.engine.now();
    broadcast(&mut cluster, from, PER_PHASE, N, 20_000);
    cluster
        .engine
        .run_until(from + SimDuration::from_micros(2 * BLOCK * STEP_US));
    let end = from + SimDuration::from_micros(PER_PHASE * STEP_US + 50_000);
    run_bounded(&mut cluster, end, &all, spread);
    for &i in &all {
        let ep = cluster.endpoint(NodeId(i));
        assert_eq!(ep.next_deliver(), 3 * PER_PHASE + 1, "node {i} drained");
        assert!(
            ep.log_floor() > 3 * PER_PHASE - 2 * BLOCK,
            "node {i} did not resume trimming: floor {}",
            ep.log_floor()
        );
        assert!(
            ep.ids_held() as u64 <= drained_ids_bound(),
            "node {i} holds {} pages of ids after the rejoin",
            ep.ids_held()
        );
    }
    for (&i, &grown) in survivors.iter().zip(&grown) {
        let held = cluster.endpoint(NodeId(i)).ids_held();
        assert!(
            held < grown,
            "node {i}'s ids did not shrink back: {held} ≥ {grown}"
        );
    }

    // Trimming changed nothing the group delivered: every replica,
    // the rejoined one included, holds the same complete state, and the
    // survivors' deliveries pass every checker (the crashed incarnation
    // is red: its successor took the state by transfer instead).
    let reference = cluster.stable_values(NodeId(0));
    assert_eq!(reference.len() as u64, 3 * PER_PHASE);
    for &i in &all {
        assert_eq!(cluster.stable_values(NodeId(i)), reference, "replica {i}");
    }
    {
        let mut obs = cluster.obs.borrow_mut();
        for &i in &survivors {
            obs.classes.insert(NodeId(i), ProcessClass::Green);
        }
        obs.classes.insert(down, ProcessClass::Red);
    }
    let violations = cluster.obs.borrow().check_all(false);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn the_log_frees_what_every_member_delivered() {
    trims_below_what_every_member_delivered(GcsConfig::view_based_uniform(), 31);
}

#[test]
fn the_batched_log_frees_what_every_member_delivered() {
    let cfg = GcsConfig::view_based_uniform()
        .with_batching(BatchConfig::of(8, SimDuration::from_micros(500)));
    trims_below_what_every_member_delivered(cfg, 37);
}

/// A forward that reaches the sequencer after every member delivered its
/// message and the sequencer released its id — a copy the network held
/// back past the trim — is dropped: the message is not ordered again,
/// and every member delivers every message exactly once.
#[test]
fn a_forward_late_past_its_release_is_not_ordered_again() {
    let mut cluster = Cluster::new(N, GcsConfig::view_based_uniform(), 41);
    broadcast(&mut cluster, SimTime::from_millis(10), PER_PHASE, N, 0);
    let late = SimTime::from_millis(10) + SimDuration::from_micros(PER_PHASE * STEP_US + 50_000);
    cluster.engine.run_until(late);
    let sequencer = NodeId(0);
    assert!(cluster.endpoint(sequencer).is_sequencer());
    assert_eq!(cluster.endpoint(sequencer).released_forwards(), 0);

    // The first page of every origin's ids, delivered everywhere long
    // ago, forwarded once more from its origin with another payload.
    let stale: Vec<MsgId> = cluster
        .obs
        .borrow()
        .broadcast
        .iter()
        .filter(|id| id.counter < PAGE)
        .copied()
        .collect();
    assert_eq!(stale.len() as u64, u64::from(N) * (PAGE - 1));
    for (i, &id) in (0u64..).zip(&stale) {
        let forward = Incoming {
            from: id.origin,
            msg: Wire::Forward {
                id,
                payload: u64::MAX - i,
            },
        };
        cluster.engine.schedule(
            late + SimDuration::from_micros(i),
            cluster.hosts[sequencer.index()],
            HostMsg::Wire(Rc::new(forward)),
        );
    }
    cluster
        .engine
        .run_until(late + SimDuration::from_millis(200));
    assert_eq!(
        cluster.endpoint(sequencer).released_forwards(),
        stale.len() as u64,
        "every stale forward met a released id"
    );

    for i in 0..N {
        cluster
            .obs
            .borrow_mut()
            .classes
            .insert(NodeId(i), ProcessClass::Green);
    }
    let obs = cluster.obs.borrow();
    assert_eq!(obs.deliveries.len(), N as usize);
    for (node, records) in &obs.deliveries {
        let mut times: BTreeMap<MsgId, u32> = BTreeMap::new();
        for r in records {
            *times.entry(r.id).or_insert(0) += 1;
        }
        assert_eq!(
            times.len() as u64,
            PER_PHASE,
            "{node:?} delivered every message"
        );
        assert!(
            times.values().all(|&n| n == 1),
            "{node:?} delivered a message twice"
        );
    }
    let violations = obs.check_all(false);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Today's behaviour, pinned: a sequencer that rejoins by state transfer
/// takes its donor's state but not its duplicate table, so a forward of
/// a message delivered before the crash is ordered again, and every
/// member delivers that message twice. That breaks uniform integrity
/// (a message is delivered at most once); ROADMAP.md's one rejoin path
/// (item 27) hands the donor's release floors over and flips the count
/// to one.
#[test]
fn a_rejoined_sequencer_orders_a_forward_from_before_its_crash_again() {
    let mut cluster = Cluster::new(N, GcsConfig::view_based_uniform(), 41);
    let ms = SimTime::from_millis;
    broadcast(&mut cluster, ms(10), 600, N, 0);
    let sequencer = NodeId(0);
    cluster
        .engine
        .schedule_crash(ms(800), cluster.hosts[sequencer.index()]);
    cluster
        .engine
        .schedule_recover(ms(1_300), cluster.hosts[sequencer.index()]);
    cluster.engine.run_until(ms(1_800));
    assert!(cluster.endpoint(sequencer).is_joined(), "node 0 rejoined");
    assert!(
        cluster.endpoint(sequencer).is_sequencer(),
        "node 0 orders again"
    );

    let id = MsgId {
        origin: NodeId(2),
        counter: 1,
    };
    let deliveries = |cluster: &Cluster| -> Vec<usize> {
        let obs = cluster.obs.borrow();
        assert_eq!(obs.deliveries.len(), N as usize);
        let times = |records: &Vec<DeliveryRecord>| records.iter().filter(|r| r.id == id).count();
        obs.deliveries.values().map(times).collect()
    };
    assert_eq!(
        deliveries(&cluster),
        vec![1; N as usize],
        "before the forward"
    );
    let forward = Incoming {
        from: id.origin,
        msg: Wire::Forward {
            id,
            payload: u64::MAX,
        },
    };
    cluster.engine.schedule(
        ms(1_800),
        cluster.hosts[sequencer.index()],
        HostMsg::Wire(Rc::new(forward)),
    );
    cluster.engine.run_until(ms(2_300));
    assert_eq!(
        deliveries(&cluster),
        vec![2; N as usize],
        "after the forward"
    );
}
