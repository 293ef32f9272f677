//! Endpoint regressions for the places the sequence-log rewrite could go
//! wrong: late votes, a shrinking view, and installs far above 1.

use groupsafe_net::{Incoming, NetConfig, Network, NodeId};
use groupsafe_sim::{Actor, Ctx, Engine, Payload, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::*;
use crate::harness::{AppCheckpoint, Cluster, GcsHost};

type HostWire = Wire<u64, AppCheckpoint>;

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// A settled 5-member uniform group that delivered `n` messages
/// everywhere, at t = 100 ms.
fn settled_cluster(n: u64) -> Cluster {
    let mut cluster = Cluster::new(5, GcsConfig::view_based_uniform(), 7);
    for i in 0..n {
        cluster.broadcast_at(ms(10 + i), NodeId((i % 5) as u32), 100 + i);
    }
    cluster.engine.run_until(ms(100));
    for i in 0..5 {
        assert_eq!(cluster.endpoint(NodeId(i)).next_deliver(), n + 1);
    }
    cluster
}

/// Hand `wire` to `to` as if `from` had sent it, `after` from now.
fn inject(cluster: &mut Cluster, after: SimDuration, from: NodeId, to: NodeId, wire: HostWire) {
    let at = cluster.engine.now() + after;
    let host = cluster.hosts[to.index()];
    cluster
        .engine
        .schedule(at, host, Incoming { from, msg: wire });
}

fn entry(seq: u64, value: u64) -> Entry<u64> {
    Entry {
        seq,
        id: MsgId {
            origin: NodeId(0),
            counter: 1_000 + seq,
        },
        payload: value,
        era: 0,
    }
}

#[test]
fn late_acks_neither_regress_the_watermark_nor_redeliver() {
    let mut cluster = settled_cluster(8);
    let node = NodeId(4);
    let before = cluster.endpoint(node).stats();
    assert_eq!(cluster.endpoint(node).stable_watermark(), 8);
    let deliveries = cluster.obs.borrow().deliveries.len();
    // Duplicate votes for delivered entries, and votes of a newer era
    // (which reset a delivered slot's vote set) for two of them.
    for (k, seq) in (1..=8u64).enumerate() {
        let from = NodeId((k % 4) as u32);
        let wire = Wire::Ack {
            lo: seq,
            hi: seq,
            era: 0,
            delivered: 0,
        };
        inject(
            &mut cluster,
            SimDuration::from_micros(k as u64),
            from,
            node,
            wire,
        );
    }
    for seq in [3, 8] {
        let wire = Wire::Ack {
            lo: seq,
            hi: seq,
            era: 9,
            delivered: 0,
        };
        inject(
            &mut cluster,
            SimDuration::from_micros(20),
            NodeId(1),
            node,
            wire,
        );
    }
    cluster.engine.run_until(ms(101));
    let ep = cluster.endpoint(node);
    assert_eq!(ep.stable_watermark(), 8, "the watermark is monotone");
    assert_eq!(ep.next_deliver(), 9);
    assert_eq!(ep.stats().delivered, before.delivered, "nothing re-emitted");
    assert_eq!(cluster.obs.borrow().deliveries.len(), deliveries);
    // The superseded slot really lost its votes: the cached mark holds.
    assert!(!ep.log.get(8).is_some_and(|slot| slot.is_stable(ep.quorum)));
}

#[test]
fn a_shrinking_view_reevaluates_stability_against_the_new_members() {
    let mut cluster = settled_cluster(4);
    let step = SimDuration::from_micros(1);
    let shrunk = View {
        id: 1,
        members: vec![NodeId(0), NodeId(3), NodeId(4)],
    };
    // Node 4 holds seq 5 with votes from {3, 4}; node 3 holds it with
    // votes from {1, 3}. Two of five: stable at neither.
    for (node, voter) in [(NodeId(4), NodeId(3)), (NodeId(3), NodeId(1))] {
        let ordered = Wire::Ordered {
            view: 0,
            entries: vec![entry(5, 555)],
        };
        inject(&mut cluster, step, NodeId(0), node, ordered);
        inject(
            &mut cluster,
            step * 2,
            voter,
            node,
            Wire::Ack {
                lo: 5,
                hi: 5,
                era: 0,
                delivered: 4,
            },
        );
    }
    cluster.engine.run_until(ms(100) + step * 3);
    for node in [NodeId(3), NodeId(4)] {
        assert_eq!(cluster.endpoint(node).next_deliver(), 5, "not stable yet");
    }
    // The view shrinks to {0, 3, 4} (majority 2) below the open entry.
    for node in [NodeId(3), NodeId(4)] {
        let new_view = Wire::NewView {
            view: shrunk.clone(),
            watermark: 4,
            entries: Vec::new(),
        };
        inject(&mut cluster, step, NodeId(0), node, new_view);
    }
    cluster.engine.run_until(ms(100) + step * 5);
    let four = cluster.endpoint(NodeId(4));
    assert_eq!(four.view(), &shrunk);
    assert_eq!(
        four.next_deliver(),
        6,
        "votes {{3, 4}} are a majority of the shrunk view"
    );
    let three = cluster.endpoint(NodeId(3));
    assert_eq!(three.view(), &shrunk);
    assert_eq!(
        three.next_deliver(),
        5,
        "the departed member's vote must stop counting: {{1, 3}} is one vote of {{0, 3, 4}}"
    );
}

const FAR: u64 = 1_000_000_000;

#[test]
fn a_state_transfer_far_above_one_allocates_only_its_tail() {
    let mut cluster = settled_cluster(3);
    let joiner = NodeId(2);
    cluster.engine.schedule_crash(ms(101), cluster.hosts[2]);
    cluster.engine.schedule_recover(ms(102), cluster.hosts[2]);
    cluster.engine.run_until(ms(102));
    assert!(!cluster.endpoint(joiner).is_joined());
    let transfer = Wire::StateTransfer {
        view: View {
            id: 1,
            members: (0..5).map(NodeId).collect(),
        },
        applied_seq: FAR,
        tail: vec![entry(FAR + 1, 1), entry(FAR + 2, 2)],
        state: AppCheckpoint::default(),
        watermark: FAR + 2,
    };
    inject(
        &mut cluster,
        SimDuration::from_micros(1),
        NodeId(0),
        joiner,
        transfer,
    );
    cluster
        .engine
        .run_until(ms(102) + SimDuration::from_micros(2));
    let host: &GcsHost = cluster.engine.actor(cluster.hosts[2]);
    let ep = host.endpoint();
    assert!(ep.is_joined());
    assert_eq!(ep.next_deliver(), FAR + 3, "the tail was delivered");
    assert_eq!(ep.stable_watermark(), FAR + 2);
    assert_eq!(ep.log.allocated(), 2, "one slot per tail entry");
}

/// Restarts a singleton group at `FAR` and feeds it the first entry of
/// its new life, all inside one callback.
struct RestartProbe {
    endpoint: GcsEndpoint<u64, AppCheckpoint>,
    out: Vec<GcsOutput<u64, AppCheckpoint>>,
}

impl Actor for RestartProbe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
        if !self.out.is_empty() {
            return;
        }
        let me = self.endpoint.node();
        self.endpoint.restart_group(ctx, vec![me], FAR);
        assert_eq!(self.endpoint.log.allocated(), 0, "built lazily");
        let ordered = Wire::Ordered {
            view: 0,
            entries: vec![entry(FAR + 1, 42)],
        };
        self.endpoint.on_net(ctx, me, &ordered, &mut self.out);
    }
}

#[test]
fn a_group_restart_far_above_one_allocates_no_empty_slots() {
    let mut engine = Engine::new(1);
    let endpoint = GcsEndpoint::new(
        GcsConfig::view_based_uniform(),
        NodeId(0),
        vec![NodeId(0), NodeId(1), NodeId(2)],
        Network::new(NetConfig::default()),
        None,
        StdRng::seed_from_u64(1),
    );
    let probe = engine.add_actor(Box::new(RestartProbe {
        endpoint,
        out: Vec::new(),
    }));
    engine.schedule(SimTime::ZERO, probe, ());
    engine.run_until(SimTime::from_micros(1));
    let probe: &RestartProbe = engine.actor(probe);
    assert!(
        matches!(
            probe.out.as_slice(),
            [GcsOutput::Deliver {
                seq,
                payload: 42,
                ..
            }] if *seq == FAR + 1
        ),
        "the singleton's own vote is a majority"
    );
    assert_eq!(probe.endpoint.next_deliver(), FAR + 2);
    assert_eq!(probe.endpoint.stable_watermark(), FAR + 1);
    assert_eq!(probe.endpoint.log.allocated(), 1);
}

proptest::proptest! {
    /// A replayed vote run — the catch-up reply's and the crash-recovery
    /// re-vote's — never covers more than `max_msgs` entries, never
    /// spans a hole or an era change, and the runs cover exactly the
    /// persisted entries at or above the replay's start, each run as
    /// long as those three rules allow.
    #[test]
    fn replayed_vote_runs_are_capped_at_max_msgs(
        max_msgs in 1usize..10,
        slots in proptest::collection::vec((0u8..5, 0u64..3), 0..48),
        from in 0u64..8,
    ) {
        let cfg = GcsConfig::view_based_uniform()
            .with_batching(crate::BatchConfig::of(max_msgs, SimDuration::from_micros(500)));
        let mut ep: GcsEndpoint<u64, AppCheckpoint> = GcsEndpoint::new(
            cfg,
            NodeId(0),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            Network::new(NetConfig::default()),
            None,
            StdRng::seed_from_u64(1),
        );
        // Eras only grow along the log, as a recovering sequencer's do.
        let mut era = 0;
        let mut persisted = Vec::new();
        for (i, &(held, step)) in slots.iter().enumerate() {
            let (seq, held) = (i as u64 + 1, held != 0);
            era += u64::from(step == 2);
            let slot = ep.log.slot_mut(seq).expect("no release yet");
            slot.entry = Some(Entry { era, ..entry(seq, seq) });
            slot.persisted = held;
            if held && seq >= from {
                persisted.push(seq);
            }
        }
        let runs = ep.vote_runs(from);
        let covered: Vec<u64> = runs.iter().flat_map(|&(lo, hi, _)| lo..=hi).collect();
        proptest::prop_assert_eq!(covered, persisted);
        for &(lo, hi, era) in &runs {
            proptest::prop_assert!(hi - lo < max_msgs as u64, "{lo}..={hi} over {max_msgs}");
            for seq in lo..=hi {
                proptest::prop_assert_eq!(ep.entry_era(seq), era);
            }
        }
        for pair in runs.windows(2) {
            let ((lo, hi, era), (next, _, next_era)) = (pair[0], pair[1]);
            let joinable = hi + 1 == next && era == next_era;
            proptest::prop_assert!(!joinable || hi - lo + 1 == max_msgs as u64);
        }
    }
}

#[test]
fn a_rank_is_the_position_in_the_sorted_group() {
    let consecutive = [3, 4, 5, 6];
    let gapped = [1, 2, 5, 9, 10];
    for group in [&consecutive[..], &gapped[..]] {
        let members: Vec<NodeId> = group.iter().rev().map(|&n| NodeId(n)).collect();
        let ep: GcsEndpoint<u64, AppCheckpoint> = GcsEndpoint::new(
            GcsConfig::view_based_uniform(),
            members[0],
            members,
            Network::new(NetConfig::default()),
            None,
            StdRng::seed_from_u64(1),
        );
        for node in (0..12).chain([u32::MAX]) {
            let rank = group.iter().position(|&n| n == node);
            assert_eq!(ep.rank(NodeId(node)), rank, "node {node} of {group:?}");
        }
    }
}
