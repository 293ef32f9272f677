//! Pins the plain-configuration multicast: no loss, reordering or
//! duplication, so every multicast is one run of equal-instant
//! deliveries (the kernel's fan-out record at full length), with a
//! partition window that thins runs out and two multicast domains. The
//! golden values were captured with one queue record per receiver;
//! `fanout_golden.rs` pins the perturbed network, where runs have
//! length 1 and duplicates close them.

use groupsafe_net::{Incoming, NetStats, Network, NodeId};
use groupsafe_sim::{Actor, ActorId, Ctx, Engine, Payload, SimDuration, SimTime};

const NODES: u32 = 7;

/// Driver payload: multicast `val` to everyone (`frame > 0`: as a batch
/// frame of that many messages).
struct Storm {
    val: u32,
    frame: u64,
    include_self: bool,
}

/// A zero-delay self-timer armed from inside a delivery: it must run
/// behind every receiver of the multicast that armed it.
struct Echo(u32);

/// Folds what it sees, in order, into `seen`; every fourth message is
/// answered with a unicast frame and every fifth arms an [`Echo`].
struct Node {
    me: NodeId,
    net: Network,
    seen: u64,
}

impl Node {
    fn fold(&mut self, v: u64) {
        self.seen = self.seen.wrapping_mul(1_000_003).wrapping_add(v);
    }
}

impl Actor for Node {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.downcast::<Storm>() {
            Ok(storm) => {
                let net = self.net.clone();
                let targets: Vec<NodeId> = (0..NODES)
                    .map(NodeId)
                    .filter(|t| storm.include_self || *t != self.me)
                    .collect();
                if storm.frame > 0 {
                    net.multicast_frame(ctx, self.me, &targets, storm.val, storm.frame);
                } else {
                    net.multicast(ctx, self.me, &targets, storm.val);
                }
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<Echo>() {
            Ok(echo) => {
                self.fold(u64::from(echo.0) << 32);
                return;
            }
            Err(p) => p,
        };
        let inc = payload.downcast::<Incoming<u32>>().expect("u32 messages");
        self.fold(u64::from(inc.msg) << 8 | u64::from(inc.from.0));
        if inc.msg % 4 == 0 && inc.from != self.me {
            let net = self.net.clone();
            net.send_frame(ctx, self.me, inc.from, inc.msg + 1, 3);
        }
        if inc.msg % 5 == 0 {
            ctx.timer(SimDuration::ZERO, Echo(inc.msg));
        }
    }
}

fn run_storm() -> (u64, u64, NetStats, NetStats, NetStats, u64) {
    let mut eng = Engine::new(0x5eed_fa17);
    let net = Network::paper_default();
    let ids: Vec<ActorId> = (0..NODES)
        .map(|i| {
            let id = eng.add_actor(Box::new(Node {
                me: NodeId(i),
                net: net.clone(),
                seen: 0,
            }));
            net.register(NodeId(i), id);
            id
        })
        .collect();
    net.set_domains(&[
        (0..4).map(NodeId).collect(),
        (4..NODES).map(NodeId).collect(),
    ]);
    for i in 0..600u64 {
        let from = (i % NODES as u64) as usize;
        eng.schedule(
            SimTime::from_micros(i * 25),
            ids[from],
            Storm {
                val: i as u32,
                frame: if i % 3 == 0 { 1 + i % 5 } else { 0 },
                include_self: i % 2 == 0,
            },
        );
    }
    // One partition window in the middle of the storm, and one receiver
    // down across part of it: its slots in the in-flight runs go stale.
    eng.schedule_crash(SimTime::from_micros(3_010), ids[2]);
    eng.schedule_recover(SimTime::from_micros(4_020), ids[2]);
    eng.run_until(SimTime::from_micros(5_000));
    net.partition(&[&[NodeId(0), NodeId(1), NodeId(4)]]);
    eng.run_until(SimTime::from_micros(9_000));
    net.heal();
    eng.run_to_completion();
    let seen = ids
        .iter()
        .map(|&id| eng.actor::<Node>(id).seen)
        .fold(0u64, |h, g| h.wrapping_mul(1_000_003).wrapping_add(g));
    (
        eng.fingerprint(),
        eng.dispatched(),
        net.stats(),
        net.domain_stats(0),
        net.domain_stats(1),
        seen,
    )
}

fn counters(s: &NetStats) -> [u64; 9] {
    [
        s.sent,
        s.transmissions,
        s.broadcasts,
        s.frames,
        s.frame_msgs,
        s.dropped_partition,
        s.dropped_loss,
        s.duplicated,
        s.reordered,
    ]
}

#[test]
fn plain_multicast_storm_matches_the_golden_fingerprint_and_counters() {
    let (fingerprint, dispatched, all, d0, d1, seen) = run_storm();
    println!(
        "fingerprint {fingerprint:#018x}\ndispatched {dispatched}\nall {:?}\nd0 {:?}\nd1 {:?}\nseen {seen}",
        counters(&all),
        counters(&d0),
        counters(&d1)
    );
    assert_eq!(fingerprint, GOLDEN_FINGERPRINT);
    assert_eq!(dispatched, GOLDEN_DISPATCHED);
    assert_eq!(counters(&all), GOLDEN_ALL);
    assert_eq!(counters(&d0), GOLDEN_DOMAIN_0);
    assert_eq!(counters(&d1), GOLDEN_DOMAIN_1);
    assert_eq!(seen, GOLDEN_SEEN);
    // The partition bit, and no probabilistic knob did.
    assert!(all.dropped_partition > 0);
    assert_eq!(all.dropped_loss + all.duplicated + all.reordered, 0);
}

// [sent, transmissions, broadcasts, frames, frame_msgs,
//  dropped_partition, dropped_loss, duplicated, reordered]
const GOLDEN_FINGERPRINT: u64 = 0x0f01_da40_c712_78aa;
const GOLDEN_DISPATCHED: u64 = 4856;
const GOLDEN_ALL: [u64; 9] = [3640, 1733, 531, 1653, 4982, 483, 0, 0, 0];
const GOLDEN_DOMAIN_0: [u64; 9] = [1919, 936, 275, 894, 2675, 255, 0, 0, 0];
const GOLDEN_DOMAIN_1: [u64; 9] = [1721, 797, 256, 759, 2307, 228, 0, 0, 0];
const GOLDEN_SEEN: u64 = 14_769_919_939_460_005_555;
