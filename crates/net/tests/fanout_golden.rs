//! Pins the multicast fan-out's observable behaviour: the dispatch
//! fingerprint (which fixes every delivery instant, hence the
//! per-receiver RNG draw order: partition check, loss, reorder,
//! duplicate) and every [`NetStats`] counter, for a storm of multicasts
//! and frames over a lossy, reordering, duplicating, partly partitioned
//! network with two multicast domains. The golden values were captured
//! when the network's jitter knob was deleted (the storm ran with a
//! 40 µs jitter until then); any change to what is drawn, in which
//! order, or to how the wire is accounted moves them.

use groupsafe_net::{Incoming, NetConfig, NetStats, Network, NodeId};
use groupsafe_sim::{Actor, ActorId, Ctx, Engine, Payload, SimDuration, SimTime};

const NODES: u32 = 7;

/// Counts what it receives; every fourth message is answered with a
/// unicast frame so the unicast path runs under the same knobs.
struct Node {
    me: NodeId,
    net: Network,
    got: u64,
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
        let inc = payload.downcast::<Incoming<u32>>().expect("u32 messages");
        self.got += 1;
        if inc.msg % 4 == 0 && inc.from != self.me {
            let net = self.net.clone();
            net.send_frame(ctx, self.me, inc.from, inc.msg + 1, 3);
        }
    }
}

/// Driver payload: multicast `val` (as a `frame`-message batch frame
/// when `frame > 0`).
struct Storm {
    val: u32,
    frame: u64,
    include_self: bool,
}

fn run_storm() -> (u64, NetStats, NetStats, NetStats, u64) {
    let mut eng = Engine::new(0x5eed_fa17);
    let net = Network::new(NetConfig {
        loss_probability: 0.07,
        duplicate_probability: 0.05,
        reorder_probability: 0.15,
        reorder_window: SimDuration::from_micros(300),
        ..NetConfig::default()
    });
    let ids: Vec<ActorId> = (0..NODES)
        .map(|i| {
            let id = eng.add_actor(Box::new(Node {
                me: NodeId(i),
                net: net.clone(),
                got: 0,
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
    // A partition window in the middle of the storm.
    eng.run_until(SimTime::from_micros(5_000));
    net.partition(&[&[NodeId(0), NodeId(1), NodeId(4)]]);
    eng.run_until(SimTime::from_micros(9_000));
    net.heal();
    eng.run_to_completion();
    let got = ids
        .iter()
        .map(|&id| eng.actor::<Node>(id).got)
        .fold(0u64, |h, g| h.wrapping_mul(1_000_003).wrapping_add(g));
    (
        eng.fingerprint(),
        net.stats(),
        net.domain_stats(0),
        net.domain_stats(1),
        got,
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
fn multicast_storm_matches_the_golden_fingerprint_and_counters() {
    let (fingerprint, all, d0, d1, got) = run_storm();
    println!(
        "fingerprint {fingerprint:#018x}\nall {:?}\nd0 {:?}\nd1 {:?}\ngot {got}",
        counters(&all),
        counters(&d0),
        counters(&d1)
    );
    assert_eq!(fingerprint, GOLDEN_FINGERPRINT);
    assert_eq!(counters(&all), GOLDEN_ALL);
    assert_eq!(counters(&d0), GOLDEN_DOMAIN_0);
    assert_eq!(counters(&d1), GOLDEN_DOMAIN_1);
    assert_eq!(got, GOLDEN_RECEIVED);
    // Every knob actually fired, so the golden values pin every branch.
    assert!(all.dropped_partition > 0 && all.dropped_loss > 0);
    assert!(all.duplicated > 0 && all.reordered > 0 && all.frames > 0);
}

// [sent, transmissions, broadcasts, frames, frame_msgs,
//  dropped_partition, dropped_loss, duplicated, reordered]
const GOLDEN_FINGERPRINT: u64 = 0x2729_edac_0c32_9bc0;
const GOLDEN_ALL: [u64; 9] = [4002, 1953, 600, 1734, 5220, 556, 309, 214, 577];
const GOLDEN_DOMAIN_0: [u64; 9] = [2290, 1118, 344, 983, 2937, 327, 177, 128, 327];
const GOLDEN_DOMAIN_1: [u64; 9] = [1712, 835, 256, 751, 2283, 229, 132, 86, 250];
const GOLDEN_RECEIVED: u64 = 1_621_982_753_280_037_748;
