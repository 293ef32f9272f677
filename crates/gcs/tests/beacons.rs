//! The beacon path against real heartbeats.
//!
//! A heartbeat on a quiet link is a beacon — accounted, not sent — and a
//! tick whose every heartbeat is one parks (see `groupsafe_net`'s module
//! docs). These tests run the same harness cluster twice under random
//! crash, recover, partition, heal and loss-burst schedules: once as
//! `Cluster::new` wires it, and once on a network never attached to the
//! kernel's watch, where every heartbeat is sent and every tick queued —
//! the reference. At every millisecond, so at every tick instant, each
//! endpoint's `heard` per rank, its suspicion mask and its view must be
//! the same in both, and so must the network's counters. A negative
//! control hears a crashed sender for one beat past its crash, as a
//! beacon that outlived it would, and expects the comparison to object.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use groupsafe_gcs::harness::{Cluster, GcsHost, HostMsg};
use groupsafe_gcs::{GcsConfig, GcsEndpoint, RunObservation};
use groupsafe_net::{NetConfig, Network, NodeId};
use groupsafe_sim::{ActorId, Disk, Engine, SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// How a run's heartbeats travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every heartbeat sent, every tick queued: the network is never
    /// attached to the kernel's watch.
    Reference,
    /// As `Cluster::new` wires a cluster.
    Beacons,
    /// The reference, but every crashed node is heard once more, at the
    /// beat after its crash on the grid it started on.
    Overrun,
}

/// One step of a fault schedule, at a millisecond instant.
#[derive(Debug, Clone)]
enum Fault {
    /// Crash a node, scheduled at the start of the run, and recover it
    /// `down` ms later.
    Crash { node: u32, down: u64 },
    /// Split off the nodes of the mask until the heal, `hold` ms later.
    Partition { mask: u32, hold: u64 },
    /// Lose deliveries with this probability for `hold` ms.
    Loss { p: f64, hold: u64 },
}

/// What an endpoint shows at an instant: when it heard each rank, whom
/// it suspects, its view.
type Sample = (SimTime, u32, Vec<SimTime>, u64, u64, Vec<NodeId>);

/// A run's samples, its network counters and its dispatch count.
type Outcome = (Vec<Sample>, [u64; 5], u64);

/// Run `n` hosts for 1.5 s under `faults` (each at its instant), with a
/// broadcast every 20 ms: every endpoint sampled at every millisecond,
/// then the network's counters and the kernel's dispatch count.
fn run(mode: Mode, n: u32, seed: u64, faults: &[(u64, Fault)]) -> Outcome {
    let cfg = GcsConfig::view_based_uniform();
    let mut engine = Engine::new(seed);
    let net = Network::new(NetConfig::default());
    if mode != Mode::Reference {
        net.attach(engine.watch());
    }
    let obs = Rc::new(RefCell::new(RunObservation::default()));
    let group: Vec<NodeId> = (0..n).map(NodeId).collect();
    let hosts: Vec<ActorId> = (0..n)
        .map(|i| {
            let node = NodeId(i);
            let disk = Rc::new(RefCell::new(Disk::paper_default()));
            let rng = StdRng::seed_from_u64(seed ^ u64::from(i));
            let endpoint = GcsEndpoint::new(
                cfg.clone(),
                node,
                group.clone(),
                net.clone(),
                Some(disk),
                rng,
            );
            let delay = SimDuration::from_millis(5);
            let host = GcsHost::new(node, endpoint, net.clone(), obs.clone(), delay);
            let id = engine.add_actor(Box::new(host));
            net.register(node, id);
            id
        })
        .collect();
    for &h in &hosts {
        engine.schedule(SimTime::ZERO, h, HostMsg::Init);
    }
    for k in 0..70 {
        let node = hosts[k % hosts.len()];
        engine.schedule_resilient(ms(20 * k as u64 + 5), node, HostMsg::Broadcast(k as u64));
    }
    let mut changes: Vec<(u64, Fault)> = Vec::new();
    for (at, fault) in faults {
        match *fault {
            Fault::Crash { node, down } => {
                let host = hosts[(node % n) as usize];
                engine.schedule_crash(ms(*at), host);
                engine.schedule_recover(ms(at + down), host);
                if mode == Mode::Overrun {
                    let beat = ms(at.next_multiple_of(10)) + SimDuration::from_micros(70);
                    for &peer in hosts.iter().filter(|&&p| p != host) {
                        engine.schedule(beat, peer, HostMsg::Heartbeat(NodeId(node % n)));
                    }
                }
            }
            Fault::Partition { hold, .. } | Fault::Loss { hold, .. } => {
                changes.push((*at, fault.clone()));
                changes.push((at + hold, Fault::Loss { p: -1.0, hold: 0 }));
            }
        }
    }
    let mut samples = Vec::new();
    for t in 1..=1_500 {
        engine.run_until(ms(t));
        for (_, fault) in changes.iter().filter(|(at, _)| *at == t) {
            match *fault {
                Fault::Partition { mask, .. } => {
                    let side: Vec<NodeId> =
                        (0..n).filter(|i| mask >> i & 1 == 1).map(NodeId).collect();
                    net.partition(&[&side]);
                }
                // The end of a partition or a burst: heal and no loss.
                Fault::Loss { p, .. } if p < 0.0 => {
                    net.heal();
                    net.set_loss_probability(0.0);
                }
                Fault::Loss { p, .. } => net.set_loss_probability(p),
                Fault::Crash { .. } => {}
            }
        }
        for (i, &h) in hosts.iter().enumerate() {
            if !engine.is_alive(h) {
                continue;
            }
            let e = engine.actor::<GcsHost>(h).endpoint();
            let view = e.view();
            samples.push((
                ms(t),
                i as u32,
                e.heard_by_rank(ms(t)),
                e.suspicion_mask(),
                view.id,
                view.members.clone(),
            ));
        }
    }
    let s = net.stats();
    let counters = [
        s.sent,
        s.transmissions,
        s.broadcasts,
        s.dropped_partition,
        s.dropped_loss,
    ];
    (samples, counters, engine.dispatched())
}

/// The first sample at which two runs part, if any.
fn first_difference(a: &Outcome, b: &Outcome) -> Option<String> {
    let at = a.0.iter().zip(&b.0).position(|(x, y)| x != y);
    match at {
        Some(i) => Some(format!("{:?}\n  vs {:?}", a.0[i], b.0[i])),
        None if a.0.len() != b.0.len() => Some("sample counts differ".to_string()),
        None if a.1 != b.1 => Some(format!("counters {:?} vs {:?}", a.1, b.1)),
        None => None,
    }
}

fn fault() -> impl Strategy<Value = (u64, Fault)> {
    let at = 50u64..1_200;
    let fault = prop_oneof![
        (0u32..5, 20u64..400).prop_map(|(node, down)| Fault::Crash { node, down }),
        (1u32..31, 20u64..300).prop_map(|(mask, hold)| Fault::Partition { mask, hold }),
        (0.05f64..0.5, 5u64..100).prop_map(|(p, hold)| Fault::Loss { p, hold }),
    ];
    (at, fault)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Beacons and parked ticks change nothing an endpoint sees, and
    /// nothing the network counts.
    #[test]
    fn beacons_are_heard_as_the_heartbeats_they_stand_for(
        seed in 0u64..1_000,
        five in any::<bool>(),
        faults in proptest::collection::vec(fault(), 0..4),
    ) {
        let n = if five { 5 } else { 3 };
        let reference = run(Mode::Reference, n, seed, &faults);
        let beacons = run(Mode::Beacons, n, seed, &faults);
        prop_assert_eq!(first_difference(&reference, &beacons), None);
    }
}

/// The steady state sends no heartbeat, yet is heard as if it did.
#[test]
fn a_quiet_cluster_beacons_and_parks() {
    let (reference, beacons) = (
        run(Mode::Reference, 5, 7, &[]),
        run(Mode::Beacons, 5, 7, &[]),
    );
    assert_eq!(first_difference(&reference, &beacons), None);
    assert!(reference.1[0] > 5 * 4 * 140, "heartbeats were charged");
    // 5 ticks and 20 heartbeats every 10 ms make 3 750 dispatches in
    // 1.5 s; parked, a tick and its beacons make none.
    let idle = reference.2 - beacons.2;
    assert!(idle > 3_700, "{idle} dispatches saved");
}

/// Negative control: a crashed sender heard for one beat past its crash —
/// what a beacon outliving it by a beat would make its peers hear — is
/// heard a beat too long, and suspected a beat late.
#[test]
fn a_beacon_that_outlives_its_sender_by_one_beat_is_caught() {
    let faults = [(400, Fault::Crash { node: 2, down: 300 })];
    let reference = run(Mode::Reference, 5, 7, &faults);
    assert_eq!(
        first_difference(&reference, &run(Mode::Beacons, 5, 7, &faults)),
        None
    );
    let overrun = run(Mode::Overrun, 5, 7, &faults);
    assert!(first_difference(&reference, &overrun).is_some());
}

/// A group restart keeps one heartbeat chain per host: once the
/// restarted group is quiet, each of 3 hosts beats to its 2 peers every
/// 10 ms — 300 heartbeat multicasts and 600 deliveries charged per
/// simulated second — and every tick parks again, so a quiet second
/// dispatches nothing.
#[test]
fn a_group_restart_keeps_one_parked_heartbeat_chain_per_host() {
    let mut cluster = Cluster::new(3, GcsConfig::view_based_uniform(), 11);
    let members: Box<[NodeId]> = (0..3).map(NodeId).collect();
    for &h in &cluster.hosts {
        let restart = HostMsg::RestartGroup(members.clone());
        cluster.engine.schedule(ms(500), h, restart);
    }
    cluster.engine.run_until(ms(1_000));
    let (before, dispatched) = (cluster.net.stats(), cluster.engine.dispatched());
    cluster.engine.run_until(ms(2_000));
    let after = cluster.net.stats();
    assert_eq!(
        after.broadcasts - before.broadcasts,
        300,
        "one chain per host"
    );
    assert_eq!(after.sent - before.sent, 600);
    assert_eq!(cluster.engine.dispatched(), dispatched, "the ticks park");
}
