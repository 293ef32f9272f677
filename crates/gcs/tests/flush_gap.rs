//! A pinned view-change schedule that once left a hole in the flush.
//!
//! Five view-based uniform hosts, a broadcast every 20 ms; the
//! sequencer (node 0) crashes at 943 ms for 184 ms, and a 0.39 loss
//! burst runs from 1 091 ms for 88 ms. The view change that readmits
//! node 0 flushes up to entry 56 while node 2 holds entries up to 54
//! only. When the flush's entries travelled apart from the new view,
//! the burst could drop them and deliver the view: node 2 then skipped
//! entries 55 and 56 (a debug build stopped on the flush gap). The new
//! view now carries them.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use groupsafe_gcs::harness::{GcsHost, HostMsg};
use groupsafe_gcs::{GcsConfig, GcsEndpoint, ProcessClass, RunObservation};
use groupsafe_net::{NetConfig, Network, NodeId};
use groupsafe_sim::{ActorId, Disk, Engine, SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

const SEED: u64 = 899;
const N: u32 = 5;

/// Run the schedule with the network attached to the kernel's watch
/// (heartbeats may be beacons) or not (every heartbeat sent); return
/// the run's observation and each host's application state.
fn run(attached: bool) -> (Rc<RefCell<RunObservation>>, Vec<Vec<u64>>) {
    let cfg = GcsConfig::view_based_uniform();
    let mut engine = Engine::new(SEED);
    let net = Network::new(NetConfig::default());
    if attached {
        net.attach(engine.watch());
    }
    let obs = Rc::new(RefCell::new(RunObservation::default()));
    let group: Vec<NodeId> = (0..N).map(NodeId).collect();
    let hosts: Vec<ActorId> = (0..N)
        .map(|i| {
            let node = NodeId(i);
            let disk = Rc::new(RefCell::new(Disk::paper_default()));
            let rng = StdRng::seed_from_u64(SEED ^ u64::from(i));
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
    engine.schedule_crash(ms(943), hosts[0]);
    engine.schedule_recover(ms(943 + 184), hosts[0]);
    engine.run_until(ms(1_091));
    net.set_loss_probability(0.39);
    engine.run_until(ms(1_091 + 88));
    net.set_loss_probability(0.0);
    engine.run_until(ms(4_000));
    let states = hosts
        .iter()
        .map(|&h| engine.actor::<GcsHost>(h).stable_values().to_vec())
        .collect();
    (obs, states)
}

/// Every member ends with the same application state, holding entry
/// 55 — delivered, or installed by a state transfer (nodes 2 and 4 lose
/// the new view itself in the burst, are told they left it, and rejoin)
/// — and the deliveries keep validity and total order.
#[test]
fn a_view_change_flush_reaches_every_member_that_installs_it() {
    for attached in [false, true] {
        let (obs, states) = run(attached);
        let mut obs = obs.borrow_mut();
        for i in 0..N {
            let class = if i == 0 {
                ProcessClass::Yellow
            } else {
                ProcessClass::Green
            };
            obs.classes.insert(NodeId(i), class);
        }
        let reference = &states[1];
        assert!(reference.len() >= 60, "attached={attached}: {reference:?}");
        for (i, state) in states.iter().enumerate() {
            assert_eq!(state, reference, "attached={attached}: node {i} diverged");
        }
        let delivered_55 = obs.deliveries[&NodeId(1)].iter().any(|d| d.seq == 55);
        assert!(
            delivered_55,
            "attached={attached}: node 1 delivered entry 55"
        );
        let mut violations = obs.check_validity();
        violations.extend(obs.check_total_order());
        assert!(violations.is_empty(), "attached={attached}: {violations:?}");
    }
}
