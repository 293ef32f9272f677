//! A minimal host application for exercising the group communication
//! endpoint: used by this crate's scenario tests, by benchmarks, and by
//! the Fig. 5 / Fig. 7 reproductions.
//!
//! The application is deliberately simple — it appends delivered `u64`
//! payloads to a state vector — but it faithfully models the paper's
//! crucial distinction between *delivery* and *processing*: a delivered
//! message is only applied to the (stable) application state after a
//! configurable processing delay, and a crash inside that window loses the
//! message at this replica unless the end-to-end primitive replays it.

#![expect(
    clippy::indexing_slicing,
    reason = "hosts is sized to the node count at construction and indexed by NodeId::index() of nodes this harness created"
)]

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use groupsafe_net::{Incoming, NetConfig, Network, NodeId};
use groupsafe_sim::{Actor, ActorId, Ctx, Disk, Engine, Fnv64, Message, SimDuration, SimTime};

use crate::config::GcsConfig;
use crate::endpoint::GcsEndpoint;
use crate::message::{GcsTimer, MsgId, Wire};
use crate::output::GcsOutput;
use crate::properties::RunObservation;

/// Application checkpoint used by state transfer in the harness.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppCheckpoint {
    /// Processed payloads in processing order.
    pub values: Vec<u64>,
    /// Identities of processed messages (testable-transaction dedup).
    pub processed_ids: BTreeSet<MsgId>,
    /// Sequence number of the last processed delivery.
    pub applied_seq: u64,
}

type HostEndpoint = GcsEndpoint<u64, AppCheckpoint>;
type HostWire = Wire<u64, AppCheckpoint>;
type HostOutput = GcsOutput<u64, AppCheckpoint>;

/// Everything a [`GcsHost`] receives: the harness engine's message type.
#[derive(Debug, Clone)]
pub enum HostMsg {
    /// Driver: start the endpoint.
    Init,
    /// Driver: A-broadcast this value.
    Broadcast(u64),
    /// Driver (dynamic model, total failure): form a fresh group of these
    /// members.
    RestartGroup(Box<[NodeId]>),
    /// Group-communication traffic other than heartbeats, one allocation
    /// shared by every receiver of a multicast.
    Wire(Rc<Incoming<HostWire>>),
    /// A failure-detector heartbeat from this node, carried without an
    /// allocation. Sent only while the endpoint does not hear beacons
    /// ([`GcsEndpoint::hears_beacons`]).
    Heartbeat(NodeId),
    /// A timer of the endpoint.
    Gcs(GcsTimer),
    /// Processing of the oldest delivery still in process finished.
    Processed,
}

impl Message for HostMsg {
    fn kind(&self) -> &'static str {
        match self {
            HostMsg::Init => "host.init",
            HostMsg::Broadcast(_) => "host.broadcast",
            HostMsg::RestartGroup(_) => "host.restart-group",
            HostMsg::Wire(inc) => inc.msg.kind(),
            HostMsg::Heartbeat(_) => "gcs.wire.heartbeat",
            HostMsg::Gcs(timer) => timer.kind(),
            HostMsg::Processed => "host.processed",
        }
    }
}

impl From<Incoming<HostWire>> for HostMsg {
    fn from(inc: Incoming<HostWire>) -> Self {
        if let Wire::Heartbeat = inc.msg {
            HostMsg::Heartbeat(inc.from)
        } else {
            HostMsg::Wire(Rc::new(inc))
        }
    }
}

impl From<GcsTimer> for HostMsg {
    fn from(timer: GcsTimer) -> Self {
        HostMsg::Gcs(timer)
    }
}

/// Host actor embedding a [`GcsEndpoint`] and the toy application.
pub struct GcsHost {
    node: NodeId,
    endpoint: HostEndpoint,
    net: Network,
    obs: Rc<RefCell<RunObservation>>,
    /// Time between `A-deliver` and the application finishing processing.
    process_delay: SimDuration,

    // Volatile application state.
    volatile_seen: Vec<u64>,
    /// Deliveries in process, oldest first: `(seq, id, value)`. Every
    /// delivery takes the same `process_delay`, so they finish in the
    /// order they were delivered, one [`HostMsg::Processed`] each.
    in_process: VecDeque<(u64, MsgId, u64)>,

    // Stable application state (the application's own "disk").
    stable_values: Vec<u64>,
    processed_ids: BTreeSet<MsgId>,
    applied_seq: u64,
}

impl GcsHost {
    /// Create a host; `process_delay` models the §3 window between
    /// delivery and successful delivery.
    pub fn new(
        node: NodeId,
        endpoint: HostEndpoint,
        net: Network,
        obs: Rc<RefCell<RunObservation>>,
        process_delay: SimDuration,
    ) -> Self {
        GcsHost {
            node,
            endpoint,
            net,
            obs,
            process_delay,
            volatile_seen: Vec::new(),
            in_process: VecDeque::new(),
            stable_values: Vec::new(),
            processed_ids: BTreeSet::new(),
            applied_seq: 0,
        }
    }

    /// The application's stable (processed) state.
    pub fn stable_values(&self) -> &[u64] {
        &self.stable_values
    }

    /// Read access to the embedded endpoint.
    pub fn endpoint(&self) -> &HostEndpoint {
        &self.endpoint
    }

    fn handle_outputs(&mut self, ctx: &mut Ctx<'_, HostMsg>, outputs: Vec<HostOutput>) {
        for o in outputs {
            match o {
                GcsOutput::Deliver {
                    seq, id, payload, ..
                } => {
                    self.volatile_seen.push(payload);
                    let now = ctx.now();
                    self.obs
                        .borrow_mut()
                        .record_delivery(self.node, seq, id, false, now);
                    self.in_process.push_back((seq, id, payload));
                    ctx.timer(self.process_delay, HostMsg::Processed);
                }
                GcsOutput::CheckpointRequest { joiner, generation } => {
                    let ckpt = AppCheckpoint {
                        values: self.stable_values.clone(),
                        processed_ids: self.processed_ids.clone(),
                        applied_seq: self.applied_seq,
                    };
                    let applied = self.applied_seq;
                    self.endpoint
                        .checkpoint_ready(ctx, joiner, generation, ckpt, applied);
                }
                GcsOutput::InstallState { state, applied_seq } => {
                    self.stable_values = state.values;
                    self.processed_ids = state.processed_ids;
                    self.applied_seq = applied_seq.max(state.applied_seq);
                    self.volatile_seen.clear();
                }
                GcsOutput::ViewInstalled { .. }
                | GcsOutput::Joined { .. }
                | GcsOutput::GroupFailed => {}
            }
        }
    }

    /// The oldest delivery in process finished: apply it to the stable
    /// state, at most once per message (testable transactions).
    fn processed(&mut self) {
        let Some((seq, id, value)) = self.in_process.pop_front() else {
            return;
        };
        if self.processed_ids.insert(id) {
            self.stable_values.push(value);
            self.applied_seq = self.applied_seq.max(seq);
            self.obs.borrow_mut().mark_processed(self.node, id);
        }
        self.endpoint.app_ack(seq);
    }
}

impl Actor<HostMsg> for GcsHost {
    fn on_event(&mut self, ctx: &mut Ctx<'_, HostMsg>, msg: HostMsg) {
        let mut outputs = Vec::new();
        match msg {
            HostMsg::Init => self.endpoint.start(ctx),
            HostMsg::Broadcast(value) => {
                let id = self.endpoint.broadcast(ctx, value);
                self.obs.borrow_mut().broadcast.insert(id);
            }
            HostMsg::RestartGroup(members) => {
                self.endpoint.restart_group(ctx, members.into_vec(), 0);
                // Application-level local recovery: volatile state is
                // rebuilt from the stable state.
                self.volatile_seen = self.stable_values.clone();
            }
            HostMsg::Wire(inc) => {
                self.endpoint.on_net(ctx, inc.from, &inc.msg, &mut outputs);
                self.handle_outputs(ctx, outputs);
            }
            HostMsg::Heartbeat(from) => {
                self.endpoint
                    .on_net(ctx, from, &Wire::Heartbeat, &mut outputs);
                self.handle_outputs(ctx, outputs);
            }
            HostMsg::Gcs(timer) => {
                self.endpoint.on_timer(ctx, timer, &mut outputs);
                self.handle_outputs(ctx, outputs);
            }
            HostMsg::Processed => self.processed(),
        }
        self.endpoint.publish_beacons(ctx, true);
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_, HostMsg>) {
        self.endpoint.on_crash();
        self.volatile_seen.clear();
        self.in_process.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, HostMsg>) {
        let mut outputs = Vec::new();
        self.endpoint.on_recover(ctx, &mut outputs);
        self.volatile_seen = self.stable_values.clone();
        self.handle_outputs(ctx, outputs);
        self.endpoint.publish_beacons(ctx, true);
    }

    fn name(&self) -> &str {
        "gcs-host"
    }
}

/// A fully wired group for scenario tests and benches.
pub struct Cluster {
    /// The simulation engine.
    pub engine: Engine<HostMsg>,
    /// The shared network.
    pub net: Network,
    /// Host actor ids, indexed by node.
    pub hosts: Vec<ActorId>,
    /// Shared observation for the property checkers.
    pub obs: Rc<RefCell<RunObservation>>,
}

impl Cluster {
    /// Build `n` hosts with the given GC configuration. Each node gets its
    /// own simulated log disk. All endpoints are started at t = 0.
    pub fn new(n: u32, cfg: GcsConfig, seed: u64) -> Self {
        Self::with_process_delay(n, cfg, seed, SimDuration::from_millis(5))
    }

    /// As [`Cluster::new`] with an explicit delivery→processing delay.
    pub fn with_process_delay(
        n: u32,
        cfg: GcsConfig,
        seed: u64,
        process_delay: SimDuration,
    ) -> Self {
        let mut engine = Engine::new(seed);
        let net = Network::new(NetConfig::default());
        net.attach(engine.watch());
        let obs = Rc::new(RefCell::new(RunObservation::default()));
        let group: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut hosts = Vec::with_capacity(n as usize);
        for i in 0..n {
            let node = NodeId(i);
            let disk = Rc::new(RefCell::new(Disk::paper_default()));
            let endpoint = HostEndpoint::new(
                cfg.clone(),
                node,
                group.clone(),
                net.clone(),
                Some(disk),
                StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))),
            );
            let host = GcsHost::new(node, endpoint, net.clone(), obs.clone(), process_delay);
            let id = engine.add_actor(Box::new(host));
            net.register(node, id);
            hosts.push(id);
        }
        for &h in &hosts {
            engine.schedule(SimTime::ZERO, h, HostMsg::Init);
        }
        Cluster {
            engine,
            net,
            hosts,
            obs,
        }
    }

    /// Schedule a broadcast of `value` from `node` at `at`. Delivered as
    /// long as the node is up at `at` (scripted scenarios inject work
    /// after planned recoveries).
    pub fn broadcast_at(&mut self, at: SimTime, node: NodeId, value: u64) {
        let host = self.hosts[node.index()];
        self.engine
            .schedule_resilient(at, host, HostMsg::Broadcast(value));
    }

    /// The stable application state of `node`.
    pub fn stable_values(&self, node: NodeId) -> Vec<u64> {
        let host: &GcsHost = self.engine.actor(self.hosts[node.index()]);
        host.stable_values().to_vec()
    }

    /// Read access to `node`'s endpoint (stats, accumulator inspection).
    pub fn endpoint(&self, node: NodeId) -> &HostEndpoint {
        let host: &GcsHost = self.engine.actor(self.hosts[node.index()]);
        host.endpoint()
    }

    /// A 64-bit FNV-1a digest of the run's group-safety outcome: for
    /// every node, the final *processed* payload sequence. Two runs that
    /// hand the application the same histories — whatever the framing on
    /// the wire (batched or not) — produce the same fingerprint; any
    /// reordering, loss or duplication diverges it.
    #[deny(clippy::float_arithmetic)]
    pub fn group_safety_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for i in 0..self.hosts.len() as u32 {
            let values = self.stable_values(NodeId(i));
            h.mix(0x6e6f_6465 ^ u64::from(i));
            h.mix(values.len() as u64);
            for v in values {
                h.mix(v);
            }
        }
        h.finish()
    }
}

// The `net` field is kept so drivers can partition/heal mid-run even
// though the harness itself only reads it during construction.
impl GcsHost {
    /// The network handle (drivers occasionally need it).
    pub fn network(&self) -> &Network {
        &self.net
    }
}
