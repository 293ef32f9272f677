//! The simulated LAN.
//!
//! Models the paper's Table 4 network: a 100 Mb/s LAN where a message or a
//! (hardware-multicast) broadcast costs 0.07 ms on the wire. The network is
//! a passive shared object — senders compute the delivery instant and
//! schedule the event through their [`Ctx`]; the kernel's incarnation check
//! makes messages to crashed nodes vanish, matching the crash model.
//!
//! Supports unicast, multicast and broadcast, network partitions (messages
//! across a partition are silently dropped), and optional probabilistic
//! fault injection: message loss, message duplication (an extra copy of a
//! delivery is scheduled), and bounded reordering (a delivery is deferred
//! by a random amount within [`NetConfig::reorder_window`], letting later
//! sends overtake it). Each cause keeps its own counter in [`NetStats`] so
//! scenario oracles can account for every perturbed delivery.

#![expect(
    clippy::indexing_slicing,
    reason = "actors/colour/domain are sized to n_nodes at construction and indexed by NodeId::index() of registered nodes (< n_nodes by registration)"
)]

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;

use groupsafe_sim::{ActorId, Ctx, SimDuration, Wrap};

use crate::node::NodeId;

/// Configuration of the simulated LAN.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Wire time per message or broadcast (Table 4: 0.07 ms).
    pub latency: SimDuration,
    /// Additional uniformly-distributed jitter upper bound (0 = none).
    pub jitter: SimDuration,
    /// Probability that any given point-to-point delivery is lost
    /// (0.0 = quasi-reliable channels, the paper's assumption).
    pub loss_probability: f64,
    /// Probability that a delivery is duplicated: an extra copy is
    /// scheduled, spread over [`NetConfig::reorder_window`] past the
    /// original (0.0 = never, the default).
    pub duplicate_probability: f64,
    /// Probability that a delivery is deferred by a uniform extra delay in
    /// `(0, reorder_window]`, so later sends can overtake it (bounded
    /// reordering; 0.0 = strictly FIFO per latency draw, the default).
    pub reorder_probability: f64,
    /// Upper bound of the extra delay used by reordering and by duplicate
    /// copies. Ignored (treated as one latency) when zero.
    pub reorder_window: SimDuration,
    /// Extra wire time charged per *additional* message packed into a
    /// batch frame (see [`Network::send_frame`]): a frame of `k`
    /// messages takes `latency + (k - 1) × frame_unit_cost` on the wire,
    /// so batching amortises the fixed per-transmission cost while still
    /// paying for the bytes it moves. Default: a fixed 7 µs — 10 % of
    /// the *default* 70 µs latency; it does not track `latency`
    /// overrides, so set both when modelling a different network.
    pub frame_unit_cost: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_micros(70),
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_window: SimDuration::ZERO,
            frame_unit_cost: SimDuration::from_micros(7),
        }
    }
}

/// CPU time a network operation costs the sending/receiving host
/// (Table 4: 0.07 ms). Charged by callers on their own CPU resource.
pub const NET_CPU: SimDuration = SimDuration::from_micros(70);

/// Delivery counters for the whole network.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Point-to-point deliveries scheduled. A batch frame counts as ONE
    /// delivery per receiver regardless of how many messages it packs.
    pub sent: u64,
    /// Physical wire transmissions: one per unicast attempt, and one per
    /// *distinct receiver domain* per multicast/broadcast — hardware
    /// multicast puts a single frame on a domain's address however many
    /// members listen, so `sent` (receiver-side deliveries) over-counts
    /// the wire by the fan-out factor. Counted whether or not individual
    /// receivers subsequently drop (the sender transmitted either way).
    pub transmissions: u64,
    /// Multicast/broadcast operations (each fans out into `sent` deliveries).
    pub broadcasts: u64,
    /// Batch-frame transmissions (subset of `sent`).
    pub frames: u64,
    /// Application messages carried inside batch frames.
    pub frame_msgs: u64,
    /// Deliveries dropped because sender and receiver were partitioned.
    pub dropped_partition: u64,
    /// Deliveries dropped by probabilistic loss.
    pub dropped_loss: u64,
    /// Extra copies injected by probabilistic duplication (each also
    /// counts in `sent`).
    pub duplicated: u64,
    /// Deliveries deferred by probabilistic reordering.
    pub reordered: u64,
}

/// A message as it arrives at a node: payload plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The sending node.
    pub from: NodeId,
    /// The message body.
    pub msg: M,
}

struct NetworkState {
    config: NetConfig,
    actors: Vec<Option<ActorId>>,
    /// Partition colouring: nodes can talk iff colours are equal.
    colour: Vec<u32>,
    stats: NetStats,
    /// Multicast-domain id per node (all nodes share domain 0 until
    /// [`Network::set_domains`] carves the node space up). In a sharded
    /// system each replica group and its clients form one domain, so
    /// per-group wire traffic can be accounted separately.
    domain: Vec<u32>,
    /// Per-domain delivery counters, indexed by domain id (sends are
    /// attributed to the *sender's* domain).
    domain_stats: Vec<NetStats>,
    /// Scratch for counting a multicast's distinct receiver domains
    /// without allocating: `domain_mark[d] == mark_epoch` means domain
    /// `d` was already counted for the multicast in progress.
    domain_mark: Vec<u64>,
    mark_epoch: u64,
    /// Scratch for the run of receivers a send is accumulating.
    run: Vec<ActorId>,
}

impl NetworkState {
    fn domain_of(&self, node: NodeId) -> usize {
        self.domain.get(node.index()).copied().unwrap_or(0) as usize
    }

    #[expect(
        clippy::expect_used,
        reason = "every NodeId is registered with the network during System construction before any message can name it; an unregistered node is a wiring bug"
    )]
    fn actor_of(&self, node: NodeId) -> ActorId {
        self.actors[node.index()].expect("unregistered node")
    }

    /// Tick counters in the global stats and in those of the sender's
    /// domain `d`.
    fn charge(&mut self, d: usize, f: impl Fn(&mut NetStats)) {
        f(&mut self.stats);
        if let Some(s) = self.domain_stats.get_mut(d) {
            f(s);
        }
    }

    /// Number of distinct receiver domains among `targets`: the wire
    /// transmissions of a multicast (hardware multicast reaches every
    /// listener of a domain's address with a single frame on the wire).
    fn distinct_domains(&mut self, targets: &[NodeId]) -> u64 {
        self.mark_epoch += 1;
        let mut n = 0;
        for &t in targets {
            let d = self.domain_of(t);
            if let Some(mark) = self.domain_mark.get_mut(d) {
                if *mark != self.mark_epoch {
                    *mark = self.mark_epoch;
                    n += 1;
                }
            }
        }
        n
    }

    /// Decide one receiver-side delivery: `None` if it is dropped, else
    /// its delay and, when it is duplicated, the delay of the extra copy.
    /// The RNG is drawn in a fixed order — loss, jitter, reorder (coin,
    /// then deferral), duplicate (coin, then deferral) — and each draw
    /// happens only when its knob is non-zero, so disabled features never
    /// touch the stream.
    /// `frame`: `Some(k)` for a k-message batch frame, whose wire time
    /// grows with its size: `latency + (k - 1) × frame_unit_cost`.
    fn plan_delivery<M>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        cfg: &NetConfig,
        d: usize,
        from: NodeId,
        to: NodeId,
        frame: Option<u64>,
    ) -> Option<(SimDuration, Option<SimDuration>)> {
        if self.colour[from.index()] != self.colour[to.index()] {
            self.charge(d, |st| st.dropped_partition += 1);
            return None;
        }
        if cfg.loss_probability > 0.0 && ctx.rng().random_bool(cfg.loss_probability) {
            self.charge(d, |st| st.dropped_loss += 1);
            return None;
        }
        let mut delay = cfg.latency;
        if !cfg.jitter.is_zero() {
            let extra = ctx.rng().random_range(0..=cfg.jitter.as_nanos());
            delay += SimDuration::from_nanos(extra);
        }
        if let Some(k) = frame {
            delay += cfg.frame_unit_cost * k.saturating_sub(1);
        }
        let reordered =
            cfg.reorder_probability > 0.0 && ctx.rng().random_bool(cfg.reorder_probability);
        if reordered {
            delay += window_extra(cfg, ctx);
        }
        let duplicated =
            cfg.duplicate_probability > 0.0 && ctx.rng().random_bool(cfg.duplicate_probability);
        // The copy is deferred within the reorder window past the
        // original's delay.
        let copy = duplicated.then(|| delay + window_extra(cfg, ctx));
        self.charge(d, |st| {
            st.sent += 1 + u64::from(duplicated);
            st.duplicated += u64::from(duplicated);
            st.reordered += u64::from(reordered);
            if let Some(k) = frame {
                st.frames += 1;
                st.frame_msgs += k;
            }
        });
        Some((delay, copy))
    }
}

/// Extra deferral inside the reorder window: a uniform draw in
/// `(0, reorder_window]`, or one base latency when the window is zero.
/// Only called once the feature's coin came up, so disabled runs never
/// touch the RNG here (their event streams stay bit-for-bit).
fn window_extra<M>(cfg: &NetConfig, ctx: &mut Ctx<'_, M>) -> SimDuration {
    if cfg.reorder_window.is_zero() {
        cfg.latency
    } else {
        SimDuration::from_nanos(ctx.rng().random_range(1..=cfg.reorder_window.as_nanos()))
    }
}

/// How a transmission reaches its receivers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cast {
    /// One receiver: one wire transmission.
    Unicast,
    /// Hardware multicast: one transmission per distinct receiver domain.
    Multicast,
    /// A multicast whose receivers may latch it (see
    /// [`Network::multicast_latched`]).
    Latched,
}

/// Cloneable handle to the shared network state.
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetworkState>>,
}

impl Network {
    /// Create a network with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        Network {
            inner: Rc::new(RefCell::new(NetworkState {
                config,
                actors: Vec::new(),
                colour: Vec::new(),
                stats: NetStats::default(),
                domain: Vec::new(),
                domain_stats: vec![NetStats::default()],
                domain_mark: vec![0],
                mark_epoch: 0,
                run: Vec::new(),
            })),
        }
    }

    /// Create a network with the paper's Table 4 parameters.
    pub fn paper_default() -> Self {
        Network::new(NetConfig::default())
    }

    /// Attach `actor` as the implementation of `node`. Nodes must be
    /// registered densely starting at 0.
    pub fn register(&self, node: NodeId, actor: ActorId) {
        let mut s = self.inner.borrow_mut();
        let idx = node.index();
        if s.actors.len() <= idx {
            s.actors.resize(idx + 1, None);
            s.colour.resize(idx + 1, 0);
            s.domain.resize(idx + 1, 0);
        }
        s.actors[idx] = Some(actor);
    }

    /// Carve the node space into multicast domains: `groups[d]` lists the
    /// nodes of domain `d`; unlisted nodes stay in domain 0. Wire traffic
    /// is attributed to the *sender's* domain in
    /// [`Network::domain_stats`]. Domains are an accounting and targeting
    /// overlay — they do not restrict connectivity (partitions do).
    pub fn set_domains(&self, groups: &[Vec<NodeId>]) {
        let mut s = self.inner.borrow_mut();
        for d in &mut s.domain {
            *d = 0;
        }
        for (d, group) in groups.iter().enumerate() {
            for node in group {
                let idx = node.index();
                if idx >= s.domain.len() {
                    s.domain.resize(idx + 1, 0);
                    s.colour.resize(idx + 1, 0);
                    s.actors.resize(idx + 1, None);
                }
                s.domain[idx] = d as u32;
            }
        }
        s.domain_stats = vec![NetStats::default(); groups.len().max(1)];
        s.domain_mark = vec![0; groups.len().max(1)];
    }

    /// Number of multicast domains (1 until [`Network::set_domains`]).
    pub fn n_domains(&self) -> usize {
        self.inner.borrow().domain_stats.len()
    }

    /// The nodes of domain `d`.
    pub fn domain_members(&self, d: u32) -> Vec<NodeId> {
        let s = self.inner.borrow();
        (0..s.domain.len() as u32)
            .map(NodeId)
            .filter(|n| s.domain[n.index()] == d)
            .collect()
    }

    /// The domain `node` belongs to.
    pub fn domain_of(&self, node: NodeId) -> u32 {
        self.inner.borrow().domain_of(node) as u32
    }

    /// Delivery counters attributed to senders of domain `d`.
    pub fn domain_stats(&self, d: u32) -> NetStats {
        self.inner
            .borrow()
            .domain_stats
            .get(d as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Multicast `msg` to every node of domain `d` (including the sender
    /// when it belongs to the domain). One hardware multicast on the
    /// domain's address: one broadcast counter tick.
    pub fn multicast_domain<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        d: u32,
        msg: T,
    ) {
        let targets = self.domain_members(d);
        self.multicast(ctx, from, &targets, msg);
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().actors.len()
    }

    /// All registered node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        let s = self.inner.borrow();
        (0..s.actors.len() as u32).map(NodeId).collect()
    }

    /// The actor implementing `node`.
    ///
    /// # Panics
    /// Panics if `node` was never registered.
    pub fn actor_of(&self, node: NodeId) -> ActorId {
        self.inner.borrow().actor_of(node)
    }

    /// The one path every send takes: account the wire (one transmission
    /// per unicast, one per distinct receiver domain per multicast), then
    /// decide one delivery per target under a single borrow of the shared
    /// state, reading the configuration once, and schedule them in
    /// *runs*: deliveries that follow one another in scheduling order and
    /// fall on the same instant become one kernel fan-out of one
    /// [`Incoming`], wrapped into the caller's message type `M`. On a
    /// plain network a multicast is a single run; a duplicate's extra
    /// copy, scheduled ahead of its original for a later instant, closes
    /// the run before it, and jitter or reordering leave runs of one. The
    /// last run takes `msg` by move. A [`Cast::Latched`] run is a latched
    /// fan-out at the sender's node index.
    fn transmit<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
        frame: Option<u64>,
        cast: Cast,
    ) {
        let mut s = self.inner.borrow_mut();
        let cfg = s.config.clone();
        let d = s.domain_of(from);
        let multicast = cast != Cast::Unicast;
        let wire = if multicast {
            s.distinct_domains(targets)
        } else {
            1
        };
        s.charge(d, |st| {
            st.broadcasts += u64::from(multicast);
            st.transmissions += wire;
        });
        let schedule = |ctx: &mut Ctx<'_, M>, run: &[ActorId], delay, msg| {
            let incoming = Incoming { from, msg };
            if cast == Cast::Latched {
                ctx.latch_shared(run, delay, incoming, from.0);
            } else {
                ctx.send_shared(run, delay, incoming);
            }
        };
        let mut run = std::mem::take(&mut s.run);
        let mut run_delay = SimDuration::ZERO;
        let mut deliver = |ctx: &mut Ctx<'_, M>, actor: ActorId, delay: SimDuration| {
            if delay != run_delay && !run.is_empty() {
                schedule(ctx, &run, run_delay, msg.clone());
                run.clear();
            }
            run_delay = delay;
            run.push(actor);
        };
        for &to in targets {
            if let Some((delay, copy)) = s.plan_delivery(ctx, &cfg, d, from, to, frame) {
                let actor = s.actor_of(to);
                if let Some(copy_delay) = copy {
                    deliver(ctx, actor, copy_delay);
                }
                deliver(ctx, actor, delay);
            }
        }
        schedule(ctx, &run, run_delay, msg);
        run.clear();
        s.run = run;
    }

    /// Send `msg` from `from` to `to`. The receiver gets an
    /// [`Incoming<T>`], as its message type `M`, after the wire latency.
    /// Messages to partitioned or crashed nodes are lost.
    pub fn send<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        to: NodeId,
        msg: T,
    ) {
        self.transmit(ctx, from, &[to], msg, None, Cast::Unicast);
    }

    /// Send `msg` — a batch frame packing `msgs_in_frame` application
    /// messages — from `from` to `to`. The frame is accounted as ONE
    /// transmission whose wire time grows with its size: `latency +
    /// (msgs_in_frame - 1) × frame_unit_cost` (plus jitter, if any).
    pub fn send_frame<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        to: NodeId,
        msg: T,
        msgs_in_frame: u64,
    ) {
        self.transmit(ctx, from, &[to], msg, Some(msgs_in_frame), Cast::Unicast);
    }

    /// Multicast a batch frame to every node in `targets` (one delivery
    /// per target, one broadcast counter tick, one wire transmission per
    /// distinct receiver domain).
    pub fn multicast_frame<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
        msgs_in_frame: u64,
    ) {
        self.transmit(
            ctx,
            from,
            targets,
            msg,
            Some(msgs_in_frame),
            Cast::Multicast,
        );
    }

    /// Multicast `msg` from `from` to every node in `targets` (the sender
    /// may include itself; self-delivery also pays the wire latency, which
    /// models the loopback through the network stack). Accounted as one
    /// wire transmission per distinct receiver domain.
    pub fn multicast<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
    ) {
        self.transmit(ctx, from, targets, msg, None, Cast::Multicast);
    }

    /// Multicast `msg` as [`Network::multicast`] does — same wire, same
    /// drops, same draws, same counters — as latched fan-outs at the
    /// sender's node index: a receiver that has opted in records the
    /// arrival instant in its latch cell `from.0` instead of being handed
    /// the message (see [`Ctx::latch_shared`]).
    pub fn multicast_latched<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
    ) {
        self.transmit(ctx, from, targets, msg, None, Cast::Latched);
    }

    /// Broadcast `msg` from `from` to every registered node (including the
    /// sender). One hardware multicast: one broadcast counter tick.
    pub fn broadcast<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        msg: T,
    ) {
        let targets = self.nodes();
        self.multicast(ctx, from, &targets, msg);
    }

    /// Split the network: nodes in the same group keep talking, messages
    /// across groups are dropped. Nodes absent from every group form an
    /// implicit final group.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let mut s = self.inner.borrow_mut();
        let spare = groups.len() as u32 + 1;
        for c in &mut s.colour {
            *c = spare;
        }
        for (i, group) in groups.iter().enumerate() {
            for node in group.iter() {
                s.colour[node.index()] = i as u32 + 1;
            }
        }
    }

    /// Heal all partitions.
    pub fn heal(&self) {
        let mut s = self.inner.borrow_mut();
        for c in &mut s.colour {
            *c = 0;
        }
    }

    /// True if `a` and `b` are currently in the same partition component.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        let s = self.inner.borrow();
        s.colour[a.index()] == s.colour[b.index()]
    }

    /// Set the probabilistic per-delivery loss rate.
    pub fn set_loss_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.inner.borrow_mut().config.loss_probability = p;
    }

    /// Set the probabilistic per-delivery duplication rate.
    pub fn set_duplicate_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.inner.borrow_mut().config.duplicate_probability = p;
    }

    /// Set the probabilistic reordering rate and the window bounding both
    /// reorder deferrals and duplicate-copy spread.
    pub fn set_reorder(&self, p: f64, window: SimDuration) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut s = self.inner.borrow_mut();
        s.config.reorder_probability = p;
        s.config.reorder_window = window;
    }

    /// Snapshot of delivery counters.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsafe_sim::{Actor, Engine, Payload, SimTime};

    struct Receiver {
        node: NodeId,
        net: Network,
        got: Vec<(NodeId, u32)>,
        echo: bool,
    }

    impl Actor for Receiver {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let inc = payload
                .downcast::<Incoming<u32>>()
                .expect("only u32 messages in this test");
            self.got.push((inc.from, inc.msg));
            if self.echo && inc.msg < 3 {
                let net = self.net.clone();
                net.send(ctx, self.node, inc.from, inc.msg + 1);
            }
        }
        fn name(&self) -> &str {
            "receiver"
        }
    }

    fn build(n: u32, echo: bool) -> (Engine, Network, Vec<ActorId>) {
        let mut eng = Engine::new(99);
        let net = Network::paper_default();
        let mut ids = Vec::new();
        for i in 0..n {
            let id = eng.add_actor(Box::new(Receiver {
                node: NodeId(i),
                net: net.clone(),
                got: Vec::new(),
                echo,
            }));
            net.register(NodeId(i), id);
            ids.push(id);
        }
        (eng, net, ids)
    }

    /// A bootstrap payload that makes node 0 broadcast `val`.
    struct Kick;
    struct Kicker {
        net: Network,
        val: u32,
    }
    impl Actor for Kicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if payload.downcast::<Kick>().is_ok() {
                let net = self.net.clone();
                net.broadcast(ctx, NodeId(0), self.val);
            }
        }
    }

    #[test]
    fn echo_chain_pays_latency_per_hop() {
        let (mut eng, net, ids) = build(2, true);
        // Broadcast 0; echoes bounce until the counter reaches 3, so the
        // longest chain is broadcast + 3 echo hops = 4 × 70 µs.
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 0,
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        let r1: &Receiver = eng.actor(ids[1]);
        assert_eq!(r1.got.first(), Some(&(NodeId(0), 0)));
        assert_eq!(eng.now(), SimTime::from_micros(70 * 4));
        assert_eq!(net.stats().broadcasts, 1);
    }

    #[test]
    fn broadcast_reaches_everyone_including_sender() {
        let (mut eng, net, ids) = build(3, false);
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 7,
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        for id in &ids {
            let r: &Receiver = eng.actor(*id);
            assert_eq!(r.got, vec![(NodeId(0), 7)]);
        }
        assert_eq!(net.stats().sent, 3);
    }

    #[test]
    fn partition_drops_cross_messages() {
        let (mut eng, net, ids) = build(3, false);
        net.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2)]]);
        assert!(net.connected(NodeId(0), NodeId(1)));
        assert!(!net.connected(NodeId(0), NodeId(2)));
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 7,
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        let r1: &Receiver = eng.actor(ids[1]);
        let r2: &Receiver = eng.actor(ids[2]);
        assert_eq!(r1.got.len(), 1);
        assert_eq!(r2.got.len(), 0);
        assert_eq!(net.stats().dropped_partition, 1);
        net.heal();
        assert!(net.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn crashed_node_loses_messages() {
        let (mut eng, net, ids) = build(2, false);
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 7,
        }));
        eng.schedule_crash(SimTime::ZERO, ids[1]);
        eng.schedule(SimTime::from_micros(1), kicker, Kick);
        eng.schedule_recover(SimTime::from_millis(1), ids[1]);
        eng.run_to_completion();
        // The message was in flight while node 1 was down: lost, and not
        // replayed after recovery.
        let r1: &Receiver = eng.actor(ids[1]);
        assert!(r1.got.is_empty());
    }

    #[test]
    fn probabilistic_loss_drops_some() {
        let (mut eng, net, ids) = build(2, false);
        net.set_loss_probability(0.5);
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 7,
        }));
        for i in 0..200 {
            eng.schedule(SimTime::from_micros(i * 10), kicker, Kick);
        }
        eng.run_to_completion();
        let r1: &Receiver = eng.actor(ids[1]);
        let delivered = r1.got.len();
        assert!(
            delivered > 50 && delivered < 150,
            "delivered {delivered}/200"
        );
        assert_eq!(
            net.stats().dropped_loss as usize + net.stats().sent as usize,
            400
        );
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_loss_probability_rejected() {
        let net = Network::paper_default();
        net.set_loss_probability(1.5);
    }

    /// A frame carrying `k` messages is one transmission with
    /// size-proportional latency, not `k` transmissions.
    struct FrameKicker {
        net: Network,
        msgs: u64,
    }
    impl Actor for FrameKicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if payload.downcast::<Kick>().is_ok() {
                let net = self.net.clone();
                net.send_frame(ctx, NodeId(0), NodeId(1), 5u32, self.msgs);
            }
        }
    }

    #[test]
    fn batch_frame_is_one_sized_transmission() {
        let (mut eng, net, ids) = build(2, false);
        let kicker = eng.add_actor(Box::new(FrameKicker {
            net: net.clone(),
            msgs: 11,
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        let r1: &Receiver = eng.actor(ids[1]);
        assert_eq!(r1.got, vec![(NodeId(0), 5)]);
        // 70 µs base + 10 extra messages × 7 µs.
        assert_eq!(eng.now(), SimTime::from_micros(70 + 10 * 7));
        let stats = net.stats();
        assert_eq!(stats.sent, 1, "one transmission");
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.frame_msgs, 11);
    }

    /// Wire accounting: a multicast is one physical transmission per
    /// distinct receiver domain (hardware multicast), not one per
    /// receiver — while `sent` keeps counting per-receiver deliveries.
    struct WireKicker {
        net: Network,
        targets: Vec<NodeId>,
    }
    impl Actor for WireKicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if payload.downcast::<Kick>().is_ok() {
                let net = self.net.clone();
                net.multicast(ctx, NodeId(0), &self.targets, 4u32);
            }
        }
    }

    #[test]
    fn multicast_counts_one_transmission_per_domain() {
        // All three receivers share domain 0 (no set_domains call): the
        // fan-out is 3 deliveries but a single frame on the wire.
        let (mut eng, net, ids) = build(3, false);
        let kicker = eng.add_actor(Box::new(WireKicker {
            net: net.clone(),
            targets: vec![NodeId(0), NodeId(1), NodeId(2)],
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        for id in &ids {
            let r: &Receiver = eng.actor(*id);
            assert_eq!(r.got, vec![(NodeId(0), 4)]);
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 3, "one delivery per receiver");
        assert_eq!(stats.transmissions, 1, "one frame on the shared wire");

        // Receivers split across two domains: two hardware multicasts.
        let (mut eng, net, _ids) = build(4, false);
        net.set_domains(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        let kicker = eng.add_actor(Box::new(WireKicker {
            net: net.clone(),
            targets: vec![NodeId(1), NodeId(2), NodeId(3)],
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        let stats = net.stats();
        assert_eq!(stats.sent, 3);
        assert_eq!(stats.transmissions, 2, "one per receiver domain");

        // Unicast sends stay one transmission each.
        let (mut eng, net, _ids) = build(2, true);
        let kicker = eng.add_actor(Box::new(Kicker {
            net: net.clone(),
            val: 0,
        }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        let stats = net.stats();
        // Broadcast (1 transmission, 2 deliveries); each delivery of a
        // value < 3 echoes a unicast, so 6 echo sends follow.
        assert_eq!(stats.sent, 8);
        assert_eq!(stats.transmissions, 7);
    }

    /// Opts in to latching on its first delivery and counts what it is
    /// still handed afterwards.
    struct Latcher {
        got: u32,
    }
    impl Actor for Latcher {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
            self.got += 1;
            ctx.set_latching(true);
        }
    }

    /// Node 0 multicasts to nodes 1 and 2 on every kick, latched or not.
    struct LatchKicker {
        net: Network,
        latched: bool,
    }
    impl Actor for LatchKicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
            let (net, to) = (self.net.clone(), [NodeId(1), NodeId(2)]);
            if self.latched {
                net.multicast_latched(ctx, NodeId(0), &to, 7u32);
            } else {
                net.multicast(ctx, NodeId(0), &to, 7u32);
            }
        }
    }

    #[test]
    fn a_latched_multicast_draws_drops_and_counts_like_a_multicast() {
        let run = |latched: bool| {
            let mut eng = Engine::new(5);
            let net = Network::paper_default();
            net.set_loss_probability(0.3);
            net.set_reorder(0.2, SimDuration::from_micros(50));
            let ids: Vec<ActorId> = (0..3)
                .map(|i| {
                    let id = eng.add_actor(Box::new(Latcher { got: 0 }));
                    net.register(NodeId(i), id);
                    id
                })
                .collect();
            let kicker = eng.add_actor(Box::new(LatchKicker {
                net: net.clone(),
                latched,
            }));
            for i in 0..100 {
                eng.schedule(SimTime::from_micros(i * 100), kicker, Kick);
            }
            eng.run_to_completion();
            let got: Vec<u32> = ids.iter().map(|&id| eng.actor::<Latcher>(id).got).collect();
            let s = net.stats();
            let counters = (s.sent, s.dropped_loss, s.reordered, s.transmissions);
            (eng.fingerprint(), eng.dispatched(), counters, got)
        };
        let (plain, latched) = (run(false), run(true));
        assert_eq!((plain.0, plain.1), (latched.0, latched.1));
        assert_eq!(plain.2, latched.2);
        assert!(plain.2 .1 > 0 && plain.2 .2 > 0, "loss and reordering drew");
        // Handed every delivery plainly; only the first one latched.
        assert!(plain.3[1] > 50);
        assert_eq!(latched.3, [0, 1, 1]);
    }

    /// A domain multicast reaches exactly the domain's members, and the
    /// traffic is attributed to the sender's domain.
    struct DomainKicker {
        net: Network,
    }
    impl Actor for DomainKicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if payload.downcast::<Kick>().is_ok() {
                let net = self.net.clone();
                net.multicast_domain(ctx, NodeId(0), 0, 9u32);
            }
        }
    }

    #[test]
    fn multicast_domains_target_and_account_per_group() {
        let (mut eng, net, ids) = build(4, false);
        net.set_domains(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        assert_eq!(net.n_domains(), 2);
        assert_eq!(net.domain_of(NodeId(1)), 0);
        assert_eq!(net.domain_of(NodeId(3)), 1);
        assert_eq!(net.domain_members(1), vec![NodeId(2), NodeId(3)]);
        let kicker = eng.add_actor(Box::new(DomainKicker { net: net.clone() }));
        eng.schedule(SimTime::ZERO, kicker, Kick);
        eng.run_to_completion();
        // Only domain 0's members received the multicast.
        let r1: &Receiver = eng.actor(ids[1]);
        let r2: &Receiver = eng.actor(ids[2]);
        assert_eq!(r1.got, vec![(NodeId(0), 9)]);
        assert!(r2.got.is_empty(), "other domains untouched");
        // And the wire traffic is attributed to the sender's domain.
        assert_eq!(net.domain_stats(0).sent, 2);
        assert_eq!(net.domain_stats(0).broadcasts, 1);
        assert_eq!(net.domain_stats(1).sent, 0);
    }
}
