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
//!
//! # Beacons
//!
//! A failure-detector heartbeat ([`Network::beat`]) to a receiver that
//! could learn nothing from it but when it was sent need not travel. A
//! link is *quiet* when its receiver says so ([`Network::set_quiet`]),
//! both ends share a partition colour and no loss, duplication or
//! reordering is configured; on a quiet link a heartbeat is a
//! *beacon*: charged to [`NetStats`] exactly as the multicast it belongs
//! to, but made into no event. The receiver works out when it last heard
//! the sender from the sender's beat grid ([`Network::heard`]). A sender
//! whose every link is quiet parks its tick ([`Network::park`], with
//! [`Ctx::park`]): its beats then follow its grid virtually, counted when
//! [`Network::stats`] is read. Whatever ends a beacon — the receiver opts
//! out, a partition, a fault burst, a crash ([`Network::silence`]) —
//! wakes the parked ticks it touches through the kernel's [`Watch`], and
//! a beat already in flight to a receiver that opts out arrives as a
//! plain delivery.

#![expect(
    clippy::indexing_slicing,
    reason = "actors/colour/domain are sized to n_nodes at construction and indexed by NodeId::index() of registered nodes (< n_nodes by registration)"
)]

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;

use groupsafe_sim::{ActorId, Ctx, SimDuration, SimTime, Watch, Wrap};

use crate::node::NodeId;

/// Configuration of the simulated LAN.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Wire time per message or broadcast (Table 4: 0.07 ms).
    pub latency: SimDuration,
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

/// The beacon run from one sender to one receiver: the sender's
/// heartbeats to it at `first + k × period` for `k < beats`, or, while
/// the run is `open` — its sender's tick parked — through the tick's
/// last firing. `settled` is when the last beat of the runs before it
/// arrived.
#[derive(Debug, Clone, Copy)]
struct Run {
    from: NodeId,
    first: SimTime,
    beats: u64,
    open: bool,
    period: SimDuration,
    settled: SimTime,
}

impl Run {
    /// The instant of its last beat, if any; `fired` is when its
    /// sender's tick last fired.
    fn last(&self, fired: SimTime) -> Option<SimTime> {
        if self.open {
            return Some(fired);
        }
        let k = self.beats.checked_sub(1)?;
        Some(self.first + self.period * k)
    }
}

/// A sender whose tick is parked: it beats to `targets` whenever its
/// tick fires, at `at + k × period` for `k ≥ 1`, each beat `wire`
/// transmissions and one delivery per target.
#[derive(Debug)]
struct ParkedBeat {
    node: NodeId,
    actor: ActorId,
    at: SimTime,
    period: SimDuration,
    targets: Vec<NodeId>,
    wire: u64,
}

impl ParkedBeat {
    /// The beats sent when its tick last fired at `fired`.
    fn beats(&self, fired: SimTime) -> u64 {
        fired.since(self.at).as_nanos() / self.period.as_nanos().max(1)
    }

    /// Charge `n` of its beats to `st`.
    fn charge(&self, st: &mut NetStats, n: u64) {
        st.broadcasts += n;
        st.transmissions += n * self.wire;
        st.sent += n * self.targets.len() as u64;
    }
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
    /// The kernel's watch, once [`Network::attach`]ed: without it no
    /// link is quiet.
    watch: Option<Rc<Watch>>,
    /// Per node: heartbeats to it may be beacons ([`Network::set_quiet`]).
    quiet: Vec<bool>,
    /// Per receiving node: its beacon runs, one per sender.
    runs: Vec<Vec<Run>>,
    /// The senders whose tick is parked.
    parked: Vec<ParkedBeat>,
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

    /// When the tick of `actor` last fired, parked.
    fn fired(&self, actor: ActorId) -> SimTime {
        self.watch
            .as_ref()
            .map_or(SimTime::ZERO, |w| w.fired(actor))
    }

    /// A fault now perturbs deliveries when `faulty`: no link is quiet.
    fn wake_all_if(&mut self, faulty: bool) {
        if faulty {
            self.wake(|_, _| true);
        }
    }

    /// True when a heartbeat from `from` to `to` may be a beacon.
    fn quiet_link(&self, from: NodeId, to: NodeId) -> bool {
        let cfg = &self.config;
        self.watch.is_some()
            && self.quiet[to.index()]
            && self.colour[from.index()] == self.colour[to.index()]
            && cfg.loss_probability <= 0.0
            && cfg.duplicate_probability <= 0.0
            && cfg.reorder_probability <= 0.0
    }

    /// A beacon from `from` to `to` at `now`, one `period` of the
    /// sender's grid after its last beat or starting a run.
    fn extend_run(&mut self, from: NodeId, to: NodeId, now: SimTime, period: SimDuration) {
        let latency = self.config.latency;
        let runs = &mut self.runs[to.index()];
        let Some(run) = runs.iter_mut().find(|r| r.from == from) else {
            runs.push(Run {
                from,
                first: now,
                beats: 1,
                open: false,
                period,
                settled: SimTime::ZERO,
            });
            return;
        };
        debug_assert!(!run.open, "a parked sender beats");
        if run.period == period && run.last(now).is_some_and(|l| l + period == now) {
            run.beats += 1;
        } else {
            let settled = run.last(now).map_or(run.settled, |l| l + latency);
            *run = Run {
                from,
                first: now,
                beats: 1,
                open: false,
                period,
                settled,
            };
        }
    }

    /// Wake every parked sender `woken` picks: charge the beats its tick
    /// sent, close its runs at the last of them and name its actor to
    /// the kernel, which hands it its tick at the next firing.
    fn wake(&mut self, woken: impl Fn(&ParkedBeat, &[u32]) -> bool) {
        let colour = &self.colour;
        let (woken, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|p| woken(p, colour));
        self.parked = kept;
        for p in woken {
            self.unpark(&p);
            if let Some(watch) = &self.watch {
                watch.wake(p.actor);
            }
        }
    }

    /// Charge the beats parked `p` sent and close its runs at the last
    /// of them.
    fn unpark(&mut self, p: &ParkedBeat) {
        let until = self.fired(p.actor);
        let n = p.beats(until);
        let d = self.domain_of(p.node);
        self.charge(d, |st| p.charge(st, n));
        for &to in &p.targets {
            let runs = &mut self.runs[to.index()];
            if let Some(run) = runs.iter_mut().find(|r| r.from == p.node && r.open) {
                run.open = false;
                run.beats = until.since(run.first).as_nanos() / run.period.as_nanos().max(1) + 1;
            }
        }
    }

    /// Decide one receiver-side delivery: `None` if it is dropped, else
    /// its delay and, when it is duplicated, the delay of the extra copy.
    /// The RNG is drawn in a fixed order — loss, reorder (coin,
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
                watch: None,
                quiet: Vec::new(),
                runs: Vec::new(),
                parked: Vec::new(),
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
        let n = s.actors.len();
        s.quiet.resize(n, false);
        s.runs.resize(n, Vec::new());
        s.actors[idx] = Some(actor);
    }

    /// Keep time by the kernel of `watch`: the heartbeats of
    /// [`Network::beat`] may then be beacons. A network never attached
    /// sends every heartbeat.
    pub fn attach(&self, watch: Rc<Watch>) {
        self.inner.borrow_mut().watch = Some(watch);
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
                    s.quiet.resize(idx + 1, false);
                    s.runs.resize(idx + 1, Vec::new());
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

    /// Delivery counters attributed to senders of domain `d`, beats of
    /// parked ticks included.
    pub fn domain_stats(&self, d: u32) -> NetStats {
        let s = self.inner.borrow();
        let mut stats = s.domain_stats.get(d as usize).copied().unwrap_or_default();
        for p in s
            .parked
            .iter()
            .filter(|p| s.domain_of(p.node) == d as usize)
        {
            p.charge(&mut stats, p.beats(s.fired(p.actor)));
        }
        stats
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
    /// the run before it, and reordering leaves runs of one. The
    /// last run takes `msg` by move. A target `beacon` takes is not sent
    /// to at all.
    #[expect(
        clippy::too_many_arguments,
        reason = "the one path every send takes: each argument is one of the sends' differences"
    )]
    fn transmit<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
        frame: Option<u64>,
        cast: Cast,
        mut beacon: impl FnMut(&mut NetworkState, NodeId) -> bool,
    ) {
        let mut s = self.inner.borrow_mut();
        let cfg = s.config.clone();
        let d = s.domain_of(from);
        let multicast = cast == Cast::Multicast;
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
            ctx.send_shared(run, delay, Incoming { from, msg });
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
            if beacon(&mut s, to) {
                continue;
            }
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
        self.transmit(ctx, from, &[to], msg, None, Cast::Unicast, |_, _| false);
    }

    /// Send `msg` — a batch frame packing `msgs_in_frame` application
    /// messages — from `from` to `to`. The frame is accounted as ONE
    /// transmission whose wire time grows with its size: `latency +
    /// (msgs_in_frame - 1) × frame_unit_cost`.
    pub fn send_frame<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        to: NodeId,
        msg: T,
        msgs_in_frame: u64,
    ) {
        let frame = Some(msgs_in_frame);
        self.transmit(ctx, from, &[to], msg, frame, Cast::Unicast, |_, _| false);
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
            |_, _| false,
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
        self.transmit(ctx, from, targets, msg, None, Cast::Multicast, |_, _| false);
    }

    /// Multicast the heartbeat `msg` of a tick of period `period`, as
    /// [`Network::multicast`] does — same wire, same counters — except
    /// that a target on a quiet link gets a beacon (see the [module
    /// docs](self)). True when every target got one and the sender is
    /// quiet itself: it may [`Network::park`] its tick. A sender beats
    /// from one tick chain, whose grid its beacons follow.
    pub fn beat<T: Clone, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        targets: &[NodeId],
        msg: T,
        period: SimDuration,
    ) -> bool {
        let now = ctx.now();
        let mut all = true;
        let beacon = |s: &mut NetworkState, to: NodeId| {
            let quiet = s.quiet_link(from, to);
            if quiet {
                let d = s.domain_of(from);
                s.charge(d, |st| st.sent += 1);
                s.extend_run(from, to, now, period);
            }
            all &= quiet;
            quiet
        };
        self.transmit(ctx, from, targets, msg, None, Cast::Multicast, beacon);
        all && self.inner.borrow().quiet[from.index()]
    }

    /// Park the tick of `from`, whose last beat to `targets` was just
    /// sent at `now`, every one a beacon ([`Network::beat`] said so): its
    /// beats follow the tick's firings, `period` apart, until something
    /// wakes it. The caller parks the tick itself ([`Ctx::park`]).
    pub fn park(&self, now: SimTime, from: NodeId, targets: &[NodeId], period: SimDuration) {
        let mut s = self.inner.borrow_mut();
        let actor = s.actor_of(from);
        debug_assert!(s.parked.iter().all(|p| p.node != from), "parked twice");
        let wire = s.distinct_domains(targets);
        for &to in targets {
            let runs = &mut s.runs[to.index()];
            if let Some(run) = runs.iter_mut().find(|r| r.from == from) {
                run.open = true;
            }
        }
        s.parked.push(ParkedBeat {
            node: from,
            actor,
            at: now,
            period,
            targets: targets.to_vec(),
            wire,
        });
    }

    /// When `to` last heard a beacon from `from` arrive, by `now`
    /// (`SimTime::ZERO`: never since `to` last crashed).
    pub fn heard(&self, from: NodeId, to: NodeId, now: SimTime) -> SimTime {
        let s = self.inner.borrow();
        let Some(run) = s
            .runs
            .get(to.index())
            .and_then(|r| r.iter().find(|r| r.from == from))
        else {
            return SimTime::ZERO;
        };
        let latency = s.config.latency;
        let Some(last) = run.last(s.fired(s.actor_of(from))) else {
            return run.settled;
        };
        if now.as_nanos() < run.first.as_nanos() + latency.as_nanos() {
            return run.settled;
        }
        let arrived = SimTime::from_nanos(now.as_nanos() - latency.as_nanos()).min(last);
        let k = arrived.since(run.first).as_nanos() / run.period.as_nanos().max(1);
        run.first + run.period * k + latency
    }

    /// Publish whether heartbeats to `node` may be beacons: only while a
    /// heartbeat could tell it nothing but when it was sent. A node
    /// republishes this after every event it handles. When it stops, the
    /// parked ticks that beat to it and its own wake, and each beacon
    /// still in flight to it arrives as a plain delivery of `beat()`.
    pub fn set_quiet<T, M: Wrap<Incoming<T>>>(
        &self,
        ctx: &mut Ctx<'_, M>,
        node: NodeId,
        on: bool,
        beat: impl Fn() -> T,
    ) {
        let mut s = self.inner.borrow_mut();
        let idx = node.index();
        if s.watch.is_none() || s.quiet[idx] == on {
            return;
        }
        s.quiet[idx] = on;
        if on {
            return;
        }
        let now = ctx.now();
        s.wake(|p, _| p.node == node || p.targets.contains(&node));
        let (latency, actor) = (s.config.latency, s.actor_of(node));
        for run in &mut s.runs[idx] {
            if let Some(last) = run.last(now).filter(|&l| l + latency > now) {
                run.beats -= 1;
                let incoming = Incoming {
                    from: run.from,
                    msg: beat(),
                };
                ctx.send(actor, (last + latency) - now, incoming);
            }
        }
    }

    /// `node` crashed: heartbeats to it are sent again, its runs as a
    /// receiver are forgotten, the parked ticks that beat to it wake,
    /// and its own parked tick, which the crash dropped, last beat when
    /// it last fired.
    pub fn silence(&self, node: NodeId) {
        let mut s = self.inner.borrow_mut();
        let idx = node.index();
        if s.watch.is_none() {
            return;
        }
        s.quiet[idx] = false;
        if let Some(i) = s.parked.iter().position(|p| p.node == node) {
            let p = s.parked.remove(i);
            s.unpark(&p);
        }
        s.runs[idx].clear();
        s.wake(|p, _| p.targets.contains(&node));
    }

    /// Wake the parked tick of `node`, if any.
    pub fn wake(&self, node: NodeId) {
        self.inner.borrow_mut().wake(|p, _| p.node == node);
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
        s.wake(|p, colour| {
            let own = colour[p.node.index()];
            p.targets.iter().any(|t| colour[t.index()] != own)
        });
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
        let mut s = self.inner.borrow_mut();
        s.config.loss_probability = p;
        s.wake_all_if(p > 0.0);
    }

    /// Set the probabilistic per-delivery duplication rate.
    pub fn set_duplicate_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut s = self.inner.borrow_mut();
        s.config.duplicate_probability = p;
        s.wake_all_if(p > 0.0);
    }

    /// Set the probabilistic reordering rate and the window bounding both
    /// reorder deferrals and duplicate-copy spread.
    pub fn set_reorder(&self, p: f64, window: SimDuration) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut s = self.inner.borrow_mut();
        s.config.reorder_probability = p;
        s.config.reorder_window = window;
        s.wake_all_if(p > 0.0);
    }

    /// Snapshot of delivery counters, beats of parked ticks included.
    pub fn stats(&self) -> NetStats {
        let s = self.inner.borrow();
        let mut stats = s.stats;
        for p in &s.parked {
            p.charge(&mut stats, p.beats(s.fired(p.actor)));
        }
        stats
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

    /// Publishes its quiet flag — the message it is handed, a `bool`, or
    /// `true` for a heartbeat — after every event, and records the
    /// heartbeats it is handed.
    struct Listener {
        node: NodeId,
        net: Network,
        quiet: bool,
        got: Vec<SimTime>,
    }
    impl Actor for Listener {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            match payload.downcast::<bool>() {
                Ok(quiet) => self.quiet = *quiet,
                Err(_) => self.got.push(ctx.now()),
            }
            let net = self.net.clone();
            net.set_quiet(ctx, self.node, self.quiet, || 7u32);
        }
    }

    /// Node 0's heartbeat tick: beats to nodes 1 and 2 on every kick.
    struct Beater {
        net: Network,
        parkable: Vec<bool>,
    }
    impl Actor for Beater {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
            let (net, to) = (self.net.clone(), [NodeId(1), NodeId(2)]);
            let period = SimDuration::from_millis(10);
            self.parkable
                .push(net.beat(ctx, NodeId(0), &to, 7u32, period));
        }
    }

    #[test]
    fn a_beacon_is_accounted_but_not_sent_and_one_in_flight_arrives() {
        let us = SimTime::from_micros;
        let run = |attach: bool| {
            let mut eng = Engine::new(5);
            let net = Network::paper_default();
            if attach {
                net.attach(eng.watch());
            }
            let beater = eng.add_actor(Box::new(Beater {
                net: net.clone(),
                parkable: Vec::new(),
            }));
            net.register(NodeId(0), beater);
            let ids: Vec<ActorId> = (1..3)
                .map(|i| {
                    let id = eng.add_actor(Box::new(Listener {
                        node: NodeId(i),
                        net: net.clone(),
                        quiet: false,
                        got: Vec::new(),
                    }));
                    net.register(NodeId(i), id);
                    id
                })
                .collect();
            // Node 1 is quiet from the start, node 2 never; node 1 opts
            // out 30 µs after the second beat, which is then in flight.
            eng.schedule(SimTime::ZERO, ids[0], true);
            eng.schedule(SimTime::ZERO, ids[1], false);
            eng.schedule(us(1_000), beater, Kick);
            eng.run_until(us(2_000));
            let heard = (net.heard(NodeId(0), NodeId(1), us(2_000)), eng.dispatched());
            eng.schedule(us(3_000), beater, Kick);
            eng.schedule(us(3_030), ids[0], false);
            eng.run_until(us(4_000));
            let got: Vec<Vec<SimTime>> = ids
                .iter()
                .map(|&id| eng.actor::<Listener>(id).got.clone())
                .collect();
            let s = net.stats();
            let counters = (s.sent, s.transmissions, s.broadcasts);
            let parkable = eng.actor::<Beater>(beater).parkable.clone();
            (heard, got, counters, parkable)
        };
        let (plain, beacons) = (run(false), run(true));
        // The same traffic is charged either way.
        assert_eq!(plain.2, (4, 2, 2));
        assert_eq!(beacons.2, plain.2);
        // Unattached, every heartbeat is sent.
        assert_eq!(plain.0, (SimTime::ZERO, 5));
        assert_eq!(
            plain.1,
            [vec![us(1_070), us(3_070)], vec![us(1_070), us(3_070)]]
        );
        // Attached, node 1's first heartbeat is a beacon, heard on the
        // sender's grid; its second, in flight when it opts out, arrives.
        assert_eq!(beacons.0, (us(1_070), 4));
        assert_eq!(
            beacons.1,
            plain.1[..]
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    if i == 0 {
                        vec![us(3_070)]
                    } else {
                        g.clone()
                    }
                })
                .collect::<Vec<_>>()
        );
        // Node 2 never beacons: the tick may not park.
        assert_eq!(beacons.3, [false, false]);
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
