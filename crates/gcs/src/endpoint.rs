//! The group communication endpoint: a fixed-sequencer atomic broadcast
//! with optional uniformity, view-based membership (dynamic crash
//! no-recovery model), persistent logging (static crash-recovery model)
//! and the paper's end-to-end extension.
//!
//! The endpoint is a *passive state machine* embedded in a host actor (a
//! replicated-database server, or the test harness). The host feeds it
//! network messages and timers; the endpoint sends protocol messages
//! itself through the shared [`Network`] and returns application-facing
//! effects as [`GcsOutput`] values.
//!
//! # Protocol sketch
//!
//! * `A-broadcast(m)`: send `Forward(m)` to the sequencer (the smallest
//!   member of the current view). The sequencer assigns the next global
//!   sequence number and broadcasts it in an `Ordered` frame: a frame of
//!   one, or up to `max_msgs` entries when batching (see
//!   [`crate::BatchConfig`]). Every receiver runs the same path for
//!   every frame.
//! * *Non-uniform* delivery: deliver in sequence order on receipt.
//! * *Uniform* delivery ("safe delivery"): on receiving a frame, each
//!   process votes for it with one `Ack` to all; an entry is *stable* —
//!   and deliverable — once a majority of the view has voted for it.
//!   Group-safety rests on exactly this guarantee.
//! * *Crash-recovery model*: the endpoint persists each frame to its log
//!   disk before voting, marks entries `delivered` (write-ahead)
//!   before handing them up, and on recovery rebuilds from the stable log
//!   and catches up from peers. Without the end-to-end extension it must
//!   not redeliver entries marked `delivered` (uniform integrity) — the
//!   paper's §3 gap. With `end_to_end = true` it instead tracks the
//!   application's `ack(m)` and redelivers everything unacknowledged
//!   (§4.2), closing the gap.
//! * *View changes* (dynamic model): a heartbeat failure detector drives a
//!   coordinator-led flush: collect ordering state from surviving members,
//!   fill gaps, then install the new view with a watermark that everyone
//!   delivers up to first (virtual synchrony); the new view carries the
//!   entries below the watermark that any member may miss.
//!
//! Partitionable membership is out of scope (as in the paper, §8): the
//! view-change rule follows the crash-chain (survivors of the old view),
//! which is single-partition-safe only. Partition experiments use the
//! static crash-recovery model, where a minority side blocks naturally.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::rc::Rc;

use rand::rngs::StdRng;

use groupsafe_net::{Incoming, Network, NodeId};
use groupsafe_sim::{Ctx, Disk, ObsEvent, SimTime, Wrap};

use crate::config::{DeliveryGuarantee, GcsConfig, GcsModel};
use crate::idtable::{IdTable, Lookup};
use crate::message::{Entry, GcsTimer, MsgId, Wire};
use crate::output::GcsOutput;
use crate::seqlog::{Quorum, SeqLog, Slot, MAX_GROUP_SIZE};
use crate::view::View;

/// The message type of an actor hosting an endpoint with payload `P`
/// and checkpoint `S`: it carries the endpoint's timers and its wire
/// traffic, so the endpoint arms the one and sends the other through the
/// host's [`Ctx`].
pub trait GcsMessage<P, S>: Wrap<GcsTimer> + Wrap<Incoming<Wire<P, S>>> {}

impl<P, S, M: Wrap<GcsTimer> + Wrap<Incoming<Wire<P, S>>>> GcsMessage<P, S> for M {}

/// Counters exposed by an endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcsStats {
    /// Messages A-broadcast by this endpoint.
    pub broadcasts: u64,
    /// Entries delivered to the application (first deliveries).
    pub delivered: u64,
    /// Redeliveries after recovery (end-to-end mode only).
    pub redelivered: u64,
    /// Stable-log writes performed (crash-recovery model). A frame
    /// persists with ONE write covering all its entries.
    pub persists: u64,
    /// Stability-vote messages sent. A [`Wire::Ack`] covering a whole
    /// frame counts once.
    pub acks_sent: u64,
    /// View changes completed (coordinator or member side).
    pub view_changes: u64,
    /// Ordered frames flushed by this endpoint as sequencer (one per
    /// entry when unbatched).
    pub batches_sent: u64,
    /// Application messages carried in those frames.
    pub batch_msgs_sent: u64,
    /// Times this endpoint demoted itself to rejoin after learning it
    /// was excluded from a newer view (stale-member re-merge).
    pub demotions: u64,
    /// Suspicions withdrawn because the suspected member was heard from
    /// again before a view change excluded it.
    pub retractions: u64,
}

impl GcsStats {
    /// Fold another endpoint's counters into this one (whole-group
    /// aggregation for reports).
    pub fn merge(&mut self, other: &GcsStats) {
        self.broadcasts += other.broadcasts;
        self.delivered += other.delivered;
        self.redelivered += other.redelivered;
        self.persists += other.persists;
        self.acks_sent += other.acks_sent;
        self.view_changes += other.view_changes;
        self.batches_sent += other.batches_sent;
        self.batch_msgs_sent += other.batch_msgs_sent;
        self.demotions += other.demotions;
        self.retractions += other.retractions;
    }

    /// Mean messages per flushed frame (1.0 unbatched, or when nothing
    /// was flushed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_sent == 0 {
            1.0
        } else {
            self.batch_msgs_sent as f64 / self.batches_sent as f64
        }
    }

    /// Stability-vote messages per delivered entry. Both counters sum
    /// per-node over the group, so an unbatched run measures 1.0 (each
    /// node sends one vote for each frame of one it delivers); a
    /// batched one measures ≈ `1 / batch`.
    pub fn votes_per_delivery(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.acks_sent as f64 / self.delivered as f64
        }
    }
}

/// One entry of the crash-recovery stable log.
#[derive(Debug, Clone)]
struct StableEntry<P> {
    id: MsgId,
    payload: P,
    /// Sequencer era that assigned this entry (see [`Entry::era`]).
    era: u64,
    /// Write-ahead delivery mark (set before the entry is handed up).
    delivered: bool,
    /// Application-level `ack(m)` received (end-to-end mode).
    acked: bool,
}

/// Coordinator-side state of a view-change attempt.
struct ViewChange {
    epoch: u64,
    proposed: Vec<NodeId>,
    joiners: Vec<(NodeId, u64)>,
    /// member -> (max_seq, next_deliver)
    replies: BTreeMap<NodeId, (u64, u64)>,
    /// Waiting for entries from this member to fill our own gaps.
    fetching_from: Option<NodeId>,
}

/// Joiner-side state while waiting for a state transfer.
struct JoinState {
    generation: u64,
}

/// What [`GcsEndpoint::deliver_one`] needs of the slot its caller just
/// looked up: the entry to hand up, the frame it came in and whether
/// this incarnation already handed it up.
struct Deliverable<P> {
    id: MsgId,
    payload: P,
    span: u32,
    emitted: bool,
}

impl<P: Clone> Deliverable<P> {
    /// `None` for a slot without an entry (a hole in the sequence).
    fn of(slot: &Slot<P>) -> Option<Self> {
        slot.entry.as_ref().map(|e| Deliverable {
            id: e.id,
            payload: e.payload.clone(),
            span: slot.frame_span.max(1),
            emitted: slot.emitted,
        })
    }
}

/// Deliveries between two attempts to trim the log: a [`SeqLog`]
/// frees whole blocks, so trying more often could free nothing more.
const TRIM_EVERY: u64 = groupsafe_sim::BlockVec::<()>::BLOCK_LEN as u64;

/// The group communication endpoint. See the module docs.
///
/// `P`: application payload (a replicated transaction). `S`: application
/// checkpoint handed over during state transfer.
pub struct GcsEndpoint<P, S> {
    cfg: GcsConfig,
    me: NodeId,
    /// The static group, sorted; a member's position is its rank (its
    /// bit in the log's vote masks).
    group: Vec<NodeId>,
    /// `group` without this endpoint.
    group_peers: Vec<NodeId>,
    net: Network,
    log_disk: Option<Rc<RefCell<Disk>>>,
    rng: StdRng,

    // ---- volatile state (cleared by `on_crash`) ----
    started: bool,
    joined: bool,
    /// Set only through [`GcsEndpoint::set_view`], which keeps the three
    /// fields below in step with it.
    view: View,
    /// The nodes an ordering frame goes to and whose votes count: the
    /// whole view (dynamic model) or group (static model), including
    /// this endpoint — self-delivery through the loopback keeps both
    /// pipelines symmetric.
    targets: Vec<NodeId>,
    /// `targets` without this endpoint (votes, heartbeats).
    peers: Vec<NodeId>,
    /// `targets` as a stability quorum over the log's vote masks.
    quorum: Quorum,
    epoch: u64,
    next_counter: u64,
    /// My broadcasts not yet seen ordered (resent on view change).
    pending: BTreeMap<MsgId, P>,
    /// Sequencer state: next sequence number to assign (if I am sequencer).
    seq_assign: Option<u64>,
    /// Ids already ordered and the sequence number each was assigned
    /// (sequencer dedup; the seq lets a resent forward be answered with
    /// a retransmission of the original assignment). The view-based
    /// endpoint releases an id with its log entry, once every member of
    /// the static group has delivered it: the table then only answers
    /// that it was ordered, and holds a page per 64 ids of each origin
    /// above that point (see [`GcsEndpoint::trim_log`]).
    ordered_ids: IdTable,
    /// Per sequence number: the ordered entry received, the stability
    /// votes for it, and the persisted / emitted / frame-span marks.
    /// The view-based endpoint releases its front as the group delivers
    /// it (see [`GcsEndpoint::trim_log`]).
    log: SeqLog<P>,
    /// The highest delivery head each member of the static group
    /// reported in a stability vote, by rank; this endpoint's own rank
    /// holds `u64::MAX`, so that it never bounds the minimum.
    reported_heads: Vec<u64>,
    /// The delivery head at which [`GcsEndpoint::trim_log`] next runs.
    trim_at: u64,
    /// Next sequence number to deliver.
    next_deliver: u64,
    /// Every sequence number at or below this is known stable (learned
    /// from peers during catch-up; rebuilt after crashes).
    stable_floor: u64,
    /// Cached head of the contiguous known-stable prefix (advanced as
    /// stability votes land; see [`GcsEndpoint::stable_watermark`]).
    stable_mark: u64,
    /// Highest sequence number seen in any entry.
    max_seq_seen: u64,
    /// Failure detector bookkeeping: when each member of the static
    /// group was last heard, by rank (`SimTime::ZERO`: not since start
    /// or the last crash), other than by a beacon — those the network
    /// works out, and [`GcsEndpoint::heard`] reads both.
    last_heard: Vec<SimTime>,
    /// The suspected members of the view, as a mask over their ranks in
    /// the static group (like the log's vote masks).
    suspected: u64,
    /// In-flight coordinator-side view change.
    vc: Option<ViewChange>,
    /// Joiners waiting for the next view change (coordinator side).
    waiting_joiners: Vec<(NodeId, u64)>,
    /// Joiner-side state.
    join: Option<JoinState>,
    /// State transfers awaiting an application checkpoint:
    /// (joiner, generation, view to install, flush watermark).
    pending_state_transfers: Vec<(NodeId, u64, View, u64)>,
    /// Sequencer-side batch accumulator: entries with assigned sequence
    /// numbers not yet multicast.
    batch_acc: Vec<Entry<P>>,
    /// Bumped on every flush, crash and view change; a `BatchFlush`
    /// timer is honoured only if its epoch still matches, so stale
    /// deadlines can never flush a later incarnation's accumulator.
    batch_epoch: u64,
    /// A `BatchFlush` deadline is outstanding for the current epoch.
    batch_timer_armed: bool,
    /// Batch size → flush count (sequencer side).
    batch_hist: BTreeMap<u32, u64>,
    /// A `ResendPending` timer is outstanding (static model).
    resend_armed: bool,
    /// A `GapRepair` timer is outstanding.
    gap_repair_armed: bool,
    /// The delivery head when the outstanding `GapRepair` timer was
    /// armed: the repair only fires if the head has not moved for a
    /// whole timeout (a true stall, not normal in-flight stability).
    gap_repair_head: u64,
    /// The recovering sequencer may not assign sequence numbers until it
    /// has heard catch-up replies from a majority (static model).
    seq_resume_votes: Option<BTreeSet<NodeId>>,
    stats: GcsStats,
    /// Forwards dropped as sequencer because every member had delivered
    /// their id already.
    released_forwards: u64,

    // ---- survives crashes ----
    /// Incarnation generation (bumped by `on_recover`).
    generation: u64,
    /// The stable log (crash-recovery model only; empty otherwise).
    stable: BTreeMap<u64, StableEntry<P>>,
    /// Marker for the checkpoint type used in state transfer.
    _state: PhantomData<S>,
}

impl<P, S> GcsEndpoint<P, S>
where
    P: Clone + 'static,
    S: Clone + 'static,
{
    /// Create an endpoint for `me` over the static `group`.
    ///
    /// `log_disk` must be `Some` in the crash-recovery model (stable-log
    /// writes are charged to it).
    pub fn new(
        cfg: GcsConfig,
        me: NodeId,
        mut group: Vec<NodeId>,
        net: Network,
        log_disk: Option<Rc<RefCell<Disk>>>,
        rng: StdRng,
    ) -> Self {
        group.sort_unstable();
        group.dedup();
        assert!(
            cfg.model == GcsModel::ViewBased || log_disk.is_some(),
            "the crash-recovery model needs a log disk"
        );
        assert!(
            group.len() <= MAX_GROUP_SIZE,
            "a group is at most {MAX_GROUP_SIZE} members (vote bitmask width)"
        );
        let group_peers = group.iter().copied().filter(|&p| p != me).collect();
        let last_heard = vec![SimTime::ZERO; group.len()];
        let reported_heads = vec![0; group.len()];
        let mut endpoint = GcsEndpoint {
            cfg,
            me,
            group,
            group_peers,
            net,
            log_disk,
            rng,
            started: false,
            joined: true,
            view: View::initial(Vec::new()),
            targets: Vec::new(),
            peers: Vec::new(),
            quorum: Quorum {
                mask: 0,
                majority: 1,
            },
            epoch: 0,
            next_counter: 0,
            pending: BTreeMap::new(),
            seq_assign: None,
            ordered_ids: IdTable::default(),
            log: SeqLog::new(),
            reported_heads,
            trim_at: 0,
            next_deliver: 1,
            stable_floor: 0,
            stable_mark: 0,
            max_seq_seen: 0,
            last_heard,
            suspected: 0,
            vc: None,
            waiting_joiners: Vec::new(),
            join: None,
            pending_state_transfers: Vec::new(),
            batch_acc: Vec::new(),
            batch_epoch: 0,
            batch_timer_armed: false,
            batch_hist: BTreeMap::new(),
            resend_armed: false,
            gap_repair_armed: false,
            gap_repair_head: 0,
            seq_resume_votes: None,
            stats: GcsStats::default(),
            released_forwards: 0,
            generation: 0,
            stable: BTreeMap::new(),
            _state: PhantomData,
        };
        endpoint.set_view(View::initial(endpoint.group.clone()));
        endpoint.forget_reported_heads();
        endpoint
    }

    /// Install `view` and recompute what follows from it: the ordering
    /// targets, the vote peers and the stability quorum.
    fn set_view(&mut self, view: View) {
        debug_assert!(
            view.members.iter().all(|&p| self.rank(p).is_some()),
            "a view is drawn from the static group"
        );
        self.view = view;
        self.targets = match self.cfg.model {
            GcsModel::ViewBased => self.view.members.clone(),
            GcsModel::CrashRecovery => self.group.clone(),
        };
        self.peers = self
            .targets
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        let mask = self.targets.iter().fold(0, |m, &p| m | self.rank_bit(p));
        self.quorum = Quorum {
            mask,
            majority: (self.targets.len() / 2 + 1) as u32,
        };
    }

    /// `node`'s rank in the static group (`None` for an outsider). A
    /// group of consecutive ids — every system's — ranks `node` at its
    /// distance from the first member; the search covers any other.
    fn rank(&self, node: NodeId) -> Option<usize> {
        let guess = node.index().wrapping_sub(self.group.first()?.index());
        match self.group.get(guess) {
            Some(&member) if member == node => Some(guess),
            _ => self.group.binary_search(&node).ok(),
        }
    }

    /// `node`'s bit in the log's vote masks: its rank in the static
    /// group (0 — a vote that never counts — for an outsider).
    fn rank_bit(&self, node: NodeId) -> u64 {
        self.rank(node).map_or(0, |rank| 1 << rank)
    }

    /// When the member of rank `rank` was last heard, by `now`: by any
    /// message this endpoint handled, or by a beacon (see
    /// [`GcsEndpoint::hears_beacons`]).
    fn heard(&self, now: SimTime, rank: usize) -> SimTime {
        let handled = self.last_heard.get(rank).copied();
        let beacon = self
            .group
            .get(rank)
            .map(|&p| self.net.heard(p, self.me, now));
        handled.max(beacon).unwrap_or(SimTime::ZERO)
    }

    /// When each member of the static group was last heard by `now`, by
    /// rank (inspection helper).
    pub fn heard_by_rank(&self, now: SimTime) -> Vec<SimTime> {
        (0..self.group.len())
            .map(|rank| self.heard(now, rank))
            .collect()
    }

    /// The suspected members of the view, as a mask over their ranks in
    /// the static group (inspection helper).
    pub fn suspicion_mask(&self) -> u64 {
        self.suspected
    }

    fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected & self.rank_bit(node) != 0
    }

    /// Count every member of the current view as heard at `now`.
    fn hear_view(&mut self, now: SimTime) {
        for &p in &self.view.members {
            if let Some(heard) = self.rank(p).and_then(|rank| self.last_heard.get_mut(rank)) {
                *heard = now;
            }
        }
    }

    /// True when a heartbeat from any peer could only refresh the time
    /// it was last heard: the view-based endpoint is joined, suspects no
    /// one, and its view covers the whole static group, so the heartbeat
    /// retracts no suspicion and draws no `NotInView`. Its peers'
    /// heartbeats may then be beacons, which the network accounts but
    /// does not send (see [`Network::beat`]).
    pub fn hears_beacons(&self) -> bool {
        self.cfg.model == GcsModel::ViewBased
            && self.joined
            && self.suspected == 0
            && self.quorum.mask.count_ones() as usize == self.group.len()
    }

    /// Tell the network whether heartbeats to this endpoint may be
    /// beacons: while it [hears beacons](GcsEndpoint::hears_beacons) and
    /// its host, `receptive`, has nothing a heartbeat could unblock. A
    /// host publishes this after every event it handles.
    pub fn publish_beacons<M: GcsMessage<P, S>>(&self, ctx: &mut Ctx<'_, M>, receptive: bool) {
        let on = receptive && self.hears_beacons();
        self.net
            .set_quiet(ctx, self.me, on, || Wire::<P, S>::Heartbeat);
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True if this endpoint currently acts as the sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.sequencer() == Some(self.me)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GcsStats {
        self.stats
    }

    /// Batch-size histogram of the frames this endpoint flushed as
    /// sequencer: size → count.
    pub fn batch_histogram(&self) -> &BTreeMap<u32, u64> {
        &self.batch_hist
    }

    /// Entries currently waiting in the sequencer's batch accumulator
    /// (inspection/test helper).
    pub fn accumulator_len(&self) -> usize {
        self.batch_acc.len()
    }

    /// Next sequence number this endpoint would deliver.
    pub fn next_deliver(&self) -> u64 {
        self.next_deliver
    }

    /// The log's release boundary: every sequence number below it has
    /// been delivered by every member of the static group and is freed
    /// (inspection/test helper).
    pub fn log_floor(&self) -> u64 {
        self.log.floor()
    }

    /// Sequence-number slots the log still stores (inspection/test
    /// helper).
    pub fn log_held(&self) -> usize {
        self.log.held()
    }

    /// Pages of 64 ids the sequencer's duplicate table holds
    /// (inspection/test helper).
    pub fn ids_held(&self) -> usize {
        self.ordered_ids.pages()
    }

    /// Forwards this endpoint dropped as sequencer because every member
    /// had delivered their message already (inspection/test helper).
    pub fn released_forwards(&self) -> u64 {
        self.released_forwards
    }

    /// Entries this endpoint knows exist but has not delivered yet (the
    /// distance between the highest sequence number seen and the
    /// delivery head). Zero once the endpoint is fully drained.
    pub fn backlog(&self) -> u64 {
        self.max_seq_seen
            .saturating_sub(self.next_deliver.saturating_sub(1))
    }

    /// True if this endpoint is a functioning group member (not mid-join).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The node this endpoint currently believes is the sequencer:
    /// the fixed first group member in the static model, the view
    /// coordinator in the dynamic one. Scenario drivers use this to aim
    /// targeted faults (kill-the-sequencer) at whoever holds the role
    /// *now*, not at a hard-coded id.
    pub fn sequencer(&self) -> Option<NodeId> {
        match self.cfg.model {
            // Static model: fixed sequencer (liveness requires it to be a
            // yellow process — it eventually recovers, see module docs).
            GcsModel::CrashRecovery => self.group.first().copied(),
            GcsModel::ViewBased => self.view.coordinator(),
        }
    }

    fn majority(&self) -> usize {
        self.quorum.majority as usize
    }

    /// Start protocol activity (heartbeats, sequencer duty). Call once from
    /// the host's initialisation event.
    pub fn start<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.started = true;
        if self.sequencer() == Some(self.me) {
            self.seq_assign = Some(1);
        }
        self.last_heard.fill(ctx.now());
        if self.cfg.model == GcsModel::ViewBased {
            ctx.timer(self.cfg.hb_interval, GcsTimer::Heartbeat);
        }
    }

    /// `A-broadcast(m)`: submit `payload` to the total order. Returns the
    /// message id. Resent automatically across view changes until ordered.
    pub fn broadcast<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>, payload: P) -> MsgId {
        self.next_counter += 1;
        let id = MsgId {
            origin: self.me,
            counter: self.next_counter,
        };
        self.stats.broadcasts += 1;
        self.pending.insert(id, payload.clone());
        if let Some(seq_node) = self.sequencer() {
            self.net.send(
                ctx,
                self.me,
                seq_node,
                Wire::<P, S>::Forward { id, payload },
            );
        }
        if !self.resend_armed {
            // Retry until the sequencer orders the message. The static
            // model has no view change to trigger resends at all; the
            // view model resends on view changes, but a loss burst can
            // eat an Ordered multicast without any view changing.
            self.resend_armed = true;
            ctx.timer(self.cfg.change_timeout, GcsTimer::ResendPending);
        }
        id
    }

    /// Application-level `ack(m)` (end-to-end mode, §4.2): the message at
    /// `seq` was processed (successfully delivered). Idempotent.
    pub fn app_ack(&mut self, seq: u64) {
        if let Some(e) = self.stable.get_mut(&seq) {
            e.acked = true;
        }
    }

    /// Handle an incoming network message. The message is read in place
    /// — every receiver of a multicast is handed the same one — and only
    /// what the endpoint keeps is copied out of it.
    pub fn on_net<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        wire: &Wire<P, S>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        let rank = self.rank(from);
        if let Some(heard) = rank.and_then(|rank| self.last_heard.get_mut(rank)) {
            *heard = ctx.now();
        }
        // A suspected process that demonstrably speaks is alive again:
        // retract the suspicion. Without this, a partition that split the
        // view below quorum on every side (no view change could complete)
        // leaves permanent mutual suspicion after the heal, and the group
        // never regains a coordinator quorum. A genuinely-stale
        // incarnation is re-suspected where it matters (`on_join_req`),
        // and a silent peer is re-suspected one heartbeat timeout later.
        let bit = rank.map_or(0, |rank| 1 << rank);
        if self.suspected & bit != 0 {
            self.suspected &= !bit;
            self.stats.retractions += 1;
        }
        match *wire {
            Wire::Forward { id, ref payload } => self.on_forward(ctx, id, payload.clone()),
            Wire::Ordered { ref entries, .. } => {
                if !self.joined {
                    return; // mid-join: the state transfer will cover these entries
                }
                self.store_frame(ctx, entries);
                self.try_deliver(ctx, out);
            }
            Wire::Ack {
                lo,
                hi,
                era,
                delivered,
            } => {
                self.note_head(rank, delivered);
                for seq in lo..=hi {
                    self.record_ack(from, seq, era);
                }
                self.try_deliver(ctx, out);
            }
            Wire::Heartbeat => {
                // A heartbeat from a process outside the current view:
                // a stale member that was excluded (e.g. a healed
                // partition's minority) and still believes in its old
                // membership. Tell it, so it can rejoin instead of
                // blocking forever on a view the group abandoned.
                // (In the view-based model the quorum mask is the view.)
                let in_view = rank.is_some_and(|rank| self.quorum.mask >> rank & 1 == 1);
                if self.cfg.model == GcsModel::ViewBased && self.joined && !in_view {
                    let view_id = self.view.id;
                    let members = self.view.members.clone();
                    self.net.send(
                        ctx,
                        self.me,
                        from,
                        Wire::<P, S>::NotInView { view_id, members },
                    );
                }
            }
            Wire::NotInView {
                view_id,
                ref members,
            } => self.on_not_in_view(ctx, from, view_id, members),
            Wire::ViewStart { epoch, .. } => self.on_view_start(ctx, from, epoch),
            Wire::SyncReply {
                epoch,
                max_seq,
                next_deliver,
            } => self.on_sync_reply(ctx, from, epoch, max_seq, next_deliver, out),
            Wire::SyncFetch { epoch, have_up_to } => {
                self.on_view_change_fetch(ctx, from, have_up_to, epoch)
            }
            Wire::SyncEntries { epoch, ref entries } => {
                self.on_sync_entries(ctx, epoch, entries, out)
            }
            Wire::NewView {
                ref view,
                watermark,
                ref entries,
            } => self.on_new_view(ctx, view.clone(), watermark, entries, out),
            Wire::JoinReq { generation } => self.on_join_req(ctx, from, generation, out),
            Wire::StateTransfer {
                ref view,
                applied_seq,
                ref tail,
                ref state,
                watermark,
            } => self.on_state_transfer(
                ctx,
                view.clone(),
                applied_seq,
                tail.clone(),
                state.clone(),
                watermark,
                out,
            ),
            Wire::CatchUpReq { have_up_to } => self.on_catch_up_req(ctx, from, have_up_to),
            Wire::CatchUp {
                ref entries,
                stable_up_to,
            } => {
                self.stable_floor = self.stable_floor.max(stable_up_to);
                self.store_frames_of_one(ctx, entries);
                // A recovering sequencer resumes assigning only after a
                // majority of peers confirmed what they hold, so it can
                // never reuse a sequence number it lost in the crash.
                if let Some(votes) = &mut self.seq_resume_votes {
                    votes.insert(from);
                    if votes.len() + 1 >= self.majority() {
                        self.seq_resume_votes = None;
                        // Defer the actual resumption by one timeout: the
                        // reply that tripped the threshold travelled in a
                        // wave with its peers', and a same-wave straggler
                        // may carry entries this sequencer must not
                        // reassign. Any *stable* entry is guaranteed to
                        // be in some reply of the wave (two majorities
                        // always intersect), so after the grace the
                        // resume point sits above everything stable.
                        ctx.timer(self.cfg.change_timeout, GcsTimer::SeqResume);
                    }
                }
                self.try_deliver(ctx, out);
            }
        }
    }

    /// Handle a timer previously scheduled by this endpoint.
    pub fn on_timer<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        timer: GcsTimer,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        match timer {
            GcsTimer::Heartbeat => self.on_heartbeat_timer(ctx, out),
            GcsTimer::Persisted { lo, span } => {
                self.on_persisted(ctx, lo, lo + u64::from(span) - 1, out)
            }
            GcsTimer::ViewChangeRetry { epoch } => {
                if let Some(vc) = self.vc.take_if(|vc| vc.epoch == epoch) {
                    // The abandoned change took its joiners out of
                    // `waiting_joiners`; put them back or their (deduped)
                    // retries would never reach another view change.
                    for (n, g) in vc.joiners {
                        if !self.waiting_joiners.iter().any(|&(m, _)| m == n) {
                            self.waiting_joiners.push((n, g));
                        }
                    }
                    self.maybe_start_view_change(ctx, out);
                }
            }
            GcsTimer::JoinRetry { generation } => {
                if self
                    .join
                    .as_ref()
                    .is_some_and(|j| j.generation == generation)
                {
                    self.send_join_req(ctx);
                }
            }
            GcsTimer::BatchFlush { epoch } => {
                // Honour the deadline only if nothing flushed, crashed or
                // changed view since it was armed: a stale deadline must
                // never flush a later incarnation's accumulator.
                if self.started && epoch == self.batch_epoch {
                    self.flush_batch(ctx);
                }
            }
            GcsTimer::SeqResume => {
                if self.cfg.model == GcsModel::CrashRecovery
                    && self.sequencer() == Some(self.me)
                    && self.seq_assign.is_none()
                    && self.seq_resume_votes.is_none()
                {
                    self.seq_assign = Some(self.max_seq_seen + 1);
                }
            }
            GcsTimer::ResumeRetry => {
                if self.seq_resume_votes.is_some() {
                    let have = self.contiguous_persisted();
                    self.net.multicast(
                        ctx,
                        self.me,
                        &self.group_peers,
                        Wire::<P, S>::CatchUpReq { have_up_to: have },
                    );
                    ctx.timer(self.cfg.change_timeout, GcsTimer::ResumeRetry);
                }
            }
            GcsTimer::GapRepair => {
                self.gap_repair_armed = false;
                if self.joined && self.next_deliver <= self.max_seq_seen {
                    if self.next_deliver == self.gap_repair_head {
                        // The head has not moved for a whole timeout: a
                        // true stall (a hole in the sequence, or votes
                        // that circulated while this node was down or
                        // partitioned away), not in-flight stability.
                        let have_up_to = self.next_deliver - 1;
                        self.net.multicast(
                            ctx,
                            self.me,
                            &self.group_peers,
                            Wire::<P, S>::CatchUpReq { have_up_to },
                        );
                    }
                    // Keep watching while entries remain undelivered
                    // (the head may stall again, and repair replies may
                    // themselves be lost).
                    self.gap_repair_armed = true;
                    self.gap_repair_head = self.next_deliver;
                    ctx.timer(self.cfg.change_timeout, GcsTimer::GapRepair);
                }
            }
            GcsTimer::ResendPending => {
                self.resend_armed = false;
                if !self.pending.is_empty() {
                    if let Some(seq_node) = self.sequencer() {
                        let pending: Vec<(MsgId, P)> =
                            self.pending.iter().map(|(k, v)| (*k, v.clone())).collect();
                        for (id, payload) in pending {
                            self.net.send(
                                ctx,
                                self.me,
                                seq_node,
                                Wire::<P, S>::Forward { id, payload },
                            );
                        }
                    }
                    self.resend_armed = true;
                    ctx.timer(self.cfg.change_timeout, GcsTimer::ResendPending);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Ordering fast path
    // ------------------------------------------------------------------

    fn on_forward<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>, id: MsgId, payload: P) {
        let Some(next) = self.seq_assign else {
            return; // not the sequencer (stale forward); sender will resend
        };
        let ordered = self.ordered_ids.get(id);
        if ordered == Lookup::Released {
            // Every member delivered it, the broadcaster included:
            // whatever this forward is late for, nothing is missing.
            self.released_forwards += 1;
            return;
        }
        if let Lookup::At(seq) = ordered {
            // Duplicate (resend after a view change or a retry timer). A
            // resend means the broadcaster has not seen its message
            // ordered: the original Ordered multicast may have been lost
            // on every wire at once (a loss burst can eat all copies,
            // including this sequencer's own loopback — nothing else
            // retransmits an assignment). Re-multicast the entry at its
            // original number, rebuilding it from the resent payload if
            // even the local copy is gone.
            if self.batch_acc.iter().any(|e| e.id == id) {
                return; // still in the accumulator: its flush will carry it
            }
            let entry = match self.log.get(seq).and_then(|slot| slot.entry.as_ref()) {
                Some(held) if held.id == id => held.clone(),
                Some(_) => return, // superseded meanwhile: let it die
                None => Entry {
                    seq,
                    id,
                    payload,
                    era: self.assign_era(),
                },
            };
            let view = self.view.id;
            let entries = vec![entry];
            let frame = Wire::<P, S>::Ordered { view, entries };
            self.net
                .multicast_frame(ctx, self.me, &self.targets, frame, 1);
            return;
        }
        // Record immediately: a duplicate forward arriving before our own
        // Ordered loops back must not get a second sequence number.
        self.ordered_ids.insert(id, next);
        self.seq_assign = Some(next + 1);
        ctx.emit(|| ObsEvent::Sequence { seq: next });
        let entry = Entry {
            seq: next,
            id,
            payload,
            era: self.assign_era(),
        };
        self.accumulate(ctx, entry);
    }

    /// The era a sequence number assigned now is tagged with. Static
    /// model: this incarnation, so a post-crash reassignment of the same
    /// seq supersedes it cleanly. The view-based model serialises
    /// reassignment via the view-change flush and keeps era 0.
    fn assign_era(&self) -> u64 {
        match self.cfg.model {
            GcsModel::CrashRecovery => self.generation,
            GcsModel::ViewBased => 0,
        }
    }

    /// Sequencer side of the pipeline: hold the freshly ordered entry
    /// until a flush trigger fires (size or deadline; unbatched, the
    /// size trigger fires at once). The sequence number is already
    /// assigned, so accumulation changes the framing of the total order,
    /// never the order itself.
    fn accumulate<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>, entry: Entry<P>) {
        self.batch_acc.push(entry);
        if self.batch_acc.len() >= self.cfg.batch.max_msgs {
            self.flush_batch(ctx);
        } else if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            ctx.timer(
                self.cfg.batch.max_delay,
                GcsTimer::BatchFlush {
                    epoch: self.batch_epoch,
                },
            );
        }
    }

    /// Ship the accumulator as one `Ordered` frame.
    fn flush_batch<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.batch_acc.is_empty() {
            return;
        }
        // A copy of exactly the frame's size; the accumulator keeps its
        // buffer for the next frame.
        let entries: Vec<Entry<P>> = self.batch_acc.drain(..).collect();
        self.batch_timer_armed = false;
        self.batch_epoch += 1; // invalidate any armed deadline
        let n = entries.len() as u64;
        // The frame's sequence numbers are committed to the wire now
        // (never rolled back after this point): max_seq_seen must cover
        // them before any concurrent view change snapshots its
        // watermark, or the next sequencer would reuse them for
        // different messages.
        if let Some(last) = entries.last() {
            self.max_seq_seen = self.max_seq_seen.max(last.seq);
        }
        self.stats.batches_sent += 1;
        self.stats.batch_msgs_sent += n;
        *self.batch_hist.entry(n as u32).or_insert(0) += 1;
        ctx.emit(|| ObsEvent::BatchFlush { size: n as u32 });
        let view = self.view.id;
        let fanout = self.targets.len() as u32;
        ctx.emit(|| ObsEvent::MulticastSend { fanout });
        self.net.multicast_frame(
            ctx,
            self.me,
            &self.targets,
            Wire::<P, S>::Ordered { view, entries },
            n,
        );
    }

    /// Throw the accumulator away and return its sequence numbers to the
    /// assigner (view changes). Nothing in the accumulator was ever
    /// multicast, so the rollback is invisible: the senders still hold
    /// the payloads in `pending` and re-forward them to the sequencer of
    /// the new view, where they are ordered afresh.
    fn rollback_accumulator(&mut self) {
        if self.batch_acc.is_empty() {
            return;
        }
        let first = self.batch_acc.first().map(|e| e.seq);
        for e in self.batch_acc.drain(..) {
            self.ordered_ids.remove(e.id);
        }
        self.batch_timer_armed = false;
        self.batch_epoch += 1;
        if self.seq_assign.is_some() {
            self.seq_assign = first;
        }
    }

    /// Record an ordered entry locally, carried in a frame of `span`
    /// entries, without the delivery-path side effects (persist, vote).
    /// Returns true if the entry was new.
    fn store(&mut self, entry: Entry<P>, span: u32) -> bool {
        if entry.seq < self.next_deliver {
            return false;
        }
        let Some(slot) = self.log.slot_mut(entry.seq) else {
            return false;
        };
        if let Some(old) = &slot.entry {
            // A *higher-era* assignment supersedes an undelivered entry:
            // the old sequencer died before this seq stabilised anywhere
            // (otherwise its successor would have resumed above it), and
            // its next incarnation reassigned the number. Everything
            // attached to the dead incarnation — id registration, votes,
            // local persistence — is discarded with it.
            if self.cfg.model != GcsModel::CrashRecovery || entry.era <= old.era {
                return false;
            }
            if old.id != entry.id {
                self.ordered_ids.remove(old.id);
            }
            slot.discard_incarnation();
            self.stable.remove(&entry.seq);
        }
        self.max_seq_seen = self.max_seq_seen.max(entry.seq);
        self.ordered_ids.insert(entry.id, entry.seq);
        self.pending.remove(&entry.id);
        slot.entry = Some(entry);
        slot.frame_span = span;
        true
    }

    /// One sequential stable-log write starting at `now` (crash-recovery
    /// model). Returns the instant it is on disk.
    fn persist(&mut self, now: SimTime) -> SimTime {
        #[expect(
            clippy::expect_used,
            reason = "only the crash-recovery model persists, and `new` asserts that model is given a log disk"
        )]
        let disk = self.log_disk.as_ref().expect("checked in new");
        let done = disk.borrow_mut().access(now, &mut self.rng);
        self.stats.persists += 1;
        done
    }

    /// The one store/persist/vote path: store every entry of a frame,
    /// then run its side effects once — ONE stable-log write covering
    /// the whole frame (crash-recovery model) before ONE vote for it,
    /// or that vote at once (view-based uniform model). Nothing happens
    /// if the frame held no new entry.
    fn store_frame<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>, entries: &[Entry<P>]) {
        let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
            return;
        };
        let (lo, hi) = (first.seq, last.seq);
        let span = entries.len() as u32;
        let mut fresh = false;
        for e in entries {
            fresh |= self.store(e.clone(), span);
        }
        if !fresh {
            return;
        }
        match self.cfg.model {
            GcsModel::ViewBased => {
                if self.cfg.guarantee == DeliveryGuarantee::Uniform {
                    self.send_vote(ctx, lo, hi);
                }
            }
            GcsModel::CrashRecovery => {
                // Persist before voting: stability is backed by stable
                // storage in this model.
                let done = self.persist(ctx.now());
                ctx.timer(done - ctx.now(), GcsTimer::Persisted { lo, span });
            }
        }
    }

    /// Store entries that came outside the sequencer's frames (a new
    /// view's flush, a view-change fetch, a catch-up reply), each as a
    /// frame of one.
    fn store_frames_of_one<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        entries: &[Entry<P>],
    ) {
        for e in entries {
            self.store_frame(ctx, std::slice::from_ref(e));
        }
    }

    /// The stable-log write covering the frame `lo..=hi` finished: mark
    /// every entry of it persisted and vote once for the frame.
    fn on_persisted<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        lo: u64,
        hi: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        let mut any = false;
        for seq in lo..=hi {
            any |= self.mark_persisted(seq);
        }
        if any {
            ctx.emit(|| ObsEvent::StableWrite { seq: hi });
            self.send_vote(ctx, lo, hi);
            self.try_deliver(ctx, out);
        }
    }

    /// Mark the entry held at `seq` persisted and copy it into the
    /// stable log. False if there is no such entry, or it was persisted
    /// already.
    fn mark_persisted(&mut self, seq: u64) -> bool {
        let Some(slot) = self.log.get_mut(seq) else {
            return false;
        };
        let Some(entry) = &slot.entry else {
            return false;
        };
        if slot.persisted {
            return false;
        }
        slot.persisted = true;
        self.stable.insert(
            seq,
            StableEntry {
                id: entry.id,
                payload: entry.payload.clone(),
                era: entry.era,
                delivered: false,
                acked: false,
            },
        );
        true
    }

    /// Era of the entry held at `seq` (0 without one).
    fn entry_era(&self, seq: u64) -> u64 {
        self.log.get(seq).map_or(0, |slot| slot.era())
    }

    /// One stability vote covering `lo..=hi`: counted here, multicast
    /// to the peers as one message.
    fn send_vote<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>, lo: u64, hi: u64) {
        // One vote: the window's head stands for the frame.
        ctx.emit(|| ObsEvent::Vote { seq: hi });
        let era = self.entry_era(lo);
        for seq in lo..=hi {
            self.record_ack(self.me, seq, era);
        }
        self.stats.acks_sent += 1;
        let delivered = self.delivered_head();
        self.net.multicast_frame(
            ctx,
            self.me,
            &self.peers,
            Wire::<P, S>::Ack {
                lo,
                hi,
                era,
                delivered,
            },
            hi - lo + 1,
        );
    }

    /// Count `from`'s stability vote for the `era` incarnation of `seq`,
    /// then advance the cached contiguous-stable head past every
    /// sequence number whose stability is now known (amortised O(1) per
    /// vote).
    fn record_ack(&mut self, from: NodeId, seq: u64, era: u64) {
        let bit = self.rank_bit(from);
        if let Some(slot) = self.log.slot_mut(seq) {
            slot.vote(bit, era);
        }
        self.stable_mark = self
            .log
            .stable_run_end(self.stable_watermark(), self.quorum);
    }

    /// The group-stable watermark: the highest sequence number `S` such
    /// that every entry at or below `S` is known stable — held by a
    /// majority of the view/group (and, in the crash-recovery model,
    /// persisted before the vote). This is the paper's group-stability
    /// line: no failure the configured guarantee tolerates can lose an
    /// entry at or below it, which is exactly what the read path's
    /// `ReadLevel::Stable` serves under. May briefly exceed the delivery
    /// head (stable entries not yet handed up) or trail it (entries
    /// flushed by a view change before their votes were counted — the
    /// view agreement makes those stable too, and the accessor reflects
    /// it as soon as the install raises the floor).
    pub fn stable_watermark(&self) -> u64 {
        self.stable_mark.max(self.stable_floor)
    }

    fn try_deliver<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        if !self.joined {
            return;
        }
        let uniform = self.cfg.guarantee == DeliveryGuarantee::Uniform;
        // In the crash-recovery model an entry must additionally be
        // persisted locally before uniform delivery (otherwise a crash
        // right after delivery leaves no local record).
        let needs_persist = uniform && self.cfg.model == GcsModel::CrashRecovery;
        loop {
            let seq = self.next_deliver;
            let head = self
                .log
                .get(seq)
                .filter(|slot| {
                    !uniform
                        || ((slot.persisted || !needs_persist)
                            && (seq <= self.stable_floor || slot.is_stable(self.quorum)))
                })
                .and_then(Deliverable::of);
            let Some(head) = head else {
                // A hole — or a head entry stuck behind stability, which
                // can be as final as a hole: its votes may have circulated
                // while this node was down. The repair's CatchUp reply
                // carries the responder's stable floor, unsticking it.
                self.maybe_arm_gap_repair(ctx);
                return;
            };
            self.deliver_one(ctx, seq, head, false, out);
        }
    }

    /// Gap repair: a member whose delivery head is stuck — a hole in
    /// the sequence, or an entry whose stability votes circulated while
    /// this node was down or partitioned away — would stall forever
    /// without help. The crash-recovery model has no view-change flush
    /// to refill it at all; the view-based model refills on view
    /// changes, but a short partition whose suspicions are retracted at
    /// the heal never changes the view, leaving the healed member with
    /// a permanent hole. Arm a timer; if the head has not moved when it
    /// fires, ask the group for everything above the contiguous prefix
    /// (the reply also carries the responder's stable floor).
    fn maybe_arm_gap_repair<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.gap_repair_armed || self.next_deliver > self.max_seq_seen {
            return;
        }
        self.gap_repair_armed = true;
        self.gap_repair_head = self.next_deliver;
        ctx.timer(self.cfg.change_timeout, GcsTimer::GapRepair);
    }

    fn deliver_one<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        seq: u64,
        head: Deliverable<P>,
        redelivery: bool,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        // Entries already handed up in this incarnation, or already
        // *successfully* delivered in a previous one (end-to-end mode),
        // advance the cursor without a second emission (refined uniform
        // integrity: successful delivery at most once).
        let already_done =
            head.emitted || (self.cfg.end_to_end && self.stable.get(&seq).is_some_and(|e| e.acked));
        if self.cfg.model == GcsModel::CrashRecovery {
            // Write-ahead delivery mark (see module docs). The mark itself
            // is free in time (piggybacked metadata write).
            if let Some(e) = self.stable.get_mut(&seq) {
                e.delivered = true;
            }
        }
        self.next_deliver = self.next_deliver.max(seq + 1);
        if self.next_deliver >= self.trim_at {
            self.trim_log();
        }
        if already_done {
            return;
        }
        if let Some(slot) = self.log.get_mut(seq) {
            slot.emitted = true;
        }
        ctx.emit(|| ObsEvent::UniformDeliver { seq });
        if redelivery {
            self.stats.redelivered += 1;
        } else {
            self.stats.delivered += 1;
        }
        out.push(GcsOutput::Deliver {
            seq,
            id: head.id,
            payload: head.payload,
            span: head.span,
        });
    }

    /// This endpoint's delivery head: the highest sequence number it has
    /// delivered (or skipped as delivered before).
    fn delivered_head(&self) -> u64 {
        self.next_deliver.saturating_sub(1)
    }

    /// Keep the highest delivery head the member of rank `rank` has
    /// reported.
    fn note_head(&mut self, rank: Option<usize>, delivered: u64) {
        if let Some(head) = rank.and_then(|rank| self.reported_heads.get_mut(rank)) {
            *head = (*head).max(delivered);
        }
    }

    /// Forget every peer's reported delivery head (construction, crash).
    fn forget_reported_heads(&mut self) {
        self.reported_heads.fill(0);
        if let Some(own) = self
            .rank(self.me)
            .and_then(|rank| self.reported_heads.get_mut(rank))
        {
            *own = u64::MAX;
        }
    }

    /// View-based model: release the log below `T + 1`, where `T` is the
    /// highest sequence number that every member of the static group has
    /// reported delivered, capped by this endpoint's own delivery head
    /// and by the stable watermark. Nothing at or below `T` is read
    /// again: delivery reads from the head up, the stable mark walks up
    /// from the watermark, and every entry this endpoint serves — a
    /// catch-up, a view-change fetch or flush, a state-transfer tail —
    /// starts above some member's delivered head or above the donor's
    /// applied point, all of which are at or above `T` (the serving
    /// paths assert it). A member that is down or excluded keeps its
    /// last report, so retention freezes there until it is back. Runs
    /// once per [`TRIM_EVERY`] deliveries. The crash-recovery model
    /// keeps its whole log: its recovery walks it from the start.
    fn trim_log(&mut self) {
        self.trim_at = self.next_deliver + TRIM_EVERY;
        if self.cfg.model != GcsModel::ViewBased {
            return;
        }
        let all_delivered = self
            .reported_heads
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            .min(self.delivered_head())
            .min(self.stable_watermark());
        self.log.release_below(all_delivered + 1);
        self.ordered_ids.release_below(all_delivered + 1);
    }

    /// Debug-build tripwire on every path that serves entries from the
    /// log: a start below the release boundary would silently ship a
    /// shorter message.
    fn assert_retained(&self, from: u64) {
        debug_assert!(
            from >= self.log.floor(),
            "serving entries from {from}, below the release boundary {}",
            self.log.floor()
        );
    }

    /// Deliver everything up to `watermark` unconditionally (view-change
    /// flush: all members of the incoming view hold these entries).
    fn flush_up_to<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        watermark: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        while self.next_deliver <= watermark {
            let seq = self.next_deliver;
            if let Some(head) = self.log.get(seq).and_then(Deliverable::of) {
                self.deliver_one(ctx, seq, head, false, out);
            } else {
                // Below the release boundary the entry was handed up by
                // this incarnation already (a demoted member's transfer
                // tail starts at the donor's applied point, which a host
                // that applies after delivery can hold below it);
                // anywhere else it is a hole.
                debug_assert!(
                    seq < self.log.floor(),
                    "flush gap at seq {seq} (missing from the flush)"
                );
                self.next_deliver += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure detection and view changes (dynamic model)
    // ------------------------------------------------------------------

    fn on_heartbeat_timer<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        let period = self.cfg.hb_interval;
        if !self.joined {
            ctx.timer(period, GcsTimer::Heartbeat);
            return;
        }
        let heartbeat = Wire::<P, S>::Heartbeat;
        let quiet = self.net.beat(ctx, self.me, &self.peers, heartbeat, period);
        let now = ctx.now();
        let was = self.suspected;
        // The view's other unsuspected members, by rank.
        let mut unsuspected = self.quorum.mask & !self.rank_bit(self.me) & !was;
        while unsuspected != 0 {
            let rank = unsuspected.trailing_zeros() as usize;
            unsuspected &= unsuspected - 1;
            if now.since(self.heard(now, rank)) > self.cfg.hb_timeout {
                self.suspected |= 1 << rank;
            }
        }
        if self.suspected != was {
            // A running attempt that still counts a now-suspected member
            // must be restarted.
            if let Some(vc) = &self.vc {
                if vc.proposed.iter().any(|&p| self.is_suspected(p)) {
                    self.vc = None;
                }
            }
            if self.suspected.count_ones() as usize == self.view.members.len() - 1
                && self.view.len() > 1
            {
                // Everyone else looks down: from this process's vantage
                // point the group has failed (it may still continue alone,
                // but durability-by-the-group is gone).
                out.push(GcsOutput::GroupFailed);
            }
            self.maybe_start_view_change(ctx, out);
        }
        if quiet && self.hears_beacons() {
            // Every heartbeat of this tick was a beacon, and every peer
            // beats to this endpoint: until something ends a beacon the
            // next ticks would do nothing else, so none is queued.
            self.net.park(now, self.me, &self.peers, period);
            ctx.park(period, GcsTimer::Heartbeat);
        } else {
            ctx.timer(period, GcsTimer::Heartbeat);
        }
    }

    /// The coordinator among un-suspected members starts the view change.
    fn maybe_start_view_change<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        if self.vc.is_some() || !self.joined {
            return;
        }
        let survivors: Vec<NodeId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|&p| !self.is_suspected(p))
            .collect();
        let need_change =
            survivors.len() != self.view.members.len() || !self.waiting_joiners.is_empty();
        if !need_change {
            return;
        }
        if survivors.first() != Some(&self.me) {
            return; // not the coordinator
        }
        // Primary-partition rule: the next view must contain a majority of
        // the current view's members (rejoining incarnations of old
        // members count). A minority side stays blocked — it keeps the old
        // view, cannot reach stability, and therefore cannot acknowledge
        // anything (this is what makes uniform delivery group-safe under
        // partitions, unlike non-uniform delivery).
        if self.cfg.guarantee == DeliveryGuarantee::Uniform {
            // A rejoining old member only counts if we heard from it
            // recently (a JoinReq retry arrives every change_timeout):
            // a parked joiner on the far side of a fresh partition must
            // not be credited as "present" toward the majority, or an
            // isolated minority could complete a solo view change and
            // fork the lineage.
            let now = ctx.now();
            let fresh = self.cfg.change_timeout + self.cfg.hb_timeout;
            let rejoining = self
                .waiting_joiners
                .iter()
                .filter(|(n, _)| {
                    self.view.contains(*n)
                        && !survivors.contains(n)
                        && self
                            .rank(*n)
                            .is_some_and(|rank| now.since(self.heard(now, rank)) <= fresh)
                })
                .count();
            if survivors.len() + rejoining < self.view.majority() {
                return;
            }
        }
        // A non-empty accumulator holds sequence numbers nobody else has
        // seen; return them to the assigner so the view change cannot
        // reassign them underneath us. The senders re-forward after the
        // new view installs.
        self.rollback_accumulator();
        self.epoch += 1;
        let epoch = self.epoch;
        let mut vc = ViewChange {
            epoch,
            proposed: survivors.clone(),
            joiners: std::mem::take(&mut self.waiting_joiners),
            replies: BTreeMap::new(),
            fetching_from: None,
        };
        vc.replies
            .insert(self.me, (self.max_seq_seen, self.next_deliver));
        self.vc = Some(vc);
        let others: Vec<NodeId> = survivors
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        self.net.multicast(
            ctx,
            self.me,
            &others,
            Wire::<P, S>::ViewStart {
                epoch,
                proposed: survivors,
            },
        );
        ctx.timer(self.cfg.change_timeout, GcsTimer::ViewChangeRetry { epoch });
        self.check_view_change_done(ctx, out);
    }

    fn on_view_start<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        epoch: u64,
    ) {
        if epoch < self.epoch || !self.joined {
            return;
        }
        self.epoch = epoch;
        // A deposed sequencer must not keep sequence numbers the new
        // coordinator never heard of (see maybe_start_view_change).
        self.rollback_accumulator();
        self.net.send(
            ctx,
            self.me,
            from,
            Wire::<P, S>::SyncReply {
                epoch,
                max_seq: self.max_seq_seen,
                next_deliver: self.next_deliver,
            },
        );
    }

    fn on_sync_reply<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        epoch: u64,
        max_seq: u64,
        next_deliver: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        let Some(vc) = &mut self.vc else {
            return;
        };
        if vc.epoch != epoch {
            return;
        }
        vc.replies.insert(from, (max_seq, next_deliver));
        self.check_view_change_done(ctx, out);
    }

    /// If every proposed member replied, fill our gaps then finish.
    fn check_view_change_done<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        let Some(vc) = &self.vc else {
            return;
        };
        if vc.fetching_from.is_some() {
            return;
        }
        if !vc.proposed.iter().all(|p| vc.replies.contains_key(p)) {
            return;
        }
        // The members' SyncReplies are snapshots; this coordinator — who
        // is normally also the sequencer — may have committed further
        // sequence numbers to the wire while the change ran (they may
        // even still be in flight back to itself). The watermark must
        // cover them: a lower one would let the next view's sequencer
        // REUSE those numbers for different messages (total-order
        // collision), while the `have_all` check below keeps the change
        // open until every covered entry has actually landed here.
        let watermark = vc
            .replies
            .values()
            .map(|r| r.0)
            .max()
            .unwrap_or(0)
            .max(self.max_seq_seen);
        // Do we hold every entry up to the watermark?
        let have_all = (self.next_deliver..=watermark).all(|s| self.holds_entry(s));
        if !have_all {
            // Fetch from the other member holding the most.
            let holder = vc
                .replies
                .iter()
                .filter(|(n, _)| **n != self.me)
                .max_by_key(|(_, r)| r.0)
                .map(|(n, _)| *n);
            if let Some(holder) = holder {
                let epoch = vc.epoch;
                #[expect(
                    clippy::expect_used,
                    reason = "this function returned early unless a view change is in progress, and nothing since has ended it"
                )]
                let vc = self.vc.as_mut().expect("checked");
                vc.fetching_from = Some(holder);
                let have = self.next_deliver.saturating_sub(1);
                self.net.send(
                    ctx,
                    self.me,
                    holder,
                    Wire::<P, S>::SyncFetch {
                        epoch,
                        have_up_to: have,
                    },
                );
                return;
            }
        }
        self.finish_view_change(ctx, watermark, out);
    }

    fn on_sync_entries<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        epoch: u64,
        entries: &[Entry<P>],
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        self.store_frames_of_one(ctx, entries);
        if let Some(vc) = &mut self.vc {
            if vc.epoch == epoch {
                vc.fetching_from = None;
            }
        }
        self.try_deliver(ctx, out);
        self.check_view_change_done(ctx, out);
    }

    fn finish_view_change<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        watermark: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "the single caller is the vc-completion path, entered only while a view change is in progress"
        )]
        let vc = self.vc.take().expect("called with vc");
        let min_nd = vc.replies.values().map(|r| r.1).min().unwrap_or(1);
        // The new view carries everything any member might miss: a
        // member that installs it holds the whole flush.
        let entries = self.entries_between(min_nd, watermark);
        let joiner_nodes: Vec<NodeId> = vc.joiners.iter().map(|(n, _)| *n).collect();
        let new_view = View {
            id: self.view.id + 1,
            members: {
                let mut m = vc.proposed.clone();
                m.extend(joiner_nodes.iter().copied());
                m.sort_unstable();
                m.dedup();
                m
            },
        };
        let old_members: Vec<NodeId> = vc
            .proposed
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        self.net.multicast(
            ctx,
            self.me,
            &old_members,
            Wire::<P, S>::NewView {
                view: new_view.clone(),
                watermark,
                entries,
            },
        );
        // Joiners are served via state transfer; ask the application for a
        // checkpoint (the host answers through `checkpoint_ready`).
        self.pending_state_transfers = vc
            .joiners
            .iter()
            .map(|&(n, g)| (n, g, new_view.clone(), watermark))
            .collect();
        // Install locally (this also flushes up to the watermark).
        self.install_view(ctx, new_view, watermark, out);
        for &(joiner, generation) in &vc.joiners {
            out.push(GcsOutput::CheckpointRequest { joiner, generation });
        }
        // Joiners whose requests arrived while this change was running
        // were parked in `waiting_joiners`; their retries are deduplicated
        // away, so nothing else would ever pick them up — start the next
        // change for them immediately.
        if !self.waiting_joiners.is_empty() {
            self.maybe_start_view_change(ctx, out);
        }
    }

    fn on_new_view<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        view: View,
        watermark: u64,
        entries: &[Entry<P>],
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        self.store_frames_of_one(ctx, entries);
        if view.id <= self.view.id || !self.joined {
            self.try_deliver(ctx, out);
            return;
        }
        self.install_view(ctx, view, watermark, out);
    }

    fn install_view<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        view: View,
        watermark: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        // Defensive: the accumulator was already rolled back when the
        // view change started; anything left would collide with the
        // recomputed sequence assignment below.
        self.rollback_accumulator();
        self.flush_up_to(ctx, watermark, out);
        if self.cfg.guarantee == DeliveryGuarantee::Uniform {
            // Every member of the incoming view holds the flushed prefix
            // (the view-change agreement), so it is group-stable even
            // where the per-seq votes never completed.
            self.stable_floor = self.stable_floor.max(watermark);
        }
        self.set_view(view.clone());
        self.vc = None;
        // Joiners the new view already contains joined through another
        // coordinator's change; a stale parked entry would otherwise be
        // counted as "rejoining" by some later majority computation.
        self.waiting_joiners.retain(|&(n, _)| !view.contains(n));
        self.stats.view_changes += 1;
        // Reset suspicion wholesale: members that are genuinely still down
        // are re-suspected after one heartbeat timeout, and a node that
        // rejoined under a fresh incarnation must not inherit suspicion.
        self.suspected = 0;
        // Fresh members must not be instantly re-suspected.
        self.hear_view(ctx.now());
        self.seq_assign = if self.view.coordinator() == Some(self.me) {
            Some(self.max_seq_seen.max(watermark) + 1)
        } else {
            None
        };
        // Resend un-ordered broadcasts to the new sequencer.
        if let Some(seq_node) = self.sequencer() {
            let pending: Vec<(MsgId, P)> =
                self.pending.iter().map(|(k, v)| (*k, v.clone())).collect();
            for (id, payload) in pending {
                self.net.send(
                    ctx,
                    self.me,
                    seq_node,
                    Wire::<P, S>::Forward { id, payload },
                );
            }
        }
        out.push(GcsOutput::ViewInstalled { view });
        self.try_deliver(ctx, out);
    }

    // ------------------------------------------------------------------
    // Join / state transfer (dynamic model)
    // ------------------------------------------------------------------

    /// A member of another view told us we are not part of it: this
    /// process was excluded (healed-partition minority, false suspicion)
    /// while still up. Demote to joiner and rejoin via state transfer
    /// when the peer's view wins: strictly newer id, or — for forked
    /// same-id views — more members, then the lexicographically smaller
    /// member list. Exactly one side of any fork loses the comparison,
    /// so the fork heals with a single surviving lineage.
    fn on_not_in_view<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        view_id: u64,
        members: &[NodeId],
    ) {
        if self.cfg.model != GcsModel::ViewBased || !self.joined {
            return;
        }
        let same_id_theirs_wins = members.len() > self.view.members.len()
            || (members.len() == self.view.members.len() && members < self.view.members.as_slice());
        let theirs_wins = view_id > self.view.id
            || (view_id == self.view.id && members != self.view.members && same_id_theirs_wins);
        if !theirs_wins {
            // The SENDER holds the older view (it can happen to be a
            // member that missed a later install — e.g. its own state
            // transfer raced a follow-up view change). Counter-inform it
            // so the staleness heals in one round trip.
            if view_id < self.view.id {
                let reply_id = self.view.id;
                let reply_members = self.view.members.clone();
                self.net.send(
                    ctx,
                    self.me,
                    from,
                    Wire::<P, S>::NotInView {
                        view_id: reply_id,
                        members: reply_members,
                    },
                );
            }
            return;
        }
        // Sequence numbers this stale member accumulated but never got
        // into the surviving lineage must be released for re-forwarding.
        self.rollback_accumulator();
        self.seq_assign = None;
        self.vc = None;
        self.waiting_joiners.clear();
        self.suspected = 0;
        self.generation += 1;
        self.next_counter = self.next_counter.max(self.generation << 32);
        self.joined = false;
        self.join = Some(JoinState {
            generation: self.generation,
        });
        self.stats.demotions += 1;
        self.send_join_req(ctx);
    }

    fn send_join_req<M: GcsMessage<P, S>>(&mut self, ctx: &mut Ctx<'_, M>) {
        let generation = self.generation;
        self.net.multicast(
            ctx,
            self.me,
            &self.group_peers,
            Wire::<P, S>::JoinReq { generation },
        );
        ctx.timer(self.cfg.change_timeout, GcsTimer::JoinRetry { generation });
    }

    fn on_join_req<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        generation: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        if !self.joined {
            return;
        }
        if self.view.contains(from) {
            // A process only sends JoinReq after recovering, so its old
            // incarnation — still listed in the view — must be gone.
            // Suspect it so the view change drops the stale incarnation
            // while the join adds the fresh one.
            self.suspected |= self.rank_bit(from);
        }
        let transfer_in_flight = self
            .pending_state_transfers
            .iter()
            .any(|&(n, g, _, _)| n == from && g >= generation);
        let already_waiting = self
            .waiting_joiners
            .iter()
            .any(|&(n, g)| n == from && g >= generation);
        if !transfer_in_flight && !already_waiting {
            self.waiting_joiners.retain(|&(n, _)| n != from);
            self.waiting_joiners.push((from, generation));
        }
        // Even a deduplicated retry re-attempts the view change: an
        // earlier attempt may have been blocked (no coordinator quorum at
        // the time) with nothing else scheduled to retry it.
        if !transfer_in_flight {
            self.maybe_start_view_change(ctx, out);
        }
    }

    /// The host answers a [`GcsOutput::CheckpointRequest`] with the
    /// application state: `state` covers all deliveries up to
    /// `applied_seq`.
    pub fn checkpoint_ready<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        joiner: NodeId,
        generation: u64,
        state: S,
        applied_seq: u64,
    ) {
        let Some(pos) = self
            .pending_state_transfers
            .iter()
            .position(|(n, g, _, _)| *n == joiner && *g == generation)
        else {
            return;
        };
        let (_, _, view, watermark) = self.pending_state_transfers.remove(pos);
        // Another view change may have completed between the join's
        // finish and this reply; a joiner installing the stale view would
        // sequence (or listen) against an outdated membership. Ship the
        // current view instead, as long as it still lists the joiner.
        let (view, watermark) = if self.view.id > view.id && self.view.contains(joiner) {
            (self.view.clone(), watermark.max(self.max_seq_seen))
        } else {
            (view, watermark)
        };
        let tail = self.entries_between(applied_seq + 1, watermark);
        self.net.send(
            ctx,
            self.me,
            joiner,
            Wire::<P, S>::StateTransfer {
                view,
                applied_seq,
                tail,
                state,
                watermark,
            },
        );
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one Wire::StateTransfer, unpacked by the dispatch arm that receives it"
    )]
    fn on_state_transfer<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        view: View,
        applied_seq: u64,
        tail: Vec<Entry<P>>,
        state: S,
        watermark: u64,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        if self.join.is_none() {
            return; // not joining (duplicate transfer)
        }
        self.join = None;
        self.joined = true;
        self.set_view(view.clone());
        self.waiting_joiners.retain(|&(n, _)| !view.contains(n));
        self.next_deliver = applied_seq + 1;
        self.max_seq_seen = watermark;
        self.log.forget_entries();
        for e in tail {
            self.ordered_ids.insert(e.id, e.seq);
            if let Some(slot) = self.log.slot_mut(e.seq) {
                slot.entry = Some(e);
            }
        }
        self.hear_view(ctx.now());
        out.push(GcsOutput::InstallState { state, applied_seq });
        // The join's view change may have made this joiner the view
        // coordinator (it rejoins with its old — possibly smallest — id).
        // Every other member already ceded sequencing duty to it when
        // installing the view, so the joiner must pick the duty up here
        // or nobody holds it and ordering stalls group-wide.
        self.seq_assign = if view.coordinator() == Some(self.me) {
            Some(self.max_seq_seen.max(watermark) + 1)
        } else {
            None
        };
        // Deliver the tail (checkpoint gap) immediately: these entries were
        // flushed, so every member of the view holds them.
        self.flush_up_to(ctx, watermark, out);
        if self.cfg.guarantee == DeliveryGuarantee::Uniform {
            // The transferred prefix is held by every member of the view
            // (it was flushed into the checkpoint): group-stable.
            self.stable_floor = self.stable_floor.max(watermark);
        }
        // A live member that demoted and rejoined may still hold
        // broadcasts the abandoned lineage never ordered; re-forward
        // them to the surviving sequencer (no-op for freshly recovered
        // joiners, whose pending set died with the crash).
        if let Some(seq_node) = self.sequencer() {
            let pending: Vec<(MsgId, P)> =
                self.pending.iter().map(|(k, v)| (*k, v.clone())).collect();
            for (id, payload) in pending {
                self.net.send(
                    ctx,
                    self.me,
                    seq_node,
                    Wire::<P, S>::Forward { id, payload },
                );
            }
        }
        out.push(GcsOutput::Joined { view });
        self.stats.view_changes += 1;
    }

    // ------------------------------------------------------------------
    // Catch-up (crash-recovery model and view-change gap fill)
    // ------------------------------------------------------------------

    /// The stability votes to replay for the entries persisted locally
    /// at or above `from`, as `(lo, hi, era)` runs: contiguous, of one
    /// era, and at most `max_msgs` long — so an unbatched endpoint
    /// replays one vote per entry, as it voted in the first place.
    fn vote_runs(&self, from: u64) -> Vec<(u64, u64, u64)> {
        let cap = self.cfg.batch.max_msgs as u64;
        let mut runs: Vec<(u64, u64, u64)> = Vec::new();
        for (seq, slot) in self.log.range(from).filter(|(_, slot)| slot.persisted) {
            let era = slot.era();
            match runs.last_mut() {
                Some((lo, hi, run_era)) if *hi + 1 == seq && *run_era == era && seq - *lo < cap => {
                    *hi = seq
                }
                _ => runs.push((seq, seq, era)),
            }
        }
        runs
    }

    /// Highest sequence number with the whole prefix persisted locally.
    fn contiguous_persisted(&self) -> u64 {
        let mut k = 0;
        while self.log.get(k + 1).is_some_and(|slot| slot.persisted) {
            k += 1;
        }
        k
    }

    fn holds_entry(&self, seq: u64) -> bool {
        self.log.get(seq).is_some_and(|slot| slot.entry.is_some())
    }

    /// The entries held in `lo..=hi`, ascending (retransmission and
    /// state-transfer tails).
    fn entries_between(&self, lo: u64, hi: u64) -> Vec<Entry<P>> {
        self.assert_retained(lo);
        self.log
            .entries_from(lo)
            .take_while(|e| e.seq <= hi)
            .cloned()
            .collect()
    }

    fn on_catch_up_req<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        have_up_to: u64,
    ) {
        // View model: answering a non-member would leak this view's
        // stable floor into the requester's abandoned fork — a healed
        // minority could then uniformly deliver entries the group never
        // ordered. Tell it it was excluded instead (the same re-merge
        // path a stale heartbeat takes: demote, rejoin, state transfer).
        if self.cfg.model == GcsModel::ViewBased && self.joined && !self.view.contains(from) {
            let view_id = self.view.id;
            let members = self.view.members.clone();
            self.net.send(
                ctx,
                self.me,
                from,
                Wire::<P, S>::NotInView { view_id, members },
            );
            return;
        }
        self.assert_retained(have_up_to + 1);
        let entries: Vec<Entry<P>> = self.log.entries_from(have_up_to + 1).cloned().collect();
        // A peer recovering at the same time is a fresh source: if this
        // endpoint is itself waiting to resume sequencing, re-request a
        // catch-up from that peer (the original request may have been sent
        // while the peer was still down).
        if self.seq_resume_votes.is_some() {
            let have = self.contiguous_persisted();
            self.net.send(
                ctx,
                self.me,
                from,
                Wire::<P, S>::CatchUpReq { have_up_to: have },
            );
        }
        // Everything this endpoint has delivered under the uniform
        // guarantee is stable; let the requester skip re-collecting votes.
        let stable_up_to = match self.cfg.guarantee {
            DeliveryGuarantee::Uniform => self.next_deliver.saturating_sub(1),
            DeliveryGuarantee::NonUniform => 0,
        };
        self.net.send(
            ctx,
            self.me,
            from,
            Wire::<P, S>::CatchUp {
                entries,
                stable_up_to,
            },
        );
        // Re-send this endpoint's stability votes. Acks are normally
        // multicast once, at persist time; every ack that flew while the
        // requester was down is gone, and entries the responder has not
        // *delivered* yet (so `stable_up_to` does not cover them) would
        // otherwise never reach majority at the requester, stalling its
        // delivery cursor forever.
        let delivered = self.delivered_head();
        for (lo, hi, era) in self.vote_runs(stable_up_to + 1) {
            let vote = Wire::<P, S>::Ack {
                lo,
                hi,
                era,
                delivered,
            };
            self.net.send_frame(ctx, self.me, from, vote, hi - lo + 1);
        }
    }

    /// A coordinator mid-view-change asks a member for entries it misses.
    fn on_view_change_fetch<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        have_up_to: u64,
        epoch: u64,
    ) {
        self.assert_retained(have_up_to + 1);
        let entries: Vec<Entry<P>> = self.log.entries_from(have_up_to + 1).cloned().collect();
        self.net.send(
            ctx,
            self.me,
            from,
            Wire::<P, S>::SyncEntries { epoch, entries },
        );
    }

    // ------------------------------------------------------------------
    // Crash / recovery
    // ------------------------------------------------------------------

    /// The host actor crashed: wipe volatile state, and tell the network
    /// its beacons end. The stable log and the generation counter
    /// survive.
    pub fn on_crash(&mut self) {
        self.net.silence(self.me);
        self.wipe();
    }

    /// Drop all volatile state.
    fn wipe(&mut self) {
        self.started = false;
        self.joined = false;
        self.set_view(View::initial(self.group.clone()));
        self.pending.clear();
        self.seq_assign = None;
        self.ordered_ids.clear();
        self.log.clear();
        self.forget_reported_heads();
        self.trim_at = 0;
        self.next_deliver = 1;
        self.stable_floor = 0;
        self.stable_mark = 0;
        self.max_seq_seen = 0;
        self.last_heard.fill(SimTime::ZERO);
        self.suspected = 0;
        self.vc = None;
        self.waiting_joiners.clear();
        self.join = None;
        self.pending_state_transfers.clear();
        self.batch_acc.clear();
        self.batch_epoch += 1; // any armed flush deadline is now stale
        self.batch_timer_armed = false;
        self.resend_armed = false;
        self.gap_repair_armed = false;
        self.seq_resume_votes = None;
    }

    /// The host actor recovered. In the dynamic model this starts a join
    /// (new identity, state transfer). In the crash-recovery model it
    /// rebuilds from the stable log, redelivers per the end-to-end rules
    /// and catches up from peers.
    pub fn on_recover<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        out: &mut Vec<GcsOutput<P, S>>,
    ) {
        // Drain anything still sitting in the batch accumulator (a host
        // that recovers without a preceding `on_crash`): the entries were
        // never multicast, so their ids must be released for the senders'
        // resends to be re-ordered — otherwise those broadcasts would be
        // silently dropped by the sequencer's dedup.
        self.rollback_accumulator();
        self.generation += 1;
        self.started = true;
        // MsgId counters must never repeat across incarnations.
        self.next_counter = self.generation << 32;
        match self.cfg.model {
            GcsModel::ViewBased => {
                self.joined = false;
                self.join = Some(JoinState {
                    generation: self.generation,
                });
                self.send_join_req(ctx);
                ctx.timer(self.cfg.hb_interval, GcsTimer::Heartbeat);
            }
            GcsModel::CrashRecovery => {
                self.joined = true;
                // Rebuild the ordering state from the stable log.
                let mut delivered_prefix = 0;
                for (&seq, e) in &self.stable {
                    if let Some(slot) = self.log.slot_mut(seq) {
                        slot.entry = Some(Entry {
                            seq,
                            id: e.id,
                            payload: e.payload.clone(),
                            era: e.era,
                        });
                        slot.persisted = true;
                    }
                    self.ordered_ids.insert(e.id, seq);
                    self.max_seq_seen = self.max_seq_seen.max(seq);
                    if e.delivered && seq == delivered_prefix + 1 {
                        delivered_prefix = seq;
                    }
                }
                // Highest sequence number such that the whole prefix is in
                // the log (persist completions can have holes).
                let contiguous = self.contiguous_persisted();
                if self.cfg.end_to_end {
                    // §4.2: replay, in order, every logged entry that was
                    // handed up before the crash but never acknowledged by
                    // the application. Acked entries are skipped (refined
                    // uniform integrity: successful delivery at most once).
                    // Entries persisted but never delivered flow through the
                    // normal ordered path below.
                    let to_redeliver: Vec<u64> = self
                        .stable
                        .iter()
                        .filter(|(_, e)| e.delivered && !e.acked)
                        .map(|(s, _)| *s)
                        .collect();
                    for seq in to_redeliver {
                        if let Some(head) = self.log.get(seq).and_then(Deliverable::of) {
                            self.deliver_one(ctx, seq, head, true, out);
                        }
                    }
                    self.next_deliver = delivered_prefix + 1;
                } else {
                    // Classic integrity: entries marked delivered must not
                    // be delivered again — even if the application never
                    // processed them. This is the paper's §3 gap.
                    self.next_deliver = delivered_prefix + 1;
                }
                // Help others' stability and catch up on what we missed.
                for (lo, hi, _) in self.vote_runs(0) {
                    self.send_vote(ctx, lo, hi);
                }
                self.net.multicast(
                    ctx,
                    self.me,
                    &self.group_peers,
                    Wire::<P, S>::CatchUpReq {
                        have_up_to: contiguous,
                    },
                );
                if self.sequencer() == Some(self.me) {
                    // Do not resume sequencing yet: entries this sequencer
                    // ordered just before the crash may exist only on other
                    // nodes. Wait for catch-up replies from a majority
                    // first (`seq_resume_votes`), unless the group is a
                    // singleton. The request is retried until the majority
                    // answers — the first wave may be lost to a partition
                    // (e.g. a sequencer that recovers while isolated after
                    // a whole-group failure).
                    if self.group.len() == 1 {
                        self.seq_assign = Some(self.max_seq_seen + 1);
                    } else {
                        self.seq_resume_votes = Some(BTreeSet::new());
                        ctx.timer(self.cfg.change_timeout, GcsTimer::ResumeRetry);
                    }
                }
                self.try_deliver(ctx, out);
            }
        }
    }

    /// Driver-orchestrated restart after a *total* group failure in the
    /// dynamic model (Fig. 5): the surviving processes form a brand-new
    /// group; all group-communication history is gone. The application
    /// recovers from its own local stable state — any transaction that was
    /// delivered but never processed is lost, which is exactly the
    /// scenario the paper uses to show classic GC is not 2-safe.
    pub fn restart_group<M: GcsMessage<P, S>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        members: Vec<NodeId>,
        seq_base: u64,
    ) {
        assert_eq!(
            self.cfg.model,
            GcsModel::ViewBased,
            "restart_group is a dynamic-model operation"
        );
        // The host lives on, and so does the heartbeat chain that `start`
        // or `on_recover` armed: wake it if it is parked, arm no other.
        self.net.wake(self.me);
        self.wipe();
        self.generation += 1;
        self.started = true;
        self.joined = true;
        self.next_counter = self.generation << 32;
        self.set_view(View {
            id: (self.generation + 1) * 1_000_000, // fresh group: view ids restart above old ones
            members: {
                let mut m = members;
                m.sort_unstable();
                m.dedup();
                m
            },
        });
        // Sequence numbers continue above `seq_base` so versions derived
        // from them never regress below the recovered application state.
        self.next_deliver = seq_base + 1;
        self.max_seq_seen = seq_base;
        // The operator-reconciled state is the fresh group's baseline:
        // every member restarts from it, so it is stable by construction.
        self.stable_floor = seq_base;
        if self.view.coordinator() == Some(self.me) {
            self.seq_assign = Some(seq_base + 1);
        }
        self.hear_view(ctx.now());
    }

    /// Entries currently in the stable log (inspection/test helper).
    pub fn stable_log_seqs(&self) -> Vec<u64> {
        self.stable.keys().copied().collect()
    }
}

#[cfg(test)]
#[path = "tests/endpoint.rs"]
mod tests;
