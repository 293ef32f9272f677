//! Wire messages and message identities for the group communication layer.

use groupsafe_net::NodeId;

use crate::view::View;

/// Globally unique message identity: origin node plus an origin-local
/// counter. Survives reordering and resends (dedup key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The node that A-broadcast the message.
    pub origin: NodeId,
    /// Origin-local sequence number.
    pub counter: u64,
}

/// A totally-ordered log entry: global sequence number, identity, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<P> {
    /// Position in the global total order (1-based).
    pub seq: u64,
    /// Message identity.
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
    /// The sequencer incarnation that assigned this entry's sequence
    /// number (static crash-recovery model; always 0 in the view-based
    /// model, whose view-change flush already serialises reassignment).
    /// A crashed sequencer can lose the log tail for entries it ordered
    /// but that never stabilised; its next incarnation then reassigns
    /// those sequence numbers to different messages. The era makes the
    /// supersession explicit: holders replace an *undelivered* entry
    /// when a higher-era assignment for its seq arrives, and stability
    /// votes only count for the era they were cast for.
    pub era: u64,
}

/// Wire protocol of the group communication component.
///
/// `P` is the application payload, `S` the application checkpoint type
/// (used by state transfer in the dynamic crash no-recovery model).
#[derive(Debug, Clone)]
pub enum Wire<P, S> {
    /// Sender → sequencer: please order this message.
    Forward {
        /// Message identity (dedup key for resends).
        id: MsgId,
        /// Payload.
        payload: P,
    },
    /// Sequencer → all: one frame of ordered entries, a contiguous run
    /// of sequence numbers. An unbatched sequencer sends frames of one;
    /// a batched one packs up to [`crate::BatchConfig::max_msgs`].
    /// Every receiver stores the frame, persists it with one stable-log
    /// write (crash-recovery model) and votes for it with one
    /// [`Wire::Ack`].
    Ordered {
        /// View (or era) in which the order was assigned.
        view: u64,
        /// The entries, in ascending contiguous `seq` order.
        entries: Vec<Entry<P>>,
    },
    /// All → all: "I have (and, in the crash-recovery model, have
    /// persisted) the entries at `lo..=hi`" — one stability vote for
    /// each. Majority of votes ⇒ stability.
    Ack {
        /// First acknowledged sequence number.
        lo: u64,
        /// Last acknowledged sequence number (inclusive).
        hi: u64,
        /// Era of the acknowledged entries (see [`Entry::era`]), which
        /// they all share: votes for a superseded incarnation of a seq
        /// must not count toward its replacement's stability.
        era: u64,
        /// The sender's delivery head when it voted: every sequence
        /// number at or below it is delivered at the sender. A receiver
        /// keeps the highest head each member reported, and the
        /// view-based endpoint frees the log below the lowest of them
        /// (the group has delivered it, so no member asks for it again).
        delivered: u64,
    },
    /// Failure-detector heartbeat.
    Heartbeat,
    /// Coordinator → proposed members: start synchronising for a new view.
    ViewStart {
        /// Monotone epoch of this view-change attempt.
        epoch: u64,
        /// Proposed member set.
        proposed: Vec<NodeId>,
    },
    /// Member → coordinator: my ordering state for the view change.
    SyncReply {
        /// Epoch being answered.
        epoch: u64,
        /// Highest sequence number I have seen an entry for.
        max_seq: u64,
        /// My next undelivered sequence number.
        next_deliver: u64,
    },
    /// Coordinator → member: send me entries above `have_up_to` so I can
    /// complete the flush (answered with [`Wire::SyncEntries`]).
    SyncFetch {
        /// Epoch of the running view change.
        epoch: u64,
        /// Highest contiguous sequence number the coordinator holds.
        have_up_to: u64,
    },
    /// Member → coordinator: entries the coordinator asked for.
    SyncEntries {
        /// Epoch being answered.
        epoch: u64,
        /// The requested entries.
        entries: Vec<Entry<P>>,
    },
    /// Coordinator → members: install this view; all entries up to
    /// `watermark` must be delivered in it (virtual-synchrony flush).
    NewView {
        /// The new view.
        view: View,
        /// Every member delivers up to here before switching.
        watermark: u64,
        /// The flush: the entries from the lowest delivery head any
        /// member reported up to `watermark`, in ascending `seq` order.
        /// They travel in the same message as the view, so a member that
        /// installs it holds every entry it must deliver.
        entries: Vec<Entry<P>>,
    },
    /// Member → non-member: "you are not in my (newer) view". Sent in
    /// response to a heartbeat from a process the receiver's view does
    /// not list — after a healed partition, the excluded minority keeps
    /// heartbeating its stale membership and would otherwise block
    /// forever without learning the group moved on. A receiver whose
    /// view is older demotes itself and rejoins via [`Wire::JoinReq`].
    NotInView {
        /// The sender's current view id.
        view_id: u64,
        /// The sender's current membership. Breaks ties between forked
        /// same-id views: the fork with fewer members (then the
        /// lexicographically larger one) demotes.
        members: Vec<NodeId>,
    },
    /// Recovered process (new incarnation) → all: let me join.
    JoinReq {
        /// Joiner's incarnation generation (dedup across retries).
        generation: u64,
    },
    /// Coordinator → joiner: application checkpoint plus the entries the
    /// checkpoint does not yet cover.
    StateTransfer {
        /// View the joiner becomes part of.
        view: View,
        /// The checkpoint covers all deliveries up to this sequence number.
        applied_seq: u64,
        /// Entries in `(applied_seq, watermark]`, redelivered at the joiner.
        tail: Vec<Entry<P>>,
        /// Application checkpoint.
        state: S,
        /// Watermark of the flush that accompanied the join.
        watermark: u64,
    },
    /// Recovering process (crash-recovery model) → all: send me entries
    /// with `seq > have_up_to`.
    CatchUpReq {
        /// Highest sequence number present in the requester's stable log.
        have_up_to: u64,
    },
    /// Reply to [`Wire::CatchUpReq`].
    CatchUp {
        /// Entries in ascending `seq` order.
        entries: Vec<Entry<P>>,
        /// Everything at or below this sequence number is stable at the
        /// responder (it delivered them under the uniform guarantee), so
        /// the requester may treat them as stable too.
        stable_up_to: u64,
    },
}

/// Timers the endpoint schedules on its host actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcsTimer {
    /// Emit a heartbeat and check peers for silence.
    Heartbeat,
    /// The one stable-log write covering a whole frame finished
    /// (crash-recovery model).
    Persisted {
        /// First sequence number of the frame.
        lo: u64,
        /// Entries in the frame, whose sequence numbers are contiguous:
        /// it covers `lo..lo + span`. A `u32` keeps the timer two words
        /// wide, small enough to travel inline in a host's message.
        span: u32,
    },
    /// A view-change attempt timed out; retry.
    ViewChangeRetry {
        /// Epoch of the timed-out attempt.
        epoch: u64,
    },
    /// A join attempt timed out; retry.
    JoinRetry {
        /// Generation of the timed-out attempt.
        generation: u64,
    },
    /// Re-send not-yet-ordered broadcasts to the sequencer (static
    /// crash-recovery model, where there is no view change to trigger it).
    ResendPending,
    /// A sequence hole persisted (static crash-recovery model, where no
    /// view-change flush exists to refill it): ask the group for the
    /// entries above the contiguous prefix.
    GapRepair,
    /// The recovering sequencer's resumption grace elapsed: enough
    /// catch-up confirmations arrived, and every reply of the same wave
    /// has landed — resume assigning above everything seen.
    SeqResume,
    /// The recovering sequencer is still short of its majority of
    /// catch-up confirmations: re-multicast the request (the first wave
    /// may have been lost to a partition or burst — without a retry the
    /// whole group would stay sequencer-less forever).
    ResumeRetry,
    /// The sequencer's batch accumulator hit its `max_delay` deadline.
    /// Carries the batch epoch at arming time: a flush armed before a
    /// crash or view change must not flush the next incarnation's
    /// accumulator.
    BatchFlush {
        /// Batch epoch the timer belongs to.
        epoch: u64,
    },
}

impl<P, S> Wire<P, S> {
    /// The message's kind, for an engine census.
    pub fn kind(&self) -> &'static str {
        match self {
            Wire::Forward { .. } => "gcs.wire.forward",
            Wire::Ordered { .. } => "gcs.wire.ordered",
            Wire::Ack { .. } => "gcs.wire.ack",
            Wire::Heartbeat => "gcs.wire.heartbeat",
            Wire::ViewStart { .. } => "gcs.wire.view-start",
            Wire::SyncReply { .. } => "gcs.wire.sync-reply",
            Wire::SyncFetch { .. } => "gcs.wire.sync-fetch",
            Wire::SyncEntries { .. } => "gcs.wire.sync-entries",
            Wire::NewView { .. } => "gcs.wire.new-view",
            Wire::NotInView { .. } => "gcs.wire.not-in-view",
            Wire::JoinReq { .. } => "gcs.wire.join-req",
            Wire::StateTransfer { .. } => "gcs.wire.state-transfer",
            Wire::CatchUpReq { .. } => "gcs.wire.catch-up-req",
            Wire::CatchUp { .. } => "gcs.wire.catch-up",
        }
    }
}

impl GcsTimer {
    /// The timer's kind, for an engine census.
    pub fn kind(&self) -> &'static str {
        match self {
            GcsTimer::Heartbeat => "gcs.timer.heartbeat",
            GcsTimer::Persisted { .. } => "gcs.timer.persisted",
            GcsTimer::ViewChangeRetry { .. } => "gcs.timer.view-change-retry",
            GcsTimer::JoinRetry { .. } => "gcs.timer.join-retry",
            GcsTimer::ResendPending => "gcs.timer.resend-pending",
            GcsTimer::GapRepair => "gcs.timer.gap-repair",
            GcsTimer::SeqResume => "gcs.timer.seq-resume",
            GcsTimer::ResumeRetry => "gcs.timer.resume-retry",
            GcsTimer::BatchFlush { .. } => "gcs.timer.batch-flush",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_orders_by_origin_then_counter() {
        let a = MsgId {
            origin: NodeId(0),
            counter: 5,
        };
        let b = MsgId {
            origin: NodeId(1),
            counter: 1,
        };
        assert!(a < b);
        let c = MsgId {
            origin: NodeId(0),
            counter: 6,
        };
        assert!(a < c);
    }

    #[test]
    fn entries_carry_payloads() {
        let e = Entry {
            seq: 3,
            id: MsgId {
                origin: NodeId(2),
                counter: 1,
            },
            payload: "txn".to_string(),
            era: 0,
        };
        let w: Wire<String, ()> = Wire::Ordered {
            view: 0,
            entries: vec![e],
        };
        let Wire::Ordered { entries, .. } = w else {
            panic!("built as Wire::Ordered");
        };
        assert_eq!(entries.first().map(|e| e.payload.as_str()), Some("txn"));
    }
}
