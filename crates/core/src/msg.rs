//! Messages of the replicated database component, and [`CoreMsg`], the
//! one type a system's engine carries them in.

#![expect(
    clippy::indexing_slicing,
    reason = "w[0]/w[1] index a windows(2) slice, which always has exactly two elements"
)]

use std::rc::Rc;

use groupsafe_db::{DbCheckpoint, ItemId, Operation, TxnId, Value, Version, WriteOp};
use groupsafe_gcs::{GcsTimer, Wire};
use groupsafe_net::{Incoming, NodeId};
use groupsafe_sim::Message;

use crate::client::ClientTimer;
use crate::reads::{ReadReply, ReadRequest};
use crate::safety::SafetyLevel;
use crate::server::{RWire, RestartServerCmd, ServerTimer};

/// A transaction as submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRequest {
    /// Stable identity (kept across resubmissions of the same logical
    /// transaction — the testable-transaction key).
    pub id: TxnId,
    /// The operations, executed in order.
    pub ops: Vec<Operation>,
    /// Where to send the reply.
    pub client: NodeId,
    /// Resubmission attempt number (0 = first try; metrics only).
    pub attempt: u32,
    /// True for a snapshot-isolation transaction: the delegate executes
    /// the read phase against a consistent snapshot of the multi-version
    /// store and certification is first-committer-wins over the write
    /// set only (see [`crate::certify::certify_snapshot`]). False keeps
    /// the classic read-set-certified pipeline bit-for-bit.
    pub snapshot: bool,
    /// Session token for snapshot transactions: the client's highest
    /// acknowledged commit sequence number in the target group. The
    /// delegate pins a snapshot at least this fresh (read-your-writes
    /// across transactions), waiting bounded time if its applied state
    /// is behind. 0 for classic transactions.
    pub token: u64,
}

impl TxnRequest {
    /// True if the transaction contains at least one write.
    pub fn is_update(&self) -> bool {
        self.ops.iter().any(|o| o.is_write())
    }
}

/// Client → server network message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Execute this transaction (the receiving server is the delegate).
    Request(TxnRequest),
}

/// Server → client network message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerReply {
    /// The transaction committed (per the technique's safety criterion).
    Committed {
        /// Transaction id.
        txn: TxnId,
        /// Attempt number being answered.
        attempt: u32,
        /// The delivery sequence number the commit was applied at in the
        /// replying group (0 when the path carries none: read-only
        /// transactions on the classic path, the lazy baseline). Clients
        /// fold it into their per-group session tokens so follower reads
        /// at [`ReadLevel::Session`](crate::reads::ReadLevel::Session)
        /// observe their own writes.
        commit_seq: u64,
    },
    /// The transaction was aborted (certification conflict or deadlock
    /// victim); the client may resubmit.
    Aborted {
        /// Transaction id.
        txn: TxnId,
        /// Attempt number being answered.
        attempt: u32,
    },
}

/// The payload atomically broadcast by the database state machine
/// technique: the transaction's read set (with observed versions, for
/// certification) and its write set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmMsg {
    /// Transaction id.
    pub txn: TxnId,
    /// Attempt number (echoed in the delegate's reply).
    pub attempt: u32,
    /// The delegate that executed the read phase.
    pub delegate: NodeId,
    /// The client awaiting the reply.
    pub client: NodeId,
    /// Items read, with the committed versions observed.
    pub readset: Vec<(ItemId, Version)>,
    /// Items written, with the new values (versions are assigned from the
    /// delivery sequence number at certification time).
    pub writes: Vec<(ItemId, Value)>,
    /// The delivery sequence number the delegate's read phase executed
    /// against, for snapshot-isolation transactions: certification at
    /// every replica is first-committer-wins over `writes` against this
    /// snapshot ([`crate::certify::certify_snapshot`]). `None` selects
    /// classic read-set certification.
    pub snapshot: Option<u64>,
}

/// What a replica group atomically broadcasts: ordinary single-group
/// transactions, or one of the two phases of the cross-group commit
/// protocol (certify-everywhere, then a coordinator decision broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupMsg {
    /// A single-group transaction (the classic database-state-machine
    /// broadcast).
    Txn(DsmMsg),
    /// Phase 1 of a cross-group commit: certify this group's slice and
    /// vote to the coordinator.
    XgPrepare(XgPrepare),
    /// Phase 2 of a cross-group commit: the coordinator's decision,
    /// ordered by this group's broadcast so every replica applies (or
    /// discards) the slice at the same point of the delivery sequence.
    XgDecision(XgDecision),
}

impl GroupMsg {
    /// The decision, if this is a [`GroupMsg::XgDecision`].
    pub fn xg_decision(&self) -> Option<&XgDecision> {
        match self {
            GroupMsg::XgDecision(d) => Some(d),
            GroupMsg::Txn(_) | GroupMsg::XgPrepare(_) => None,
        }
    }
}

/// Phase 1 of the cross-group protocol, broadcast within one touched
/// group: the group's slice of the transaction (read set for
/// certification, write set for the reservation). At delivery every
/// replica of the group reaches the same verdict (certification plus a
/// reservation-conflict check) and the broadcasting delegate sends an
/// [`XgVote`] to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XgPrepare {
    /// Transaction id.
    pub txn: TxnId,
    /// Attempt number (echoed through votes and the final reply).
    pub attempt: u32,
    /// The server that executed this slice's read phase and broadcast the
    /// prepare (this group's gateway, or the coordinator itself for its
    /// home slice).
    pub delegate: NodeId,
    /// The coordinator server awaiting the votes.
    pub coordinator: NodeId,
    /// The client awaiting the final reply (carried for failover
    /// diagnostics; the reply is sent by the coordinator).
    pub client: NodeId,
    /// This group's id (sanity/diagnostics).
    pub group: u32,
    /// Items read by this slice, with observed versions.
    pub readset: Vec<(ItemId, Version)>,
    /// Items this slice writes, with the new values.
    pub writes: Vec<(ItemId, Value)>,
}

/// A group's certification vote for a cross-group transaction, sent by
/// the group's prepare delegate to the coordinator after the prepare's
/// (uniform) delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XgVote {
    /// Transaction id.
    pub txn: TxnId,
    /// Attempt the vote answers.
    pub attempt: u32,
    /// The voting group.
    pub group: u32,
    /// True = this group certifies its slice.
    pub commit: bool,
}

/// Phase 2 of the cross-group protocol: the coordinator's decision. One
/// copy is broadcast in every touched group; each group applies only its
/// own slice of `writes_by_group`. The decision is self-contained (it
/// carries the writes) so replicas that joined mid-protocol via state
/// transfer apply it without any prepare-side bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XgDecision {
    /// Transaction id.
    pub txn: TxnId,
    /// Attempt being decided.
    pub attempt: u32,
    /// True = every touched group voted commit.
    pub commit: bool,
    /// The coordinator that decided (and replies to the client).
    pub coordinator: NodeId,
    /// The client awaiting the reply.
    pub client: NodeId,
    /// Every touched group (the cross-group atomicity oracle audits
    /// all-or-nothing over exactly this set).
    pub groups: Vec<u32>,
    /// Per-group write slices, aligned with `groups`.
    pub writes_by_group: Vec<Vec<(ItemId, Value)>>,
}

impl XgDecision {
    /// The write slice of `group`, if it is touched.
    pub fn writes_of(&self, group: u32) -> Option<&[(ItemId, Value)]> {
        self.groups
            .iter()
            .position(|&g| g == group)
            .map(|i| self.writes_by_group[i].as_slice())
    }
}

/// Coordinator → remote-group gateway: execute the read phase for this
/// slice and broadcast its [`XgPrepare`] in your group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XgSubRequest {
    /// Transaction id.
    pub txn: TxnId,
    /// Attempt number.
    pub attempt: u32,
    /// The coordinator to vote to.
    pub coordinator: NodeId,
    /// The client (diagnostics; the coordinator replies).
    pub client: NodeId,
    /// This group's slice of the transaction's operations.
    pub ops: Vec<Operation>,
}

/// Coordinator → remote-group gateway: broadcast this decision in your
/// group (phase 2 fan-out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XgDecisionFwd(pub XgDecision);

/// A participant's liveness probe: a group delivered a prepare but no
/// decision after a timeout (lost forward, crashed coordinator). Any
/// replica that has the decision answers with an [`XgDecisionFwd`];
/// probes rotate through the coordinator's group until one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XgStatusQuery {
    /// The undecided transaction.
    pub txn: TxnId,
}

/// Very-safe confirmation: a replica tells the delegate that `txn`'s
/// commit record reached its disk. The delegate answers the client only
/// once every group member confirmed (§2.1: "logged on all servers" —
/// which is why a single crash blocks commits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedConfirm {
    /// The transaction now durable at the sender.
    pub txn: TxnId,
}

/// Lazy propagation message: write sets shipped asynchronously from the
/// delegate to the other replicas (no ordering, no certification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LazyPropagation {
    /// Write sets, each with the versions the delegate assigned at its
    /// local commit (origin timestamps; Thomas write rule applies them).
    pub writesets: Vec<(TxnId, Vec<WriteOp>)>,
}

/// Everything a system's engine delivers, one half per kind of actor.
/// Senders pass the value they mean — a timer, a wire message, a driver
/// command — and the `From` table below files it; each actor dispatches
/// its half with an exhaustive `match`. A message for the other half is
/// a wiring fault: the receiver drops it and counts it under
/// `misrouted`.
///
/// Three words wide, so a pending event fills a 32-byte kernel slot:
/// [`ServerTimer`] is the one three-word variant, everything else fits in
/// the two words beside its tag, and what is larger travels boxed.
/// Multicast traffic is one `Rc` that every receiver of the fan-out
/// shares.
#[derive(Debug, Clone)]
pub enum CoreMsg {
    /// For a [`ReplicaServer`](crate::ReplicaServer).
    Server(ServerEvent),
    /// For a [`Client`](crate::Client).
    Client(ClientEvent),
}

impl Message for CoreMsg {
    fn kind(&self) -> &'static str {
        match self {
            CoreMsg::Server(ev) => ev.kind(),
            CoreMsg::Client(ev) => ev.kind(),
        }
    }
}

impl ServerEvent {
    /// The event's kind, for an engine census.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerEvent::Init => "server.init",
            ServerEvent::Restart(_) => "server.restart",
            ServerEvent::SwitchSafety(_) => "server.switch-safety",
            ServerEvent::InstallCheckpoint(_) => "server.install-checkpoint",
            ServerEvent::Wire(inc) => inc.msg.kind(),
            ServerEvent::Heartbeat(_) => "gcs.wire.heartbeat",
            ServerEvent::Request(_) => "server.request",
            ServerEvent::Read(_) => "server.read",
            ServerEvent::Confirm(_) => "server.confirm",
            ServerEvent::Lazy(_) => "server.lazy",
            ServerEvent::XgSub(_) => "server.xg-sub",
            ServerEvent::XgVote(_) => "server.xg-vote",
            ServerEvent::XgDecision(_) => "server.xg-decision",
            ServerEvent::XgStatusQuery(_) => "server.xg-status-query",
            ServerEvent::Gcs(timer) => timer.kind(),
            ServerEvent::Timer(timer) => timer.kind(),
        }
    }
}

impl ClientEvent {
    /// The event's kind, for an engine census.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientEvent::Start => "client.start",
            ClientEvent::Stop => "client.stop",
            ClientEvent::Reply(_) => "client.reply",
            ClientEvent::ReadReply(_) => "client.read-reply",
            ClientEvent::Timer(ClientTimer::Arrival) => "client.timer.arrival",
            ClientEvent::Timer(ClientTimer::Timeout { .. }) => "client.timer.timeout",
            ClientEvent::Timer(ClientTimer::Resubmit { .. }) => "client.timer.resubmit",
        }
    }
}

/// What a replica server receives.
#[derive(Debug, Clone)]
pub enum ServerEvent {
    /// Driver: initialise the server.
    Init,
    /// Driver, after a *total* group failure in the dynamic model: all
    /// processes restart as a brand-new group.
    Restart(Box<RestartServerCmd>),
    /// Operator: switch the reply point between group-safe and
    /// group-1-safe at runtime (§5.2: "switching between group-1-safe and
    /// group-safe can be done easily at runtime"). Both levels run on the
    /// same uniform atomic broadcast, so only the reply point changes;
    /// transactions delivered after the switch follow the new level.
    SwitchSafety(SafetyLevel),
    /// Driver: adopt this checkpoint (operator-driven reconciliation
    /// after a total failure: every replica installs the most advanced
    /// recovered state — a durable-prefix union, since all states are
    /// prefixes of the same delivery history).
    InstallCheckpoint(Box<DbCheckpoint>),
    /// Group-communication traffic other than heartbeats.
    Wire(Rc<Incoming<RWire>>),
    /// A failure-detector heartbeat from this node: it travels without
    /// an allocation, and only while the server does not hear beacons —
    /// in steady state heartbeats are accounted, not sent (see
    /// `ReplicaServer::publish_beacons`).
    Heartbeat(NodeId),
    /// A client's transaction, for this server as its delegate.
    Request(Box<TxnRequest>),
    /// A client's read on the local read path.
    Read(Box<ReadRequest>),
    /// Very-safe: a replica logged the transaction.
    Confirm(Box<Incoming<LoggedConfirm>>),
    /// Lazy write sets from another replica's delegate.
    Lazy(Box<LazyPropagation>),
    /// Cross-group: execute a remote slice as its group's gateway.
    XgSub(Box<XgSubRequest>),
    /// Cross-group: a group's vote, for this server as coordinator.
    XgVote(Box<XgVote>),
    /// Cross-group: broadcast this decision in this server's group.
    XgDecision(Box<XgDecision>),
    /// Cross-group: a participant's probe for a lost decision.
    XgStatusQuery(Box<Incoming<XgStatusQuery>>),
    /// A timer of the server's group-communication endpoint.
    Gcs(GcsTimer),
    /// A timer of the server itself.
    Timer(ServerTimer),
}

/// What a client receives.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// Driver: start generating load.
    Start,
    /// Driver: stop generating new transactions (outstanding ones still
    /// complete — used to drain the system before verification).
    Stop,
    /// A server's answer to a transaction.
    Reply(Box<ServerReply>),
    /// A server's answer to a local-path read.
    ReadReply(Box<ReadReply>),
    /// A timer of the client itself.
    Timer(ClientTimer),
}

/// The `From` table: one impl per value a system's engine carries, each
/// filing it in its variant.
macro_rules! carry {
    ($($value:ty => |$v:ident| $msg:expr;)+) => {
        $(impl From<$value> for CoreMsg {
            fn from($v: $value) -> CoreMsg {
                $msg
            }
        })+
    };
}

carry! {
    ServerEvent => |ev| CoreMsg::Server(ev);
    ClientEvent => |ev| CoreMsg::Client(ev);
    GcsTimer => |t| CoreMsg::Server(ServerEvent::Gcs(t));
    ServerTimer => |t| CoreMsg::Server(ServerEvent::Timer(t));
    ClientTimer => |t| CoreMsg::Client(ClientEvent::Timer(t));
    Incoming<RWire> => |inc| CoreMsg::Server(if let Wire::Heartbeat = inc.msg {
        ServerEvent::Heartbeat(inc.from)
    } else {
        ServerEvent::Wire(Rc::new(inc))
    });
    Incoming<ClientMsg> => |inc| {
        let ClientMsg::Request(req) = inc.msg;
        CoreMsg::Server(ServerEvent::Request(Box::new(req)))
    };
    Incoming<ReadRequest> => |inc| CoreMsg::Server(ServerEvent::Read(Box::new(inc.msg)));
    Incoming<LoggedConfirm> => |inc| CoreMsg::Server(ServerEvent::Confirm(Box::new(inc)));
    Incoming<LazyPropagation> => |inc| CoreMsg::Server(ServerEvent::Lazy(Box::new(inc.msg)));
    Incoming<XgSubRequest> => |inc| CoreMsg::Server(ServerEvent::XgSub(Box::new(inc.msg)));
    Incoming<XgVote> => |inc| CoreMsg::Server(ServerEvent::XgVote(Box::new(inc.msg)));
    Incoming<XgDecisionFwd> => |inc| CoreMsg::Server(ServerEvent::XgDecision(Box::new(inc.msg.0)));
    Incoming<XgStatusQuery> => |inc| CoreMsg::Server(ServerEvent::XgStatusQuery(Box::new(inc)));
    Incoming<ServerReply> => |inc| CoreMsg::Client(ClientEvent::Reply(Box::new(inc.msg)));
    Incoming<ReadReply> => |inc| CoreMsg::Client(ClientEvent::ReadReply(Box::new(inc.msg)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_detection() {
        let ro = TxnRequest {
            id: TxnId { client: 0, seq: 1 },
            ops: vec![Operation::Read(ItemId(1))],
            client: NodeId(9),
            attempt: 0,
            snapshot: false,
            token: 0,
        };
        assert!(!ro.is_update());
        let rw = TxnRequest {
            ops: vec![Operation::Read(ItemId(1)), Operation::Write(ItemId(2), 5)],
            ..ro.clone()
        };
        assert!(rw.is_update());
    }
}
