//! Client actors: submit transactions to a delegate, measure response
//! times, resubmit after aborts and timeouts (update-everywhere: a
//! timeout switches to another delegate; testable transactions make the
//! retry safe).
//!
//! In a sharded system each transaction is routed to the group owning its
//! first key (the coordinator group of a cross-group transaction);
//! failover rotates through that group's members.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use groupsafe_db::{Operation, TxnId};
use groupsafe_net::{Network, NodeId};
use groupsafe_sim::{Actor, Ctx, ObsEvent, SimDuration, SimTime};

use crate::msg::{ClientEvent, ClientMsg, CoreMsg, ServerReply, TxnRequest};
use crate::obs_txn;
use crate::reads::{ReadLevel, ReadPath, ReadReply, ReadRequest};
use crate::shard::ShardMap;
use crate::verify::{Oracle, ReadAckRecord};

/// How a client generates load.
#[derive(Debug, Clone, Copy)]
pub enum LoadModel {
    /// Open loop: Poisson arrivals with the given mean inter-arrival
    /// time, independent of outstanding requests.
    Open {
        /// Mean inter-arrival time.
        mean_interarrival: SimDuration,
    },
    /// Closed loop: one outstanding transaction; after each reply, think
    /// (exponentially distributed) before the next submission.
    Closed {
        /// Mean think time.
        mean_think: SimDuration,
    },
}

/// One generated transaction: its operations plus how it travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnPlan {
    /// The operations, executed in order.
    pub ops: Vec<Operation>,
    /// True = submit as a snapshot-isolation transaction (snapshot read
    /// phase, write-set-only certification); false = the classic
    /// read-set-certified pipeline.
    pub snapshot: bool,
}

impl TxnPlan {
    /// A classic (non-snapshot) transaction over these operations.
    pub fn new(ops: Vec<Operation>) -> Self {
        TxnPlan {
            ops,
            snapshot: false,
        }
    }

    /// A snapshot-isolation transaction over these operations.
    pub fn snapshot(ops: Vec<Operation>) -> Self {
        TxnPlan {
            ops,
            snapshot: true,
        }
    }
}

impl From<Vec<Operation>> for TxnPlan {
    fn from(ops: Vec<Operation>) -> Self {
        TxnPlan::new(ops)
    }
}

/// Generates each new transaction (operations + how it travels).
pub type OpGenerator = Box<dyn FnMut(&mut StdRng) -> TxnPlan>;

/// Client configuration.
pub struct ClientConfig {
    /// This client's network node.
    pub node: NodeId,
    /// Numeric client id (first component of its transaction ids).
    pub id: u32,
    /// Preferred delegate server (the routing fallback for an empty
    /// transaction; normal routing targets the owning group).
    pub home: NodeId,
    /// Total number of servers across all groups.
    pub n_servers: u32,
    /// Servers per replica group (timeout failover rotates within the
    /// coordinator group; equals `n_servers` when unsharded).
    pub servers_per_group: u32,
    /// The key → group router transactions are routed by.
    pub shard: Rc<ShardMap>,
    /// Load model.
    pub load: LoadModel,
    /// Give up waiting for a reply after this long and resubmit elsewhere.
    pub timeout: SimDuration,
    /// Discard response samples recorded before this instant (warm-up).
    pub measure_from: SimTime,
    /// How read-only transactions travel (classic pipeline, broadcast,
    /// or the local follower-read path — see [`crate::reads`]).
    pub reads: ReadPath,
}

/// Client-internal timers. A transaction is named by its sequence
/// number alone — its client is the one the timer fires at — which keeps
/// a timer two words wide.
#[derive(Debug, Clone, Copy)]
pub enum ClientTimer {
    /// The next transaction is due.
    Arrival,
    /// No answer to this attempt in time: resubmit elsewhere.
    Timeout {
        /// Sequence number of the transaction.
        seq: u64,
        /// The attempt the timeout covers.
        attempt: u32,
    },
    /// Deferred abort-resubmission (contention backoff).
    Resubmit {
        /// Sequence number of the transaction.
        seq: u64,
        /// The attempt being retried.
        attempt: u32,
    },
}

struct Outstanding {
    ops: Vec<Operation>,
    attempt: u32,
    sent_at: SimTime,
    first_sent_at: SimTime,
    target: NodeId,
    /// `Some(level)` when the transaction travels on the local read
    /// path (read-only, single-group, path = `Local`).
    read_level: Option<ReadLevel>,
    /// Read-only transaction on any path (classifies the ack).
    readonly: bool,
    /// Snapshot-isolation transaction (carries the session token so the
    /// delegate pins a read-your-writes snapshot).
    snapshot: bool,
}

/// The client actor.
pub struct Client {
    cfg: ClientConfig,
    net: Network,
    oracle: Rc<RefCell<Oracle>>,
    rng: StdRng,
    gen: OpGenerator,
    next_seq: u64,
    outstanding: std::collections::BTreeMap<TxnId, Outstanding>,
    /// Per-group session tokens: the highest commit/read sequence number
    /// this session has observed in each group (read-your-writes +
    /// monotonic reads on the local read path).
    tokens: std::collections::BTreeMap<u32, u64>,
    stopped: bool,
}

impl Client {
    /// Build a client.
    pub fn new(
        cfg: ClientConfig,
        net: Network,
        oracle: Rc<RefCell<Oracle>>,
        rng: StdRng,
        gen: OpGenerator,
    ) -> Self {
        Client {
            cfg,
            net,
            oracle,
            rng,
            gen,
            next_seq: 0,
            outstanding: std::collections::BTreeMap::new(),
            tokens: std::collections::BTreeMap::new(),
            stopped: false,
        }
    }

    /// This client's transaction with sequence number `seq`.
    fn txn(&self, seq: u64) -> TxnId {
        TxnId {
            client: self.cfg.id,
            seq,
        }
    }

    fn exp_sample(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.rng.random_range(1e-12..1.0);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    fn schedule_next_arrival(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        let delay = match self.cfg.load {
            LoadModel::Open { mean_interarrival } => self.exp_sample(mean_interarrival),
            LoadModel::Closed { mean_think } => self.exp_sample(mean_think),
        };
        ctx.timer(delay, ClientTimer::Arrival);
    }

    /// The server a transaction is first sent to: this client's rank
    /// within the group owning the transaction's first key (its
    /// coordinator group when it spans several). Reduces to the fixed
    /// home server in an unsharded system.
    fn coordinator_for(&self, ops: &[Operation]) -> NodeId {
        let spg = self.cfg.servers_per_group.max(1);
        let group = ops
            .first()
            .map(|op| self.cfg.shard.group_of(op.item()))
            .unwrap_or(self.cfg.home.0 / spg);
        NodeId(group * spg + self.cfg.id % spg)
    }

    /// The group a server belongs to.
    fn group_of(&self, server: NodeId) -> u32 {
        server.0 / self.cfg.servers_per_group.max(1)
    }

    /// This session's token for `group` (0 until it observes a commit or
    /// read there).
    fn token(&self, group: u32) -> u64 {
        self.tokens.get(&group).copied().unwrap_or(0)
    }

    fn advance_token(&mut self, group: u32, seq: u64) {
        if seq > 0 {
            let slot = self.tokens.entry(group).or_insert(0);
            *slot = (*slot).max(seq);
        }
    }

    fn submit_new(&mut self, ctx: &mut Ctx<'_, CoreMsg>) {
        self.next_seq += 1;
        let id = self.txn(self.next_seq);
        let plan = (self.gen)(&mut self.rng);
        let ops = plan.ops;
        let now = ctx.now();
        let target = self.coordinator_for(&ops);
        let readonly = !ops.is_empty() && ops.iter().all(|o| !o.is_write());
        // The local read path serves read-only single-group transactions
        // at any replica of the owning group; everything else (updates,
        // cross-group reads) keeps the classic pipeline.
        let read_level = match self.cfg.reads {
            ReadPath::Local(level) if readonly && self.cfg.shard.groups_of(&ops).len() == 1 => {
                Some(level)
            }
            // Exhaustive on purpose: a new read path must decide here
            // whether it is served locally or through the pipeline.
            ReadPath::Local(_) | ReadPath::Classic | ReadPath::Broadcast => None,
        };
        self.outstanding.insert(
            id,
            Outstanding {
                ops: ops.clone(),
                attempt: 0,
                sent_at: now,
                first_sent_at: now,
                target,
                read_level,
                readonly,
                snapshot: plan.snapshot,
            },
        );
        self.send_request(ctx, id);
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_, CoreMsg>, id: TxnId) {
        #[expect(
            clippy::expect_used,
            reason = "the id was drawn from self.outstanding's own key set one statement earlier in the same borrow scope"
        )]
        let o = self.outstanding.get(&id).expect("outstanding");
        let target = o.target;
        let attempt = o.attempt;
        if let Some(level) = o.read_level {
            let token = if level == ReadLevel::Session {
                self.token(self.group_of(target))
            } else {
                0
            };
            let req = ReadRequest {
                id,
                items: o.ops.iter().map(|op| op.item()).collect(),
                client: self.cfg.node,
                level,
                token,
                attempt,
            };
            ctx.emit(|| ObsEvent::ReadSubmit { read: obs_txn(id) });
            self.net.send(ctx, self.cfg.node, target, req);
        } else {
            // Snapshot transactions carry the session token so the
            // delegate's snapshot observes this session's prior commits
            // (read-your-writes across transactions).
            let token = if o.snapshot {
                self.token(self.group_of(target))
            } else {
                0
            };
            let req = TxnRequest {
                id,
                ops: o.ops.clone(),
                client: self.cfg.node,
                attempt,
                snapshot: o.snapshot,
                token,
            };
            ctx.emit(|| ObsEvent::ClientSubmit {
                txn: obs_txn(id),
                attempt,
            });
            self.net
                .send(ctx, self.cfg.node, target, ClientMsg::Request(req));
        }
        let seq = id.seq;
        ctx.timer(self.cfg.timeout, ClientTimer::Timeout { seq, attempt });
    }

    fn resubmit(&mut self, ctx: &mut Ctx<'_, CoreMsg>, id: TxnId, rotate: bool) {
        let spg = self.cfg.servers_per_group.max(1);
        let Some(o) = self.outstanding.get_mut(&id) else {
            return;
        };
        o.attempt += 1;
        o.sent_at = ctx.now();
        if rotate {
            // Update-everywhere within the owning group: any of its
            // servers can act as the delegate/coordinator.
            let base = (o.target.0 / spg) * spg;
            o.target = NodeId(base + (o.target.0 - base + 1) % spg);
            let to = o.target.0;
            ctx.emit(|| ObsEvent::Forward {
                txn: obs_txn(id),
                to,
            });
        }
        self.send_request(ctx, id);
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, CoreMsg>, reply: ServerReply) {
        match reply {
            ServerReply::Committed {
                txn,
                attempt,
                commit_seq,
            } => {
                let Some(o) = self.outstanding.get(&txn) else {
                    return; // duplicate reply after failover
                };
                if attempt != o.attempt {
                    return; // stale attempt
                }
                ctx.emit(|| ObsEvent::ClientAck {
                    txn: obs_txn(txn),
                    attempt,
                    committed: true,
                });
                let now = ctx.now();
                let resp_ms = (now - o.sent_at).as_millis_f64();
                let total_ms = (now - o.first_sent_at).as_millis_f64();
                let group = self.group_of(o.target);
                let readonly = o.readonly;
                if now >= self.cfg.measure_from {
                    ctx.metrics().summarize("response_ms", resp_ms);
                    ctx.metrics().record("response_total_ms", total_ms);
                }
                let mut oracle = self.oracle.borrow_mut();
                oracle.record_ack(txn, now);
                if readonly {
                    // Classic/broadcast-path read-only commit: recorded
                    // so the read throughput accounting sees it (no
                    // snapshot travels on these paths).
                    oracle.record_read_ack(ReadAckRecord {
                        txn,
                        group,
                        level: None,
                        snapshot_seq: commit_seq,
                        at: now,
                        response_ms: resp_ms,
                    });
                }
                drop(oracle);
                // Fold the commit point into the session token: follower
                // reads at the session level will observe this write.
                self.advance_token(group, commit_seq);
                self.outstanding.remove(&txn);
                if matches!(self.cfg.load, LoadModel::Closed { .. }) {
                    self.schedule_next_arrival(ctx);
                }
            }
            ServerReply::Aborted { txn, attempt } => {
                let Some(o) = self.outstanding.get(&txn) else {
                    return;
                };
                if attempt != o.attempt {
                    return;
                }
                ctx.emit(|| ObsEvent::ClientAck {
                    txn: obs_txn(txn),
                    attempt,
                    committed: false,
                });
                if ctx.now() >= self.cfg.measure_from {
                    ctx.metrics().incr("client_aborts_seen");
                }
                // Resubmit to the same delegate: a fresh execution reads
                // fresh versions and will usually pass certification. A
                // transaction that keeps aborting (hot contention, a
                // cross-group reservation it keeps colliding with, or a
                // stale-readset loop under delivery backlog) backs off
                // exponentially, so a conflict storm drains the backlog
                // that feeds it instead of sustaining it at the
                // pipeline's capacity forever.
                if o.attempt == 0 {
                    self.resubmit(ctx, txn, false);
                } else {
                    let backoff =
                        SimDuration::from_millis(5) * (1u64 << u64::from(o.attempt.min(8)));
                    let attempt = o.attempt;
                    let seq = txn.seq;
                    ctx.timer(backoff, ClientTimer::Resubmit { seq, attempt });
                }
            }
        }
    }

    fn on_read_reply(&mut self, ctx: &mut Ctx<'_, CoreMsg>, reply: ReadReply) {
        match reply {
            ReadReply::Served {
                txn,
                attempt,
                group,
                snapshot_seq,
                values: _,
            } => {
                let Some(o) = self.outstanding.get(&txn) else {
                    return; // duplicate reply after a redirect race
                };
                if attempt != o.attempt {
                    return; // stale attempt
                }
                let Some(level) = o.read_level else {
                    // A read reply for a transaction the client no longer
                    // tracks as a read (a resubmission switched paths):
                    // drop it rather than panic — the classic reply wins.
                    return;
                };
                if level == ReadLevel::Session && snapshot_seq < self.token(group) {
                    // The session already observed a newer snapshot (a
                    // concurrent commit or read advanced the token while
                    // this reply was in flight): accepting it would break
                    // monotonic reads. Retry at another member with the
                    // current token.
                    ctx.metrics().incr("read_stale_replies");
                    self.resubmit(ctx, txn, true);
                    return;
                }
                ctx.emit(|| ObsEvent::ReadReply { read: obs_txn(txn) });
                let now = ctx.now();
                let resp_ms = (now - o.sent_at).as_millis_f64();
                let total_ms = (now - o.first_sent_at).as_millis_f64();
                if now >= self.cfg.measure_from {
                    ctx.metrics().summarize("response_ms", resp_ms);
                    ctx.metrics().record("response_total_ms", total_ms);
                }
                let mut oracle = self.oracle.borrow_mut();
                oracle.record_local_read_ack(txn, now);
                oracle.record_read_ack(ReadAckRecord {
                    txn,
                    group,
                    level: Some(level),
                    snapshot_seq,
                    at: now,
                    response_ms: resp_ms,
                });
                drop(oracle);
                self.advance_token(group, snapshot_seq);
                self.outstanding.remove(&txn);
                if matches!(self.cfg.load, LoadModel::Closed { .. }) {
                    self.schedule_next_arrival(ctx);
                }
            }
            ReadReply::Redirect { txn, attempt, .. } => {
                let Some(o) = self.outstanding.get(&txn) else {
                    return;
                };
                if attempt != o.attempt {
                    return;
                }
                // The replica could not catch up to the session within
                // its bounded wait: rotate to the next group member.
                ctx.metrics().incr("read_redirects_followed");
                self.resubmit(ctx, txn, true);
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, CoreMsg>, txn: TxnId, attempt: u32) {
        let Some(o) = self.outstanding.get(&txn) else {
            return; // already answered
        };
        if o.attempt != attempt {
            return; // answered and resubmitted since
        }
        self.oracle.borrow_mut().timeouts += 1;
        ctx.metrics().incr("client_timeouts");
        // Update-everywhere: any server can act as the delegate.
        self.resubmit(ctx, txn, true);
    }
}

impl Actor<CoreMsg> for Client {
    fn on_event(&mut self, ctx: &mut Ctx<'_, CoreMsg>, msg: CoreMsg) {
        let ev = match msg {
            CoreMsg::Client(ev) => ev,
            CoreMsg::Server(_) => return ctx.metrics().incr("misrouted"),
        };
        match ev {
            ClientEvent::Start => self.schedule_next_arrival(ctx),
            ClientEvent::Stop => self.stopped = true,
            ClientEvent::Reply(reply) => self.on_reply(ctx, *reply),
            ClientEvent::ReadReply(reply) => self.on_read_reply(ctx, *reply),
            ClientEvent::Timer(ClientTimer::Arrival) => {
                if self.stopped {
                    return;
                }
                self.submit_new(ctx);
                if matches!(self.cfg.load, LoadModel::Open { .. }) {
                    self.schedule_next_arrival(ctx);
                }
            }
            ClientEvent::Timer(ClientTimer::Timeout { seq, attempt }) => {
                self.on_timeout(ctx, self.txn(seq), attempt)
            }
            ClientEvent::Timer(ClientTimer::Resubmit { seq, attempt }) => {
                let txn = self.txn(seq);
                let still = self
                    .outstanding
                    .get(&txn)
                    .is_some_and(|o| o.attempt == attempt);
                if still {
                    self.resubmit(ctx, txn, false);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "client"
    }
}
