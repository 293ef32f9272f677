//! Deterministic structured observability: typed pipeline events, a
//! bounded flight recorder, and byte-stable exporters.
//!
//! The one event record: actors emit typed [`ObsEvent`]s through
//! [`crate::Ctx::emit`]; the kernel stamps them with the actor id and the
//! *simulated* clock only (never wall clock — the GS-D02 lint applies
//! here as everywhere), so the recorded stream is a pure function of the
//! seed and is byte-identical across runs and across schedulers.
//!
//! Three recording modes ([`ObsMode`]):
//!
//! * **Disabled** — `emit` is a single branch; nothing is evaluated or
//!   stored (the zero-cost contract the bench overhead gate pins).
//! * **Ring** — a bounded ring buffer keeps the last *N* events (the
//!   flight recorder appended to oracle-violation repro dumps).
//! * **Stream** — the full event stream is retained in dispatch order,
//!   feeding the per-commit phase decomposition ([`decompose_commits`])
//!   and the exporters ([`Obs::chrome_trace`], [`prometheus_snapshot`]).
//!
//! Recording never touches the dispatch fingerprint, the RNG, or the
//! event queue: enabling any mode leaves the simulation's behaviour
//! bit-for-bit identical (pinned by `tests/obs_off_equivalence.rs`).

use std::collections::{BTreeMap, VecDeque};

use crate::engine::ActorId;
use crate::metrics::Metrics;
use crate::time::SimTime;

/// Default flight-recorder capacity (events retained in [`ObsMode::Ring`]).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One typed event in the commit / read / recovery lifecycle.
///
/// The taxonomy follows the replication pipeline end to end: client
/// submit → delegate execution → broadcast hand-off → batch flush →
/// sequencing → multicast transmission → stable-log write → vote →
/// uniform delivery → certification → apply → reply → client ack — plus
/// the read path, the cross-group 2PC rounds, view changes / state
/// transfer, and WAL syncs.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A client handed a transaction attempt to its delegate.
    ClientSubmit {
        /// Global transaction id.
        txn: u64,
        /// Attempt number (resubmissions after aborts/timeouts).
        attempt: u32,
    },
    /// The delegate started local execution of a transaction.
    ExecStart {
        /// Global transaction id.
        txn: u64,
    },
    /// A request was forwarded to another server (e.g. delegate hand-off).
    Forward {
        /// Global transaction id.
        txn: u64,
        /// Raw destination server id.
        to: u32,
    },
    /// Local execution finished; the write set enters atomic broadcast.
    BroadcastTxn {
        /// Global transaction id.
        txn: u64,
    },
    /// The sequencer flushed a batch of pending broadcasts into a frame.
    BatchFlush {
        /// Messages packed into the flushed frame.
        size: u32,
    },
    /// The sequencer stamped a frame with its global sequence number.
    Sequence {
        /// Global sequence number assigned.
        seq: u64,
    },
    /// A frame left on the wire towards the group.
    MulticastSend {
        /// Destinations addressed by this transmission.
        fanout: u32,
    },
    /// A replica persisted a frame to its stable log.
    StableWrite {
        /// Global sequence number persisted.
        seq: u64,
    },
    /// A replica voted a frame stable (uniform-delivery quorum input).
    Vote {
        /// Global sequence number voted for.
        seq: u64,
    },
    /// The uniformity condition held; the frame was delivered upward.
    UniformDeliver {
        /// Global sequence number delivered.
        seq: u64,
    },
    /// The database state machine certified a delivered transaction.
    Certify {
        /// Global transaction id.
        txn: u64,
        /// Certification outcome.
        committed: bool,
    },
    /// A replica applied a certified write set to its database.
    Apply {
        /// Global transaction id.
        txn: u64,
    },
    /// The delegate's reply point passed; the response left for the client.
    Reply {
        /// Global transaction id.
        txn: u64,
        /// Replica group of the replying delegate.
        group: u32,
        /// Outcome carried by the reply.
        committed: bool,
    },
    /// The client received the delegate's reply.
    ClientAck {
        /// Global transaction id.
        txn: u64,
        /// Attempt number the reply answers.
        attempt: u32,
        /// Outcome observed by the client.
        committed: bool,
    },
    /// A read-only transaction entered the read path.
    ReadSubmit {
        /// Read request id.
        read: u64,
    },
    /// A replica served (or redirected) a local read.
    ReadServe {
        /// Read request id.
        read: u64,
        /// True when served after a freshness redirect.
        redirected: bool,
    },
    /// The client received the read reply.
    ReadReply {
        /// Read request id.
        read: u64,
    },
    /// Cross-group 2PC: the coordinator sent prepares.
    XgPrepare {
        /// Global transaction id.
        txn: u64,
    },
    /// Cross-group 2PC: a participant group voted.
    XgVote {
        /// Global transaction id.
        txn: u64,
        /// Voting group.
        group: u32,
        /// True for a commit vote.
        commit: bool,
    },
    /// Cross-group 2PC: the coordinator's decision was delivered.
    XgDecision {
        /// Global transaction id.
        txn: u64,
        /// The decision.
        commit: bool,
    },
    /// A group-communication view change completed.
    ViewChange {
        /// New view identifier.
        view: u64,
    },
    /// A joiner installed a state-transfer checkpoint.
    StateTransfer {
        /// Sequence number the installed state covers.
        applied_seq: u64,
    },
    /// A write-ahead-log flush reached stable storage.
    WalSync {
        /// Last stable log sequence number.
        lsn: u64,
    },
    /// The lazy (1-safe) baseline propagated a batch of updates.
    LazyPropagate {
        /// Updates in the propagation batch.
        count: u32,
    },
}

impl ObsEvent {
    /// The stage name: a stable, Prometheus-safe identifier for the
    /// pipeline stage this event belongs to.
    pub fn stage(&self) -> &'static str {
        match self {
            ObsEvent::ClientSubmit { .. } => "client_submit",
            ObsEvent::ExecStart { .. } => "exec_start",
            ObsEvent::Forward { .. } => "forward",
            ObsEvent::BroadcastTxn { .. } => "broadcast",
            ObsEvent::BatchFlush { .. } => "batch_flush",
            ObsEvent::Sequence { .. } => "sequence",
            ObsEvent::MulticastSend { .. } => "multicast_send",
            ObsEvent::StableWrite { .. } => "stable_write",
            ObsEvent::Vote { .. } => "vote",
            ObsEvent::UniformDeliver { .. } => "uniform_deliver",
            ObsEvent::Certify { .. } => "certify",
            ObsEvent::Apply { .. } => "apply",
            ObsEvent::Reply { .. } => "reply",
            ObsEvent::ClientAck { .. } => "client_ack",
            ObsEvent::ReadSubmit { .. } => "read_submit",
            ObsEvent::ReadServe { .. } => "read_serve",
            ObsEvent::ReadReply { .. } => "read_reply",
            ObsEvent::XgPrepare { .. } => "xg_prepare",
            ObsEvent::XgVote { .. } => "xg_vote",
            ObsEvent::XgDecision { .. } => "xg_decision",
            ObsEvent::ViewChange { .. } => "view_change",
            ObsEvent::StateTransfer { .. } => "state_transfer",
            ObsEvent::WalSync { .. } => "wal_sync",
            ObsEvent::LazyPropagate { .. } => "lazy_propagate",
        }
    }

    /// Deterministic one-line rendering: the stage followed by its fields
    /// in declaration order (`stage k=v ...`).
    pub fn render(&self) -> String {
        match self {
            ObsEvent::ClientSubmit { txn, attempt } => {
                format!("client_submit txn={txn} attempt={attempt}")
            }
            ObsEvent::ExecStart { txn } => format!("exec_start txn={txn}"),
            ObsEvent::Forward { txn, to } => format!("forward txn={txn} to={to}"),
            ObsEvent::BroadcastTxn { txn } => format!("broadcast txn={txn}"),
            ObsEvent::BatchFlush { size } => format!("batch_flush size={size}"),
            ObsEvent::Sequence { seq } => format!("sequence seq={seq}"),
            ObsEvent::MulticastSend { fanout } => format!("multicast_send fanout={fanout}"),
            ObsEvent::StableWrite { seq } => format!("stable_write seq={seq}"),
            ObsEvent::Vote { seq } => format!("vote seq={seq}"),
            ObsEvent::UniformDeliver { seq } => format!("uniform_deliver seq={seq}"),
            ObsEvent::Certify { txn, committed } => {
                format!("certify txn={txn} committed={committed}")
            }
            ObsEvent::Apply { txn } => format!("apply txn={txn}"),
            ObsEvent::Reply {
                txn,
                group,
                committed,
            } => format!("reply txn={txn} group={group} committed={committed}"),
            ObsEvent::ClientAck {
                txn,
                attempt,
                committed,
            } => format!("client_ack txn={txn} attempt={attempt} committed={committed}"),
            ObsEvent::ReadSubmit { read } => format!("read_submit read={read}"),
            ObsEvent::ReadServe { read, redirected } => {
                format!("read_serve read={read} redirected={redirected}")
            }
            ObsEvent::ReadReply { read } => format!("read_reply read={read}"),
            ObsEvent::XgPrepare { txn } => format!("xg_prepare txn={txn}"),
            ObsEvent::XgVote { txn, group, commit } => {
                format!("xg_vote txn={txn} group={group} commit={commit}")
            }
            ObsEvent::XgDecision { txn, commit } => {
                format!("xg_decision txn={txn} commit={commit}")
            }
            ObsEvent::ViewChange { view } => format!("view_change view={view}"),
            ObsEvent::StateTransfer { applied_seq } => {
                format!("state_transfer applied_seq={applied_seq}")
            }
            ObsEvent::WalSync { lsn } => format!("wal_sync lsn={lsn}"),
            ObsEvent::LazyPropagate { count } => format!("lazy_propagate count={count}"),
        }
    }
}

/// One recorded event: the typed payload stamped with sim time and the
/// emitting actor.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Simulated instant of emission.
    pub time: SimTime,
    /// The emitting actor.
    pub actor: ActorId,
    /// The typed event.
    pub event: ObsEvent,
}

impl ObsRecord {
    /// Deterministic one-line rendering (`<nanos> a<actor> <event>`), the
    /// unit of the byte-identical stream/flight-recorder contract.
    pub fn render(&self) -> String {
        format!(
            "{} a{} {}",
            self.time.as_nanos(),
            self.actor.0,
            self.event.render()
        )
    }
}

/// Recording mode of the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Nothing is recorded; `emit` costs one branch.
    Disabled,
    /// Only the bounded flight-recorder ring retains the last-N events.
    Ring,
    /// The full event stream is retained (plus the ring tail).
    Stream,
}

/// Configuration of the observability layer: mode + ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Recording mode.
    pub mode: ObsMode,
    /// Flight-recorder capacity (events; ignored when disabled).
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    /// The always-on flight recorder: ring mode at the default capacity.
    fn default() -> Self {
        ObsConfig::ring(DEFAULT_RING_CAPACITY)
    }
}

impl ObsConfig {
    /// No recording at all (the zero-cost mode).
    pub fn disabled() -> Self {
        ObsConfig {
            mode: ObsMode::Disabled,
            ring_capacity: 0,
        }
    }

    /// Flight recorder only, retaining the last `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        ObsConfig {
            mode: ObsMode::Ring,
            ring_capacity: capacity.max(1),
        }
    }

    /// Full stream recording (phase decomposition + exporters).
    pub fn stream() -> Self {
        ObsConfig {
            mode: ObsMode::Stream,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

/// The recording sink owned by the simulation kernel.
///
/// Stamps and stores [`ObsEvent`]s per the configured [`ObsMode`]. All
/// queries are deterministic: events are kept in emission (dispatch)
/// order, and the per-stage counters iterate in name order.
#[derive(Debug)]
pub struct Obs {
    mode: ObsMode,
    ring_capacity: usize,
    stream: Vec<ObsRecord>,
    ring: VecDeque<ObsRecord>,
    stages: BTreeMap<&'static str, u64>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::disabled())
    }
}

impl Obs {
    /// Create a sink with the given configuration.
    pub fn new(cfg: ObsConfig) -> Self {
        Obs {
            mode: cfg.mode,
            ring_capacity: cfg.ring_capacity.max(1),
            stream: Vec::new(),
            ring: VecDeque::new(),
            stages: BTreeMap::new(),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Record one event; `event` is only evaluated when recording is
    /// active (the zero-cost-when-disabled contract).
    #[inline]
    pub fn emit_with(&mut self, time: SimTime, actor: ActorId, event: impl FnOnce() -> ObsEvent) {
        if matches!(self.mode, ObsMode::Disabled) {
            return;
        }
        let record = ObsRecord {
            time,
            actor,
            event: event(),
        };
        *self.stages.entry(record.event.stage()).or_insert(0) += 1;
        if matches!(self.mode, ObsMode::Stream) {
            self.stream.push(record.clone());
        }
        if self.ring.len() == self.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }

    /// The full event stream, in emission order (empty unless
    /// [`ObsMode::Stream`]).
    pub fn events(&self) -> &[ObsRecord] {
        &self.stream
    }

    /// The flight-recorder tail: the last-N retained events, oldest first.
    pub fn ring_tail(&self) -> Vec<&ObsRecord> {
        self.ring.iter().collect()
    }

    /// Per-stage emission counters, in stage-name order.
    pub fn stage_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.stages.iter().map(|(k, v)| (*k, *v))
    }

    /// Total events recorded (stream mode) or seen (ring mode).
    pub fn total_recorded(&self) -> u64 {
        self.stages.values().sum()
    }

    /// Render the full stream, one line per event (byte-identical across
    /// runs with the same seed — the determinism contract).
    pub fn render_stream(&self) -> String {
        let mut out = String::new();
        for r in &self.stream {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Render the flight-recorder tail, one line per event.
    pub fn render_tail(&self) -> String {
        let mut out = String::new();
        for r in &self.ring {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Export the stream as Chrome trace-event JSON (Perfetto-loadable):
    /// one instant event per record, `ts` in microseconds of sim time,
    /// `tid` = actor id. Field order and number formatting are fixed, so
    /// the export is byte-identical across double runs.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in self.stream.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let nanos = r.time.as_nanos();
            // Integer microseconds + 3-digit nanosecond remainder keeps the
            // timestamp exact without float formatting.
            out.push_str(&format!(
                "{{\"name\":{:?},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}.{:03},\"args\":{{\"detail\":{:?}}}}}",
                r.event.stage(),
                r.actor.0,
                nanos / 1_000,
                nanos % 1_000,
                r.event.render(),
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Export a Prometheus text-format snapshot of the metrics registry plus
/// the obs stage counters. Ordering is the registries' own `BTreeMap`
/// name order and all numbers are formatted deterministically, so double
/// runs produce byte-identical snapshots.
pub fn prometheus_snapshot(metrics: &Metrics, obs: &Obs) -> String {
    fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        let n = sanitize(name);
        out.push_str(&format!(
            "# TYPE groupsafe_{n}_total counter\ngroupsafe_{n}_total {value}\n"
        ));
    }
    for (name, count, sum) in metrics.series() {
        let n = sanitize(name);
        out.push_str(&format!(
            "# TYPE groupsafe_{n} summary\ngroupsafe_{n}_count {count}\ngroupsafe_{n}_sum {sum:.6}\n"
        ));
    }
    out.push_str("# TYPE groupsafe_obs_events_total counter\n");
    for (stage, count) in obs.stage_counts() {
        out.push_str(&format!(
            "groupsafe_obs_events_total{{stage=\"{stage}\"}} {count}\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Phase decomposition
// ---------------------------------------------------------------------

/// Per-commit phase breakdown derived from the event stream: the four
/// consecutive milestones of one successful attempt. The phase durations
/// sum *exactly* to the end-to-end latency because each phase ends where
/// the next begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitSpan {
    /// Global transaction id.
    pub txn: u64,
    /// Replica group of the replying delegate.
    pub group: u32,
    /// Client submit → delegate execution start (request wire + queueing).
    pub submit_ms: f64,
    /// Execution start → broadcast hand-off (local 2PL execution).
    pub exec_ms: f64,
    /// Broadcast hand-off → reply point (ordering, stability wait,
    /// certification — the safety-level-dependent rump).
    pub commit_ms: f64,
    /// Reply point → client receipt (reply wire).
    pub reply_ms: f64,
}

impl CommitSpan {
    /// End-to-end latency: the sum of the four phases.
    pub fn total_ms(&self) -> f64 {
        self.submit_ms + self.exec_ms + self.commit_ms + self.reply_ms
    }
}

/// Reconstruct per-commit spans from a recorded stream.
///
/// Walks the stream once, tracking the latest `ClientSubmit` /
/// `ExecStart` / `BroadcastTxn` / `Reply` milestone per transaction; a
/// committed `ClientAck` whose milestones are complete and monotone
/// yields one [`CommitSpan`]. Attempts that failed over mid-pipeline
/// (crash, timeout resubmission) simply produce no span.
pub fn decompose_commits(events: &[ObsRecord]) -> Vec<CommitSpan> {
    struct Milestones {
        submit: Option<(SimTime, u32)>,
        exec: Option<SimTime>,
        broadcast: Option<SimTime>,
        reply: Option<(SimTime, u32)>,
    }
    let mut pending: BTreeMap<u64, Milestones> = BTreeMap::new();
    let mut spans = Vec::new();
    let ms = |a: SimTime, b: SimTime| (b.as_nanos() - a.as_nanos()) as f64 / 1_000_000.0;
    for r in events {
        match r.event {
            ObsEvent::ClientSubmit { txn, attempt } => {
                let m = pending.entry(txn).or_insert(Milestones {
                    submit: None,
                    exec: None,
                    broadcast: None,
                    reply: None,
                });
                // A resubmission restarts the span; stale milestones from
                // the failed attempt must not leak into the new one.
                *m = Milestones {
                    submit: Some((r.time, attempt)),
                    exec: None,
                    broadcast: None,
                    reply: None,
                };
            }
            ObsEvent::ExecStart { txn } => {
                if let Some(m) = pending.get_mut(&txn) {
                    m.exec = Some(r.time);
                }
            }
            ObsEvent::BroadcastTxn { txn } => {
                if let Some(m) = pending.get_mut(&txn) {
                    m.broadcast = Some(r.time);
                }
            }
            ObsEvent::Reply {
                txn,
                group,
                committed: true,
            } => {
                if let Some(m) = pending.get_mut(&txn) {
                    m.reply = Some((r.time, group));
                }
            }
            ObsEvent::ClientAck {
                txn,
                attempt,
                committed: true,
            } => {
                let Some(m) = pending.remove(&txn) else {
                    continue;
                };
                let (
                    Some((t_submit, sub_attempt)),
                    Some(t_exec),
                    Some(t_bcast),
                    Some((t_reply, group)),
                ) = (m.submit, m.exec, m.broadcast, m.reply)
                else {
                    continue;
                };
                if sub_attempt != attempt
                    || t_exec < t_submit
                    || t_bcast < t_exec
                    || t_reply < t_bcast
                    || r.time < t_reply
                {
                    continue;
                }
                spans.push(CommitSpan {
                    txn,
                    group,
                    submit_ms: ms(t_submit, t_exec),
                    exec_ms: ms(t_exec, t_bcast),
                    commit_ms: ms(t_bcast, t_reply),
                    reply_ms: ms(t_reply, r.time),
                });
            }
            ObsEvent::Reply {
                committed: false, ..
            }
            | ObsEvent::ClientAck {
                committed: false, ..
            }
            | ObsEvent::Forward { .. }
            | ObsEvent::BatchFlush { .. }
            | ObsEvent::Sequence { .. }
            | ObsEvent::MulticastSend { .. }
            | ObsEvent::StableWrite { .. }
            | ObsEvent::Vote { .. }
            | ObsEvent::UniformDeliver { .. }
            | ObsEvent::Certify { .. }
            | ObsEvent::Apply { .. }
            | ObsEvent::ReadSubmit { .. }
            | ObsEvent::ReadServe { .. }
            | ObsEvent::ReadReply { .. }
            | ObsEvent::XgPrepare { .. }
            | ObsEvent::XgVote { .. }
            | ObsEvent::XgDecision { .. }
            | ObsEvent::ViewChange { .. }
            | ObsEvent::StateTransfer { .. }
            | ObsEvent::WalSync { .. }
            | ObsEvent::LazyPropagate { .. } => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(nanos: u64, actor: u32, event: ObsEvent) -> ObsRecord {
        ObsRecord {
            time: SimTime::from_nanos(nanos),
            actor: ActorId(actor),
            event,
        }
    }

    #[test]
    fn disabled_records_nothing_and_skips_closures() {
        let mut obs = Obs::new(ObsConfig::disabled());
        obs.emit_with(SimTime::ZERO, ActorId(0), || {
            panic!("closure must not run when disabled")
        });
        assert_eq!(obs.total_recorded(), 0);
        assert!(obs.events().is_empty());
        assert!(obs.ring_tail().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut obs = Obs::new(ObsConfig::ring(3));
        for i in 0..10u64 {
            obs.emit_with(SimTime::from_nanos(i), ActorId(0), || ObsEvent::Sequence {
                seq: i,
            });
        }
        let tail = obs.ring_tail();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].event, ObsEvent::Sequence { seq: 7 });
        assert_eq!(tail[2].event, ObsEvent::Sequence { seq: 9 });
        // Ring mode counts everything but retains no stream.
        assert_eq!(obs.total_recorded(), 10);
        assert!(obs.events().is_empty());
    }

    #[test]
    fn stream_retains_everything_in_order() {
        let mut obs = Obs::new(ObsConfig::stream());
        obs.emit_with(SimTime::from_nanos(1), ActorId(1), || ObsEvent::Vote {
            seq: 4,
        });
        obs.emit_with(SimTime::from_nanos(2), ActorId(2), || ObsEvent::Apply {
            txn: 9,
        });
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.render_stream(), "1 a1 vote seq=4\n2 a2 apply txn=9\n");
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let mut obs = Obs::new(ObsConfig::stream());
        obs.emit_with(SimTime::from_nanos(1_234_567), ActorId(3), || {
            ObsEvent::StableWrite { seq: 8 }
        });
        let a = obs.chrome_trace();
        let b = obs.chrome_trace();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"ts\":1234.567"));
        assert!(a.contains("\"tid\":3"));
        assert!(a.trim_end().ends_with("]}"));
    }

    #[test]
    fn prometheus_snapshot_lists_stages_in_order() {
        let mut obs = Obs::new(ObsConfig::ring(8));
        obs.emit_with(SimTime::ZERO, ActorId(0), || ObsEvent::Vote { seq: 1 });
        obs.emit_with(SimTime::ZERO, ActorId(0), || ObsEvent::Apply { txn: 1 });
        obs.emit_with(SimTime::ZERO, ActorId(0), || ObsEvent::Vote { seq: 2 });
        let mut m = Metrics::new();
        m.incr("commits");
        m.record("resp_ms", 4.0);
        let snap = prometheus_snapshot(&m, &obs);
        assert!(snap.contains("groupsafe_commits_total 1\n"));
        assert!(snap.contains("groupsafe_resp_ms_count 1\n"));
        assert!(snap.contains("groupsafe_obs_events_total{stage=\"apply\"} 1\n"));
        assert!(snap.contains("groupsafe_obs_events_total{stage=\"vote\"} 2\n"));
        // apply sorts before vote (BTreeMap order).
        let apply_at = snap.find("stage=\"apply\"").unwrap();
        let vote_at = snap.find("stage=\"vote\"").unwrap();
        assert!(apply_at < vote_at);
    }

    /// A summary exports the rows a histogram fed the same samples
    /// exports, in name order among the histograms.
    #[test]
    fn a_summary_exports_like_a_histogram_in_name_order() {
        let obs = Obs::new(ObsConfig::disabled());
        let samples = [3.25, 0.1, 1e6 / 3.0, 0.2];
        let mut full = Metrics::new();
        let mut split = Metrics::new();
        for v in samples {
            for name in ["a_ms", "m_ms", "z_ms"] {
                full.record(name, v);
            }
            split.record("a_ms", v);
            split.summarize("m_ms", v);
            split.record("z_ms", v);
        }
        let snap = prometheus_snapshot(&split, &obs);
        assert_eq!(snap, prometheus_snapshot(&full, &obs));
        let a = snap.find("groupsafe_a_ms_count").unwrap();
        let m = snap.find("groupsafe_m_ms_count").unwrap();
        let z = snap.find("groupsafe_z_ms_count").unwrap();
        assert!(a < m && m < z);
    }

    #[test]
    fn decompose_reconciles_with_end_to_end() {
        let events = vec![
            rec(1_000_000, 9, ObsEvent::ClientSubmit { txn: 7, attempt: 0 }),
            rec(3_000_000, 0, ObsEvent::ExecStart { txn: 7 }),
            rec(8_000_000, 0, ObsEvent::BroadcastTxn { txn: 7 }),
            rec(
                20_000_000,
                0,
                ObsEvent::Reply {
                    txn: 7,
                    group: 0,
                    committed: true,
                },
            ),
            rec(
                22_000_000,
                9,
                ObsEvent::ClientAck {
                    txn: 7,
                    attempt: 0,
                    committed: true,
                },
            ),
        ];
        let spans = decompose_commits(&events);
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.txn, 7);
        assert_eq!(s.group, 0);
        assert!((s.submit_ms - 2.0).abs() < 1e-12);
        assert!((s.exec_ms - 5.0).abs() < 1e-12);
        assert!((s.commit_ms - 12.0).abs() < 1e-12);
        assert!((s.reply_ms - 2.0).abs() < 1e-12);
        assert!((s.total_ms() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn decompose_skips_incomplete_and_restarted_attempts() {
        let events = vec![
            // First attempt dies mid-pipeline; resubmission completes.
            rec(1, 9, ObsEvent::ClientSubmit { txn: 1, attempt: 0 }),
            rec(2, 0, ObsEvent::ExecStart { txn: 1 }),
            rec(10, 9, ObsEvent::ClientSubmit { txn: 1, attempt: 1 }),
            rec(11, 0, ObsEvent::ExecStart { txn: 1 }),
            rec(12, 0, ObsEvent::BroadcastTxn { txn: 1 }),
            rec(
                13,
                0,
                ObsEvent::Reply {
                    txn: 1,
                    group: 2,
                    committed: true,
                },
            ),
            rec(
                14,
                9,
                ObsEvent::ClientAck {
                    txn: 1,
                    attempt: 1,
                    committed: true,
                },
            ),
            // An ack whose milestones never completed produces nothing.
            rec(20, 9, ObsEvent::ClientSubmit { txn: 2, attempt: 0 }),
            rec(
                21,
                9,
                ObsEvent::ClientAck {
                    txn: 2,
                    attempt: 0,
                    committed: true,
                },
            ),
        ];
        let spans = decompose_commits(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].txn, 1);
        assert_eq!(spans[0].group, 2);
    }
}
