//! One walk over a run's `ObsEvent` stream: latencies split by operation
//! type, request accounting, the per-commit phase spans, and the spans
//! of the rarer pipeline stages.
//!
//! The stream is the only place the split by operation type exists: the
//! `Report` folds reads and updates into one histogram.

use std::collections::BTreeMap;

use groupsafe_sim::{ObsEvent, ObsRecord};

use crate::metrics::Clock;
use crate::spans::Span;

/// Milestones of one update transaction's current attempt.
#[derive(Default)]
struct Pending {
    first_submit: u64,
    attempt: u32,
    submit: u64,
    exec: Option<u64>,
    broadcast: Option<u64>,
    reply: Option<(u64, u32)>,
    xg: Option<(u64, Option<u64>)>,
}

/// What the walk extracts.
#[derive(Default)]
pub struct StreamFacts {
    /// Update transactions: first submit due → committed ack, for acks
    /// inside the measurement window (ms).
    pub update_ms: Vec<f64>,
    /// Read-only transactions served by the read path: first submit due
    /// → accepted reply (ms).
    pub read_ms: Vec<f64>,
    /// Distinct requests submitted over the whole run.
    pub submitted: usize,
    /// Of those, how many fell due inside the measurement window.
    pub arrived_in_window: usize,
    /// Of those, how many had no committed answer when the run ended.
    pub unanswered: usize,
    /// Update attempts sent (`ClientSubmit`), answered (`ClientAck`),
    /// and answered with an abort.
    pub attempts: u64,
    pub answered: u64,
    pub aborted: u64,
    /// Committed attempts with a complete, monotone milestone chain, and
    /// the summed duration (ms) of their four phases.
    pub spanned: usize,
    pub phase_ms: [f64; 4],
    /// Longest gap (ms) between consecutive committed replies of any one
    /// group inside the measurement window.
    pub unavail_ms: f64,
    pub wal_syncs: u64,
    pub wal_records: u64,
    /// Spans (only when asked for).
    pub spans: Vec<Span>,
}

pub const PHASES: [&str; 4] = ["core.submit", "core.exec", "core.commit", "core.reply"];

fn ms(from_ns: u64, to_ns: u64) -> f64 {
    (to_ns - from_ns) as f64 / 1.0e6
}

/// Walk `events`. Latency samples are kept for answers at or after
/// `measure_from_ns` (the `Report`'s own rule); the reply-gap scan covers
/// `[measure_from_ns, measure_end_ns]`, while requests were due.
/// `fault_instants_ns` are the scripted disturbance and recovery
/// instants: a view change or a state transfer is a span from the latest
/// one before it.
pub fn walk(
    events: &[ObsRecord],
    measure_from_ns: u64,
    measure_end_ns: u64,
    fault_instants_ns: &[u64],
    keep_spans: bool,
) -> StreamFacts {
    let mut f = StreamFacts::default();
    let mut updates: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut reads: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_reply: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_sync: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let in_window = |t: u64| (measure_from_ns..measure_end_ns).contains(&t);
    let since_fault = |t: u64| {
        fault_instants_ns
            .iter()
            .copied()
            .filter(|&i| i <= t)
            .max()
            .unwrap_or(0)
    };
    let push = |spans: &mut Vec<Span>,
                name: &'static str,
                start_ns: u64,
                end_ns: u64,
                parent: Option<usize>,
                txn: u64,
                lane: u32| {
        if keep_spans {
            spans.push(Span {
                name,
                clock: Clock::Sim,
                start_ns,
                end_ns,
                parent,
                txn,
                lane,
            });
        }
    };
    for r in events {
        let t = r.time.as_nanos();
        match r.event {
            ObsEvent::ClientSubmit { txn, attempt } => {
                f.attempts += 1;
                let p = updates.entry(txn).or_insert_with(|| {
                    f.submitted += 1;
                    f.arrived_in_window += usize::from(in_window(t));
                    Pending {
                        first_submit: t,
                        ..Pending::default()
                    }
                });
                // A resubmission restarts the attempt's milestones.
                *p = Pending {
                    first_submit: p.first_submit,
                    attempt,
                    submit: t,
                    ..Pending::default()
                };
            }
            ObsEvent::ExecStart { txn } => {
                if let Some(p) = updates.get_mut(&txn) {
                    p.exec = Some(t);
                }
            }
            ObsEvent::BroadcastTxn { txn } => {
                if let Some(p) = updates.get_mut(&txn) {
                    p.broadcast = Some(t);
                }
            }
            ObsEvent::XgPrepare { txn } => {
                if let Some(p) = updates.get_mut(&txn) {
                    p.xg = Some((t, None));
                }
            }
            ObsEvent::XgDecision { txn, .. } => {
                if let Some(Pending {
                    xg: Some((_, end @ None)),
                    ..
                }) = updates.get_mut(&txn)
                {
                    *end = Some(t);
                }
            }
            ObsEvent::Reply {
                txn,
                group,
                committed: true,
            } => {
                if let Some(p) = updates.get_mut(&txn) {
                    p.reply = Some((t, group));
                }
                if (measure_from_ns..=measure_end_ns).contains(&t) {
                    if let Some(prev) = last_reply.insert(group, t) {
                        f.unavail_ms = f.unavail_ms.max(ms(prev, t));
                    }
                }
            }
            ObsEvent::ClientAck {
                txn,
                attempt,
                committed,
            } => {
                f.answered += 1;
                if !committed {
                    f.aborted += 1;
                    continue;
                }
                let Some(p) = updates.remove(&txn) else {
                    continue;
                };
                if t >= measure_from_ns {
                    f.update_ms.push(ms(p.first_submit, t));
                }
                let (Some(exec), Some(bcast), Some((reply, _))) = (p.exec, p.broadcast, p.reply)
                else {
                    continue;
                };
                let marks = [p.submit, exec, bcast, reply, t];
                if p.attempt != attempt || marks.windows(2).any(|w| w[1] < w[0]) {
                    continue;
                }
                f.spanned += 1;
                for (i, w) in marks.windows(2).enumerate() {
                    f.phase_ms[i] += ms(w[0], w[1]);
                    push(&mut f.spans, PHASES[i], w[0], w[1], None, txn, r.actor.0);
                }
                if let Some((start, Some(end))) = p.xg {
                    // The commit phase is the third of the four spans
                    // just pushed.
                    let commit = f.spans.len().checked_sub(2);
                    push(&mut f.spans, "core.xg", start, end, commit, txn, r.actor.0);
                }
            }
            ObsEvent::ReadSubmit { read } => {
                reads.entry(read).or_insert_with(|| {
                    f.submitted += 1;
                    f.arrived_in_window += usize::from(in_window(t));
                    t
                });
            }
            ObsEvent::ReadReply { read } => {
                if let Some(start) = reads.remove(&read) {
                    if t >= measure_from_ns {
                        f.read_ms.push(ms(start, t));
                    }
                    push(&mut f.spans, "core.read", start, t, None, read, r.actor.0);
                }
            }
            ObsEvent::ViewChange { .. } => {
                push(
                    &mut f.spans,
                    "gcs.view_change",
                    since_fault(t),
                    t,
                    None,
                    0,
                    r.actor.0,
                );
            }
            ObsEvent::StateTransfer { .. } => {
                push(
                    &mut f.spans,
                    "core.state_transfer",
                    since_fault(t),
                    t,
                    None,
                    0,
                    r.actor.0,
                );
            }
            ObsEvent::WalSync { lsn } => {
                let (prev_t, prev_lsn) = last_sync.insert(r.actor.0, (t, lsn)).unwrap_or((0, 0));
                f.wal_syncs += 1;
                f.wal_records += lsn.saturating_sub(prev_lsn);
                // The window whose commits this sync made durable.
                push(&mut f.spans, "db.wal_sync", prev_t, t, None, 0, r.actor.0);
            }
            _ => {}
        }
    }
    f.unanswered = updates.len() + reads.len();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsafe_sim::{ActorId, SimTime};

    fn rec(us: u64, actor: u32, event: ObsEvent) -> ObsRecord {
        ObsRecord {
            time: SimTime::from_nanos(us * 1_000),
            actor: ActorId(actor),
            event,
        }
    }

    #[test]
    fn latency_runs_from_the_first_submit_and_phases_from_the_last() {
        let events = vec![
            rec(0, 9, ObsEvent::ClientSubmit { txn: 1, attempt: 0 }),
            rec(100, 1, ObsEvent::ExecStart { txn: 1 }),
            rec(
                900,
                9,
                ObsEvent::ClientAck {
                    txn: 1,
                    attempt: 0,
                    committed: false,
                },
            ),
            rec(1_000, 9, ObsEvent::ClientSubmit { txn: 1, attempt: 1 }),
            rec(1_100, 1, ObsEvent::ExecStart { txn: 1 }),
            rec(1_400, 1, ObsEvent::BroadcastTxn { txn: 1 }),
            rec(1_400, 1, ObsEvent::XgPrepare { txn: 1 }),
            rec(
                1_800,
                2,
                ObsEvent::XgDecision {
                    txn: 1,
                    commit: true,
                },
            ),
            rec(
                1_850,
                3,
                ObsEvent::XgDecision {
                    txn: 1,
                    commit: true,
                },
            ),
            rec(
                1_900,
                1,
                ObsEvent::Reply {
                    txn: 1,
                    group: 0,
                    committed: true,
                },
            ),
            rec(
                2_000,
                9,
                ObsEvent::ClientAck {
                    txn: 1,
                    attempt: 1,
                    committed: true,
                },
            ),
            rec(2_500, 9, ObsEvent::ReadSubmit { read: 5 }),
            rec(2_600, 9, ObsEvent::ReadSubmit { read: 5 }),
            rec(3_000, 9, ObsEvent::ReadReply { read: 5 }),
            rec(3_500, 9, ObsEvent::ClientSubmit { txn: 2, attempt: 0 }),
        ];
        let f = walk(&events, 0, u64::MAX, &[], true);
        assert_eq!(f.update_ms, vec![2.0]);
        assert_eq!(f.read_ms, vec![0.5]);
        assert_eq!((f.submitted, f.unanswered, f.arrived_in_window), (3, 1, 3));
        assert_eq!((f.attempts, f.answered, f.aborted), (3, 2, 1));
        assert_eq!(f.spanned, 1);
        // Phases of the committed attempt sum to its own latency.
        assert!((f.phase_ms.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let names: Vec<&str> = f.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.submit",
                "core.exec",
                "core.commit",
                "core.reply",
                "core.xg",
                "core.read"
            ]
        );
        // The cross-group round is a child of the commit phase and ends
        // at the first decision.
        assert_eq!(f.spans[4].parent, Some(2));
        assert_eq!(
            (f.spans[4].start_ns, f.spans[4].end_ns),
            (1_400_000, 1_800_000)
        );
        assert_eq!(crate::spans::self_times(&f.spans)[2], 100_000);
    }

    #[test]
    fn reply_gaps_are_per_group_and_inside_the_window() {
        let reply = |us, txn, group| {
            rec(
                us,
                1,
                ObsEvent::Reply {
                    txn,
                    group,
                    committed: true,
                },
            )
        };
        let events = vec![
            reply(0, 1, 0),
            reply(1_000, 2, 0),
            reply(1_500, 3, 1),
            reply(4_000, 4, 0),
            reply(4_100, 5, 1),
            reply(50_000, 6, 0),
        ];
        // Window [500 µs, 10 ms]: group 0 gaps 1.0→4.0, group 1 1.5→4.1.
        let mut events = events;
        events.push(rec(100, 9, ObsEvent::ClientSubmit { txn: 1, attempt: 0 }));
        events.push(rec(600, 9, ObsEvent::ReadSubmit { read: 2 }));
        events.push(rec(
            10_000,
            9,
            ObsEvent::ClientSubmit { txn: 3, attempt: 0 },
        ));
        let f = walk(&events, 500_000, 10_000_000, &[], false);
        assert!((f.unavail_ms - 3.0).abs() < 1e-12);
        // Only the request due inside [500 µs, 10 ms) arrived in the window.
        assert_eq!((f.submitted, f.arrived_in_window), (3, 1));
        assert!(f.spans.is_empty());
    }

    #[test]
    fn rare_stages_span_from_the_latest_scripted_instant() {
        let events = vec![
            rec(10, 4, ObsEvent::WalSync { lsn: 3 }),
            rec(30, 4, ObsEvent::WalSync { lsn: 8 }),
            rec(7_000, 2, ObsEvent::ViewChange { view: 2 }),
        ];
        let f = walk(
            &events,
            0,
            u64::MAX,
            &[1_000_000, 6_000_000, 9_000_000],
            true,
        );
        assert_eq!((f.wal_syncs, f.wal_records), (2, 8));
        assert_eq!((f.spans[1].start_ns, f.spans[1].end_ns), (10_000, 30_000));
        assert_eq!(
            (f.spans[2].start_ns, f.spans[2].end_ns),
            (6_000_000, 7_000_000)
        );
    }
}
