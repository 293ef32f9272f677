//! Deterministic scenario corpus for the batched abcast pipeline.
//!
//! Every scenario is pinned to a fixed seed and asserts exact outcome
//! counts: what was processed where, what was batched, what was
//! redelivered, and that nothing acknowledged was lost. The corpus
//! covers the situations the batching accumulator makes delicate:
//!
//! * a sequencer crash with a non-empty accumulator (nothing may be
//!   silently dropped — the senders' resends re-order the backlog),
//! * flushes triggered by the `max_delay` deadline vs. the size trigger,
//! * recovery replaying a partially-acked sequence window,
//! * a view change while the accumulator is non-empty,
//! * stale flush timers after a crash (regression for the epoch guard),
//! * full-system equivalence: the group-safety outcome of a batched run
//!   matches the unbatched run bit-for-bit.

use groupsafe::core::{BatchConfig, Load, SafetyLevel, System};
use groupsafe::gcs::harness::Cluster;
use groupsafe::gcs::{GcsConfig, ProcessClass};
use groupsafe::net::NodeId;
use groupsafe::sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn batch(max_msgs: usize, max_delay_ms: u64) -> BatchConfig {
    BatchConfig {
        max_msgs,
        max_delay: SimDuration::from_millis(max_delay_ms),
    }
}

/// All nodes hold the same history, equal (as a set) to `expected`.
fn assert_converged(cluster: &Cluster, n: u32, expected: &[u64]) {
    let reference = cluster.stable_values(NodeId(0));
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expected, "node 0 history incomplete");
    for i in 1..n {
        assert_eq!(
            cluster.stable_values(NodeId(i)),
            reference,
            "replica {i} diverged"
        );
    }
}

fn assert_no_violations(cluster: &Cluster, n: u32, e2e: bool, crashed: &[u32]) {
    {
        let mut obs = cluster.obs.borrow_mut();
        for i in 0..n {
            let class = if crashed.contains(&i) {
                ProcessClass::Yellow
            } else {
                ProcessClass::Green
            };
            obs.classes.insert(NodeId(i), class);
        }
    }
    let obs = cluster.obs.borrow();
    let mut v = obs.check_validity();
    v.extend(obs.check_total_order());
    v.extend(obs.check_uniform_integrity(e2e));
    if e2e {
        v.extend(obs.check_end_to_end());
    }
    assert!(v.is_empty(), "{v:?}");
}

/// Size trigger: a burst larger than `max_msgs` ships as full frames,
/// while the deadline flush handles the remainder.
#[test]
fn size_trigger_packs_full_frames() {
    let n = 3;
    let cfg = GcsConfig::end_to_end().with_batching(batch(4, 20));
    let mut cluster = Cluster::new(n, cfg, 42);
    // Nine broadcasts land at the sequencer in one instant: two full
    // frames of 4 plus one deadline-flushed frame of 1.
    for i in 0..9 {
        cluster.broadcast_at(ms(10), NodeId(1), 100 + i);
    }
    cluster.engine.run_until(SimTime::from_secs(5));

    let expected: Vec<u64> = (100..109).collect();
    assert_converged(&cluster, n, &expected);
    assert_no_violations(&cluster, n, true, &[]);
    let stats = cluster.endpoint(NodeId(0)).stats();
    assert_eq!(stats.batches_sent, 3, "2 size-triggered + 1 deadline flush");
    assert_eq!(stats.batch_msgs_sent, 9);
    let hist = cluster.endpoint(NodeId(0)).batch_histogram().clone();
    assert_eq!(hist.get(&4), Some(&2));
    assert_eq!(hist.get(&1), Some(&1));
}

/// Deadline trigger: a trickle below `max_msgs` still flushes after
/// `max_delay`, and a stale deadline never re-flushes a later batch.
#[test]
fn max_delay_flushes_partial_frames() {
    let n = 3;
    let cfg = GcsConfig::end_to_end().with_batching(batch(16, 2));
    let mut cluster = Cluster::new(n, cfg, 43);
    // Three messages at t=10 ms: no size trigger, deadline flush at
    // ~12 ms ships a frame of 3.
    for i in 0..3 {
        cluster.broadcast_at(ms(10), NodeId(1), 200 + i);
    }
    // Sixteen messages at t=50 ms: the size trigger fires immediately;
    // the deadline armed alongside it goes stale (epoch guard).
    for i in 0..16 {
        cluster.broadcast_at(ms(50), NodeId(2), 300 + i);
    }
    cluster.engine.run_until(SimTime::from_secs(5));

    let mut expected: Vec<u64> = (200..203).collect();
    expected.extend(300..316);
    assert_converged(&cluster, n, &expected);
    assert_no_violations(&cluster, n, true, &[]);
    let stats = cluster.endpoint(NodeId(0)).stats();
    assert_eq!(stats.batches_sent, 2, "one deadline flush + one size flush");
    let hist = cluster.endpoint(NodeId(0)).batch_histogram().clone();
    assert_eq!(hist.get(&3), Some(&1), "deadline-flushed frame of 3");
    assert_eq!(hist.get(&16), Some(&1), "size-flushed frame of 16");
}

/// The sequencer crashes with four broadcasts sitting in its accumulator
/// (the 20 ms deadline never fires). Nothing was multicast, so nothing
/// is stable — but nothing may be *lost* either: the senders' resend
/// timers re-forward the backlog once the sequencer recovers, and every
/// value commits exactly once. Also the regression for stale flush
/// deadlines: the pre-crash `BatchFlush` timer must not fire into the
/// recovered incarnation.
#[test]
fn sequencer_crash_mid_batch_loses_nothing() {
    let n = 3;
    let cfg = GcsConfig::end_to_end().with_batching(batch(32, 20));
    let mut cluster = Cluster::new(n, cfg, 44);
    cluster.broadcast_at(ms(10), NodeId(1), 501);
    cluster.broadcast_at(ms(10), NodeId(1), 502);
    cluster.broadcast_at(ms(10), NodeId(2), 503);
    cluster.broadcast_at(ms(10), NodeId(2), 504);
    // Crash at 12 ms: the forwards arrived (~10.07 ms) and sit in the
    // accumulator; the flush deadline (30 ms) is still pending.
    cluster.engine.schedule_crash(ms(12), cluster.hosts[0]);
    cluster.engine.schedule_recover(ms(100), cluster.hosts[0]);
    cluster.engine.run_until(SimTime::from_secs(5));

    assert_converged(&cluster, n, &[501, 502, 503, 504]);
    assert_no_violations(&cluster, n, true, &[0]);
    let seq = cluster.endpoint(NodeId(0));
    assert_eq!(seq.accumulator_len(), 0, "accumulator drained");
    assert_eq!(seq.stats().delivered, 4, "all four commit at the sequencer");
}

/// Recovery replays a partially-acked sequence window: the first frame
/// was processed (app-acked) before the crash, the second was delivered
/// but still unprocessed — end-to-end recovery redelivers exactly the
/// unacked window.
#[test]
fn recovery_replays_partially_acked_window() {
    let n = 3;
    let cfg = GcsConfig::end_to_end().with_batching(batch(2, 1));
    let mut cluster = Cluster::new(n, cfg, 45);
    // Frame 1 (seqs 1-2): processed everywhere by ~35 ms.
    cluster.broadcast_at(ms(10), NodeId(1), 601);
    cluster.broadcast_at(ms(10), NodeId(1), 602);
    // Frame 2 (seqs 3-4): seq 3's processing acks just before node 2
    // crashes at 70 ms; seq 4 is delivered but its 5 ms processing is
    // still in flight — the crash leaves exactly one delivered-but-
    // unacknowledged entry.
    cluster.broadcast_at(ms(60), NodeId(1), 603);
    cluster.broadcast_at(ms(60), NodeId(1), 604);
    cluster.engine.schedule_crash(ms(70), cluster.hosts[2]);
    cluster.engine.schedule_recover(ms(300), cluster.hosts[2]);
    cluster.engine.run_until(SimTime::from_secs(5));

    assert_converged(&cluster, n, &[601, 602, 603, 604]);
    assert_no_violations(&cluster, n, true, &[2]);
    let recovered = cluster.endpoint(NodeId(2)).stats();
    assert_eq!(
        recovered.redelivered, 1,
        "exactly the unacked window (seq 4) is replayed"
    );
}

/// A member crash forces a view change while three broadcasts sit in the
/// sequencer's accumulator. The accumulator is rolled back (its sequence
/// numbers were never multicast), the senders re-forward after the new
/// view installs, and every value still commits exactly once in the
/// surviving majority view.
#[test]
fn view_change_with_non_empty_accumulator() {
    let n = 3;
    let cfg = GcsConfig::view_based_uniform().with_batching(batch(32, 200));
    let mut cluster = Cluster::new(n, cfg, 46);
    for i in 0..3 {
        cluster.broadcast_at(ms(10), NodeId(1), 700 + i);
    }
    // Node 2 dies for good at 12 ms; the failure detector drives the
    // {0, 1} view in well under the 200 ms flush deadline.
    cluster.engine.schedule_crash(ms(75), cluster.hosts[2]);
    cluster.engine.run_until(SimTime::from_secs(5));

    for i in 0..2 {
        assert_eq!(
            cluster.stable_values(NodeId(i)),
            vec![700, 701, 702],
            "survivor {i} must hold the re-ordered backlog"
        );
    }
    assert_no_violations(&cluster, 2, false, &[]);
    let seq = cluster.endpoint(NodeId(0));
    assert_eq!(seq.accumulator_len(), 0);
    assert!(seq.stats().view_changes >= 1, "a view change completed");
    assert_eq!(seq.stats().delivered, 3);
}

/// The CI divergence gate: the group-safety fingerprint of a batched run
/// is bit-for-bit the fingerprint of the unbatched run of the same
/// schedule and seed — including across a mid-run crash and recovery of
/// a non-sequencer member.
#[test]
fn batched_and_unbatched_fingerprints_agree() {
    let run = |b: BatchConfig| {
        let cfg = GcsConfig::end_to_end().with_batching(b);
        let mut cluster = Cluster::new(4, cfg, 47);
        for i in 0..24 {
            cluster.broadcast_at(ms(10 + i * 7), NodeId((i % 4) as u32), 800 + i);
        }
        cluster.engine.schedule_crash(ms(60), cluster.hosts[3]);
        cluster.engine.schedule_recover(ms(400), cluster.hosts[3]);
        cluster.engine.run_until(SimTime::from_secs(10));
        cluster.group_safety_fingerprint()
    };
    let batched = run(batch(8, 1));
    let unbatched = run(BatchConfig::unbatched());
    assert_eq!(
        batched, unbatched,
        "batching changed the group-safety outcome"
    );
}

/// Full-system smoke: a batched group-safe run commits, stays safe and
/// convergent, reports its batching stats, and two identical batched
/// runs produce identical fingerprints (determinism under batching).
#[test]
fn full_system_batched_run_is_safe_and_deterministic() {
    let run = || {
        System::builder()
            .servers(3)
            .clients_per_server(2)
            .safety(SafetyLevel::GroupSafe)
            .batching(BatchConfig::of(8, SimDuration::from_micros(500)))
            .load(Load::open_tps(40.0))
            .measure(SimDuration::from_secs(5))
            .drain(SimDuration::from_secs(2))
            .seed(48)
            .build()
            .expect("valid configuration")
            .execute()
    };
    let a = run();
    let b = run();
    assert!(a.commits > 20, "commits {}", a.commits);
    assert!(a.is_safe_and_convergent(), "{a}");
    assert!(a.abcast_batches > 0, "batching must be exercised");
    assert!(a.mean_batch_size >= 1.0);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "batched runs must be deterministic"
    );
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.digests, b.digests);
    let json = a.to_json();
    assert!(json.contains("\"abcast_batches\""), "{json}");
    assert!(json.contains("\"mean_batch_size\""), "{json}");
}
