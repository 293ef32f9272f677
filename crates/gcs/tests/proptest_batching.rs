//! Equivalence properties of the batched abcast pipeline.
//!
//! The batching knobs change the *framing* of the total order — how many
//! entries travel per frame, how persistence is amortised, how stability
//! votes aggregate — but must never change the histories the application
//! observes. For random workloads, fault schedules and batch knobs these
//! properties pin a batched run against the `max_msgs = 1` (unbatched)
//! run of the same schedule and seed:
//!
//! * the per-node *processed* payload sequences are bit-for-bit equal,
//! * the group-safety fingerprint (an FNV digest over every node's final
//!   stable state) is bit-for-bit equal,
//! * the batched run on its own keeps validity, uniform total order and
//!   the end-to-end properties.
//!
//! Fault schedules crash non-sequencer nodes: the fixed sequencer then
//! assigns the identical total order whatever the framing. (A *crashing
//! sequencer* re-orders its resent backlog depending on what was still
//! in the accumulator, which legitimately yields a different — equally
//! correct — order; that case is covered by a set-equality property and
//! by the deterministic scenario corpus.)

use groupsafe_gcs::harness::Cluster;
use groupsafe_gcs::{BatchConfig, GcsConfig, ProcessClass};
use groupsafe_net::NodeId;
use groupsafe_sim::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Schedule {
    broadcasts: Vec<(u64, u32, u64)>, // (at_ms, origin, value)
    crash: Option<(u32, u64, u64)>,   // (node, crash_ms, recover_ms)
}

/// Random broadcast schedule; the optional crash hits nodes `1..n` only
/// (node 0 is the fixed sequencer in the crash-recovery model).
fn schedule(n: u32) -> impl Strategy<Value = Schedule> {
    let bcasts = proptest::collection::vec((10u64..1_200, 0..n, 0u64..1_000_000), 1..30);
    let crash = proptest::option::of((1..n, 100u64..700, 800u64..1_500));
    (bcasts, crash).prop_map(|(mut broadcasts, crash)| {
        // Distinct values so histories are comparable element-wise.
        for (i, b) in broadcasts.iter_mut().enumerate() {
            b.2 = b.2 * 100 + i as u64;
        }
        Schedule { broadcasts, crash }
    })
}

/// Random batching knobs.
fn knobs() -> impl Strategy<Value = BatchConfig> {
    (2usize..32, 0u64..3_000).prop_map(|(max_msgs, delay_us)| {
        BatchConfig::of(max_msgs, SimDuration::from_micros(delay_us))
    })
}

struct Outcome {
    fingerprint: u64,
    /// Final processed payload sequence per node.
    histories: Vec<Vec<u64>>,
}

fn run(cfg: GcsConfig, sched: &Schedule, n: u32, seed: u64, e2e: bool) -> Outcome {
    let mut cluster = Cluster::new(n, cfg, seed);
    for &(at, origin, value) in &sched.broadcasts {
        cluster.broadcast_at(SimTime::from_millis(at), NodeId(origin), value);
    }
    if let Some((node, crash_ms, recover_ms)) = sched.crash {
        cluster
            .engine
            .schedule_crash(SimTime::from_millis(crash_ms), cluster.hosts[node as usize]);
        cluster.engine.schedule_recover(
            SimTime::from_millis(recover_ms),
            cluster.hosts[node as usize],
        );
    }
    cluster.engine.run_until(SimTime::from_secs(20));

    // The run must satisfy the broadcast specification on its own.
    {
        let mut obs = cluster.obs.borrow_mut();
        for i in 0..n {
            let class = if sched.crash.map(|(c, _, _)| c) == Some(i) {
                ProcessClass::Yellow
            } else {
                ProcessClass::Green
            };
            obs.classes.insert(NodeId(i), class);
        }
    }
    let violations: Vec<_> = {
        let obs = cluster.obs.borrow();
        let mut v = obs.check_validity();
        v.extend(obs.check_total_order());
        if e2e {
            v.extend(obs.check_uniform_integrity(true));
            v.extend(obs.check_end_to_end());
        }
        v
    };
    assert!(violations.is_empty(), "{violations:?}");

    Outcome {
        fingerprint: cluster.group_safety_fingerprint(),
        histories: (0..n).map(|i| cluster.stable_values(NodeId(i))).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end atomic broadcast, crash-recovery model: batched runs
    /// (random knobs, random non-sequencer crash/recovery) produce the
    /// same per-node histories and the same group-safety fingerprint as
    /// the unbatched run of the identical schedule and seed.
    #[test]
    fn batched_e2e_equals_unbatched(sched in schedule(4), batch in knobs(), seed in 0u64..50) {
        let batched = run(
            GcsConfig::end_to_end().with_batching(batch),
            &sched, 4, seed, true,
        );
        let unbatched = run(GcsConfig::end_to_end(), &sched, 4, seed, true);
        prop_assert_eq!(
            &batched.histories,
            &unbatched.histories,
            "histories diverged (batch={:?} crash={:?})",
            batch,
            sched.crash
        );
        prop_assert_eq!(batched.fingerprint, unbatched.fingerprint);
    }

    /// View-based uniform atomic broadcast without faults: same
    /// equivalence on the dynamic model's fast path.
    #[test]
    fn batched_view_uniform_equals_unbatched(sched in schedule(4), batch in knobs()) {
        let mut sched = sched;
        sched.crash = None;
        let batched = run(
            GcsConfig::view_based_uniform().with_batching(batch),
            &sched, 4, 7, false,
        );
        let unbatched = run(GcsConfig::view_based_uniform(), &sched, 4, 7, false);
        prop_assert_eq!(&batched.histories, &unbatched.histories);
        prop_assert_eq!(batched.fingerprint, unbatched.fingerprint);
    }

    /// A crashing *sequencer* mid-accumulation may legitimately renumber
    /// its backlog, but never lose or duplicate anything: the processed
    /// value *sets* match the unbatched run and all replicas agree.
    #[test]
    fn sequencer_crash_preserves_the_processed_set(
        sched in schedule(4),
        batch in knobs(),
        crash_ms in 100u64..700,
    ) {
        let mut sched = sched;
        sched.crash = Some((0, crash_ms, crash_ms + 800));
        let batched = run(
            GcsConfig::end_to_end().with_batching(batch),
            &sched, 4, 11, true,
        );
        let unbatched = run(GcsConfig::end_to_end(), &sched, 4, 11, true);
        let set = |o: &Outcome| {
            let mut v = o.histories[1].clone();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(set(&batched), set(&unbatched), "processed sets diverged");
        // All batched-run replicas hold the identical history.
        for i in 1..4 {
            prop_assert_eq!(
                &batched.histories[0],
                &batched.histories[i],
                "batched replica {} diverged",
                i
            );
        }
    }
}
