//! End-to-end scenarios for the group communication stack, including the
//! paper's Fig. 5 (classic atomic broadcast loses a delivered-but-
//! unprocessed message on total failure) and Fig. 7 (end-to-end atomic
//! broadcast replays it).

use groupsafe_gcs::harness::{Cluster, GcsHost, HostMsg};
use groupsafe_gcs::{GcsConfig, ProcessClass};
use groupsafe_net::NodeId;
use groupsafe_sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// Broadcast `count` values from rotating origins starting at `from_ms`,
/// 5 ms apart.
fn broadcast_round(cluster: &mut Cluster, n: u32, from_ms: u64, count: u64) {
    for i in 0..count {
        let node = NodeId((i % n as u64) as u32);
        cluster.broadcast_at(ms(from_ms + i * 5), node, 100 + i);
    }
}

fn assert_all_equal_and_complete(cluster: &Cluster, n: u32, expected: &[u64]) {
    let reference = cluster.stable_values(NodeId(0));
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expected, "node 0 state incomplete");
    for i in 1..n {
        assert_eq!(
            cluster.stable_values(NodeId(i)),
            reference,
            "replica {i} diverged"
        );
    }
}

fn mark_all_green(cluster: &Cluster, n: u32) {
    let mut obs = cluster.obs.borrow_mut();
    for i in 0..n {
        obs.classes.insert(NodeId(i), ProcessClass::Green);
    }
}

fn mark_all_yellow(cluster: &Cluster, n: u32) {
    let mut obs = cluster.obs.borrow_mut();
    for i in 0..n {
        obs.classes.insert(NodeId(i), ProcessClass::Yellow);
    }
}

#[test]
fn view_based_uniform_total_order_without_crashes() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_uniform(), 11);
    broadcast_round(&mut cluster, n, 10, 20);
    cluster.engine.run_until(ms(1_000));
    let expected: Vec<u64> = (100..120).collect();
    assert_all_equal_and_complete(&cluster, n, &expected);
    mark_all_green(&cluster, n);
    let violations = cluster.obs.borrow().check_all(false);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn nine_nodes_paper_group_size() {
    // Table 4: nine servers.
    let n = 9;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_uniform(), 13);
    broadcast_round(&mut cluster, n, 10, 45);
    cluster.engine.run_until(ms(2_000));
    let expected: Vec<u64> = (100..145).collect();
    assert_all_equal_and_complete(&cluster, n, &expected);
    mark_all_green(&cluster, n);
    let violations = cluster.obs.borrow().check_all(false);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn non_uniform_delivery_is_faster_but_still_ordered() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_non_uniform(), 17);
    broadcast_round(&mut cluster, n, 10, 10);
    cluster.engine.run_until(ms(500));
    let expected: Vec<u64> = (100..110).collect();
    assert_all_equal_and_complete(&cluster, n, &expected);
}

#[test]
fn crash_recovery_model_persists_before_delivery() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::crash_recovery(), 19);
    broadcast_round(&mut cluster, n, 10, 10);
    cluster.engine.run_until(ms(2_000));
    let expected: Vec<u64> = (100..110).collect();
    assert_all_equal_and_complete(&cluster, n, &expected);
    // Every entry is in every stable log.
    for i in 0..n {
        let host: &GcsHost = cluster.engine.actor(cluster.hosts[i as usize]);
        assert_eq!(host.endpoint().stable_log_seqs().len(), 10, "node {i}");
    }
}

#[test]
fn view_based_minority_crash_survivors_continue() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_uniform(), 23);
    broadcast_round(&mut cluster, n, 10, 6);
    // Crash node 2 at 60 ms; keep broadcasting from the survivors.
    cluster.engine.schedule_crash(ms(60), cluster.hosts[2]);
    for i in 0..6u64 {
        let node = NodeId((i % 2) as u32);
        cluster.broadcast_at(ms(200 + i * 5), node, 500 + i);
    }
    cluster.engine.run_until(ms(1_000));
    let s0 = cluster.stable_values(NodeId(0));
    let s1 = cluster.stable_values(NodeId(1));
    assert_eq!(s0, s1, "survivors diverged");
    let mut sorted = s0.clone();
    sorted.sort_unstable();
    let mut expected: Vec<u64> = (100..106).collect();
    expected.extend(500..506);
    assert_eq!(sorted, expected);
    // The survivors installed a smaller view.
    let host: &GcsHost = cluster.engine.actor(cluster.hosts[0]);
    assert_eq!(host.endpoint().view().members, vec![NodeId(0), NodeId(1)]);
}

#[test]
fn view_based_rejoin_via_state_transfer() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_uniform(), 29);
    broadcast_round(&mut cluster, n, 10, 6);
    cluster.engine.schedule_crash(ms(60), cluster.hosts[2]);
    for i in 0..4u64 {
        cluster.broadcast_at(ms(200 + i * 5), NodeId(0), 500 + i);
    }
    // Recover node 2 at 400 ms: it should rejoin through a state transfer
    // and converge with the others, including messages it never saw.
    cluster.engine.schedule_recover(ms(400), cluster.hosts[2]);
    for i in 0..4u64 {
        cluster.broadcast_at(ms(600 + i * 5), NodeId(1), 700 + i);
    }
    cluster.engine.run_until(ms(1_500));
    let s0 = cluster.stable_values(NodeId(0));
    let s2 = cluster.stable_values(NodeId(2));
    assert_eq!(s0, s2, "rejoined replica diverged");
    let mut sorted = s2.clone();
    sorted.sort_unstable();
    let mut expected: Vec<u64> = (100..106).collect();
    expected.extend(500..504);
    expected.extend(700..704);
    assert_eq!(sorted, expected);
    let host: &GcsHost = cluster.engine.actor(cluster.hosts[2]);
    assert_eq!(host.endpoint().view().len(), 3);
}

#[test]
fn view_based_sequencer_crash_failover() {
    let n = 3;
    let mut cluster = Cluster::new(n, GcsConfig::view_based_uniform(), 31);
    broadcast_round(&mut cluster, n, 10, 4);
    // Node 0 is the initial sequencer; kill it.
    cluster.engine.schedule_crash(ms(80), cluster.hosts[0]);
    // These broadcasts need the new sequencer (node 1) to be ordered —
    // including one submitted during the detection window.
    cluster.broadcast_at(ms(90), NodeId(2), 900);
    for i in 0..4u64 {
        cluster.broadcast_at(ms(300 + i * 5), NodeId(1), 910 + i);
    }
    cluster.engine.run_until(ms(1_500));
    let s1 = cluster.stable_values(NodeId(1));
    let s2 = cluster.stable_values(NodeId(2));
    assert_eq!(s1, s2, "survivors diverged after sequencer failover");
    let mut sorted = s1.clone();
    sorted.sort_unstable();
    let mut expected: Vec<u64> = (100..104).collect();
    expected.push(900);
    expected.extend(910..914);
    assert_eq!(sorted, expected);
    let host: &GcsHost = cluster.engine.actor(cluster.hosts[1]);
    assert!(host.endpoint().is_sequencer());
}

/// Fig. 5: message delivered everywhere, processed nowhere but at the
/// delegate, then every process crashes. With the classic (view-based)
/// stack the message is unrecoverable.
#[test]
fn fig5_total_failure_loses_delivered_unprocessed_message() {
    let n = 3;
    // 50 ms between delivery and processing: the vulnerability window.
    let mut cluster = Cluster::with_process_delay(
        n,
        GcsConfig::view_based_uniform(),
        37,
        SimDuration::from_millis(50),
    );
    cluster.broadcast_at(ms(10), NodeId(0), 4242);
    // Delivery completes within a few hundred microseconds; processing
    // would finish at ~60 ms. Crash everyone at 30 ms.
    for &h in &cluster.hosts {
        cluster.engine.schedule_crash(ms(30), h);
    }
    for &h in &cluster.hosts {
        cluster.engine.schedule_recover(ms(100), h);
    }
    // Total failure in the dynamic model: the group cannot re-form on its
    // own; the operator restarts it from local application state.
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    for &h in &cluster.hosts {
        cluster.engine.schedule_resilient(
            ms(200),
            h,
            HostMsg::RestartGroup(members.clone().into()),
        );
    }
    // The restarted group still works for new messages...
    cluster.broadcast_at(ms(300), NodeId(1), 4343);
    cluster.engine.run_until(ms(1_000));
    for i in 0..n {
        let vals = cluster.stable_values(NodeId(i));
        assert!(
            !vals.contains(&4242),
            "node {i} should have lost the unprocessed message, has {vals:?}"
        );
        assert!(
            vals.contains(&4343),
            "node {i} missed the post-restart message"
        );
    }
}

/// Fig. 7: the same scenario over end-to-end atomic broadcast. After
/// recovery the message is redelivered and every replica processes it.
#[test]
fn fig7_end_to_end_replays_after_total_failure() {
    let n = 3;
    let mut cluster =
        Cluster::with_process_delay(n, GcsConfig::end_to_end(), 41, SimDuration::from_millis(50));
    cluster.broadcast_at(ms(10), NodeId(0), 4242);
    // Crash everyone at 45 ms: entries are persisted (disk write ≈ 4–12 ms)
    // and delivered by then, but no application has processed them.
    for &h in &cluster.hosts {
        cluster.engine.schedule_crash(ms(45), h);
    }
    for &h in &cluster.hosts {
        cluster.engine.schedule_recover(ms(100), h);
    }
    cluster.broadcast_at(ms(300), NodeId(1), 4343);
    cluster.engine.run_until(ms(2_000));
    for i in 0..n {
        let vals = cluster.stable_values(NodeId(i));
        assert!(
            vals.contains(&4242),
            "node {i} must recover the unprocessed message, has {vals:?}"
        );
        assert!(vals.contains(&4343), "node {i} missed the new message");
    }
    mark_all_yellow(&cluster, n);
    let violations = cluster.obs.borrow().check_all(true);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The same total-failure scenario in the crash-recovery model *without*
/// end-to-end guarantees: entries were stably marked `delivered`, so the
/// GC layer must not replay them (uniform integrity) — the message is lost
/// even though every GC log contains it. This is §3's second problem.
#[test]
fn crash_recovery_without_e2e_still_loses_the_message() {
    let n = 3;
    let mut cluster = Cluster::with_process_delay(
        n,
        GcsConfig::crash_recovery(),
        43,
        SimDuration::from_millis(50),
    );
    cluster.broadcast_at(ms(10), NodeId(0), 4242);
    for &h in &cluster.hosts {
        cluster.engine.schedule_crash(ms(45), h);
    }
    for &h in &cluster.hosts {
        cluster.engine.schedule_recover(ms(100), h);
    }
    cluster.broadcast_at(ms(300), NodeId(1), 4343);
    cluster.engine.run_until(ms(2_000));
    for i in 0..n {
        let vals = cluster.stable_values(NodeId(i));
        assert!(
            !vals.contains(&4242),
            "node {i}: classic crash-recovery must not replay, has {vals:?}"
        );
        assert!(vals.contains(&4343), "node {i} missed the new message");
        // ... even though the entry sits in its stable log:
        let host: &GcsHost = cluster.engine.actor(cluster.hosts[i as usize]);
        assert!(
            !host.endpoint().stable_log_seqs().is_empty(),
            "node {i}: the GC log does contain the entry"
        );
    }
}

/// End-to-end broadcast with a *partial* crash: one node crashes inside
/// the processing window, recovers, and replays only what it missed.
#[test]
fn e2e_partial_crash_replays_only_unacked() {
    let n = 3;
    let mut cluster =
        Cluster::with_process_delay(n, GcsConfig::end_to_end(), 47, SimDuration::from_millis(30));
    cluster.broadcast_at(ms(10), NodeId(0), 1111);
    // Node 2 crashes at 40 ms (delivered, unprocessed), recovers at 120 ms.
    cluster.engine.schedule_crash(ms(40), cluster.hosts[2]);
    cluster.engine.schedule_recover(ms(120), cluster.hosts[2]);
    // A second message while node 2 is down.
    cluster.broadcast_at(ms(60), NodeId(1), 2222);
    cluster.engine.run_until(ms(2_000));
    let expected: Vec<u64> = vec![1111, 2222];
    for i in 0..n {
        let mut vals = cluster.stable_values(NodeId(i));
        vals.sort_unstable();
        assert_eq!(vals, expected, "node {i}");
    }
    mark_all_yellow(&cluster, n);
    let violations = cluster.obs.borrow().check_all(true);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Determinism: identical seeds reproduce identical engine fingerprints
/// across a crash-heavy scenario.
#[test]
fn scenarios_are_deterministic() {
    let run = |seed: u64| {
        let n = 3;
        let mut cluster = Cluster::new(n, GcsConfig::end_to_end(), seed);
        broadcast_round(&mut cluster, n, 10, 10);
        cluster.engine.schedule_crash(ms(60), cluster.hosts[1]);
        cluster.engine.schedule_recover(ms(150), cluster.hosts[1]);
        cluster.engine.run_until(ms(1_000));
        (
            cluster.engine.fingerprint(),
            cluster.stable_values(NodeId(0)),
        )
    };
    assert_eq!(run(99), run(99));
    // And different seeds still converge to the same application state
    // (timing differs, outcomes agree).
    assert_eq!(run(99).1.len(), run(101).1.len());
}
