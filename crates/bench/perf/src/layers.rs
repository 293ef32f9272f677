//! The traced pass of one workload: the reference run in stream mode
//! beside its obs-off twin, per-layer counters read from public
//! accessors after the run, the layer-isolation drives, and the spans
//! written out as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use groupsafe_core::{ReplicaConfig, SafetyLevel, System};
use groupsafe_gcs::GcsStats;
use groupsafe_net::NetStats;
use groupsafe_sim::ObsConfig;

use crate::e2e::{assert_same_run, stream_metrics, walk_run, Outcome, Sizing};
use crate::iso;
use crate::metrics::Measured;
use crate::run::{execute, RunCfg, SimRun};
use crate::spans::{self, Span, WallSpans};
use crate::stats;
use crate::stream::StreamFacts;
use crate::wall::Passes;
use crate::workloads::{Workload, TABLE4};
use crate::Opts;

/// Counters read off the finished system through public accessors.
pub struct Counters {
    net: NetStats,
    gcs: GcsStats,
    db_reads: u64,
    db_read_misses: u64,
    db_commits: u64,
    db_page_flushes: u64,
    mvcc_retained: u64,
    mvcc_evictions: u64,
    /// `engine.metrics()` counters, by name.
    named: BTreeMap<&'static str, u64>,
    obs_records: u64,
    actors: usize,
}

impl Counters {
    fn collect(system: &System) -> Counters {
        let mut c = Counters {
            net: system.net.stats(),
            gcs: system.gcs_stats().0,
            db_reads: 0,
            db_read_misses: 0,
            db_commits: 0,
            db_page_flushes: 0,
            mvcc_retained: 0,
            mvcc_evictions: 0,
            named: system.engine.metrics().counters().collect(),
            obs_records: system.engine.obs().total_recorded(),
            actors: system.engine.actor_count(),
        };
        for i in 0..system.n_servers {
            let db = system.server(i).db();
            let s = db.stats();
            c.db_reads += s.reads;
            c.db_read_misses += s.read_misses;
            c.db_commits += s.commits;
            c.db_page_flushes += s.page_flushes;
            c.mvcc_retained += db.mvcc_retained() as u64;
            c.mvcc_evictions += db.mvcc_evictions();
        }
        c
    }

    fn named(&self, name: &str) -> f64 {
        self.named.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Repeat a drive `n` times: its last result, and the headline number of
/// every repetition.
fn reps<T>(n: usize, mut drive: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let (mut last, first) = drive();
    let mut values = vec![first];
    for _ in 1..n {
        let (next, value) = drive();
        last = next;
        values.push(value);
    }
    (last, values)
}

/// Safety levels of the per-level comparison, with the metric each one's
/// update mean and commit phase go to. The lazy baseline broadcasts
/// nothing before it replies, so it has no commit phase.
const LEVELS: [(SafetyLevel, &str, Option<&str>); 4] = [
    (SafetyLevel::OneSafe, "core.update_mean_ms.lazy", None),
    (
        SafetyLevel::GroupSafe,
        "core.update_mean_ms.group_safe",
        Some("core.commit_ms.group_safe"),
    ),
    (
        SafetyLevel::GroupOneSafe,
        "core.update_mean_ms.group_1_safe",
        Some("core.commit_ms.group_1_safe"),
    ),
    (
        SafetyLevel::TwoSafe,
        "core.update_mean_ms.two_safe",
        Some("core.commit_ms.two_safe"),
    ),
];
/// Rate of the per-level comparison: under every level's knee.
const LEVEL_TPS: f64 = 10.0;

/// The per-level comparison: the Table 4 system at a rate under every
/// level's knee, once per safety level; the paper's claim as a number.
fn level_metrics(
    opts: &Opts,
    sizing: &Sizing,
    wall: &mut WallSpans,
) -> Result<Vec<Measured>, String> {
    let mut out = Vec::new();
    for (level, update, commit) in LEVELS {
        let c = RunCfg {
            level,
            ..RunCfg::group_safe(
                &TABLE4,
                LEVEL_TPS,
                opts.seed,
                sizing.rung_s,
                ObsConfig::stream(),
            )
        };
        let (_, f) = execute(&c, wall, walk_run(&TABLE4, sizing.rung_s, false))?;
        let mean = ratio(f.update_ms.iter().sum(), f.update_ms.len() as f64);
        out.push(Measured::exact(update, mean).with_n(f.update_ms.len()));
        if let (Some(name), true) = (commit, f.spanned > 0) {
            out.push(Measured::exact(name, f.phase_ms[2] / f.spanned as f64).with_n(f.spanned));
        }
    }
    Ok(out)
}

/// Where the trace file goes: under the build directory.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf").join(format!("{workload}.trace.json"))
}

/// Write the spans as Chrome-trace JSON: every wall span, every rare
/// pipeline span, and the per-transaction spans up to the file cap.
fn write_trace(workload: &str, sim: &[Span], wall: &[Span]) -> Result<PathBuf, String> {
    let rare = |s: &Span| matches!(s.name, "gcs.view_change" | "core.state_transfer");
    // Wall spans index their parent inside `wall`; they lead the file, so
    // those indices stay valid. Sim spans are re-indexed as they are kept.
    let mut picked: Vec<Span> = wall.to_vec();
    let mut kept: BTreeMap<usize, usize> = BTreeMap::new();
    let rare_n = sim.iter().filter(|s| rare(s)).count();
    let mut common_left = spans::TRACE_FILE_CAP.saturating_sub(picked.len() + rare_n);
    for (i, s) in sim.iter().enumerate() {
        if !rare(s) {
            if common_left == 0 {
                continue;
            }
            common_left -= 1;
        }
        kept.insert(i, picked.len());
        picked.push(Span {
            parent: s.parent.and_then(|p| kept.get(&p).copied()),
            ..s.clone()
        });
    }
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, spans::chrome_trace(&picked, sim.len() + wall.len()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Print what the spans say: per span name, how many, their mean
/// duration and their mean self time.
fn print_span_summary(clock: &str, all: &[Span]) {
    let selfs = spans::self_times(all);
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in all.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    for (name, (n, total, own)) in by_name {
        println!(
            "  span {clock:<4} {name:<22} n {n:>8}  mean {:>12.3} us  self {:>12.3} us",
            total as f64 / n as f64 / 1.0e3,
            own as f64 / n as f64 / 1.0e3,
        );
    }
}

/// Measure one workload layer by layer.
pub fn measure(w: &'static Workload, opts: &Opts) -> Result<Outcome, String> {
    let began = Instant::now();
    let sizing = Sizing::of(w, opts.quick);
    let mut wall = WallSpans::open(w.name);
    let mut m: Vec<Measured> = Vec::new();
    let seed = opts.seed;

    // 1. The reference run, obs off and in stream mode, interleaved: the
    //    ratio of their wall times is the tracing overhead.
    let mut passes = Passes::new();
    let mut off_wall = Vec::new();
    let mut stream_wall = Vec::new();
    let mut off: Option<SimRun> = None;
    let mut traced: Option<(SimRun, (StreamFacts, Counters))> = None;
    let pairs = if opts.quick { 1 } else { 3 };
    for _ in 0..pairs {
        let t = Instant::now();
        let c = RunCfg::group_safe(w, w.ref_tps, seed, sizing.long_s, ObsConfig::disabled());
        let (run, ()) = passes.pass(|| execute(&c, &mut wall, |_| ()))?;
        off_wall.push(run.timing.wall_s);
        off = Some(run);
        let c = RunCfg::group_safe(w, w.ref_tps, seed, sizing.long_s, ObsConfig::stream());
        // Spans are kept for the first pair only: one copy is enough.
        let keep = traced.is_none();
        let run = passes.pass(|| {
            let walk = walk_run(w, sizing.long_s, keep);
            execute(&c, &mut wall, |system| {
                (walk(system), Counters::collect(system))
            })
        })?;
        stream_wall.push(run.0.timing.wall_s);
        traced.get_or_insert(run);
        // The drives below take a few seconds: stop pairing when the
        // budget would not cover another pair and them.
        if began.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() + 4.0 > opts.seconds {
            break;
        }
    }
    let (Some(off), Some((run, (facts, counters)))) = (off, traced) else {
        return Err(format!("{}: no reference run completed", w.name));
    };
    assert_same_run(
        &format!("{}: stream-mode run vs obs-off run", w.name),
        &run,
        &off,
    )?;
    let streamed = [(run, facts)];
    let (run, facts) = (&streamed[0].0, &streamed[0].1);
    let report = &run.report;
    let acked = report.acked.max(1) as f64;
    let off_s = stats::median(&off_wall);

    // Gate: the phase means rebuilt here are the Report's own rows.
    if let Some(row) = report.obs_phases.first() {
        let mine = facts.phase_ms.map(|p| p / facts.spanned.max(1) as f64);
        let theirs = [row.submit_ms, row.exec_ms, row.commit_ms, row.reply_ms];
        if row.commits != facts.spanned
            || mine.iter().zip(theirs).any(|(a, b)| (a - b).abs() > 1e-6)
        {
            return Err(format!(
                "{}: phase spans {mine:?} (n {}) differ from Report.obs_phases {theirs:?} (n {})",
                w.name, facts.spanned, row.commits
            ));
        }
    }

    // 2. Counters, by layer.
    let exact = Measured::exact;
    let c = &counters;
    m.push(exact(
        "sim.events_per_commit",
        run.dispatched as f64 / acked,
    ));
    m.push(Measured::of_reps(
        "sim.wall_ns_per_event",
        &off_wall
            .iter()
            .map(|s| s * 1.0e9 / off.dispatched as f64)
            .collect::<Vec<_>>(),
    ));
    m.push(Measured::of_reps(
        "sim.sim_s_per_wall_s",
        &off_wall.iter().map(|s| off.sim_s / s).collect::<Vec<_>>(),
    ));
    m.push(exact(
        "sim.obs_records_per_commit",
        c.obs_records as f64 / acked,
    ));
    m.push(
        exact(
            "sim.obs_overhead_ratio",
            stats::median(&stream_wall) / off_s,
        )
        .with_n(stream_wall.len())
        .noted("stream wall / obs-off wall"),
    );

    m.push(exact(
        "net.deliveries_per_commit",
        c.net.sent as f64 / acked,
    ));
    m.push(exact(
        "net.transmissions_per_commit",
        c.net.transmissions as f64 / acked,
    ));
    m.push(exact("net.frames_per_commit", c.net.frames as f64 / acked));
    m.push(exact(
        "net.dropped_share",
        ratio(
            (c.net.dropped_partition + c.net.dropped_loss) as f64,
            c.net.sent as f64,
        ),
    ));

    m.push(exact(
        "gcs.broadcasts_per_commit",
        c.gcs.broadcasts as f64 / acked,
    ));
    m.push(exact(
        "gcs.persists_per_delivery",
        ratio(c.gcs.persists as f64, c.gcs.delivered as f64),
    ));
    m.push(exact("gcs.votes_per_delivery", c.gcs.votes_per_delivery()));
    m.push(exact("gcs.mean_batch_size", c.gcs.mean_batch_size()));
    m.push(exact("gcs.view_changes", c.gcs.view_changes as f64));
    m.push(exact("gcs.redelivered", c.gcs.redelivered as f64));
    m.push(exact("gcs.demotions", c.gcs.demotions as f64));

    m.push(exact("db.reads_per_commit", c.db_reads as f64 / acked));
    m.push(exact(
        "db.read_miss_ratio",
        ratio(c.db_read_misses as f64, c.db_reads as f64),
    ));
    m.push(exact(
        "db.wal_flushes_per_commit",
        facts.wal_syncs as f64 / acked,
    ));
    m.push(exact(
        "db.wal_records_per_flush",
        ratio(facts.wal_records as f64, facts.wal_syncs as f64),
    ));
    m.push(exact("db.page_flushes", c.db_page_flushes as f64));
    m.push(exact("db.mvcc_retained", c.mvcc_retained as f64));
    m.push(exact("db.mvcc_evictions", c.mvcc_evictions as f64));
    m.push(exact("db.deadlocks", c.named("deadlocks")));

    let spanned = facts.spanned.max(1) as f64;
    for (i, name) in [
        "core.submit_ms",
        "core.exec_ms",
        "core.commit_ms",
        "core.reply_ms",
    ]
    .into_iter()
    .enumerate()
    {
        m.push(exact(name, facts.phase_ms[i] / spanned).with_n(facts.spanned));
    }
    let commits = c.named("txn_committed").max(1.0);
    m.push(exact(
        "core.commit_per_attempt",
        ratio(
            (facts.answered - facts.aborted) as f64,
            facts.attempts as f64,
        ),
    ));
    m.push(exact(
        "core.cert_aborts_per_commit",
        c.named("txn_aborted_cert") / commits,
    ));
    m.push(exact(
        "core.deadlock_aborts_per_commit",
        c.named("txn_aborted_deadlock") / commits,
    ));
    m.push(exact(
        "core.snapshot_too_old",
        c.named("txn_aborted_snapshot_too_old"),
    ));
    m.push(exact("core.client_timeouts", report.timeouts as f64));
    let read_requests = c.named("read_requests");
    m.push(exact(
        "core.read_redirects_per_read",
        ratio(c.named("read_redirects"), read_requests),
    ));
    m.push(exact(
        "core.read_parked_per_read",
        ratio(c.named("read_parked"), read_requests),
    ));
    m.push(exact("core.read_staleness_seqs", report.read_staleness));
    m.push(exact("core.xg_share", report.cross_group_ratio));
    m.push(exact(
        "core.xg_round_timeouts",
        c.named("xg_round_timeouts"),
    ));
    m.push(exact(
        "core.xg_probes_per_xg",
        ratio(c.named("xg_probes"), c.named("xg_coordinated")),
    ));
    m.push(exact("core.state_transfers", c.named("state_transfers")));
    m.push(exact(
        "core.server_recoveries",
        c.named("server_recoveries"),
    ));
    m.push(exact("core.build_wall_ms", off.timing.build_s * 1.0e3));
    m.push(exact("core.finish_wall_ms", off.timing.finish_s * 1.0e3));
    if w.has_faults() {
        m.push(exact("core.audit_wall_ms", off.timing.audit_s * 1.0e3));
    }
    // The end-to-end metrics only some workloads can produce ride with
    // the traced pass (`update_*` belong to the end-to-end pass).
    m.extend(
        stream_metrics(w, &streamed)
            .into_iter()
            .filter(|x| !x.name.starts_with("update_")),
    );

    // 3. Layer-isolation drives, replaying what the run above observed.
    let n = if opts.quick { 1 } else { 3 };
    let spec = w.spec();
    let replica = ReplicaConfig::default();
    let ((), kernel) = reps(n, || {
        let drive = || iso::kernel_ns_per_event(c.actors, off.dispatched, off.sim_s);
        ((), wall.time("iso.sim", drive).0)
    });
    m.push(Measured::of_reps("sim.kernel_wall_ns_per_event", &kernel));
    let ((), net) = reps(n, || {
        let drive = || iso::net_ns_per_delivery(w.servers_per_group as usize, c.net.sent);
        ((), wall.time("iso.net", drive).0)
    });
    m.push(Measured::of_reps("net.wall_ns_per_delivery", &net));
    let abcast_rate = c.gcs.broadcasts as f64 / off.sim_s / f64::from(w.groups);
    let (gcs, gcs_ns) = reps(n, || {
        let g = wall
            .time("iso.gcs", || {
                iso::gcs(w.servers_per_group, abcast_rate, seed)
            })
            .0;
        let ns = g.as_ref().map_or(0.0, |g| g.wall_ns_per_delivery);
        (g, ns)
    });
    if let Some(g) = &gcs {
        m.push(exact("gcs.abcast_ms_p50", g.abcast_ms_p50));
        m.push(exact("gcs.events_per_delivery", g.events_per_delivery));
        m.push(Measured::of_reps("gcs.wall_ns_per_delivery", &gcs_ns));
    }
    let stream = iso::DbStream {
        spec: &spec,
        config: w.db_config(),
        group_tps: w.ref_tps / f64::from(w.groups),
        delegate_every: u64::from(w.servers_per_group),
        cpus: replica.cpus,
        wal_flush_interval: replica.wal_flush_interval,
        page_flush_interval: replica.page_flush_interval,
        disk_sequential_factor: replica.disk_sequential_factor,
        seed,
    };
    let (db, db_commit_ns) = reps(n, || {
        let d = wall.time("iso.db", || iso::db(&stream)).0;
        let ns = d.ns_per_commit;
        (d, ns)
    });
    m.push(exact("db.wall_ns_per_read", db.ns_per_read));
    if let Some(ns) = db.ns_per_versioned_read {
        m.push(exact("db.wall_ns_per_versioned_read", ns));
    }
    m.push(Measured::of_reps("db.wall_ns_per_commit", &db_commit_ns));
    if let Some(ns) = db.ns_per_prune {
        m.push(exact("db.wall_ns_per_prune", ns).with_n(db.prunes));
    }
    m.push(exact("db.cpu_util_est", db.cpu_util));
    m.push(exact("db.data_disk_util_est", db.data_disk_util));
    m.push(exact("db.log_disk_util_est", db.log_disk_util));
    let certify_ns = wall.time("iso.core", || iso::certify_ns(&stream)).0;
    if let Some(ns) = certify_ns {
        m.push(exact("core.certify_wall_ns", ns));
    }
    let (plan_ns, ops_per_txn) = wall.time("iso.workload", || iso::plan_ns(&spec, seed)).0;
    m.push(exact("workload.wall_ns_per_plan", plan_ns));
    m.push(exact("workload.ops_per_txn", ops_per_txn));

    // What the drives explain of the measured wall time; the rest is the
    // replication logic itself, the oracle and the clients.
    let kernel_ns = stats::median(&kernel);
    let own = |ns: f64, events: f64| (ns - events * kernel_ns).max(0.0);
    let prunes = if db.ns_per_prune.is_some() {
        f64::from(w.servers()) * off.sim_s / replica.page_flush_interval.as_secs_f64()
    } else {
        0.0
    };
    let explained_ns = off.dispatched as f64 * kernel_ns
        + c.net.sent as f64 * own(stats::median(&net), 1.0)
        + gcs.as_ref().map_or(0.0, |g| {
            c.gcs.broadcasts as f64 * own(g.wall_ns_per_delivery, g.events_per_delivery)
        })
        + c.db_reads as f64 * db.ns_per_versioned_read.unwrap_or(db.ns_per_read)
        + c.db_commits as f64 * db.ns_per_commit
        + prunes * db.ns_per_prune.unwrap_or(0.0)
        + c.gcs.delivered as f64 * certify_ns.unwrap_or(0.0)
        + facts.submitted as f64 * plan_ns;
    m.push(
        exact(
            "core.wall_residual_share",
            1.0 - explained_ns / (off_s * 1.0e9),
        )
        .noted("1 - sum of the drives' estimates / measured wall"),
    );

    // 4. The paper's claim as a number (on the Table 4 workload only).
    if w.name == TABLE4.name {
        m.extend(level_metrics(opts, &sizing, &mut wall)?);
    }

    m.push(Measured::of_reps("bench.calib_ns_per_iter", &passes.calib));
    m.push(exact("bench.passes_rerun", f64::from(passes.rerun)));

    // 5. Spans: summarise, then write the trace file.
    wall.close();
    print_span_summary("sim", &facts.spans);
    print_span_summary("wall", &wall.spans);
    println!(
        "  wall time no scoped timer claims: {:.3} s of {:.3} s",
        wall.unattributed_s(),
        wall.spans[0].duration_ns() as f64 / 1.0e9
    );
    let path = write_trace(w.name, &facts.spans, &wall.spans)?;
    println!(
        "  wrote {} ({} spans in memory)",
        path.display(),
        facts.spans.len() + wall.spans.len()
    );

    Ok(Outcome {
        metrics: m,
        attempted: facts.submitted,
        failed: facts.unanswered,
    })
}
