//! Driving one simulated run through its lifecycle with the benchmark's
//! own timers around each call, and the correctness gates every run
//! passes before its numbers count.

use std::time::Instant;

use groupsafe_core::{audit_scenario, Report, SafetyLevel, System};
use groupsafe_sim::{ObsConfig, SimDuration};

use crate::spans::WallSpans;
use crate::workloads::{at, secs, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: &'static Workload,
    pub tps: f64,
    pub seed: u64,
    /// Measurement window (simulated seconds).
    pub measure_s: f64,
    pub obs: ObsConfig,
    /// Safety level (the workloads run group-safe; the per-level
    /// comparison overrides it).
    pub level: SafetyLevel,
}

impl RunCfg {
    /// A run at the workloads' own safety level.
    pub fn group_safe(
        workload: &'static Workload,
        tps: f64,
        seed: u64,
        measure_s: f64,
        obs: ObsConfig,
    ) -> RunCfg {
        RunCfg {
            workload,
            tps,
            seed,
            measure_s,
            obs,
            level: SafetyLevel::GroupSafe,
        }
    }
}

/// Host time of each lifecycle call (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// `System::builder()` → `SystemBuilder::build` returned.
    pub build_s: f64,
    /// `System::builder()` → end of the warm-up window.
    pub setup_s: f64,
    /// `Run::start` → end of the drain.
    pub wall_s: f64,
    pub audit_s: f64,
    pub finish_s: f64,
}

/// One finished run.
pub struct SimRun {
    pub report: Report,
    pub timing: Timing,
    /// Events the kernel dispatched.
    pub dispatched: u64,
    /// Simulated seconds covered by `timing.wall_s`.
    pub sim_s: f64,
    /// The delivery backlog was back to 0 at the nominal end of the drain.
    pub drained: bool,
    /// Longest recovery seen (scripted recover instant → the replica's
    /// delivery cursor passing its group's stable watermark), ms.
    pub recovery_ms: Option<f64>,
}

/// Step of the recovery poll: coarse while every replica is up or down
/// (the scripted instants sit on this grid, so a recovery is seen at the
/// instant it happens), fine while one is catching up.
const POLL: SimDuration = SimDuration::from_millis(10);
const POLL_RECOVERING: SimDuration = SimDuration::from_micros(50);
/// How far the drain may be extended while replicas still converge.
const MAX_EXTRA_DRAIN_S: u64 = 30;

/// Watches for crashed replicas coming back and catching up.
struct RecoveryWatch {
    down: Vec<bool>,
    /// Per server: the poll instant it was first seen alive again (ns).
    recovering: Vec<Option<u64>>,
    worst_ms: Option<f64>,
}

impl RecoveryWatch {
    fn new(n: u32) -> Self {
        RecoveryWatch {
            down: vec![false; n as usize],
            recovering: vec![None; n as usize],
            worst_ms: None,
        }
    }

    fn recovering(&self) -> bool {
        self.recovering.iter().any(Option::is_some)
    }

    fn poll(&mut self, system: &System) {
        let now = system.engine.now().as_nanos();
        for i in 0..system.n_servers {
            let alive = system.engine.is_alive(system.servers[i as usize]);
            let slot = i as usize;
            if self.down[slot] && alive {
                self.recovering[slot] = Some(now);
            }
            self.down[slot] = !alive;
            let Some(since) = self.recovering[slot] else {
                continue;
            };
            let Some(gcs) = system.server(i).gcs() else {
                continue;
            };
            // The group's stable watermark as its other live members see it.
            let watermark = system
                .group_server_indices(system.group_of_server(i))
                .into_iter()
                .filter(|&j| j != i && system.engine.is_alive(system.servers[j as usize]))
                .filter_map(|j| system.server(j).gcs().map(|g| g.stable_watermark()))
                .max()
                .unwrap_or(0);
            if alive && gcs.is_joined() && gcs.next_deliver() > watermark {
                let took = (now - since) as f64 / 1.0e6;
                self.worst_ms = Some(self.worst_ms.map_or(took, |w: f64| w.max(took)));
                self.recovering[slot] = None;
            }
        }
    }
}

/// Build, run and audit one system, each lifecycle call under its own
/// scoped timer in `spans`; `inspect` sees the finished system before it
/// is folded into the `Report`. A failed correctness gate is an `Err`
/// naming it.
pub fn execute<T>(
    cfg: &RunCfg,
    spans: &mut WallSpans,
    inspect: impl FnOnce(&System) -> T,
) -> Result<(SimRun, T), String> {
    let w = cfg.workload;
    let tag = format!("{} @ {} tps seed {}", w.name, cfg.tps, cfg.seed);
    let mut timing = Timing::default();

    let (built, build_s) = spans.time("SystemBuilder::build", || {
        w.builder(cfg.tps, cfg.seed, cfg.measure_s, cfg.obs)
            .safety(cfg.level)
            .build()
    });
    let mut run = built.map_err(|e| format!("{tag}: build failed: {e}"))?;
    timing.build_s = build_s;

    let ((), start_s) = spans.time("Run::start", || run.start());
    let measure_end = at(w.warmup_s + cfg.measure_s);
    let drain_end = measure_end + secs(w.drain_s);
    let mut watch = w.has_faults().then(|| RecoveryWatch::new(w.servers()));
    let (warmup_s, run_s) = spans.time("Run::run_until", || {
        let t = Instant::now();
        run.run_until(at(w.warmup_s));
        let warmup_s = t.elapsed().as_secs_f64();
        match watch.as_mut() {
            // Requests stay on schedule through the faults; the poll
            // only reads, so the stepped run dispatches the same events.
            Some(watch) => {
                let mut t = at(w.warmup_s);
                let mut stopped = false;
                while t < drain_end {
                    let step = if watch.recovering() {
                        POLL_RECOVERING
                    } else {
                        POLL
                    };
                    t = (t + step).min(drain_end);
                    if !stopped && t > measure_end {
                        run.run_until(measure_end);
                        run.stop_clients_at(measure_end);
                        stopped = true;
                    }
                    run.run_until(t);
                    watch.poll(run.system());
                }
            }
            None => {
                run.run_until(measure_end);
                run.stop_clients_at(measure_end);
                run.run_until(drain_end);
            }
        }
        warmup_s
    });
    timing.setup_s = build_s + start_s + warmup_s;
    timing.wall_s = start_s + run_s;
    let sim_s = w.warmup_s + cfg.measure_s + w.drain_s;

    // Untimed from here: quiescence checks and the audit.
    let drained = run.system().delivery_backlog() == 0;
    // Convergence is an eventually property: extend the drain in bounded
    // steps while live replicas still disagree, as `run_fuzz_case` does.
    let mut extra = drain_end;
    let cap = drain_end + SimDuration::from_secs(MAX_EXTRA_DRAIN_S);
    while (run.system().convergence().len() > 1
        || run.system().delivery_backlog() > 0
        || run.system().xg_unresolved() > 0)
        && extra < cap
    {
        extra += SimDuration::from_secs(1);
        run.run_until(extra);
    }

    if w.has_faults() {
        let (audit, audit_s) = spans.time("audit_scenario", || {
            audit_scenario(&w.plan(), run.system(), cfg.level)
        });
        timing.audit_s = audit_s;
        if !audit.clean() {
            return Err(format!("{tag}: oracle violations: {:?}", audit.violations));
        }
        if !audit.quiescent {
            return Err(format!("{tag}: the run did not quiesce"));
        }
    }

    let dispatched = run.system().engine.dispatched();
    let inspected = inspect(run.system());
    let (report, finish_s) = spans.time("Run::finish", || run.finish());
    timing.finish_s = finish_s;

    if report.lost != 0 {
        return Err(format!(
            "{tag}: {} acknowledged transactions lost",
            report.lost
        ));
    }
    if report.distinct_states != 1 {
        return Err(format!(
            "{tag}: replicas did not converge ({} distinct states)",
            report.distinct_states
        ));
    }
    Ok((
        SimRun {
            report,
            timing,
            dispatched,
            sim_s,
            drained,
            recovery_ms: watch.and_then(|w| w.worst_ms),
        },
        inspected,
    ))
}

/// `Report::to_json` with the stream-only phase rows set aside: what a
/// stream-mode run and its obs-off twin must agree on byte for byte.
pub fn comparable_json(report: &Report) -> String {
    let mut r = report.clone();
    r.obs_phases.clear();
    r.to_json()
}
