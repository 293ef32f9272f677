//! The end-to-end pass of one workload (tracing off for every wall
//! number): the ladder pass for the knee, the obs-off reference passes
//! for the wall cost, and one stream-mode reference run for the
//! latencies split by operation type.

use std::time::Instant;

use groupsafe_sim::ObsConfig;

use crate::metrics::Measured;
use crate::run::{comparable_json, execute, RunCfg, SimRun};
use crate::spans::WallSpans;
use crate::stats::{self, Rung};
use crate::stream::{self, StreamFacts};
use crate::wall::{self, Passes};
use crate::workloads::{at, Workload};
use crate::Opts;

/// How much one invocation runs.
pub struct Sizing {
    /// Measurement window of a ladder rung / of a reference run (s).
    pub rung_s: f64,
    pub long_s: f64,
    /// Seeds the ladder is climbed with; the knee is their median.
    pub ladder_seeds: u64,
    pub ref_seeds: u64,
    pub min_passes: usize,
    pub max_passes: usize,
    /// Extra build + start + warm-up cycles timed for `setup_s`.
    pub setup_reps: usize,
}

impl Sizing {
    pub fn of(w: &Workload, quick: bool) -> Sizing {
        if quick {
            // A smoke run: a quarter of each rung, a tenth of each
            // reference window, one seed, one pass. Not comparable.
            Sizing {
                rung_s: w.rung_s / 4.0,
                long_s: if w.has_faults() {
                    w.long_s
                } else {
                    w.long_s / 10.0
                },
                ladder_seeds: 1,
                ref_seeds: 1,
                min_passes: 1,
                max_passes: 1,
                setup_reps: 2,
            }
        } else {
            Sizing {
                rung_s: w.rung_s,
                long_s: w.long_s,
                ladder_seeds: 3,
                ref_seeds: w.ref_seeds,
                min_passes: 3,
                max_passes: 5,
                setup_reps: 8,
            }
        }
    }
}

/// What one measured pass hands back to `main`.
pub struct Outcome {
    pub metrics: Vec<Measured>,
    /// Requests submitted / requests that never got a committed answer,
    /// over the stream-mode reference runs.
    pub attempted: usize,
    pub failed: usize,
}

/// Walk the event stream of a finished stream-mode run.
pub fn walk_run(
    w: &Workload,
    measure_s: f64,
    keep_spans: bool,
) -> impl FnOnce(&groupsafe_core::System) -> StreamFacts + '_ {
    move |system| {
        stream::walk(
            system.engine.obs().events(),
            at(w.warmup_s).as_nanos(),
            at(w.warmup_s + measure_s).as_nanos(),
            &w.fault_instants_ns(),
            keep_spans,
        )
    }
}

/// `failed_share`: client timeouts and requests with no committed answer
/// by the end of the drain, over requests submitted. (An acknowledged
/// transaction that is lost fails the run outright.)
pub fn failed_share(run: &SimRun, facts: &StreamFacts) -> f64 {
    (run.report.timeouts as usize + facts.unanswered) as f64 / facts.submitted.max(1) as f64
}

/// Climb the ladder from rung `from` with one seed, stopping after the
/// first rung that fails; returns the rungs climbed.
fn climb(
    w: &'static Workload,
    seed: u64,
    from: usize,
    sizing: &Sizing,
    spans: &mut WallSpans,
) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    for &tps in &w.ladder[from..] {
        // Stream mode: the SLO may be on one operation type, and only the
        // event stream tells them apart. Recording is invisible to the run.
        let c = RunCfg::group_safe(w, tps, seed, sizing.rung_s, ObsConfig::stream());
        let (run, facts) = execute(&c, spans, walk_run(w, sizing.rung_s, false))?;
        let samples = if w.slo_on_reads {
            &facts.read_ms
        } else {
            &facts.update_ms
        };
        let tail = stats::tail(samples, facts.unanswered);
        let rung = Rung {
            offered_tps: tps,
            arrived_tps: facts.arrived_in_window as f64 / sizing.rung_s,
            achieved_tps: run.report.achieved_tps,
            tail_ms: tail.map_or(f64::NAN, |t| t.tail),
            failed_share: failed_share(&run, &facts),
            drained: run.drained,
        };
        let verdict = stats::rung_verdict(&rung, w.slo_ms);
        println!(
            "  ladder seed {seed} {tps:>6} tps: arrived {:>8.1} achieved {:>8.1}  p50 {:>9.3} ms  p{:.0} {:>10.3} ms (n {}, {} beyond)  failed {:.5}  {}",
            rung.arrived_tps,
            rung.achieved_tps,
            tail.map_or(f64::NAN, |t| t.p50),
            tail.map_or(0.0, |t| t.tail_q * 100.0),
            rung.tail_ms,
            tail.map_or(0, |t| t.n),
            tail.map_or(0, |t| t.beyond),
            rung.failed_share,
            match verdict {
                Ok(()) => "sustained".to_string(),
                Err(why) => format!("not sustained: {why:?}"),
            }
        );
        rungs.push(rung);
        if verdict.is_err() {
            break;
        }
    }
    Ok(rungs)
}

/// The ladder pass: the knee per seed, and their median.
fn ladder_pass(
    w: &'static Workload,
    opts: &Opts,
    sizing: &Sizing,
    spans: &mut WallSpans,
) -> Result<Measured, String> {
    let ref_rung = w.ladder.iter().position(|&r| r == w.ref_tps).unwrap_or(0);
    let mut knees = Vec::new();
    for s in 0..sizing.ladder_seeds {
        let seed = opts.seed.wrapping_add(s);
        // The first seed climbs the whole ladder and prints the curve; the
        // others start at the reference rate, which sits well under the
        // knee, and fall back to the bottom only if that rung fails.
        let mut from = if s == 0 { 0 } else { ref_rung };
        let knee = loop {
            let rungs = climb(w, seed, from, sizing, spans)?;
            match stats::knee(&rungs, w.slo_ms) {
                Some(k) => break k,
                None if from > 0 => from = 0,
                None => {
                    return Err(format!(
                        "{}: the bottom rung of the ladder is not sustained (seed {seed})",
                        w.name
                    ))
                }
            }
        };
        knees.push(knee);
    }
    Ok(Measured::exact("knee_tps", stats::median(&knees))
        .with_n(knees.len())
        .noted(format!("per seed {knees:?}, SLO {} ms", w.slo_ms)))
}

/// One obs-off reference pass: every reference seed, back to back.
fn reference_pass(
    w: &'static Workload,
    opts: &Opts,
    sizing: &Sizing,
    spans: &mut WallSpans,
) -> Result<Vec<SimRun>, String> {
    (0..sizing.ref_seeds)
        .map(|s| {
            let seed = opts.seed.wrapping_add(s);
            let c = RunCfg::group_safe(w, w.ref_tps, seed, sizing.long_s, ObsConfig::disabled());
            execute(&c, spans, |_| ()).map(|(run, ())| run)
        })
        .collect()
}

/// Simulated-clock metrics of the reference-rate stream runs, one run per
/// reference seed. Counts and gaps take the median over seeds. Latency
/// percentiles take the mean: a percentile of a lightly loaded system
/// sits on a mass point of the service-time distribution (0.97 ms for
/// half the seeds on `shardfault`), and the mean keeps the digits the
/// seeds differ in where a median would print the mass point every time.
pub fn stream_metrics(w: &Workload, runs: &[(SimRun, StreamFacts)]) -> Vec<Measured> {
    let mut out = Vec::new();
    let over_seeds = |name: &'static str, value: f64, seeds: usize, note: String| {
        Measured::exact(name, value).with_n(seeds).noted(note)
    };
    let median = |name: &'static str, per_seed: Vec<f64>, note: &str| {
        over_seeds(
            name,
            stats::median(&per_seed),
            per_seed.len(),
            note.to_string(),
        )
    };
    let mut latency =
        |p50: &'static str, p99: &'static str, pick: fn(&StreamFacts) -> &Vec<f64>| {
            let tails: Vec<stats::Tail> = runs
                .iter()
                .filter_map(|(_, f)| stats::tail(pick(f), f.unanswered))
                .collect();
            let Some(first) = tails.first() else {
                return;
            };
            let note = format!(
                "n {} per seed, p{:.0} with {} beyond",
                first.n,
                first.tail_q * 100.0,
                first.beyond
            );
            let mean = |pick: fn(&stats::Tail) -> f64| {
                tails.iter().map(pick).sum::<f64>() / tails.len() as f64
            };
            out.push(over_seeds(p50, mean(|t| t.p50), tails.len(), note.clone()));
            out.push(over_seeds(p99, mean(|t| t.tail), tails.len(), note));
        };
    latency("update_p50_ms", "update_p99_ms", |f| &f.update_ms);
    latency("read_p50_ms", "read_p99_ms", |f| &f.read_ms);
    out.push(median(
        "abort_rate",
        runs.iter()
            .map(|(_, f)| f.aborted as f64 / f.answered.max(1) as f64)
            .collect(),
        "aborted / answered attempts",
    ));
    out.push(median(
        "failed_share",
        runs.iter().map(|(run, f)| failed_share(run, f)).collect(),
        "(timeouts + unanswered) / submitted",
    ));
    if w.has_faults() {
        out.push(median(
            "unavail_ms",
            runs.iter().map(|(_, f)| f.unavail_ms).collect(),
            "longest per-group gap between committed replies",
        ));
        let recoveries: Vec<f64> = runs.iter().filter_map(|(run, _)| run.recovery_ms).collect();
        if !recoveries.is_empty() {
            out.push(median(
                "recovery_ms",
                recoveries,
                "worst replica: recover instant → past the stable watermark",
            ));
        }
    }
    out
}

/// Gate: the stream-mode run and the obs-off run of the same seed are the
/// same run.
pub fn assert_same_run(what: &str, a: &SimRun, b: &SimRun) -> Result<(), String> {
    if a.report.fingerprint != b.report.fingerprint {
        return Err(format!(
            "{what}: fingerprints differ ({:#018x} vs {:#018x})",
            a.report.fingerprint, b.report.fingerprint
        ));
    }
    if comparable_json(&a.report) != comparable_json(&b.report) {
        return Err(format!("{what}: Report::to_json() differs"));
    }
    Ok(())
}

/// Gate: on a workload without read-path reads, the update latencies
/// rebuilt from the stream are the `Report`'s own percentiles.
fn assert_stream_matches_report(w: &Workload, run: &SimRun, f: &StreamFacts) -> Result<(), String> {
    if !f.read_ms.is_empty() {
        return Ok(());
    }
    let (p50, p99) = (
        stats::quantile(&f.update_ms, 0.50),
        stats::quantile(&f.update_ms, 0.99),
    );
    if p50 != run.report.p50_ms
        || p99 != run.report.p99_ms
        || f.update_ms.len() != run.report.commits
    {
        return Err(format!(
            "{}: stream-derived latencies ({p50}, {p99}, n {}) differ from the Report's ({}, {}, n {})",
            w.name,
            f.update_ms.len(),
            run.report.p50_ms,
            run.report.p99_ms,
            run.report.commits
        ));
    }
    Ok(())
}

/// Measure one workload end to end.
pub fn measure(w: &'static Workload, opts: &Opts) -> Result<Outcome, String> {
    let began = Instant::now();
    let sizing = Sizing::of(w, opts.quick);
    let mut spans = WallSpans::open(w.name);
    let mut metrics = Vec::new();

    // 1. Reference passes, observability disabled, first: the process is
    //    fresh, and the peak resident set read after them is theirs alone.
    //    Every pass replays the same seeds, so equal fingerprints are the
    //    double-run gate. They may use the share of the budget the ladder
    //    and the stream-mode runs will not need.
    let share = if w.ladder.is_empty() { 0.75 } else { 0.6 };
    let mut passes = Passes::new();
    let mut first: Option<Vec<SimRun>> = None;
    let mut us_per_commit = Vec::new();
    let mut setup_s = Vec::new();
    loop {
        let t = Instant::now();
        let runs = passes.pass(|| reference_pass(w, opts, &sizing, &mut spans))?;
        let pass_s = t.elapsed().as_secs_f64();
        let wall_s: f64 = runs.iter().map(|r| r.timing.wall_s).sum();
        let acked: usize = runs.iter().map(|r| r.report.acked).sum();
        us_per_commit.push(wall_s * 1.0e6 / acked.max(1) as f64);
        setup_s.extend(runs.iter().map(|r| r.timing.setup_s));
        match &first {
            None => first = Some(runs),
            Some(first) => {
                for (a, b) in first.iter().zip(&runs) {
                    assert_same_run(&format!("{}: same-seed double run", w.name), a, b)?;
                }
            }
        }
        let done = us_per_commit.len();
        let room = began.elapsed().as_secs_f64() + pass_s <= share * opts.seconds;
        if done >= sizing.max_passes || (done >= sizing.min_passes && !room) {
            break;
        }
    }
    let first = first.unwrap_or_default();
    metrics.push(
        Measured::of_reps("wall_us_per_commit", &us_per_commit)
            .noted(format!("passes {us_per_commit:.2?}")),
    );

    // 2. Peak resident set of the reference passes.
    if let Some(mb) = wall::peak_rss_mb() {
        metrics.push(Measured::exact("peak_rss_mb", mb));
    }

    // 3. Ladder pass. Under a fault plan there is no ladder: the committed
    //    goodput at the fixed rate stands in for the knee.
    if w.ladder.is_empty() {
        let goodput: Vec<f64> = first.iter().map(|r| r.report.achieved_tps).collect();
        metrics.push(
            Measured::exact("knee_tps", stats::median(&goodput))
                .with_n(goodput.len())
                .noted(format!(
                    "committed goodput at {} tps offered, per seed {goodput:?}",
                    w.ref_tps
                )),
        );
    } else {
        metrics.push(ladder_pass(w, opts, &sizing, &mut spans)?);
    }

    // 4. The same reference runs in stream mode: latencies by operation type.
    let mut streamed = Vec::new();
    for (s, twin) in first.iter().enumerate() {
        let seed = opts.seed.wrapping_add(s as u64);
        let c = RunCfg::group_safe(w, w.ref_tps, seed, sizing.long_s, ObsConfig::stream());
        let (run, facts) = execute(&c, &mut spans, walk_run(w, sizing.long_s, false))?;
        assert_same_run(
            &format!("{}: stream-mode run vs obs-off run", w.name),
            &run,
            twin,
        )?;
        assert_stream_matches_report(w, &run, &facts)?;
        setup_s.push(run.timing.setup_s);
        streamed.push((run, facts));
    }
    metrics.extend(stream_metrics(w, &streamed));

    // 5. Set-up time: the reference runs above plus dedicated cycles.
    for _ in 0..sizing.setup_reps {
        let t = Instant::now();
        let mut run = w
            .builder(w.ref_tps, opts.seed, sizing.long_s, ObsConfig::disabled())
            .build()
            .map_err(|e| format!("{}: build failed: {e}", w.name))?;
        run.run_until(at(w.warmup_s));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    metrics.push(Measured::of_reps("setup_s", &setup_s));
    metrics.push(Measured::of_reps("bench.calib_ns_per_iter", &passes.calib));
    metrics.push(Measured::exact(
        "bench.passes_rerun",
        f64::from(passes.rerun),
    ));

    Ok(Outcome {
        metrics,
        attempted: streamed.iter().map(|(_, f)| f.submitted).sum(),
        failed: streamed.iter().map(|(_, f)| f.unanswered).sum(),
    })
}
