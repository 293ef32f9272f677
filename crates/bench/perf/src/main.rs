//! `perf` — the end-to-end benchmark of the group-safe replicated
//! database: four open-loop workloads, two clocks, per-layer attribution
//! from outside the program.
//!
//! ```text
//! perf --all [--seed N] [--seconds S] [--json FILE]   every workload, each in its own child process
//! perf --quick                                        a ≈ 10 s smoke run (not comparable)
//! perf --workload W --seed N --seconds S --trace 0|1  one workload: end to end (0) or layer by layer (1)
//! perf --diff OLD.json[#run] NEW.json[#run]           ok / regressed / unresolved per metric × workload
//! perf --check                                        the catalogue against BENCHMARK.json
//! ```
//!
//! Every number belongs to one of two clocks. The *simulated* clock is
//! what the modelled database would do: exact for a seed. The *wall*
//! clock is what the simulator costs to run on this host: noisy, so each
//! wall number is a median of repeated passes taken between calibration
//! spins. See `benchmark/README.md`.

// Wall-clock measurement is this benchmark's purpose: GS-D02 exempts
// `crates/bench`, and the clippy mirror of that ban is waived here for
// the same reason.
#![allow(clippy::disallowed_types)]
#![forbid(unsafe_code)]

mod diff;
mod e2e;
mod iso;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod stream;
mod wall;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Measured, CATALOGUE};

/// Options of one measuring invocation.
pub struct Opts {
    pub seed: u64,
    /// Wall-clock budget of the invocation (seconds).
    pub seconds: f64,
    pub quick: bool,
}

/// Default budget per workload and pass; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;
/// Marks the line a child prints for its parent just before the result.
const DETAIL_TAG: &str = "perf-detail ";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.flag("--diff") {
        run_diff(&args)
    } else if args.flag("--check") {
        check()
    } else if args.value("--workload").is_some() {
        child(&args)
    } else if args.flag("--all") || args.flag("--quick") {
        all(&args)
    } else {
        Err("usage: perf --all | --quick | --workload W --seed N --seconds S --trace 0|1 | --diff OLD NEW | --check".to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn opts(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        quick: args.flag("--quick"),
    })
}

// ---------------------------------------------------------------------
// One workload, one pass (what the driver and `--all` run)
// ---------------------------------------------------------------------

/// A measured metric as a results file records it.
fn metric_json(m: &Measured) -> (String, Json) {
    let d = metrics::def(m.name);
    let entry = [
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(d.map_or("", |d| d.unit).to_string())),
        (
            "clock",
            Json::Str(d.map_or("", |d| d.clock.label()).to_string()),
        ),
        ("q1", Json::Num(m.q1)),
        ("q3", Json::Num(m.q3)),
        ("n", Json::Num(m.n as f64)),
        ("note", Json::Str(m.note.clone())),
    ];
    (m.name.to_string(), Json::object(entry))
}

fn child(args: &Args) -> Result<(), String> {
    let name = args.value("--workload").unwrap_or_default();
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let o = opts(args)?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace: expected 0 or 1, got {t:?}")),
    };
    println!(
        "perf {} seed {} budget {} s trace {}{}",
        w.name,
        o.seed,
        o.seconds,
        u8::from(trace),
        if o.quick {
            " QUICK (not comparable)"
        } else {
            ""
        }
    );
    let outcome = if trace {
        layers::measure(w, &o)?
    } else {
        e2e::measure(w, &o)?
    };

    for m in &outcome.metrics {
        let d = metrics::def(m.name).ok_or_else(|| format!("{}: not in the catalogue", m.name))?;
        if !m.value.is_finite() {
            return Err(format!(
                "{} {}: not a finite number ({})",
                w.name, m.name, m.value
            ));
        }
        println!(
            "  {:<34} {:>16.6} {:<6} [{}] q1 {:.6} q3 {:.6} n {} {}",
            m.name,
            m.value,
            d.unit,
            d.clock.label(),
            m.q1,
            m.q3,
            m.n,
            m.note
        );
    }
    let detail = Json::Obj(outcome.metrics.iter().map(metric_json).collect());
    println!("{DETAIL_TAG}{}", detail.render());

    // The result line: with tracing off every end-to-end metric, with
    // tracing on every per-layer metric. A per-layer metric this workload
    // cannot produce reads 0; an end-to-end one must exist.
    let mut line = Vec::new();
    for d in CATALOGUE.iter().filter(|d| d.contract_e2e != trace) {
        let value = match outcome.metrics.iter().find(|m| m.name == d.name) {
            Some(m) => m.value,
            None if trace => 0.0,
            None => return Err(format!("{}: {} was not measured", w.name, d.name)),
        };
        let entry = [
            ("value", Json::Num(value)),
            ("unit", Json::Str(d.unit.to_string())),
        ];
        line.push((d.name.to_string(), Json::object(entry)));
    }
    let result = Json::object([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(line)),
    ]);
    println!("{}", result.render());
    Ok(())
}

// ---------------------------------------------------------------------
// Every workload, each pass in a child process of its own
// ---------------------------------------------------------------------

/// Run one pass of one workload in a child process (so peak RSS is the
/// workload's own); returns its detail line and its result line.
fn spawn(w: &str, o: &Opts, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawning {w}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text
        .lines()
        .filter(|l| !l.starts_with(DETAIL_TAG) && !l.starts_with('{'))
    {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{w} (trace {}) failed: {}",
            u8::from(trace),
            out.status
        ));
    }
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_TAG))
        .ok_or_else(|| format!("{w}: no detail line"))?;
    let result = text.lines().last().unwrap_or_default();
    Ok((
        json::parse(detail).map_err(|e| format!("{w}: detail line: {e}"))?,
        json::parse(result).map_err(|e| format!("{w}: result line: {e}"))?,
    ))
}

/// The workload design, checked on what the traced runs measured rather
/// than assumed.
fn design_checks(value: &dyn Fn(&str, &str) -> Option<f64>) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: Option<bool>, what: &str| match ok {
        Some(true) => println!("design ok: {what}"),
        Some(false) => failed.push(format!("design check failed: {what}")),
        None => failed.push(format!("design check has no data: {what}")),
    };
    let phases = [
        "core.submit_ms",
        "core.exec_ms",
        "core.commit_ms",
        "core.reply_ms",
    ];
    let exec_share = |w: &str| {
        let total: f64 = phases.iter().map(|p| value(w, p)).sum::<Option<f64>>()?;
        Some(value(w, "core.exec_ms")? / total)
    };
    check(
        exec_share("table4").map(|s| s >= 0.60),
        "execution is >= 60 % of an update on table4",
    );
    check(
        exec_share("ordering").map(|s| s <= 0.40),
        "execution is <= 40 % of an update on ordering",
    );
    let abcast_rate =
        |w: &str| Some(value(w, "gcs.broadcasts_per_commit")? * workloads::by_name(w)?.ref_tps);
    check(
        abcast_rate("ordering")
            .zip(abcast_rate("table4"))
            .map(|(o, t)| o >= 20.0 * t),
        "ordering broadcasts >= 20x as often as table4",
    );
    check(
        value("table4", "sim.events_per_commit")
            .zip(value("readmix", "sim.events_per_commit"))
            .map(|(t, r)| t >= 20.0 * r),
        "table4 dispatches >= 20x the events per commit of readmix",
    );
    check(
        value("table4", "core.commit_ms.two_safe")
            .zip(value("table4", "core.commit_ms.group_safe"))
            .map(|(two, group)| two >= 5.0 * group),
        "the 2-safe commit phase is >= 5x the group-safe one",
    );
    for w in ["table4", "ordering", "readmix"] {
        let quiet = [
            "gcs.view_changes",
            "core.state_transfers",
            "net.dropped_share",
        ]
        .iter()
        .map(|m| value(w, m))
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.iter().all(|&x| x == 0.0));
        check(
            quiet,
            &format!("no view change, state transfer or dropped message on {w}"),
        );
        let rungs = workloads::by_name(w).map_or(&[][..], |w| w.ladder);
        let inside = value(w, "knee_tps")
            .zip(rungs.first().zip(rungs.last()))
            .map(|(k, (lo, hi))| k > *lo && k < *hi);
        check(
            inside,
            &format!("the knee of {w} is neither its bottom nor its top rung"),
        );
    }
    failed
}

fn all(args: &Args) -> Result<(), String> {
    let o = opts(args)?;
    if o.quick {
        println!("QUICK smoke run: windows, seeds and passes are cut down; the numbers are NOT comparable");
    }
    let mut workloads_json = Vec::new();
    let mut incorrect = Vec::new();
    for w in workloads::ALL {
        let (e2e, e2e_result) = spawn(w.name, &o, false)?;
        let (layer, layer_result) = spawn(w.name, &o, true)?;
        // The end-to-end pass comes first and wins a name both passes emit.
        let mut metrics: Vec<(String, Json)> = Vec::new();
        for (name, m) in e2e.as_obj().iter().chain(layer.as_obj()) {
            if !metrics.iter().any(|(n, _)| n == name) {
                metrics.push((name.clone(), m.clone()));
            }
        }
        for r in [&e2e_result, &layer_result] {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                incorrect.push(format!("{}: a pass reported failed requests", w.name));
            }
        }
        let count = |key: &str| e2e_result.get(key).cloned().unwrap_or(Json::Null);
        let entry = [
            ("correct", count("correct")),
            ("attempted", count("attempted")),
            ("failed", count("failed")),
            ("metrics", Json::Obj(metrics)),
        ];
        workloads_json.push((w.name.to_string(), Json::object(entry)));
    }
    let run = Json::object([
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("quick", Json::Bool(o.quick)),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let value = |w: &str, name: &str| -> Option<f64> {
        let metrics = run.get("workloads")?.get(w)?.get("metrics")?;
        metrics.get(name)?.get("value")?.as_f64()
    };

    // The summary: every metric by name with its unit, one column per workload.
    println!(
        "\n{:<34} {:<6} {:<5} {:>14} {:>14} {:>14} {:>14}",
        "metric", "unit", "clock", "table4", "ordering", "readmix", "shardfault"
    );
    for d in CATALOGUE {
        let cells: Vec<String> = workloads::ALL
            .iter()
            .map(|w| value(w.name, d.name).map_or("-".to_string(), |v| format!("{v:.4}")))
            .collect();
        println!(
            "{:<34} {:<6} {:<5} {:>14} {:>14} {:>14} {:>14}",
            d.name,
            d.unit,
            d.clock.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    if let Some(path) = args.value("--json") {
        // A results file holds a list of runs; a new run is appended.
        let mut runs: Vec<String> = Vec::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let earlier = doc.get("runs").map(Json::as_arr).unwrap_or_default();
            runs = earlier.iter().map(Json::render).collect();
        }
        runs.push(run.render());
        std::fs::write(
            path,
            format!("{{\"schema\":1,\"runs\":[\n{}\n]}}\n", runs.join(",\n")),
        )
        .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} ({} run(s))", runs.len());
    }

    let mut problems = incorrect;
    if !o.quick {
        problems.extend(design_checks(&value));
    }
    if problems.is_empty() {
        println!("all correctness gates passed on every workload");
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

// ---------------------------------------------------------------------
// --diff and --check
// ---------------------------------------------------------------------

fn run_diff(args: &Args) -> Result<(), String> {
    let i = args.0.iter().position(|a| a == "--diff").unwrap_or(0);
    let (Some(old), Some(new)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
        return Err("--diff needs two result files".to_string());
    };
    match diff::print(&diff::load_run(old)?, &diff::load_run(new)?) {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) regressed")),
    }
}

/// Hold the catalogue and the workloads against `BENCHMARK.json`: the
/// names this binary emits and the names the contract lists must be the
/// same sets, with the same units, directions and bounds.
fn check() -> Result<(), String> {
    let path = [
        "BENCHMARK.json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json"),
    ]
    .into_iter()
    .find(|p| std::path::Path::new(p).exists())
    .ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut problems = Vec::new();

    let listed: Vec<&str> = doc
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let mine: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    if listed != mine {
        problems.push(format!(
            "workloads: BENCHMARK.json lists {listed:?}, perf runs {mine:?}"
        ));
    }
    for w in workloads::ALL {
        let why = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|x| x.get("name").and_then(Json::as_str) == Some(w.name))
            .and_then(|x| x.get("why")?.as_str());
        if why != Some(w.why) {
            problems.push(format!("workload {}: `why` differs", w.name));
        }
    }
    if doc.get("run_seconds").and_then(Json::as_f64) != Some(DEFAULT_SECONDS) {
        problems.push(format!("run_seconds is not {DEFAULT_SECONDS}"));
    }
    for (section, e2e) in [("end_to_end", true), ("per_layer", false)] {
        let listed = doc.get(section).map(Json::as_arr).unwrap_or_default();
        let mine: Vec<_> = CATALOGUE.iter().filter(|d| d.contract_e2e == e2e).collect();
        for d in &mine {
            let Some(entry) = listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name))
            else {
                problems.push(format!("{section}: {} is emitted but not listed", d.name));
                continue;
            };
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            if entry.get("unit").and_then(Json::as_str) != Some(d.unit)
                || entry.get("better").and_then(Json::as_str) != Some(better)
            {
                problems.push(format!("{section}: {} unit/better differ", d.name));
            }
            if e2e
                && entry.get("bound").and_then(Json::as_f64)
                    != d.bound.map(|(relative, _)| relative)
            {
                problems.push(format!("{section}: {} bound differs", d.name));
            }
        }
        for entry in listed {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            if !mine.iter().any(|d| d.name == name) {
                problems.push(format!("{section}: {name} is listed but not emitted"));
            }
        }
    }
    if problems.is_empty() {
        println!(
            "check ok: {} workloads, {} metrics match {path}",
            workloads::ALL.len(),
            CATALOGUE.len()
        );
        Ok(())
    } else {
        Err(problems.join("\n      "))
    }
}
