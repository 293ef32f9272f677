//! The behavioural contract: one declared table of cells and one
//! committed file, `CONTRACT.txt`, that pins what each of them does.
//!
//! A cell is a run configured only through `SystemBuilder`, `FuzzSpec`
//! and `CrashScenario` calls. A line of the file is one cell:
//! `name | settings | fingerprint=… [dispatched=…] [report=…] counters…`
//! — the kernel's dispatch fingerprint and count, an [`Fnv64`] digest of
//! `Report::to_json()` where the run yields a report, and the cell's
//! witness counters. Before a line is rendered, at `--write` and at
//! `--check` alike, the run is held to the cell's [`Witness`]es: the
//! path the cell exists for fired, and a level the paper's matrix
//! forbids to lose lost nothing. A re-golden therefore cannot pin a run
//! that no longer does what its cell is for.

use std::collections::{BTreeMap, BTreeSet};

use groupsafe_core::scenario::fuzz::{generate_plan, run_fuzz_case, FuzzSpec};
use groupsafe_core::{BatchConfig, Load, ReadLevel, ReplicaServer, Report, Run, SafetyLevel};
use groupsafe_core::{ScenarioPlan, System, SystemBuilder, Technique};
use groupsafe_sim::{Fnv64, ObsConfig, SimDuration, SimTime};
use groupsafe_workload::{run_crash_scenario, CrashScenario, RecoveryPlan};

/// A fuzz row's envelope at a given level.
pub type Envelope = fn(SafetyLevel) -> FuzzSpec;

/// The system configurations every level is fuzzed under, set through
/// builder calls only: each row at every level of [`FUZZ_LEVELS`] and
/// seed of [`FUZZ_SEEDS`] is a cell.
pub const ROWS: [(&str, Envelope); 5] = [
    ("smoke", FuzzSpec::smoke),
    ("batched", |level| {
        FuzzSpec::smoke(level).with_batching(BatchConfig::of(8, SimDuration::from_micros(500)))
    }),
    ("sharded", |level| FuzzSpec::sharded(level, 3)),
    ("session-reads", |level| {
        FuzzSpec::smoke(level).with_reads(ReadLevel::Session, 0.4)
    }),
    ("snapshot-txns", |level| {
        FuzzSpec::smoke(level).with_txns(0.5)
    }),
];

/// Every level `scenario_fuzz --level` accepts.
pub const FUZZ_LEVELS: [SafetyLevel; 5] = [
    SafetyLevel::ZeroSafe,
    SafetyLevel::OneSafe,
    SafetyLevel::GroupSafe,
    SafetyLevel::GroupOneSafe,
    SafetyLevel::TwoSafe,
];

/// The seeds each row is pinned at.
pub const FUZZ_SEEDS: std::ops::Range<u64> = 0..5;

/// A witness predicate: counter `counter` is `value` (`exact`) or at
/// least `value`.
#[derive(Debug, Clone, Copy)]
pub struct Witness {
    /// The counter it reads.
    pub counter: &'static str,
    /// The bound.
    pub value: u64,
    /// Whether the counter must equal the bound rather than reach it.
    pub exact: bool,
}

impl Witness {
    fn holds(&self, o: &Outcome) -> bool {
        let v = o.counters.iter().find(|c| c.0 == self.counter);
        v.is_some_and(|&(_, v)| v == self.value || (!self.exact && v > self.value))
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = if self.exact { "==" } else { ">=" };
        write!(f, "{} {op} {}", self.counter, self.value)
    }
}

const fn at_least(counter: &'static str, value: u64) -> Witness {
    let exact = false;
    Witness {
        counter,
        value,
        exact,
    }
}

const fn exactly(counter: &'static str, value: u64) -> Witness {
    let exact = true;
    Witness {
        counter,
        value,
        exact,
    }
}

/// What a cell's run left behind.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The kernel's dispatch fingerprint.
    pub fingerprint: u64,
    /// The kernel's dispatch count, where the run exposes its system.
    pub dispatched: Option<u64>,
    /// [`Fnv64`] digest of `Report::to_json()`, where the run yields one.
    pub report: Option<u64>,
    /// The witness counters, in line order.
    pub counters: Vec<(&'static str, u64)>,
}

impl Outcome {
    fn new(fingerprint: u64, counters: &[(&'static str, usize)]) -> Outcome {
        let counters = counters.iter().map(|&(k, v)| (k, v as u64)).collect();
        let (dispatched, report) = (None, None);
        Outcome {
            fingerprint,
            dispatched,
            report,
            counters,
        }
    }

    fn with_report(mut self, report: &Report) -> Outcome {
        let mut h = Fnv64::new();
        report.to_json().bytes().for_each(|b| h.mix(u64::from(b)));
        self.report = Some(h.finish());
        self
    }

    fn render(&self) -> String {
        let mut out = format!("fingerprint={:#018x}", self.fingerprint);
        if let Some(d) = self.dispatched {
            out += &format!(" dispatched={d}");
        }
        if let Some(r) = self.report {
            out += &format!(" report={r:#018x}");
        }
        for (key, v) in &self.counters {
            out += &format!(" {key}={v}");
        }
        out
    }
}

/// A cell's run.
type RunCell = Box<dyn Fn() -> Result<Outcome, String>>;

/// One cell of the contract.
pub struct Cell {
    /// Its name, `family/…`: the first field of its line.
    pub name: String,
    /// How it is configured, beyond what its family fixes.
    pub settings: String,
    /// What its run must show for its pin to mean something.
    pub witnesses: Vec<Witness>,
    run: RunCell,
}

impl Cell {
    /// Hold `o` to the cell's witnesses.
    pub fn witness(&self, o: &Outcome) -> Result<(), String> {
        let failed = self.witnesses.iter().filter(|w| !w.holds(o));
        let failed: Vec<String> = failed.map(Witness::to_string).collect();
        if failed.is_empty() {
            return Ok(());
        }
        let (name, outcome) = (&self.name, o.render());
        Err(format!(
            "{name}: witness {} fails: {outcome}",
            failed.join(", ")
        ))
    }

    /// Run the cell, hold it to its witnesses and render its line.
    pub fn line(&self) -> Result<String, String> {
        let outcome = (self.run)().map_err(|e| format!("{}: {e}", self.name))?;
        self.witness(&outcome)?;
        let (name, settings) = (&self.name, &self.settings);
        Ok(format!("{name} | {settings} | {}", outcome.render()))
    }
}

/// The crash shapes — every distinct shape of the crash-matrix suites —
/// each with whether its level may lose acknowledged work under that
/// failure and, at its seed, does (the loss path fired); the others
/// must lose nothing.
pub fn crash_shapes() -> Vec<(&'static str, CrashScenario, bool)> {
    use SafetyLevel::{GroupOneSafe, GroupSafe, TwoSafe, VerySafe, ZeroSafe};
    let small = |level, crash: &[u32], seed| {
        CrashScenario::small(Technique::Dsm(level), crash.to_vec(), seed)
    };
    let lazy = |seed| CrashScenario::small(Technique::Lazy, vec![0], seed);
    let all = [0, 1, 2, 3, 4];
    let ms = SimDuration::from_millis;
    let load = |load_tps, sc| CrashScenario { load_tps, ..sc };
    let recover = |mut sc: CrashScenario| {
        sc.recovery = RecoveryPlan::Recover { downtime: ms(400) };
        sc
    };
    let cut = |mut sc: CrashScenario| {
        (sc.partition_before, sc.partition_hold) = (vec![0], ms(1_500));
        sc
    };
    let last = |mut sc: CrashScenario| {
        sc.crash_last = Some((0, ms(400)));
        load(40.0, recover(sc))
    };
    let shape = |name| match name {
        "group_safe_minority" => (small(GroupSafe, &[1, 3], 1), false),
        "group_safe_all_but_one" => (small(GroupSafe, &[0, 1, 2, 3], 3), false),
        "group_safe_total_recover" => (recover(small(GroupSafe, &all, 5)), true),
        "two_safe_total_recover" => (recover(small(TwoSafe, &all, 7)), false),
        "lazy_delegate_crash_hot" => (load(40.0, lazy(11)), true),
        "lazy_survivors" => (lazy(13), true),
        "zero_safe_partitioned" => (cut(small(ZeroSafe, &[0], 17)), true),
        "group_safe_partitioned" => (cut(small(GroupSafe, &[0], 19)), false),
        "group_one_safe_delegate_last" => (last(small(GroupOneSafe, &all, 23)), false),
        "group_one_safe_delegate_stays_down" => {
            let sc = last(small(GroupOneSafe, &all, 29));
            (
                CrashScenario {
                    stay_down: vec![0],
                    ..sc
                },
                true,
            )
        }
        _ => (load(10.0, recover(small(VerySafe, &all, 67))), false),
    };
    let names = [
        "group_safe_minority",
        "group_safe_all_but_one",
        "group_safe_total_recover",
        "two_safe_total_recover",
        "lazy_delegate_crash_hot",
        "lazy_survivors",
        "zero_safe_partitioned",
        "group_safe_partitioned",
        "group_one_safe_delegate_last",
        "group_one_safe_delegate_stays_down",
        "very_safe_total_recover",
    ];
    let shapes = names.map(|name| (name, shape(name)));
    shapes.map(|(name, (sc, loses))| (name, sc, loses)).to_vec()
}

fn build(b: SystemBuilder) -> Result<Run, String> {
    b.build()
        .map_err(|e| format!("not a valid configuration: {e:?}"))
}

/// Every cell that commits pins something.
const ACKED: Witness = at_least("acked", 1);

/// Every cell of the contract, in file order.
pub fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (n, seed) in [(3, 7), (5, 1234), (9, 42)] {
        let levels = FUZZ_LEVELS.into_iter().chain([SafetyLevel::VerySafe]);
        cells.extend(levels.map(|level| fanout(level, n, seed)));
    }
    let ms = SimTime::from_millis;
    let down = SimDuration::from_millis(600);
    let retract = [at_least("retractions", 1)];
    for (n, seed, sides) in [
        (3, 101, vec![vec![0], vec![1]]),
        (5, 103, vec![vec![0, 1], vec![2, 3]]),
    ] {
        let plan = ScenarioPlan::new()
            .partition(ms(2_000), sides)
            .heal(ms(2_200));
        let plan = plan.crash_for(ms(2_400), n - 1, down);
        cells.push(detector("retract", n, seed, plan, 1_500, &retract));
    }
    let not_in_view = [
        at_least("demotions", 1),
        at_least("transfers", 1),
        exactly("crashes", 0),
    ];
    for (n, seed, minority) in [(3, 107, vec![0]), (5, 109, vec![0, 1])] {
        let plan = ScenarioPlan::new()
            .partition(ms(2_000), vec![minority])
            .heal(ms(3_500));
        cells.push(detector("not-in-view", n, seed, plan, 6_000, &not_in_view));
    }
    let rejoin = [exactly("crashes", 1), at_least("rejoins", 1)];
    for (n, seed, victim) in [(3, 113, 1), (5, 127, 3)] {
        let plan = ScenarioPlan::new().crash_for(ms(1_500), victim, down);
        cells.push(detector("rejoin", n, seed, plan, 6_000, &rejoin));
    }
    cells.extend(crash_shapes().into_iter().map(crash));
    cells.extend([3, 5, 9].map(lost_updates));
    cells.extend([ReadLevel::Stable, ReadLevel::Latest].map(parting));
    for (row, envelope) in ROWS {
        for level in FUZZ_LEVELS {
            cells.extend(FUZZ_SEEDS.map(|seed| fuzz(row, envelope, level, seed)));
        }
    }
    cells
}

/// A fault-free run of the whole stack: 2 clients a server, 25 tps open,
/// 1 s warm-up, 8 s measured, 2 s drain.
fn fanout(level: SafetyLevel, n: u32, seed: u64) -> Cell {
    let secs = SimDuration::from_secs;
    let run = move || {
        let b = System::builder()
            .servers(n)
            .clients_per_server(2)
            .safety(level)
            .load(Load::open_tps(25.0))
            .warmup(secs(1))
            .measure(secs(8))
            .drain(secs(2))
            .seed(seed);
        let r = build(b)?.execute();
        let counters = [("lost", r.lost), ("acked", r.acked)];
        Ok(Outcome::new(r.fingerprint, &counters).with_report(&r))
    };
    Cell {
        name: format!("fanout/{level}/n{n}"),
        settings: format!("safety={level} servers={n} seed={seed}"),
        witnesses: vec![ACKED],
        run: Box::new(run),
    }
}

/// A group-safe run where a heartbeat does more than a latch write,
/// through `plan`: 2 clients a server, 25 tps open for 6 s or until the
/// clients stop at `quiet` ms, then a 3 s drain. `fired` names the path
/// it exists for: a partition no side holds a majority of, healed after
/// the clients stopped, so only heartbeats can retract the suspicions; a
/// minority the majority excludes, which after the heal draws
/// `NotInView`, demotes itself and rejoins by state transfer; a crash and
/// a rejoin under a fresh incarnation. Nothing may be lost.
fn detector(
    path: &str,
    n: u32,
    seed: u64,
    plan: ScenarioPlan,
    quiet: u64,
    fired: &[Witness],
) -> Cell {
    let settings = format!(
        "servers={n} seed={seed} quiet={quiet}ms plan: {}",
        plan.render()
    );
    let run = move || {
        let quiet = SimTime::from_millis(quiet);
        let mut run = build(
            System::builder()
                .servers(n)
                .clients_per_server(2)
                .safety(SafetyLevel::GroupSafe)
                .load(Load::open_tps(25.0))
                .measure(SimDuration::from_secs(6))
                .drain(SimDuration::from_secs(3))
                .seed(seed)
                .scenario(plan.clone()),
        )?;
        run.run_until(quiet);
        run.stop_clients_at(quiet);
        run.run_until(SimTime::from_secs(9));
        let system = run.system();
        let (gcs, _) = system.gcs_stats();
        let sum = |f: fn(&ReplicaServer) -> u32| (0..n).map(|i| f(system.server(i))).sum::<u32>();
        let mut o = Outcome::new(system.engine.fingerprint(), &[]);
        o.dispatched = Some(system.engine.dispatched());
        o.counters = vec![
            ("view_changes", gcs.view_changes),
            ("retractions", gcs.retractions),
            ("demotions", gcs.demotions),
            ("transfers", sum(ReplicaServer::transfer_count).into()),
            ("crashes", sum(ReplicaServer::crash_count).into()),
            ("rejoins", system.engine.metrics().counter("rejoins")),
        ];
        let r = run.finish();
        let tail = [
            ("states", r.distinct_states),
            ("lost", r.lost),
            ("acked", r.acked),
        ];
        o.counters.extend(tail.map(|(k, v)| (k, v as u64)));
        Ok(o.with_report(&r))
    };
    let stable = [
        ACKED,
        exactly("lost", 0),
        exactly("states", 1),
        at_least("view_changes", 2),
    ];
    Cell {
        name: format!("detector/{path}/n{n}"),
        settings: settings.split_whitespace().collect::<Vec<_>>().join(" "),
        witnesses: stable.iter().chain(fired).copied().collect(),
        run: Box::new(run),
    }
}

/// A crash shape, through `run_crash_scenario`.
fn crash((name, sc, loses): (&str, CrashScenario, bool)) -> Cell {
    let settings = format!("{sc:?}");
    let run = move || {
        let o = run_crash_scenario(&sc);
        let counters = [
            ("states", o.distinct_states),
            ("timeouts", o.timeouts as usize),
            ("lost", o.lost),
            ("acked", o.acked),
        ];
        Ok(Outcome::new(o.fingerprint, &counters))
    };
    let lost = if loses {
        at_least("lost", 1)
    } else {
        exactly("lost", 0)
    };
    Cell {
        name: format!("crash/{name}"),
        settings,
        witnesses: vec![ACKED, lost],
        run: Box::new(run),
    }
}

/// The `scaling` bench's lazy run, the one end-to-end run in which the
/// lost-update audit finds real pairs: 4 clients and 4 tps a server,
/// lazy propagation every 100 ms, 2 s warm-up, 20 s measured, 2 s drain,
/// at the bench's seed.
fn lost_updates(n: u32) -> Cell {
    let seed = 900 + u64::from(n);
    let secs = SimDuration::from_secs;
    let run = move || {
        let b = System::builder()
            .servers(n)
            .clients_per_server(4)
            .safety(SafetyLevel::OneSafe)
            .load(Load::open_tps(4.0 * f64::from(n)))
            .client_timeout(secs(5))
            .lazy_prop_interval(SimDuration::from_millis(100))
            .warmup(secs(2))
            .measure(secs(20))
            .drain(secs(2))
            .seed(seed);
        let r = build(b)?.execute();
        let counters = [
            ("lost_updates", r.lost_updates),
            ("commits", r.commits),
            ("lost", r.lost),
            ("acked", r.acked),
        ];
        Ok(Outcome::new(r.fingerprint, &counters).with_report(&r))
    };
    Cell {
        name: format!("lost-updates/n{n}"),
        settings: format!("safety=1-safe servers={n} seed={seed}"),
        witnesses: vec![ACKED, at_least("lost_updates", 1)],
        run: Box::new(run),
    }
}

/// The configuration where `Stable` and `Latest` reads part: the fuzz
/// smoke envelope at 2-safe with half its transactions local reads at
/// `level`, under the plan fuzz seed 13 draws — four of five servers
/// crash and recover, then a partition. The recovered members redeliver
/// from their logs while the votes that made those entries stable died
/// with the crash, so a stable read pins below the applied head where a
/// latest read serves it: the same dispatches, other snapshots.
pub fn parting_reads(level: ReadLevel) -> SystemBuilder {
    let spec = FuzzSpec::smoke(SafetyLevel::TwoSafe).with_reads(level, 0.5);
    System::builder()
        .servers(spec.n_servers)
        .clients_per_server(spec.clients_per_server)
        .safety(spec.level)
        .read_level(level)
        .read_fraction(spec.read_fraction)
        .load(Load::open_tps(spec.load_tps))
        .measure(spec.measure)
        .drain(spec.drain)
        .seed(13 ^ 0x5EED_CAFE)
        .scenario(generate_plan(13, &spec))
}

/// [`parting_reads`] at `level`, its clients stopped at 6 s and drained
/// for 3 s; `lag` sums `applied − snapshot` over the reads served.
fn parting(level: ReadLevel) -> Cell {
    let run = move || {
        let mut run = build(parting_reads(level))?;
        run.run_until(SimTime::from_secs(6));
        run.stop_clients_at(SimTime::from_secs(6));
        run.run_until(SimTime::from_secs(9));
        let system = run.system();
        let tally = system.oracle.borrow().reads.tally().clone();
        let counters = [("served", tally.served), ("lag", tally.lag_sum as usize)];
        let mut o = Outcome::new(system.engine.fingerprint(), &counters);
        o.dispatched = Some(system.engine.dispatched());
        let r = run.finish();
        o.counters
            .extend([("lost", r.lost), ("acked", r.acked)].map(|(k, v)| (k, v as u64)));
        Ok(o.with_report(&r))
    };
    let lag = match level {
        ReadLevel::Stable => at_least("lag", 1),
        ReadLevel::Session | ReadLevel::Latest => exactly("lag", 0),
    };
    Cell {
        name: format!("reads-part/{level}"),
        settings: format!("safety=2-safe read_level={level} read_fraction=0.5 fuzz_seed=13"),
        witnesses: vec![ACKED, lag],
        run: Box::new(run),
    }
}

/// A fuzz row's case, audited clean by the scenario oracle and replayed
/// to the same fingerprint with the full event stream traced.
fn fuzz(row: &str, envelope: Envelope, level: SafetyLevel, seed: u64) -> Cell {
    let run = move || {
        let spec = envelope(level);
        let out = run_fuzz_case(seed, &spec);
        if !out.ok() {
            return Err(format!("the oracle objects:\n{}", out.describe()));
        }
        let twin = run_fuzz_case(seed, &spec.with_obs(ObsConfig::stream()));
        if twin.fingerprint != out.fingerprint {
            return Err("full tracing moved the run".to_string());
        }
        let counters = [("lost", out.audit.lost), ("acked", out.commits)];
        Ok(Outcome::new(out.fingerprint, &counters))
    };
    Cell {
        name: format!("fuzz/{row}/{level}/s{seed}"),
        settings: format!("row={row} safety={level} seed={seed}"),
        witnesses: vec![ACKED],
        run: Box::new(run),
    }
}

const HEADER: &str = "\
# The behavioural contract: one line per cell of groupsafe_bench::contract::cells().
# name | settings | fingerprint, dispatched, report digest and witness counters.
# Check with `contract --check`; a changed line is a re-golden (`contract --write`).
";

fn collect(errors: Vec<String>) -> Result<(), String> {
    if errors.is_empty() {
        return Ok(());
    }
    Err(errors.join("\n"))
}

/// Run every cell and render the file, or name every cell that fails.
pub fn render(cells: &[Cell]) -> Result<String, String> {
    let (lines, errors): (Vec<_>, Vec<_>) = cells.iter().map(Cell::line).partition(Result::is_ok);
    collect(errors.into_iter().filter_map(Result::err).collect())?;
    let lines: Vec<String> = lines.into_iter().filter_map(Result::ok).collect();
    Ok(format!("{HEADER}{}\n", lines.join("\n")))
}

/// The committed file's lines by cell name; a name that appears twice
/// is an error.
fn parse(text: &str) -> Result<BTreeMap<&str, &str>, String> {
    let mut lines = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let name = line.split(" | ").next().unwrap_or(line);
        if lines.insert(name, line).is_some() {
            return Err(format!("cell {name} appears twice in the contract"));
        }
    }
    Ok(lines)
}

/// The file holds every cell of `cells` exactly once, and nothing else.
/// Runs nothing.
pub fn declared(text: &str, cells: &[Cell]) -> Result<(), String> {
    let lines = parse(text)?;
    let names: BTreeSet<&str> = cells.iter().map(|c| c.name.as_str()).collect();
    let mut errors = Vec::new();
    if names.len() != cells.len() {
        errors.push("a cell name is declared twice".to_string());
    }
    let missing = names.iter().filter(|n| !lines.contains_key(*n));
    errors.extend(missing.map(|n| format!("cell {n} is missing from the contract")));
    let undeclared = lines.keys().filter(|n| !names.contains(*n));
    errors.extend(undeclared.map(|n| format!("cell {n} is in the contract but not declared")));
    collect(errors)
}

/// Run `cells` and hold each to its committed line; name every cell that
/// fails its witnesses, is missing or moved.
pub fn check(text: &str, cells: &[Cell]) -> Result<(), String> {
    let lines = parse(text)?;
    let mut errors = Vec::new();
    for cell in cells {
        let name = &cell.name;
        match (cell.line(), lines.get(name.as_str())) {
            (Err(e), _) => errors.push(e),
            (Ok(now), None) => errors.push(format!("cell {name} is missing:\n  now: {now}")),
            (Ok(now), Some(&was)) if now != was => {
                errors.push(format!(
                    "cell {name} moved:\n  committed: {was}\n  now:       {now}"
                ));
            }
            (Ok(_), Some(_)) => {}
        }
    }
    collect(errors)
}

/// [`check`] the declared cells whose names start with one of
/// `families`; a selection of no cell is an error.
pub fn check_families(text: &str, families: &[&str]) -> Result<(), String> {
    let cells: Vec<_> = cells()
        .into_iter()
        .filter(|c| families.iter().any(|f| c.name.starts_with(f)))
        .collect();
    if cells.is_empty() {
        return Err(format!("{families:?} select no cell"));
    }
    check(text, &cells)
}
