//! The behavioural contract: one declared table of cells and one
//! committed file, `CONTRACT.txt`, that pins what each of them does.
//!
//! A cell is a run configured only through `SystemBuilder` and
//! `CrashScenario` calls. A line of the file is one cell:
//! `name | settings | fingerprint=… [dispatched=…] [report=…] counters…`
//! — the kernel's dispatch fingerprint and count, an [`Fnv64`] digest of
//! `Report::to_json()` where the run yields a report, and the cell's
//! witness counters. Before a line is rendered, at `--write` and at
//! `--check` alike, the run is held to the cell's [`Witness`]es: the
//! path the cell exists for fired, and a level the paper's matrix
//! forbids to lose lost nothing. A re-golden therefore cannot pin a run
//! that no longer does what its cell is for.

use std::collections::{BTreeMap, BTreeSet};

use groupsafe_core::scenario::fuzz::{self as envelopes, generate_plan, run_fuzz_case};
use groupsafe_core::{BatchConfig, Load, ReadLevel, ReadPath, ReplicaServer, Report, Run};
use groupsafe_core::{SafetyLevel, ScenarioPlan, System, SystemBuilder, Technique, WorkloadSpec};
use groupsafe_db::{BufferModel, DbConfig};
use groupsafe_gcs::harness::{Cluster, HostMsg};
use groupsafe_gcs::{DeliveryRecord, GcsConfig};
use groupsafe_net::NodeId;
use groupsafe_sim::{Disk, Fnv64, ObsConfig, SimDuration, SimTime};
use groupsafe_workload::{run_crash_scenario, CrashOutcome, CrashScenario, RecoveryPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the fuzz matrix: an envelope, set through builder calls
/// only, and the levels it runs at, each with the seeds `scenario_fuzz`
/// runs there by default — its CI budget; a level of budget 0 runs only
/// when asked for by `--seeds`.
#[derive(Debug)]
pub struct FuzzRow {
    /// Its name: the `R` of its cells `fuzz/R/L/sS` and of `scenario_fuzz
    /// --row R`.
    pub name: &'static str,
    /// Its envelope at a level: the system every case of it runs, before
    /// the case's seed and fault plan.
    pub envelope: fn(SafetyLevel) -> SystemBuilder,
    /// Whether the contract pins it: each of its levels at each seed of
    /// [`FUZZ_SEEDS`] is a cell.
    pub pinned: bool,
    /// Its levels, in the order of its cells, each with its budget.
    pub levels: &'static [(SafetyLevel, u64)],
}

/// The fuzz matrix: every envelope the safety levels are fuzzed under,
/// declared once. The contract's `fuzz/…` cells are its pinned rows;
/// `scenario_fuzz` with no arguments runs every row's budget (1 070
/// scenarios).
#[rustfmt::skip]
pub static FUZZ: [FuzzRow; 13] = {
    use ReadLevel::{Latest, Session, Stable};
    use SafetyLevel::{GroupOneSafe, GroupSafe, OneSafe, TwoSafe, ZeroSafe};
    use envelopes::{sharded, smoke};
    [
        FuzzRow { name: "smoke", pinned: true, envelope: smoke, levels: &[
            (ZeroSafe, 40), (OneSafe, 40), (GroupSafe, 100), (GroupOneSafe, 0), (TwoSafe, 100)] },
        // Not at 1-safe: the lazy baseline builds no gcs endpoint, so
        // nothing reads its batching.
        FuzzRow { name: "batched", pinned: true, envelope: |l| {
                smoke(l).batching(BatchConfig::of(8, SimDuration::from_micros(500)))
            },
            levels: &[(ZeroSafe, 0), (GroupSafe, 100), (GroupOneSafe, 0), (TwoSafe, 100)] },
        FuzzRow { name: "sharded", pinned: true, envelope: |l| sharded(l, 3), levels: &[
            (ZeroSafe, 0), (OneSafe, 0), (GroupSafe, 50), (GroupOneSafe, 30), (TwoSafe, 30)] },
        // Not at 1-safe: the lazy baseline has no local read path.
        FuzzRow { name: "session-reads", pinned: true,
            envelope: |l| smoke(l).read_level(Session).read_fraction(0.4),
            levels: &[(ZeroSafe, 0), (GroupSafe, 0), (GroupOneSafe, 0), (TwoSafe, 0)] },
        // Not at 1-safe: the lazy baseline has no snapshot path.
        FuzzRow { name: "snapshot-txns", pinned: true, envelope: |l| smoke(l).txn_fraction(0.5),
            levels: &[(ZeroSafe, 0), (GroupSafe, 50), (GroupOneSafe, 50), (TwoSafe, 50)] },
        FuzzRow { name: "stable-reads-50", pinned: false,
            envelope: |l| smoke(l).read_level(Stable).read_fraction(0.5),
            levels: &[(GroupSafe, 50)] },
        FuzzRow { name: "session-reads-50", pinned: false,
            envelope: |l| smoke(l).read_level(Session).read_fraction(0.5),
            levels: &[(GroupSafe, 50), (TwoSafe, 30)] },
        FuzzRow { name: "latest-reads-50", pinned: false,
            envelope: |l| smoke(l).read_level(Latest).read_fraction(0.5),
            levels: &[(GroupSafe, 50)] },
        FuzzRow { name: "sharded-session-reads", pinned: false,
            envelope: |l| sharded(l, 3).read_level(Session).read_fraction(0.4),
            levels: &[(GroupSafe, 30)] },
        FuzzRow { name: "sharded-snapshot-txns", pinned: false,
            envelope: |l| sharded(l, 3).txn_fraction(0.5), levels: &[(GroupSafe, 50)] },
        FuzzRow { name: "session-reads-snapshot-txns", pinned: false,
            envelope: |l| smoke(l).read_level(Session).read_fraction(0.4).txn_fraction(0.5),
            levels: &[(GroupSafe, 30)] },
        // The flight recorder's other two profiles: recording never moves
        // a run, and a violation dump carries what was recorded.
        FuzzRow { name: "traced", pinned: false,
            envelope: |l| smoke(l).observe(ObsConfig::stream()), levels: &[(GroupSafe, 20)] },
        FuzzRow { name: "untraced", pinned: false,
            envelope: |l| smoke(l).observe(ObsConfig::disabled()), levels: &[(GroupSafe, 20)] },
    ]
};

/// The seeds each pinned row is pinned at.
pub const FUZZ_SEEDS: std::ops::Range<u64> = 0..5;

/// How a witness bounds its counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The counter equals the value.
    Exactly,
    /// The counter reaches the value.
    AtLeast,
    /// The counter stays within the value.
    AtMost,
}

/// A witness predicate: counter `counter` is `value`, at least `value`
/// or at most `value`.
#[derive(Debug, Clone, Copy)]
pub struct Witness {
    /// The counter it reads.
    pub counter: &'static str,
    /// The bound.
    pub value: u64,
    /// Which side of the bound the counter must lie on.
    pub bound: Bound,
}

impl Witness {
    /// Whether the counter's value `v` satisfies the witness.
    pub fn admits(&self, v: u64) -> bool {
        match self.bound {
            Bound::Exactly => v == self.value,
            Bound::AtLeast => v >= self.value,
            Bound::AtMost => v <= self.value,
        }
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.bound {
            Bound::Exactly => "==",
            Bound::AtLeast => ">=",
            Bound::AtMost => "<=",
        };
        write!(f, "{} {op} {}", self.counter, self.value)
    }
}

const fn witness(counter: &'static str, bound: Bound, value: u64) -> Witness {
    Witness {
        counter,
        value,
        bound,
    }
}

const fn at_least(counter: &'static str, value: u64) -> Witness {
    witness(counter, Bound::AtLeast, value)
}

const fn exactly(counter: &'static str, value: u64) -> Witness {
    witness(counter, Bound::Exactly, value)
}

const fn at_most(counter: &'static str, value: u64) -> Witness {
    witness(counter, Bound::AtMost, value)
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
    pub counters: Vec<(String, u64)>,
}

impl Outcome {
    fn new(fingerprint: u64, counters: &[(&str, usize)]) -> Outcome {
        let mut o = Outcome {
            fingerprint,
            ..Outcome::default()
        };
        o.count(counters.iter().map(|&(k, v)| (k, v as u64)));
        o
    }

    /// Append counters to the line.
    fn count<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        let counters = counters.into_iter().map(|(k, v)| (k.to_string(), v));
        self.counters.extend(counters);
    }

    fn with_report(mut self, report: &Report) -> Outcome {
        self.report = Some(digest(report));
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

/// [`Fnv64`] digest of `Report::to_json()`.
fn digest(report: &Report) -> u64 {
    let mut h = Fnv64::new();
    report.to_json().bytes().for_each(|b| h.mix(u64::from(b)));
    h.finish()
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
        let holds = |w: &&Witness| {
            o.counters
                .iter()
                .any(|(k, v)| k == w.counter && w.admits(*v))
        };
        let failed = self.witnesses.iter().filter(|w| !holds(w));
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
        use SafetyLevel::{GroupOneSafe, GroupSafe, OneSafe, TwoSafe, VerySafe, ZeroSafe};
        let levels = [
            ZeroSafe,
            OneSafe,
            GroupSafe,
            GroupOneSafe,
            TwoSafe,
            VerySafe,
        ];
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
    cells.push(census());
    for (name, sc, loses) in crash_shapes() {
        let lost = if loses { LOSES } else { KEEPS };
        cells.push(crash(format!("crash/{name}"), vec![sc], Some(lost)));
    }
    cells.extend([ReadLevel::Stable, ReadLevel::Latest].map(parting));
    for row in FUZZ.iter().filter(|row| row.pinned) {
        for &(level, _) in row.levels {
            cells.extend(FUZZ_SEEDS.map(|seed| fuzz(row, level, seed)));
        }
    }
    cells.extend(claims());
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

/// A group-safe run where a heartbeat does more than a beacon,
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
        o.count([
            ("view_changes", gcs.view_changes),
            ("retractions", gcs.retractions),
            ("demotions", gcs.demotions),
            ("transfers", sum(ReplicaServer::transfer_count).into()),
            ("crashes", sum(ReplicaServer::crash_count).into()),
            ("rejoins", system.engine.metrics().counter("rejoins")),
        ]);
        let r = run.finish();
        let tail = [
            ("states", r.distinct_states),
            ("lost", r.lost),
            ("acked", r.acked),
        ];
        o.count(tail.map(|(k, v)| (k, v as u64)));
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

/// A heartbeat's census kind.
const HEARTBEAT: &str = "gcs.wire.heartbeat";

/// `perf`'s Table 4 system — 9 servers, group-safe, 4 clients a server
/// at 30 tps open, 1 s warm-up, 10 s measured, 2 s drain — with the
/// kernel's dispatches counted by message kind: where a fault-free run's
/// events go. Idle costs nothing: no heartbeat is delivered, and each
/// server's heartbeat tick fires once, at 10 ms, and parks.
fn census() -> Cell {
    let secs = SimDuration::from_secs;
    let run = move || {
        let mut run = build(
            System::builder()
                .servers(9)
                .clients_per_server(4)
                .safety(SafetyLevel::GroupSafe)
                .batching(BatchConfig::unbatched())
                .load(Load::open_tps(30.0))
                .client_timeout(secs(5))
                .warmup(secs(1))
                .measure(secs(10))
                .drain(secs(2))
                .seed(42),
        )?;
        run.run_until(SimTime::from_secs(13));
        let system = run.system();
        let mut o = Outcome::new(system.engine.fingerprint(), &[]);
        o.dispatched = Some(system.engine.dispatched());
        let mut census = system.engine.census();
        census.entry(HEARTBEAT).or_insert(0);
        o.count(census);
        let r = run.finish();
        o.count([("lost", r.lost as u64), ("acked", r.acked as u64)]);
        Ok(o.with_report(&r))
    };
    Cell {
        name: "census/table4".to_string(),
        settings: "safety=group-safe servers=9 clients=36 tps=30 seed=42".to_string(),
        witnesses: vec![
            ACKED,
            exactly("lost", 0),
            exactly(HEARTBEAT, 0),
            at_most("gcs.timer.heartbeat", 9),
        ],
        run: Box::new(run),
    }
}

/// The loss witnesses of a crash shape: its level may lose acknowledged
/// work under its failure and, at its seeds, does; or it loses nothing.
const LOSES: Witness = at_least("lost", 1);
const KEEPS: Witness = exactly("lost", 0);

/// One digest of several runs' digests, in run order; a single run's
/// digest is its own.
fn chain(digests: impl IntoIterator<Item = u64>) -> u64 {
    let fold = |a, b| {
        let mut h = Fnv64::new();
        h.mix(a);
        h.mix(b);
        h.finish()
    };
    digests.into_iter().reduce(fold).unwrap_or_default()
}

/// A crash shape through `run_crash_scenario`: one scenario, or one at
/// several seeds, whose loss counts add up (a loss inside a window is a
/// claim about the seeds together) and whose fingerprints chain.
fn crash(name: String, runs: Vec<CrashScenario>, lost: Option<Witness>) -> Cell {
    let seeds: Vec<u64> = runs.iter().map(|sc| sc.seed).collect();
    let mut settings = format!("{:?}", runs[0]);
    if seeds.len() > 1 {
        settings += &format!(" seeds={seeds:?}");
    }
    let run = move || {
        let outs: Vec<CrashOutcome> = runs.iter().map(run_crash_scenario).collect();
        let sum = |f: fn(&CrashOutcome) -> usize| outs.iter().map(f).sum();
        let states = outs.iter().map(|o| o.distinct_states).max();
        let counters = [
            ("states", states.unwrap_or(0)),
            ("timeouts", sum(|o| o.timeouts as usize)),
            ("lost", sum(|o| o.lost)),
            ("acked", sum(|o| o.acked)),
        ];
        let fingerprint = chain(outs.iter().map(|o| o.fingerprint));
        Ok(Outcome::new(fingerprint, &counters))
    };
    Cell {
        name,
        settings,
        witnesses: [ACKED].into_iter().chain(lost).collect(),
        run: Box::new(run),
    }
}

/// The lazy run of §7's risk-versus-n claim at `n` servers, the one
/// end-to-end run in which the lost-update audit finds real pairs: 4
/// clients and 4 tps a server, lazy propagation every 100 ms, failover
/// after 5 s, 2 s warm-up, 20 s measured, 2 s drain, at seed `900 + n`.
fn lazy_risk(n: u32) -> SystemBuilder {
    let secs = SimDuration::from_secs;
    System::builder()
        .servers(n)
        .clients_per_server(4)
        .safety(SafetyLevel::OneSafe)
        .load(Load::open_tps(4.0 * f64::from(n)))
        .client_timeout(secs(5))
        .lazy_prop_interval(SimDuration::from_millis(100))
        .warmup(secs(2))
        .measure(secs(20))
        .drain(secs(2))
        .seed(900 + u64::from(n))
}

/// The configuration where `Stable` and `Latest` reads part: the fuzz
/// smoke envelope at 2-safe with half its transactions local reads at
/// `level`, under the plan fuzz seed 13 draws — four of five servers
/// crash and recover, then a partition. The recovered members redeliver
/// from their logs while the votes that made those entries stable died
/// with the crash, so a stable read pins below the applied head where a
/// latest read serves it: the same dispatches, other snapshots.
pub fn parting_reads(level: ReadLevel) -> SystemBuilder {
    let envelope = envelopes::smoke(SafetyLevel::TwoSafe)
        .read_level(level)
        .read_fraction(0.5);
    let plan = generate_plan(13, &envelope);
    envelope.seed(13 ^ 0x5EED_CAFE).scenario(plan)
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
        o.count([("lost", r.lost), ("acked", r.acked)].map(|(k, v)| (k, v as u64)));
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
fn fuzz(row: &'static FuzzRow, level: SafetyLevel, seed: u64) -> Cell {
    let run = move || {
        let out = run_fuzz_case(seed, (row.envelope)(level));
        if !out.ok() {
            return Err(format!("the oracle objects:\n{}", out.describe()));
        }
        let twin = run_fuzz_case(seed, (row.envelope)(level).observe(ObsConfig::stream()));
        if twin.fingerprint != out.fingerprint {
            return Err("full tracing moved the run".to_string());
        }
        let counters = [("lost", out.audit.lost), ("acked", out.commits)];
        Ok(Outcome::new(out.fingerprint, &counters))
    };
    Cell {
        name: format!("fuzz/{}/{level}/s{seed}", row.name),
        settings: format!("row={} safety={level} seed={seed}", row.name),
        witnesses: vec![ACKED],
        run: Box::new(run),
    }
}

/// The paper's own claims, each a cell whose witnesses state the claim:
/// Tables 1–3 as crash shapes, Fig. 5 and Fig. 7 and §6's costs on the
/// gcs harness, §7's risk against n and the §5.1 ablations; then the
/// claims beyond the paper, each a sweep: batching, sharding, follower
/// reads and snapshot transactions. A claim across runs is a margin
/// counter inside one cell, with its bound.
fn claims() -> Vec<Cell> {
    let mut cells = table_claims();
    cells.extend([
        total_failure("fig5/classic", GcsConfig::view_based_uniform(), true, 0),
        total_failure("fig5/persistent-log", GcsConfig::crash_recovery(), false, 0),
        total_failure("fig7/end-to-end", GcsConfig::end_to_end(), false, 3),
        response_against_load(),
        durability_cost(),
        risk_against_n(),
        ablations(),
        batching(),
        sharding_scaling(),
        sharding_cross_cost(),
        follower_reads(),
        snapshot_txns(),
    ]);
    cells
}

/// Tables 1–3 on n = 5 servers as crash shapes, each with the loss its
/// table claims; where the table claims nothing (`open`) the cell is
/// pinned, not witnessed.
fn table_claims() -> Vec<Cell> {
    use SafetyLevel::{GroupOneSafe, GroupSafe, OneSafe, TwoSafe, VerySafe, ZeroSafe};
    let ms = SimDuration::from_millis;
    let technique = |level| match level {
        OneSafe => Technique::Lazy,
        ZeroSafe | GroupSafe | GroupOneSafe | TwoSafe | VerySafe => Technique::Dsm(level),
    };
    let (lose, keep, open) = (Some(LOSES), Some(KEEPS), None);
    let mut cells = Vec::new();
    // Table 1's anchors: the delegate crashes at 40 tps; a loss in its
    // window is a claim about four seeds together.
    for (level, lost) in [(OneSafe, lose), (GroupSafe, keep)] {
        let runs = [301, 307, 311, 313].map(|seed| CrashScenario {
            load_tps: 40.0,
            ..CrashScenario::small(technique(level), vec![0], seed)
        });
        cells.push(crash(format!("claim/table1/{level}"), runs.to_vec(), lost));
    }
    // Table 2: the delegate crashes (0-safe's first loses touch with the
    // rest, since non-uniform delivery acknowledges what nobody else
    // received), all but one crash, or all crash and recover.
    let columns: [(&str, &[u32], u64); 3] = [
        ("1-crash", &[0], 101),
        ("n-1-crashes", &[0, 1, 2, 3], 103),
        ("n-crashes", &[0, 1, 2, 3, 4], 107),
    ];
    let table2 = [
        (ZeroSafe, [lose, open, open]),
        (OneSafe, [lose, open, open]),
        (GroupSafe, [keep, keep, lose]),
        (GroupOneSafe, [keep, keep, open]),
        (TwoSafe, [keep, keep, keep]),
        (VerySafe, [keep, keep, keep]),
    ];
    for (level, losses) in table2 {
        for ((column, down, seed), lost) in columns.into_iter().zip(losses) {
            let mut sc = CrashScenario::small(technique(level), down.to_vec(), seed);
            sc.partition_hold = ms(1_500);
            if down.len() == 5 {
                sc.recovery = RecoveryPlan::Recover { downtime: ms(400) };
            }
            if level == ZeroSafe && down.len() == 1 {
                sc.partition_before = down.to_vec();
            }
            let name = format!("claim/table2/{level}/{column}");
            cells.push(crash(name, vec![sc], lost));
        }
    }
    // Table 3 at 30 tps, six seeds a cell: a minority crashes (the group
    // holds); all crash and every log returns (so does the delegate's);
    // all crash, the delegate 250 ms after the rest, and it stays down.
    let columns = ["group-ok", "logs-return", "delegate-gone"];
    let table3 = [
        (GroupSafe, [keep, lose, open]),
        (GroupOneSafe, [keep, keep, lose]),
    ];
    for (level, losses) in table3 {
        for ((column, base), lost) in columns.into_iter().zip([211, 223, 227]).zip(losses) {
            let runs = (0..6).map(|s| {
                let all = vec![0, 1, 2, 3, 4];
                let mut sc = CrashScenario::small(technique(level), all, base + s * 13);
                sc.load_tps = 30.0;
                sc.recovery = RecoveryPlan::Recover { downtime: ms(400) };
                match column {
                    "group-ok" => (sc.crash, sc.recovery) = (vec![1, 2], RecoveryPlan::StayDown),
                    "delegate-gone" => {
                        (sc.crash_last, sc.stay_down) = (Some((0, ms(250))), vec![0])
                    }
                    _ => {}
                }
                sc
            });
            let name = format!("claim/table3/{level}/{column}");
            cells.push(crash(name, runs.collect(), lost));
        }
    }
    cells
}

/// Fig. 5, its §3 variant and Fig. 7 on the gcs harness: 3 nodes of
/// `cfg`, 50 ms from delivery to processing. One transaction is
/// broadcast at 10 ms and delivered everywhere; every node crashes at
/// 45 ms, before processing it, and recovers at 100 ms (with `restart`,
/// the operator restarts the group at 300 ms).
/// `recovered` counts the nodes whose state holds it at 2 s; `acked` its
/// deliveries at the node that broadcast it.
fn total_failure(name: &str, cfg: GcsConfig, restart: bool, recovered: u64) -> Cell {
    let settings = format!("{cfg:?} nodes=3 seed=1234 restart={restart}");
    let run = move || {
        let ms = SimTime::from_millis;
        let delay = SimDuration::from_millis(50);
        let mut cluster = Cluster::with_process_delay(3, cfg.clone(), 1234, delay);
        cluster.broadcast_at(ms(10), NodeId(0), 4242);
        for h in cluster.hosts.clone() {
            cluster.engine.schedule_crash(ms(45), h);
            cluster.engine.schedule_recover(ms(100), h);
            if restart {
                let members = HostMsg::RestartGroup((0..3).map(NodeId).collect());
                cluster.engine.schedule_resilient(ms(300), h, members);
            }
        }
        cluster.engine.run_until(ms(2_000));
        let holds = |&i: &u32| cluster.stable_values(NodeId(i)).contains(&4242);
        let obs = cluster.obs.borrow();
        let acked = obs.deliveries.get(&NodeId(0)).map_or(0, Vec::len);
        let counters = [
            ("recovered", (0..3).filter(holds).count()),
            ("acked", acked),
        ];
        Ok(Outcome::new(cluster.engine.fingerprint(), &counters))
    };
    Cell {
        name: format!("claim/{name}"),
        settings,
        witnesses: vec![ACKED, exactly("recovered", recovered)],
        run: Box::new(run),
    }
}

/// The Table 4 system at `level` under closed load `tps`: failover after
/// 5 s, 5 s warm-up, `measure` seconds measured, 3 s drain.
fn closed(level: SafetyLevel, tps: f64, measure: u64, seed: u64) -> SystemBuilder {
    let secs = SimDuration::from_secs;
    System::builder()
        .safety(level)
        .load(Load::closed_tps(tps))
        .client_timeout(secs(5))
        .warmup(secs(5))
        .measure(secs(measure))
        .drain(secs(3))
        .seed(seed)
}

/// Fig. 9: mean response time against closed load, 20–40 tps in steps of
/// 2, for group-safe, lazy and group-1-safe on the Table 4 system:
/// failover after 5 s, 5 s warm-up, 10 s measured, 3 s drain, seed 42.
/// A level's low and high load are the means of its three lightest and
/// three heaviest points. At low load group-safe beats lazy
/// (`lazy_over_group_safe_low_us`) and lazy beats group-1-safe
/// (`group_1_safe_over_lazy_low_us`); at high load lazy is no slower than
/// group-safe (`lazy_over_group_safe_high_us`), and group-1-safe's mean
/// has more than doubled (`group_1_safe_high_over_twice_low_us`).
/// Group-safe's lowest and highest abort rates on the sweep, against §6's
/// "slightly below 7 %", are pinned, not witnessed.
fn response_against_load() -> Cell {
    use SafetyLevel::{GroupOneSafe, GroupSafe, OneSafe};
    const LOADS: [u32; 11] = [20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40];
    let run = || {
        let mean_us = |points: &[Report]| {
            let sum: f64 = points.iter().map(|r| r.mean_ms).sum();
            (sum / points.len() as f64 * 1_000.0) as u64
        };
        let levels = [
            ("group_safe", GroupSafe),
            ("lazy", OneSafe),
            ("group_1_safe", GroupOneSafe),
        ];
        let point = |level, tps| closed(level, f64::from(tps), 10, 42);
        let points = levels
            .iter()
            .flat_map(|&(_, level)| LOADS.map(|tps| point(level, tps)));
        let reports = sweep(points)?;
        let (mut o, mut ends) = (chained(&reports), Vec::new());
        for ((name, _), curve) in levels.iter().zip(reports.chunks(LOADS.len())) {
            let (low, high) = (mean_us(&curve[..3]), mean_us(&curve[curve.len() - 3..]));
            o.counters.extend([
                (format!("{name}_low_mean_us"), low),
                (format!("{name}_high_mean_us"), high),
            ]);
            ends.push((low, high));
        }
        let [(gs_lo, gs_hi), (lazy_lo, lazy_hi), (g1_lo, g1_hi)] = ends[..] else {
            return Err("a level did not run".to_string());
        };
        // Group-safe's curve comes first.
        let aborts = reports[..LOADS.len()].iter();
        let aborts: Vec<u64> = aborts.map(|r| ppm(r.abort_rate)).collect();
        let (min, max) = (aborts.iter().min(), aborts.iter().max());
        let margins = [
            ("lazy_over_group_safe_low_us", lazy_lo, gs_lo),
            ("group_1_safe_over_lazy_low_us", g1_lo, lazy_lo),
            ("lazy_over_group_safe_high_us", lazy_hi, gs_hi),
            ("group_1_safe_high_over_twice_low_us", g1_hi, 2 * g1_lo),
        ];
        o.count([
            ("group_safe_abort_min_ppm", min.copied().unwrap_or(0)),
            ("group_safe_abort_max_ppm", max.copied().unwrap_or(0)),
        ]);
        o.count(margins.map(|(name, a, b)| (name, a.saturating_sub(b))));
        o.count([("acked", reports.iter().map(|r| r.acked as u64).sum())]);
        Ok(o)
    };
    Cell {
        name: "claim/fig9/shape".to_string(),
        settings: "safety=group-safe,1-safe,group-1-safe closed_tps=20..40/2 client_timeout=5s \
                   warmup=5s measure=10s drain=3s seed=42"
            .to_string(),
        witnesses: vec![
            ACKED,
            at_least("lazy_over_group_safe_low_us", 1),
            at_least("group_1_safe_over_lazy_low_us", 1),
            at_most("lazy_over_group_safe_high_us", 0),
            at_least("group_1_safe_high_over_twice_low_us", 1),
        ],
        run: Box::new(run),
    }
}

/// §6: "writing to disk takes around 8 ms, while performing an atomic
/// broadcast takes approximately 1 ms". The mean of 2 000 accesses to an
/// idle disk of Table 4, and of 500 uniform broadcasts from one node of
/// an idle 9-node group, 20 ms apart, submission to delivery at that
/// node; `acked` counts those deliveries.
fn durability_cost() -> Cell {
    let run = || {
        let (mut rng, mut disk) = (StdRng::seed_from_u64(5), Disk::paper_default());
        let idle = |i| SimTime::from_millis(i * 50);
        let access = |i| (disk.access(idle(i), &mut rng) - idle(i)).as_nanos();
        let accesses = 2_000;
        let disk_ns: u64 = (0..accesses).map(access).sum();
        let mut cluster = Cluster::new(9, GcsConfig::view_based_uniform(), 7);
        let (count, spacing) = (500, 20);
        let submitted = |i: u64| SimTime::from_millis(100 + i * spacing);
        for i in 0..count {
            cluster.broadcast_at(submitted(i), NodeId(0), i);
        }
        cluster.engine.run_until(submitted(count + 50));
        let obs = cluster.obs.borrow();
        // One submitter on an idle group: total order keeps its order, so
        // its i-th delivery is its i-th broadcast.
        let delivered = &obs.deliveries[&NodeId(0)];
        let latency = |(i, r): (u64, &DeliveryRecord)| (r.at - submitted(i)).as_nanos();
        let abcast_ns: u64 = (0..).zip(delivered).map(latency).sum();
        let counters = [
            ("disk_mean_us", (disk_ns / accesses / 1_000) as usize),
            ("abcast_mean_us", (abcast_ns / count / 1_000) as usize),
            ("acked", delivered.len()),
        ];
        Ok(Outcome::new(cluster.engine.fingerprint(), &counters))
    };
    Cell {
        name: "claim/s6/durability-cost".to_string(),
        settings: "disk seed=5 accesses=2000 gcs=view_based_uniform nodes=9 seed=7 broadcasts=500"
            .to_string(),
        witnesses: vec![
            exactly("acked", 500),
            at_least("disk_mean_us", 7_000),
            at_most("disk_mean_us", 8_999),
            at_most("abcast_mean_us", 1_499),
        ],
        run: Box::new(run),
    }
}

/// §7 / Fig. 10: "the chances that something bad happens increases with n
/// for lazy replication, and decreases with group-safe replication". Per
/// n, the lost updates and commits of [`lazy_risk`], and how many of
/// 200 000 draws crash every one of n servers, each down with p = 0.3
/// (seed `77 + n`). `lazy_risk_growth_ppm` is the lost-update rate at the
/// largest n less that at the smallest, per million commits;
/// `group_risk_rises` counts the steps where the group-failure count
/// grew. The audit must find lost updates at n = 3, 5 and 9
/// (`n3_lost_updates` …): a change to it that drops or invents a pair
/// moves the line.
fn risk_against_n() -> Cell {
    const NS: [u32; 6] = [3, 5, 7, 9, 12, 15];
    let run = || {
        let reports = sweep(NS.map(lazy_risk))?;
        let group_failures = NS.map(|n| {
            let mut rng = StdRng::seed_from_u64(77 + u64::from(n));
            let draws = (0..200_000).filter(|_| (0..n).all(|_| rng.random_bool(0.3)));
            draws.count() as u64
        });
        let ppm = |r: &Report| (r.lost_updates * 1_000_000 / r.commits.max(1)) as u64;
        let mut o = chained(&reports);
        for ((n, r), failures) in NS.iter().zip(&reports).zip(group_failures) {
            o.counters.extend([
                (format!("n{n}_lost_updates"), r.lost_updates as u64),
                (format!("n{n}_commits"), r.commits as u64),
                (format!("n{n}_group_failures"), failures),
            ]);
        }
        let (first, last) = (&reports[0], &reports[NS.len() - 1]);
        let rises = group_failures.windows(2).filter(|w| w[1] > w[0]).count();
        o.count([
            ("lazy_risk_growth_ppm", ppm(last).saturating_sub(ppm(first))),
            ("group_risk_rises", rises as u64),
            ("acked", reports.iter().map(|r| r.acked as u64).sum()),
        ]);
        Ok(o)
    };
    Cell {
        name: "claim/fig10/risk-against-n".to_string(),
        settings: format!("safety=1-safe servers={NS:?} seeds=900+n p=0.3 draws=200000"),
        witnesses: vec![
            ACKED,
            at_least("n3_lost_updates", 1),
            at_least("n5_lost_updates", 1),
            at_least("n9_lost_updates", 1),
            at_least("lazy_risk_growth_ppm", 1),
            exactly("group_risk_rises", 0),
        ],
        run: Box::new(run),
    }
}

/// The §5.1 ablations at 28 tps closed on the Table 4 system, group-safe
/// unless named, failover after 5 s, 5 s warm-up, 20 s measured, 3 s
/// drain, seed 13: write caching off (every page a random access),
/// non-uniform delivery (0-safe), no hotspot and a real LRU buffer of
/// 200 pages. Write caching must pay (`caching_saves_us`), dropping
/// uniformity must not cost more than 2 ms
/// (`zero_safe_over_group_safe_us`) and the hotspot must be what drives
/// aborts (`hotspot_aborts_ppm`).
fn ablations() -> Cell {
    let run = || {
        let base = || closed(SafetyLevel::GroupSafe, 28.0, 20, 13);
        let no_hotspot = WorkloadSpec {
            hot_access_fraction: 0.0,
            ..WorkloadSpec::table4()
        };
        let lru = DbConfig {
            buffer: BufferModel::Lru { capacity: 200 },
            ..DbConfig::default()
        };
        let variants = [
            ("cached", base()),
            ("uncached", base().disk_sequential_factor(1.0)),
            ("zero_safe", base().safety(SafetyLevel::ZeroSafe)),
            ("no_hotspot", base().workload(no_hotspot)),
            ("lru", base().db(lru)),
        ];
        let us = |ms: f64| (ms * 1_000.0) as u64;
        let (names, builders): (Vec<_>, Vec<_>) = variants.into_iter().unzip();
        let reports = sweep(builders)?;
        let mut o = chained(&reports);
        for (name, r) in names.iter().zip(&reports) {
            o.counters.extend([
                (format!("{name}_mean_us"), us(r.mean_ms)),
                (format!("{name}_p95_us"), us(r.p95_ms)),
                (format!("{name}_abort_ppm"), ppm(r.abort_rate)),
            ]);
        }
        let [cached, uncached, zero_safe, no_hotspot, _] = &reports[..] else {
            return Err("a variant did not run".to_string());
        };
        let (mean, aborts) = (|r: &Report| us(r.mean_ms), |r: &Report| ppm(r.abort_rate));
        let saves = mean(uncached).saturating_sub(mean(cached));
        let uniformity = mean(zero_safe).saturating_sub(mean(cached));
        let hotspot = aborts(cached).saturating_sub(aborts(no_hotspot));
        o.count([
            ("caching_saves_us", saves),
            ("zero_safe_over_group_safe_us", uniformity),
            ("hotspot_aborts_ppm", hotspot),
            ("acked", reports.iter().map(|r| r.acked as u64).sum()),
        ]);
        Ok(o)
    };
    Cell {
        name: "claim/ablation/28tps".to_string(),
        settings: "safety=group-safe closed_tps=28 seed=13 variants: cached uncached zero_safe \
                   no_hotspot lru"
            .to_string(),
        witnesses: vec![
            ACKED,
            at_least("caching_saves_us", 1),
            at_most("zero_safe_over_group_safe_us", 2_000),
            at_least("hotspot_aborts_ppm", 1),
        ],
        run: Box::new(run),
    }
}

/// A ratio in parts per million, truncated.
fn ppm(ratio: f64) -> u64 {
    (ratio * 1_000_000.0) as u64
}

/// A rate ×10, rounded: its first decimal kept in an integer.
fn x10(rate: f64) -> u64 {
    (rate * 10.0).round() as u64
}

/// An outcome chaining several runs' fingerprints and report digests.
fn chained(reports: &[Report]) -> Outcome {
    let mut o = Outcome::new(chain(reports.iter().map(|r| r.fingerprint)), &[]);
    o.report = Some(chain(reports.iter().map(digest)));
    o
}

/// Run a sweep's points, in order.
fn sweep(points: impl IntoIterator<Item = SystemBuilder>) -> Result<Vec<Report>, String> {
    points
        .into_iter()
        .map(|b| build(b).map(Run::execute))
        .collect()
}

/// Margin counters over a sweep's reports and headline figures.
type Margins = fn(&[Report], &[u64]) -> Vec<(&'static str, u64)>;

/// A claim beyond the paper, the cell `claim/{name}`: a sweep whose line
/// carries each point's `figure` under the point's key, the `margins`,
/// then what the points lost, how many ended with their replicas in more
/// than one state (`diverged`) and what they acknowledged.
fn sweep_cell(
    (name, settings): (&str, &str),
    points: impl Fn() -> Vec<(String, SystemBuilder)> + 'static,
    figure: fn(&Report) -> u64,
    margins: Margins,
    claim: &[Witness],
) -> Cell {
    let run = move || {
        let (keys, builders): (Vec<_>, Vec<_>) = points().into_iter().unzip();
        let reports = sweep(builders)?;
        let figures: Vec<u64> = reports.iter().map(figure).collect();
        let mut o = chained(&reports);
        o.counters.extend(keys.into_iter().zip(figures.clone()));
        o.count(margins(&reports, &figures));
        let sum = |f: fn(&Report) -> usize| reports.iter().map(f).sum::<usize>() as u64;
        o.count([
            ("lost", sum(|r| r.lost)),
            ("diverged", sum(|r| usize::from(r.distinct_states != 1))),
            ("acked", sum(|r| r.acked)),
        ]);
        Ok(o)
    };
    Cell {
        name: format!("claim/{name}"),
        settings: settings.to_string(),
        witnesses: [&[ACKED, exactly("lost", 0), exactly("diverged", 0)], claim].concat(),
        run: Box::new(run),
    }
}

/// The sweeps' overload: `servers` group-safe servers a group, `clients`
/// a server, `tps` of ordering-bound transactions offered open; failover
/// after 60 s, so the clients queue behind the pipeline; 1 s warm-up,
/// `measure`, 2 s drain, seed 42.
fn overload(servers: u32, clients: u32, tps: f64, measure: SimDuration) -> SystemBuilder {
    let secs = SimDuration::from_secs;
    System::builder()
        .servers(servers)
        .clients_per_server(clients)
        .safety(SafetyLevel::GroupSafe)
        .workload(crate::ordering_bound_workload())
        .load(Load::open_tps(tps))
        .client_timeout(secs(60))
        .warmup(secs(1))
        .measure(measure)
        .drain(secs(2))
        .seed(42)
}

/// Batching at saturation: the Table 4 group offered 4 000 tps, far past
/// its unbatched knee. `max_msgs = 32` commits at least twice what 1
/// does, in frames of more than four on average.
fn batching() -> Cell {
    let points = || {
        let point = |m| {
            let b = overload(9, 4, 4_000.0, SimDuration::from_secs(2));
            let batch = BatchConfig::of(m, SimDuration::from_millis(1));
            (format!("m{m}_tps_x10"), b.batching(batch))
        };
        Vec::from([1, 2, 4, 8, 16, 32].map(point))
    };
    let margins: Margins = |r, tps| {
        let (speedup, batch) = (tps[5] * 100 / tps[0].max(1), x10(r[5].mean_batch_size));
        vec![("speedup_pct", speedup), ("m32_batch_x10", batch)]
    };
    let cell = (
        "batching/4000tps",
        "safety=group-safe servers=9 clients=36 open_tps=4000 workload=ordering-bound \
         max_msgs=1,2,4,8,16,32 max_delay=1ms client_timeout=60s warmup=1s measure=2s drain=2s \
         seed=42",
    );
    let claim = [at_least("speedup_pct", 200), at_least("m32_batch_x10", 41)];
    sweep_cell(cell, points, |r| x10(r.achieved_tps), margins, &claim)
}

/// A sharding claim over `(groups, cross)` points: groups of 3 servers
/// offered 14 000 tps, far past one group's knee, `cross` of the
/// transactions spanning groups.
fn sharding(
    name: &str,
    points: &'static [(u32, f64)],
    margins: Margins,
    claim: &[Witness],
) -> Cell {
    let point = |&(groups, cross): &(u32, f64)| {
        let b = overload(3, 4, 14_000.0, SimDuration::from_millis(1_500));
        let key = format!("g{groups}_cross{}_tps_x10", (cross * 100.0).round());
        (key, b.shards(groups).cross_shard_fraction(cross))
    };
    let grid: Vec<String> = points.iter().map(|(g, c)| format!("{g}x{c}")).collect();
    let settings = format!(
        "safety=group-safe servers_per_group=3 clients_per_server=4 open_tps=14000 \
         workload=ordering-bound groups_x_cross={} client_timeout=60s warmup=1s measure=1.5s \
         drain=2s seed=42",
        grid.join(",")
    );
    let points = move || points.iter().map(point).collect();
    sweep_cell(
        (name, &settings),
        points,
        |r| x10(r.achieved_tps),
        margins,
        claim,
    )
}

/// Sharding scales: with no transaction crossing groups, 1, 2 and 4
/// groups commit strictly more at each step (`rises`).
fn sharding_scaling() -> Cell {
    let rises: Margins = |_, tps| {
        let rises = tps.windows(2).filter(|w| w[1] > w[0]).count();
        vec![("rises", rises as u64)]
    };
    let points = &[(1, 0.0), (2, 0.0), (4, 0.0)];
    sharding("sharding/scaling", points, rises, &[exactly("rises", 2)])
}

/// What crossing groups costs: at 2 and at 4 groups, 20 % cross traffic
/// commits less than 5 %, since a crossing transaction occupies two
/// groups' pipelines and a decision round.
fn sharding_cross_cost() -> Cell {
    let costs: Margins = |_, tps| {
        let cost = |i: usize| tps[i].saturating_sub(tps[i + 1]);
        vec![
            ("g2_cross5_over_cross20_tps_x10", cost(0)),
            ("g4_cross5_over_cross20_tps_x10", cost(2)),
        ]
    };
    let claim = [
        at_least("g2_cross5_over_cross20_tps_x10", 1),
        at_least("g4_cross5_over_cross20_tps_x10", 1),
    ];
    let points = &[(2, 0.05), (2, 0.2), (4, 0.05), (4, 0.2)];
    sharding("sharding/cross-cost", points, costs, &claim)
}

/// Follower reads: a group of 3 servers over a mostly cached database
/// offered 9 000 tps, far past the broadcast pipeline's knee, at read mixes of 50 %
/// and 90 % over each read path. At 90 %, session reads serve at least
/// 5× the broadcast baseline's read rate.
fn follower_reads() -> Cell {
    use ReadLevel::{Latest, Session, Stable};
    let points = || {
        let paths = [
            ("broadcast", ReadPath::Broadcast),
            ("stable", ReadPath::Local(Stable)),
            ("session", ReadPath::Local(Session)),
            ("latest", ReadPath::Local(Latest)),
        ];
        let cached = DbConfig {
            buffer: BufferModel::Probabilistic { hit_ratio: 0.95 },
            ..DbConfig::default()
        };
        let point = |(name, path), mix: f64| {
            let b = overload(3, 6, 9_000.0, SimDuration::from_secs(4));
            let b = b.read_path(path).db(cached.clone());
            let key = format!("{name}{}_read_tps_x10", (mix * 100.0).round());
            (key, b.workload(crate::read_bound_workload(mix)))
        };
        let grid = [0.5, 0.9].map(|mix| paths.map(|p| point(p, mix)));
        grid.into_iter().flatten().collect()
    };
    let gain: Margins = |_, reads| {
        let gain = reads[6] * 100 / reads[4].max(1);
        vec![("session90_over_broadcast_pct", gain)]
    };
    let cell = (
        "reads/9000tps",
        "safety=group-safe servers=3 clients=18 open_tps=9000 workload=read-bound hit_ratio=0.95 \
         read_fraction=0.5,0.9 paths=broadcast,local-stable,local-session,local-latest \
         client_timeout=60s warmup=1s measure=4s drain=2s seed=42",
    );
    let claim = [at_least("session90_over_broadcast_pct", 500)];
    sweep_cell(cell, points, |r| x10(r.read_tps), gain, &claim)
}

/// Snapshot transactions dissolve the first-writer-wins abort storm: a
/// 50 % read mix over broadcast reads, offered just past the classic
/// pipeline's knee, which aborts more than 0.3 of its attempts; all
/// snapshot at 10–20 operations (`snapshot`), less than 0.1 of its
/// attempts and of its snapshot transactions, over more than 100 of
/// them, and less than a third of the classic rate.
fn snapshot_txns() -> Cell {
    let points = || {
        let point = |(name, txn_fraction, ops): (&str, f64, Option<(usize, usize)>)| {
            let b = System::builder()
                .servers(3)
                .clients_per_server(4)
                .safety(SafetyLevel::GroupSafe)
                .read_path(ReadPath::Broadcast)
                .workload(WorkloadSpec {
                    read_fraction: 0.5,
                    ..WorkloadSpec::default()
                })
                .txn_fraction(txn_fraction)
                .load(Load::open_tps(32.0))
                .measure(SimDuration::from_secs(20))
                .drain(SimDuration::from_secs(2))
                .seed(11);
            let b = match ops {
                Some((lo, hi)) => b.txn_ops(lo, hi),
                None => b,
            };
            (format!("{name}_abort_ppm"), b)
        };
        let points = [
            ("classic", 0.0, None),
            ("txn25", 0.25, Some((10, 20))),
            ("txn50", 0.5, Some((10, 20))),
            ("snapshot_short", 1.0, Some((4, 8))),
            ("snapshot", 1.0, Some((10, 20))),
            ("snapshot_long", 1.0, Some((20, 30))),
        ];
        Vec::from(points.map(point))
    };
    let calm: Margins = |r, aborts| {
        let margin = aborts[0].saturating_sub(3 * aborts[4]);
        vec![
            ("snapshot_txn_abort_ppm", ppm(r[4].txn_abort_rate)),
            ("snapshot_txn_commits", r[4].txn_commits as u64),
            ("classic_over_thrice_snapshot_ppm", margin),
        ]
    };
    let cell = (
        "txn/32tps",
        "safety=group-safe servers=3 clients=12 open_tps=32 read_path=broadcast read_fraction=0.5 \
         txn_fraction:ops=0:table4,0.25:10-20,0.5:10-20,1:4-8,1:10-20,1:20-30 measure=20s \
         drain=2s seed=11",
    );
    let claim = [
        at_least("classic_abort_ppm", 300_001),
        at_most("snapshot_abort_ppm", 99_999),
        at_most("snapshot_txn_abort_ppm", 99_999),
        at_least("snapshot_txn_commits", 101),
        at_least("classic_over_thrice_snapshot_ppm", 1),
    ];
    sweep_cell(cell, points, |r| ppm(r.abort_rate), calm, &claim)
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

/// The keys whose `key=value` fields differ between two lines of one
/// cell, in the order they first appear; a differing settings field
/// counts as the key `settings`.
pub fn moved_keys(was: &str, now: &str) -> Vec<String> {
    let fields = |line: &str| -> Vec<(String, String)> {
        let mut parts = line.splitn(3, " | ");
        let (_, settings) = (parts.next(), parts.next().unwrap_or(""));
        let pins = parts.next().unwrap_or("").split_whitespace();
        let pins = pins.map(|f| match f.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (f.to_string(), String::new()),
        });
        std::iter::once(("settings".to_string(), settings.to_string()))
            .chain(pins)
            .collect()
    };
    let (was, now) = (fields(was), fields(now));
    let value = |fs: &[(String, String)], k: &str| {
        fs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let mut keys: Vec<String> = Vec::new();
    for (k, _) in was.iter().chain(&now) {
        if !keys.contains(k) && value(&was, k) != value(&now, k) {
            keys.push(k.clone());
        }
    }
    keys
}

/// Run `cells` and hold each to its committed line; name every cell that
/// fails its witnesses, is missing or moved — for a moved cell, the keys
/// that differ before its two lines — and end with how often each key
/// moved across all cells.
pub fn check(text: &str, cells: &[Cell]) -> Result<(), String> {
    let lines = parse(text)?;
    let mut errors = Vec::new();
    let mut tally: Vec<(String, usize)> = Vec::new();
    for cell in cells {
        let name = &cell.name;
        match (cell.line(), lines.get(name.as_str())) {
            (Err(e), _) => errors.push(e),
            (Ok(now), None) => errors.push(format!("cell {name} is missing:\n  now: {now}")),
            (Ok(now), Some(&was)) if now != was => {
                let keys = moved_keys(was, &now);
                for k in &keys {
                    match tally.iter_mut().find(|(key, _)| key == k) {
                        Some((_, n)) => *n += 1,
                        None => tally.push((k.clone(), 1)),
                    }
                }
                errors.push(format!(
                    "cell {name} moved ({}):\n  committed: {was}\n  now:       {now}",
                    keys.join(", ")
                ));
            }
            (Ok(_), Some(_)) => {}
        }
    }
    if !tally.is_empty() {
        let moved: Vec<String> = tally.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
        errors.push(format!("moved keys: {}", moved.join(", ")));
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
