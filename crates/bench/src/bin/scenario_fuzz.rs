//! Seeded scenario fuzzing: generate random fault timelines
//! (`ScenarioPlan`s), run them on a small group-safe / 2-safe system,
//! and hold every run to the safety oracle's per-level invariants.
//!
//! Usage: `scenario_fuzz [--seeds N] [--start S] [--level L] [--shards G]
//!                       [--reads LEVEL:FRACTION] [--txns FRACTION]
//!                       [--obs PROFILE] [--json <path>]`
//!   --seeds   seeds per level (default 100 → 200 cases over two levels)
//!   --start   first seed (default 0)
//!   --level   restrict to one of: group-safe | two-safe | group-1-safe |
//!             zero-safe | one-safe (default: group-safe AND two-safe)
//!   --shards  run the sharded envelope: G replica groups of 3 servers
//!             with 10 % cross-group transactions and group-targeted
//!             faults incl. whole-group failures (default: 1, classic)
//!   --reads   mix read clients into every plan: a FRACTION of the
//!             generated transactions are read-only and travel the local
//!             read path at LEVEL (stable | session | latest; stable is
//!             undefined at zero-safe); the read-freshness oracle audits
//!             every run (default: off)
//!   --txns    mix snapshot-isolation transactions into every plan: a
//!             FRACTION of the generated update transactions run under
//!             SI (MVCC read phase, first-committer-wins certification);
//!             the SI anomaly audits check every run (default: off;
//!             zeroed on one-safe, whose lazy baseline has no SI path)
//!   --obs     observability profile for every run: `off` | `ring[:N]` |
//!             `full[:N]` (default: ring, the bounded flight recorder — a
//!             violation dump then carries the pipeline's last events;
//!             recording never changes fingerprints, so repro seeds
//!             replay identically under any profile)
//!   --json    write a JSON summary
//!
//! On the first oracle violation the binary prints the reproducing seed
//! plus the full plan dump and exits non-zero — the seed alone replays
//! the run bit-for-bit (`fuzz::run_fuzz_case(seed, &FuzzSpec::smoke(level))`).

use groupsafe_bench::Flags;
use groupsafe_core::scenario::fuzz::{run_fuzz_case, FuzzSpec};
use groupsafe_core::{ReadLevel, SafetyLevel};

fn parse_level(s: &str) -> SafetyLevel {
    match s {
        "zero-safe" => SafetyLevel::ZeroSafe,
        "one-safe" => SafetyLevel::OneSafe,
        "group-safe" => SafetyLevel::GroupSafe,
        "group-1-safe" => SafetyLevel::GroupOneSafe,
        "two-safe" => SafetyLevel::TwoSafe,
        other => panic!("unknown level {other:?}"),
    }
}

fn parse_reads(s: &str) -> (ReadLevel, f64) {
    let mut parts = s.splitn(2, ':');
    let level = match parts.next().unwrap_or("") {
        "stable" => ReadLevel::Stable,
        "session" => ReadLevel::Session,
        "latest" => ReadLevel::Latest,
        other => panic!("unknown read level {other:?}"),
    };
    let fraction: f64 = parts
        .next()
        .map(|f| f.parse().expect("--reads takes level:fraction"))
        .unwrap_or(0.5);
    assert!(
        (0.0..=1.0).contains(&fraction),
        "--reads fraction outside [0, 1]"
    );
    (level, fraction)
}

fn main() {
    let valued = [
        "--seeds", "--start", "--level", "--shards", "--reads", "--txns", "--obs", "--json",
    ];
    let flags = Flags::parse(&[], &valued);
    let seeds: u64 = flags
        .value("--seeds")
        .map(|v| v.parse().expect("--seeds takes a number"))
        .unwrap_or(100);
    let start: u64 = flags
        .value("--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let shards: u32 = flags
        .value("--shards")
        .map(|v| v.parse().expect("--shards takes a number"))
        .unwrap_or(1);
    let levels: Vec<SafetyLevel> = match flags.value("--level") {
        Some(l) => vec![parse_level(l)],
        None => vec![SafetyLevel::GroupSafe, SafetyLevel::TwoSafe],
    };
    let reads = flags.value("--reads").map(parse_reads);
    let txns: Option<f64> = flags.value("--txns").map(|v| {
        let f: f64 = v.parse().expect("--txns takes a fraction");
        assert!((0.0..=1.0).contains(&f), "--txns fraction outside [0, 1]");
        f
    });
    // An empty profile parses to `None`: the builder's default applies.
    let obs = flags.value("--obs").and_then(|profile| {
        groupsafe_sim::ObsConfig::parse(profile).unwrap_or_else(|e| panic!("--obs: {e}"))
    });
    assert!(
        reads.is_none() || !levels.contains(&SafetyLevel::OneSafe),
        "--reads is not defined for one-safe: the lazy baseline has no \
         local read path (run it without --reads; its read-only mix \
         still travels the classic pipeline)"
    );
    assert!(
        reads.is_none_or(|(level, _)| level != ReadLevel::Stable)
            || !levels.contains(&SafetyLevel::ZeroSafe),
        "--reads stable is not defined for zero-safe: non-uniform delivery \
         casts no stability votes (use --reads session)"
    );

    let mut total = 0u64;
    let mut commits = 0u64;
    let mut quiescent = 0u64;
    let mut with_loss = 0u64;
    let mut cross_audited = 0u64;
    let mut group_failures = 0u64;
    let mut reads_audited = 0u64;
    let mut si_audited = 0u64;
    #[expect(
        clippy::disallowed_types,
        reason = "GS-D02 exemption: bench binaries report wall-clock throughput and never feed a fingerprint"
    )]
    let started = std::time::Instant::now();
    for &level in &levels {
        let mut spec = if shards > 1 {
            FuzzSpec::sharded(level, shards)
        } else {
            FuzzSpec::smoke(level)
        };
        if let Some((read_level, fraction)) = reads {
            spec = spec.with_reads(read_level, fraction);
        }
        if let Some(fraction) = txns {
            spec = spec.with_txns(fraction);
        }
        if let Some(obs) = obs {
            spec = spec.with_obs(obs);
        }
        for seed in start..start + seeds {
            let out = run_fuzz_case(seed, &spec);
            total += 1;
            commits += out.commits as u64;
            quiescent += out.audit.quiescent as u64;
            with_loss += out.plan.uses_loss() as u64;
            cross_audited += out.audit.cross_group_audited as u64;
            group_failures += out.audit.group_failed as u64;
            reads_audited += out.audit.reads_audited as u64;
            si_audited += out.audit.si_audited as u64;
            if !out.ok() {
                eprintln!("scenario-fuzz: ORACLE VIOLATION\n{}", out.describe());
                let mut ctor = if shards > 1 {
                    format!("FuzzSpec::sharded(SafetyLevel::{level:?}, {shards})")
                } else {
                    format!("FuzzSpec::smoke(SafetyLevel::{level:?})")
                };
                if let Some((read_level, fraction)) = reads {
                    ctor = format!("{ctor}.with_reads(ReadLevel::{read_level:?}, {fraction})");
                }
                if let Some(fraction) = txns {
                    ctor = format!("{ctor}.with_txns({fraction})");
                }
                eprintln!("reproduce with: fuzz::run_fuzz_case({seed}, &{ctor})");
                std::process::exit(1);
            }
            if total.is_multiple_of(50) {
                println!(
                    "  {total:>4} scenarios clean ({level}, seed {seed}, {:.1}s)",
                    started.elapsed().as_secs_f64()
                );
            }
        }
    }
    println!(
        "scenario-fuzz: {total} scenarios, 0 violations \
         ({quiescent} fully audited, {with_loss} with loss bursts, \
         {commits} commits, {:.1}s)",
        started.elapsed().as_secs_f64()
    );
    if shards > 1 {
        println!(
            "  sharded envelope: {shards} groups, {cross_audited} cross-group \
             commits atomicity-audited, {group_failures} whole-group-failure runs"
        );
        assert!(
            group_failures > 0 || total < 8,
            "the sharded envelope should exercise at least one whole-group failure"
        );
    }
    if let Some((read_level, fraction)) = reads {
        println!(
            "  read-mixed envelope: {:.0} % read-only at {read_level:?}, \
             {reads_audited} local reads freshness-audited",
            fraction * 100.0
        );
        assert!(
            reads_audited > 0,
            "the read-mixed envelope should actually serve local reads"
        );
    }
    if let Some(fraction) = txns {
        println!(
            "  txn-mixed envelope: {:.0} % snapshot transactions, \
             {si_audited} delegate certifications SI-audited",
            fraction * 100.0
        );
        assert!(
            si_audited > 0 || levels == [SafetyLevel::OneSafe],
            "the txn-mixed envelope should actually certify snapshot transactions"
        );
    }
    if let Some(path) = flags.value("--json") {
        let json = format!(
            "{{\"scenarios\":{total},\"violations\":0,\"quiescent\":{quiescent},\
             \"with_loss\":{with_loss},\"commits\":{commits},\
             \"shards\":{shards},\"cross_group_audited\":{cross_audited},\
             \"group_failures\":{group_failures},\"reads_audited\":{reads_audited},\
             \"si_audited\":{si_audited}}}"
        );
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
}
