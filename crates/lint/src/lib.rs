//! # groupsafe-lint — the workspace determinism and protocol linter
//!
//! Everything this repository proves — the Tables 2–3 loss oracle,
//! bit-for-bit fuzz replay, the `shards(1)` and batching
//! fingerprint-equivalence locks — rests on replicas being deterministic
//! state machines, as the paper's deferred-update model assumes
//! (Wiesmann & Schiper, EDBT 2004). This crate is the machine-checked
//! contract: a small token/line-level Rust scanner (no external
//! dependencies — the build environment is offline) that walks every
//! `.rs` file in the workspace and reports violations of two rule
//! families:
//!
//! **(a) the determinism contract** — in every non-`bench` crate:
//!
//! * [`RuleId::HashCollections`] (`GS-D01`): `HashMap`/`HashSet` are
//!   banned; their iteration order is seeded per-process, so any
//!   iteration feeding replicated state or a fingerprint diverges
//!   between replicas. The codebase is 100 % `BTreeMap`/`BTreeSet`.
//! * [`RuleId::WallClock`] (`GS-D02`): `std::time::Instant`/`SystemTime`
//!   are banned; simulated time ([`SimTime`]) is the only clock, or a
//!   replay is no longer bit-for-bit.
//! * [`RuleId::OsEntropy`] (`GS-D03`): `thread_rng`, `OsRng` and friends
//!   are banned; every random draw must come from a seeded `StdRng`.
//! * [`RuleId::ThreadsSleep`] (`GS-D04`): `std::thread` (spawn/sleep) is
//!   banned; the simulation is single-threaded by construction.
//! * [`RuleId::FloatFingerprint`] (`GS-D05`): float arithmetic inside
//!   `fingerprint`/`digest` computations is banned; accumulation order
//!   would leak into the equivalence locks.
//!
//! **(b) protocol-dispatch invariants**:
//!
//! * [`RuleId::WildcardDispatch`] (`GS-P01`): no wildcard (`_` or
//!   catch-all binding) arms in `match`es over the protocol enums
//!   (`GroupMsg`, `ServerReply`, `ClientMsg`, `ReadReply`, `Wire`,
//!   `GcsOutput`, `ScenarioEvent`, `OracleViolation`, `ReadViolation`)
//!   or over the engines' message enums (`CoreMsg`, `ServerEvent`,
//!   `ClientEvent`, `HostMsg`): a new message variant must be a compile
//!   error at every dispatch site, never silently swallowed.
//! * [`RuleId::PanicFreedom`] (`GS-P02`): `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!` are banned in non-test code
//!   of the protocol crates (`gcs`, `core`, `db`, `net`, `sim`);
//!   documented invariant `expect`s live in the `lint.toml` allowlist.
//! * [`RuleId::DirectIndex`] (`GS-P03`): direct slice/`Vec` indexing
//!   (`x[i]`) is banned in the same scope — a panic in a replica is a
//!   correctness bug the paper's model does not have.
//! * [`RuleId::OracleCoverage`] (`GS-P04`): every `OracleViolation`
//!   variant must be referenced by at least one negative-control test
//!   under the root `tests/` directory, so the oracle's teeth are
//!   themselves tested.
//!
//! Documented exceptions are carried by `lint.toml` at the workspace
//! root: every entry names a rule, a file, an optional line/substring
//! anchor, and a mandatory one-line justification (entries without one
//! are a parse error — the policy is enforced mechanically).
//!
//! The simple-pattern subset of these rules is mirrored into
//! `clippy.toml` (`disallowed-types`/`disallowed-methods`) and the
//! workspace lint table, so the compiler enforces what it can and this
//! tool covers what clippy cannot express (test-scope carve-outs,
//! dispatch exhaustiveness, fingerprint float flow, oracle coverage).
//!
//! [`SimTime`]: https://docs.rs/groupsafe-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod allowlist;
pub mod json;
pub mod strip;

pub use allowlist::{AllowEntry, Allowlist};

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// The protocol crates: non-test code here must be panic-free — a panic
/// in a replica, a network actor or the kernel is a correctness bug the
/// paper's crash model does not describe.
pub const PROTOCOL_CRATES: [&str; 5] = ["gcs", "core", "db", "net", "sim"];

/// The enums whose dispatch sites must be exhaustive: the wire and
/// protocol messages, the message enums actors receive from their
/// engine, the scenario timeline events, and the oracle's violation
/// taxonomy. A `match` naming any of these in an arm pattern must not
/// carry a wildcard arm.
pub const WATCHED_ENUMS: [&str; 13] = [
    "GroupMsg",
    "ServerReply",
    "ClientMsg",
    "ReadReply",
    "Wire",
    "CoreMsg",
    "ServerEvent",
    "ClientEvent",
    "HostMsg",
    "GcsOutput",
    "ScenarioEvent",
    "OracleViolation",
    "ReadViolation",
];

/// One lint rule. The two families are (a) the determinism contract
/// (`GS-D*`) and (b) the protocol invariants (`GS-P*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `GS-D01`: `HashMap`/`HashSet` (iteration-order nondeterminism).
    HashCollections,
    /// `GS-D02`: `std::time::{Instant, SystemTime}` (wall-clock reads).
    WallClock,
    /// `GS-D03`: `thread_rng`/`OsRng`/OS entropy (unseeded randomness).
    OsEntropy,
    /// `GS-D04`: `std::thread` spawn/sleep (scheduling nondeterminism).
    ThreadsSleep,
    /// `GS-D05`: float arithmetic feeding `fingerprint`/digest state.
    FloatFingerprint,
    /// `GS-P01`: wildcard arm in a protocol-enum dispatch `match`.
    WildcardDispatch,
    /// `GS-P02`: `unwrap`/`expect`/`panic!`-family in protocol crates.
    PanicFreedom,
    /// `GS-P03`: direct `x[i]` indexing in protocol crates.
    DirectIndex,
    /// `GS-P04`: an `OracleViolation` variant no `tests/` file exercises.
    OracleCoverage,
}

impl RuleId {
    /// Stable short id (diagnostics, JSON).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::HashCollections => "GS-D01",
            RuleId::WallClock => "GS-D02",
            RuleId::OsEntropy => "GS-D03",
            RuleId::ThreadsSleep => "GS-D04",
            RuleId::FloatFingerprint => "GS-D05",
            RuleId::WildcardDispatch => "GS-P01",
            RuleId::PanicFreedom => "GS-P02",
            RuleId::DirectIndex => "GS-P03",
            RuleId::OracleCoverage => "GS-P04",
        }
    }

    /// Human-readable rule name (also the `rule` key in `lint.toml`).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashCollections => "hash-collections",
            RuleId::WallClock => "wall-clock",
            RuleId::OsEntropy => "os-entropy",
            RuleId::ThreadsSleep => "threads-sleep",
            RuleId::FloatFingerprint => "float-fingerprint",
            RuleId::WildcardDispatch => "wildcard-dispatch",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::DirectIndex => "direct-index",
            RuleId::OracleCoverage => "oracle-coverage",
        }
    }

    /// Every rule, in report order.
    pub fn all() -> [RuleId; 9] {
        [
            RuleId::HashCollections,
            RuleId::WallClock,
            RuleId::OsEntropy,
            RuleId::ThreadsSleep,
            RuleId::FloatFingerprint,
            RuleId::WildcardDispatch,
            RuleId::PanicFreedom,
            RuleId::DirectIndex,
            RuleId::OracleCoverage,
        ]
    }

    /// Resolve a `lint.toml` rule name.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::all().into_iter().find(|r| r.name() == name)
    }
}

/// Diagnostic severity. Every rule violation is an error; warnings are
/// reserved for meta-findings (stale allowlist entries) that should not
/// fail CI on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported but non-fatal.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One finding: rule, place, message, and the offending source line
/// (trimmed) for context and allowlist `contains` matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Severity (rule violations are errors).
    pub severity: Severity,
    /// What is wrong and why it matters.
    pub message: String,
    /// The offending source line, trimmed (empty for file-level rules).
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}: {}",
            self.path,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.severity,
            self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------

/// What a file is, as far as rule scoping goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// The owning crate (`"root"` for the workspace package).
    pub crate_name: String,
    /// Whole file is test/bench/example code (a `tests/`, `benches/` or
    /// `examples/` tree): the panic rules do not apply, the determinism
    /// rules still do (test fingerprints must replay too).
    pub test_file: bool,
    /// Non-test source of a protocol crate: panic-freedom and
    /// direct-index apply.
    pub protocol_src: bool,
    /// The bench crate: exempt from the determinism family (wall-clock
    /// progress reporting and throughput timing are its job).
    pub bench: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "root".to_string()
    };
    let test_file = parts
        .iter()
        .take(parts.len().saturating_sub(1))
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    let bench = crate_name == "bench";
    let protocol_src = PROTOCOL_CRATES.contains(&crate_name.as_str())
        && parts.get(2) == Some(&"src")
        && !test_file;
    FileClass {
        crate_name,
        test_file,
        protocol_src,
        bench,
    }
}

// ---------------------------------------------------------------------
// Per-file scanner
// ---------------------------------------------------------------------

/// A `match` block under observation.
struct MatchCtx {
    /// Brace depth of the block's direct arms.
    arms_depth: i32,
    /// Some arm pattern names a watched protocol enum.
    watched: bool,
    /// Wildcard / catch-all arms seen: `(line, snippet)`.
    wildcards: Vec<(usize, String)>,
}

/// Scan one file's source text. `rel` is the workspace-relative path
/// used in diagnostics and for rule scoping.
pub fn scan_file(rel: &str, text: &str, diags: &mut Vec<Diagnostic>) {
    let class = classify(rel);
    let mut stripper = strip::Stripper::new();
    let mut depth: i32 = 0;
    // cfg(test) regions: stack of entry depths; inside while non-empty.
    let mut test_regions: Vec<i32> = Vec::new();
    let mut pending_test_attr = false;
    // fn-name scope for the fingerprint-float rule.
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    // match blocks for the wildcard rule.
    let mut matches: Vec<MatchCtx> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code_owned = stripper.strip_line(raw_line);
        let code = code_owned.as_str();
        let trimmed = code.trim();
        let raw_trimmed = raw_line.trim();
        let depth_before = depth;
        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;
        depth += opens - closes;

        // ---- cfg(test) tracking --------------------------------------
        if code.contains("cfg(test)") || code.contains("#[test]") || code.contains("cfg(bench)") {
            pending_test_attr = true;
        } else if pending_test_attr && !trimmed.is_empty() && !trimmed.starts_with("#[") {
            if code.contains('{') {
                test_regions.push(depth_before);
            }
            // An attribute-less line without a brace (e.g. a fn signature
            // split over lines) keeps the attr pending until a `{` shows.
            if code.contains('{') || code.contains(';') {
                pending_test_attr = false;
            }
        }
        let in_test = class.test_file || !test_regions.is_empty();

        // ---- fn-name scope -------------------------------------------
        if let Some(name) = parse_fn_name(code) {
            if code.contains('{') {
                fn_stack.push((name, depth_before));
            } else {
                pending_fn = Some(name);
            }
        } else if let Some(name) = pending_fn.take() {
            if code.contains('{') {
                fn_stack.push((name, depth_before));
            } else if !code.contains(';') {
                pending_fn = Some(name); // still inside the signature
            }
        }

        // ---- rule family (a): the determinism contract ---------------
        if !class.bench {
            scan_determinism(rel, line_no, code, raw_trimmed, &fn_stack, diags);
        }

        // ---- rule family (b): panic freedom + indexing ---------------
        if class.protocol_src && !in_test {
            scan_panic_freedom(rel, line_no, code, raw_trimmed, diags);
            scan_direct_index(rel, line_no, code, raw_trimmed, diags);
        }

        // ---- rule family (b): wildcard dispatch ----------------------
        if !in_test {
            scan_match_line(
                rel,
                line_no,
                code,
                trimmed,
                raw_trimmed,
                depth_before,
                &mut matches,
                diags,
            );
        }

        // ---- close scopes whose depth we just left -------------------
        while test_regions.last().is_some_and(|&d| depth <= d) {
            test_regions.pop();
        }
        while fn_stack.last().is_some_and(|&(_, d)| depth <= d) {
            fn_stack.pop();
        }
        while matches.last().is_some_and(|m| depth < m.arms_depth) {
            let ctx = matches.pop().unwrap_or(MatchCtx {
                arms_depth: 0,
                watched: false,
                wildcards: Vec::new(),
            });
            flush_match(rel, raw_line, ctx, diags);
        }
    }
    // EOF closes everything still open (unbalanced files).
    while let Some(ctx) = matches.pop() {
        flush_match(rel, "", ctx, diags);
    }
}

/// Extract the name of a `fn` item declared on this line, if any.
fn parse_fn_name(code: &str) -> Option<String> {
    let i = find_word(code, "fn")?;
    let rest = &code[i + 2..];
    let rest = rest.trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Position of `word` in `code` with identifier boundaries on both
/// sides, or `None`.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

/// Family (a): hash collections, wall clock, entropy, threads, floats
/// feeding fingerprints.
fn scan_determinism(
    rel: &str,
    line_no: usize,
    code: &str,
    trimmed: &str,
    fn_stack: &[(String, i32)],
    diags: &mut Vec<Diagnostic>,
) {
    let push = |diags: &mut Vec<Diagnostic>, rule: RuleId, message: String| {
        diags.push(Diagnostic {
            rule,
            path: rel.to_string(),
            line: line_no,
            severity: Severity::Error,
            message,
            snippet: trimmed.to_string(),
        });
    };
    for ty in ["HashMap", "HashSet"] {
        if has_word(code, ty) {
            push(
                diags,
                RuleId::HashCollections,
                format!(
                    "{ty} iterates in a per-process seeded order; replicated \
                     state and fingerprints must use BTreeMap/BTreeSet"
                ),
            );
        }
    }
    for ty in ["Instant", "SystemTime"] {
        if has_word(code, ty) {
            push(
                diags,
                RuleId::WallClock,
                format!("{ty} reads the wall clock; simulated time (SimTime) is the only clock"),
            );
        }
    }
    for pat in [
        "thread_rng",
        "OsRng",
        "from_entropy",
        "getrandom",
        "from_os_rng",
    ] {
        if has_word(code, pat) {
            push(
                diags,
                RuleId::OsEntropy,
                format!("{pat} draws OS entropy; every draw must come from a seeded StdRng"),
            );
        }
    }
    for pat in ["std::thread", "thread::sleep", "thread::spawn"] {
        if code.contains(pat) {
            push(
                diags,
                RuleId::ThreadsSleep,
                format!(
                    "{pat} introduces scheduling nondeterminism; the simulation is single-threaded"
                ),
            );
        }
    }
    // Floats feeding fingerprint/digest state: inside any function whose
    // name mentions fingerprint/digest, or on a line that touches such an
    // identifier while doing float arithmetic.
    let in_fp_fn = fn_stack
        .iter()
        .any(|(n, _)| n.contains("fingerprint") || n.contains("digest"));
    let mentions_fp = code.contains("fingerprint") || code.contains("digest");
    let floaty = has_word(code, "f32") || has_word(code, "f64") || has_float_literal(code);
    let arithmetic = [
        "+= ", " + ", " - ", " * ", " / ", ".sum", ".fold", ".product",
    ]
    .iter()
    .any(|op| code.contains(op));
    if floaty && arithmetic && (in_fp_fn || mentions_fp) {
        push(
            diags,
            RuleId::FloatFingerprint,
            "float arithmetic feeding a fingerprint/digest: accumulation \
             order would leak into the equivalence locks"
                .to_string(),
        );
    }
}

/// A `1.5`-style float literal (not a range `0..1` or a method call
/// `x.max(y)`).
fn has_float_literal(code: &str) -> bool {
    let b = code.as_bytes();
    (1..b.len().saturating_sub(1)).any(|i| {
        b[i] == b'.'
            && b[i - 1].is_ascii_digit()
            && b[i + 1].is_ascii_digit()
            // not part of `0..9`
            && !(i + 1 < b.len() && b[i + 1] == b'.')
            && !(i >= 1 && b[i - 1] == b'.')
    })
}

/// `GS-P02`: the panic family.
fn scan_panic_freedom(
    rel: &str,
    line_no: usize,
    code: &str,
    trimmed: &str,
    diags: &mut Vec<Diagnostic>,
) {
    const PATTERNS: [(&str, &str); 7] = [
        (".unwrap()", "unwrap() panics on the None/Err path"),
        (".expect(", "expect() panics on the None/Err path"),
        (
            ".unwrap_unchecked(",
            "unwrap_unchecked is UB on the None/Err path",
        ),
        (
            "panic!",
            "panic! aborts the replica outside the crash model",
        ),
        (
            "unreachable!",
            "unreachable! is a runtime panic, not a proof",
        ),
        ("todo!", "todo! panics at runtime"),
        ("unimplemented!", "unimplemented! panics at runtime"),
    ];
    for (pat, why) in PATTERNS {
        if code.contains(pat) {
            diags.push(Diagnostic {
                rule: RuleId::PanicFreedom,
                path: rel.to_string(),
                line: line_no,
                severity: Severity::Error,
                message: format!(
                    "{why}; return a typed error, restructure, or register a \
                     justified invariant in lint.toml"
                ),
                snippet: trimmed.to_string(),
            });
        }
    }
}

/// `GS-P03`: `x[i]` indexing (panics out of bounds). A `[` counts when
/// directly preceded by an identifier character, `)` or `]` — which
/// excludes attributes (`#[..]`), array types (`[u8; 4]`), slice
/// patterns and macros (`vec![..]`).
fn scan_direct_index(
    rel: &str,
    line_no: usize,
    code: &str,
    trimmed: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let b = code.as_bytes();
    let hit = (1..b.len())
        .any(|i| b[i] == b'[' && (is_ident(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']'));
    if hit {
        diags.push(Diagnostic {
            rule: RuleId::DirectIndex,
            path: rel.to_string(),
            line: line_no,
            severity: Severity::Error,
            message: "direct indexing panics out of bounds; use .get()/.get_mut() \
                      or register a justified bounds invariant in lint.toml"
                .to_string(),
            snippet: trimmed.to_string(),
        });
    }
}

/// Track `match` blocks and their arms for `GS-P01`.
#[allow(clippy::too_many_arguments)]
fn scan_match_line(
    rel: &str,
    line_no: usize,
    code: &str,
    trimmed: &str,
    raw_trimmed: &str,
    depth_before: i32,
    matches: &mut Vec<MatchCtx>,
    diags: &mut Vec<Diagnostic>,
) {
    // Arm inspection for the innermost open match whose arms live at
    // this line's depth.
    if let Some(ctx) = matches.last_mut() {
        if depth_before == ctx.arms_depth {
            let is_arm = code.contains("=>") || trimmed.starts_with('|');
            if is_arm
                && WATCHED_ENUMS
                    .iter()
                    .any(|e| code.contains(&format!("{e}::")))
            {
                ctx.watched = true;
            }
            if wildcard_arm(trimmed).is_some() {
                ctx.wildcards.push((line_no, raw_trimmed.to_string()));
            }
        }
    }

    if let Some(at) = find_word(code, "match") {
        let after = &code[at..];
        let opens = after.matches('{').count();
        let closes = after.matches('}').count();
        if opens > closes {
            // Multi-line match: arms sit one level inside.
            matches.push(MatchCtx {
                arms_depth: depth_before + (code[..at].matches('{').count() as i32)
                    - (code[..at].matches('}').count() as i32)
                    + 1,
                watched: false,
                wildcards: Vec::new(),
            });
        } else if after.contains("=>") {
            // Single-line match: inspect it directly.
            let watched = WATCHED_ENUMS
                .iter()
                .any(|e| after.contains(&format!("{e}::")));
            let has_wild = after.contains("_ =>") || after.contains("_=>");
            if watched && has_wild {
                diags.push(Diagnostic {
                    rule: RuleId::WildcardDispatch,
                    path: rel.to_string(),
                    line: line_no,
                    severity: Severity::Error,
                    message: "wildcard arm in a protocol-enum match: a new \
                              variant must fail closed at compile time"
                        .to_string(),
                    snippet: raw_trimmed.to_string(),
                });
            }
        }
    }
}

/// Is this line a wildcard / catch-all arm? Returns the snippet.
fn wildcard_arm(trimmed: &str) -> Option<String> {
    if !trimmed.contains("=>") {
        return None;
    }
    let mut t = trimmed;
    if let Some(rest) = t.strip_prefix('|') {
        t = rest.trim_start();
    }
    // Bare `_` (with or without a guard).
    if let Some(rest) = t.strip_prefix('_') {
        if rest
            .chars()
            .next()
            .is_none_or(|c| c.is_whitespace() || c == '=')
        {
            return Some(trimmed.to_string());
        }
    }
    // A lowercase binding used as a catch-all: `other => ...` (not a
    // path, call, struct or binding pattern).
    let ident: String = t
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if !ident.is_empty()
        && ident
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
    {
        let rest = t[ident.len()..].trim_start();
        if rest.starts_with("=>") || rest.starts_with("if ") {
            return Some(trimmed.to_string());
        }
    }
    None
}

fn flush_match(rel: &str, _line: &str, ctx: MatchCtx, diags: &mut Vec<Diagnostic>) {
    if !ctx.watched {
        return;
    }
    for (line_no, snippet) in ctx.wildcards {
        diags.push(Diagnostic {
            rule: RuleId::WildcardDispatch,
            path: rel.to_string(),
            line: line_no,
            severity: Severity::Error,
            message: "wildcard arm in a protocol-enum match: a new variant \
                      must fail closed at compile time, not be silently \
                      swallowed"
                .to_string(),
            snippet,
        });
    }
}

// ---------------------------------------------------------------------
// Workspace walk + oracle coverage
// ---------------------------------------------------------------------

/// Scan errors (I/O and configuration).
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
    /// `lint.toml` is malformed.
    Allowlist(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::Allowlist(m) => write!(f, "lint.toml: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Directories never scanned (vendored stand-ins, build output, VCS,
/// and this crate's deliberately-bad fixtures).
fn skip_dir(rel: &str) -> bool {
    rel == "vendor"
        || rel == "target"
        || rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.ends_with("/target")
        || rel.contains("/target/")
        || rel.starts_with(".")
        || rel == "crates/lint/fixtures"
}

/// Collect every workspace `.rs` file (sorted, workspace-relative).
pub fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(dir) = stack.pop() {
        let abs = root.join(&dir);
        let entries = std::fs::read_dir(&abs).map_err(|e| LintError::Io(abs.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(abs.clone(), e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if dir.as_os_str().is_empty() {
                name.clone()
            } else {
                format!("{}/{name}", dir.display())
            };
            let ty = entry
                .file_type()
                .map_err(|e| LintError::Io(abs.clone(), e))?;
            if ty.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(PathBuf::from(rel));
                }
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run every rule over the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, LintError> {
    let files = workspace_files(root)?;
    let mut diags = Vec::new();
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs).map_err(|e| LintError::Io(abs.clone(), e))?;
        scan_file(rel, &text, &mut diags);
        sources.insert(rel.clone(), text);
    }
    oracle_coverage(&sources, &mut diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// `GS-P04`: every `OracleViolation` variant must be referenced by some
/// root `tests/` file (the negative controls proving the oracle bites).
pub fn oracle_coverage(sources: &BTreeMap<String, String>, diags: &mut Vec<Diagnostic>) {
    let Some((def_path, def_text)) = sources
        .iter()
        .find(|(p, t)| p.starts_with("crates/") && t.contains("pub enum OracleViolation"))
    else {
        return; // nothing to check (fixture scans)
    };
    let (def_line, variants) = enum_variants(def_text, "OracleViolation");
    for (variant, _vline) in &variants {
        let covered = sources
            .iter()
            .any(|(p, t)| p.starts_with("tests/") && has_word(t, variant));
        if !covered {
            diags.push(Diagnostic {
                rule: RuleId::OracleCoverage,
                path: def_path.clone(),
                line: def_line,
                severity: Severity::Error,
                message: format!(
                    "OracleViolation::{variant} is referenced by no test under \
                     tests/ — the oracle arm is unproven; add a negative \
                     control that seeds the violation and asserts it fires"
                ),
                snippet: variant.clone(),
            });
        }
    }
}

/// Extract `(definition line, [(variant, line)])` of `pub enum <name>`.
pub fn enum_variants(text: &str, name: &str) -> (usize, Vec<(String, usize)>) {
    let mut stripper = strip::Stripper::new();
    let needle = format!("enum {name}");
    let mut def_line = 0usize;
    let mut depth_in = 0i32;
    let mut variants = Vec::new();
    let mut inside = false;
    for (idx, raw) in text.lines().enumerate() {
        let code = stripper.strip_line(raw);
        if !inside {
            if code.contains(&needle) && code.contains('{') {
                inside = true;
                def_line = idx + 1;
                depth_in = 1;
            }
            continue;
        }
        let trimmed = code.trim();
        if depth_in == 1 {
            let ident: String = trimmed
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push((ident, idx + 1));
            }
        }
        depth_in += code.matches('{').count() as i32;
        depth_in -= code.matches('}').count() as i32;
        if depth_in <= 0 {
            break;
        }
    }
    (def_line, variants)
}

// ---------------------------------------------------------------------
// Applying the allowlist
// ---------------------------------------------------------------------

/// The outcome of filtering raw findings through `lint.toml`.
#[derive(Debug)]
pub struct Filtered {
    /// Findings no allowlist entry covers (these fail the run).
    pub kept: Vec<Diagnostic>,
    /// Findings suppressed by an entry.
    pub allowed: usize,
    /// Entries that matched nothing (stale — reported as warnings).
    pub unused: Vec<AllowEntry>,
}

/// Filter `diags` through the allowlist. An entry covers a finding when
/// the rule and path match, the optional `line` matches exactly, and the
/// optional `contains` substring occurs in the offending source line.
pub fn apply_allowlist(diags: Vec<Diagnostic>, allow: &Allowlist) -> Filtered {
    let mut used = vec![false; allow.entries.len()];
    let mut kept = Vec::new();
    let mut allowed = 0usize;
    for d in diags {
        let hit = allow.entries.iter().enumerate().find(|(_, e)| {
            e.rule == d.rule.name()
                && e.path == d.path
                && e.line.is_none_or(|l| l == d.line)
                && e.contains
                    .as_ref()
                    .is_none_or(|c| d.snippet.contains(c.as_str()))
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                allowed += 1;
            }
            None => kept.push(d),
        }
    }
    let unused = allow
        .entries
        .iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    Filtered {
        kept,
        allowed,
        unused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert!(classify("crates/gcs/src/endpoint.rs").protocol_src);
        assert!(!classify("crates/gcs/tests/scenarios.rs").protocol_src);
        assert!(classify("crates/gcs/tests/scenarios.rs").test_file);
        assert!(classify("crates/bench/src/lib.rs").bench);
        assert_eq!(classify("tests/reads.rs").crate_name, "root");
        assert!(classify("tests/reads.rs").test_file);
        assert!(classify("examples/bank.rs").test_file);
        assert!(!classify("src/lib.rs").test_file);
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("use std::collections::HashMap;", "HashMap"));
        assert!(!has_word("use FxHashMap;", "HashMap"));
        assert!(!has_word("let washing_machine = 3;", "machine"));
        assert!(!has_word("SimTime::ZERO", "Time"));
    }

    #[test]
    fn float_literals() {
        assert!(has_float_literal("let x = 1.5;"));
        assert!(!has_float_literal("for i in 0..10 {"));
        assert!(!has_float_literal("x.max(y)"));
    }

    #[test]
    fn wildcard_arms() {
        assert!(wildcard_arm("_ => {}").is_some());
        assert!(wildcard_arm("_ if x > 3 => {}").is_some());
        assert!(wildcard_arm("other => panic!(),").is_some());
        assert!(wildcard_arm("| _ => {}").is_some());
        assert!(wildcard_arm("Some(x) => x,").is_none());
        assert!(wildcard_arm("ScenarioEvent::Heal => {}").is_none());
        assert!(wildcard_arm("_x => {}").is_some());
    }

    #[test]
    fn enum_variant_extraction() {
        let src = "\
/// Doc.
pub enum OracleViolation {
    /// Doc.
    UnexpectedLoss { level: u8 },
    Divergence { digests: Vec<u64> },
    Read(ReadViolation),
}
";
        let (line, vars) = enum_variants(src, "OracleViolation");
        assert_eq!(line, 2);
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["UnexpectedLoss", "Divergence", "Read"]);
    }
}
