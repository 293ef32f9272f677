//! The `lint.toml` allowlist: documented exceptions to the lint rules.
//!
//! The file is TOML restricted to the shape the linter needs — an array
//! of `[[allow]]` tables with string/integer values — parsed by a small
//! hand-rolled reader (the build environment is offline; no external
//! TOML crate). Every entry must carry a `justification`: the policy
//! that exceptions are documented is enforced mechanically, not by
//! review convention.
//!
//! ```toml
//! [[allow]]
//! rule = "panic-freedom"
//! path = "crates/sim/src/engine.rs"
//! contains = "expect(\"slab slot\")"
//! justification = "a vacant slab slot means the wheel and slab disagree: a kernel bug, failing loudly is the contract"
//! ```
//!
//! `line` pins an entry to an exact line (brittle across edits — prefer
//! `contains`); `contains` matches a substring of the offending source
//! line. An entry with neither suppresses the rule for the whole file.

use std::fmt;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name (`panic-freedom`, `direct-index`, ...).
    pub rule: String,
    /// Workspace-relative file the exception applies to.
    pub path: String,
    /// Exact 1-based line, if pinned.
    pub line: Option<usize>,
    /// Substring of the offending source line, if anchored.
    pub contains: Option<String>,
    /// Why the exception is sound. Mandatory and non-empty.
    pub justification: String,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.rule, self.path)?;
        if let Some(l) = self.line {
            write!(f, ":{l}")?;
        }
        if let Some(c) = &self.contains {
            write!(f, " (contains {c:?})")?;
        }
        Ok(())
    }
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse `lint.toml` text. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<PartialEntry> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(p) = current.take() {
                    entries.push(p.finish()?);
                }
                current = Some(PartialEntry::new(line_no));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {line_no}: unexpected table {line:?} (only [[allow]] is recognised)"
                ));
            }
            let Some(eq) = line.find('=') else {
                return Err(format!(
                    "line {line_no}: expected `key = value`, got {line:?}"
                ));
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            let Some(p) = current.as_mut() else {
                return Err(format!(
                    "line {line_no}: key {key:?} outside any [[allow] ] entry"
                ));
            };
            match key {
                "rule" => p.rule = Some(parse_string(value, line_no)?),
                "path" => p.path = Some(parse_string(value, line_no)?),
                "contains" => p.contains = Some(parse_string(value, line_no)?),
                "justification" => p.justification = Some(parse_string(value, line_no)?),
                "line" => {
                    p.line = Some(value.parse::<usize>().map_err(|_| {
                        format!("line {line_no}: `line` must be an integer, got {value:?}")
                    })?);
                }
                other => {
                    return Err(format!(
                        "line {line_no}: unknown key {other:?} (expected rule/path/line/contains/justification)"
                    ));
                }
            }
        }
        if let Some(p) = current.take() {
            entries.push(p.finish()?);
        }
        Ok(Allowlist { entries })
    }

    /// Render entries back to TOML (used by `--fix-allowlist`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str("[[allow]]\n");
            out.push_str(&format!("rule = {}\n", toml_string(&e.rule)));
            out.push_str(&format!("path = {}\n", toml_string(&e.path)));
            if let Some(l) = e.line {
                out.push_str(&format!("line = {l}\n"));
            }
            if let Some(c) = &e.contains {
                out.push_str(&format!("contains = {}\n", toml_string(c)));
            }
            out.push_str(&format!(
                "justification = {}\n\n",
                toml_string(&e.justification)
            ));
        }
        out
    }
}

struct PartialEntry {
    at_line: usize,
    rule: Option<String>,
    path: Option<String>,
    line: Option<usize>,
    contains: Option<String>,
    justification: Option<String>,
}

impl PartialEntry {
    fn new(at_line: usize) -> Self {
        PartialEntry {
            at_line,
            rule: None,
            path: None,
            line: None,
            contains: None,
            justification: None,
        }
    }

    fn finish(self) -> Result<AllowEntry, String> {
        let at = self.at_line;
        let rule = self
            .rule
            .ok_or_else(|| format!("entry at line {at}: missing `rule`"))?;
        if crate::RuleId::from_name(&rule).is_none() {
            return Err(format!(
                "entry at line {at}: unknown rule {rule:?} (see `groupsafe-lint --rules`)"
            ));
        }
        let path = self
            .path
            .ok_or_else(|| format!("entry at line {at}: missing `path`"))?;
        let justification = self.justification.ok_or_else(|| {
            format!("entry at line {at}: missing `justification` — every exception must say why it is sound")
        })?;
        if justification.trim().is_empty() {
            return Err(format!(
                "entry at line {at}: empty `justification` — every exception must say why it is sound"
            ));
        }
        Ok(AllowEntry {
            rule,
            path,
            line: self.line,
            contains: self.contains,
            justification,
        })
    }
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a double-quoted TOML string with basic escapes.
fn parse_string(value: &str, line_no: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
        return Err(format!(
            "line {line_no}: expected a double-quoted string, got {v:?}"
        ));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(format!(
                        "line {line_no}: unsupported escape \\{other} in string"
                    ));
                }
                None => return Err(format!("line {line_no}: dangling escape in string")),
            }
        } else if c == '"' {
            return Err(format!(
                "line {line_no}: unescaped quote inside string {v:?}"
            ));
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn toml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let src = r#"
# workspace exceptions
[[allow]]
rule = "panic-freedom"
path = "crates/sim/src/engine.rs"
contains = "slab slot"
justification = "fail-loudly contract of the event slab"

[[allow]]
rule = "direct-index"
path = "crates/core/src/server.rs"
line = 42
justification = "index bounded by the loop above"
"#;
        let list = Allowlist::parse(src).expect("parses");
        assert_eq!(list.entries.len(), 2);
        assert_eq!(list.entries[0].rule, "panic-freedom");
        assert_eq!(list.entries[0].contains.as_deref(), Some("slab slot"));
        assert_eq!(list.entries[1].line, Some(42));
        // Render → parse is identity.
        let again = Allowlist::parse(&list.render()).expect("re-parses");
        assert_eq!(again, list);
    }

    #[test]
    fn missing_justification_rejected() {
        let src = "[[allow]]\nrule = \"panic-freedom\"\npath = \"a.rs\"\n";
        let err = Allowlist::parse(src).expect_err("must fail");
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn empty_justification_rejected() {
        let src = "[[allow]]\nrule = \"panic-freedom\"\npath = \"a.rs\"\njustification = \"  \"\n";
        let err = Allowlist::parse(src).expect_err("must fail");
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn unknown_rule_rejected() {
        let src = "[[allow]]\nrule = \"no-such\"\npath = \"a.rs\"\njustification = \"x\"\n";
        let err = Allowlist::parse(src).expect_err("must fail");
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn comments_and_hash_in_strings() {
        let src = "[[allow]]\nrule = \"panic-freedom\" # trailing\npath = \"a#b.rs\"\njustification = \"uses # inside\"\n";
        let list = Allowlist::parse(src).expect("parses");
        assert_eq!(list.entries[0].path, "a#b.rs");
        assert_eq!(list.entries[0].justification, "uses # inside");
    }
}
