//! The rule engine: rule definitions, the zone map, suppression
//! parsing, and the per-file analysis driver.
//!
//! See the crate-root docs and `crates/lint/README.md` for the rule
//! catalogue and the rationale behind each zone.

use crate::lexer::{scan, FileScan, LineInfo};
use std::fmt;

/// Every rule the linter knows. Rule ids (the strings used in
/// diagnostics and `allow(..)` suppressions) come from [`Rule::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap()` / `.expect(` / `panic!` / `unreachable!` in a
    /// panic-free zone.
    Panic,
    /// Postfix `[..]` slice/array indexing in a panic-free zone.
    Index,
    /// Unchecked `as usize` widening of a wire-controlled value that
    /// feeds an allocation or index on the same line (wire.rs decode
    /// paths only).
    WireLength,
    /// `Vec::with_capacity` fed by anything other than a literal or a
    /// `get_count`-validated binding (wire.rs decode paths only).
    WireAlloc,
    /// `partial_cmp` on float keys outside the NaN-ordering-aware
    /// `topk.rs` (regression guard for the PR 3 NaN fix).
    FloatOrder,
    /// Ambient entropy or wall-clock reads (`SystemTime::now`,
    /// `thread_rng`, ...) that break run reproducibility.
    Determinism,
    /// `println!`-family / `dbg!` / `todo!` / `unimplemented!` in
    /// library code.
    Print,
    /// Any use of the `unsafe` keyword in first-party code.
    ForbidUnsafe,
    /// A malformed suppression comment (unknown rule id, missing
    /// justification, bad grammar). A bad suppression is itself a
    /// violation and suppresses nothing.
    Suppression,
}

impl Rule {
    /// All rules, in diagnostic-output order.
    pub const ALL: [Rule; 9] = [
        Rule::Panic,
        Rule::Index,
        Rule::WireLength,
        Rule::WireAlloc,
        Rule::FloatOrder,
        Rule::Determinism,
        Rule::Print,
        Rule::ForbidUnsafe,
        Rule::Suppression,
    ];

    /// The stable string id used in diagnostics and `allow(..)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::WireLength => "wire-length",
            Rule::WireAlloc => "wire-alloc",
            Rule::FloatOrder => "float-order",
            Rule::Determinism => "determinism",
            Rule::Print => "print",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::Suppression => "suppression",
        }
    }

    /// Parses a rule id; `suppression` is not allowable (you cannot
    /// suppress the suppression-grammar check).
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.id() == id && *r != Rule::Suppression)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: a forbidden pattern at `file:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human explanation of why the pattern is forbidden here.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Aggregate result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed violations, in file/line order.
    pub violations: Vec<Violation>,
    /// Count of hits silenced by a justified suppression.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Zone map
// ---------------------------------------------------------------------------

/// Files whose non-test code must be panic-free (rules `panic` +
/// `index`). Paths are workspace-relative with forward slashes.
pub const PANIC_FREE_ZONE: [&str; 13] = [
    "crates/core/src/serve.rs",
    "crates/core/src/predictor_api.rs",
    "crates/core/src/shard/wire.rs",
    "crates/core/src/shard/runtime.rs",
    "crates/core/src/shard/router.rs",
    "crates/core/src/concurrent.rs",
    "crates/gas/src/deploy.rs",
    "crates/gas/src/engine.rs",
    "crates/graph/src/codec.rs",
    "crates/graph/src/v2.rs",
    "crates/store/src/log.rs",
    "crates/store/src/snapshot.rs",
    "crates/store/src/recover.rs",
];

/// Files whose decode-path functions get the wire-safety rules: the
/// shard protocol plus everything that decodes bytes that may have been
/// corrupted at rest (the shared delta codec, the `SNPLG2` reader with
/// its delta-varint block decoder, the commitlog scanner, the snapshot
/// loader).
pub const WIRE_ZONE: [&str; 5] = [
    "crates/core/src/shard/wire.rs",
    "crates/graph/src/codec.rs",
    "crates/graph/src/v2.rs",
    "crates/store/src/log.rs",
    "crates/store/src/snapshot.rs",
];

/// The one file allowed to order floats with `partial_cmp` (it owns
/// the NaN-aware comparator).
pub const FLOAT_ORDER_EXEMPT: [&str; 1] = ["crates/core/src/topk.rs"];

/// Returns the checks that apply to a workspace-relative path.
pub fn checks_for(path: &str) -> Vec<Rule> {
    let mut rules = vec![Rule::Determinism, Rule::ForbidUnsafe];
    if !FLOAT_ORDER_EXEMPT.contains(&path) {
        rules.push(Rule::FloatOrder);
    }
    if !print_exempt(path) {
        rules.push(Rule::Print);
    }
    if PANIC_FREE_ZONE.contains(&path) {
        rules.push(Rule::Panic);
        rules.push(Rule::Index);
    }
    if WIRE_ZONE.contains(&path) {
        rules.push(Rule::WireLength);
        rules.push(Rule::WireAlloc);
    }
    rules
}

/// Binary entry points and the bench crate may print.
fn print_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path.contains("/bin/") || path.ends_with("main.rs")
}

/// Which crate a workspace-relative path belongs to, for `--fix-report`
/// grouping. The root `src/` tree is the umbrella `snaple` crate.
pub fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("snaple")
    } else {
        "snaple"
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Result of parsing one comment for a suppression.
enum SuppressionParse {
    /// Comment has no `snaple-lint:` marker.
    NotASuppression,
    /// Well-formed: these rules are allowed (justification present).
    Allow(Vec<Rule>),
    /// Marker present but malformed; the string explains how.
    Malformed(String),
}

/// Grammar: `snaple-lint: allow(<rule>[, <rule>]*) <sep> <justification>`
/// where `<sep>` is `—`, `--`, `-`, or `:` and the justification is
/// non-empty. A suppression on a comment-only line covers the next
/// line; otherwise it covers its own line. The marker must *start* the
/// comment, so prose that merely mentions `snaple-lint:` (docs, this
/// file) is not parsed as a suppression.
fn parse_suppression(comment: &str) -> SuppressionParse {
    let Some(rest) = comment.trim_start().strip_prefix("snaple-lint:") else {
        return SuppressionParse::NotASuppression;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return SuppressionParse::Malformed(
            "expected `allow(<rule>, ..)` after `snaple-lint:`".to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return SuppressionParse::Malformed("unclosed `allow(`".to_string());
    };
    let mut rules = Vec::new();
    for part in rest[..close].split(',') {
        let id = part.trim();
        match Rule::from_id(id) {
            Some(r) => rules.push(r),
            None => {
                return SuppressionParse::Malformed(format!("unknown rule `{id}` in allow(..)"))
            }
        }
    }
    if rules.is_empty() {
        return SuppressionParse::Malformed("empty allow(..)".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let justification = ["—", "--", "-", ":"]
        .iter()
        .find_map(|sep| after.strip_prefix(sep))
        .map(str::trim);
    match justification {
        Some(j) if !j.is_empty() => SuppressionParse::Allow(rules),
        _ => SuppressionParse::Malformed(
            "suppression requires a justification: \
             `snaple-lint: allow(<rule>) — <why this cannot fail>`"
                .to_string(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Analysis driver
// ---------------------------------------------------------------------------

/// Analyzes one file's source as if it lived at `path` (workspace-
/// relative). Exposed so fixture self-tests can place a fixture in any
/// zone without touching the real tree.
pub fn analyze_source(path: &str, source: &str) -> Analysis {
    let file = scan(source);
    let checks = checks_for(path);
    let validated = validated_idents(&file);
    let mut analysis = Analysis {
        files_scanned: 1,
        ..Analysis::default()
    };

    // Pass 1: collect suppressions (and flag malformed ones).
    // allowed[i] = rules suppressed on line i (0-based).
    let mut allowed: Vec<Vec<Rule>> = vec![Vec::new(); file.lines.len()];
    for (idx, info) in file.lines.iter().enumerate() {
        if info.comment.is_empty() {
            continue;
        }
        match parse_suppression(&info.comment) {
            SuppressionParse::NotASuppression => {}
            SuppressionParse::Allow(rules) => {
                let target = if info.code.trim().is_empty() {
                    idx + 1
                } else {
                    idx
                };
                if let Some(slot) = allowed.get_mut(target) {
                    slot.extend(rules);
                }
            }
            SuppressionParse::Malformed(msg) => {
                analysis.violations.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: Rule::Suppression,
                    message: msg,
                    snippet: info.raw.trim().to_string(),
                });
            }
        }
    }

    // Pass 2: run the zone's checks line by line. Test regions
    // (`#[cfg(test)]` / `mod tests`) are exempt from every rule: the
    // lint protects shipped code paths, and `#![forbid(unsafe_code)]`
    // already covers tests at the compiler level.
    for (idx, info) in file.lines.iter().enumerate() {
        if info.is_test {
            continue;
        }
        for &rule in &checks {
            if let Some(message) = check_line(rule, info, &validated) {
                if allowed[idx].contains(&rule) {
                    analysis.suppressed += 1;
                } else {
                    analysis.violations.push(Violation {
                        file: path.to_string(),
                        line: idx + 1,
                        rule,
                        message,
                        snippet: info.raw.trim().to_string(),
                    });
                }
            }
        }
    }
    analysis.violations.sort_by_key(|v| v.line);
    analysis
}

/// Identifiers bound by `let <ident> = get_count(..)` anywhere in the
/// file: the only non-literal values `wire-alloc` accepts as a
/// `with_capacity` argument.
fn validated_idents(file: &FileScan) -> Vec<String> {
    let mut out = Vec::new();
    for info in &file.lines {
        let t = info.code.trim_start();
        let Some(rest) = t.strip_prefix("let ") else {
            continue;
        };
        let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
        let ident: String = rest.chars().take_while(|c| is_ident(*c)).collect();
        if ident.is_empty() {
            continue;
        }
        let after = rest[ident.len()..].trim_start();
        if let Some(rhs) = after.strip_prefix('=') {
            if rhs.trim_start().starts_with("get_count(") {
                out.push(ident);
            }
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Finds `needle` in `hay` at a non-identifier boundary (the char
/// before the match, if any, is not part of an identifier).
fn find_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let boundary = at == 0 || !hay[..at].chars().next_back().is_some_and(is_ident);
        if boundary {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Keywords that may legitimately precede `[` (slice patterns, array
/// types after `as`, `return [..]`, ...). `self` is deliberately *not*
/// here: `self[..]` is real `Index` sugar.
const KEYWORDS_BEFORE_BRACKET: [&str; 16] = [
    "let", "in", "if", "while", "match", "return", "mut", "ref", "else", "move", "as", "for",
    "where", "break", "continue", "const",
];

/// True when the masked line contains a postfix index expression:
/// `[` preceded by an identifier (non-keyword), `)`, `]`, or `?`.
fn has_postfix_index(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if prev == '#' || prev == '!' {
            continue; // attribute or macro like `vec![`
        }
        if prev == ')' || prev == ']' || prev == '?' {
            return true;
        }
        if is_ident(prev) {
            // Walk back over the identifier and reject keywords.
            let mut s = i - 1;
            while s > 0 && is_ident(bytes[s - 1] as char) {
                s -= 1;
            }
            let ident = &code[s..i];
            if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                continue; // `[u8; 4]`-style literal before `[`? digits — not an index base
            }
            if !KEYWORDS_BEFORE_BRACKET.contains(&ident) {
                return true;
            }
        }
    }
    false
}

/// Heuristic for wire.rs: decode-path functions, where every integer is
/// attacker-controlled until validated.
fn is_decode_path(fn_name: Option<&str>) -> bool {
    let Some(name) = fn_name else { return false };
    ["decode", "read", "get", "parse", "take"]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Runs one rule against one line; returns the violation message on a
/// hit.
fn check_line(rule: Rule, info: &LineInfo, validated: &[String]) -> Option<String> {
    let code = info.code.as_str();
    match rule {
        Rule::Panic => {
            if find_token(code, "unwrap()")
                || code.contains(".expect(")
                || find_token(code, "panic!")
                || find_token(code, "unreachable!")
            {
                Some(
                    "panic path in a panic-free zone; return a typed \
                     SnapleError/WireError instead"
                        .to_string(),
                )
            } else {
                None
            }
        }
        Rule::Index => {
            if has_postfix_index(code) {
                Some(
                    "slice indexing can panic in a panic-free zone; use \
                     .get()/.get_mut() or prove bounds and suppress with a \
                     justification"
                        .to_string(),
                )
            } else {
                None
            }
        }
        Rule::WireLength => {
            if is_decode_path(info.fn_name.as_deref())
                && code.contains(" as usize")
                && (code.contains("with_capacity")
                    || code.contains("reserve")
                    || code.contains("resize")
                    || code.contains("read_exact")
                    || code.contains("set_len")
                    || code.contains("vec!")
                    || has_postfix_index(code))
            {
                Some(
                    "unchecked `as usize` widening of a wire-controlled \
                     value feeding an allocation or index; validate via \
                     get_count first"
                        .to_string(),
                )
            } else {
                None
            }
        }
        Rule::WireAlloc => {
            if !is_decode_path(info.fn_name.as_deref()) {
                return None;
            }
            let pos = code.find("with_capacity(")?;
            let arg_from = pos + "with_capacity(".len();
            let mut depth = 1usize;
            let mut end = arg_from;
            for (off, c) in code[arg_from..].char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = arg_from + off;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let arg = code[arg_from..end].trim();
            let is_literal = !arg.is_empty() && arg.chars().all(|c| c.is_ascii_digit() || c == '_');
            let is_validated = validated.iter().any(|v| v == arg);
            if is_literal || is_validated {
                None
            } else {
                Some(format!(
                    "with_capacity({arg}) in a decode path: the argument \
                     must be an integer literal or a `let {arg} = \
                     get_count(..)` binding"
                ))
            }
        }
        Rule::FloatOrder => {
            if code.contains("partial_cmp") {
                Some(
                    "partial_cmp on float keys is NaN-unsafe (PR 3 \
                     regression guard); use total_cmp or the topk.rs \
                     comparator"
                        .to_string(),
                )
            } else {
                None
            }
        }
        Rule::Determinism => {
            for pat in [
                "SystemTime::now",
                "thread_rng",
                "from_entropy",
                "OsRng",
                "rand::random",
            ] {
                if code.contains(pat) {
                    return Some(format!(
                        "`{pat}` is ambient entropy/wall-clock; runs must \
                         be reproducible — use seeded RNGs (Instant-based \
                         RunStats timing is fine)"
                    ));
                }
            }
            None
        }
        Rule::Print => {
            for pat in [
                "println!",
                "print!",
                "eprintln!",
                "eprint!",
                "dbg!",
                "todo!",
                "unimplemented!",
            ] {
                if find_token(code, pat) {
                    return Some(format!(
                        "`{pat}` in library code; return data or use the \
                         stats surfaces instead"
                    ));
                }
            }
            None
        }
        Rule::ForbidUnsafe => {
            if find_token_word(code, "unsafe") {
                Some(
                    "first-party crates are `#![forbid(unsafe_code)]`; \
                     keep unsafe out of the workspace"
                        .to_string(),
                )
            } else {
                None
            }
        }
        Rule::Suppression => None, // emitted during suppression parsing
    }
}

/// Like [`find_token`] but also requires a non-identifier boundary
/// *after* the match (`unsafe_code` must not match `unsafe`).
fn find_token_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !hay[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZONE: &str = "crates/core/src/shard/runtime.rs";

    #[test]
    fn panic_rule_fires_in_zone_only() {
        let src = "fn f() { let x = y.unwrap(); }\n";
        assert_eq!(analyze_source(ZONE, src).violations.len(), 1);
        assert!(analyze_source("crates/eval/src/lib.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { let x = y.unwrap_or_else(|| 0); }\n";
        assert!(analyze_source(ZONE, src).violations.is_empty());
    }

    #[test]
    fn index_rule_skips_attributes_and_macros() {
        let src = "#[derive(Debug)]\nfn f() { let v = vec![1, 2]; let s: [u8; 4] = [0; 4]; }\n";
        assert!(analyze_source(ZONE, src).violations.is_empty());
    }

    #[test]
    fn index_rule_catches_postfix_indexing() {
        let src = "fn f() { let x = buf[i]; }\n";
        let a = analyze_source(ZONE, src);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, Rule::Index);
    }

    #[test]
    fn suppression_with_justification_is_honored() {
        let src =
            "fn f() { let x = buf[i]; } // snaple-lint: allow(index) — i < len by construction\n";
        let a = analyze_source(ZONE, src);
        assert!(a.violations.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn suppression_without_justification_is_rejected() {
        let src = "fn f() { let x = buf[i]; } // snaple-lint: allow(index)\n";
        let a = analyze_source(ZONE, src);
        assert_eq!(a.violations.len(), 2); // the index hit AND the bad suppression
        assert!(a.violations.iter().any(|v| v.rule == Rule::Suppression));
        assert!(a.violations.iter().any(|v| v.rule == Rule::Index));
    }

    #[test]
    fn comment_only_suppression_covers_next_line() {
        let src = "fn f() {\n    // snaple-lint: allow(panic) — invariant: queue non-empty\n    let x = y.unwrap();\n}\n";
        let a = analyze_source(ZONE, src);
        assert!(a.violations.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); buf[0]; }\n}\n";
        assert!(analyze_source(ZONE, src).violations.is_empty());
    }

    #[test]
    fn wire_alloc_accepts_get_count_binding() {
        let src = "fn decode_rows(p: &[u8]) {\n    let n = get_count(p, 8)?;\n    let v = Vec::with_capacity(n);\n}\n";
        assert!(analyze_source("crates/core/src/shard/wire.rs", src)
            .violations
            .iter()
            .all(|v| v.rule != Rule::WireAlloc));
    }

    #[test]
    fn wire_alloc_rejects_raw_field() {
        let src = "fn decode_rows(p: &[u8]) {\n    let n = read_u32(p) as usize;\n    let v = Vec::with_capacity(n);\n}\n";
        let a = analyze_source("crates/core/src/shard/wire.rs", src);
        assert!(a.violations.iter().any(|v| v.rule == Rule::WireAlloc));
    }
}
