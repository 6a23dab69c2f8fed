//! Fixture-based self-tests: one positive + one negative fixture per
//! rule, the suppression grammar, the tokenizer's masking behavior, and
//! the acceptance property that seeding any forbidden pattern into a
//! panic-free zone produces a violation.
//!
//! Fixtures live in `tests/fixtures/<rule>/`. Each is analyzed *as if*
//! it sat at a chosen workspace path, so one fixture file can be tested
//! inside and outside a zone without touching the real tree.

use snaple_lint::{analyze_source, Rule};

/// A panic-free-zone path (panic + index rules active).
const ZONE: &str = "crates/core/src/shard/runtime.rs";
/// The wire-safety zone (adds wire-length + wire-alloc).
const WIRE: &str = "crates/core/src/shard/wire.rs";
/// An ordinary library path (base rules only).
const LIB: &str = "crates/eval/src/lib.rs";

fn rules_hit(path: &str, source: &str) -> Vec<Rule> {
    analyze_source(path, source)
        .violations
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

#[test]
fn panic_fixtures() {
    let hits = rules_hit(ZONE, include_str!("fixtures/panic/pos.rs"));
    assert_eq!(hits.iter().filter(|r| **r == Rule::Panic).count(), 4);
    assert!(rules_hit(ZONE, include_str!("fixtures/panic/neg.rs")).is_empty());
    // The same panicking code is fine outside the zone.
    assert!(rules_hit(LIB, include_str!("fixtures/panic/pos.rs")).is_empty());
}

#[test]
fn index_fixtures() {
    let hits = rules_hit(ZONE, include_str!("fixtures/index/pos.rs"));
    assert!(hits.iter().all(|r| *r == Rule::Index));
    assert!(hits.len() >= 3, "ident, chained, and range forms: {hits:?}");
    assert!(rules_hit(ZONE, include_str!("fixtures/index/neg.rs")).is_empty());
}

#[test]
fn wire_length_fixtures() {
    let hits = rules_hit(WIRE, include_str!("fixtures/wire-length/pos.rs"));
    assert!(hits.contains(&Rule::WireLength), "{hits:?}");
    assert!(rules_hit(WIRE, include_str!("fixtures/wire-length/neg.rs")).is_empty());
}

#[test]
fn wire_alloc_fixtures() {
    let hits = rules_hit(WIRE, include_str!("fixtures/wire-alloc/pos.rs"));
    assert!(hits.contains(&Rule::WireAlloc), "{hits:?}");
    let neg = rules_hit(WIRE, include_str!("fixtures/wire-alloc/neg.rs"));
    assert!(!neg.contains(&Rule::WireAlloc), "{neg:?}");
}

#[test]
fn float_order_fixtures() {
    let pos = include_str!("fixtures/float-order/pos.rs");
    let hits = rules_hit(LIB, pos);
    assert!(hits.contains(&Rule::FloatOrder), "{hits:?}");
    assert!(rules_hit(LIB, include_str!("fixtures/float-order/neg.rs")).is_empty());
    // topk.rs owns the NaN-aware comparator and is exempt.
    assert!(rules_hit("crates/core/src/topk.rs", pos).is_empty());
}

#[test]
fn determinism_fixtures() {
    let hits = rules_hit(LIB, include_str!("fixtures/determinism/pos.rs"));
    assert_eq!(hits.iter().filter(|r| **r == Rule::Determinism).count(), 2);
    assert!(rules_hit(LIB, include_str!("fixtures/determinism/neg.rs")).is_empty());
}

#[test]
fn print_fixtures() {
    let pos = include_str!("fixtures/print/pos.rs");
    let hits = rules_hit(LIB, pos);
    assert_eq!(hits.iter().filter(|r| **r == Rule::Print).count(), 3);
    assert!(rules_hit(LIB, include_str!("fixtures/print/neg.rs")).is_empty());
    // Entry points and the bench crate may print.
    assert!(rules_hit("src/bin/snaple_cli.rs", pos).is_empty());
    assert!(rules_hit("crates/bench/tests/gates.rs", pos).is_empty());
}

#[test]
fn forbid_unsafe_fixtures() {
    let hits = rules_hit(LIB, include_str!("fixtures/forbid-unsafe/pos.rs"));
    assert!(hits.contains(&Rule::ForbidUnsafe), "{hits:?}");
    assert!(rules_hit(LIB, include_str!("fixtures/forbid-unsafe/neg.rs")).is_empty());
}

#[test]
fn suppression_honored_silences_and_counts() {
    let a = analyze_source(ZONE, include_str!("fixtures/suppression/honored.rs"));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.suppressed, 2, "same-line and next-line forms");
}

#[test]
fn suppression_without_justification_rejected() {
    let a = analyze_source(
        ZONE,
        include_str!("fixtures/suppression/missing_justification.rs"),
    );
    let rules: Vec<Rule> = a.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&Rule::Suppression), "{rules:?}");
    assert!(
        rules.contains(&Rule::Index),
        "the bad suppression must not silence the hit: {rules:?}"
    );
}

#[test]
fn suppression_unknown_rule_rejected() {
    let a = analyze_source(ZONE, include_str!("fixtures/suppression/unknown_rule.rs"));
    let rules: Vec<Rule> = a.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&Rule::Suppression), "{rules:?}");
    assert!(rules.contains(&Rule::Panic), "{rules:?}");
}

#[test]
fn tokenizer_masks_strings_and_comments() {
    // Raw strings, byte-raw strings, nested block comments, and plain
    // strings all carry forbidden patterns — none may fire.
    let a = analyze_source(ZONE, include_str!("fixtures/tokenizer/masked.rs"));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

#[test]
fn tokenizer_skips_cfg_test_regions() {
    let a = analyze_source(ZONE, include_str!("fixtures/tokenizer/cfg_test.rs"));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

/// Acceptance criterion: seeding any single forbidden pattern into a
/// panic-free zone file produces at least one violation (which makes
/// `snaple-lint --check` exit non-zero).
#[test]
fn seeding_any_forbidden_pattern_fails_the_zone() {
    let seeds: &[(&str, Rule)] = &[
        ("let x = maybe.unwrap();", Rule::Panic),
        ("let x = maybe.expect(\"present\");", Rule::Panic),
        ("panic!(\"boom\");", Rule::Panic),
        ("unreachable!();", Rule::Panic),
        ("let x = buf[i];", Rule::Index),
        ("let t = &rows[1..];", Rule::Index),
        ("let o = s.partial_cmp(&t);", Rule::FloatOrder),
        ("let t = std::time::SystemTime::now();", Rule::Determinism),
        ("let r = thread_rng();", Rule::Determinism),
        ("println!(\"dbg\");", Rule::Print),
        ("dbg!(x);", Rule::Print),
        ("let v = unsafe { *p };", Rule::ForbidUnsafe),
    ];
    for (line, rule) in seeds {
        let source = format!("fn seeded() {{\n    {line}\n}}\n");
        let hits = rules_hit(ZONE, &source);
        assert!(
            hits.contains(rule),
            "seeding `{line}` should trip {rule:?}, got {hits:?}"
        );
    }
}

/// The workspace itself must be lint-clean: zero unsuppressed
/// violations, every suppression justified. This is the same scan CI
/// enforces via `cargo run -p snaple-lint -- --check`.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = snaple_lint::analyze_workspace(&root).expect("workspace scan");
    assert!(analysis.files_scanned > 50, "scan looks truncated");
    let rendered: Vec<String> = analysis
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace has violations:\n{rendered:#?}"
    );
}
