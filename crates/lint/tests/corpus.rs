//! Golden-corpus tests: the seeded-bad fixtures must fire exactly their
//! rules (with the expected chains), and the impersonator/waiver fixtures
//! must stay clean.
//!
//! The fixtures live under `tests/fixtures/`, a directory the workspace
//! scanner deliberately skips, so the corpus drives [`scan_sources`]
//! directly with workspace-shaped relative paths.  Line expectations are
//! located by content, not hard-coded numbers, so editing a fixture's
//! header cannot silently shift a golden.

use dla_lint::{scan_sources, Finding, SourceSpec, LEGACY_RULES, SEMANTIC_RULES};
use std::collections::BTreeSet;

const BAD_LEGACY: &str = include_str!("fixtures/bad_legacy.rs");
const BAD_ROOT: &str = include_str!("fixtures/bad_root.rs");
const BAD_FACADE: &str = include_str!("fixtures/bad_facade.rs");
const BAD_PANIC_ENTRY: &str = include_str!("fixtures/bad_panic_entry.rs");
const BAD_ALLOC_REACH: &str = include_str!("fixtures/bad_alloc_reach.rs");
const BAD_ATOMIC_PAIR: &str = include_str!("fixtures/bad_atomic_pair.rs");
const BAD_LOCK_ORDER: &str = include_str!("fixtures/bad_lock_order.rs");
const CLEAN_IMPERSONATORS: &str = include_str!("fixtures/clean_impersonators.rs");
const CLEAN_WAIVED: &str = include_str!("fixtures/clean_waived.rs");

fn spec(rel: &str, content: &str) -> SourceSpec {
    SourceSpec {
        rel: rel.to_string(),
        content: content.to_string(),
    }
}

/// 1-indexed line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"))
}

fn chain_names(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|s| s.function.as_str()).collect()
}

fn all_bad_specs() -> Vec<SourceSpec> {
    vec![
        spec("crates/fixture_bad/src/legacy.rs", BAD_LEGACY),
        spec("crates/fixture_bad/src/lib.rs", BAD_ROOT),
        spec("crates/predict/src/health.rs", BAD_FACADE),
        spec("crates/fixture_bad/src/panic_entry.rs", BAD_PANIC_ENTRY),
        spec("crates/fixture_bad/src/alloc_reach.rs", BAD_ALLOC_REACH),
        spec("crates/fixture_bad/src/atomic_pair.rs", BAD_ATOMIC_PAIR),
        spec("crates/fixture_bad/src/lock_order.rs", BAD_LOCK_ORDER),
    ]
}

#[test]
fn legacy_fixture_fires_exactly_the_seeded_rules() {
    let findings = scan_sources(&[spec("crates/fixture_bad/src/legacy.rs", BAD_LEGACY)]);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let expected = vec![
        ("hot-path", line_of(BAD_LEGACY, "vec![0.0; 8]")),
        ("hot-path", line_of(BAD_LEGACY, "format!(\"x = {x}\")")),
        ("ordering", line_of(BAD_LEGACY, "fetch_add")),
        ("unwrap", line_of(BAD_LEGACY, "slot.unwrap()")),
    ];
    assert_eq!(got, expected, "{findings:?}");
    assert!(findings[0].message.contains("vec!["), "{findings:?}");
    assert!(findings[1].message.contains("format!"), "{findings:?}");
}

#[test]
fn crate_root_without_the_unsafe_audit_is_reported() {
    let findings = scan_sources(&[spec("crates/fixture_bad/src/lib.rs", BAD_ROOT)]);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, [("unsafe-crate", 1)], "{findings:?}");
}

#[test]
fn std_sync_under_a_facade_path_is_reported() {
    let findings = scan_sources(&[spec("crates/predict/src/health.rs", BAD_FACADE)]);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let expected = vec![("sync-facade", line_of(BAD_FACADE, "use std::sync::Mutex"))];
    assert_eq!(got, expected, "{findings:?}");
    // The same content under a non-facade path is free to use std::sync.
    let elsewhere = scan_sources(&[spec("crates/fixture_bad/src/elsewhere.rs", BAD_FACADE)]);
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn panic_entry_fixture_reports_the_full_witness_chain() {
    let findings = scan_sources(&[spec(
        "crates/fixture_bad/src/panic_entry.rs",
        BAD_PANIC_ENTRY,
    )]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "panic-free");
    assert_eq!(f.line, line_of(BAD_PANIC_ENTRY, "panic!("));
    assert!(f.message.contains("`panic!`"), "{}", f.message);
    assert_eq!(chain_names(f), ["query", "step", "deep"]);
}

#[test]
fn alloc_reach_fixture_reports_the_hidden_allocation_with_its_chain() {
    let findings = scan_sources(&[spec(
        "crates/fixture_bad/src/alloc_reach.rs",
        BAD_ALLOC_REACH,
    )]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "alloc-reach");
    assert_eq!(f.line, line_of(BAD_ALLOC_REACH, "Vec::with_capacity(8)"));
    assert!(f.message.contains("Vec::with_capacity"), "{}", f.message);
    assert_eq!(chain_names(f), ["eval", "kernel", "scratch"]);
}

#[test]
fn atomic_pair_fixture_reports_both_orphan_halves() {
    let findings = scan_sources(&[spec(
        "crates/fixture_bad/src/atomic_pair.rs",
        BAD_ATOMIC_PAIR,
    )]);
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let expected = vec![
        ("atomic-pair", line_of(BAD_ATOMIC_PAIR, "self.ready.store")),
        (
            "atomic-pair",
            line_of(BAD_ATOMIC_PAIR, "self.ghost_epoch.load"),
        ),
    ];
    assert_eq!(got, expected, "{findings:?}");
    assert!(
        findings[0].message.contains("`ready`") && findings[0].message.contains("no Acquire load"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("`ghost_epoch`")
            && findings[1].message.contains("no Release store"),
        "{}",
        findings[1].message
    );
}

#[test]
fn lock_order_fixture_reports_one_cycle_with_both_witnesses() {
    let findings = scan_sources(&[spec("crates/fixture_bad/src/lock_order.rs", BAD_LOCK_ORDER)]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "lock-order");
    assert!(
        f.message.contains("`alpha`") && f.message.contains("`beta`"),
        "{}",
        f.message
    );
    assert_eq!(f.chain.len(), 2, "{f:?}");
    assert!(f
        .chain
        .iter()
        .any(|s| s.function.contains("Fixture::forward")));
    assert!(f
        .chain
        .iter()
        .any(|s| s.function.contains("Fixture::backward")));
}

#[test]
fn the_bad_corpus_covers_every_rule() {
    let findings = scan_sources(&all_bad_specs());
    let fired: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    let mut every: BTreeSet<&str> = LEGACY_RULES.iter().copied().collect();
    every.extend(SEMANTIC_RULES);
    assert_eq!(fired, every, "{findings:?}");
    // 4 legacy + 1 root + 1 facade + 1 panic + 1 alloc + 2 atomic + 1 lock.
    assert_eq!(findings.len(), 11, "{findings:?}");
}

#[test]
fn impersonator_fixture_is_clean() {
    let findings = scan_sources(&[spec(
        "crates/fixture_clean/src/impersonators.rs",
        CLEAN_IMPERSONATORS,
    )]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn waiver_fixture_is_clean() {
    let findings = scan_sources(&[spec("crates/fixture_clean/src/waived.rs", CLEAN_WAIVED)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn removing_the_waivers_resurfaces_the_findings() {
    // The waiver fixture is only clean *because* of its waivers: strip the
    // standalone waiver lines and every rule they silenced fires again.
    // This guards against waiver matching degrading into "this file is
    // never scanned".  (The hot-path waiver rides on the offending line
    // itself, so it survives the strip.)
    let stripped: String = CLEAN_WAIVED
        .lines()
        .filter(|l| !l.trim_start().starts_with("// lint: allow("))
        .map(|l| format!("{l}\n"))
        .collect();
    let findings = scan_sources(&[spec("crates/fixture_clean/src/waived.rs", &stripped)]);
    let fired: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    let expected: BTreeSet<&str> = ["panic-free", "unwrap", "atomic-pair", "lock-order"]
        .into_iter()
        .collect();
    assert_eq!(fired, expected, "{findings:?}");
}
