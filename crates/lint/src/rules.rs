//! The five legacy rules, ported from the line-regex scanner onto the token
//! stream.  Messages, waiver syntax, and scoping are unchanged — only the
//! matching is token-accurate, which eliminates the false-positive class
//! where string literals, doc comments, and `#[doc]` attributes could
//! impersonate code.

use crate::analyses::banned_at;
use crate::lexer::TokenKind;
use crate::syntax::SourceFile;
use crate::{FileKind, Finding};
use std::collections::HashSet;

/// The files required to take every concurrency primitive through the
/// `dla_sync` facade (`dla_model::sync`) instead of `std::sync`, so the
/// model checker sees the real serving code under `--cfg interleave`.
pub const FACADE_FILES: [&str; 3] = [
    "crates/predict/src/fleet.rs",
    "crates/predict/src/health.rs",
    "crates/predict/src/service.rs",
];

fn push(findings: &mut Vec<Finding>, rel: &str, line: u32, rule: &'static str, message: String) {
    findings.push(Finding {
        file: rel.to_string(),
        line: line as usize,
        rule,
        message,
        chain: vec![],
    });
}

/// Runs the line-level legacy rules over one parsed file.
pub fn scan_file(file: &SourceFile, kind: FileKind, findings: &mut Vec<Finding>) {
    let rel = file.rel.as_str();
    let facade = FACADE_FILES.contains(&rel);
    let library = kind == FileKind::Library;

    for issue in &file.marker_issues {
        push(findings, rel, issue.line, "hot-path", issue.message.clone());
    }

    let cp = |ci: usize, ch: char| {
        file.code
            .get(ci)
            .is_some_and(|&ti| file.tokens[ti].is_punct(ch))
    };
    let ctext = |ci: usize| -> &str {
        file.code
            .get(ci)
            .map(|&ti| file.tokens[ti].text.as_str())
            .unwrap_or("")
    };
    let cident = |ci: usize| -> bool {
        file.code
            .get(ci)
            .is_some_and(|&ti| file.tokens[ti].kind == TokenKind::Ident)
    };

    // One finding per (line, construct), matching the old per-line scan.
    let mut hot_seen: HashSet<(u32, &'static str)> = HashSet::new();
    let mut ordering_seen: HashSet<u32> = HashSet::new();
    let mut unwrap_seen: HashSet<u32> = HashSet::new();
    let mut facade_seen: HashSet<u32> = HashSet::new();

    for ci in 0..file.code.len() {
        let t = file.ct(ci);
        let line = t.line;
        let idx0 = line as usize - 1;

        // hot-path: banned constructs inside marked regions (vendored code
        // included — a region is a region wherever it is).
        if file.line_in_hot_region(line)
            && !file
                .lines
                .get(idx0)
                .is_some_and(|l| l.contains("lint: allow(hot-path):"))
        {
            if let Some((label, why)) = banned_at(file, ci) {
                if hot_seen.insert((line, label)) {
                    push(
                        findings,
                        rel,
                        line,
                        "hot-path",
                        format!("`{label}` in a hot-path region: {why}"),
                    );
                }
            }
        }

        if t.kind != TokenKind::Ident {
            continue;
        }
        let in_test = file.line_in_test(line);

        if library && !in_test {
            // ordering: every atomic ordering choice needs a written-down
            // why.  Matching `…Ordering::<atomic variant>` keeps
            // `std::cmp::Ordering::Less` out of scope and still covers
            // `AtomicOrdering` renames.
            if t.text.ends_with("Ordering")
                && cp(ci + 1, ':')
                && cp(ci + 2, ':')
                && matches!(
                    ctext(ci + 3),
                    "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                )
                && !file.justified(idx0, "// ordering:")
                && ordering_seen.insert(line)
            {
                push(
                    findings,
                    rel,
                    line,
                    "ordering",
                    "atomic Ordering without a `// ordering:` justification".to_string(),
                );
            }

            // unwrap: library code must handle or waive, never assume.
            let after_dot = ci > 0 && cp(ci - 1, '.');
            let is_unwrap = t.text == "unwrap" && cp(ci + 1, '(') && cp(ci + 2, ')');
            let is_expect = t.text == "expect" && cp(ci + 1, '(');
            if after_dot
                && (is_unwrap || is_expect)
                && !file.justified(idx0, "lint: allow(unwrap):")
                && unwrap_seen.insert(line)
            {
                push(
                    findings,
                    rel,
                    line,
                    "unwrap",
                    "unwrap/expect in library code (waive with `// lint: allow(unwrap): why`)"
                        .to_string(),
                );
            }
        }

        // sync-facade: the model-checked files take primitives through
        // `dla_sync` only (tests inside those files may use std directly).
        if facade
            && !in_test
            && t.text == "std"
            && cp(ci + 1, ':')
            && cp(ci + 2, ':')
            && ctext(ci + 3) == "sync"
            && cident(ci + 3)
            && facade_seen.insert(line)
        {
            push(
                findings,
                rel,
                line,
                "sync-facade",
                "direct std::sync use in a dla_sync-routed file".to_string(),
            );
        }
    }
}

/// The crate-root unsafe audit: `#![forbid(unsafe_code)]`, or a documented
/// lint level + waiver explaining why forbidding is impossible.  Stays
/// string-based on purpose — the attribute must appear verbatim at the top
/// of the root, and a root that hides it in a string is lying to the reader
/// anyway.
pub fn scan_crate_root(rel: &str, content: &str, findings: &mut Vec<Finding>) {
    if content.contains("#![forbid(unsafe_code)]") {
        return;
    }
    if content.contains("lint: allow(unsafe-crate):") {
        // The waiver must still pin down a lint level: a crate that cannot
        // forbid must at least deny, scoping its `unsafe` to allow-listed
        // modules.
        if content.contains("#![deny(unsafe_code)]") {
            return;
        }
        push(
            findings,
            rel,
            1,
            "unsafe-crate",
            "unsafe-crate waiver without `#![deny(unsafe_code)]`".to_string(),
        );
        return;
    }
    push(
        findings,
        rel,
        1,
        "unsafe-crate",
        "crate root lacks `#![forbid(unsafe_code)]` (waive with `// lint: allow(unsafe-crate): why` plus `#![deny(unsafe_code)]`)"
            .to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    fn scan(rel: &str, content: &str) -> Vec<Finding> {
        let file = SourceFile::parse(rel, content);
        let mut findings = Vec::new();
        scan_file(&file, classify(rel), &mut findings);
        findings
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hot_path_rule_fires_on_each_banned_construct() {
        let fixture = r#"
fn eval() {
    // lint: hot-path begin
    let v = vec![1.0];
    let s = format!("{v:?}");
    let p = x.powi(3);
    let c = coeffs.clone();
    // lint: hot-path end
}
"#;
        let findings = scan("crates/model/src/eval.rs", fixture);
        assert_eq!(findings.len(), 4, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "hot-path"));
    }

    #[test]
    fn hot_path_rule_is_silent_outside_regions_and_on_waived_lines() {
        let fixture = r#"
fn build() {
    let v = vec![1.0]; // fine: not a hot-path region
    // lint: hot-path begin
    let w = scratch.to_vec(); // lint: allow(hot-path): one-time setup
    let y = horner(x);
    // lint: hot-path end
}
"#;
        assert!(scan("crates/model/src/eval.rs", fixture).is_empty());
    }

    #[test]
    fn hot_path_rule_reports_unbalanced_markers() {
        let unclosed = "// lint: hot-path begin\nfn f() {}\n";
        assert_eq!(rules(&scan("a.rs", unclosed)), ["hot-path"]);
        let unopened = "fn f() {}\n// lint: hot-path end\n";
        assert_eq!(rules(&scan("a.rs", unopened)), ["hot-path"]);
    }

    #[test]
    fn ordering_rule_requires_a_justification() {
        let bare = r#"
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
        assert_eq!(rules(&scan("crates/x/src/a.rs", bare)), ["ordering"]);

        let same_line = r#"
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed - standalone stat
}
"#;
        assert!(scan("crates/x/src/a.rs", same_line).is_empty());

        let preceding = r#"
fn bump(c: &AtomicU64) {
    // ordering: Relaxed - standalone statistic, nothing published through it
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
        assert!(scan("crates/x/src/a.rs", preceding).is_empty());
    }

    #[test]
    fn ordering_rule_sees_through_multiline_calls() {
        let continued = r#"
fn bump(c: &AtomicU64) {
    // ordering: Relaxed on both halves - lossy by design
    c.store(
        c.load(Ordering::Relaxed) + 1,
        Ordering::Relaxed,
    );
}
"#;
        assert!(scan("crates/x/src/a.rs", continued).is_empty());
    }

    #[test]
    fn ordering_rule_skips_tests_and_cmp_ordering() {
        let fixture = r#"
fn compare(a: u32, b: u32) -> bool {
    a.cmp(&b) == std::cmp::Ordering::Less // not an atomic ordering
}

#[cfg(test)]
mod tests {
    #[test]
    fn atomics_in_tests_are_free() {
        c.fetch_add(1, Ordering::SeqCst);
    }
}
"#;
        assert!(scan("crates/x/src/a.rs", fixture).is_empty());
    }

    #[test]
    fn ordering_rule_covers_renamed_ordering_imports() {
        let renamed = r#"
fn bump(c: &AtomicU64) {
    c.fetch_add(1, AtomicOrdering::Relaxed);
}
"#;
        assert_eq!(rules(&scan("crates/x/src/a.rs", renamed)), ["ordering"]);
    }

    #[test]
    fn unwrap_rule_fires_in_library_code_only() {
        let fixture = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(rules(&scan("crates/x/src/a.rs", fixture)), ["unwrap"]);
        // Bins, tests directories and #[cfg(test)] regions are exempt.
        assert!(scan("crates/x/src/main.rs", fixture).is_empty());
        assert!(scan("crates/x/tests/a.rs", fixture).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{fixture}}}\n");
        assert!(scan("crates/x/src/a.rs", &in_test_mod).is_empty());
        // unwrap_or_else is not unwrap.
        let recovered = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or_else(|| 0)\n}\n";
        assert!(scan("crates/x/src/a.rs", recovered).is_empty());
    }

    #[test]
    fn unwrap_rule_accepts_reasoned_waivers() {
        let waived = "fn f(x: Option<u32>) -> u32 {\n    \
                      // lint: allow(unwrap): x is Some by construction above\n    \
                      x.unwrap()\n}\n";
        assert!(scan("crates/x/src/a.rs", waived).is_empty());
        let expect = "fn f(x: Option<u32>) -> u32 {\n    \
                      x.expect(\"always present\") // lint: allow(unwrap): invariant\n}\n";
        assert!(scan("crates/x/src/a.rs", expect).is_empty());
    }

    #[test]
    fn sync_facade_rule_guards_the_model_checked_files() {
        let offending = "use std::sync::RwLock;\nfn f() {}\n";
        assert_eq!(
            rules(&scan("crates/predict/src/service.rs", offending)),
            ["sync-facade"]
        );
        assert_eq!(
            rules(&scan("crates/predict/src/health.rs", offending)),
            ["sync-facade"]
        );
        // Other files may use std::sync freely.
        assert!(scan("crates/model/src/repo.rs", offending).is_empty());
        // And tests inside a facade file may too.
        let in_tests = "#[cfg(test)]\nmod tests {\n    use std::sync::Barrier;\n}\n";
        assert!(scan("crates/predict/src/service.rs", in_tests).is_empty());
    }

    #[test]
    fn unsafe_crate_rule_requires_forbid_or_documented_exception() {
        let mut findings = Vec::new();
        scan_crate_root(
            "crates/x/src/lib.rs",
            "//! Docs.\npub fn f() {}\n",
            &mut findings,
        );
        assert_eq!(rules(&findings), ["unsafe-crate"]);

        let mut findings = Vec::new();
        scan_crate_root(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n",
            &mut findings,
        );
        assert!(findings.is_empty());

        // A waiver alone is not enough: the crate must still deny by default.
        let mut findings = Vec::new();
        scan_crate_root(
            "crates/x/src/lib.rs",
            "// lint: allow(unsafe-crate): raw-pointer views\n",
            &mut findings,
        );
        assert_eq!(rules(&findings), ["unsafe-crate"]);

        let mut findings = Vec::new();
        scan_crate_root(
            "crates/x/src/lib.rs",
            "// lint: allow(unsafe-crate): raw-pointer views\n#![deny(unsafe_code)]\n",
            &mut findings,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn string_literals_cannot_impersonate_code() {
        // The false-positive class the token port eliminates: trigger text
        // inside string literals, doc comments, and #[doc] attributes.
        let fixture = r##"
//! Doc prose about Ordering::Relaxed and .unwrap() and vec![...] is inert.

/// So is item-doc prose: call `.expect("...")` and `Vec::new` carefully.
#[doc = "and #[doc] strings with Ordering::SeqCst or .unwrap() too"]
fn messages() -> &'static str {
    let a = "Ordering::Relaxed in a string is data, not an atomic op";
    let b = "calling .unwrap() here would panic, says the error text";
    let c = r#"raw strings with vec![Box::new] and format! stay data"#;
    a
}
"##;
        assert!(scan("crates/x/src/a.rs", fixture).is_empty());
    }

    #[test]
    fn strings_inside_hot_regions_cannot_trigger_the_alloc_ban() {
        let fixture = r#"
fn eval() {
    // lint: hot-path begin
    let why = "Vec::new and format! in an error string are fine";
    emit(why);
    // lint: hot-path end
}
"#;
        assert!(scan("crates/model/src/eval.rs", fixture).is_empty());
    }
}
