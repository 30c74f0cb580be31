//! `dla-lint`: the workspace's correctness analyzer, gating the serving hot
//! path and the concurrency conventions in CI.
//!
//! A deliberately dependency-free analyzer (no syn, no rustc internals —
//! the container and CI must need nothing but std), built in layers:
//!
//! 1. [`lexer`] — a std-only Rust lexer (raw strings, nested block
//!    comments, char/lifetime disambiguation, doc comments);
//! 2. [`syntax`] — an item/brace-tree parser recovering `fn` items, impl
//!    contexts, calls, indexing, atomic ops, and guard-scoped lock
//!    acquisitions;
//! 3. [`callgraph`] — a workspace-wide, name-resolved call graph with
//!    witness chains;
//! 4. the rules: five line-level legacy rules on the token stream, and four
//!    call-graph-driven semantic analyses in [`analyses`].
//!
//! | rule           | what it denies                                               |
//! |----------------|--------------------------------------------------------------|
//! | `hot-path`     | allocation, `powi`/`powf`, `format!`, `.clone()` inside marked hot-path regions |
//! | `ordering`     | atomic `Ordering::*` uses without a `// ordering:` justification |
//! | `unwrap`       | `.unwrap()` / `.expect(` in library code outside tests/bins   |
//! | `sync-facade`  | direct `std::sync` use in the files routed through `dla_sync` |
//! | `unsafe-crate` | workspace crate roots without `#![forbid(unsafe_code)]`       |
//! | `panic-free`   | panic sources transitively reachable from hot-path regions or `// lint: panic-free` entry points, with call chains |
//! | `alloc-reach`  | banned constructs reachable through calls out of a hot-path region |
//! | `atomic-pair`  | `Release` publishes with no matching `Acquire` observer on the same field (and vice versa) |
//! | `lock-order`   | cycles in the workspace lock-acquisition-order graph          |
//!
//! Waivers are explicit and carry a reason, so every exception is grep-able:
//!
//! * `// lint: allow(hot-path): <reason>` — on the offending line (and, in
//!   the comment block above a `fn`, vouching for it and its callees in the
//!   reachability analysis);
//! * `// lint: allow(unwrap): <reason>` — on the line or the line above
//!   (also satisfies `panic-free` at that site);
//! * `// lint: allow(panic-free): <reason>` — at a site, or above a `fn` to
//!   trust its whole subtree;
//! * `// lint: allow(atomic-pair): <reason>` / `// lint:
//!   allow(lock-order): <reason>` — at the orphan or inner-acquisition
//!   site;
//! * `// lint: allow(unsafe-crate): <reason>` — in the crate root, next to
//!   the lint level that *is* in force (e.g. `#![deny(unsafe_code)]` with
//!   per-module `#[allow]`s).
//!
//! `// lint: panic-free` above a `fn` marks it as a serving entry point the
//! panic-freedom analysis must verify end-to-end.
//!
//! Test code (`tests/`, `benches/`, `examples/`, `#[cfg(test)]` regions) is
//! exempt from everything except hot-path region scanning; binaries
//! (`main.rs`, `src/bin/`) are additionally exempt from `unwrap`.  Vendored
//! crates (`vendor/`) are exempt from everything except the crate-root
//! unsafe audit — they are stand-ins for external dependencies, not owned
//! code, but they still must not smuggle `unsafe` into the build.
//! Everything runs on tokens, so string literals, doc comments, and
//! `#[doc]` attributes can no longer impersonate code (or comments).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyses;
pub mod callgraph;
pub mod lexer;
pub mod report;
mod rules;
pub mod syntax;

use callgraph::{CallGraph, ChainStep};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use syntax::SourceFile;

/// The five token-ported legacy rules.
pub const LEGACY_RULES: [&str; 5] = [
    "hot-path",
    "ordering",
    "unwrap",
    "sync-facade",
    "unsafe-crate",
];

/// The four call-graph-driven semantic analyses.
pub const SEMANTIC_RULES: [&str; 4] = ["panic-free", "alloc-reach", "atomic-pair", "lock-order"];

/// One rule violation at a file/line, with the witness call chain when the
/// rule is reachability-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `hot-path`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Entry → … → offending function, empty for line-local rules.
    pub chain: Vec<ChainStep>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        for (i, step) in self.chain.iter().enumerate() {
            write!(
                f,
                "\n    {}. {} ({}:{})",
                i + 1,
                step.function,
                step.file,
                step.line
            )?;
        }
        Ok(())
    }
}

/// One source file handed to [`scan_sources`]: a workspace-relative path
/// (which determines rule scoping) and its contents.
pub struct SourceSpec {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/model/src/eval.rs`).
    pub rel: String,
    /// The file's full contents.
    pub content: String,
}

/// What kind of source a file is, for rule scoping.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// Library code: all rules apply.
    Library,
    /// Binary targets (`main.rs`, `src/bin/`): `unwrap` exempt.
    Binary,
    /// Integration tests / benches / examples: only hot-path region
    /// scanning applies.
    Test,
}

pub(crate) fn classify(rel: &str) -> FileKind {
    let is_test_tree = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel == "build.rs"
        || rel.ends_with("/build.rs");
    if is_test_tree {
        FileKind::Test
    } else if rel.ends_with("/main.rs") || rel.contains("/src/bin/") {
        FileKind::Binary
    } else {
        FileKind::Library
    }
}

/// Scans a set of sources — every rule, legacy and semantic — and returns
/// the findings sorted by (file, line, rule).  This is the engine under
/// [`scan_workspace`]; the fixture corpus drives it directly.
///
/// Vendored files (`vendor/…`) only receive the crate-root unsafe audit;
/// crate roots are recognized by their `src/lib.rs` suffix.
pub fn scan_sources(specs: &[SourceSpec]) -> Vec<Finding> {
    let mut findings = Vec::new();

    for spec in specs {
        if spec.rel == "src/lib.rs" || spec.rel.ends_with("/src/lib.rs") {
            rules::scan_crate_root(&spec.rel, &spec.content, &mut findings);
        }
    }

    let mut files: Vec<SourceFile> = Vec::new();
    let mut kinds: Vec<FileKind> = Vec::new();
    for spec in specs {
        if spec.rel.starts_with("vendor/") {
            continue;
        }
        files.push(SourceFile::parse(&spec.rel, &spec.content));
        kinds.push(classify(&spec.rel));
    }

    for (file, kind) in files.iter().zip(&kinds) {
        rules::scan_file(file, *kind, &mut findings);
    }

    let library: Vec<bool> = kinds.iter().map(|k| *k == FileKind::Library).collect();
    let graph = CallGraph::build(&files, |i| library[i]);
    findings.extend(analyses::panic_free::run(&files, &library, &graph));
    findings.extend(analyses::alloc_reach::run(&files, &library, &graph));
    findings.extend(analyses::atomics::run(&files, &library));
    findings.extend(analyses::lock_order::run(&files, &library, &graph));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Keeps only the findings matching the `--set` and `--rule` filters.
pub fn filter_findings(
    findings: Vec<Finding>,
    set: Option<&str>,
    rule_filter: &[String],
) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| match set {
            Some("legacy") => LEGACY_RULES.contains(&f.rule),
            Some("semantic") => SEMANTIC_RULES.contains(&f.rule),
            _ => true,
        })
        .filter(|f| rule_filter.is_empty() || rule_filter.iter().any(|r| r == f.rule))
        .collect()
}

/// Workspace member paths, parsed from the root `Cargo.toml` members list
/// (the list is literal paths, no globs).
fn workspace_members(root: &Path) -> Result<Vec<String>, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("Cargo.toml").display()))?;
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("members") && trimmed.contains('[') {
            in_members = true;
            continue;
        }
        if in_members {
            if trimmed.starts_with(']') {
                break;
            }
            if let Some(member) = trimmed.split('"').nth(1) {
                members.push(member.to_string());
            }
        }
    }
    if members.is_empty() {
        return Err("no workspace members found in Cargo.toml".to_string());
    }
    Ok(members)
}

/// Collects the `.rs` files under `dir`, recursively, sorted for
/// deterministic output.  Skips build output and the lint crate's
/// intentionally-dirty fixture corpus.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == "fixtures")
            {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scans the whole workspace rooted at `root` and returns every finding.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let members = workspace_members(root)?;

    // Owned code: every member outside vendor/, plus the root facade crate.
    let mut scan_dirs: Vec<PathBuf> = vec![root.join("src")];
    for member in &members {
        if !member.starts_with("vendor/") {
            scan_dirs.push(root.join(member));
        }
    }
    let mut paths = Vec::new();
    for dir in &scan_dirs {
        rust_files(dir, &mut paths);
    }
    let mut specs = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let content =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        specs.push(SourceSpec { rel, content });
    }

    // Vendored members only contribute their crate root to the unsafe audit.
    for member in members.iter().filter(|m| m.starts_with("vendor/")) {
        let rel = format!("{member}/src/lib.rs");
        let path = root.join(&rel);
        if !path.is_file() {
            continue;
        }
        let content = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        specs.push(SourceSpec { rel, content });
    }

    Ok(scan_sources(&specs))
}

const USAGE: &str = "usage: dla-lint [workspace-root] [--set legacy|semantic|all] \
                     [--rule <name>]... [--format text|json|github]";

/// CLI entry point.  Prints findings in the requested format and exits
/// non-zero when any rule fired after filtering.
pub fn run_cli(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root: Option<String> = None;
    let mut format = "text".to_string();
    let mut set: Option<String> = None;
    let mut rule_filter: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if matches!(f.as_str(), "text" | "json" | "github") => format = f,
                _ => {
                    eprintln!("dla-lint: --format takes text|json|github\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--set" => match args.next() {
                Some(s) if matches!(s.as_str(), "legacy" | "semantic" | "all") => {
                    set = Some(s);
                }
                _ => {
                    eprintln!("dla-lint: --set takes legacy|semantic|all\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--rule" => match args.next() {
                Some(r)
                    if LEGACY_RULES.contains(&r.as_str())
                        || SEMANTIC_RULES.contains(&r.as_str()) =>
                {
                    rule_filter.push(r);
                }
                Some(r) => {
                    eprintln!(
                        "dla-lint: unknown rule `{r}` (known: {} {})",
                        LEGACY_RULES.join(" "),
                        SEMANTIC_RULES.join(" ")
                    );
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("dla-lint: --rule takes a rule name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            _ if arg.starts_with("--") => {
                eprintln!("dla-lint: unknown flag `{arg}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ if root.is_none() => root = Some(arg),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(|| ".".to_string());
    match scan_workspace(Path::new(&root)) {
        Ok(findings) => {
            let findings = filter_findings(findings, set.as_deref(), &rule_filter);
            match format.as_str() {
                "json" => print!("{}", report::to_json(&findings)),
                "github" => {
                    print!("{}", report::to_github(&findings));
                    if findings.is_empty() {
                        println!("dla-lint: clean");
                    } else {
                        println!("dla-lint: {} finding(s)", findings.len());
                    }
                }
                _ => {
                    if findings.is_empty() {
                        println!("dla-lint: clean");
                    } else {
                        for finding in &findings {
                            println!("{finding}");
                        }
                        println!("dla-lint: {} finding(s)", findings.len());
                    }
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("dla-lint: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rel: &str, content: &str) -> SourceSpec {
        SourceSpec {
            rel: rel.to_string(),
            content: content.to_string(),
        }
    }

    #[test]
    fn scan_sources_runs_legacy_and_semantic_rules_together() {
        let findings = scan_sources(&[spec(
            "crates/a/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
                 // lint: panic-free\npub fn query() { helper(None); }\n\
                 pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        // The unwrap fires the line rule AND the reachability analysis.
        assert_eq!(rules, ["panic-free", "unwrap"], "{findings:?}");
        assert_eq!(findings[0].chain.len(), 2);
    }

    #[test]
    fn findings_are_sorted_by_file_line_rule() {
        let findings = scan_sources(&[
            spec(
                "crates/b/src/lib.rs",
                "#![forbid(unsafe_code)]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
            spec(
                "crates/a/src/lib.rs",
                "#![forbid(unsafe_code)]\nfn g(y: Option<u32>) -> u32 { y.unwrap() }\n",
            ),
        ]);
        let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, ["crates/a/src/lib.rs", "crates/b/src/lib.rs"]);
    }

    #[test]
    fn vendored_files_only_get_the_root_audit() {
        let findings = scan_sources(&[
            spec(
                "vendor/fake/src/util.rs",
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
            spec("vendor/fake/src/lib.rs", "//! Vendored.\npub fn f() {}\n"),
        ]);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["unsafe-crate"], "{findings:?}");
        assert_eq!(findings[0].file, "vendor/fake/src/lib.rs");
    }

    #[test]
    fn filtering_by_set_and_rule_partitions_findings() {
        let findings = scan_sources(&[spec(
            "crates/a/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             // lint: panic-free\npub fn query() { helper(None); }\n\
             pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let legacy = filter_findings(findings.clone(), Some("legacy"), &[]);
        assert!(legacy.iter().all(|f| f.rule == "unwrap"));
        let semantic = filter_findings(findings.clone(), Some("semantic"), &[]);
        assert!(semantic.iter().all(|f| f.rule == "panic-free"));
        let by_rule = filter_findings(findings, None, &["panic-free".to_string()]);
        assert_eq!(by_rule.len(), 1);
    }

    #[test]
    fn display_prints_the_chain_as_numbered_steps() {
        let findings = scan_sources(&[spec(
            "crates/a/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             // lint: panic-free\npub fn query() { helper(); }\n\
             fn helper() { panic!(\"nope\"); }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let text = findings[0].to_string();
        assert!(text.contains("[panic-free]"), "{text}");
        assert!(
            text.contains("\n    1. query (crates/a/src/lib.rs:3)"),
            "{text}"
        );
        assert!(
            text.contains("\n    2. helper (crates/a/src/lib.rs:4)"),
            "{text}"
        );
    }
}
