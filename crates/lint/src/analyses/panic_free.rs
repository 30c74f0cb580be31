//! Panic-freedom reachability.
//!
//! Entry points — functions marked `// lint: panic-free` (the serving-tier
//! query paths) and the call sites inside `// lint: hot-path begin/end`
//! regions — must not transitively reach a panic source: `unwrap`/`expect`,
//! a panicking macro, or indexing without `get`.  Findings carry the full
//! witness call chain from the entry to the offending site.
//!
//! Waivers:
//!
//! * `// lint: allow(panic-free): reason` at a site waives that site;
//! * the same marker in the comment block above a `fn` vouches for the whole
//!   function *and everything it calls* (the analysis does not descend);
//! * `// lint: allow(unwrap): reason` — the long-standing unwrap waiver —
//!   also satisfies this analysis at `unwrap`/`expect` sites, since it
//!   states the same cannot-panic invariant.

use super::{chained_finding, fn_index, panic_sources, region_containers};
use crate::callgraph::{CallGraph, FnId};
use crate::syntax::SourceFile;
use crate::Finding;
use std::collections::{HashMap, HashSet, VecDeque};

/// Runs the analysis over the parsed workspace.
pub fn run(files: &[SourceFile], library: &[bool], graph: &CallGraph) -> Vec<Finding> {
    let index = fn_index(graph);
    let trusted = |id: FnId| {
        let n = graph.node(id);
        files[n.file].functions[n.def].trusted_panic_free
    };

    // Marked entry points seed a whole-body search; hot-path regions seed
    // the search with the calls made *inside* the region (the containing
    // function's code outside the region is not on the hot path).
    let mut parents: HashMap<FnId, Option<(FnId, u32)>> = HashMap::new();
    let mut queue = VecDeque::new();
    for (fi, file) in files.iter().enumerate() {
        if !library[fi] {
            continue;
        }
        for (di, def) in file.functions.iter().enumerate() {
            if !def.entry_panic_free || def.in_test {
                continue;
            }
            let Some(&id) = index.get(&(fi, di)) else {
                continue;
            };
            if trusted(id) || parents.contains_key(&id) {
                continue;
            }
            parents.insert(id, None);
            queue.push_back(id);
        }
    }
    let regions = region_containers(files, library, &index);
    // Containers anchor chains without being BFS members themselves; they
    // must never be re-inserted as someone's child, or a recursive call back
    // into the container would make the parent map cyclic.
    let anchors: HashSet<FnId> = regions
        .iter()
        .map(|&(container, _, _)| container)
        .filter(|c| !parents.contains_key(c))
        .collect();
    for &(container, begin, end) in &regions {
        // A fn-level waiver vouches for the region's calls too.
        if trusted(container) {
            continue;
        }
        for edge in graph.edges(container) {
            if edge.line <= begin || edge.line >= end {
                continue;
            }
            if trusted(edge.callee)
                || parents.contains_key(&edge.callee)
                || anchors.contains(&edge.callee)
            {
                continue;
            }
            parents.insert(edge.callee, Some((container, edge.line)));
            queue.push_back(edge.callee);
        }
    }
    while let Some(id) = queue.pop_front() {
        for edge in graph.edges(id) {
            if trusted(edge.callee)
                || parents.contains_key(&edge.callee)
                || anchors.contains(&edge.callee)
            {
                continue;
            }
            parents.insert(edge.callee, Some((id, edge.line)));
            queue.push_back(edge.callee);
        }
    }

    let mut findings = Vec::new();
    let mut reported: HashSet<(String, u32, String)> = HashSet::new();

    // Panic sources directly on hot-path region lines (the container itself
    // is not otherwise an entry point).
    for &(container, begin, end) in &regions {
        let node = graph.node(container);
        if trusted(container) {
            continue;
        }
        let file = &files[node.file];
        let def = &file.functions[node.def];
        for source in panic_sources(file, def) {
            if source.line <= begin || source.line >= end {
                continue;
            }
            if !reported.insert((file.rel.clone(), source.line, source.what.clone())) {
                continue;
            }
            findings.push(chained_finding(
                &file.rel,
                source.line,
                "panic-free",
                format!(
                    "`{}` inside a hot-path region in `{}` (hot paths must be panic-free)",
                    source.what, def.qual
                ),
                vec![],
            ));
        }
    }

    // Everything reachable from the entries, chains included.
    let mut reached: Vec<FnId> = parents.keys().copied().collect();
    reached.sort_unstable();
    for id in reached {
        let node = graph.node(id);
        let file = &files[node.file];
        let def = &file.functions[node.def];
        for source in panic_sources(file, def) {
            if !reported.insert((file.rel.clone(), source.line, source.what.clone())) {
                continue;
            }
            let chain = graph.chain(files, &parents, id);
            let entry = chain
                .first()
                .map(|s| s.function.clone())
                .unwrap_or_else(|| def.qual.clone());
            findings.push(chained_finding(
                &file.rel,
                source.line,
                "panic-free",
                format!(
                    "`{}` reachable on the panic-free path from `{entry}`",
                    source.what
                ),
                chain,
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run_on(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        let library = vec![true; files.len()];
        let graph = CallGraph::build(&files, |_| true);
        run(&files, &library, &graph)
    }

    #[test]
    fn marked_entries_report_transitive_unwraps_with_chains() {
        let findings = run_on(&[(
            "crates/a/src/lib.rs",
            "// lint: panic-free\npub fn query() { step(); }\n\
             fn step() { deep(None); }\nfn deep(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "panic-free");
        assert_eq!(f.line, 4);
        let names: Vec<&str> = f.chain.iter().map(|s| s.function.as_str()).collect();
        assert_eq!(names, ["query", "step", "deep"]);
    }

    #[test]
    fn hot_regions_seed_their_call_sites_only() {
        let findings = run_on(&[(
            "crates/a/src/lib.rs",
            "pub fn eval() {\n    setup(None);\n    // lint: hot-path begin\n    kernel();\n    \
             // lint: hot-path end\n}\n\
             fn setup(x: Option<u32>) { x.unwrap(); }\n\
             fn kernel() { inner(); }\nfn inner() { panic!(\"boom\"); }\n",
        )]);
        // setup() is called outside the region: its unwrap is not on the hot
        // path.  kernel() -> inner() -> panic! is.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`panic!`"));
        let names: Vec<&str> = findings[0]
            .chain
            .iter()
            .map(|s| s.function.as_str())
            .collect();
        assert_eq!(names, ["eval", "kernel", "inner"]);
    }

    #[test]
    fn direct_region_indexing_is_reported_and_waivable() {
        let findings = run_on(&[(
            "crates/a/src/lib.rs",
            "pub fn eval(xs: &[f64]) -> f64 {\n    // lint: hot-path begin\n    \
             let a = xs[0];\n    \
             // lint: allow(panic-free): index bounded by construction\n    \
             let b = xs[1];\n    // lint: hot-path end\n    a + b\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("indexing without get"));
    }

    #[test]
    fn fn_level_waivers_cut_the_subtree() {
        let findings = run_on(&[(
            "crates/a/src/lib.rs",
            "// lint: panic-free\npub fn query() { audited(); }\n\
             // lint: allow(panic-free): fixed-degree arrays, verified manually\n\
             fn audited(x: Option<u32>) { helper(x); x.unwrap(); }\n\
             fn helper(y: Option<u32>) { y.unwrap(); }\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unwrap_waivers_satisfy_the_reachability_rule_too() {
        let findings = run_on(&[(
            "crates/a/src/lib.rs",
            "// lint: panic-free\npub fn query(x: Option<u32>) {\n    \
             // lint: allow(unwrap): populated at startup\n    x.unwrap();\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
