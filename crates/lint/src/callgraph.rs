//! The workspace-wide call graph the semantic analyses walk.
//!
//! Resolution is name-based — no type inference, no trait dispatch — with a
//! locality preference that keeps the over-approximation useful: a call to
//! `name` resolves to the workspace functions called `name`, preferring
//! definitions in the **same file**, then the **same crate**, then anywhere
//! in the workspace.  Calls qualified as `Type::name` prefer definitions
//! whose impl context matches `Type` within the chosen locality tier.
//! Unresolved names (std, vendored deps) have no outgoing semantics of
//! their own; the analyses classify them directly from their denylists
//! instead.
//!
//! The graph reports *call chains*: for every function reachable from an
//! entry point, a shortest witness path entry → … → function with the call
//! site lines, so a finding deep in a callee explains how the hot path
//! reaches it.

use crate::syntax::{Event, FnDef, SourceFile};
use std::collections::{HashMap, VecDeque};

/// Index of a function node in the graph.
pub type FnId = usize;

/// One function node: which file and [`FnDef`] it came from.
#[derive(Debug, Clone, Copy)]
pub struct FnNode {
    /// Index into the file list the graph was built over.
    pub file: usize,
    /// Index into that file's `functions`.
    pub def: usize,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// The callee.
    pub callee: FnId,
    /// 1-indexed line of the call site in the caller's file.
    pub line: u32,
    /// Code-token position of the call site (matches
    /// [`CallEvent::cidx`](crate::syntax::CallEvent::cidx)).
    pub cidx: usize,
}

/// One step of a reported call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// Workspace-relative file of the function.
    pub file: String,
    /// 1-indexed line: the call site within this function that takes the
    /// chain to the next step (or the function's own line for the last
    /// step).
    pub line: u32,
    /// Qualified function name (`Type::name`).
    pub function: String,
}

/// The workspace call graph over a set of parsed files.
pub struct CallGraph {
    nodes: Vec<FnNode>,
    edges: Vec<Vec<CallEdge>>,
}

/// The crate a workspace-relative path belongs to (`crates/model`,
/// `vendor/rand`, or `src` for the root facade).
fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some(a @ ("crates" | "vendor")), Some(b)) => format!("{a}/{b}"),
        (Some(a), _) => a.to_string(),
        _ => String::new(),
    }
}

impl CallGraph {
    /// Builds the graph over `files`, restricted to the files for which
    /// `include` returns true (library code — not tests, binaries, or
    /// vendored crates).  Test-gated functions neither resolve as callees
    /// nor call anything (the analyses are about library code).
    pub fn build(files: &[SourceFile], include: impl Fn(usize) -> bool) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            if !include(fi) {
                continue;
            }
            for (di, def) in file.functions.iter().enumerate() {
                if def.in_test {
                    continue;
                }
                let id = nodes.len();
                nodes.push(FnNode { file: fi, def: di });
                by_name.entry(def.name.as_str()).or_default().push(id);
            }
        }

        let crate_keys: Vec<String> = files.iter().map(|f| crate_key(&f.rel)).collect();
        let mut edges = vec![Vec::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let def = &files[node.file].functions[node.def];
            for event in &def.events {
                let Event::Call(call) = event else { continue };
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // Shape filter: a `.name(…)` method call can only dispatch
                // to an associated function with a `self` receiver (so
                // neither `ptr.add(i)` nor an iterator's `.all(…)` resolves
                // to a workspace `fn add` / associated `fn all()`); a bare
                // unqualified `name(…)` call can only be a free function in
                // scope.  A call whose argument count is certain can only
                // reach a function taking that many (a `Type::name(recv, …)`
                // call passes the receiver as its first argument), so a
                // slice's `.get(i)` does not resolve to a 3-parameter `get`.
                let candidates: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let cd = &files[nodes[c].file].functions[nodes[c].def];
                        let associated = cd.qual.contains("::");
                        let shape = if call.method {
                            associated && cd.has_self
                        } else if call.qualifier.is_none() {
                            !associated
                        } else {
                            true
                        };
                        let receiver = usize::from(cd.has_self && !call.method);
                        shape && call.args.is_none_or(|args| args == cd.params + receiver)
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                // Locality preference: same file, else same crate, else the
                // whole workspace.
                let same_file: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| nodes[c].file == node.file)
                    .collect();
                let chosen: Vec<FnId> = if !same_file.is_empty() {
                    same_file
                } else {
                    let same_crate: Vec<FnId> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| crate_keys[nodes[c].file] == crate_keys[node.file])
                        .collect();
                    if !same_crate.is_empty() {
                        same_crate
                    } else {
                        candidates.clone()
                    }
                };
                // Within the tier, a `Type::name` qualifier narrows to
                // matching impl contexts when any match.
                let narrowed: Vec<FnId> = match &call.qualifier {
                    Some(q) => {
                        let matching: Vec<FnId> = chosen
                            .iter()
                            .copied()
                            .filter(|&c| {
                                let cd = &files[nodes[c].file].functions[nodes[c].def];
                                cd.qual.rsplit_once("::").is_some_and(|(ty, _)| ty == q)
                            })
                            .collect();
                        if matching.is_empty() {
                            chosen
                        } else {
                            matching
                        }
                    }
                    None => chosen,
                };
                for callee in narrowed {
                    if callee != id {
                        edges[id].push(CallEdge {
                            callee,
                            line: call.line,
                            cidx: call.cidx,
                        });
                    }
                }
            }
        }
        CallGraph { nodes, edges }
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = FnId> + '_ {
        0..self.nodes.len()
    }

    /// The node's file/def indices.
    pub fn node(&self, id: FnId) -> FnNode {
        self.nodes[id]
    }

    /// The node for a given (file index, def index), if in the graph.
    pub fn id_of(&self, file: usize, def: usize) -> Option<FnId> {
        self.nodes
            .iter()
            .position(|n| n.file == file && n.def == def)
    }

    /// Outgoing resolved edges of `id`.
    pub fn edges(&self, id: FnId) -> &[CallEdge] {
        &self.edges[id]
    }

    /// BFS from `entries`, skipping functions for which `trusted` returns
    /// true (their bodies are vouched for by a function-level waiver).
    /// Returns, for every reached node, the id of the (parent, call line)
    /// that first reached it — enough to rebuild shortest chains.
    pub fn reach(
        &self,
        entries: &[FnId],
        trusted: impl Fn(FnId) -> bool,
    ) -> HashMap<FnId, Option<(FnId, u32)>> {
        let mut parent: HashMap<FnId, Option<(FnId, u32)>> = HashMap::new();
        let mut queue = VecDeque::new();
        for &e in entries {
            if trusted(e) || parent.contains_key(&e) {
                continue;
            }
            parent.insert(e, None);
            queue.push_back(e);
        }
        while let Some(id) = queue.pop_front() {
            for edge in &self.edges[id] {
                if trusted(edge.callee) || parent.contains_key(&edge.callee) {
                    continue;
                }
                parent.insert(edge.callee, Some((id, edge.line)));
                queue.push_back(edge.callee);
            }
        }
        parent
    }

    /// Rebuilds the entry → `id` witness chain from a [`CallGraph::reach`]
    /// parent map.
    pub fn chain(
        &self,
        files: &[SourceFile],
        parents: &HashMap<FnId, Option<(FnId, u32)>>,
        id: FnId,
    ) -> Vec<ChainStep> {
        let step = |id: FnId, line: u32| {
            let node = self.nodes[id];
            let def: &FnDef = &files[node.file].functions[node.def];
            ChainStep {
                file: files[node.file].rel.clone(),
                line,
                function: def.qual.clone(),
            }
        };
        // The last step points at the function itself; every earlier step
        // points at the call site (in its own file) that descends the chain.
        let mut steps = Vec::new();
        let mut cursor = id;
        let mut visited = std::collections::HashSet::new();
        {
            let node = self.nodes[cursor];
            let line = files[node.file].functions[node.def].line;
            steps.push(step(cursor, line));
            visited.insert(cursor);
        }
        while let Some(Some((p, line))) = parents.get(&cursor) {
            if !visited.insert(*p) {
                // Defensive: a malformed parent map must not hang the tool.
                break;
            }
            steps.push(step(*p, *line));
            cursor = *p;
        }
        steps.reverse();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::SourceFile;

    fn files(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect()
    }

    fn id_by_name(graph: &CallGraph, files: &[SourceFile], name: &str) -> FnId {
        graph
            .ids()
            .find(|&id| {
                let n = graph.node(id);
                files[n.file].functions[n.def].name == name
            })
            .unwrap_or_else(|| panic!("fn {name} not in graph"))
    }

    #[test]
    fn same_file_definitions_win_over_same_crate() {
        let fs = files(&[
            (
                "crates/a/src/one.rs",
                "fn caller() { helper(); }\nfn helper() { local(); }\nfn local() {}\n",
            ),
            (
                "crates/a/src/two.rs",
                "fn helper() { other(); }\nfn other() {}\n",
            ),
        ]);
        let g = CallGraph::build(&fs, |_| true);
        let caller = id_by_name(&g, &fs, "caller");
        let edges = g.edges(caller);
        assert_eq!(edges.len(), 1);
        let callee = g.node(edges[0].callee);
        assert_eq!(fs[callee.file].rel, "crates/a/src/one.rs");
    }

    #[test]
    fn cross_crate_calls_resolve_when_nothing_local_matches() {
        let fs = files(&[
            ("crates/a/src/lib.rs", "fn caller() { remote(); }\n"),
            ("crates/b/src/lib.rs", "fn remote() {}\n"),
        ]);
        let g = CallGraph::build(&fs, |_| true);
        let caller = id_by_name(&g, &fs, "caller");
        assert_eq!(g.edges(caller).len(), 1);
    }

    #[test]
    fn qualifiers_narrow_among_ambiguous_candidates() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn caller() { Good::build(); }\n\
                 impl Good { fn build() {} }\nimpl Bad { fn build() {} }\n",
        )]);
        let g = CallGraph::build(&fs, |_| true);
        let caller = id_by_name(&g, &fs, "caller");
        let edges = g.edges(caller);
        assert_eq!(edges.len(), 1);
        let callee = g.node(edges[0].callee);
        assert_eq!(fs[callee.file].functions[callee.def].qual, "Good::build");
    }

    #[test]
    fn argument_counts_rule_out_candidates_of_another_arity() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "fn slice_get(xs: &[u32]) { xs.get(0); }\n\
                 fn repo_get(r: &Repo) { r.get(Kind::A, \"m\", (1, 2)); }\n\
                 fn ufcs_get(r: &Repo) { Repo::get(r, Kind::A, \"m\", (1, 2)); }\n\
                 fn closure_get(r: &Repo) { r.get(|a, b| a, b, c); }\n\
                 fn generic_get(r: &Repo) { r.get(x, y.into::<A, B>()); }\n",
            ),
            (
                "crates/a/src/repo.rs",
                "impl Repo {\n    pub fn get(&self, kind: Kind, id: &str, \
                 at: HashMap<(u8, u8), Vec<u32>>) -> Option<&Model> { None }\n}\n",
            ),
        ]);
        let g = CallGraph::build(&fs, |_| true);
        let get = id_by_name(&g, &fs, "get");
        assert_eq!(fs[1].functions[0].params, 3);
        // A one-argument slice `.get(i)` cannot be the 3-parameter `get`.
        assert!(g.edges(id_by_name(&g, &fs, "slice_get")).is_empty());
        // A real 3-argument call still resolves, as method or with the
        // receiver passed first.
        for caller in ["repo_get", "ufcs_get"] {
            let edges = g.edges(id_by_name(&g, &fs, caller));
            assert_eq!(edges.len(), 1, "{caller}");
            assert_eq!(edges[0].callee, get);
        }
        // Closure pipes and `<` leave the count uncertain: kept.
        for caller in ["closure_get", "generic_get"] {
            assert_eq!(g.edges(id_by_name(&g, &fs, caller)).len(), 1, "{caller}");
        }
    }

    #[test]
    fn test_gated_functions_stay_out_of_the_graph() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn caller() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        let g = CallGraph::build(&fs, |_| true);
        let caller = id_by_name(&g, &fs, "caller");
        assert!(g.edges(caller).is_empty());
    }

    #[test]
    fn reach_reports_shortest_chains_and_honors_trust() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\n\
             // lint: allow(panic-free): audited\nfn trusted_leaf() { deep(); }\n",
        )]);
        let g = CallGraph::build(&fs, |_| true);
        let entry = id_by_name(&g, &fs, "entry");
        let deep = id_by_name(&g, &fs, "deep");
        let parents = g.reach(&[entry], |_| false);
        assert!(parents.contains_key(&deep));
        let chain = g.chain(&fs, &parents, deep);
        let names: Vec<&str> = chain.iter().map(|s| s.function.as_str()).collect();
        assert_eq!(names, ["entry", "mid", "deep"]);
        // Trusting `mid` cuts the path.
        let mid = id_by_name(&g, &fs, "mid");
        let parents = g.reach(&[entry], |id| id == mid);
        assert!(!parents.contains_key(&deep));
    }
}
