//! Lock-order cycle detection.
//!
//! Builds the workspace lock-acquisition-order graph: an edge `a → b` means
//! some function acquires lock `b` (directly, or transitively through a
//! call) while still holding a guard on lock `a`.  A cycle in that graph is
//! a deadlock recipe — two threads can interleave the cyclic acquisitions
//! and block each other forever — so cycles are denied.
//!
//! Guard lifetimes come from the parser: a `let`-bound guard (or a
//! condition temporary in `if let`/`while let`/`match` heads) is held to the
//! end of its block, a plain temporary to the end of its statement.  Locks
//! are keyed by receiver field name workspace-wide, the same convention the
//! atomic pairing analysis uses.  Same-field nesting is *not* reported:
//! `slots[i]` vs `slots[j]` are different locks behind one name, and the
//! checker cannot tell reentrancy from disjoint instances.
//!
//! Waiver: `// lint: allow(lock-order): reason` on the inner acquisition
//! (or the call that performs it) removes that edge.

use crate::callgraph::{CallGraph, ChainStep};
use crate::syntax::{Event, SourceFile};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One ordered-acquisition edge with its witness site.
struct OrderEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    holder: String,
    via: Option<String>,
}

/// Runs the analysis over the parsed workspace.
pub fn run(files: &[SourceFile], library: &[bool], graph: &CallGraph) -> Vec<Finding> {
    let n = graph.ids().count();

    // Which locks each function acquires, directly then transitively.
    let mut trans: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for id in graph.ids() {
        let node = graph.node(id);
        if !library[node.file] {
            continue;
        }
        let file = &files[node.file];
        for event in &file.functions[node.def].events {
            if let Event::Lock(l) = event {
                trans[id].insert(l.field.clone());
            }
        }
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            for edge in graph.edges(id) {
                let add: Vec<String> = trans[edge.callee]
                    .iter()
                    .filter(|f| !trans[id].contains(*f))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    trans[id].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Ordered edges: lock B (or call something that locks B) while a guard
    // on lock A is live.
    let mut edges: BTreeMap<(String, String), OrderEdge> = BTreeMap::new();
    let mut add_edge = |e: OrderEdge| {
        edges.entry((e.from.clone(), e.to.clone())).or_insert(e);
    };
    for id in graph.ids() {
        let node = graph.node(id);
        if !library[node.file] {
            continue;
        }
        let file = &files[node.file];
        let def = &file.functions[node.def];
        for event in &def.events {
            let Event::Lock(held) = event else { continue };
            for later in &def.events {
                match later {
                    Event::Lock(inner)
                        if inner.cidx > held.cidx
                            && inner.cidx <= held.scope_end
                            && inner.field != held.field =>
                    {
                        if file.justified(inner.line as usize - 1, "lint: allow(lock-order):") {
                            continue;
                        }
                        add_edge(OrderEdge {
                            from: held.field.clone(),
                            to: inner.field.clone(),
                            file: file.rel.clone(),
                            line: inner.line,
                            holder: def.qual.clone(),
                            via: None,
                        });
                    }
                    Event::Call(call) if call.cidx > held.cidx && call.cidx <= held.scope_end => {
                        if file.justified(call.line as usize - 1, "lint: allow(lock-order):") {
                            continue;
                        }
                        for ge in graph.edges(id).iter().filter(|ge| ge.cidx == call.cidx) {
                            let callee_qual = {
                                let cn = graph.node(ge.callee);
                                files[cn.file].functions[cn.def].qual.clone()
                            };
                            for field in &trans[ge.callee] {
                                if *field == held.field {
                                    continue;
                                }
                                add_edge(OrderEdge {
                                    from: held.field.clone(),
                                    to: field.clone(),
                                    file: file.rel.clone(),
                                    line: call.line,
                                    holder: def.qual.clone(),
                                    via: Some(callee_qual.clone()),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Cycle detection: fields in the same strongly connected component of
    // the order graph (mutual reachability — the graphs here are tiny).
    let fields: Vec<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let fidx: BTreeMap<&str, usize> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_str(), i))
        .collect();
    let mut succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fields.len()];
    for (a, b) in edges.keys() {
        succ[fidx[a.as_str()]].insert(fidx[b.as_str()]);
    }
    let reaches = |from: usize, to: usize| -> bool {
        let mut seen = vec![false; fields.len()];
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for &y in &succ[x] {
                if y == to {
                    return true;
                }
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        false
    };
    let mut findings = Vec::new();
    let mut grouped = vec![false; fields.len()];
    for i in 0..fields.len() {
        if grouped[i] {
            continue;
        }
        let scc: Vec<usize> = (i..fields.len())
            .filter(|&j| (i == j || (reaches(i, j) && reaches(j, i))) && !grouped[j])
            .collect();
        if scc.len() < 2 {
            // Singleton with no self-edge (same-field nesting is skipped
            // above): not a cycle.
            continue;
        }
        for &j in &scc {
            grouped[j] = true;
        }
        let names: Vec<&str> = scc.iter().map(|&j| fields[j].as_str()).collect();
        let witness: Vec<&OrderEdge> = edges
            .iter()
            .filter(|((a, b), _)| names.contains(&a.as_str()) && names.contains(&b.as_str()))
            .map(|(_, e)| e)
            .collect();
        let Some(first) = witness.first() else {
            continue;
        };
        let chain: Vec<ChainStep> = witness
            .iter()
            .map(|e| ChainStep {
                file: e.file.clone(),
                line: e.line,
                function: match &e.via {
                    Some(callee) => format!(
                        "{}: holds `{}` while acquiring `{}` (via call to `{callee}`)",
                        e.holder, e.from, e.to
                    ),
                    None => format!(
                        "{}: holds `{}` while acquiring `{}`",
                        e.holder, e.from, e.to
                    ),
                },
            })
            .collect();
        findings.push(Finding {
            file: first.file.clone(),
            line: first.line as usize,
            rule: "lock-order",
            message: format!(
                "lock-order cycle among {}: these locks are acquired in \
                 conflicting orders and can deadlock",
                names
                    .iter()
                    .map(|f| format!("`{f}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            chain,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run_on(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/a/src/lib.rs", src)];
        let graph = CallGraph::build(&files, |_| true);
        run(&files, &[true], &graph)
    }

    #[test]
    fn conflicting_direct_orders_are_a_cycle() {
        let findings = run_on(
            "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn ba(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "lock-order");
        assert!(f.message.contains("`alpha`") && f.message.contains("`beta`"));
        assert_eq!(f.chain.len(), 2);
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = run_on(
            "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn ab2(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cycles_through_calls_are_detected() {
        let findings = run_on(
            "fn outer(&self) {\n    let a = self.alpha.lock();\n    Self::helper(self);\n}\n\
             fn helper(&self) {\n    let b = self.beta.lock();\n}\n\
             fn reversed(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .chain
            .iter()
            .any(|s| s.function.contains("via call to `helper`")));
    }

    #[test]
    fn statement_scoped_temporaries_do_not_hold_across_statements() {
        let findings = run_on(
            "fn ab(&self) {\n    self.alpha.lock().touch();\n    self.beta.lock().touch();\n}\n\
             fn ba(&self) {\n    self.beta.lock().touch();\n    self.alpha.lock().touch();\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn waived_inner_acquisitions_drop_the_edge() {
        let findings = run_on(
            "fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn ba(&self) {\n    let b = self.beta.lock();\n    \
             // lint: allow(lock-order): beta guard is read-only re-check, never blocks\n    \
             let a = self.alpha.lock();\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
