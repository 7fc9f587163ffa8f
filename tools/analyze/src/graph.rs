//! Workspace-level call graph and reachability.
//!
//! Calls are resolved *by name*, which makes the graph an
//! over-approximation: a method call `x.foo()` edges to every workspace
//! function named `foo` that lives in an impl, and a path call
//! `Type::foo()` edges only to functions in impls of `Type`. Names that
//! collide with ubiquitous std methods (`push`, `clone`, `collect`,
//! `lock`, ...) never create edges at all — otherwise one `Vec::push`
//! would wire the whole workspace together. The result is precise enough
//! for hot-path reachability while remaining dependency-free; the
//! caveats are written up in DESIGN.md §14.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Tok, TokKind};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// `Some("Type")` for `Type::name(...)` path calls.
    pub qualifier: Option<String>,
    /// True for `recv.name(...)` method calls.
    pub is_method: bool,
    /// Receiver chain for method calls, innermost last: `self.jobs.lock()`
    /// -> `["self", "jobs"]`; `stdout().lock()` -> `[")"]` (opaque).
    pub recv: Vec<String>,
    /// Token index of the name, and its line.
    pub tok: usize,
    pub line: u32,
    /// True for `name!(...)` macro invocations.
    pub is_macro: bool,
}

/// Keywords that look like `ident (` in expression position.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "unsafe", "fn",
    "let", "ref", "mut", "break", "continue", "await", "box", "yield", "dyn", "impl", "where",
    "pub", "use", "mod", "struct", "enum", "union", "trait", "type", "const", "static", "extern",
    "crate", "super", "Self", "self",
];

/// Extracts every call site in the token range `[start, end]`.
pub fn call_sites(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || EXPR_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next = toks.get(i + 1);
        let is_macro = next.is_some_and(|t| t.is_punct("!"))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_punct("(") || t.is_punct("[") || t.is_punct("{"));
        if is_macro {
            out.push(CallSite {
                name: t.text.clone(),
                qualifier: None,
                is_method: false,
                recv: Vec::new(),
                tok: i,
                line: t.line,
                is_macro: true,
            });
            continue;
        }
        if !next.is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        match prev {
            Some(p) if p.is_punct(".") => {
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier: None,
                    is_method: true,
                    recv: receiver_chain(toks, i - 1),
                    tok: i,
                    line: t.line,
                    is_macro: false,
                });
            }
            Some(p) if p.is_punct("::") => {
                // Path call: the qualifier is the previous path segment
                // (generics like `Vec::<u8>::new` are not resolved).
                let q = i
                    .checked_sub(2)
                    .map(|j| &toks[j])
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier: q,
                    is_method: false,
                    recv: Vec::new(),
                    tok: i,
                    line: t.line,
                    is_macro: false,
                });
            }
            _ => {
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier: None,
                    is_method: false,
                    recv: Vec::new(),
                    tok: i,
                    line: t.line,
                    is_macro: false,
                });
            }
        }
    }
    out
}

/// Receiver chain of the method call whose `.` is at `dot`: walks back
/// over `ident (. ident)*`, innermost-first in source order. An opaque
/// head (call result, index, ...) is represented by its closing token
/// text, e.g. `[")"]`.
fn receiver_chain(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut chain = VecDeque::new();
    let mut j = dot;
    while let Some(prev) = j.checked_sub(1).map(|k| &toks[k]) {
        if prev.kind == TokKind::Ident {
            chain.push_front(prev.text.clone());
            match j.checked_sub(2).map(|k| &toks[k]) {
                Some(p2) if p2.is_punct(".") => j -= 2,
                _ => break,
            }
        } else {
            chain.push_front(prev.text.clone());
            break;
        }
    }
    chain.into()
}

/// A function's global id: `(file index, fn index within file)`.
pub type FnId = (usize, usize);

/// Per-function call info plus name indexes for resolution.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Resolved workspace edges per function.
    pub edges: BTreeMap<FnId, Vec<(FnId, u32)>>,
    /// All call sites per function (unresolved, for the passes).
    pub sites: BTreeMap<FnId, Vec<CallSite>>,
}

/// Method/free-call names that never create graph edges: std-collection
/// and iterator vocabulary whose workspace homonyms (telemetry
/// `Series::push`, the explorer's byte encoder `push`, cache `get`, ...)
/// would otherwise wire unrelated subsystems into the hot path. Path
/// calls `Type::name(...)` ignore this list — they resolve by type.
const NO_EDGE_NAMES: &[&str] = &[
    // allocation / collection vocabulary
    "new",
    "default",
    "from",
    "into",
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
    "push",
    "push_back",
    "push_front",
    "pop",
    "insert",
    "remove",
    "extend",
    "append",
    "collect",
    "with_capacity",
    "reserve",
    "clear",
    "drain",
    "get",
    "get_mut",
    "set",
    "take",
    "replace",
    // iterator vocabulary
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "fold",
    "any",
    "all",
    "find",
    "position",
    "count",
    "sum",
    "min",
    "max",
    "len",
    "is_empty",
    "first",
    "last",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "flatten",
    "flat_map",
    "copied",
    "skip",
    "windows",
    "chunks",
    "contains",
    "sort",
    "sort_unstable",
    "split",
    "join",
    "unwrap",
    "expect",
    "unwrap_or",
    // getter-style names whose homonyms would wire replay/reporting
    // machinery into the hot path (`Trace::events` the field getter vs
    // `Counterexample::events` the replay driver)
    "events",
    // locking / blocking vocabulary (handled by dedicated passes)
    "lock",
    "try_lock",
    "read",
    "write",
    "recv",
    "recv_timeout",
    "send",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
    "accept",
    "connect",
    "flush",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "sync_all",
];

impl CallGraph {
    /// Builds the graph over `fns`: for each function id, its file path,
    /// name, impl type, and call sites.
    pub fn build(fns: &[(FnId, String, Option<String>, Vec<CallSite>)]) -> CallGraph {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, (_, name, _, _)) in fns.iter().enumerate() {
            by_name.entry(name).or_default().push(idx);
        }
        let mut g = CallGraph::default();
        for (id, _, caller_impl, sites) in fns {
            let mut edges: Vec<(FnId, u32)> = Vec::new();
            for site in sites {
                if site.is_macro {
                    continue;
                }
                let candidates = by_name.get(site.name.as_str());
                let Some(candidates) = candidates else {
                    continue;
                };
                if let Some(q) = &site.qualifier {
                    // `Type::name(...)`: resolve only to impls of `Type`
                    // (`Self::` uses the caller's own impl type).
                    let q = if q == "Self" {
                        caller_impl.as_deref()
                    } else {
                        Some(q.as_str())
                    };
                    for &c in candidates {
                        if q.is_some() && fns[c].2.as_deref() == q {
                            edges.push((fns[c].0, site.line));
                        }
                    }
                } else if NO_EDGE_NAMES.contains(&site.name.as_str()) {
                    continue;
                } else if site.is_method {
                    // `x.name(...)`: any impl'd workspace fn of that name.
                    for &c in candidates {
                        if fns[c].2.is_some() {
                            edges.push((fns[c].0, site.line));
                        }
                    }
                } else {
                    // `name(...)`: free functions only.
                    for &c in candidates {
                        if fns[c].2.is_none() {
                            edges.push((fns[c].0, site.line));
                        }
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            g.edges.insert(*id, edges);
            g.sites.insert(*id, sites.clone());
        }
        g
    }

    /// BFS from `roots`; returns each reachable function mapped to its
    /// predecessor `(caller, call line)` (roots map to `None`).
    pub fn reachable(&self, roots: &[FnId]) -> BTreeMap<FnId, Option<(FnId, u32)>> {
        let mut seen: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            if let Some(edges) = self.edges.get(&f) {
                for &(callee, line) in edges {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(callee) {
                        e.insert(Some((f, line)));
                        queue.push_back(callee);
                    }
                }
            }
        }
        seen
    }

    /// Transitive closure helper: every function reachable from `f`
    /// (excluding `f` itself unless it is in a cycle).
    pub fn reachable_from(&self, f: FnId) -> BTreeSet<FnId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(f);
        while let Some(g) = queue.pop_front() {
            if let Some(edges) = self.edges.get(&g) {
                for &(callee, _) in edges {
                    if seen.insert(callee) {
                        queue.push_back(callee);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn sites_of(src: &str) -> Vec<CallSite> {
        let toks = lex(src).toks;
        let items = extract(&toks);
        let body = items.fns[0].body.unwrap();
        call_sites(&toks, body)
    }

    #[test]
    fn method_path_free_and_macro_calls_are_classified() {
        let src = "fn f() { helper(); self.step(1); Vec::new(); format!(\"x\"); }";
        let s = sites_of(src);
        assert_eq!(s.len(), 4);
        assert!(!s[0].is_method && s[0].qualifier.is_none() && s[0].name == "helper");
        assert!(s[1].is_method && s[1].recv == vec!["self"]);
        assert_eq!(s[2].qualifier.as_deref(), Some("Vec"));
        assert!(s[3].is_macro && s[3].name == "format");
    }

    #[test]
    fn receiver_chains_walk_field_accesses() {
        let s = sites_of("fn f(&self) { self.jobs.lock(); io::stdout().lock(); }");
        assert_eq!(s[0].recv, vec!["self", "jobs"]);
        // stdout() is itself a call site; the .lock() receiver is opaque.
        let lock2 = s.iter().filter(|c| c.name == "lock").nth(1).unwrap();
        assert_eq!(lock2.recv, vec![")"]);
    }

    #[test]
    fn keywords_before_parens_are_not_calls() {
        let s = sites_of("fn f() { if (a || b) && c { return (1); } }");
        assert!(s.is_empty(), "{s:?}");
    }

    fn graph_of(src: &str) -> (Vec<String>, CallGraph, Vec<FnId>) {
        let toks = lex(src).toks;
        let items = extract(&toks);
        let mut fns = Vec::new();
        let mut names = Vec::new();
        for (i, f) in items.fns.iter().enumerate() {
            let sites = f.body.map(|b| call_sites(&toks, b)).unwrap_or_default();
            fns.push(((0usize, i), f.name.clone(), f.impl_type.clone(), sites));
            names.push(f.name.clone());
        }
        let ids: Vec<FnId> = (0..items.fns.len()).map(|i| (0, i)).collect();
        (names, CallGraph::build(&fns), ids)
    }

    #[test]
    fn reachability_follows_call_chains_with_paths() {
        let src = "
            impl Network { fn begin_cycle(&mut self) { self.route_all(); } }
            impl Network { fn route_all(&mut self) { compute(); } }
            fn compute() {}
            fn unrelated() {}
        ";
        let (names, g, ids) = graph_of(src);
        let root = ids[names.iter().position(|n| n == "begin_cycle").unwrap()];
        let reach = g.reachable(&[root]);
        assert_eq!(reach.len(), 3, "{reach:?}");
        let compute = ids[names.iter().position(|n| n == "compute").unwrap()];
        // The predecessor chain reconstructs the call path.
        let (pred, _) = reach[&compute].unwrap();
        assert_eq!(names[pred.1], "route_all");
    }

    #[test]
    fn std_vocabulary_names_do_not_create_edges() {
        let src = "
            impl Hot { fn begin_cycle(&mut self) { self.buf.push(1); v.collect(); } }
            impl Series { fn push(&mut self, x: u8) { self.spill(); } }
            impl Series { fn spill(&mut self) {} }
        ";
        let (names, g, ids) = graph_of(src);
        let root = ids[names.iter().position(|n| n == "begin_cycle").unwrap()];
        let reach = g.reachable(&[root]);
        assert_eq!(reach.len(), 1, "push must not wire Series in: {reach:?}");
    }

    #[test]
    fn path_calls_resolve_by_impl_type_only() {
        let src = "
            fn main_like() { Flit::new(); Router::fresh(); }
            impl Flit { fn new() -> Flit { Flit } }
            impl Router { fn fresh() -> Router { Router } }
            impl Other { fn fresh() -> Other { Other } }
        ";
        let (names, g, ids) = graph_of(src);
        let root = ids[names.iter().position(|n| n == "main_like").unwrap()];
        let reach = g.reachable(&[root]);
        // `Flit::new` resolves (path calls bypass NO_EDGE_NAMES);
        // `Router::fresh` resolves to Router's impl only.
        assert_eq!(reach.len(), 3, "{reach:?}");
        let other = ids[names.iter().position(|n| n == "fresh").unwrap() + 1];
        assert!(!reach.contains_key(&other));
    }
}
