//! Lock acquisition tracking: `lock-order` and `blocking-under-lock`.
//!
//! For every non-test function the pass finds lock acquisitions — direct
//! `.lock()` / `.read()` / `.write()` calls and calls to workspace
//! wrapper functions whose return type carries a guard (`fn lock(&self)
//! -> MutexGuard<...>`), the pattern `JobTable` uses —
//! and derives each guard's live range from its `let` binding: to the
//! end of the enclosing block, clipped at an explicit `drop(guard)`.
//! Unbound (temporary) guards die at the end of their statement, and a
//! `let _ =` binding drops immediately.
//!
//! Lock identity is `ImplType::field` for `self.field.lock()` (wrapper
//! calls inherit the wrapped field's identity), a param-type guess for
//! `param.lock()`, and a file-scoped name otherwise. With identities and
//! live ranges in hand:
//!
//! - acquiring `B` while `A` is live records the ordered pair `(A, B)`;
//!   two functions disagreeing on the order of the same pair is a
//!   `lock-order` inversion, reported once with both acquisition paths
//! - acquiring `A` while `A` is live is a double-acquisition
//!   (self-deadlock), reported at the second site
//! - calling into a function that (transitively) acquires `B` while `A`
//!   is live also records `(A, B)`
//! - a blocking call (`sleep`, `join`, `recv`, socket/file I/O) while
//!   any guard is live is `blocking-under-lock`; `Condvar::wait` is
//!   exempt — atomically releasing the guard is its entire point
//!
//! `io::stdout().lock()`-style standard-stream guards are ignored.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallGraph, CallSite, FnId};
use crate::passes::{FileUnit, Finding, FnInfo, Workspace};

/// Method names that acquire a guard when called with no arguments.
const ACQUIRE_NAMES: &[&str] = &["lock", "read", "write", "try_lock"];

/// Blocking vocabulary: a call with one of these names parks the thread
/// or performs I/O. `wait`/`wait_timeout`/`wait_while` (Condvar) are
/// deliberately absent.
const BLOCKING_NAMES: &[&str] = &[
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "read_line",
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Lock identity, e.g. `JobTable::jobs`.
    id: String,
    /// Token index of the acquiring call name and its line.
    tok: usize,
    line: u32,
    /// Token index past which the guard is no longer live.
    end: usize,
}

/// Where an ordered pair `(first, second)` was observed.
#[derive(Debug, Clone)]
struct PairSite {
    func: String,
    file: String,
    first_line: u32,
    second_line: u32,
}

/// Runs both lock passes over the workspace.
pub fn lock_passes(ws: &Workspace, fns: &[FnInfo], graph: &CallGraph) -> Vec<Finding> {
    let ctx = Ctx::new(fns);
    let mut findings = Vec::new();
    let mut pairs: BTreeMap<(String, String), Vec<PairSite>> = BTreeMap::new();

    for f in fns {
        let unit = &ws.files[f.id.0];
        let acqs = ctx.acquisitions(unit, f);
        // Blocking calls and nested acquisitions under each live guard.
        for (ai, a) in acqs.iter().enumerate() {
            for s in &f.sites {
                if s.tok <= a.tok || s.tok > a.end {
                    continue;
                }
                // `join` doubles as `Path::join`; only the no-arg thread
                // form blocks.
                let blocking = BLOCKING_NAMES.contains(&s.name.as_str())
                    && (s.name != "join" || (toks_empty_parens(&ws.files[f.id.0].toks, s.tok)));
                if blocking && !unit.allowed(s.line, "blocking-under-lock") {
                    findings.push(Finding {
                        rule: "blocking-under-lock",
                        file: f.file.clone(),
                        line: s.line,
                        message: format!(
                            "`{}` blocks while the `{}` guard acquired at line {} is live, \
                             in `{}`",
                            s.name,
                            a.id,
                            a.line,
                            f.qual_name()
                        ),
                        path: vec![format!(
                            "{} ({}:{}) acquires `{}`",
                            f.qual_name(),
                            f.file,
                            a.line,
                            a.id
                        )],
                    });
                }
                // Calls into functions that themselves acquire locks.
                for callee in ctx.resolve(f, s) {
                    for inner in ctx.transitive_acquires(callee, graph) {
                        record_pair(&mut pairs, a, &inner, s.line, f);
                    }
                }
            }
            // Directly nested acquisitions.
            for b in acqs.iter().skip(ai + 1) {
                if b.tok > a.tok && b.tok <= a.end {
                    if b.id == a.id {
                        if !unit.allowed(b.line, "lock-order") {
                            findings.push(Finding {
                                rule: "lock-order",
                                file: f.file.clone(),
                                line: b.line,
                                message: format!(
                                    "double acquisition of `{}` in `{}` (first acquired at \
                                     line {}): self-deadlock",
                                    a.id,
                                    f.qual_name(),
                                    a.line
                                ),
                                path: vec![format!(
                                    "{} ({}:{}) acquires `{}` twice",
                                    f.qual_name(),
                                    f.file,
                                    a.line,
                                    a.id
                                )],
                            });
                        }
                    } else {
                        record_pair(&mut pairs, a, &b.id, b.line, f);
                    }
                }
            }
        }
    }

    // Inversions: the same unordered pair acquired in both orders.
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), sites) in &pairs {
        if a >= b {
            continue;
        }
        let Some(rev) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        if !reported.insert((a.clone(), b.clone())) {
            continue;
        }
        let fwd = &sites[0];
        let bwd = &rev[0];
        let unit = unit_of(ws, &fwd.file);
        if unit.is_some_and(|u| u.allowed(fwd.first_line, "lock-order")) {
            continue;
        }
        findings.push(Finding {
            rule: "lock-order",
            file: fwd.file.clone(),
            line: fwd.first_line,
            message: format!(
                "lock-order inversion between `{a}` and `{b}`: acquisition path `{a}` -> \
                 `{b}` in `{}` ({}:{} -> {}), but `{b}` -> `{a}` in `{}` ({}:{} -> {})",
                fwd.func,
                fwd.file,
                fwd.first_line,
                fwd.second_line,
                bwd.func,
                bwd.file,
                bwd.first_line,
                bwd.second_line,
            ),
            path: vec![
                format!(
                    "{} ({}:{}) acquires `{a}` then `{b}` (line {})",
                    fwd.func, fwd.file, fwd.first_line, fwd.second_line
                ),
                format!(
                    "{} ({}:{}) acquires `{b}` then `{a}` (line {})",
                    bwd.func, bwd.file, bwd.first_line, bwd.second_line
                ),
            ],
        });
    }
    findings
}

fn record_pair(
    pairs: &mut BTreeMap<(String, String), Vec<PairSite>>,
    outer: &Acquisition,
    inner: &str,
    inner_line: u32,
    f: &FnInfo,
) {
    if outer.id == inner {
        return;
    }
    pairs
        .entry((outer.id.clone(), inner.to_string()))
        .or_default()
        .push(PairSite {
            func: f.qual_name(),
            file: f.file.clone(),
            first_line: outer.line,
            second_line: inner_line,
        });
}

fn unit_of<'a>(ws: &'a Workspace, rel: &str) -> Option<&'a FileUnit> {
    ws.files.iter().find(|u| u.rel == rel)
}

/// Shared resolution state.
struct Ctx<'a> {
    fns: &'a [FnInfo],
    /// name -> indexes into `fns`.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    by_id: BTreeMap<FnId, usize>,
}

impl<'a> Ctx<'a> {
    fn new(fns: &'a [FnInfo]) -> Ctx<'a> {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_id = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            by_id.insert(f.id, i);
        }
        Ctx {
            fns,
            by_name,
            by_id,
        }
    }

    /// Resolves a call site to workspace functions, the same way the
    /// call graph does but per-site (and without the no-edge filter —
    /// the lock pass wants wrapper calls).
    fn resolve(&self, caller: &FnInfo, s: &CallSite) -> Vec<FnId> {
        if s.is_macro {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(s.name.as_str()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if let Some(q) = &s.qualifier {
            let q = if q == "Self" {
                caller.impl_type.as_deref()
            } else {
                Some(q.as_str())
            };
            for &c in cands {
                if q.is_some() && self.fns[c].impl_type.as_deref() == q {
                    out.push(self.fns[c].id);
                }
            }
        } else if s.is_method {
            let recv: Vec<&str> = s.recv.iter().map(String::as_str).collect();
            match recv.as_slice() {
                // `self.m()`: same impl only.
                ["self"] => {
                    for &c in cands {
                        if self.fns[c].impl_type == caller.impl_type && caller.impl_type.is_some() {
                            out.push(self.fns[c].id);
                        }
                    }
                }
                // `param.m()`: impls of the param's type hints.
                [r] => {
                    let tys: Vec<&str> = caller
                        .hints
                        .iter()
                        .filter(|(n, _)| n == r)
                        .flat_map(|(_, tys)| tys.iter().map(String::as_str))
                        .collect();
                    for &c in cands {
                        if self.fns[c]
                            .impl_type
                            .as_deref()
                            .is_some_and(|t| tys.contains(&t))
                        {
                            out.push(self.fns[c].id);
                        }
                    }
                }
                _ => {}
            }
        } else {
            for &c in cands {
                if self.fns[c].impl_type.is_none() {
                    out.push(self.fns[c].id);
                }
            }
        }
        out
    }

    /// Lock identities a function (transitively) acquires internally.
    fn transitive_acquires(&self, f: FnId, graph: &CallGraph) -> Vec<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![f];
        let mut seen = BTreeSet::new();
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            let Some(&gi) = self.by_id.get(&g) else {
                continue;
            };
            let info = &self.fns[gi];
            for s in &info.sites {
                if let Some(id) = self.direct_acquire_id(info, s) {
                    out.insert(id);
                }
            }
            if let Some(edges) = graph.edges.get(&g) {
                for &(callee, _) in edges {
                    stack.push(callee);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Identity of a *direct* `.lock()`/`.read()`/`.write()` acquisition
    /// at site `s` in `f`, if it is one. (Wrapper calls are not direct.)
    fn direct_acquire_id(&self, f: &FnInfo, s: &CallSite) -> Option<String> {
        if !s.is_method || !ACQUIRE_NAMES.contains(&s.name.as_str()) {
            return None;
        }
        let recv: Vec<&str> = s.recv.iter().map(String::as_str).collect();
        match recv.as_slice() {
            ["self", field] => Some(format!(
                "{}::{field}",
                f.impl_type.as_deref().unwrap_or("?")
            )),
            ["self", rest @ ..] if !rest.is_empty() => Some(format!(
                "{}::{}",
                f.impl_type.as_deref().unwrap_or("?"),
                rest.join(".")
            )),
            // A bare `self.lock()` is a wrapper call, not a field lock —
            // handled by guard-returning-fn resolution instead.
            [r] if *r != ")" && *r != "]" && *r != "self" => {
                if matches!(*r, "stdout" | "stderr" | "stdin") {
                    return None;
                }
                let ty = f
                    .hints
                    .iter()
                    .find(|(n, _)| n == r)
                    .and_then(|(_, tys)| tys.last().cloned());
                match ty {
                    Some(t) => Some(format!("{t}::{r}")),
                    None => Some(format!("{}::{r}", f.file)),
                }
            }
            _ => None,
        }
    }

    /// All acquisitions in `f`, with guard live ranges.
    fn acquisitions(&self, unit: &FileUnit, f: &FnInfo) -> Vec<Acquisition> {
        let toks = &unit.toks;
        let braces = brace_map(toks, f.body);
        let mut out = Vec::new();
        for s in &f.sites {
            // A direct `.lock()`-style call must take no arguments —
            // `io::Read::read(&mut buf)` and friends are not lock
            // acquisitions.
            let direct = self.direct_acquire_id(f, s).filter(|_| {
                toks.get(s.tok + 1).is_some_and(|t| t.is_punct("("))
                    && toks.get(s.tok + 2).is_some_and(|t| t.is_punct(")"))
            });
            let id = match direct {
                Some(id) => Some(id),
                None => {
                    // A call to a guard-returning workspace wrapper.
                    let mut found = None;
                    for callee in self.resolve(f, s) {
                        let ci = self.by_id[&callee];
                        let cf = &self.fns[ci];
                        if cf.returns_guard {
                            found = Some(self.wrapper_identity(cf));
                            break;
                        }
                    }
                    found
                }
            };
            let Some(id) = id else { continue };
            let end = guard_end(toks, f.body, &braces, s.tok);
            let Some(end) = end else { continue }; // `let _ =`: dropped now
            out.push(Acquisition {
                id,
                tok: s.tok,
                line: s.line,
                end,
            });
        }
        out.sort_by_key(|a| a.tok);
        out
    }

    /// The identity a guard-returning wrapper hands to its caller: its
    /// first direct acquisition, or `Type::name` as a fallback.
    fn wrapper_identity(&self, wrapper: &FnInfo) -> String {
        for s in &wrapper.sites {
            if let Some(id) = self.direct_acquire_id(wrapper, s) {
                return id;
            }
        }
        format!(
            "{}::{}",
            wrapper.impl_type.as_deref().unwrap_or("?"),
            wrapper.name
        )
    }
}

/// True when the call whose name is at `tok` takes no arguments.
fn toks_empty_parens(toks: &[crate::lexer::Tok], tok: usize) -> bool {
    toks.get(tok + 1).is_some_and(|t| t.is_punct("("))
        && toks.get(tok + 2).is_some_and(|t| t.is_punct(")"))
}

/// Matching-brace map over the body range: open token index -> close.
fn brace_map(toks: &[crate::lexer::Tok], body: (usize, usize)) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack = Vec::new();
    let end = body.1.min(toks.len().saturating_sub(1));
    for (i, tok) in toks.iter().enumerate().take(end + 1).skip(body.0) {
        if tok.is_punct("{") {
            stack.push(i);
        } else if tok.is_punct("}") {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
            }
        }
    }
    map
}

/// End of the guard acquired at token `acq` (inclusive token index), or
/// `None` when the binding is `let _ =` (dropped immediately).
fn guard_end(
    toks: &[crate::lexer::Tok],
    body: (usize, usize),
    braces: &BTreeMap<usize, usize>,
    acq: usize,
) -> Option<usize> {
    // Statement start: walk back to the nearest `;`, `{` or `}`.
    let mut stmt = acq;
    while stmt > body.0 {
        let t = &toks[stmt - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        stmt -= 1;
    }
    // Binding: `let [mut] NAME =` or `let Ok(NAME) =` / `Some(NAME)`.
    let mut binding: Option<&str> = None;
    let mut j = stmt;
    while j < acq {
        if toks[j].is_ident("let") {
            let mut k = j + 1;
            while k < acq && (toks[k].is_ident("mut") || toks[k].is_ident("ref")) {
                k += 1;
            }
            if k < acq && toks[k].kind == crate::lexer::TokKind::Ident {
                if matches!(toks[k].text.as_str(), "Ok" | "Some")
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                {
                    if toks.get(k + 2).map(|t| t.kind) == Some(crate::lexer::TokKind::Ident) {
                        binding = Some(&toks[k + 2].text);
                    }
                } else {
                    binding = Some(&toks[k].text);
                }
            }
            break;
        }
        j += 1;
    }
    match binding {
        Some("_") => None,
        Some(name) => {
            // Live to the end of the enclosing block, clipped at
            // `drop(name)`.
            let enclosing = braces
                .iter()
                .filter(|&(&o, &c)| o < acq && acq < c)
                .map(|(_, &c)| c)
                .min()
                .unwrap_or(body.1);
            let mut i = acq;
            while i + 3 <= enclosing {
                if toks[i].is_ident("drop")
                    && toks[i + 1].is_punct("(")
                    && toks[i + 2].is_ident(name)
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
                {
                    return Some(i);
                }
                i += 1;
            }
            Some(enclosing)
        }
        None => {
            // Temporary guard: dies at the end of the statement.
            let mut depth = 0i32;
            let mut i = acq;
            while i <= body.1 {
                let t = &toks[i];
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                    if depth < 0 {
                        return Some(i);
                    }
                } else if t.is_punct(";") && depth <= 0 {
                    return Some(i);
                }
                i += 1;
            }
            Some(body.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::passes::{FileUnit, Workspace};

    fn analyze_src(src: &str, rel: &str) -> Vec<Finding> {
        let unit = FileUnit::parse(rel.to_string(), src);
        let ws = Workspace { files: vec![unit] };
        let fns = ws.fn_infos();
        let input: Vec<_> = fns
            .iter()
            .map(|f| (f.id, f.name.clone(), f.impl_type.clone(), f.sites.clone()))
            .collect();
        let graph = CallGraph::build(&input);
        lock_passes(&ws, &fns, &graph)
    }

    const INVERSION: &str = "
        use std::sync::Mutex;
        pub struct Pair { a: Mutex<usize>, b: Mutex<usize> }
        impl Pair {
            pub fn fwd(&self) {
                let ga = self.a.lock();
                let gb = self.b.lock();
                drop(gb);
                drop(ga);
            }
            pub fn bwd(&self) {
                let gb = self.b.lock();
                let ga = self.a.lock();
                drop(ga);
                drop(gb);
            }
        }
    ";

    #[test]
    fn inversion_is_detected_once_with_both_paths() {
        let f = analyze_src(INVERSION, "crates/service/src/x.rs");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].message.contains("inversion"));
        assert!(f[0].message.contains("Pair::a"));
        assert!(f[0].message.contains("Pair::b"));
        assert_eq!(f[0].path.len(), 2, "both acquisition paths reported");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = INVERSION.replace(
            "let gb = self.b.lock();\n                let ga = self.a.lock();",
            "let ga = self.a.lock();\n                let gb = self.b.lock();",
        );
        let f = analyze_src(&src, "crates/service/src/x.rs");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn double_acquisition_is_a_self_deadlock() {
        let src = "
            use std::sync::Mutex;
            pub struct S { m: Mutex<usize> }
            impl S {
                pub fn bad(&self) {
                    let g1 = self.m.lock();
                    let g2 = self.m.lock();
                    drop(g2);
                    drop(g1);
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("double acquisition"));
    }

    #[test]
    fn blocking_call_under_live_guard_is_flagged() {
        let src = "
            use std::sync::Mutex;
            pub struct S { m: Mutex<usize> }
            impl S {
                pub fn bad(&self) {
                    let g = self.m.lock();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    drop(g);
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "blocking-under-lock");
        assert!(f[0].message.contains("S::m"));
    }

    #[test]
    fn drop_releases_the_guard_before_the_blocking_call() {
        let src = "
            use std::sync::Mutex;
            pub struct S { m: Mutex<usize> }
            impl S {
                pub fn ok(&self) {
                    let g = self.m.lock();
                    drop(g);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "
            use std::sync::Mutex;
            pub struct S { m: Mutex<Vec<usize>> }
            impl S {
                pub fn ok(&self) {
                    self.m.lock().unwrap().pop();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        ";
        let f = analyze_src(src, "crates/core/src/x.rs");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn condvar_wait_is_exempt() {
        let src = "
            use std::sync::{Condvar, Mutex};
            pub struct Q { state: Mutex<usize>, cv: Condvar }
            impl Q {
                pub fn pop(&self) {
                    let mut state = self.state.lock();
                    state = self.cv.wait(state);
                    drop(state);
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn wrapper_fn_propagates_the_wrapped_identity() {
        let src = "
            use std::sync::{Mutex, MutexGuard};
            pub struct T { jobs: Mutex<usize>, q: Mutex<usize> }
            impl T {
                fn lock(&self) -> MutexGuard<'_, usize> { self.jobs.lock() }
                pub fn fwd(&self) {
                    let g = self.lock();
                    let h = self.q.lock();
                    drop(h);
                    drop(g);
                }
                pub fn bwd(&self) {
                    let h = self.q.lock();
                    let g = self.lock();
                    drop(g);
                    drop(h);
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("T::jobs"), "{}", f[0].message);
        assert!(f[0].message.contains("T::q"));
    }

    #[test]
    fn calling_a_locking_fn_under_a_guard_records_the_pair() {
        let src = "
            use std::sync::Mutex;
            pub struct T { a: Mutex<usize>, b: Mutex<usize> }
            impl T {
                fn touch_b(&self) { let g = self.b.lock(); drop(g); }
                pub fn fwd(&self) {
                    let g = self.a.lock();
                    self.touch_b();
                    drop(g);
                }
                pub fn bwd(&self) {
                    let g = self.b.lock();
                    let h = self.a.lock();
                    drop(h);
                    drop(g);
                }
            }
        ";
        let f = analyze_src(src, "crates/service/src/x.rs");
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("inversion"));
    }
}
