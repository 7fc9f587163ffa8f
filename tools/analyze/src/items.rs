//! Item extraction: functions, impl blocks, modules, and test regions.
//!
//! Walks the token stream once with an explicit scope stack, producing a
//! `FnItem` per function (with signature and body token ranges, enclosing
//! impl type, and test-ness) and the token ranges of `#[cfg(test)]` /
//! `#[test]` items so token-level rules can skip test code. Nested
//! functions are supported; closures are not items (their bodies belong
//! to the enclosing function, which is what the passes want).

use crate::lexer::{Tok, TokKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Type of the enclosing `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the signature (`fn` .. body `{`).
    pub sig: (usize, usize),
    /// Token range `[start, end]` of the body including both braces.
    /// `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` (directly or via an enclosing
    /// scope).
    pub is_test: bool,
    /// Signature's return type mentions a lock guard type — the function
    /// transfers a `Mutex`/`RwLock` acquisition to its caller.
    pub returns_guard: bool,
}

/// Extraction result for one file.
#[derive(Debug, Default)]
pub struct Items {
    pub fns: Vec<FnItem>,
    /// Token ranges `[start, end]` of test-only items (the braces of a
    /// `#[cfg(test)] mod`, a `#[test] fn`, ...).
    pub test_ranges: Vec<(usize, usize)>,
}

impl Items {
    /// True when token index `i` falls inside a test-only item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= i && i <= e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Fn,
    Other, // mod / impl / trait / plain block / struct literal ...
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    test: bool,
    /// Root of a test region: this scope's braces delimit a test range.
    test_root: bool,
    impl_type: Option<String>,
    fn_idx: Option<usize>,
    open_tok: usize,
}

#[derive(Debug)]
enum Pending {
    None,
    Fn {
        name: String,
        line: u32,
        sig_start: usize,
    },
    Impl {
        ty: Option<String>,
    },
    Mod,
}

/// Guard type names whose appearance in a return type marks a function as
/// transferring a lock acquisition to its caller.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Extracts items from one file's token stream.
pub fn extract(toks: &[Tok]) -> Items {
    let mut items = Items::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    let mut pending_test = false;
    let mut i = 0usize;
    let n = toks.len();

    let cur_test = |stack: &[Scope]| stack.last().is_some_and(|s| s.test);
    let cur_impl = |stack: &[Scope]| stack.iter().rev().find_map(|s| s.impl_type.clone());

    while i < n {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            // Attribute: `#[...]` or `#![...]`. Detect test markers.
            (TokKind::Punct, "#") if matches!(toks.get(i + 1), Some(t1) if t1.is_punct("[") || t1.is_punct("!")) =>
            {
                let open = if toks[i + 1].is_punct("!") {
                    i + 2
                } else {
                    i + 1
                };
                if toks.get(open).is_some_and(|t| t.is_punct("[")) {
                    let close = matching_bracket(toks, open);
                    pending_test |= attr_is_test(&toks[open + 1..close]);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "fn") => {
                // `fn name` — the name is the next ident.
                if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    pending = Pending::Fn {
                        name: name_tok.text.clone(),
                        line: t.line,
                        sig_start: i,
                    };
                    i += 2;
                } else {
                    i += 1; // `fn` pointer type `fn(...)`
                }
            }
            (TokKind::Ident, "impl") => {
                // Only item-position impls introduce a type scope; `impl
                // Trait` in a signature never reaches here because it is
                // consumed while `pending` is a Fn (no: it is — guard on
                // pending). Signature `impl` tokens are harmless though:
                // a Pending::Fn stays pending until its `{`.
                if !matches!(pending, Pending::Fn { .. }) {
                    let ty = impl_type_of(toks, i);
                    pending = Pending::Impl { ty };
                }
                i += 1;
            }
            (TokKind::Ident, "trait") => {
                if !matches!(pending, Pending::Fn { .. }) {
                    let ty = toks
                        .get(i + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    pending = Pending::Impl { ty };
                }
                i += 1;
            }
            (TokKind::Ident, "mod") => {
                if !matches!(pending, Pending::Fn { .. }) {
                    pending = Pending::Mod;
                }
                i += 1;
            }
            (TokKind::Punct, ";") => {
                // Bodiless item (trait method decl, `mod x;`, `use ...;`).
                if let Pending::Fn {
                    name,
                    line,
                    sig_start,
                } = pending
                {
                    let sig = (sig_start, i);
                    items.fns.push(FnItem {
                        name,
                        impl_type: cur_impl(&stack),
                        line,
                        sig,
                        body: None,
                        is_test: cur_test(&stack) || pending_test,
                        returns_guard: sig_mentions_guard(toks, sig),
                    });
                }
                pending = Pending::None;
                pending_test = false;
                i += 1;
            }
            (TokKind::Punct, "{") => {
                let parent_test = cur_test(&stack);
                let test = parent_test || pending_test;
                let test_root = test && !parent_test;
                let scope = match std::mem::replace(&mut pending, Pending::None) {
                    Pending::Fn {
                        name,
                        line,
                        sig_start,
                    } => {
                        let sig = (sig_start, i);
                        items.fns.push(FnItem {
                            name,
                            impl_type: cur_impl(&stack),
                            line,
                            sig,
                            body: Some((i, i)), // end patched at pop
                            is_test: test,
                            returns_guard: sig_mentions_guard(toks, sig),
                        });
                        Scope {
                            kind: ScopeKind::Fn,
                            test,
                            test_root,
                            impl_type: None,
                            fn_idx: Some(items.fns.len() - 1),
                            open_tok: i,
                        }
                    }
                    Pending::Impl { ty } => Scope {
                        kind: ScopeKind::Other,
                        test,
                        test_root,
                        impl_type: ty,
                        fn_idx: None,
                        open_tok: i,
                    },
                    Pending::Mod | Pending::None => Scope {
                        kind: ScopeKind::Other,
                        test,
                        test_root,
                        impl_type: None,
                        fn_idx: None,
                        open_tok: i,
                    },
                };
                pending_test = false;
                stack.push(scope);
                i += 1;
            }
            (TokKind::Punct, "}") => {
                if let Some(scope) = stack.pop() {
                    if let (ScopeKind::Fn, Some(idx)) = (scope.kind, scope.fn_idx) {
                        items.fns[idx].body = Some((scope.open_tok, i));
                    }
                    if scope.test_root {
                        items.test_ranges.push((scope.open_tok, i));
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    items.test_ranges.sort_unstable();
    items
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Does an attribute body mark test-only code? `#[test]` and
/// `#[cfg(test)]` do; `#[cfg(not(test))]` does not.
fn attr_is_test(body: &[Tok]) -> bool {
    let has = |name: &str| body.iter().any(|t| t.is_ident(name));
    if body.first().is_some_and(|t| t.is_ident("test")) && body.len() == 1 {
        return true;
    }
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        return has("test") && !has("not");
    }
    false
}

/// The self type of an `impl` header starting at token `i` (the `impl`
/// keyword): last path segment of the implemented-for type, e.g.
/// `impl<T: TraceSink> Network<T>` -> `Network`,
/// `impl fmt::Display for Config` -> `Config`.
fn impl_type_of(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    // Skip the leading generics group `<...>` if present.
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                depth += 1;
            } else if toks[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut ty: Option<String> = None;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") || t.is_ident("where") {
            break;
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            ty = None; // restart: the self type follows `for`
        } else if angle == 0
            && t.kind == TokKind::Ident
            && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe")
        {
            ty = Some(t.text.clone());
        }
        j += 1;
    }
    ty
}

/// Does the return type of signature `sig` mention a guard type?
fn sig_mentions_guard(toks: &[Tok], sig: (usize, usize)) -> bool {
    let mut j = sig.0;
    // Find `->` at paren/bracket depth 0.
    let mut depth = 0i32;
    let mut arrow = None;
    while j < sig.1 {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("-") && toks.get(j + 1).is_some_and(|t| t.is_punct(">"))
        {
            arrow = Some(j + 2);
        }
        j += 1;
    }
    let Some(start) = arrow else { return false };
    toks[start..sig.1]
        .iter()
        .any(|t| t.kind == TokKind::Ident && GUARD_TYPES.contains(&t.text.as_str()))
}

/// Candidate parameter-type hints for one function: maps a parameter name
/// to the identifiers appearing in its type (used to resolve receiver
/// types for lock wrappers). Over-approximate by design.
pub fn param_type_hints(toks: &[Tok], sig: (usize, usize)) -> Vec<(String, Vec<String>)> {
    // Find the parameter list: first `(` at angle depth 0 after the name.
    let mut j = sig.0;
    let mut angle = 0i32;
    let mut open = None;
    while j < sig.1 {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle <= 0 && t.is_punct("(") {
            open = Some(j);
            break;
        }
        j += 1;
    }
    let Some(open) = open else { return Vec::new() };
    // Split on `,` at depth 1.
    let mut hints = Vec::new();
    let mut depth = 0i32;
    let mut seg: Vec<&Tok> = Vec::new();
    let mut k = open;
    while k < sig.1 {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
            if depth > 1 {
                seg.push(t);
            }
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                flush_param(&seg, &mut hints);
                break;
            }
            seg.push(t);
        } else if depth == 1 && t.is_punct(",") {
            flush_param(&seg, &mut hints);
            seg.clear();
        } else {
            seg.push(t);
        }
        k += 1;
    }
    hints
}

fn flush_param(seg: &[&Tok], hints: &mut Vec<(String, Vec<String>)>) {
    // `name : Type...` — name is the first ident, type idents follow the
    // colon. Patterns like `(a, b): (A, B)` are skipped (no single name).
    let Some(colon) = seg.iter().position(|t| t.is_punct(":")) else {
        return;
    };
    let name = seg[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut");
    let Some(name) = name else { return };
    let tys: Vec<String> = seg[colon + 1..]
        .iter()
        .filter(|t| {
            t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "impl" | "mut" | "ref" | "const")
        })
        .map(|t| t.text.clone())
        .collect();
    if !tys.is_empty() {
        hints.push((name.text.clone(), tys));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> Vec<FnItem> {
        extract(&lex(src).toks).fns
    }

    #[test]
    fn extracts_free_and_impl_fns_with_types() {
        let src = "
            fn free() {}
            impl<T: Clone> Network<T> { fn begin_cycle(&mut self) {} }
            impl fmt::Display for Config { fn fmt(&self) {} }
            trait Policy { fn decide(&mut self); fn tick(&mut self) {} }
        ";
        let fns = fns_of(src);
        let got: Vec<(String, Option<String>)> = fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("free".into(), None),
                ("begin_cycle".into(), Some("Network".into())),
                ("fmt".into(), Some("Config".into())),
                ("decide".into(), Some("Policy".into())),
                ("tick".into(), Some("Policy".into())),
            ]
        );
        assert!(fns[3].body.is_none(), "trait decl has no body");
        assert!(fns[4].body.is_some());
    }

    #[test]
    fn cfg_test_mod_and_test_fn_are_test_regions() {
        let src = "
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            #[test]
            fn top_level_case() {}
            fn prod2() {}
        ";
        let items = extract(&lex(src).toks);
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("case").is_test);
        assert!(by_name("top_level_case").is_test);
        assert!(!by_name("prod2").is_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))] fn prod() {}";
        assert!(!fns_of(src)[0].is_test);
    }

    #[test]
    fn cfg_test_on_fn_does_not_swallow_the_rest_of_the_file() {
        let src = "
            #[cfg(test)]
            fn helper() {}
            fn prod() {}
        ";
        let items = extract(&lex(src).toks);
        assert!(items.fns[0].is_test);
        assert!(!items.fns[1].is_test);
    }

    #[test]
    fn nested_fns_get_their_own_items() {
        let src = "fn outer() { fn inner() {} inner(); }";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 2);
        let (o, i) = (&fns[0], &fns[1]);
        assert!(o.body.unwrap().0 < i.body.unwrap().0);
        assert!(i.body.unwrap().1 < o.body.unwrap().1);
    }

    #[test]
    fn guard_returning_signature_detected() {
        let src = "
            impl JobTable {
                fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Job>> { self.jobs.lock().unwrap() }
                fn len(&self) -> usize { 0 }
                fn with(&self, g: MutexGuard<'_, u8>) {}
            }
        ";
        let fns = fns_of(src);
        assert!(fns[0].returns_guard);
        assert!(!fns[1].returns_guard);
        assert!(!fns[2].returns_guard, "guard in params is not a transfer");
    }

    #[test]
    fn param_hints_capture_type_idents() {
        let toks = lex("fn worker(table: &JobTable, q: &Arc<BoundedQueue<Job>>, n: usize) {}").toks;
        let items = extract(&toks);
        let hints = param_type_hints(&toks, items.fns[0].sig);
        assert_eq!(hints[0].0, "table");
        assert!(hints[0].1.contains(&"JobTable".to_string()));
        assert_eq!(hints[1].0, "q");
        assert!(hints[1].1.contains(&"BoundedQueue".to_string()));
    }

    #[test]
    fn struct_literals_and_match_blocks_do_not_confuse_scopes() {
        let src = "
            fn f() -> Foo {
                let x = Foo { a: 1 };
                match x { Foo { a } => { a } }
            }
            fn g() {}
        ";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "f");
        assert_eq!(fns[1].name, "g");
    }
}
