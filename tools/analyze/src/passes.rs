//! Analysis driver: file loading, the token rules, and the
//! interprocedural hot-path passes.
//!
//! Rule catalog (see DESIGN.md §14 for the full table and caveats):
//!
//! - token rules: `no-unordered-map`,
//!   `no-wall-clock`, `no-os-random`, `no-thread-spawn`, `no-unwrap`
//! - interprocedural: `alloc-in-hot-path`, `panic-reachability`,
//!   `lock-order`, `blocking-under-lock` (the last two live in
//!   `crate::locks`)
//!
//! Every finding can be suppressed by `// lint:allow(rule-id)
//! <justification>` on the same line or the line directly above, parsed
//! from real comment tokens so string literals can neither fire nor
//! suppress.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::graph::{call_sites, CallGraph, CallSite, FnId};
use crate::items::{extract, param_type_hints, Items};
use crate::lexer::{lex, Tok, TokKind};
use crate::locks;

/// Analysis options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Also report slice-indexing sites reachable from hot entry points
    /// (off by default: the simulator's dense index style would drown the
    /// signal; the count is always reported in the JSON summary).
    pub strict_indexing: bool,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Call-path evidence for interprocedural findings, entry point
    /// first: `"Network::begin_cycle (crates/noc-sim/src/network.rs:610)"`.
    pub path: Vec<String>,
}

/// One lexed + item-extracted source file.
#[derive(Debug)]
pub struct FileUnit {
    /// Path relative to the scan root, forward slashes.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub items: Items,
    /// `lint:allow` suppressions: line -> rule ids.
    pub allows: BTreeMap<u32, Vec<String>>,
}

/// The loaded workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<FileUnit>,
}

/// Per-function view used by the interprocedural passes.
#[derive(Debug)]
pub struct FnInfo {
    pub id: FnId,
    pub name: String,
    pub impl_type: Option<String>,
    pub file: String,
    pub line: u32,
    pub body: (usize, usize),
    pub sites: Vec<CallSite>,
    pub hints: Vec<(String, Vec<String>)>,
    pub returns_guard: bool,
}

impl FnInfo {
    /// `Type::name` or plain `name`.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Analysis result plus summary numbers for reporting and benching.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files: usize,
    pub fns: usize,
    /// Slice-indexing sites inside hot-reachable functions (reported as
    /// findings only under `strict_indexing`).
    pub hot_index_sites: usize,
    /// `(phase, milliseconds)` for `load`, `graph`, and each pass.
    pub timings_ms: Vec<(&'static str, f64)>,
}

// ---------------------------------------------------------------------------
// Scopes.
// ---------------------------------------------------------------------------

fn in_sim_or_sweep_code(path: &str) -> bool {
    [
        "crates/noc-sim/",
        "crates/nbti/",
        "crates/core/",
        "crates/traffic/",
        "crates/telemetry/",
        "crates/area/",
        "crates/service/",
        "crates/campaign/",
        "crates/modelcheck/",
        "crates/workload/",
        "src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

fn everywhere(_path: &str) -> bool {
    true
}

/// Everywhere except the sanctioned wall-clock boundary,
/// `noc_telemetry::clock`: the one reviewed file every real-time read
/// funnels through, whose contract is that timings are observations of a
/// run, never inputs to it.
fn outside_sanctioned_clock_boundary(path: &str) -> bool {
    path != "crates/telemetry/src/clock.rs"
}

/// Everywhere except the two sanctioned thread owners: the deterministic
/// worker pool in `core::parallel`, and the serving layer.
fn outside_sanctioned_thread_owners(path: &str) -> bool {
    path != "crates/core/src/parallel.rs" && !path.starts_with("crates/service/")
}

fn in_hot_paths(path: &str) -> bool {
    path.starts_with("crates/noc-sim/src/")
        || path.starts_with("crates/nbti/src/")
        || path.starts_with("crates/service/src/")
        || path.starts_with("crates/campaign/src/")
        || path.starts_with("crates/modelcheck/src/")
        || path.starts_with("crates/workload/src/")
}

/// Hot-path entry points: functions with these names seed the
/// reachability BFS. They are the per-cycle surface of the simulator —
/// `Network` cycle phases, router/VC/arbiter steps, NIC transfer, policy
/// decisions, and the per-cycle telemetry hooks.
pub const HOT_ENTRY_POINTS: &[&str] = &[
    "begin_cycle",
    "finish_cycle",
    "step",
    "step_cycles",
    "apply_gate",
    "apply_gate_at",
    "port_view",
    "fill_port_view_at",
    "port_key",
    "port_key_at",
    "vc_statuses",
    "check_idle_on_budget",
    "vc_allocation",
    "switch_allocation",
    "process_inject",
    "drain_eject",
    "grant",
    "decide",
    "record_cycle",
    "most_degraded",
    // The per-cycle bookkeeping that makes a cycle visit only the units
    // with work: the due schedule's due prefix and delivery, the port
    // marks and the active-NIC step.
    "due_len",
    "deliver",
    "absorb_credit",
    "traverse",
    "mark_port_at",
    "mark_all_ports",
    "take_marked_ports",
    "set_bit",
    "clear_bit",
    "step_nic",
    "waits_for_wakeup",
    // Parking blocked NICs: the progress test of every NIC step and the
    // wake of a slot's upstream agent on a credit or a gate command.
    "could_progress",
    "has_packet",
    "wake_upstream",
    // The most-degraded election certified from process variation.
    "most_degraded_within",
    "certified_most_degraded",
    // The VC arena's per-flit and per-VC accessors: ring writes and pops,
    // the allocators' mask reads and the packet table.
    "write_flit",
    "pop_flit",
    "free_vc",
    "va_requests",
    "sa_ready",
    "route_head",
    // The words allocation and control read instead of scanning, and
    // their writers: the VA grant's binding, the credit spend and refill,
    // and the controller's decision table.
    "bind_out_vc",
    "spend_credit",
    "refill_owner",
    "recall",
    "remember",
    "invalidate_all",
    // The per-cycle injection surface of the traffic sources and the
    // workload adapters.
    "inject_from",
    "inject_from_with",
    "next_records",
];

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// All `.rs` files under `root`'s `crates/`, `src/` and `tests/`
/// directories, sorted. `tools/` and `compat/` are never scanned.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files);
        }
    }
    files
}

/// Rule ids suppressed by `lint:allow(...)` markers in `text`.
fn parse_allows(text: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("lint:allow(") {
        rest = &rest[start + "lint:allow(".len()..];
        if let Some(end) = rest.find(')') {
            allows.extend(rest[..end].split(',').map(|s| s.trim().to_string()));
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    allows
}

impl FileUnit {
    /// Lexes and extracts one file.
    pub fn parse(rel: String, source: &str) -> FileUnit {
        let out = lex(source);
        let items = extract(&out.toks);
        let mut allows: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for (line, text) in &out.comments {
            let ids = parse_allows(text);
            if !ids.is_empty() {
                allows.entry(*line).or_default().extend(ids);
            }
        }
        FileUnit {
            rel,
            toks: out.toks,
            items,
            allows,
        }
    }

    /// Is `rule` suppressed at `line` (same line or the line above)?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        let hit = |l: u32| {
            self.allows.get(&l).is_some_and(|ids| {
                ids.iter()
                    .any(|id| id == rule || (rule == "panic-reachability" && id == "no-unwrap"))
            })
        };
        hit(line) || (line > 1 && hit(line - 1))
    }
}

impl Workspace {
    /// Loads every eligible file under `root`.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        for file in collect_files(root) {
            let Ok(source) = fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(FileUnit::parse(rel, &source));
        }
        Workspace { files }
    }

    /// Non-test functions with bodies, as the interprocedural passes see
    /// them.
    pub fn fn_infos(&self) -> Vec<FnInfo> {
        let mut out = Vec::new();
        for (ui, unit) in self.files.iter().enumerate() {
            for (fi, f) in unit.items.fns.iter().enumerate() {
                let Some(body) = f.body else { continue };
                if f.is_test {
                    continue;
                }
                out.push(FnInfo {
                    id: (ui, fi),
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    file: unit.rel.clone(),
                    line: f.line,
                    body,
                    sites: call_sites(&unit.toks, body),
                    hints: param_type_hints(&unit.toks, f.sig),
                    returns_guard: f.returns_guard,
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Legacy token rules
// ---------------------------------------------------------------------------

struct TokenRule {
    id: &'static str,
    message: &'static str,
    applies: fn(&str) -> bool,
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        id: "no-unordered-map",
        message: "unordered collection in a simulation/sweep path; use BTreeMap/BTreeSet \
                  so iteration order is deterministic",
        applies: in_sim_or_sweep_code,
    },
    TokenRule {
        id: "no-wall-clock",
        message: "wall-clock read breaks reproducibility; derive timing from the \
                  simulated cycle counter",
        applies: outside_sanctioned_clock_boundary,
    },
    TokenRule {
        id: "no-os-random",
        message: "OS-seeded randomness breaks reproducibility; use an explicit seed",
        applies: everywhere,
    },
    TokenRule {
        id: "no-thread-spawn",
        message: "ad-hoc threading bypasses the deterministic worker pool; go through \
                  sensorwise::parallel (or the noc-service thread owners)",
        applies: outside_sanctioned_thread_owners,
    },
    TokenRule {
        id: "no-unwrap",
        message: "panic path in simulation hot code or the serving layer; convert to a \
                  typed error or an invariant-checked access",
        applies: in_hot_paths,
    },
];

/// Does the token rule `id` match at token index `i`?
fn token_rule_hits(id: &str, toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    let at = |j: usize| toks.get(j);
    match id {
        "no-unordered-map" => t.is_ident("HashMap") || t.is_ident("HashSet"),
        "no-wall-clock" => {
            t.is_ident("SystemTime")
                || (t.is_ident("Instant")
                    && at(i + 1).is_some_and(|t| t.is_punct("::"))
                    && at(i + 2).is_some_and(|t| t.is_ident("now")))
        }
        "no-os-random" => {
            t.is_ident("thread_rng") || t.is_ident("OsRng") || t.is_ident("from_entropy")
        }
        "no-thread-spawn" => {
            (t.is_ident("thread")
                && at(i + 1).is_some_and(|t| t.is_punct("::"))
                && at(i + 2).is_some_and(|t| t.is_ident("spawn")))
                || (t.is_ident("spawn")
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && at(i + 1).is_some_and(|t| t.is_punct("(")))
        }
        "no-unwrap" => {
            (t.is_ident("unwrap")
                && i > 0
                && toks[i - 1].is_punct(".")
                && at(i + 1).is_some_and(|t| t.is_punct("("))
                && at(i + 2).is_some_and(|t| t.is_punct(")")))
                || (t.is_ident("expect")
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && at(i + 1).is_some_and(|t| t.is_punct("(")))
        }
        _ => false,
    }
}

/// Runs the five token rules over one file.
pub fn token_findings(unit: &FileUnit) -> Vec<Finding> {
    let active: Vec<&TokenRule> = TOKEN_RULES
        .iter()
        .filter(|r| (r.applies)(&unit.rel))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut seen: Vec<(&str, u32)> = Vec::new();
    for i in 0..unit.toks.len() {
        if unit.items.in_test(i) {
            continue;
        }
        for rule in &active {
            let line = unit.toks[i].line;
            if token_rule_hits(rule.id, &unit.toks, i)
                && !seen.contains(&(rule.id, line))
                && !unit.allowed(line, rule.id)
            {
                seen.push((rule.id, line));
                out.push(Finding {
                    rule: rule.id,
                    file: unit.rel.clone(),
                    line,
                    message: rule.message.to_string(),
                    path: Vec::new(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Interprocedural passes
// ---------------------------------------------------------------------------

/// Allocation vocabulary flagged inside hot-reachable functions.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_front",
    "insert",
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "with_capacity",
    "extend",
    "append",
    "reserve",
];
const ALLOC_TYPES: &[&str] = &["Vec", "VecDeque", "Box", "String", "BTreeMap", "BTreeSet"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Builds call-path evidence for `target`: entry point first, each hop as
/// `"name (file:line)"`.
fn evidence_path(
    target: FnId,
    reach: &BTreeMap<FnId, Option<(FnId, u32)>>,
    infos: &BTreeMap<FnId, &FnInfo>,
) -> Vec<String> {
    let mut hops = Vec::new();
    let mut cur = target;
    loop {
        let info = infos[&cur];
        hops.push(format!(
            "{} ({}:{})",
            info.qual_name(),
            info.file,
            info.line
        ));
        match reach.get(&cur) {
            Some(Some((pred, _line))) => cur = *pred,
            _ => break,
        }
    }
    hops.reverse();
    hops
}

/// The files `alloc-in-hot-path` reports in: the simulator, the traffic
/// sources and workload injection adapters, the NBTI model, and the
/// monitor and policy glue the experiment loop calls every cycle
/// (`record_cycle`, `most_degraded`, `decide`).
fn in_alloc_scope(path: &str) -> bool {
    path.starts_with("crates/noc-sim/")
        || path.starts_with("crates/traffic/")
        || path.starts_with("crates/workload/")
        || path.starts_with("crates/nbti/src/")
        || path == "crates/core/src/monitor.rs"
        || path == "crates/core/src/policy.rs"
}

/// `alloc-in-hot-path`: allocation vocabulary inside functions reachable
/// from the per-cycle entry points, reported for the files
/// [`in_alloc_scope`] names.
fn alloc_pass(
    ws: &Workspace,
    fns: &[FnInfo],
    reach: &BTreeMap<FnId, Option<(FnId, u32)>>,
    infos: &BTreeMap<FnId, &FnInfo>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in fns {
        if !reach.contains_key(&f.id) || !in_alloc_scope(&f.file) {
            continue;
        }
        let unit = &ws.files[f.id.0];
        for s in &f.sites {
            let what = if s.is_macro && ALLOC_MACROS.contains(&s.name.as_str()) {
                Some(format!("`{}!` allocates", s.name))
            } else if s.is_method && ALLOC_METHODS.contains(&s.name.as_str()) {
                Some(format!("`.{}()` allocates (or may reallocate)", s.name))
            } else if !s.is_method
                && s.qualifier
                    .as_deref()
                    .is_some_and(|q| ALLOC_TYPES.contains(&q))
                && ALLOC_CTORS.contains(&s.name.as_str())
            {
                Some(format!(
                    "`{}::{}` allocates",
                    s.qualifier.as_deref().unwrap_or(""),
                    s.name
                ))
            } else {
                None
            };
            let Some(what) = what else { continue };
            if unit.allowed(s.line, "alloc-in-hot-path") {
                continue;
            }
            out.push(Finding {
                rule: "alloc-in-hot-path",
                file: f.file.clone(),
                line: s.line,
                message: format!(
                    "{what} in `{}`, which is reachable from a per-cycle entry point",
                    f.qual_name()
                ),
                path: evidence_path(f.id, reach, infos),
            });
        }
    }
    out
}

/// `panic-reachability`: `unwrap`/`expect` (and, under strict mode,
/// slice-indexing) in hot-reachable functions. Files already covered
/// wholesale by `no-unwrap` are excluded so each site reports once.
fn panic_pass(
    ws: &Workspace,
    fns: &[FnInfo],
    reach: &BTreeMap<FnId, Option<(FnId, u32)>>,
    infos: &BTreeMap<FnId, &FnInfo>,
    strict_indexing: bool,
    hot_index_sites: &mut usize,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in fns {
        if !reach.contains_key(&f.id) {
            continue;
        }
        let unit = &ws.files[f.id.0];
        let toks = &unit.toks;
        for i in f.body.0..=f.body.1 {
            let t = &toks[i];
            let panics = token_rule_hits("no-unwrap", toks, i);
            let indexes = t.is_punct("[")
                && i > 0
                && (toks[i - 1].kind == TokKind::Ident
                    || toks[i - 1].is_punct("]")
                    || toks[i - 1].is_punct(")"));
            if indexes {
                *hot_index_sites += 1;
            }
            let report_panic = panics && !in_hot_paths(&f.file);
            let report_index = indexes && strict_indexing;
            if !(report_panic || report_index) {
                continue;
            }
            if unit.allowed(t.line, "panic-reachability") {
                continue;
            }
            let what = if report_panic {
                format!("`.{}(...)` can panic", t.text)
            } else {
                "slice indexing can panic".to_string()
            };
            out.push(Finding {
                rule: "panic-reachability",
                file: f.file.clone(),
                line: t.line,
                message: format!(
                    "{what} in `{}`, which is reachable from a per-cycle entry point",
                    f.qual_name()
                ),
                path: evidence_path(f.id, reach, infos),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs `f`, appending its wall time in milliseconds to `timings` under
/// `phase`.
fn timed<R>(
    timings: &mut Vec<(&'static str, f64)>,
    phase: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = f();
    timings.push((phase, t.elapsed().as_secs_f64() * 1e3));
    out
}

/// Loads `root` and runs every rule.
pub fn analyze_root(root: &Path, opts: &Options) -> Analysis {
    let mut load = Vec::new();
    let ws = timed(&mut load, "load", || Workspace::load(root));
    let mut analysis = analyze_workspace(&ws, opts);
    analysis.timings_ms.splice(0..0, load);
    analysis
}

/// Runs every rule over already-loaded files.
fn analyze_workspace(ws: &Workspace, opts: &Options) -> Analysis {
    let mut analysis = Analysis {
        files: ws.files.len(),
        ..Analysis::default()
    };

    let token = timed(&mut analysis.timings_ms, "token-rules", || {
        ws.files.iter().flat_map(token_findings).collect::<Vec<_>>()
    });
    analysis.findings.extend(token);

    let (fns, graph, reach) = timed(&mut analysis.timings_ms, "graph", || {
        let fns = ws.fn_infos();
        let graph_input: Vec<(FnId, String, Option<String>, Vec<CallSite>)> = fns
            .iter()
            .map(|f| (f.id, f.name.clone(), f.impl_type.clone(), f.sites.clone()))
            .collect();
        let graph = CallGraph::build(&graph_input);
        let roots: Vec<FnId> = fns
            .iter()
            .filter(|f| HOT_ENTRY_POINTS.contains(&f.name.as_str()))
            .map(|f| f.id)
            .collect();
        let reach = graph.reachable(&roots);
        (fns, graph, reach)
    });
    analysis.fns = fns.len();
    let infos: BTreeMap<FnId, &FnInfo> = fns.iter().map(|f| (f.id, f)).collect();

    let alloc = timed(&mut analysis.timings_ms, "alloc-in-hot-path", || {
        alloc_pass(ws, &fns, &reach, &infos)
    });
    analysis.findings.extend(alloc);
    let panics = timed(&mut analysis.timings_ms, "panic-reachability", || {
        panic_pass(
            ws,
            &fns,
            &reach,
            &infos,
            opts.strict_indexing,
            &mut analysis.hot_index_sites,
        )
    });
    analysis.findings.extend(panics);
    let locks = timed(&mut analysis.timings_ms, "lock-passes", || {
        locks::lock_passes(ws, &fns, &graph)
    });
    analysis.findings.extend(locks);

    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One hot-reachable allocation per file: the files are identical up
    /// to their path, so exactly the in-scope ones report.
    fn findings_by_file(paths: &[&str]) -> Vec<String> {
        let src = "impl Monitor { fn record_cycle(&mut self) { let v: Vec<u32> = self.xs.iter().collect(); } }";
        let ws = Workspace {
            files: paths
                .iter()
                .map(|p| FileUnit::parse(p.to_string(), src))
                .collect(),
        };
        let a = analyze_workspace(&ws, &Options::default());
        a.findings
            .iter()
            .filter(|f| f.rule == "alloc-in-hot-path")
            .map(|f| f.file.clone())
            .collect()
    }

    #[test]
    fn alloc_scope_covers_the_nbti_model_and_the_monitor_and_policy_glue() {
        let found = findings_by_file(&[
            "crates/nbti/src/tracker.rs",
            "crates/core/src/monitor.rs",
            "crates/core/src/policy.rs",
            "crates/core/src/experiment.rs",
            "crates/campaign/src/engine.rs",
        ]);
        assert_eq!(
            found,
            [
                "crates/core/src/monitor.rs",
                "crates/core/src/policy.rs",
                "crates/nbti/src/tracker.rs",
            ]
        );
    }

    #[test]
    fn alloc_scope_covers_the_traffic_sources() {
        let found =
            findings_by_file(&["crates/traffic/src/synthetic.rs", "crates/bench/src/lib.rs"]);
        assert_eq!(found, ["crates/traffic/src/synthetic.rs"]);
    }

    #[test]
    fn alloc_scope_keeps_the_simulator_and_workload_scopes() {
        for path in [
            "crates/noc-sim/src/network.rs",
            "crates/traffic/src/source.rs",
            "crates/workload/src/source.rs",
        ] {
            assert!(in_alloc_scope(path), "{path}");
        }
        for path in [
            "crates/core/src/codec.rs",
            "crates/service/src/server.rs",
            "tests/cli.rs",
        ] {
            assert!(!in_alloc_scope(path), "{path}");
        }
    }
}
