//! Stable text and JSON output.
//!
//! The text format is one line per finding —
//! `file:line: [rule-id] message` — with indented `via:` call-path
//! evidence lines for interprocedural findings. The JSON format carries
//! `count`, `findings[].rule/file/line/message/path` and summary fields;
//! `scripts/ci.sh` greps its `"rule": ...` lines.

use crate::passes::{Analysis, Finding};

/// JSON string escaping (the workspace convention: no dependencies).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one finding as text lines.
pub fn text(f: &Finding) -> String {
    let mut s = format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    for hop in &f.path {
        s.push_str("\n    via: ");
        s.push_str(hop);
    }
    s
}

/// Renders the whole analysis as JSON.
pub fn json(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"count\": {},\n", a.findings.len()));
    s.push_str(&format!("  \"files\": {},\n", a.files));
    s.push_str(&format!("  \"fns\": {},\n", a.fns));
    s.push_str(&format!("  \"hot_index_sites\": {},\n", a.hot_index_sites));
    s.push_str("  \"findings\": [\n");
    for (i, f) in a.findings.iter().enumerate() {
        let comma = if i + 1 < a.findings.len() { "," } else { "" };
        let path: Vec<String> = f
            .path
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect();
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"path\": [{}]}}{}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            path.join(", "),
            comma
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_includes_call_path_evidence() {
        let f = Finding {
            rule: "alloc-in-hot-path",
            file: "crates/noc-sim/src/x.rs".into(),
            line: 7,
            message: "`Vec::new` allocates".into(),
            path: vec!["Network::begin_cycle (crates/noc-sim/src/network.rs:610)".into()],
        };
        let t = text(&f);
        assert!(t.starts_with("crates/noc-sim/src/x.rs:7: [alloc-in-hot-path]"));
        assert!(t.contains("via: Network::begin_cycle"));
    }

    #[test]
    fn json_carries_finding_keys_and_escapes() {
        let a = Analysis {
            findings: vec![Finding {
                rule: "no-unwrap",
                file: "a\"b.rs".into(),
                line: 1,
                message: "m".into(),
                path: Vec::new(),
            }],
            files: 1,
            fns: 0,
            hot_index_sites: 0,
            timings_ms: Vec::new(),
        };
        let j = json(&a);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"rule\": \"no-unwrap\""));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\"hot_index_sites\": 0"));
    }
}
