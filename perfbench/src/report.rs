//! The result line, the metric catalogue and the span file.

use crate::stats::{median, quantile, sorted, tail, TAIL_BEYOND};
use std::fmt::Write as _;
use std::time::Duration;

/// Every end-to-end metric, with its unit. Each untraced run prints all
/// of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("slo_ok_ratio", "ratio"),
];

/// Every per-layer metric, with its unit. Each traced run prints all of
/// them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("traffic.inject_ns_per_cycle", "ns"),
    ("noc_sim.begin_cycle_ns_per_cycle", "ns"),
    ("noc_sim.finish_cycle_ns_per_cycle", "ns"),
    ("core.controller_ns_per_cycle", "ns"),
    ("core.monitor_ns_per_cycle", "ns"),
    ("core.sensor_ns_per_cycle", "ns"),
    ("sim.residual_ns_per_cycle", "ns"),
    ("noc_sim.busy_port_ratio", "ratio"),
    ("noc_sim.flits_per_cycle", "flits"),
    ("core.gate_command_ratio", "ratio"),
    ("core.md_change_ratio", "ratio"),
    ("workload.decode_mrecords_per_s", "Mrecords/s"),
    ("campaign.request_build_ms", "ms"),
    ("codec.request_encode_ms", "ms"),
    ("codec.request_kb", "KiB"),
    ("campaign.dispatch_ms", "ms"),
    ("service.worker_busy_ms_per_op", "ms"),
    ("campaign.dispatch_overhead_ms", "ms"),
    ("service.status_requests_per_op", "count"),
    ("campaign.integrate_ms", "ms"),
    ("campaign.checkpoint_save_ms", "ms"),
    ("campaign.checkpoint_kb", "KiB"),
    ("store.entries_per_op", "count"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.worker_busy_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.rejected_ratio", "ratio"),
    ("codec.spec_encode_us", "us"),
    ("gen.lateness_p50_ms", "ms"),
    ("gen.lateness_max_ms", "ms"),
    ("tracing_overhead_ratio", "ratio"),
    ("traced.op_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// One recorded span: a named interval, its parent, and how many calls
/// were folded into it (per-cycle calls are summed, not stored one by
/// one).
#[derive(Debug, Clone)]
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    dur: Duration,
    calls: u64,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    pub metrics: Vec<(String, f64, String)>,
    /// Lines printed ahead of the result (estimator details, checks).
    pub notes: Vec<String>,
    /// The simulated-statistics block (exact values), as JSON.
    pub sim_stats: Option<String>,
    spans: Vec<Span>,
}

/// The inputs of the end-to-end metric set, apart from `setup_s` (see
/// [`Report::setup`]).
pub struct EndToEnd<'a> {
    /// `VmHWM`, read where the workload's memory no longer depends on
    /// how many ops fit in the window.
    pub peak_rss_mb: f64,
    pub sim_kcycles_per_s: f64,
    pub ops_per_s: f64,
    /// The workload's op latency estimate (see the README for which
    /// estimator each workload uses).
    pub op_p50_ms: f64,
    /// Latency of every op that completed and passed its own check.
    pub op_ms: &'a [f64],
    /// The workload's fixed latency limit.
    pub limit_ms: f64,
    /// Ops attempted, including refused and failed ones.
    pub attempted: u64,
}

impl Report {
    /// Records a failed op or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one op as a root span with its child spans
    /// `(name, time, calls)`. The root id is `(op + 1) << 4` and a child's
    /// is the root id plus its position, so ids never collide.
    pub fn op_spans(
        &mut self,
        root: &str,
        op: u64,
        dur: Duration,
        children: &[(&str, Duration, u64)],
    ) {
        let id = (op + 1) << 4;
        self.spans.push(Span {
            name: root.to_string(),
            id,
            parent: None,
            dur,
            calls: 1,
        });
        for (k, &(name, dur, calls)) in children.iter().enumerate() {
            self.spans.push(Span {
                name: name.to_string(),
                id: id + k as u64 + 1,
                parent: Some(id),
                dur,
                calls,
            });
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Derives the end-to-end metric set, `setup_s` apart.
    pub fn end_to_end(&mut self, e: EndToEnd<'_>) {
        let ops = sorted(e.op_ms);
        let within = ops.iter().filter(|&&ms| ms <= e.limit_ms).count();
        self.layer("peak_rss_mb", e.peak_rss_mb, "MiB");
        self.layer("sim_kcycles_per_s", e.sim_kcycles_per_s, "kcycles/s");
        self.layer("ops_per_s", e.ops_per_s, "1/s");
        self.layer("op_p50_ms", e.op_p50_ms, "ms");
        self.layer(
            "slo_ok_ratio",
            within as f64 / e.attempted.max(1) as f64,
            "ratio",
        );
        match tail(&ops) {
            Some(t) => self.note(format!(
                "op tail {:.3} ms = p{:.2} of {} ops ({} beyond; unbounded, see README); \
                 slo limit {} ms",
                t.value, t.percentile, t.samples, t.beyond, e.limit_ms
            )),
            None => self.fail(format!(
                "only {} ops completed: no percentile leaves {TAIL_BEYOND} beyond",
                ops.len()
            )),
        }
        if !ops.is_empty() {
            let q: Vec<String> = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]
                .iter()
                .map(|&p| format!("p{:.0} {:.3}", p * 100.0, quantile(&ops, p)))
                .collect();
            self.note(format!("op latency ms: {}", q.join(", ")));
        }
    }

    /// Records `setup_s` with a note on how it was estimated.
    pub fn setup(&mut self, setup_s: f64, how: String) {
        self.layer("setup_s", setup_s, "s");
        self.note(format!("setup_s = {how}"));
    }

    /// `tracing_overhead_ratio`, the traced op time and the tail of the
    /// untraced ops, from interleaved untraced and traced ops of the same
    /// workload.
    pub fn overhead(&mut self, plain_ms: &[f64], traced_ms: &[f64]) {
        if plain_ms.is_empty() || traced_ms.is_empty() {
            self.fail("the traced run completed no op of one kind".to_string());
            return;
        }
        let traced = median(traced_ms);
        self.layer("tracing_overhead_ratio", traced / median(plain_ms), "ratio");
        self.layer("traced.op_ms", traced, "ms");
        match tail(&sorted(plain_ms)) {
            Some(t) => {
                self.layer("op_tail_ms", t.value, "ms");
                self.note(format!(
                    "op_tail_ms = p{:.2} of {} untraced ops ({} beyond)",
                    t.percentile, t.samples, t.beyond
                ));
            }
            None => self.fail(format!(
                "only {} untraced ops: no percentile leaves {TAIL_BEYOND} beyond",
                plain_ms.len()
            )),
        }
    }

    /// Prints the notes, the simulated statistics and the result line;
    /// writes the spans to `spans_path` when any were recorded.
    pub fn finish(mut self, trace: bool, spans_path: &std::path::Path) {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if !self.spans.is_empty() {
            match write_spans(&self.spans, spans_path) {
                Ok(()) => self.note(format!("spans written to {}", spans_path.display())),
                Err(e) => self.fail(format!("span file: {e}")),
            }
        }
        for line in &self.notes {
            println!("# {line}");
        }
        if let Some(stats) = &self.sim_stats {
            println!(
                "# sim-stats (exact; the model is unvalidated for these scenarios, \
                 no reference measurement exists, so no error figure is given): {stats}"
            );
        }
        for m in &self.mismatches {
            println!("# MISMATCH {m}");
        }
        let mut body = String::new();
        let mut complete = true;
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            if !value.is_finite() {
                complete = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.mismatches.is_empty() && self.failed == 0 && complete;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// `values` times `scale`, rounded to three decimals, as a list.
pub fn rounded(values: &[f64], scale: f64) -> String {
    let v: Vec<f64> = values
        .iter()
        .map(|x| (x * scale * 1e3).round() / 1e3)
        .collect();
    format!("{v:?}")
}

/// Writes spans as JSON lines with each span's self time (its duration
/// minus its children's).
fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut children: std::collections::BTreeMap<u64, Duration> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur;
        }
    }
    let mut out = String::new();
    for s in spans {
        let children = children.get(&s.id).copied().unwrap_or_default();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"calls\":{},\"dur_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.id,
            s.calls,
            s.dur.as_nanos(),
            s.dur.saturating_sub(children).as_nanos()
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
