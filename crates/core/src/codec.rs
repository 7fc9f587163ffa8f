//! The wire codec: one JSON schema for experiment specs and results.
//!
//! Every front-end that ships an experiment across a process boundary —
//! the `nbti-noc run --json` output, the `noc-service` HTTP API, the
//! `submit` load generator and the service throughput bench — encodes and
//! decodes through this module, so there is exactly one schema and the
//! serving path can be cross-checked bit-for-bit against a local run.
//!
//! Two wire types:
//!
//! * a **spec** is a complete, self-contained [`ExperimentJob`] — network
//!   configuration, policy, cycle budget, seeds, invariant level and
//!   telemetry options. Decoding validates the configuration, so a spec
//!   accepted by [`spec_from_json`] always runs.
//! * a **result** is the [`WireResult`] view of an [`ExperimentResult`]:
//!   delivery counters, latency percentiles, invariant-violation counts,
//!   the event-stream digest (the determinism witness) and the per-port
//!   duty table.
//!
//! The JSON layer itself is a minimal recursive-descent parser over a
//! [`JsonValue`] tree — the build environment has no registry access, so
//! no external serializer is available. Objects preserve insertion order
//! (a `Vec` of pairs, not a hash map) to keep encodings deterministic.
//!
//! The spec schema covers the servable subset of the experiment space:
//! uniform/patterned synthetic traffic and the ideal sensor model.
//! Benchmark-mix traffic and quantized sensors are local-only experiment
//! features; encoding them reports [`CodecError`] rather than silently
//! dropping fields.

use crate::experiment::{ExperimentConfig, ExperimentResult, SensorModel};
use crate::parallel::{ExperimentJob, TrafficSpec};
use crate::policy::PolicyKind;
use noc_sim::config::NocConfig;
use noc_sim::invariants::InvariantLevel;
use noc_sim::routing::RoutingAlgorithm;
use noc_telemetry::TelemetrySpec;
use noc_traffic::pattern::DestinationPattern;
use std::fmt;

/// Error produced when encoding or decoding wire JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// A codec error with the given message (crate-internal construction,
    /// also used by the cache/sweep layers for schema-level problems).
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A parsed JSON value. Numbers keep their raw source text so 64-bit
/// integers (seeds, digests, cycle counts) round-trip exactly instead of
/// being squeezed through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// Returns an error describing the first syntax problem.
    pub fn parse(text: &str) -> Result<JsonValue, CodecError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(CodecError::new(format!(
                "trailing garbage at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }

    /// Object field lookup (first match), or `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64` (exact; rejects floats and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// (and the tree's drop) recurse once per level, so the bound keeps a
/// hostile document from overflowing a thread's stack; every real wire
/// form nests fewer than ten levels.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), CodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, CodecError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(CodecError::new(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(CodecError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, CodecError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => {
                    return Err(CodecError::new(format!(
                        "expected , or }} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, CodecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => {
                    return Err(CodecError::new(format!(
                        "expected , or ] at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run of plain bytes up to the next quote or backslash is
            // copied as one slice. Both are ASCII, which UTF-8 never uses
            // inside a multi-byte character, so a run cut from valid
            // UTF-8 is valid UTF-8 itself.
            let rest = &self.bytes[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(CodecError::new("unterminated string"));
            };
            let plain = std::str::from_utf8(&rest[..run])
                .map_err(|_| CodecError::new("invalid UTF-8 in string"))?;
            out.push_str(plain);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(CodecError::new("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| CodecError::new("bad \\u escape"))?;
                    self.pos += 4;
                    // BMP only; unpaired surrogates map to U+FFFD.
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                }
                other => return Err(CodecError::new(format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| CodecError::new("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(CodecError::new(format!("invalid number `{raw}`")));
        }
        Ok(JsonValue::Num(raw.to_string()))
    }
}

/// Escapes `s` into a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn routing_name(r: RoutingAlgorithm) -> &'static str {
    match r {
        RoutingAlgorithm::XY => "xy",
        RoutingAlgorithm::YX => "yx",
        RoutingAlgorithm::WestFirst => "west-first",
    }
}

fn routing_from_name(name: &str) -> Result<RoutingAlgorithm, CodecError> {
    match name {
        "xy" => Ok(RoutingAlgorithm::XY),
        "yx" => Ok(RoutingAlgorithm::YX),
        "west-first" => Ok(RoutingAlgorithm::WestFirst),
        other => Err(CodecError::new(format!(
            "unknown routing `{other}` (expected xy, yx or west-first)"
        ))),
    }
}

/// The 2D mesh is the only fabric. A spec's `noc` object may name it
/// (`"topology":"mesh"`, which [`spec_to_json`] writes so that store keys
/// keep their bytes) or leave the field out; any other fabric, and an
/// irregular fabric's `edges` list, is refused.
fn check_mesh_only(noc: &JsonValue) -> Result<(), CodecError> {
    let named = match noc.get("topology") {
        None => Some("mesh"),
        Some(v) => v.as_str(),
    };
    if named != Some("mesh") || noc.get("edges").is_some() {
        return Err(CodecError::new(
            "the 2D mesh is the only fabric: `topology` must be \"mesh\" or absent, \
             and `edges` is not accepted",
        ));
    }
    Ok(())
}

fn pattern_name(p: &DestinationPattern) -> Result<&'static str, CodecError> {
    match p {
        DestinationPattern::UniformRandom => Ok("uniform"),
        DestinationPattern::Transpose => Ok("transpose"),
        DestinationPattern::BitComplement => Ok("bit-complement"),
        DestinationPattern::BitReverse => Ok("bit-reverse"),
        DestinationPattern::Shuffle => Ok("shuffle"),
        DestinationPattern::Tornado => Ok("tornado"),
        DestinationPattern::Neighbor => Ok("neighbor"),
        DestinationPattern::HotSpot { .. } => Err(CodecError::new(
            "hotspot traffic is not servable over the wire",
        )),
    }
}

fn pattern_from_name(name: &str) -> Result<DestinationPattern, CodecError> {
    match name {
        "uniform" => Ok(DestinationPattern::UniformRandom),
        "transpose" => Ok(DestinationPattern::Transpose),
        "bit-complement" => Ok(DestinationPattern::BitComplement),
        "bit-reverse" => Ok(DestinationPattern::BitReverse),
        "shuffle" => Ok(DestinationPattern::Shuffle),
        "tornado" => Ok(DestinationPattern::Tornado),
        "neighbor" => Ok(DestinationPattern::Neighbor),
        other => Err(CodecError::new(format!(
            "unknown traffic pattern `{other}`"
        ))),
    }
}

/// Encodes an [`ExperimentJob`] as the canonical spec JSON.
///
/// # Errors
///
/// Returns an error for job features without a wire representation
/// (benchmark-mix traffic, hotspot patterns, quantized sensors).
pub fn spec_to_json(job: &ExperimentJob) -> Result<String, CodecError> {
    let cfg = &job.cfg;
    if !matches!(cfg.sensor, SensorModel::Ideal) {
        return Err(CodecError::new(
            "quantized sensor models are not servable over the wire",
        ));
    }
    let traffic = match &job.traffic {
        TrafficSpec::Uniform { rate, seed } => {
            format!("{{\"kind\":\"uniform\",\"rate\":{rate},\"seed\":{seed}}}")
        }
        TrafficSpec::Pattern {
            pattern,
            rate,
            seed,
        } => format!(
            "{{\"kind\":\"pattern\",\"pattern\":{},\"rate\":{rate},\"seed\":{seed}}}",
            json_string(pattern_name(pattern)?)
        ),
        TrafficSpec::Mix { .. } => {
            return Err(CodecError::new(
                "benchmark-mix traffic is not servable over the wire",
            ))
        }
    };
    let noc = &cfg.noc;
    Ok(format!(
        concat!(
            "{{\"noc\":{{\"cols\":{},\"rows\":{},\"vcs\":{},\"buffer_depth\":{},",
            "\"flits_per_packet\":{},\"link_latency\":{},\"credit_latency\":{},",
            "\"wakeup_latency\":{},\"routing\":{},\"topology\":\"mesh\"}},",
            "\"policy\":{},\"warmup\":{},\"measure\":{},\"pv_seed\":{},",
            "\"rr_rotation_period\":{},\"md_refresh_period\":{},\"invariants\":{},",
            "\"telemetry\":{{\"trace\":{},\"sample_period\":{}}},",
            "\"traffic\":{}}}"
        ),
        noc.cols,
        noc.rows,
        noc.vcs_per_port,
        noc.buffer_depth,
        noc.flits_per_packet,
        noc.link_latency,
        noc.credit_latency,
        noc.wakeup_latency,
        json_string(routing_name(noc.routing)),
        json_string(&cfg.policy.label()),
        cfg.warmup_cycles,
        cfg.measure_cycles,
        cfg.pv_seed,
        cfg.rr_rotation_period,
        cfg.md_refresh_period,
        json_string(&cfg.invariants.to_string()),
        cfg.telemetry.trace,
        cfg.telemetry.sample_period,
        traffic
    ))
}

fn field_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, CodecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| CodecError::new(format!("`{key}` must be an unsigned integer"))),
    }
}

fn field_usize(obj: &JsonValue, key: &str, default: usize) -> Result<usize, CodecError> {
    Ok(field_u64(obj, key, default as u64)? as usize)
}

/// Decodes a spec JSON into a runnable [`ExperimentJob`].
///
/// Absent fields take the experiment defaults (`ExperimentConfig::new`
/// plus `NocConfig::default`); the decoded network configuration is
/// validated, so a returned job never panics on construction.
///
/// # Errors
///
/// Returns an error on syntax problems, unknown names, or an invalid
/// network configuration.
pub fn spec_from_json(text: &str) -> Result<ExperimentJob, CodecError> {
    spec_from_value(&JsonValue::parse(text)?)
}

/// Decodes an already parsed spec into a runnable [`ExperimentJob`]; the
/// rules and errors are those of [`spec_from_json`].
///
/// # Errors
///
/// Returns an error on missing or mistyped fields, unknown names, or an
/// invalid network configuration.
pub fn spec_from_value(root: &JsonValue) -> Result<ExperimentJob, CodecError> {
    if !matches!(root, JsonValue::Obj(_)) {
        return Err(CodecError::new("spec must be a JSON object"));
    }
    let policy_name = root
        .get("policy")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CodecError::new("missing `policy`"))?;
    let policy = PolicyKind::parse(policy_name).map_err(CodecError::new)?;

    let defaults = NocConfig::default();
    let noc = match root.get("noc") {
        None => defaults,
        Some(n) => {
            check_mesh_only(n)?;
            NocConfig {
                cols: field_usize(n, "cols", defaults.cols)?,
                rows: field_usize(n, "rows", defaults.rows)?,
                vcs_per_port: field_usize(n, "vcs", defaults.vcs_per_port)?,
                buffer_depth: field_usize(n, "buffer_depth", defaults.buffer_depth)?,
                flits_per_packet: field_usize(n, "flits_per_packet", defaults.flits_per_packet)?,
                link_latency: field_u64(n, "link_latency", defaults.link_latency)?,
                credit_latency: field_u64(n, "credit_latency", defaults.credit_latency)?,
                wakeup_latency: field_u64(n, "wakeup_latency", defaults.wakeup_latency)?,
                routing: match n.get("routing") {
                    None => defaults.routing,
                    Some(r) => routing_from_name(
                        r.as_str()
                            .ok_or_else(|| CodecError::new("`routing` must be a string"))?,
                    )?,
                },
            }
        }
    };
    noc.validate().map_err(|e| CodecError::new(e.to_string()))?;

    let base = ExperimentConfig::new(noc, policy);
    let invariants = match root.get("invariants") {
        None => base.invariants,
        Some(v) => v
            .as_str()
            .ok_or_else(|| CodecError::new("`invariants` must be a string"))?
            .parse::<InvariantLevel>()
            .map_err(|e| CodecError::new(e.to_string()))?,
    };
    let telemetry = match root.get("telemetry") {
        None => TelemetrySpec::default(),
        Some(t) => TelemetrySpec {
            trace: t.get("trace").and_then(JsonValue::as_bool).unwrap_or(false),
            trace_capacity: field_usize(t, "trace_capacity", 0)?,
            sample_period: field_u64(t, "sample_period", 0)?,
        },
    };

    let traffic_v = root
        .get("traffic")
        .ok_or_else(|| CodecError::new("missing `traffic`"))?;
    let rate = traffic_v
        .get("rate")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| CodecError::new("missing `traffic.rate`"))?;
    if !(rate.is_finite() && rate >= 0.0) {
        return Err(CodecError::new("`traffic.rate` must be non-negative"));
    }
    let seed = field_u64(traffic_v, "seed", 1)?;
    let kind = traffic_v
        .get("kind")
        .and_then(JsonValue::as_str)
        .unwrap_or("uniform");
    let traffic = match kind {
        "uniform" => TrafficSpec::Uniform { rate, seed },
        "pattern" => TrafficSpec::Pattern {
            pattern: pattern_from_name(
                traffic_v
                    .get("pattern")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| CodecError::new("missing `traffic.pattern`"))?,
            )?,
            rate,
            seed,
        },
        other => {
            return Err(CodecError::new(format!(
                "unknown traffic kind `{other}` (expected uniform or pattern)"
            )))
        }
    };

    let cfg = ExperimentConfig {
        warmup_cycles: field_u64(root, "warmup", base.warmup_cycles)?,
        measure_cycles: field_u64(root, "measure", base.measure_cycles)?,
        pv_seed: field_u64(root, "pv_seed", base.pv_seed)?,
        rr_rotation_period: field_u64(root, "rr_rotation_period", base.rr_rotation_period)?.max(1),
        md_refresh_period: field_u64(root, "md_refresh_period", base.md_refresh_period)?,
        invariants,
        telemetry,
        ..base
    };
    // rr-no-sensor designates its next VC every period, and a woken VC is
    // allocatable only `wakeup_latency` cycles after power-on: a period no
    // longer than the wake-up designates each VC away before it can carry
    // a packet, so nothing is ever delivered.
    let wakeup = cfg.noc.wakeup_latency;
    if cfg.policy == PolicyKind::RrNoSensor && cfg.rr_rotation_period <= wakeup {
        return Err(CodecError::new(format!(
            "rr_rotation_period {} must exceed wakeup_latency {wakeup}: rr-no-sensor would \
             rotate every VC away before it wakes and deliver nothing",
            cfg.rr_rotation_period
        )));
    }
    Ok(ExperimentJob { cfg, traffic })
}

/// The wire view of one per-port result row.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePort {
    /// The port name (`Display` form of the simulator's `PortId`).
    pub port: String,
    /// The most degraded VC index.
    pub md_vc: usize,
    /// Per-VC duty cycles in percent.
    pub duty_percent: Vec<f64>,
    /// Flits received during the measured window.
    pub flits: u64,
}

/// The wire view of an [`ExperimentResult`] — the schema both the CLI's
/// `run --json` output and the service's result endpoint emit.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The policy label.
    pub policy: String,
    /// Measured cycles after warm-up.
    pub measured_cycles: u64,
    /// Packets injected during the measured window.
    pub packets_injected: u64,
    /// Packets delivered during the measured window.
    pub packets_ejected: u64,
    /// Flits delivered during the measured window.
    pub flits_ejected: u64,
    /// Mean end-to-end latency in cycles, when any packet was delivered.
    pub avg_latency: Option<f64>,
    /// `(p50, p95, p99, max)` latency upper bounds in cycles.
    pub latency: Option<(u64, u64, u64, u64)>,
    /// Invariant violations over the whole run.
    pub invariant_violations: u64,
    /// The event-stream digest, when the run was traced.
    pub trace_digest: Option<u64>,
    /// Total deterministic work units (see `WorkCounters::total`).
    pub work_total: u64,
    /// Per-port rows, in `Network::port_ids` order.
    pub ports: Vec<WirePort>,
}

impl From<&ExperimentResult> for WireResult {
    fn from(r: &ExperimentResult) -> Self {
        WireResult {
            policy: r.policy.label(),
            measured_cycles: r.measured_cycles,
            packets_injected: r.net.packets_injected,
            packets_ejected: r.net.packets_ejected,
            flits_ejected: r.net.flits_ejected,
            avg_latency: r.net.avg_latency(),
            latency: r.net.latency_summary(),
            invariant_violations: r.invariant_violations,
            trace_digest: r.trace_digest(),
            work_total: r.work.total(),
            ports: r
                .ports
                .iter()
                .map(|p| WirePort {
                    port: p.port.to_string(),
                    md_vc: p.md_vc,
                    duty_percent: p.duty_percent.clone(),
                    flits: p.flits_received,
                })
                .collect(),
        }
    }
}

impl WireResult {
    /// Encodes the result as canonical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ports.len() * 96);
        out.push_str(&format!(
            "{{\"policy\":{},\"measured_cycles\":{},\"packets_injected\":{},\
             \"packets_ejected\":{},\"flits_ejected\":{},",
            json_string(&self.policy),
            self.measured_cycles,
            self.packets_injected,
            self.packets_ejected,
            self.flits_ejected,
        ));
        match self.avg_latency {
            Some(v) => out.push_str(&format!("\"avg_latency\":{v},")),
            None => out.push_str("\"avg_latency\":null,"),
        }
        match self.latency {
            Some((p50, p95, p99, max)) => out.push_str(&format!(
                "\"latency\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max}}},"
            )),
            None => out.push_str("\"latency\":null,"),
        }
        out.push_str(&format!(
            "\"invariant_violations\":{},",
            self.invariant_violations
        ));
        match self.trace_digest {
            Some(d) => out.push_str(&format!("\"trace_digest\":\"{d:016x}\",")),
            None => out.push_str("\"trace_digest\":null,"),
        }
        out.push_str(&format!("\"work_total\":{},\"ports\":[", self.work_total));
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"port\":{},\"md_vc\":{},\"duty_percent\":[",
                json_string(&p.port),
                p.md_vc
            ));
            for (j, d) in p.duty_percent.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{d}"));
            }
            out.push_str(&format!("],\"flits\":{}}}", p.flits));
        }
        out.push_str("]}");
        out
    }

    /// Decodes the canonical result JSON.
    ///
    /// # Errors
    ///
    /// Returns an error on syntax problems or missing required fields.
    pub fn from_json(text: &str) -> Result<WireResult, CodecError> {
        let root = JsonValue::parse(text)?;
        let policy = root
            .get("policy")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CodecError::new("missing `policy`"))?
            .to_string();
        let latency = match root.get("latency") {
            Some(JsonValue::Null) | None => None,
            Some(l) => Some((
                field_u64(l, "p50", 0)?,
                field_u64(l, "p95", 0)?,
                field_u64(l, "p99", 0)?,
                field_u64(l, "max", 0)?,
            )),
        };
        let trace_digest = match root.get("trace_digest") {
            Some(JsonValue::Str(s)) => Some(
                u64::from_str_radix(s, 16)
                    .map_err(|_| CodecError::new(format!("bad trace_digest `{s}`")))?,
            ),
            _ => None,
        };
        let avg_latency = match root.get("avg_latency") {
            Some(JsonValue::Num(_)) => root.get("avg_latency").and_then(JsonValue::as_f64),
            _ => None,
        };
        let mut ports = Vec::new();
        if let Some(rows) = root.get("ports").and_then(JsonValue::as_arr) {
            for row in rows {
                let duty = row
                    .get("duty_percent")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| CodecError::new("port row missing `duty_percent`"))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| CodecError::new("duty entries must be numbers"))
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                ports.push(WirePort {
                    port: row
                        .get("port")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| CodecError::new("port row missing `port`"))?
                        .to_string(),
                    md_vc: field_usize(row, "md_vc", 0)?,
                    duty_percent: duty,
                    flits: field_u64(row, "flits", 0)?,
                });
            }
        }
        Ok(WireResult {
            policy,
            measured_cycles: field_u64(&root, "measured_cycles", 0)?,
            packets_injected: field_u64(&root, "packets_injected", 0)?,
            packets_ejected: field_u64(&root, "packets_ejected", 0)?,
            flits_ejected: field_u64(&root, "flits_ejected", 0)?,
            avg_latency,
            latency,
            invariant_violations: field_u64(&root, "invariant_violations", 0)?,
            trace_digest,
            work_total: field_u64(&root, "work_total", 0)?,
            ports,
        })
    }
}

/// Encodes an [`ExperimentResult`] as the canonical result JSON.
pub fn result_to_json(r: &ExperimentResult) -> String {
    WireResult::from(r).to_json()
}

// The campaign-epoch wire types live in their own module but belong to the
// same one-schema codec surface.
pub use crate::epoch_wire::{WireEpochOutcome, WireEpochRequest};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SyntheticScenario;

    fn sample_job() -> ExperimentJob {
        let mut job = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.1,
        }
        .job(PolicyKind::SensorWise, 200, 2_000);
        job.cfg.telemetry.trace = true;
        job
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = JsonValue::parse(
            r#"{"a": [1, -2.5, 1e3], "b": "x\"\nA", "c": true, "d": null, "e": {}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\nA"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
    }

    /// Unescaped runs are copied whole: multi-byte UTF-8 right beside
    /// escapes, a JSON document carried as a string, and one string of a
    /// mebibyte, which the old character-by-character walk took tens of
    /// seconds over.
    #[test]
    fn strings_keep_multibyte_text_beside_escapes() {
        for (text, want) in [
            (r#""héllo\n→\"ünï\"""#, "héllo\n→\"ünï\""),
            (r#""\u00e9é\\€""#, "éé\\€"),
            (r#""日本\t語""#, "日本\t語"),
            (r#""𝄞\/𝄞""#, "𝄞/𝄞"),
            (r#""\"""#, "\""),
            (r#""""#, ""),
        ] {
            assert_eq!(
                JsonValue::parse(text).unwrap().as_str(),
                Some(want),
                "{text}"
            );
        }
        let inner = r#"{"k":"v\"w","n":[1,2],"s":"é\\"}"#;
        let outer = JsonValue::parse(&format!("{{\"doc\":{}}}", json_string(inner))).unwrap();
        let doc = outer.get("doc").unwrap().as_str().unwrap();
        assert_eq!(doc, inner);
        let doc = JsonValue::parse(doc).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("é\\"));
        for bad in [r#""abc"#, r#""é\"#, r#""\q""#, r#""\u12""#] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
        let long = format!("{}é", "a".repeat(1 << 20));
        let v = JsonValue::parse(&json_string(&long)).unwrap();
        assert_eq!(v.as_str(), Some(long.as_str()));
        assert!(spec_from_json(&json_string(&long)).is_err());
    }

    #[test]
    fn nesting_beyond_the_bound_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // A hostile body on a thread with the default 2 MiB stack — the
        // size of the service's acceptor thread.
        let hostile = std::thread::spawn(|| JsonValue::parse(&"[".repeat(200_000)).is_err())
            .join()
            .expect("parser thread must not overflow its stack");
        assert!(hostile);
        assert!(JsonValue::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let raw = format!("{{\"seed\": {}}}", u64::MAX);
        let v = JsonValue::parse(&raw).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    /// The spec bytes of the canonical 4×4 job and of a 2×2 job. Spec
    /// JSON keys the result store (`spec_key`) and feeds the campaign
    /// digests, so a change to these bytes orphans every stored result.
    #[test]
    fn spec_bytes_match_goldens() {
        let canonical = SyntheticScenario {
            cores: 16,
            vcs: 2,
            injection_rate: 0.2,
        }
        .job(PolicyKind::SensorWise, 1_000, 20_000);
        for (job, want) in [
            (
                canonical,
                concat!(
                    r#"{"noc":{"cols":4,"rows":4,"vcs":2,"buffer_depth":4,"flits_per_packet":5,"#,
                    r#""link_latency":1,"credit_latency":1,"wakeup_latency":0,"routing":"xy","#,
                    r#""topology":"mesh"},"policy":"sensor-wise","warmup":1000,"measure":20000,"#,
                    r#""pv_seed":68719608008,"rr_rotation_period":1,"md_refresh_period":64,"#,
                    r#""invariants":"off","telemetry":{"trace":false,"sample_period":0},"#,
                    r#""traffic":{"kind":"uniform","rate":0.5,"seed":70638593710}}"#
                ),
            ),
            (
                sample_job(),
                concat!(
                    r#"{"noc":{"cols":2,"rows":2,"vcs":2,"buffer_depth":4,"flits_per_packet":5,"#,
                    r#""link_latency":1,"credit_latency":1,"wakeup_latency":0,"routing":"xy","#,
                    r#""topology":"mesh"},"policy":"sensor-wise","warmup":200,"measure":2000,"#,
                    r#""pv_seed":17180000356,"rr_rotation_period":1,"md_refresh_period":64,"#,
                    r#""invariants":"off","telemetry":{"trace":true,"sample_period":0},"#,
                    r#""traffic":{"kind":"uniform","rate":0.25,"seed":19098985986}}"#
                ),
            ),
        ] {
            assert_eq!(spec_to_json(&job).unwrap(), want);
        }
    }

    /// The mesh is the only fabric: a spec that names it or leaves the
    /// field out decodes; any other fabric and any edge list is refused.
    #[test]
    fn only_the_mesh_decodes() {
        let spec = |noc: &str| {
            format!(
                r#"{{"policy":"sensor-wise","noc":{{"cols":2,"rows":2{noc}}},"traffic":{{"rate":0.1}}}}"#
            )
        };
        for ok in ["", r#","topology":"mesh""#] {
            spec_from_json(&spec(ok)).unwrap();
        }
        for bad in [
            r#","topology":"torus""#,
            r#","topology":"ring""#,
            r#","topology":"irregular","edges":[[0,1],[1,2],[2,3],[3,0]]"#,
            r#","edges":[[0,1]]"#,
            r#","topology":"mesh","edges":[]"#,
            r#","topology":7"#,
        ] {
            let err = spec_from_json(&spec(bad)).unwrap_err().to_string();
            assert!(
                err.contains("the 2D mesh is the only fabric"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let job = sample_job();
        let text = spec_to_json(&job).unwrap();
        let back = spec_from_json(&text).unwrap();
        assert_eq!(back.cfg.noc, job.cfg.noc);
        assert_eq!(back.cfg.policy, job.cfg.policy);
        assert_eq!(back.cfg.warmup_cycles, job.cfg.warmup_cycles);
        assert_eq!(back.cfg.measure_cycles, job.cfg.measure_cycles);
        assert_eq!(back.cfg.pv_seed, job.cfg.pv_seed);
        assert_eq!(back.cfg.telemetry, job.cfg.telemetry);
        match (&back.traffic, &job.traffic) {
            (
                TrafficSpec::Uniform { rate: ra, seed: sa },
                TrafficSpec::Uniform { rate: rb, seed: sb },
            ) => {
                assert_eq!(ra, rb);
                assert_eq!(sa, sb);
            }
            other => panic!("traffic mismatch: {other:?}"),
        }
    }

    #[test]
    fn decoded_spec_runs_identically_to_the_original() {
        let job = sample_job();
        let text = spec_to_json(&job).unwrap();
        let decoded = spec_from_json(&text).unwrap();
        let a = job.run();
        let b = decoded.run();
        assert_eq!(a.net, b.net);
        assert_eq!(a.ports, b.ports);
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert!(a.trace_digest().is_some());
    }

    #[test]
    fn spec_defaults_apply_for_absent_fields() {
        let job = spec_from_json(
            r#"{"policy":"rr","traffic":{"rate":0.1,"seed":3},
                "noc":{"cols":2,"rows":2,"vcs":2}}"#,
        )
        .unwrap();
        assert_eq!(job.cfg.policy, PolicyKind::RrNoSensor);
        assert_eq!(job.cfg.noc.buffer_depth, NocConfig::default().buffer_depth);
        assert_eq!(job.cfg.warmup_cycles, 20_000);
        assert!(!job.cfg.telemetry.trace);
    }

    #[test]
    fn bad_specs_are_rejected_with_messages() {
        for (text, needle) in [
            ("[]", "spec must be a JSON object"),
            (r#"{"traffic":{"rate":0.1}}"#, "missing `policy`"),
            (r#"{"policy":"sw"}"#, "missing `traffic`"),
            (
                r#"{"policy":"magic","traffic":{"rate":0.1}}"#,
                "unknown policy",
            ),
            (
                r#"{"policy":"sw","traffic":{"rate":0.1},"noc":{"cols":0}}"#,
                "invalid NoC configuration",
            ),
            (
                r#"{"policy":"sw","traffic":{"rate":0.1},"noc":{"vcs":33}}"#,
                "at most 32 virtual channels",
            ),
            (
                r#"{"policy":"sw","traffic":{"kind":"mix","rate":0.1}}"#,
                "unknown traffic kind",
            ),
            (r#"{"policy":"sw","traffic":{"rate":-0.5}}"#, "non-negative"),
        ] {
            let err = spec_from_json(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> {err}");
        }
    }

    /// A network too large to build is refused before anything is
    /// allocated, with the cap named.
    #[test]
    fn oversized_networks_are_refused() {
        for (noc, needle) in [
            (
                r#"{"cols":2,"rows":2,"buffer_depth":1000000000000}"#,
                "buffer depth 1000000000000 exceeds the supported 64",
            ),
            (r#"{"flits_per_packet":100000}"#, "flits per packet exceed"),
            (r#"{"cols":1000,"rows":1000}"#, "1000 x 1000 nodes exceed"),
            (
                r#"{"link_latency":18446744073709551615}"#,
                "link_latency 18446744073709551615 exceeds the supported 1024 cycles",
            ),
            (r#"{"credit_latency":1025}"#, "credit_latency 1025 exceeds"),
            (r#"{"wakeup_latency":4096}"#, "wakeup_latency 4096 exceeds"),
        ] {
            let text =
                format!(r#"{{"policy":"sensor-wise","noc":{noc},"traffic":{{"rate":0.1}}}}"#);
            let err = spec_from_json(&text).unwrap_err().to_string();
            assert!(err.contains("invalid NoC configuration"), "{err}");
            assert!(err.contains(needle), "{err}");
        }
    }

    /// rr-no-sensor starves when it rotates the designated VC no slower
    /// than a VC wakes: such a pair is refused, naming both values, while
    /// one more cycle of period (as `ablation_wakeup` uses) delivers.
    #[test]
    fn rr_rotation_no_longer_than_the_wakeup_is_refused() {
        let spec = |policy: &str, period: u64, wakeup: u64| {
            format!(
                r#"{{"policy":"{policy}","rr_rotation_period":{period},"warmup":300,
                    "measure":3000,"noc":{{"vcs":2,"wakeup_latency":{wakeup}}},
                    "traffic":{{"rate":0.12,"seed":3}}}}"#
            )
        };
        for (period, wakeup) in [(1, 1), (2, 2), (1, 3), (3, 3)] {
            let err = spec_from_json(&spec("rr", period, wakeup))
                .unwrap_err()
                .to_string();
            let needle = format!("rr_rotation_period {period} must exceed wakeup_latency {wakeup}");
            assert!(err.contains(&needle), "{err}");
        }
        // Policies that do not rotate take any period.
        assert!(spec_from_json(&spec("sw", 2, 2)).is_ok());
        let mut job = spec_from_json(&spec("rr", 4, 3)).expect("wakeup + 1 is accepted");
        assert!(job.run().net.packets_ejected > 0);
        // The refused pair, built past the codec, delivers nothing.
        job.cfg.rr_rotation_period = 3;
        assert_eq!(job.run().net.packets_ejected, 0);
    }

    #[test]
    fn unsupported_jobs_refuse_to_encode() {
        let mut job = sample_job();
        job.traffic = TrafficSpec::Mix {
            mix: noc_traffic::app::BenchmarkMix::random(4, 1),
            seed: 1,
        };
        assert!(spec_to_json(&job).is_err());
    }

    #[test]
    fn result_round_trips_through_json() {
        let r = sample_job().run();
        let text = result_to_json(&r);
        let wire = WireResult::from_json(&text).unwrap();
        assert_eq!(wire, WireResult::from(&r));
        assert_eq!(wire.trace_digest, r.trace_digest());
        assert!(wire.trace_digest.is_some());
        assert_eq!(wire.ports.len(), r.ports.len());
        assert_eq!(wire.latency.is_some(), r.net.packets_ejected > 0);
    }
}
