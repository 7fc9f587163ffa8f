//! Request→job→experiment→epoch spans and the bounded flight recorder.
//!
//! A [`Span`] records one timed unit of serving or simulation work:
//! wall-clock start (µs since some process-local origin) and duration,
//! a [`SpanKind`], a human name, and a *derived* id. Ids are an FNV-1a-64
//! hash of `(kind, name, parent)` — no randomness, no clock component —
//! so any layer that knows the logical coordinates of a span can
//! re-derive its id and attach children to it without threading handles
//! through the call stack. Two runs of the same workload produce the
//! same id graph; only `start_us`/`dur_us` differ.
//!
//! Spans are encoded one-per-line as JSONL (same discipline as trace
//! events) and normally buffered in a [`FlightRecorder`]: a bounded ring
//! that keeps the most recent spans and is dumped as a whole on worker
//! failure, timeout, or shutdown — observability for the flight that
//! just crashed, at a fixed memory cost.
//!
//! All timestamps come from [`clock`](crate::clock); nothing in
//! this module may influence simulated behaviour.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use crate::digest::{fnv1a_64, fnv1a_64_fold};
use crate::event::{field_str, field_u64, ParseError};

/// What layer of the stack a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One HTTP request handled by the service.
    Request,
    /// One job's life from acceptance to terminal state.
    Job,
    /// One simulator experiment executed by a worker.
    Experiment,
    /// One campaign epoch.
    Epoch,
    /// One remote dispatch attempt: submit → serve → result fetch.
    Dispatch,
    /// One epoch integration step: ledger aging + checkpoint bookkeeping
    /// after an epoch outcome arrives.
    Integrate,
    /// One step inside a dispatch attempt; the name says which (`encode`,
    /// `submit`, `wait`, `fetch-error`, `decode`).
    Hop,
}

impl SpanKind {
    /// The compact JSONL tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Job => "job",
            SpanKind::Experiment => "experiment",
            SpanKind::Epoch => "epoch",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Integrate => "integrate",
            SpanKind::Hop => "hop",
        }
    }

    fn parse(tag: &str) -> Result<Self, ParseError> {
        Ok(match tag {
            "request" => SpanKind::Request,
            "job" => SpanKind::Job,
            "experiment" => SpanKind::Experiment,
            "epoch" => SpanKind::Epoch,
            "dispatch" => SpanKind::Dispatch,
            "integrate" => SpanKind::Integrate,
            "hop" => SpanKind::Hop,
            other => return Err(ParseError::new(format!("unknown span kind `{other}`"))),
        })
    }
}

/// Reserved parent id meaning "root span".
pub const NO_PARENT: u64 = 0;

/// Derives the id of the span with the given logical coordinates.
///
/// FNV-1a-64 over `tag ++ 0x00 ++ name ++ 0x00 ++ parent_le`. The result
/// 0 is reserved for [`NO_PARENT`], so a (vanishingly unlikely) zero hash
/// is remapped to a fixed odd constant.
#[must_use]
pub fn derive_id(kind: SpanKind, name: &str, parent: u64) -> u64 {
    let mut h = fnv1a_64(kind.tag().as_bytes());
    for part in [&[0][..], name.as_bytes(), &[0], &parent.to_le_bytes()] {
        h = fnv1a_64_fold(h, part);
    }
    if h == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// One timed unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Derived id (see [`derive_id`]).
    pub id: u64,
    /// Parent span id, or [`NO_PARENT`].
    pub parent: u64,
    /// Layer.
    pub kind: SpanKind,
    /// Human-readable name, e.g. `"POST /jobs"` or `"epoch-3"`.
    pub name: String,
    /// Start, µs since the emitting process's origin instant.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

impl Span {
    /// Builds a span, deriving its id from `(kind, name, parent)`.
    #[must_use]
    pub fn new(kind: SpanKind, name: &str, parent: u64, start_us: u64, dur_us: u64) -> Self {
        Span {
            id: derive_id(kind, name, parent),
            parent,
            kind,
            name: name.to_string(),
            start_us,
            dur_us,
        }
    }

    /// Appends the span's JSONL line (including `\n`) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        use fmt::Write;
        let _ = writeln!(
            out,
            "{{\"k\":\"{}\",\"id\":\"{:016x}\",\"par\":\"{:016x}\",\"name\":\"{}\",\
             \"start_us\":{},\"dur_us\":{}}}",
            self.kind.tag(),
            self.id,
            self.parent,
            self.name,
            self.start_us,
            self.dur_us
        );
    }

    /// Parses one JSONL line produced by [`Span::write_jsonl`].
    pub fn parse_jsonl(line: &str) -> Result<Self, ParseError> {
        let hex = |key: &str| -> Result<u64, ParseError> {
            let raw = field_str(line, key)?;
            u64::from_str_radix(raw, 16)
                .map_err(|_| ParseError::new(format!("bad hex id in `{key}`")))
        };
        Ok(Span {
            id: hex("id")?,
            parent: hex("par")?,
            kind: SpanKind::parse(field_str(line, "k")?)?,
            name: field_str(line, "name")?.to_string(),
            start_us: field_u64(line, "start_us")?,
            dur_us: field_u64(line, "dur_us")?,
        })
    }
}

/// Parses a whole span JSONL document (one span per non-empty line).
pub fn read_spans_jsonl(text: &str) -> Result<Vec<Span>, ParseError> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        spans.push(
            Span::parse_jsonl(line).map_err(|e| ParseError::new(format!("line {}: {e}", i + 1)))?,
        );
    }
    Ok(spans)
}

/// A bounded, thread-safe ring of the most recent spans.
///
/// Recording under load is one short mutex hold (the serving layer's
/// spans are per-request, not per-cycle, so a mutex is cheap here);
/// `drain` takes everything oldest-first for a crash or shutdown dump.
/// When the ring is full the oldest span is dropped — the recorder
/// favours the end of the flight, like a cockpit recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Span>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` spans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Span>> {
        // A panicked holder can only have left a fully-formed ring.
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends a span, evicting the oldest if the ring is full.
    pub fn record(&self, span: Span) {
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Takes every held span, oldest first, leaving the ring empty.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        self.lock().drain(..).collect()
    }

    /// Renders every held span as JSONL without draining, oldest first.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.lock().iter() {
            span.write_jsonl(&mut out);
        }
        out
    }
}

/// A span collector for front ends that time work against one process
/// anchor: the distributed campaign driver records dispatch attempts and
/// integration steps here, then drains them into its spans sidecar.
///
/// All timestamps come from [`clock`](crate::clock) relative to
/// the anchor taken at construction, so the log never touches the clock
/// boundary itself and can live in determinism-audited crates.
#[derive(Debug)]
pub struct SpanLog {
    anchor: std::time::Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// A new log anchored at "now".
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            anchor: crate::clock::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the log's anchor — use as `start_us` for spans
    /// recorded here.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        crate::clock::us_since(self.anchor)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        match self.spans.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a span that started at `start_us` (from [`SpanLog::now_us`])
    /// and just ended; returns its derived id so children can link to it.
    pub fn record(&self, kind: SpanKind, name: &str, parent: u64, start_us: u64) -> u64 {
        let dur_us = self.now_us().saturating_sub(start_us);
        let span = Span::new(kind, name, parent, start_us, dur_us);
        let id = span.id;
        self.lock().push(span);
        id
    }

    /// Takes every recorded span in record order, leaving the log empty.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ids_are_stable_and_linkable() {
        let req = derive_id(SpanKind::Request, "POST /jobs", NO_PARENT);
        assert_ne!(req, NO_PARENT);
        assert_eq!(req, derive_id(SpanKind::Request, "POST /jobs", NO_PARENT));
        let job = derive_id(SpanKind::Job, "job-1", req);
        assert_ne!(job, req);
        // A child derived independently elsewhere links to the same parent.
        let span = Span::new(SpanKind::Job, "job-1", req, 10, 20);
        assert_eq!(span.id, job);
        assert_eq!(span.parent, req);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            Span::new(SpanKind::Request, "POST /jobs", NO_PARENT, 5, 1200),
            Span::new(SpanKind::Epoch, "epoch-0", NO_PARENT, 0, 900_000),
        ];
        let mut text = String::new();
        for s in &spans {
            s.write_jsonl(&mut text);
        }
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"k\":\"request\""), "{text}");
        let back = read_spans_jsonl(&text).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Span::parse_jsonl("{\"k\":\"warp\"}").is_err());
        assert!(read_spans_jsonl("{\"k\":\"job\",\"id\":\"zz\"}").is_err());
    }

    #[test]
    fn flight_recorder_bounds_and_drains_in_order() {
        let rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for i in 0..5u64 {
            rec.record(Span::new(
                SpanKind::Request,
                &format!("r{i}"),
                NO_PARENT,
                i,
                1,
            ));
        }
        assert_eq!(rec.len(), 3);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "to_jsonl does not drain");
        let spans = rec.drain();
        assert!(rec.is_empty());
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["r2", "r3", "r4"], "oldest evicted, order kept");
    }
}
