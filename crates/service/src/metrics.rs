//! The lock-light metrics registry behind `GET /metrics` and `/stats`.
//!
//! Every counter is a plain [`AtomicU64`] and every histogram the shared
//! lock-free [`AtomicHistogram`] of `noc-telemetry`: recording
//! on the hot serving paths is a handful of relaxed atomic adds, and a
//! scrape only *reads* — it can never block submission, which the
//! concurrent-scrape integration test pins down. The job numbers — the
//! jobs-by-state breakdown and the accepted and busy totals derived from
//! it — are the job table's own counters, read at render time and passed
//! in as a [`GaugeView`].
//!
//! The exposition is the Prometheus text format, version 0.0.4: `# HELP`
//! / `# TYPE` comment lines, `_total` counters, and histograms with
//! cumulative `le` buckets whose `+Inf` bucket always equals `_count`.

use crate::http::Target;
use crate::jobs::JobCounts;
use noc_telemetry::AtomicHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Request-latency histogram buckets: powers of two in µs. The last
/// finite bound is 2^28 µs ≈ 268 s, far beyond any sane request; longer
/// requests land only in `+Inf`.
const LATENCY_BUCKETS: usize = 28;

/// A per-endpoint request-latency histogram (µs) on the shared atomic
/// record path.
type LatencyHistogram = AtomicHistogram<LATENCY_BUCKETS>;

/// Appends the cumulative `_bucket`/`_sum`/`_count` sample lines of `hist`
/// for one labelled series.
fn render_histogram(out: &mut String, hist: &LatencyHistogram, name: &str, label: &str) {
    use std::fmt::Write;
    let mut cumulative = 0u64;
    for (i, n) in hist.bucket_counts().enumerate() {
        cumulative += n;
        let le = 1u64 << (i + 1);
        let _ = writeln!(out, "{name}_bucket{{{label},le=\"{le}\"}} {cumulative}");
    }
    // `+Inf` must equal `_count` even while observations race the
    // scrape: read count once and reuse it for both lines.
    let count = hist.count();
    let _ = writeln!(out, "{name}_bucket{{{label},le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{name}_sum{{{label}}} {}", hist.sum());
    let _ = writeln!(out, "{name}_count{{{label}}} {count}");
}

/// The endpoint classes the per-endpoint request histograms distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /jobs`
    Submit,
    /// `GET /jobs/{id}`
    Status,
    /// `GET /jobs/{id}/result`, waited (`?wait_ms=N`) or not
    Result,
    /// `DELETE /jobs/{id}`
    Cancel,
    /// `GET /stats`
    Stats,
    /// `GET /metrics`
    Metrics,
    /// `POST /shutdown`
    Shutdown,
    /// Anything else (404s, bad methods, unparsable requests).
    Other,
}

impl Endpoint {
    /// Number of endpoint classes.
    pub const COUNT: usize = 8;

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Submit => "submit",
            Endpoint::Status => "status",
            Endpoint::Result => "result",
            Endpoint::Cancel => "cancel",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    /// Every class, in exposition order.
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Submit,
        Endpoint::Status,
        Endpoint::Result,
        Endpoint::Cancel,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// Classifies a request by method and parsed target.
    pub fn classify(method: &str, target: &Target<'_>) -> Endpoint {
        match (method, target.segments.as_slice()) {
            ("POST", ["jobs"]) => Endpoint::Submit,
            ("GET", ["jobs", _]) => Endpoint::Status,
            ("GET", ["jobs", _, "result"]) => Endpoint::Result,
            ("DELETE", ["jobs", _]) => Endpoint::Cancel,
            ("GET", ["stats"]) => Endpoint::Stats,
            ("GET", ["metrics"]) => Endpoint::Metrics,
            ("POST", ["shutdown"]) => Endpoint::Shutdown,
            _ => Endpoint::Other,
        }
    }
}

/// Point-in-time values sampled from the job table at render time (the
/// registry owns only its own counters and histograms).
#[derive(Debug, Clone, Copy)]
pub struct GaugeView {
    /// Whether `POST /jobs` is currently accepted.
    pub accepting: bool,
    /// The queue's capacity.
    pub queue_capacity: usize,
    /// Jobs by lifecycle state (`queued` is the queue length) and the
    /// submissions refused busy.
    pub jobs: JobCounts,
}

/// All counters and histograms the service records; shared by `/metrics`
/// and `/stats` so the two views can never disagree about what happened.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    worker_busy_us: AtomicU64,
    request_latency: [LatencyHistogram; Endpoint::COUNT],
}

impl MetricsRegistry {
    /// One more submission answered straight from the result cache.
    pub fn inc_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One more submission that consulted the cache and missed.
    pub fn inc_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds wall time a worker spent executing a job.
    pub fn add_worker_busy_us(&self, us: u64) {
        self.worker_busy_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one request's wall-clock latency.
    pub fn observe_request(&self, endpoint: Endpoint, us: u64) {
        self.request_latency[endpoint as usize].record(us);
    }

    /// Cache-answered submissions so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that missed so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Total wall time workers spent executing jobs, µs.
    pub fn worker_busy_us(&self) -> u64 {
        self.worker_busy_us.load(Ordering::Relaxed)
    }

    /// Renders the whole registry plus the sampled gauges as Prometheus
    /// text exposition.
    pub fn render(&self, gauges: &GaugeView) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };

        gauge(
            &mut out,
            "noc_accepting",
            "Whether POST /jobs is currently accepted (1) or draining (0).",
            u64::from(gauges.accepting),
        );
        gauge(
            &mut out,
            "noc_queue_len",
            "Jobs waiting in the bounded queue.",
            gauges.jobs.queued,
        );
        gauge(
            &mut out,
            "noc_queue_capacity",
            "Capacity of the bounded queue.",
            gauges.queue_capacity as u64,
        );

        let _ = writeln!(out, "# HELP noc_jobs Jobs by lifecycle state.");
        let _ = writeln!(out, "# TYPE noc_jobs gauge");
        let c = gauges.jobs;
        for (state, value) in [
            ("queued", c.queued),
            ("running", c.running),
            ("done", c.done),
            ("failed", c.failed),
            ("cancelled", c.cancelled),
            ("timed_out", c.timed_out),
            ("dropped", c.dropped),
        ] {
            let _ = writeln!(out, "noc_jobs{{state=\"{state}\"}} {value}");
        }

        counter(
            &mut out,
            "noc_accepted_total",
            "Jobs accepted with 202.",
            c.accepted(),
        );
        counter(
            &mut out,
            "noc_rejected_busy_total",
            "Submissions refused with 429 (queue full).",
            c.rejected_busy,
        );
        counter(
            &mut out,
            "noc_cache_hits_total",
            "Submissions answered straight from the result cache.",
            self.cache_hits(),
        );
        counter(
            &mut out,
            "noc_cache_misses_total",
            "Cache lookups that missed.",
            self.cache_misses(),
        );
        counter(
            &mut out,
            "noc_worker_busy_us_total",
            "Wall time workers spent executing jobs, in microseconds.",
            self.worker_busy_us(),
        );

        let _ = writeln!(
            out,
            "# HELP noc_request_duration_us Request wall-clock latency by endpoint, in microseconds; \
             waited result requests include their wait."
        );
        let _ = writeln!(out, "# TYPE noc_request_duration_us histogram");
        for endpoint in Endpoint::ALL {
            let label = format!("endpoint=\"{}\"", endpoint.label());
            render_histogram(
                &mut out,
                &self.request_latency[endpoint as usize],
                "noc_request_duration_us",
                &label,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> GaugeView {
        GaugeView {
            accepting: true,
            queue_capacity: 16,
            jobs: JobCounts {
                queued: 2,
                running: 1,
                done: 7,
                rejected_busy: 3,
                ..JobCounts::default()
            },
        }
    }

    #[test]
    fn endpoint_classification_matches_the_router() {
        let classify = |method: &str, raw: &str| {
            Endpoint::classify(method, &crate::http::parse_target(raw).unwrap())
        };
        assert_eq!(classify("POST", "/jobs"), Endpoint::Submit);
        assert_eq!(classify("GET", "/jobs/12"), Endpoint::Status);
        assert_eq!(classify("GET", "/jobs/12/result"), Endpoint::Result);
        assert_eq!(
            classify("GET", "/jobs/12/result?wait_ms=900"),
            Endpoint::Result
        );
        assert_eq!(classify("DELETE", "/jobs/12"), Endpoint::Cancel);
        assert_eq!(classify("GET", "/stats"), Endpoint::Stats);
        assert_eq!(classify("GET", "/metrics"), Endpoint::Metrics);
        assert_eq!(classify("POST", "/shutdown"), Endpoint::Shutdown);
        assert_eq!(classify("GET", "/nope"), Endpoint::Other);
        assert_eq!(classify("PUT", "/jobs"), Endpoint::Other);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_equals_count() {
        let h = LatencyHistogram::default();
        for us in [1, 3, 3, 100, 5_000_000_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        let mut out = String::new();
        render_histogram(&mut out, &h, "m", "endpoint=\"x\"");
        let mut last = 0u64;
        let mut inf = None;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("m_bucket{endpoint=\"x\",le=\"") {
                let (le, val) = rest.split_once("\"} ").unwrap();
                let v: u64 = val.parse().unwrap();
                assert!(v >= last, "cumulative buckets must be monotone: {line}");
                last = v;
                if le == "+Inf" {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(5), "+Inf bucket equals _count");
        // The 5000-second outlier is beyond every finite bound.
        assert!(out.contains("le=\"268435456\"} 4"), "{out}");
        assert!(out.contains("m_count{endpoint=\"x\"} 5"), "{out}");
    }

    #[test]
    fn render_emits_help_type_and_all_series() {
        let reg = MetricsRegistry::default();
        reg.inc_cache_miss();
        reg.observe_request(Endpoint::Submit, 250);
        let text = reg.render(&view());
        for needle in [
            "# HELP noc_accepting",
            "# TYPE noc_accepting gauge",
            "noc_accepting 1",
            "noc_queue_len 2",
            "noc_queue_capacity 16",
            "noc_jobs{state=\"done\"} 7",
            "# TYPE noc_accepted_total counter",
            "noc_accepted_total 10",
            "noc_rejected_busy_total 3",
            "noc_cache_misses_total 1",
            "# TYPE noc_request_duration_us histogram",
            "noc_request_duration_us_count{endpoint=\"submit\"} 1",
            "noc_request_duration_us_bucket{endpoint=\"submit\",le=\"+Inf\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Every endpoint class appears even when empty.
        for e in Endpoint::ALL {
            let needle = format!("endpoint=\"{}\"", e.label());
            assert!(text.contains(&needle), "missing {needle}");
        }
    }
}
