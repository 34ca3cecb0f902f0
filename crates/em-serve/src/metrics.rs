//! Lock-free request counters and latency histograms for `/metrics`.
//!
//! Rendered in the Prometheus text exposition format (counters and
//! cumulative `_bucket{le=...}` histogram series) so any standard scraper
//! can consume it, while staying dependency-free: every cell is an
//! `AtomicU64` bumped on the request path, and every histogram is an
//! [`em_obs::Histogram`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use em_obs::Histogram;

use crate::cache::CacheStats;

/// The endpoints tracked individually. `Other` covers 404/405/parse
/// failures so every handled connection is counted somewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /explain`.
    Explain,
    /// `POST /predict`.
    Predict,
    /// `GET /healthz`.
    Healthz,
    /// `GET /readyz`.
    Readyz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /drain`.
    Drain,
    /// `POST /shutdown`.
    Shutdown,
    /// Anything else.
    Other,
}

impl Endpoint {
    /// All endpoints, in render order.
    pub fn all() -> [Endpoint; 8] {
        [
            Endpoint::Explain,
            Endpoint::Predict,
            Endpoint::Healthz,
            Endpoint::Readyz,
            Endpoint::Metrics,
            Endpoint::Drain,
            Endpoint::Shutdown,
            Endpoint::Other,
        ]
    }

    /// The metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Explain => "explain",
            Endpoint::Predict => "predict",
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Metrics => "metrics",
            Endpoint::Drain => "drain",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    /// Dense index for array-backed tables: the declaration order,
    /// which is also the order of `all()`.
    fn index(self) -> usize {
        self as usize
    }
}

/// Why a connection was rejected or abandoned instead of being served
/// normally. Each cause is one `em_serve_rejects_total{cause=...}`
/// counter, so an operator (or the chaos suite) can attribute every
/// misbehaving-client pattern to its specific defence (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// Queue full: 503 + `Retry-After` written from the accept thread.
    Shed,
    /// Queue full and the non-blocking 503 write did not complete; the
    /// connection was dropped rather than blocking the accept loop.
    ShedDrop,
    /// Queued longer than the admission bound; discarded unanswered
    /// because the client has almost certainly timed out.
    StaleQueue,
    /// Deadline expired before the client sent a single byte
    /// (connect-and-hold).
    Idle,
    /// Deadline expired while reading the request line or headers
    /// (slowloris header drip).
    HeaderDeadline,
    /// Deadline expired while reading the declared body (body drip).
    BodyDeadline,
    /// Deadline expired while writing the response (never-reading peer).
    WriteDeadline,
    /// The peer closed or reset the connection mid-request.
    PeerAbort,
}

impl RejectCause {
    /// All causes, in render order.
    pub fn all() -> [RejectCause; 8] {
        [
            RejectCause::Shed,
            RejectCause::ShedDrop,
            RejectCause::StaleQueue,
            RejectCause::Idle,
            RejectCause::HeaderDeadline,
            RejectCause::BodyDeadline,
            RejectCause::WriteDeadline,
            RejectCause::PeerAbort,
        ]
    }

    /// The `cause` label value.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::Shed => "shed",
            RejectCause::ShedDrop => "shed_drop",
            RejectCause::StaleQueue => "stale_queue",
            RejectCause::Idle => "idle",
            RejectCause::HeaderDeadline => "header_deadline",
            RejectCause::BodyDeadline => "body_deadline",
            RejectCause::WriteDeadline => "write_deadline",
            RejectCause::PeerAbort => "peer_abort",
        }
    }

    /// Dense index for array-backed tables: the declaration order,
    /// which is also the order of `all()`.
    fn index(self) -> usize {
        self as usize
    }
}

/// One endpoint: its error counter and its latency histogram (whose
/// count is the endpoint's request count).
#[derive(Debug, Default)]
struct EndpointSeries {
    errors: AtomicU64,
    latency: Histogram,
}

/// The registry: one series per endpoint plus one histogram per pipeline
/// stage ([`em_obs::Stage`]).
#[derive(Debug, Default)]
pub struct Metrics {
    series: [EndpointSeries; 8],
    stages: [Histogram; em_obs::N_STAGES],
    slow_requests: AtomicU64,
    rejects: [AtomicU64; 8],
}

impl Metrics {
    /// A fresh registry with all counters at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one request: its endpoint, latency, and whether it was
    /// answered with a non-2xx status.
    pub fn record(&self, endpoint: Endpoint, latency_us: u64, is_error: bool) {
        if let Some(series) = self.series.get(endpoint.index()) {
            series.latency.observe(latency_us);
            if is_error {
                series.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total requests recorded for an endpoint.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.series
            .get(endpoint.index())
            .map_or(0, |s| s.latency.count())
    }

    /// Folds one request's per-stage timings (an [`em_obs::Collector`]
    /// filled during `/explain`) into the stage histograms: one
    /// observation per stage, the request's total time in it. Stages the
    /// request never entered (e.g. everything on a cache hit) are skipped
    /// rather than observed as zeros.
    pub fn record_explain_stages(&self, trace: &em_obs::Collector) {
        for (histogram, stage) in self.stages.iter().zip(em_obs::Stage::all()) {
            if trace.stage_entries(stage) > 0 {
                histogram.observe(trace.stage_nanos(stage) / 1_000);
            }
        }
    }

    /// Counts one request that exceeded the slow-request threshold.
    pub fn record_slow(&self) {
        self.slow_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests counted by [`Metrics::record_slow`].
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// Counts one rejected/abandoned connection under its cause. Rejects
    /// are deliberately **not** latency observations: a shed or reaped
    /// connection has no meaningful service latency, and recording a
    /// fabricated one (the old `0 µs` shed sample) drags the latency
    /// percentiles toward zero exactly when the server is overloaded.
    pub fn record_reject(&self, cause: RejectCause) {
        if let Some(cell) = self.rejects.get(cause.index()) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Connections counted by [`Metrics::record_reject`] for a cause.
    pub fn rejects(&self, cause: RejectCause) -> u64 {
        self.rejects
            .get(cause.index())
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Renders the Prometheus text exposition, including the cache
    /// counters passed in (the cache lives next to the registry in the
    /// server state).
    pub fn render(&self, cache: &CacheStats, cache_len: usize) -> String {
        let mut out = String::new();
        let endpoints = || Endpoint::all().into_iter().zip(&self.series);
        out.push_str("# TYPE em_serve_requests_total counter\n");
        for (ep, s) in endpoints() {
            let n = s.latency.count();
            let _ = writeln!(
                out,
                "em_serve_requests_total{{endpoint=\"{}\"}} {n}",
                ep.label()
            );
        }
        out.push_str("# TYPE em_serve_request_errors_total counter\n");
        for (ep, s) in endpoints() {
            let n = s.errors.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "em_serve_request_errors_total{{endpoint=\"{}\"}} {n}",
                ep.label()
            );
        }
        out.push_str("# TYPE em_serve_request_latency_us histogram\n");
        for (ep, s) in endpoints() {
            let labels = format!("endpoint=\"{}\"", ep.label());
            s.latency
                .render_into(&mut out, "em_serve_request_latency_us", &labels);
        }
        out.push_str("# TYPE em_serve_stage_latency_us histogram\n");
        for (stage, h) in em_obs::Stage::all().into_iter().zip(&self.stages) {
            let labels = format!("stage=\"{}\"", stage.label());
            h.render_into(&mut out, "em_serve_stage_latency_us", &labels);
        }
        out.push_str("# TYPE em_serve_rejects_total counter\n");
        for (cause, cell) in RejectCause::all().into_iter().zip(&self.rejects) {
            let n = cell.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "em_serve_rejects_total{{cause=\"{}\"}} {n}",
                cause.label()
            );
        }
        let totals = [
            ("em_serve_slow_requests_total", &self.slow_requests),
            ("em_serve_cache_hits_total", &cache.hits),
            ("em_serve_cache_misses_total", &cache.misses),
            ("em_serve_cache_evictions_total", &cache.evictions),
        ];
        for (name, cell) in totals {
            let n = cell.load(Ordering::Relaxed);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {n}");
        }
        out.push_str("# TYPE em_serve_cache_entries gauge\n");
        let _ = writeln!(out, "em_serve_cache_entries {cache_len}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_the_right_bucket() {
        let m = Metrics::new();
        m.record(Endpoint::Explain, 50, false); // <= 100
        m.record(Endpoint::Explain, 700, false); // <= 1000
        m.record(Endpoint::Explain, 10_000_000, true); // overflow bucket
        assert_eq!(m.requests(Endpoint::Explain), 3);
        let text = m.render(&CacheStats::default(), 0);
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"100\"} 1")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"1000\"} 2")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"explain\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("em_serve_request_errors_total{endpoint=\"explain\"} 1"));
        assert!(text.contains("em_serve_request_latency_us_count{endpoint=\"explain\"} 3"));
    }

    #[test]
    fn buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        for us in [50, 50, 400, 900, 4000] {
            m.record(Endpoint::Predict, us, false);
        }
        let text = m.render(&CacheStats::default(), 0);
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"100\"} 2")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"500\"} 3")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"1000\"} 4")
        );
        assert!(
            text.contains("em_serve_request_latency_us_bucket{endpoint=\"predict\",le=\"5000\"} 5")
        );
    }

    #[test]
    fn stage_histograms_render_per_stage_series() {
        use em_obs::{Stage, Tracer};
        let m = Metrics::new();
        let trace = em_obs::Collector::new();
        trace.record_stage(Stage::ModelScoring, 2_000_000); // 2000 us
        trace.record_stage(Stage::SurrogateFit, 50_000); // 50 us
        m.record_explain_stages(&trace);
        m.record_slow();
        let text = m.render(&CacheStats::default(), 0);
        assert!(text
            .contains("em_serve_stage_latency_us_bucket{stage=\"model_scoring\",le=\"5000\"} 1"));
        assert!(text.contains("em_serve_stage_latency_us_sum{stage=\"model_scoring\"} 2000"));
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"model_scoring\"} 1"));
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"surrogate_fit\"} 1"));
        // Stages the request never entered still render (at zero).
        assert!(text.contains("em_serve_stage_latency_us_count{stage=\"tokenize\"} 0"));
        assert!(text.contains("em_serve_slow_requests_total 1"));
        assert_eq!(m.slow_requests(), 1);
    }

    #[test]
    fn cache_counters_are_rendered() {
        let m = Metrics::new();
        let stats = CacheStats::default();
        stats.hits.store(7, Ordering::Relaxed);
        stats.misses.store(3, Ordering::Relaxed);
        let text = m.render(&stats, 5);
        assert!(text.contains("em_serve_cache_hits_total 7"));
        assert!(text.contains("em_serve_cache_misses_total 3"));
        assert!(text.contains("em_serve_cache_entries 5"));
    }

    #[test]
    fn rejects_render_per_cause_without_latency_samples() {
        let m = Metrics::new();
        m.record_reject(RejectCause::Shed);
        m.record_reject(RejectCause::Shed);
        m.record_reject(RejectCause::HeaderDeadline);
        assert_eq!(m.rejects(RejectCause::Shed), 2);
        assert_eq!(m.rejects(RejectCause::HeaderDeadline), 1);
        let text = m.render(&CacheStats::default(), 0);
        assert!(text.contains("# TYPE em_serve_rejects_total counter"));
        assert!(text.contains("em_serve_rejects_total{cause=\"shed\"} 2"));
        assert!(text.contains("em_serve_rejects_total{cause=\"header_deadline\"} 1"));
        // Every cause renders a series even at zero, so scrapers see the
        // full taxonomy from the first scrape.
        for cause in RejectCause::all() {
            assert!(text.contains(&format!(
                "em_serve_rejects_total{{cause=\"{}\"}}",
                cause.label()
            )));
        }
        // Regression (shed-path metrics pollution): a reject is not a
        // latency observation — no endpoint series moved.
        for ep in Endpoint::all() {
            assert_eq!(m.requests(ep), 0);
        }
        assert!(text.contains("em_serve_request_latency_us_count{endpoint=\"other\"} 0"));
    }

    /// The full exposition for a fixed observation sequence, byte for
    /// byte: a value equal to a bucket bound lands in that bucket, a value
    /// above the last bound only in `+Inf`, and a stage the request never
    /// entered renders at zero.
    #[test]
    fn render_matches_the_golden_exposition() {
        use em_obs::{Stage, Tracer};
        let m = Metrics::new();
        m.record(Endpoint::Explain, 100, false); // == first bound
        m.record(Endpoint::Explain, 6_000_000, true); // above the last bound
        m.record(Endpoint::Predict, 499, false);
        m.record(Endpoint::Other, 0, true);
        let trace = em_obs::Collector::new();
        trace.record_stage(Stage::ModelScoring, 4_000_000);
        trace.record_stage(Stage::ModelScoring, 1_000_000); // 5000 us in total == a bound
        trace.record_stage(Stage::SurrogateFit, 7_000_000_000); // above the last bound
        m.record_explain_stages(&trace); // Tokenize never entered
        m.record_reject(RejectCause::Shed);
        m.record_reject(RejectCause::HeaderDeadline);
        m.record_reject(RejectCause::HeaderDeadline);
        m.record_slow();
        let cache = CacheStats::default();
        cache.hits.store(3, Ordering::Relaxed);
        cache.misses.store(2, Ordering::Relaxed);
        cache.evictions.store(1, Ordering::Relaxed);
        assert_eq!(
            m.render(&cache, 4),
            include_str!("../tests/golden/metrics.prom")
        );
    }

    #[test]
    fn every_endpoint_has_a_requests_series() {
        let text = Metrics::new().render(&CacheStats::default(), 0);
        for ep in Endpoint::all() {
            assert!(text.contains(&format!(
                "em_serve_requests_total{{endpoint=\"{}\"}} 0",
                ep.label()
            )));
        }
    }
}
