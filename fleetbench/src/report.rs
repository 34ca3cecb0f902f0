//! Run settings, the metric catalogue, and the printed report.
//!
//! Every metric is printed by name with its unit, one per line; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! tracing off, the per-layer metrics in the traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use em_codec::json::Value;

use crate::fleet::CounterDelta;
use crate::load::{Failure, Outcome};
use crate::replay::Counts;
use crate::spans::Recorder;
use crate::stats;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Workload name.
    pub workload: String,
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: the measured time of one run.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// Available parallelism: generator threads, connections in flight,
    /// and the backends' worker pools together.
    pub nproc: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Working directory of this run (removed at the end).
    pub work: PathBuf,
    /// Where span files go (kept).
    pub out: PathBuf,
}

/// End-to-end metrics (tracing off) that `BENCHMARK.json` bounds, in
/// print order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_record", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed with tracing off but not bounded: on a
/// shared virtual machine wall-clock rates and latencies follow the
/// hypervisor's steal more than the program (see `LAYERS.md`).
const PRINTED_ONLY: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("records_per_s", "records/s"),
];

/// Per-layer metrics (traced run), in print order. `_us`/`_ms` are
/// median self times per call; `.share` is the layer's total self time
/// over the replayed total.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("em-route.owner_us", "us"),
    ("em-route.added_us", "us"),
    ("em-route.failovers", "count"),
    ("em-route.share", "ratio"),
    ("em-serve.read_us", "us"),
    ("em-serve.write_us", "us"),
    ("em-serve.cache_get_us", "us"),
    ("em-serve.cache_insert_us", "us"),
    ("em-serve.hit_ratio", "ratio"),
    ("em-serve.wait_ms", "ms"),
    ("em-serve.rejects", "count"),
    ("em-serve.share", "ratio"),
    ("em-codec.decode_us", "us"),
    ("em-codec.key_us", "us"),
    ("em-codec.encode_us", "us"),
    ("em-codec.explain_us", "us"),
    ("em-codec.body_bytes", "bytes"),
    ("em-codec.share", "ratio"),
    ("core.generate_us", "us"),
    ("core.features", "count"),
    ("core.share", "ratio"),
    ("em-lime.sample_us", "us"),
    ("em-lime.fit_us", "us"),
    ("em-lime.share", "ratio"),
    ("em-matchers.predict_us", "us"),
    ("em-matchers.prepare_us", "us"),
    ("em-matchers.score_us", "us"),
    ("em-matchers.masks", "count"),
    ("em-matchers.share", "ratio"),
    ("em-batch.compute_ms", "ms"),
    ("em-batch.write_ms", "ms"),
    ("em-batch.rename_ms", "ms"),
    ("em-batch.manifest_ms", "ms"),
    ("em-batch.commit_share", "ratio"),
    ("em-batch.share", "ratio"),
    ("bench.late_p95_ms", "ms"),
    ("bench.gen_late_p95_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Per-call metrics read off span names: (metric, span).
const SPAN_METRICS: [(&str, &str); 15] = [
    ("em-route.owner_us", "em-route.owner"),
    ("em-serve.read_us", "em-serve.read_request"),
    ("em-serve.write_us", "em-serve.to_wire"),
    ("em-serve.cache_get_us", "em-serve.cache_get"),
    ("em-serve.cache_insert_us", "em-serve.cache_insert"),
    ("em-codec.decode_us", "em-codec.decode_explain_request"),
    ("em-codec.key_us", "em-codec.cache_key"),
    ("em-codec.encode_us", "em-codec.to_json"),
    ("em-codec.explain_us", "em-codec.run_explain"),
    ("core.generate_us", "core.generate_view"),
    ("em-lime.sample_us", "em-lime.sample"),
    ("em-lime.fit_us", "em-lime.fit_surrogate"),
    ("em-matchers.predict_us", "em-matchers.predict_proba"),
    ("em-matchers.prepare_us", "em-matchers.prepare_scorer"),
    ("em-matchers.score_us", "em-matchers.score_mask"),
];

/// Layers whose share of the replayed total is reported.
const SHARE_LAYERS: [&str; 7] = [
    "em-route",
    "em-serve",
    "em-codec",
    "core",
    "em-lime",
    "em-matchers",
    "em-batch",
];

/// Samples per latency block: the fewest that keep ten beyond a p95.
pub const BLOCK_SAMPLES: usize = 200;

/// Length of one throughput window, seconds.
pub const WINDOW_SECS: f64 = 0.5;

/// Root span of one replayed request (or batch shard).
pub const REPLAY_ROOT: &str = "replay.request";

/// Generator lateness p95 above which a phase is flagged: the generator
/// itself, not busy connections, delayed the schedule.
const GENERATOR_LATE_FLAG_MS: f64 = 1.0;

/// Median self times per span name and self-time totals per layer.
#[derive(Debug, Clone)]
pub struct Layers {
    median_us: BTreeMap<&'static str, f64>,
    totals: BTreeMap<&'static str, u64>,
    replayed_ns: u64,
}

impl Layers {
    /// Reads a recorder's spans.
    pub fn from_recorder(rec: &Recorder) -> Layers {
        let median_us = rec
            .self_times_by_name()
            .into_iter()
            .map(|(name, ns)| {
                let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
                (name, stats::median(&us))
            })
            .collect();
        let (totals, replayed_ns) = rec.layer_totals(REPLAY_ROOT);
        Layers {
            median_us,
            totals,
            replayed_ns,
        }
    }

    /// Median self time of calls to `span`, µs (0 when never called).
    pub fn median_us(&self, span: &str) -> f64 {
        self.median_us.get(span).copied().unwrap_or(0.0)
    }

    fn share(&self, layer: &str) -> f64 {
        let total = self.totals.get(layer).copied().unwrap_or(0);
        total as f64 / self.replayed_ns.max(1) as f64
    }
}

/// A run's result: metrics, counts and the correctness verdict.
#[derive(Debug, Clone)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    notes: Vec<String>,
}

/// User plus system CPU time of this process and its finished threads,
/// in seconds. Time a hypervisor stole is not charged to it.
pub fn cpu_secs() -> f64 {
    // Fields after the command name: state is field 3, utime 14, stime
    // 15; both count USER_HZ ticks, which Linux fixes at 100 per second.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<f64> = s
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some(fields.iter().sum::<f64>() / 100.0)
        })
        .unwrap_or(0.0)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) jiffies of all CPUs from `/proc/stat`: how much of
/// the machine a hypervisor took away, for reading a run's noise.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PRINTED_ONLY.iter())
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

impl Report {
    /// A report over `attempted` operations of which `failed` failed.
    pub fn new(attempted: usize, failed: usize) -> Report {
        Report {
            metrics: BTreeMap::new(),
            attempted,
            failed,
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets a per-layer metric (unit from the catalogue).
    pub fn per_layer(&mut self, name: &str, value: f64) {
        self.metric(name, value, unit_of(name));
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check: the run exits non-zero.
    pub fn fail_check(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup(&mut self, times: &[f64]) {
        self.metric("setup_s", stats::median(times), "s");
        self.note(format!("setup: {} rounds, {:?} s", times.len(), times));
    }

    /// `p50_ms` and `p95_ms` from latencies in schedule order: each
    /// block of [`BLOCK_SAMPLES`] consecutive requests yields its own p50
    /// and p95, and the metric is the median over blocks, so a transient
    /// stall of the shared host moves a few blocks rather than the
    /// metric. The pooled percentiles and sample counts go to the notes.
    pub fn latency(&mut self, in_order: &[f64]) {
        let pooled = stats::sorted(in_order.to_vec());
        if let Some(p95) = stats::percentile(&pooled, 0.95) {
            let best = stats::highest_supported(&pooled);
            self.note(format!(
                "latency: n={}, pooled p50 {:.4} ms, pooled p95 {:.4} ms with {} samples beyond; highest supported percentile: {}",
                p95.n,
                stats::percentile(&pooled, 0.5).map_or(0.0, |p| p.value),
                p95.value,
                p95.beyond,
                best.map_or("none".to_string(), |b| format!("p{} = {:.4} ms", b.p * 100.0, b.value)),
            ));
        }
        let mut p50s = Vec::new();
        let mut p95s = Vec::new();
        let n_blocks = (in_order.len() / BLOCK_SAMPLES).max(1);
        for block in stats::blocks(in_order, n_blocks) {
            let sorted = stats::sorted(block.to_vec());
            let (Some(p50), Some(p95)) = (
                stats::percentile(&sorted, 0.5),
                stats::percentile(&sorted, 0.95),
            ) else {
                continue;
            };
            if !p95.supported() {
                self.note(format!(
                    "UNSUPPORTED: a block p95 has {} samples beyond it (n={})",
                    p95.beyond, p95.n
                ));
            }
            p50s.push(p50.value);
            p95s.push(p95.value);
        }
        self.note(format!(
            "{} blocks: p50s {p50s:.4?} ms; p95s {p95s:.4?} ms",
            p50s.len()
        ));
        self.metric("p50_ms", stats::median(&p50s), "ms");
        self.metric("p95_ms", stats::median(&p95s), "ms");
    }

    /// A rate metric: the median of its per-window values.
    pub fn rate(&mut self, name: &str, per_block: &[f64], unit: &'static str) {
        self.note(format!("{name} per window {per_block:.2?}"));
        self.metric(name, stats::median(per_block), unit);
    }

    /// Generator lateness of an open-loop phase; flags the phase when
    /// the generator itself, not busy connections, ran late. The first
    /// phase reported supplies `bench.late_p95_ms`.
    pub fn lateness(&mut self, outcomes: &[Outcome], phase: &str) {
        let p95 = |v: Vec<f64>| stats::percentile(&stats::sorted(v), 0.95).map_or(0.0, |p| p.value);
        let late = p95(outcomes.iter().map(Outcome::late_ms).collect());
        let generator = p95(outcomes.iter().map(Outcome::generator_late_ms).collect());
        if !self.metrics.contains_key("bench.late_p95_ms") {
            self.per_layer("bench.late_p95_ms", late);
            self.per_layer("bench.gen_late_p95_ms", generator);
        }
        self.note(format!(
            "{phase}: late p95 {late:.4} ms against the schedule, {generator:.4} ms of it with a connection free{}",
            if generator > GENERATOR_LATE_FLAG_MS {
                " — FLAG: the generator itself ran late"
            } else {
                ""
            }
        ));
    }

    /// Failures by type next to the fleet's counters.
    pub fn failures(&mut self, table: &BTreeMap<Failure, usize>, delta: &CounterDelta) {
        let ours: Vec<String> = table
            .iter()
            .map(|(f, n)| format!("{}={n}", f.label()))
            .collect();
        let rejects: Vec<String> = delta
            .rejects
            .iter()
            .map(|(cause, n)| format!("{cause}={n}"))
            .collect();
        self.note(format!(
            "failures: [{}]; em_serve_rejects_total: [{}]; em_route ok={} non_2xx={} failovers={}",
            ours.join(" "),
            rejects.join(" "),
            delta.route_ok,
            delta.route_non_2xx,
            delta.failovers
        ));
    }

    /// Sets every span-derived per-layer metric and the layer shares.
    pub fn layer_metrics(&mut self, layers: &Layers, counts: &Counts, replayed: usize) {
        for (metric, span) in SPAN_METRICS {
            self.per_layer(metric, layers.median_us(span));
        }
        for layer in SHARE_LAYERS {
            self.per_layer(&format!("{layer}.share"), layers.share(layer));
        }
        self.per_layer("core.features", stats::median(&counts.features));
        self.per_layer(
            "em-matchers.masks",
            counts.masks as f64 / replayed.max(1) as f64,
        );
    }

    /// Writes the recorder's spans next to the run's working directory.
    pub fn write_spans(&mut self, rec: &Recorder, runner: &Runner) -> std::io::Result<()> {
        let path = runner.out.join(format!("spans-{}.jsonl", runner.workload));
        rec.write_jsonl(&path)?;
        self.note(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        Ok(())
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the report; the last line is the JSON result.
    pub fn print(&self, trace: bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.problems {
            println!("# CHECK FAILED: {problem}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac = {fail_frac} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let value = |name: &str| {
            let v = self.metrics.get(name).map_or(0.0, |(v, _)| *v);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        if !trace {
            for (name, unit) in PRINTED_ONLY {
                println!("{name} = {} {unit}", value(name));
            }
        }
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            println!("{name} = {} {unit}", value(name));
            metrics.push((
                name.to_string(),
                Value::object(vec![
                    ("value", value(name).into()),
                    ("unit", Value::string(*unit)),
                ]),
            ));
        }
        let result = Value::object(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Object(metrics)),
        ]);
        println!("{}", result.to_json());
    }
}
