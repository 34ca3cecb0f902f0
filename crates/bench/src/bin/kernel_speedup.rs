//! Naive-vs-prepared scoring kernel speedup report.
//!
//! Explains the same records twice with a **serial** `LandmarkExplainer`:
//!
//! 1. **naive** — through [`NaiveOnly`], a wrapper that forwards only
//!    `predict_proba` and therefore falls back to the default
//!    reconstruct-then-extract scorer (`FallbackScorer`);
//! 2. **kernel** — through the matcher itself, whose `prepare_scorer`
//!    override precomputes per-record state once and scores each mask
//!    incrementally.
//!
//! The two runs must produce bit-identical explanations (the report
//! verifies every token weight and intercept and exits non-zero on any
//! difference); only wall-clock differs. The measured single-thread
//! speedup is what `perf_gate` guards against regression in CI.
//!
//! Run with: `cargo run --release -p bench --bin kernel_speedup`
//!
//! Environment: `SCALE`, `RECORDS`, `SAMPLES` as usual (see `bench`
//! crate docs); `DATASETS` selects the dataset (default `T-AB`, the
//! Textual family where TF-IDF state dominates); `KERNEL_BENCH_OUT`
//! sets the JSON report path (default `BENCH_kernel.json`).

use std::time::Instant;

use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, MatchModel, Schema, SplitConfig};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use landmark_core::{DualExplanation, LandmarkConfig, LandmarkExplainer};

/// Forwards only `predict_proba`, hiding the wrapped matcher's
/// `prepare_scorer` override so the default [`em_entity::FallbackScorer`]
/// (reconstruct each pair, extract features from scratch) is used.
struct NaiveOnly<'m, M>(&'m M);

impl<M: MatchModel> MatchModel for NaiveOnly<'_, M> {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        self.0.predict_proba(schema, pair)
    }
}

fn main() {
    let base = bench::config_from_env();
    let id = match std::env::var("DATASETS") {
        Ok(_) => bench::datasets_from_env()[0],
        Err(_) => DatasetId::TAb,
    };
    println!(
        "# Prepared-kernel vs naive scoring speedup (dataset {}, single thread)",
        id.short_name()
    );
    println!(
        "# scale={}, records/label={}, samples/explanation={}\n",
        base.scale, base.n_records_per_label, base.n_samples
    );

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
    let schema = dataset.schema();

    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<EntityPair> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .map(|r| r.pair.clone())
        .collect();

    let explainer = LandmarkExplainer::new(LandmarkConfig {
        n_samples: base.n_samples,
        parallelism: ParallelismConfig::serial(),
        ..Default::default()
    });
    let explain_all = |model: &dyn Fn(&EntityPair) -> DualExplanation| {
        let start = Instant::now();
        let duals: Vec<DualExplanation> = records.iter().map(model).collect();
        (start.elapsed().as_secs_f64(), duals)
    };

    let (naive_s, naive) =
        explain_all(&|pair| explainer.explain(&NaiveOnly(&matcher), schema, pair, em_obs::noop()));
    let (kernel_s, kernel) =
        explain_all(&|pair| explainer.explain(&matcher, schema, pair, em_obs::noop()));

    let identical = naive.iter().zip(&kernel).all(|(a, b)| {
        a.both().iter().zip(b.both().iter()).all(|(x, y)| {
            x.explanation.token_weights == y.explanation.token_weights
                && x.explanation.intercept == y.explanation.intercept
                && x.explanation.model_prediction == y.explanation.model_prediction
        })
    });
    let speedup = naive_s / kernel_s.max(1e-9);

    println!("  naive (fallback): {naive_s:>8.3} s");
    println!("  prepared kernel:  {kernel_s:>8.3} s");
    println!("  speedup:          {speedup:>8.2}x");
    println!(
        "  bit-identical explanations: {}",
        if identical { "yes" } else { "NO" }
    );

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("records", Value::from(records.len())),
        ("samples", Value::from(base.n_samples)),
        ("naive_s", Value::from(naive_s)),
        ("kernel_s", Value::from(kernel_s)),
        ("speedup", Value::from(speedup)),
        ("bit_identical", Value::from(identical)),
    ]);
    let out = std::env::var("KERNEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".into());
    std::fs::write(&out, report.to_json() + "\n").expect("write kernel bench report");
    println!("\n  report written to {out}");

    if !identical {
        eprintln!("\nERROR: kernel and naive explanations diverged");
        std::process::exit(1);
    }
}
