//! Criterion: end-to-end explanation latency per technique.
//!
//! One explanation = perturbation sampling + N record reconstructions +
//! N black-box predictions + surrogate fit. This bench tracks the cost of
//! the four techniques of the paper on a realistic product record.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, MatchModel};
use em_eval::technique::explain_record;
use em_eval::Technique;
use em_matchers::{LogisticMatcher, MatcherConfig};

fn setup() -> (em_entity::Schema, LogisticMatcher, EntityPair) {
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SWa);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let record = dataset
        .records()
        .iter()
        .find(|r| !r.label)
        .expect("non-match")
        .pair
        .clone();
    (dataset.schema().clone(), matcher, record)
}

fn bench_explainers(c: &mut Criterion) {
    let (schema, matcher, record) = setup();
    let mut group = c.benchmark_group("explain_one_record");
    group.sample_size(10);
    for technique in Technique::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(technique.label()),
            &technique,
            |b, &t| {
                b.iter(|| explain_record(t, &matcher, &schema, &record, 200, 0));
            },
        );
    }
    group.finish();
}

fn bench_sample_budget(c: &mut Criterion) {
    let (schema, matcher, record) = setup();
    let mut group = c.benchmark_group("landmark_single_by_samples");
    group.sample_size(10);
    for n_samples in [100usize, 250, 500] {
        group.bench_with_input(
            BenchmarkId::from_parameter(n_samples),
            &n_samples,
            |b, &n| {
                b.iter(|| {
                    explain_record(Technique::LandmarkSingle, &matcher, &schema, &record, n, 0)
                });
            },
        );
    }
    group.finish();
}

fn bench_model_prediction(c: &mut Criterion) {
    let (schema, matcher, record) = setup();
    c.bench_function("matcher_predict_proba", |b| {
        b.iter(|| matcher.predict_proba(&schema, &record));
    });
}

criterion_group!(
    benches,
    bench_explainers,
    bench_sample_budget,
    bench_model_prediction
);
criterion_main!(benches);
