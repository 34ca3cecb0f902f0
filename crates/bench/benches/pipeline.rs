//! Criterion: the per-stage cost of the Landmark Explanation pipeline
//! (Figure 2 of the paper): tokenization → mask sampling → pair
//! reconstruction → black-box scoring → surrogate fit.

use criterion::{criterion_group, criterion_main, Criterion};
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{tokenize_entity, EntitySide, MatchModel, PerturbSpec, SideSpec};
use em_lime::sampler::sample_masks;
use em_lime::surrogate::{fit_surrogate, SurrogateConfig};
use em_matchers::{LogisticMatcher, MatcherConfig};
use landmark_core::generate_view;
use landmark_core::strategy::ResolvedStrategy;

fn bench_pipeline_stages(c: &mut Criterion) {
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SWa);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let pair = dataset.records()[0].pair.clone();

    c.bench_function("stage_tokenize_entity", |b| {
        b.iter(|| tokenize_entity(&pair.left));
    });

    let view = generate_view(&pair, EntitySide::Left, ResolvedStrategy::DoubleEntity);
    c.bench_function("stage_generate_view_double", |b| {
        b.iter(|| generate_view(&pair, EntitySide::Left, ResolvedStrategy::DoubleEntity));
    });

    c.bench_function("stage_sample_masks_500", |b| {
        b.iter(|| sample_masks(view.tokens.len(), 500, 0));
    });

    let masks = sample_masks(view.tokens.len(), 500, 0);
    let spec = PerturbSpec::TokenDrop {
        pair: &pair,
        left: SideSpec::Fixed,
        right: SideSpec::Varying(&view.tokens),
    };
    c.bench_function("stage_reconstruct_500", |b| {
        b.iter(|| {
            masks
                .iter()
                .map(|m| spec.reconstruct(m, schema.len()))
                .collect::<Vec<_>>()
                .len()
        });
    });

    let reconstructed: Vec<_> = masks
        .iter()
        .map(|m| spec.reconstruct(m, schema.len()))
        .collect();
    let mut group = c.benchmark_group("stage_model_scoring_500");
    group.sample_size(10);
    let score_all = || -> Vec<f64> {
        reconstructed
            .iter()
            .map(|p| matcher.predict_proba(&schema, p))
            .collect()
    };
    group.bench_function("predict_proba", |b| b.iter(score_all));
    group.finish();

    let probs = score_all();
    c.bench_function("stage_surrogate_fit_500", |b| {
        b.iter(|| fit_surrogate(&masks, &probs, &SurrogateConfig::default()));
    });
}

criterion_group!(benches, bench_pipeline_stages);
criterion_main!(benches);
