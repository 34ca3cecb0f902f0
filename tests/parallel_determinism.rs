//! Serial and parallel execution must be bit-identical at every level of
//! the pipeline: one explanation and a full evaluation run. (Mask scoring
//! itself is pinned by `em-entity`'s model tests and `property_kernel`.)

use landmark_explanation::eval::{EvalConfig, Evaluator};
use landmark_explanation::landmark::LandmarkConfig;
use landmark_explanation::prelude::*;

fn setup() -> (EmDataset, LogisticMatcher) {
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SWa);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    (dataset, matcher)
}

#[test]
fn landmark_explanations_are_identical_for_any_thread_count() {
    let (dataset, matcher) = setup();
    let record = &dataset.records()[1].pair;
    let explain = |parallelism: ParallelismConfig| {
        LandmarkExplainer::new(LandmarkConfig {
            n_samples: 200,
            parallelism,
            ..Default::default()
        })
        .explain(&matcher, dataset.schema(), record, noop())
    };
    let serial = explain(ParallelismConfig::serial());
    for threads in [0, 2, 3, 8] {
        let parallel = explain(ParallelismConfig::with_threads(threads));
        for (a, b) in serial.both().iter().zip(parallel.both().iter()) {
            assert_eq!(a.explanation.token_weights, b.explanation.token_weights);
            assert_eq!(a.explanation.intercept, b.explanation.intercept);
            assert_eq!(a.explanation.surrogate_r2, b.explanation.surrogate_r2);
            assert_eq!(a.injected, b.injected);
        }
    }
}

#[test]
fn dataset_evaluation_is_identical_for_any_thread_count() {
    let base = EvalConfig {
        scale: 0.05,
        n_records_per_label: 4,
        n_samples: 60,
        ..Default::default()
    };
    let run = |parallelism: ParallelismConfig| {
        Evaluator::new(EvalConfig {
            parallelism,
            ..base
        })
        .evaluate_dataset(DatasetId::SBr)
    };
    let serial = run(ParallelismConfig::serial());
    let parallel = run(ParallelismConfig::with_threads(4));
    for (a, b) in [
        (&serial.matching, &parallel.matching),
        (&serial.non_matching, &parallel.non_matching),
    ] {
        assert_eq!(a.n_records, b.n_records);
        for (x, y) in a.techniques.iter().zip(&b.techniques) {
            assert_eq!(x.technique, y.technique);
            assert_eq!(x.token, y.token);
            assert_eq!(x.attr_tau.to_bits(), y.attr_tau.to_bits());
            assert_eq!(x.interest.to_bits(), y.interest.to_bits());
        }
    }
}
