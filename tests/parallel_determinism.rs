//! Serial and parallel execution must be bit-identical where the pipeline
//! forks: across records in a full evaluation run. (One explanation scores
//! its masks serially; em-codec's `threads_field_never_forks_an_explanation`
//! pins that.)

use landmark_explanation::eval::{EvalConfig, Evaluator};
use landmark_explanation::prelude::*;

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
