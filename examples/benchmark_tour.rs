//! Tour of the synthetic Magellan benchmark (the paper's Table 1).
//!
//! Generates each of the twelve datasets at a reduced scale, prints its
//! Table 1 row, trains the logistic-regression matcher, and reports its
//! test-split F1 — demonstrating the full data → model pipeline that the
//! explanation experiments build on.
//!
//! Run with: `cargo run --release --example benchmark_tour`

use landmark_explanation::entity::SplitConfig;
use landmark_explanation::matchers::evaluate_matcher;
use landmark_explanation::prelude::*;

fn main() {
    let scale = 0.1;
    let benchmark = MagellanBenchmark::scaled(scale);
    println!("Generating the benchmark at scale {scale} (Table 1 shapes):\n");
    println!(
        "{:<7} {:<10} {:<20} {:>7} {:>8} {:>6}",
        "Dataset", "Type", "Source", "Size", "% Match", "F1"
    );

    for id in DatasetId::all() {
        let dataset = benchmark.generate(id);
        let (train, test) = dataset.train_test_split(&SplitConfig::default());
        let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
        let f1 = evaluate_matcher(&matcher, &test, 0.5).f1();
        println!(
            "{:<7} {:<10} {:<20} {:>7} {:>8.2} {:>6.3}",
            id.short_name(),
            id.dataset_type(),
            id.source_name(),
            dataset.len(),
            dataset.match_percentage(),
            f1
        );
    }

    println!(
        "\nFull-scale sizes (paper Table 1): run the report binary:\n\
         \tSCALE=1.0 cargo run --release -p bench --bin report"
    );
}
