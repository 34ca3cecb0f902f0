//! Property tests for corpus-prepared training.
//!
//! Training fits the TF-IDF table and extracts every training row in one
//! corpus pass over interned token ids (DESIGN.md §11, "Training uses the
//! same id space"). Its contract is *bit-identity* with the per-pair path:
//! every row equals `FeatureExtractor::extract` on its record, so the
//! trained coefficients equal `LogisticModel::fit` over the naive rows.
//! These tests drive that contract with random schemas and values —
//! including non-ASCII tokens, tab and no-break-space separators,
//! punctuation-only tokens, empty values and repeated tokens — and with
//! every benchmark dataset.

use landmark_explanation::datagen::{DatasetId, MagellanBenchmark};
use landmark_explanation::entity::schema::Attribute;
use landmark_explanation::entity::{EmDataset, Entity, EntityPair, LabeledPair, Schema};
use landmark_explanation::linalg::logistic::{LogisticConfig, LogisticModel};
use landmark_explanation::linalg::Matrix;
use landmark_explanation::matchers::{FeatureExtractor, LogisticMatcher, MatcherConfig};
use proptest::prelude::*;

mod strategies;
use strategies::{attr_kind, attr_value, token};

/// Tokens off the ASCII fast path (final sigma, `ß`, dotted capital I,
/// accents) and punctuation-only or punctuation-edged tokens.
fn edge_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("ΟΔΟΣ".to_string()),
        Just("Σ".to_string()),
        Just("Straße".to_string()),
        Just("İstanbul".to_string()),
        Just("---".to_string()),
        Just("(Sony),".to_string()),
        Just("ÉCLAIR!".to_string()),
    ]
}

/// A value mixing ordinary and edge tokens (repeats are likely from the
/// small pool) under space, tab, no-break-space and doubled separators.
fn edge_value() -> impl Strategy<Value = String> {
    let piece = (
        prop_oneof![token(), edge_token()],
        prop_oneof![
            Just(" ".to_string()),
            Just("\t".to_string()),
            Just("\u{a0}".to_string()),
            Just("  ".to_string()),
        ],
    );
    prop::collection::vec(piece, 0..6)
        .prop_map(|pieces| pieces.into_iter().map(|(t, sep)| t + &sep).collect())
}

/// A random dataset of `n_records` pairs with alternating labels (both
/// classes present).
fn dataset(n_attrs: usize, n_records: usize) -> impl Strategy<Value = EmDataset> {
    let value = || prop_oneof![attr_value(), edge_value()];
    let entity = move || prop::collection::vec(value(), n_attrs).prop_map(Entity::new);
    (
        prop::collection::vec(attr_kind(), n_attrs),
        prop::collection::vec((entity(), entity()), n_records),
    )
        .prop_map(|(kinds, pairs)| {
            let schema = Schema::new(
                kinds
                    .into_iter()
                    .enumerate()
                    .map(|(i, kind)| Attribute {
                        name: format!("a{i}"),
                        kind,
                    })
                    .collect(),
            );
            let records = pairs
                .into_iter()
                .enumerate()
                .map(|(i, (l, r))| LabeledPair::new(EntityPair::new(l, r), i % 2 == 0))
                .collect();
            EmDataset::new("prop", schema, records)
        })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The corpus rows equal `extract` on every record, through both the
/// extractor `fit_transform` returns and the one `fit` returns.
fn assert_rows_match_extract(d: &EmDataset) {
    let (fx, x) = FeatureExtractor::fit_transform(d);
    let fitted = FeatureExtractor::fit(d);
    assert_eq!((x.rows(), x.cols()), (d.len(), d.schema().len()));
    for (i, record) in d.records().iter().enumerate() {
        let row = bits(x.row(i));
        assert_eq!(
            row,
            bits(&fx.extract(d.schema(), &record.pair)),
            "record {i}"
        );
        assert_eq!(
            row,
            bits(&fitted.extract(d.schema(), &record.pair)),
            "record {i}"
        );
    }
}

/// `LogisticMatcher::train` equals `LogisticModel::fit` over the naive
/// per-record rows, with the configuration `train` documents.
fn assert_train_matches_naive_fit(d: &EmDataset) {
    let config = MatcherConfig::default();
    let matcher = LogisticMatcher::train(d, &config);
    let fx = FeatureExtractor::fit(d);
    let rows: Vec<Vec<f64>> = d
        .records()
        .iter()
        .map(|r| fx.extract(d.schema(), &r.pair))
        .collect();
    let labels: Vec<bool> = d.records().iter().map(|r| r.label).collect();
    let mut lcfg = LogisticConfig::balanced_for(&labels);
    lcfg.lambda = config.lambda;
    lcfg.max_iter = config.max_iter;
    let naive = LogisticModel::fit(&Matrix::from_rows(&rows).unwrap(), &labels, &lcfg).unwrap();
    assert_eq!(bits(matcher.attribute_weights()), bits(&naive.coefficients));
    assert_eq!(matcher.intercept().to_bits(), naive.intercept.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_rows_are_bit_identical_to_extract(d in dataset(4, 8)) {
        assert_rows_match_extract(&d);
    }

    #[test]
    fn trained_coefficients_equal_a_fit_over_naive_rows(d in dataset(3, 10)) {
        assert_train_matches_naive_fit(&d);
    }
}

fn assert_every_benchmark_dataset(benchmark: MagellanBenchmark) {
    for id in DatasetId::all() {
        let d = benchmark.generate(id);
        assert_rows_match_extract(&d);
        assert_train_matches_naive_fit(&d);
    }
}

#[test]
fn every_benchmark_dataset_trains_bit_identically() {
    assert_every_benchmark_dataset(MagellanBenchmark::scaled(0.05));
}

/// Table-1 scale; CI runs it in release mode (`cargo test --release
/// --test property_training -- --ignored`).
#[test]
#[ignore = "Table-1 scale; run in release mode"]
fn every_benchmark_dataset_trains_bit_identically_at_table1_scale() {
    assert_every_benchmark_dataset(MagellanBenchmark::default());
}
