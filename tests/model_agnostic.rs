//! Model-agnosticism: every explainer must work unchanged for any
//! `MatchModel` implementation — the defining property of post-hoc
//! explanation systems (paper Section 2).

use landmark_explanation::entity::MatchModel;
use landmark_explanation::eval::technique::explain_record;
use landmark_explanation::eval::Technique;
use landmark_explanation::landmark::{counterfactual, CounterfactualConfig};
use landmark_explanation::matchers::NaiveBayesMatcher;
use landmark_explanation::prelude::*;

#[test]
fn all_techniques_explain_a_naive_bayes_model() {
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SWa);
    let nb = NaiveBayesMatcher::train(&dataset);
    let record = &dataset.records()[0].pair;
    for technique in Technique::all() {
        let views = explain_record(technique, &nb, dataset.schema(), record, 120, 0);
        assert!(!views.is_empty());
        for v in &views {
            assert!(v.original_prediction.is_finite());
            for (_, _, w) in &v.removable {
                assert!(w.is_finite(), "{technique:?}");
            }
        }
    }
}

#[test]
fn landmark_explanations_agree_on_informative_attributes_across_model_families() {
    // Both model families rely on token similarity, so the aggregate
    // attribute importance of their explanations should rank the most
    // informative attribute (title, index 0 for S-WA) highly in both.
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SAg);
    let lr = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let nb = NaiveBayesMatcher::train(&dataset);
    let explainer = LandmarkExplainer::new(LandmarkConfig {
        n_samples: 150,
        ..Default::default()
    });

    let importance = |model: &(dyn MatchModel + Sync)| -> Vec<f64> {
        let mut total = vec![0.0; dataset.schema().len()];
        for r in dataset.sample_by_label(true, 6, 1) {
            let dual = explainer.explain(&model, dataset.schema(), &r.pair, noop());
            for le in dual.both() {
                for (t, v) in total
                    .iter_mut()
                    .zip(le.explanation.attribute_importance(dataset.schema()))
                {
                    *t += v;
                }
            }
        }
        total
    };
    let lr_imp = importance(&lr);
    let nb_imp = importance(&nb);
    let top = |v: &[f64]| -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    };
    // The two model families should agree on which attribute matters most
    // (both are driven by the same similarity structure of the data).
    assert_eq!(top(&lr_imp), top(&nb_imp), "LR {lr_imp:?} vs NB {nb_imp:?}");
}

#[test]
fn counterfactuals_work_for_naive_bayes_too() {
    let dataset = MagellanBenchmark::scaled(0.08).generate(DatasetId::SFz);
    let nb = NaiveBayesMatcher::train(&dataset);
    // Flip a predicted match to non-match: removing the match-supporting
    // tokens of one side reliably destroys the similarity evidence for any
    // similarity-driven model family. (The opposite direction is not
    // guaranteed for Gaussian NB, whose non-match confidence can be
    // astronomically high — p ~ 1e-300 — beyond the reach of token edits.)
    let record = dataset
        .records()
        .iter()
        .find(|r| r.label && nb.predict_proba(dataset.schema(), &r.pair) > 0.6)
        .expect("confident match exists")
        .pair
        .clone();
    let explainer = LandmarkExplainer::new(LandmarkConfig {
        strategy: landmark_explanation::landmark::GenerationStrategy::SingleEntity,
        n_samples: 250,
        ..Default::default()
    });
    let le =
        explainer.explain_with_landmark(&nb, dataset.schema(), &record, EntitySide::Left, noop());
    let cf = counterfactual(
        &nb,
        dataset.schema(),
        &record,
        &le,
        &CounterfactualConfig {
            max_edits: 20,
            ..Default::default()
        },
    );
    assert!(cf.flipped, "cf probability = {}", cf.probability);
    assert!(cf.probability < 0.5);
    assert_eq!(cf.record.left, record.left, "landmark untouched");
}
