//! The logistic-regression EM model the paper explains.

use em_entity::{EmDataset, EntityPair, MatchModel, Schema};
use em_linalg::logistic::{LogisticConfig, LogisticModel};

use crate::features::FeatureExtractor;

/// Training configuration for [`LogisticMatcher::train`].
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// L2 regularization strength.
    pub lambda: f64,
    /// Balance class weights for imbalanced EM data (Table 1 of the paper
    /// shows 9-25% match rates).
    pub balance_classes: bool,
    /// Maximum optimizer iterations.
    pub max_iter: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            lambda: 0.1,
            balance_classes: true,
            max_iter: 2000,
        }
    }
}

/// A trained logistic-regression entity matcher.
///
/// One coefficient per logical attribute; [`LogisticMatcher::attribute_weights`]
/// exposes them for the paper's attribute-based evaluation (Table 3).
#[derive(Debug, Clone)]
pub struct LogisticMatcher {
    extractor: FeatureExtractor,
    model: LogisticModel,
}

impl LogisticMatcher {
    /// Fits the feature extractor and the logistic model on a dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or single-class — the paper's
    /// benchmark datasets always contain both classes.
    pub fn train(dataset: &EmDataset, config: &MatcherConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let (extractor, x) = FeatureExtractor::fit_transform(dataset);
        let labels: Vec<bool> = dataset.records().iter().map(|r| r.label).collect();
        assert!(
            labels.iter().any(|&l| l) && labels.iter().any(|&l| !l),
            "training data must contain both classes"
        );
        let mut lcfg = if config.balance_classes {
            LogisticConfig::balanced_for(&labels)
        } else {
            LogisticConfig::default()
        };
        lcfg.lambda = config.lambda;
        lcfg.max_iter = config.max_iter;
        let model = LogisticModel::fit(&x, &labels, &lcfg).expect("logistic fit");
        LogisticMatcher { extractor, model }
    }

    /// Builds a matcher from pre-fitted parts (used in tests and benches).
    pub fn from_parts(extractor: FeatureExtractor, model: LogisticModel) -> Self {
        LogisticMatcher { extractor, model }
    }

    /// The per-attribute logistic-regression coefficients.
    ///
    /// Table 3 of the paper ranks attributes by the absolute value of these
    /// weights and compares against the surrogate's attribute ranking.
    pub fn attribute_weights(&self) -> &[f64] {
        &self.model.coefficients
    }

    /// The model intercept.
    pub fn intercept(&self) -> f64 {
        self.model.intercept
    }

    /// The fitted feature extractor.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The fitted logistic model (e.g. for persisting with
    /// `persist::save_logistic_file`).
    pub fn model(&self) -> &LogisticModel {
        &self.model
    }
}

impl MatchModel for LogisticMatcher {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        let features = self.extractor.extract(schema, pair);
        self.model.predict_proba(&features)
    }

    fn prepare_scorer<'a>(
        &'a self,
        schema: &'a Schema,
        spec: &'a em_entity::PerturbSpec<'a>,
    ) -> Box<dyn em_entity::PreparedScorer + 'a> {
        Box::new(crate::prepared::LogisticPreparedScorer::new(
            self, schema, spec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::schema::{Attribute, AttributeKind};
    use em_entity::{Entity, LabeledPair};

    /// Small synthetic dataset: matches share tokens, non-matches don't.
    fn toy_dataset() -> EmDataset {
        let schema = Schema::new(vec![
            Attribute {
                name: "name".into(),
                kind: AttributeKind::Name,
            },
            Attribute {
                name: "price".into(),
                kind: AttributeKind::Numeric,
            },
        ]);
        let mut records = Vec::new();
        let names = [
            "sony alpha camera",
            "nikon coolpix zoom",
            "canon eos body",
            "apple iphone pro",
            "samsung galaxy ultra",
            "dell xps laptop",
            "hp envy printer",
            "bose qc headphones",
            "sennheiser hd audio",
            "logitech mx mouse",
        ];
        for (i, n) in names.iter().enumerate() {
            let price = format!("{}.99", 100 + i * 37);
            // Match: same name modulo a dropped token, close price.
            let dropped: String = n.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
            records.push(LabeledPair::new(
                EntityPair::new(
                    Entity::new(vec![n.to_string(), price.clone()]),
                    Entity::new(vec![dropped, price.clone()]),
                ),
                true,
            ));
            // Non-match: pair with the next name, far price.
            let other = names[(i + 3) % names.len()];
            records.push(LabeledPair::new(
                EntityPair::new(
                    Entity::new(vec![n.to_string(), price]),
                    Entity::new(vec![other.to_string(), format!("{}.50", 9 + i)]),
                ),
                false,
            ));
        }
        EmDataset::new("toy", schema, records)
    }

    #[test]
    fn trained_matcher_separates_the_training_data() {
        let d = toy_dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let mut correct = 0;
        for r in d.records() {
            if m.predict(d.schema(), &r.pair) == r.label {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / d.len() as f64 >= 0.9,
            "accuracy {correct}/{}",
            d.len()
        );
    }

    #[test]
    fn attribute_weights_are_positive_for_similarity_features() {
        // Higher similarity => higher match probability, so coefficients
        // should come out positive for informative attributes.
        let d = toy_dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        assert_eq!(m.attribute_weights().len(), 2);
        assert!(m.attribute_weights()[0] > 0.0);
        assert!(m.attribute_weights()[1] > 0.0);
    }

    #[test]
    fn identical_pair_scores_higher_than_disjoint_pair() {
        let d = toy_dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let same = EntityPair::new(
            Entity::new(vec!["zeiss lens kit", "500.00"]),
            Entity::new(vec!["zeiss lens kit", "500.00"]),
        );
        let diff = EntityPair::new(
            Entity::new(vec!["zeiss lens kit", "500.00"]),
            Entity::new(vec!["kitchen towel set", "3.99"]),
        );
        assert!(m.predict_proba(d.schema(), &same) > m.predict_proba(d.schema(), &diff));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let d = toy_dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        for r in d.records() {
            let p = m.predict_proba(d.schema(), &r.pair);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_empty_dataset_panics() {
        let schema = Schema::from_names(vec!["a"]);
        let d = EmDataset::new("empty", schema, vec![]);
        LogisticMatcher::train(&d, &MatcherConfig::default());
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn training_on_single_class_panics() {
        let schema = Schema::from_names(vec!["a"]);
        let e = Entity::new(vec!["x"]);
        let d = EmDataset::new(
            "one-class",
            schema,
            vec![LabeledPair::new(EntityPair::new(e.clone(), e), true)],
        );
        LogisticMatcher::train(&d, &MatcherConfig::default());
    }
}
