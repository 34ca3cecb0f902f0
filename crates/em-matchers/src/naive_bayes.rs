//! Gaussian Naive Bayes entity matcher — a second model family.
//!
//! The explainers are model-agnostic; everything downstream of the
//! [`em_entity::MatchModel`] trait must work unchanged for any classifier.
//! This matcher provides a structurally different model (generative,
//! non-linear posterior) over the same per-attribute similarity features,
//! used by the tests to exercise that claim.

use em_entity::{EmDataset, EntityPair, MatchModel, Schema};

use crate::features::FeatureExtractor;

/// Per-class Gaussian parameters for one feature.
#[derive(Debug, Clone, Copy)]
struct Gaussian {
    mean: f64,
    var: f64,
}

impl Gaussian {
    fn log_density(&self, x: f64) -> f64 {
        let d = x - self.mean;
        -0.5 * (d * d / self.var + self.var.ln() + std::f64::consts::TAU.ln())
    }
}

/// A trained Gaussian Naive Bayes matcher.
#[derive(Debug, Clone)]
pub struct NaiveBayesMatcher {
    extractor: FeatureExtractor,
    log_prior_match: f64,
    log_prior_non: f64,
    match_params: Vec<Gaussian>,
    non_params: Vec<Gaussian>,
}

impl NaiveBayesMatcher {
    /// Trains on a labeled dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or single-class.
    pub fn train(dataset: &EmDataset) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let (extractor, x) = FeatureExtractor::fit_transform(dataset);
        let d = x.cols();

        let mut match_rows: Vec<&[f64]> = Vec::new();
        let mut non_rows: Vec<&[f64]> = Vec::new();
        for (i, r) in dataset.records().iter().enumerate() {
            if r.label {
                match_rows.push(x.row(i));
            } else {
                non_rows.push(x.row(i));
            }
        }
        assert!(
            !match_rows.is_empty() && !non_rows.is_empty(),
            "training data must contain both classes"
        );

        let fit_class = |rows: &[&[f64]]| -> Vec<Gaussian> {
            (0..d)
                .map(|j| {
                    let n = rows.len() as f64;
                    let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n;
                    let var = rows
                        .iter()
                        .map(|r| (r[j] - mean) * (r[j] - mean))
                        .sum::<f64>()
                        / n;
                    // Variance floor keeps degenerate features finite.
                    Gaussian {
                        mean,
                        var: var.max(1e-4),
                    }
                })
                .collect()
        };

        let n_total = dataset.len() as f64;
        NaiveBayesMatcher {
            log_prior_match: (match_rows.len() as f64 / n_total).ln(),
            log_prior_non: (non_rows.len() as f64 / n_total).ln(),
            match_params: fit_class(&match_rows),
            non_params: fit_class(&non_rows),
            extractor,
        }
    }

    /// The fitted feature extractor.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The Gaussian NB posterior for an already-extracted feature vector.
    /// Shared by [`MatchModel::predict_proba`] and the prepared kernel so
    /// both heads perform the identical f64 operations.
    pub(crate) fn posterior_from_features(&self, features: &[f64]) -> f64 {
        let mut log_match = self.log_prior_match;
        let mut log_non = self.log_prior_non;
        for ((x, m), n) in features
            .iter()
            .zip(&self.match_params)
            .zip(&self.non_params)
        {
            log_match += m.log_density(*x);
            log_non += n.log_density(*x);
        }
        // Stable softmax over two classes.
        let max = log_match.max(log_non);
        let em = (log_match - max).exp();
        let en = (log_non - max).exp();
        em / (em + en)
    }
}

impl MatchModel for NaiveBayesMatcher {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        self.posterior_from_features(&self.extractor.extract(schema, pair))
    }

    fn prepare_scorer<'a>(
        &'a self,
        schema: &'a Schema,
        spec: &'a em_entity::PerturbSpec<'a>,
    ) -> Box<dyn em_entity::PreparedScorer + 'a> {
        Box::new(crate::prepared::NaiveBayesPreparedScorer::new(
            self, schema, spec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::{Entity, LabeledPair};

    fn toy_dataset() -> EmDataset {
        let schema = Schema::from_names(vec!["name"]);
        let mut records = Vec::new();
        let names = [
            "sonix alpha camera",
            "nikor coolpix zoom",
            "canox eos body",
            "apple iphone pro",
            "samsun galaxy ultra",
            "dellux xps laptop",
            "hp envy printer",
            "bose qc headphones",
        ];
        for (i, n) in names.iter().enumerate() {
            let dropped: String = n.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
            records.push(LabeledPair::new(
                EntityPair::new(Entity::new(vec![n.to_string()]), Entity::new(vec![dropped])),
                true,
            ));
            let other = names[(i + 3) % names.len()];
            records.push(LabeledPair::new(
                EntityPair::new(
                    Entity::new(vec![n.to_string()]),
                    Entity::new(vec![other.to_string()]),
                ),
                false,
            ));
        }
        EmDataset::new("toy", schema, records)
    }

    #[test]
    fn separates_training_data() {
        let d = toy_dataset();
        let m = NaiveBayesMatcher::train(&d);
        let correct = d
            .records()
            .iter()
            .filter(|r| m.predict(d.schema(), &r.pair) == r.label)
            .count();
        assert!(
            correct as f64 / d.len() as f64 >= 0.9,
            "{correct}/{}",
            d.len()
        );
    }

    #[test]
    fn probabilities_are_valid() {
        let d = toy_dataset();
        let m = NaiveBayesMatcher::train(&d);
        for r in d.records() {
            let p = m.predict_proba(d.schema(), &r.pair);
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_training_panics() {
        let schema = Schema::from_names(vec!["a"]);
        let e = Entity::new(vec!["x"]);
        let d = EmDataset::new(
            "one",
            schema,
            vec![LabeledPair::new(EntityPair::new(e.clone(), e), true)],
        );
        NaiveBayesMatcher::train(&d);
    }

    #[test]
    fn identical_pair_beats_disjoint_pair() {
        let d = toy_dataset();
        let m = NaiveBayesMatcher::train(&d);
        let same = EntityPair::new(
            Entity::new(vec!["zeiss lens"]),
            Entity::new(vec!["zeiss lens"]),
        );
        let diff = EntityPair::new(
            Entity::new(vec!["zeiss lens"]),
            Entity::new(vec!["kitchen towel"]),
        );
        assert!(m.predict_proba(d.schema(), &same) > m.predict_proba(d.schema(), &diff));
    }
}
