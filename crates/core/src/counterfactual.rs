//! Counterfactual records derived from landmark explanations.
//!
//! Section 4.3 of the paper defines an *interesting* explanation for a
//! non-matching record as one that surfaces "the tokens that, if shared by
//! the second entity, would make the record classified as matching". This
//! module makes that actionable: starting from a [`LandmarkExplanation`],
//! it greedily edits the varying entity — removing its most match-blocking
//! tokens and (for double-entity explanations) adding the most
//! match-supporting injected tokens — until the model's prediction flips,
//! returning the minimal edit found.

use em_entity::{EntityPair, EntitySide, MatchModel, PerturbSpec, Schema, SideSpec, Token};

use crate::explainer::LandmarkExplanation;

/// One edit applied to the varying entity.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Remove this token from the varying entity.
    Remove(Token),
    /// Add this (landmark-injected) token to the varying entity.
    Add(Token),
}

/// The result of a counterfactual search.
#[derive(Debug, Clone)]
pub struct Counterfactual {
    /// Edits in application order.
    pub edits: Vec<Edit>,
    /// The edited record.
    pub record: EntityPair,
    /// Model probability of the edited record.
    pub probability: f64,
    /// Whether the predicted class actually flipped.
    pub flipped: bool,
}

/// Configuration for [`counterfactual`].
#[derive(Debug, Clone, Copy)]
pub struct CounterfactualConfig {
    /// Decision threshold.
    pub threshold: f64,
    /// Maximum number of edits to try.
    pub max_edits: usize,
}

impl Default for CounterfactualConfig {
    fn default() -> Self {
        CounterfactualConfig {
            threshold: 0.5,
            max_edits: 10,
        }
    }
}

/// Greedily searches for a minimal token edit of the varying entity that
/// flips the model's prediction on the record.
///
/// Candidate edits are ordered by the explanation's coefficients: when the
/// record is predicted *match* the search removes the most positive
/// (match-supporting) original tokens; when predicted *non-match* it adds
/// the most positive injected tokens and removes the most negative
/// original ones, interleaved by |weight|.
pub fn counterfactual<M: MatchModel>(
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    explanation: &LandmarkExplanation,
    config: &CounterfactualConfig,
) -> Counterfactual {
    let start_prob = explanation.explanation.model_prediction;
    let start_class = start_prob >= config.threshold;

    // The varying entity's tokens: original tokens start present, injected
    // tokens start absent. `present` is the mask over the varying side of
    // the explanation's perturbation family, so every candidate record is
    // rebuilt by `PerturbSpec`, exactly as the explainer scored it.
    let mut tokens = Vec::new();
    let mut weights = Vec::new();
    let mut present = Vec::new();
    for (tw, &inj) in explanation
        .explanation
        .token_weights
        .iter()
        .zip(&explanation.injected)
    {
        tokens.push(tw.token.clone());
        weights.push(tw.weight);
        present.push(!inj);
    }
    let (left, right) = match explanation.varying {
        EntitySide::Left => (SideSpec::Varying(&tokens[..]), SideSpec::Fixed),
        EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&tokens[..])),
    };
    let spec = PerturbSpec::TokenDrop { pair, left, right };

    // Candidate edits, best-first.
    let mut order: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            if start_class {
                // Flip match -> non-match: remove positive original tokens.
                present[i] && weights[i] > 0.0
            } else {
                // Flip non-match -> match: add positive injected tokens or
                // remove negative original tokens.
                (!present[i] && weights[i] > 0.0) || (present[i] && weights[i] < 0.0)
            }
        })
        .collect();
    order.sort_by(|&a, &b| weights[b].abs().total_cmp(&weights[a].abs()));

    let mut edits = Vec::new();
    let mut record = spec.reconstruct(&present, schema.len());
    let mut probability = model.predict_proba(schema, &record);
    for &i in order.iter().take(config.max_edits) {
        if (probability >= config.threshold) != start_class {
            break; // already flipped
        }
        let edit = if present[i] {
            Edit::Remove(tokens[i].clone())
        } else {
            Edit::Add(tokens[i].clone())
        };
        present[i] = !present[i];
        let candidate = spec.reconstruct(&present, schema.len());
        let p = model.predict_proba(schema, &candidate);
        // Keep the edit only if it moves the probability the right way.
        let improves = if start_class {
            p < probability
        } else {
            p > probability
        };
        if improves {
            edits.push(edit);
            record = candidate;
            probability = p;
        } else {
            // Revert.
            present[i] = !present[i];
        }
    }

    let flipped = (probability >= config.threshold) != start_class;
    Counterfactual {
        edits,
        record,
        probability,
        flipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explainer::{LandmarkConfig, LandmarkExplainer};
    use crate::strategy::GenerationStrategy;
    use em_entity::{Entity, EntitySide};
    use std::collections::HashSet;

    struct Overlap;
    impl MatchModel for Overlap {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            let g = |e: &Entity| -> HashSet<String> {
                (0..schema.len())
                    .flat_map(|i| {
                        e.value(i)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let a = g(&pair.left);
            let b = g(&pair.right);
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            a.intersection(&b).count() as f64 / a.union(&b).count() as f64
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name"])
    }

    #[test]
    fn flips_a_non_match_by_adding_injected_tokens() {
        let pair = EntityPair::new(
            Entity::new(vec!["alpha beta gamma delta"]),
            Entity::new(vec!["epsilon zeta"]),
        );
        let cfg = LandmarkConfig {
            strategy: GenerationStrategy::DoubleEntity,
            n_samples: 400,
            ..Default::default()
        };
        let le = LandmarkExplainer::new(cfg).explain_with_landmark(
            &Overlap,
            &schema(),
            &pair,
            EntitySide::Left,
            em_obs::noop(),
        );
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.flipped, "{cf:?}");
        assert!(!cf.edits.is_empty());
        assert!(cf.probability >= 0.5);
        // The landmark side must be untouched.
        assert_eq!(cf.record.left, pair.left);
    }

    #[test]
    fn flips_a_match_by_removing_shared_tokens() {
        let pair = EntityPair::new(Entity::new(vec!["a b c d"]), Entity::new(vec!["a b c e"]));
        let cfg = LandmarkConfig {
            strategy: GenerationStrategy::SingleEntity,
            n_samples: 400,
            ..Default::default()
        };
        let le = LandmarkExplainer::new(cfg).explain_with_landmark(
            &Overlap,
            &schema(),
            &pair,
            EntitySide::Left,
            em_obs::noop(),
        );
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.flipped, "{cf:?}");
        assert!(cf.probability < 0.5);
        assert!(cf.edits.iter().all(|e| matches!(e, Edit::Remove(_))));
    }

    #[test]
    fn respects_max_edits() {
        let pair = EntityPair::new(
            Entity::new(vec!["a b c d e f g h"]),
            Entity::new(vec!["x y z w v u t s"]),
        );
        let cfg = LandmarkConfig {
            strategy: GenerationStrategy::DoubleEntity,
            n_samples: 200,
            ..Default::default()
        };
        let le = LandmarkExplainer::new(cfg).explain_with_landmark(
            &Overlap,
            &schema(),
            &pair,
            EntitySide::Left,
            em_obs::noop(),
        );
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig {
                max_edits: 2,
                ..Default::default()
            },
        );
        assert!(cf.edits.len() <= 2);
    }

    #[test]
    fn already_flipped_record_needs_no_edits() {
        // Identical pair explained as a match; counterfactual towards
        // non-match needs edits, but a record already past the threshold in
        // the start class direction terminates cleanly either way.
        let pair = EntityPair::new(Entity::new(vec!["q"]), Entity::new(vec!["q"]));
        let cfg = LandmarkConfig {
            strategy: GenerationStrategy::SingleEntity,
            n_samples: 100,
            ..Default::default()
        };
        let le = LandmarkExplainer::new(cfg).explain_with_landmark(
            &Overlap,
            &schema(),
            &pair,
            EntitySide::Left,
            em_obs::noop(),
        );
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        // Removing the only shared token flips it.
        assert!(cf.flipped);
        assert_eq!(cf.edits.len(), 1);
    }

    #[test]
    fn nan_weights_do_not_panic() {
        // Regression: the candidate ordering used partial_cmp().expect(),
        // which panicked when an explanation carried a NaN coefficient
        // (e.g. from a degenerate surrogate fit).
        use crate::strategy::ResolvedStrategy;
        use em_entity::Token;
        use em_lime::explanation::{PairExplanation, TokenWeight};

        let pair = EntityPair::new(Entity::new(vec!["a b"]), Entity::new(vec!["a c"]));
        let token_weights = vec![
            TokenWeight {
                side: EntitySide::Right,
                token: Token::new(0, 0, "a"),
                weight: f64::NAN,
            },
            TokenWeight {
                side: EntitySide::Right,
                token: Token::new(0, 1, "c"),
                weight: 0.4,
            },
        ];
        let le = LandmarkExplanation {
            landmark: EntitySide::Left,
            varying: EntitySide::Right,
            strategy: ResolvedStrategy::SingleEntity,
            explanation: PairExplanation {
                token_weights,
                intercept: 0.0,
                model_prediction: 0.9,
                surrogate_prediction: 0.9,
                surrogate_r2: 1.0,
            },
            injected: vec![false, false],
        };
        let cf = counterfactual(
            &Overlap,
            &schema(),
            &pair,
            &le,
            &CounterfactualConfig::default(),
        );
        assert!(cf.probability.is_finite());
    }
}
