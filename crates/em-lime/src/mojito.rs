//! The *Mojito Copy* baseline (Di Cicco et al., aiDM@SIGMOD 2019).
//!
//! Mojito adapts LIME to EM by perturbing at **attribute** granularity: a
//! perturbation copies the value of an attribute from one entity over the
//! corresponding attribute of the other, pushing non-matching records
//! towards the match class. The surrogate is fit over attribute-level
//! masks, and — as the paper notes — "Mojito treats attributes atomically,
//! distributing its impact equally to its constituent tokens", which is
//! exactly what [`MojitoCopyExplainer`] does to produce a comparable
//! [`PairExplanation`].

use em_entity::{tokenize_entity, EntityPair, EntitySide, MatchModel, PerturbSpec, Schema};
use em_obs::{Counter, Span, Stage, Tracer};

use crate::explanation::{PairExplanation, TokenWeight};
use crate::sampler::MaskSampler;
use crate::surrogate::{fit_surrogate, SurrogateConfig};

/// Configuration for [`MojitoCopyExplainer`].
#[derive(Debug, Clone, Copy)]
pub struct MojitoCopyConfig {
    /// Number of perturbation samples.
    pub n_samples: usize,
    /// The side whose attribute values are overwritten by the copy. The
    /// source of the copy is the opposite side.
    pub copy_into: EntitySide,
    /// Surrogate kernel / solver settings.
    pub surrogate: SurrogateConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MojitoCopyConfig {
    fn default() -> Self {
        MojitoCopyConfig {
            n_samples: 500,
            copy_into: EntitySide::Right,
            surrogate: SurrogateConfig::default(),
            seed: 0,
        }
    }
}

/// The attribute-copying explainer.
#[derive(Debug, Clone, Default)]
pub struct MojitoCopyExplainer {
    /// Explainer configuration.
    pub config: MojitoCopyConfig,
}

impl MojitoCopyExplainer {
    /// Creates an explainer with the given configuration.
    pub fn new(config: MojitoCopyConfig) -> Self {
        MojitoCopyExplainer { config }
    }

    /// Explains one record with attribute-copy perturbations.
    ///
    /// Mask semantics: bit `a` **on** keeps attribute `a` as-is; bit **off**
    /// overwrites the `copy_into` side's value with the other side's value.
    /// A positive attribute coefficient therefore means "the original
    /// (differing) value supports the current prediction". As the paper
    /// notes, "Mojito treats attributes atomically, distributing its impact
    /// equally to its constituent tokens": the attribute coefficient is
    /// spread uniformly over the tokens of the *replaced* (`copy_into`)
    /// side — the tokens the copy perturbation actually substitutes.
    ///
    /// Per-stage timings are recorded into `tracer` (`em_obs::noop()` when
    /// untraced). Tracing only observes — traced and untraced
    /// explanations are bit-identical (DESIGN.md §10).
    pub fn explain<M: MatchModel>(
        &self,
        model: &M,
        schema: &Schema,
        pair: &EntityPair,
        tracer: &dyn Tracer,
    ) -> PairExplanation {
        let d = schema.len();
        tracer.add(Counter::Features, d as u64);
        let masks = {
            let _span = Span::enter(tracer, Stage::MaskSampling);
            MaskSampler::new(self.config.seed).sample(d, self.config.n_samples)
        };
        // The copy perturbation is a pure function of the mask and the two
        // original attribute values, so the prepared kernel can score each
        // mask from per-attribute precomputed state instead of cloning the
        // pair per sample (bit-identical either way, DESIGN.md §11).
        let spec = {
            let _span = Span::enter(tracer, Stage::PairReconstruction);
            PerturbSpec::AttrCopy {
                pair,
                copy_into: self.config.copy_into,
            }
        };
        let probs = model.score_masks(schema, &spec, &masks, tracer);
        let fit = {
            let _span = Span::enter(tracer, Stage::SurrogateFit);
            fit_surrogate(&masks, &probs, &self.config.surrogate)
        };

        // Distribute each attribute's coefficient uniformly over the tokens
        // of the replaced side (the tokens the copy substitutes).
        let mut token_weights = Vec::new();
        let replaced_tokens = {
            let _span = Span::enter(tracer, Stage::Tokenize);
            tokenize_entity(pair.entity(self.config.copy_into))
        };
        for (attr, &attr_weight) in fit.coefficients.iter().enumerate() {
            let attr_tokens: Vec<&em_entity::Token> = replaced_tokens
                .iter()
                .filter(|t| t.attribute == attr)
                .collect();
            if attr_tokens.is_empty() {
                continue;
            }
            let per_token = attr_weight / attr_tokens.len() as f64;
            for token in attr_tokens {
                token_weights.push(TokenWeight {
                    side: self.config.copy_into,
                    token: token.clone(),
                    weight: per_token,
                });
            }
        }

        let model_prediction = probs.first().copied().unwrap_or(0.0);
        let surrogate_prediction = fit.intercept + fit.coefficients.iter().sum::<f64>();
        PairExplanation {
            token_weights,
            intercept: fit.intercept,
            model_prediction,
            surrogate_prediction,
            surrogate_r2: fit.r2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::Entity;

    /// Model: mean over attributes of [values are equal].
    struct ExactModel;
    impl MatchModel for ExactModel {
        fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
            let same = (0..schema.len())
                .filter(|&i| pair.left.value(i) == pair.right.value(i))
                .count();
            same as f64 / schema.len() as f64
        }
    }

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "description", "price"])
    }

    fn non_matching_pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera", "digital slr kit", "849.99"]),
            Entity::new(vec!["nikon case", "leather black", "7.99"]),
        )
    }

    #[test]
    fn copying_differing_attributes_raises_probability() {
        // Direct check of the perturbation semantics, not the surrogate:
        // with all attributes copied, the model must see a perfect match.
        let cfg = MojitoCopyConfig::default();
        let explainer = MojitoCopyExplainer::new(cfg);
        let pair = non_matching_pair();
        let e = explainer.explain(&ExactModel, &schema(), &pair, em_obs::noop());
        // Original record: 0 equal attributes.
        assert_eq!(e.model_prediction, 0.0);
        // The intercept region (everything copied) approaches 1.0, so
        // coefficients for the differing attributes must be negative:
        // keeping the original value lowers the match probability.
        let imp = e.attribute_importance(&schema());
        assert!(imp.iter().all(|&w| w > 0.0), "{imp:?}");
        for tw in &e.token_weights {
            assert!(tw.weight < 0.0, "{tw:?}");
        }
    }

    #[test]
    fn token_weights_within_attribute_are_equal() {
        let e = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        // Attribute 0's replaced side (right) has 2 tokens: equal weights.
        let w: Vec<f64> = e
            .token_weights
            .iter()
            .filter(|t| t.token.attribute == 0)
            .map(|t| t.weight)
            .collect();
        assert_eq!(w.len(), 2);
        assert!((w[1] - w[0]).abs() < 1e-12);
        // All weights sit on the replaced (right) side.
        assert!(e.token_weights.iter().all(|t| t.side == EntitySide::Right));
    }

    #[test]
    fn attribute_importance_reflects_attribute_coefficient() {
        let e = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        let imp = e.attribute_importance(&schema());
        // Every attribute contributes 1/3 to the ExactModel, so importances
        // should be roughly equal.
        let max = imp.iter().cloned().fold(f64::MIN, f64::max);
        let min = imp.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.15, "{imp:?}");
    }

    #[test]
    fn matching_record_has_near_zero_weights() {
        let e_same = Entity::new(vec!["sony camera", "digital slr kit", "849.99"]);
        let pair = EntityPair::new(e_same.clone(), e_same);
        let e =
            MojitoCopyExplainer::default().explain(&ExactModel, &schema(), &pair, em_obs::noop());
        // Copying identical values changes nothing.
        for tw in &e.token_weights {
            assert!(tw.weight.abs() < 1e-9, "{tw:?}");
        }
        assert_eq!(e.model_prediction, 1.0);
    }

    #[test]
    fn copy_direction_is_respected() {
        // Model that only looks at the left entity's name.
        struct LeftOnlyModel;
        impl MatchModel for LeftOnlyModel {
            fn predict_proba(&self, _: &Schema, pair: &EntityPair) -> f64 {
                if pair.left.value(0).contains("sony") {
                    0.9
                } else {
                    0.1
                }
            }
        }
        let pair = non_matching_pair();
        // Copying into Right never touches the left entity: flat model.
        let into_right = MojitoCopyExplainer::default().explain(
            &LeftOnlyModel,
            &schema(),
            &pair,
            em_obs::noop(),
        );
        assert!(into_right
            .token_weights
            .iter()
            .all(|t| t.weight.abs() < 1e-9));
        // Copying into Left overwrites "sony camera" with "nikon case".
        let cfg = MojitoCopyConfig {
            copy_into: EntitySide::Left,
            ..Default::default()
        };
        let into_left =
            MojitoCopyExplainer::new(cfg).explain(&LeftOnlyModel, &schema(), &pair, em_obs::noop());
        let name_importance = into_left.attribute_importance(&schema())[0];
        assert!(name_importance > 0.1, "{name_importance}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        let b = MojitoCopyExplainer::default().explain(
            &ExactModel,
            &schema(),
            &non_matching_pair(),
            em_obs::noop(),
        );
        assert_eq!(a.token_weights, b.token_weights);
    }
}
