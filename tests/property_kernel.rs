//! Property tests for the prepared perturbation-scoring kernel.
//!
//! The kernel's contract (DESIGN.md §11) is *bit-identity*: for any
//! schema, record, perturbation family, and mask, scoring a
//! mask through `MatchModel::prepare_scorer` must produce the same `f64`
//! — same bits — as reconstructing the perturbed pair and calling
//! `predict_proba` on it. These tests drive that contract with random
//! schemas (all four attribute kinds), random values (including empty,
//! numeric, and punctuation-only, and long values of repeated words with
//! unequal IDFs), random logistic coefficients, random masks and their
//! one-bit neighbours, every perturbation family, and both explainer
//! layers on top.

use landmark_explanation::entity::schema::Attribute;
use landmark_explanation::entity::{
    tokenize_entity, EmDataset, Entity, EntityPair, EntitySide, FallbackScorer, LabeledPair,
    MatchModel, PerturbSpec, PreparedScorer, Schema, SideSpec, Token,
};
use landmark_explanation::landmark::{GenerationStrategy, LandmarkConfig, LandmarkExplainer};
use landmark_explanation::lime::{
    LimeConfig, LimeExplainer, MojitoCopyConfig, MojitoCopyExplainer,
};
use landmark_explanation::linalg::logistic::LogisticModel;
use landmark_explanation::matchers::{FeatureExtractor, LogisticMatcher, NaiveBayesMatcher};
use proptest::prelude::*;

mod strategies;
use strategies::{attr_kind, attr_value};

/// Forwards only `predict_proba`, hiding `prepare_scorer` so the default
/// fallback (reconstruct each pair, extract features from scratch) runs.
struct NaiveOnly<'m, M>(&'m M);

impl<M: MatchModel> MatchModel for NaiveOnly<'_, M> {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        self.0.predict_proba(schema, pair)
    }
}

/// Words of unequal length whose length order differs from their
/// byte-lexicographic order.
const WORDS: [&str; 12] = [
    "zoom", "at", "camera", "lens", "b", "digital", "kit", "xr", "optical", "a4", "sensor", "mp",
];

/// A long value: 8 to 40 words from [`WORDS`], word `k` drawn with weight
/// `2 (11 - k) + 1`. Words repeat within a value (term frequency above 1)
/// and the rarer ones appear in only some values (unequal IDFs), so the
/// TF-IDF sums have enough unequal terms for their order to change bits.
/// Lengths straddle the kernel's 10-bit sub-mask memo limit.
fn long_value() -> impl Strategy<Value = String> {
    let word = (0usize..144).prop_map(|r| WORDS[11 - r.isqrt()]);
    prop::collection::vec(word, 8..41).prop_map(|w| w.join(" "))
}

fn entity(n_attrs: usize) -> impl Strategy<Value = Entity> {
    prop::collection::vec(prop_oneof![attr_value(), long_value()], n_attrs).prop_map(Entity::new)
}

/// A random scenario: schema kinds, the record under explanation, a small
/// fitting corpus, and logistic parameters.
#[derive(Debug, Clone)]
struct Scenario {
    schema: Schema,
    pair: EntityPair,
    dataset: EmDataset,
    matcher: LogisticMatcher,
}

fn scenario(n_attrs: usize) -> impl Strategy<Value = Scenario> {
    (
        (
            prop::collection::vec(attr_kind(), n_attrs),
            entity(n_attrs),
            entity(n_attrs),
        ),
        (
            prop::collection::vec((entity(n_attrs), entity(n_attrs)), 4),
            prop::collection::vec(-2.0f64..2.0, n_attrs),
            -1.0f64..1.0,
        ),
    )
        .prop_map(
            move |((kinds, left, right), (corpus, coefficients, intercept))| {
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
                let pair = EntityPair::new(left, right);
                // Alternating labels give NaiveBayes both classes to train on.
                let records: Vec<LabeledPair> = std::iter::once(pair.clone())
                    .chain(corpus.into_iter().map(|(l, r)| EntityPair::new(l, r)))
                    .enumerate()
                    .map(|(i, p)| LabeledPair::new(p, i % 2 == 0))
                    .collect();
                let dataset = EmDataset::new("prop", schema.clone(), records);
                let extractor = FeatureExtractor::fit(&dataset);
                let matcher = LogisticMatcher::from_parts(
                    extractor,
                    LogisticModel {
                        intercept,
                        coefficients,
                        iterations: 0,
                    },
                );
                Scenario {
                    schema,
                    pair,
                    dataset,
                    matcher,
                }
            },
        )
}

/// Every perturbation family over `pair`, borrowing `tokens` for the
/// varying sides.
fn all_specs<'a>(
    pair: &'a EntityPair,
    left_tokens: &'a [Token],
    right_tokens: &'a [Token],
) -> Vec<PerturbSpec<'a>> {
    vec![
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(left_tokens),
            right: SideSpec::Fixed,
        },
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(right_tokens),
        },
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(left_tokens),
            right: SideSpec::Varying(right_tokens),
        },
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Fixed,
            right: SideSpec::Fixed,
        },
        PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Left,
        },
        PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Right,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mask-level bit-identity, both model families, every spec family.
    /// One scorer per spec scores a random mask and then that mask with
    /// each bit flipped in turn, so two masks that differ in a single bit
    /// of a memoized attribute meet the same scorer.
    #[test]
    fn prepared_scorer_is_bit_identical_to_fallback(
        s in scenario(3),
        mask_bits in prop::collection::vec(any::<bool>(), 256),
    ) {
        let nb = NaiveBayesMatcher::train(&s.dataset);
        let left_tokens = tokenize_entity(&s.pair.left);
        let right_tokens = tokenize_entity(&s.pair.right);
        for spec in all_specs(&s.pair, &left_tokens, &right_tokens) {
            let n = spec.mask_len(s.schema.len());
            let base: Vec<bool> = (0..n)
                .map(|i| mask_bits.get(i).copied().unwrap_or(true))
                .collect();
            let flipped = (0..n).map(|i| {
                let mut mask = base.clone();
                mask[i] = !mask[i];
                mask
            });
            let masks: Vec<Vec<bool>> = std::iter::once(base.clone()).chain(flipped).collect();
            let logistic: &dyn MatchModel = &s.matcher;
            let bayes: &dyn MatchModel = &nb;
            for model in [logistic, bayes] {
                let mut kernel = model.prepare_scorer(&s.schema, &spec);
                let mut naive = FallbackScorer::new(model, &s.schema, &spec);
                for mask in &masks {
                    let k = kernel.score_mask(mask);
                    let n = naive.score_mask(mask);
                    prop_assert_eq!(k.to_bits(), n.to_bits());
                }
            }
        }
    }

    /// Explainer-level bit-identity: landmark explanations (weights,
    /// intercepts, predictions) through the kernel equal the naive path
    /// for every strategy.
    #[test]
    fn landmark_explanations_match_naive_path(
        s in scenario(3),
        seed in 0u64..1000,
    ) {
        for strategy in [
            GenerationStrategy::SingleEntity,
            GenerationStrategy::DoubleEntity,
            GenerationStrategy::auto(),
        ] {
            let config = LandmarkConfig {
                n_samples: 40,
                seed,
                strategy,
                ..Default::default()
            };
            let explainer = LandmarkExplainer::new(config);
            let kernel = explainer.explain(&s.matcher, &s.schema, &s.pair, em_obs::noop());
            let naive = explainer.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, em_obs::noop());
            for (k, n) in kernel.both().iter().zip(naive.both().iter()) {
                prop_assert_eq!(&k.explanation.token_weights, &n.explanation.token_weights);
                prop_assert_eq!(
                    k.explanation.intercept.to_bits(),
                    n.explanation.intercept.to_bits()
                );
                prop_assert_eq!(
                    k.explanation.model_prediction.to_bits(),
                    n.explanation.model_prediction.to_bits()
                );
            }
        }
    }

    /// Explainer-level bit-identity for the LIME and Mojito baselines.
    #[test]
    fn baseline_explanations_match_naive_path(s in scenario(2), seed in 0u64..1000) {
        let lime = LimeExplainer::new(LimeConfig {
            n_samples: 40,
            seed,
            ..Default::default()
        });
        let k = lime.explain(&s.matcher, &s.schema, &s.pair, em_obs::noop());
        let n = lime.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, em_obs::noop());
        prop_assert_eq!(k.token_weights, n.token_weights);
        prop_assert_eq!(k.intercept.to_bits(), n.intercept.to_bits());

        for copy_into in EntitySide::both() {
            let mojito = MojitoCopyExplainer::new(MojitoCopyConfig {
                n_samples: 40,
                seed,
                copy_into,
                ..Default::default()
            });
            let k = mojito.explain(&s.matcher, &s.schema, &s.pair, em_obs::noop());
            let n = mojito.explain(&NaiveOnly(&s.matcher), &s.schema, &s.pair, em_obs::noop());
            prop_assert_eq!(k.token_weights, n.token_weights);
            prop_assert_eq!(k.intercept.to_bits(), n.intercept.to_bits());
        }
    }
}
