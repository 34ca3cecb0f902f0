//! Single-threaded replay of the explanation pipeline through the
//! crates' public calls, one span per call.
//!
//! A landmark explanation is replayed step by step in the order
//! `LandmarkExplainer::explain_with_landmark` makes its calls, once per
//! landmark side: `predict_proba`, `GenerationStrategy::resolve`,
//! `generate_view`, `MaskSampler::sample`, `prepare_scorer`, the
//! `score_mask` loop, `fit_surrogate`. The replay returns the fitted
//! coefficients so the caller can check them bit for bit against the
//! live answer: if they differ, the replay did not do the work the
//! server did.

use em_codec::explain::ExplainOptions;
use em_codec::json::Value;
use em_entity::{EntityPair, EntitySide, MatchModel, PerturbSpec, Schema, SideSpec};
use em_lime::{fit_surrogate, MaskSampler, SurrogateConfig};
use landmark_core::{generate_view, GenerationStrategy};

use crate::spans::Recorder;

/// Per-side mask-seed salts of `LandmarkExplainer::explain_with_landmark`.
/// A copy: if the explainer changes them, the bit-identity check fails.
fn side_seed(seed: u64, landmark: EntitySide) -> u64 {
    seed ^ match landmark {
        EntitySide::Left => 0x9E37_79B9_7F4A_7C15,
        EntitySide::Right => 0xD1B5_4A32_D192_ED03,
    }
}

/// Work counts seen by the replay.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Features (view tokens) of each landmark view replayed.
    pub features: Vec<f64>,
    /// Masks scored.
    pub masks: usize,
}

/// Replays the two landmark views of one `landmark` explanation and
/// returns their coefficients, left landmark first.
pub fn landmark<M: MatchModel>(
    rec: &mut Recorder,
    request: u64,
    model: &M,
    schema: &Schema,
    pair: &EntityPair,
    options: &ExplainOptions,
    counts: &mut Counts,
) -> Vec<Vec<f64>> {
    let surrogate = SurrogateConfig {
        kernel_width: options.kernel_width,
        solver: options.solver,
    };
    [EntitySide::Left, EntitySide::Right]
        .into_iter()
        .map(|side| {
            let outer = rec.enter("core.explain_with_landmark", request);
            let p = rec.time("em-matchers.predict_proba", request, || {
                model.predict_proba(schema, pair)
            });
            let strategy = rec.time("core.resolve", request, || {
                GenerationStrategy::auto().resolve(p)
            });
            let view = rec.time("core.generate_view", request, || {
                generate_view(pair, side, strategy)
            });
            counts.features.push(view.tokens.len() as f64);
            let masks = rec.time("em-lime.sample", request, || {
                MaskSampler::new(side_seed(options.seed, side))
                    .sample(view.tokens.len(), options.n_samples)
            });
            counts.masks += masks.len();
            let (left, right) = match view.varying {
                EntitySide::Left => (SideSpec::Varying(&view.tokens[..]), SideSpec::Fixed),
                EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&view.tokens[..])),
            };
            let spec = PerturbSpec::TokenDrop { pair, left, right };
            let mut scorer = rec.time("em-matchers.prepare_scorer", request, || {
                model.prepare_scorer(schema, &spec)
            });
            let probs: Vec<f64> = rec.time("em-matchers.score_mask", request, || {
                masks.iter().map(|m| scorer.score_mask(m)).collect()
            });
            let fit = rec.time("em-lime.fit_surrogate", request, || {
                fit_surrogate(&masks, &probs, &surrogate)
            });
            rec.exit(outer);
            fit.coefficients
        })
        .collect()
}

/// The token weights of each view in an explain response, in order.
pub fn served_coefficients(response: &Value) -> Option<Vec<Vec<f64>>> {
    response
        .get("explanations")?
        .as_array()?
        .iter()
        .map(|view| {
            view.get("token_weights")?
                .as_array()?
                .iter()
                .map(|w| w.get("weight")?.as_f64())
                .collect()
        })
        .collect()
}

/// Bit-for-bit equality of coefficient sets.
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
