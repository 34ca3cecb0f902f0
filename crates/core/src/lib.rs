//! **Landmark Explanation** — the core contribution of
//! *"Using Landmarks for Explaining Entity Matching Models"* (EDBT 2021).
//!
//! A generic post-hoc perturbation explainer (LIME) perturbs a record by
//! dropping random tokens. On EM records — which describe a *pair* of
//! entities — that is ineffective: removals hit both entities at once
//! (producing *null perturbations* where the same token disappears from
//! both sides), and on the heavily imbalanced EM datasets almost every
//! perturbation lands in the non-match class.
//!
//! Landmark Explanation fixes this with two ideas:
//!
//! 1. **Landmarks.** Each record gets *two* explanations. In each, one
//!    entity is frozen as the *landmark* and only the other (the *varying*
//!    entity) is perturbed — see [`generation`]. The explanation then reads
//!    as "from the landmark's perspective, these tokens of the other entity
//!    drive the decision".
//! 2. **Token injection (double-entity generation).** For records the
//!    model considers non-matching, the landmark's tokens are first
//!    *injected* into the varying entity (concatenated per attribute).
//!    Perturbations can now produce records the model classifies as
//!    matching, which makes the surrogate — and the explanation — far more
//!    informative about *what would have to change* for a match.
//!
//! The pipeline mirrors the paper's Figure 2: [`generation`] (Landmark
//! generation) → mask sampling (from `em-lime`, the wrapped explainer) →
//! Pair reconstruction, which is [`em_entity::PerturbSpec`] with the
//! landmark side [`Fixed`](em_entity::SideSpec::Fixed) and the varying
//! side [`Varying`](em_entity::SideSpec::Varying) over the view's tokens
//! (built inside the `PairReconstruction` span) → black-box scoring
//! (Dataset reconstruction, [`em_entity::MatchModel::score_masks`]) →
//! surrogate fit (from `em-lime`).
//!
//! Entry point: [`LandmarkExplainer`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod counterfactual;
pub mod explainer;
pub mod generation;
pub mod strategy;
pub mod summary;

pub use counterfactual::{counterfactual, Counterfactual, CounterfactualConfig, Edit};
pub use explainer::{DualExplanation, LandmarkConfig, LandmarkExplainer, LandmarkExplanation};
pub use generation::{generate_view, VaryingView};
pub use strategy::GenerationStrategy;
pub use summary::{summarize, ExplanationSummary};
