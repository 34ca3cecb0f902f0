//! Evaluation harness reproducing the paper's experiments.
//!
//! * [`kendall`] — the weighted Kendall tau correlation used by the
//!   attribute-based evaluation;
//! * [`technique`] — a uniform interface over the four explanation
//!   techniques the paper compares (*Single*, *Double*, *LIME / Mojito
//!   Drop*, *Mojito Copy*);
//! * [`token_eval`] — the token-based reliability experiment (Table 2):
//!   remove 25% of explained tokens and check that the surrogate's
//!   coefficient sum predicts the black-box probability shift;
//! * [`attr_eval`] — the attribute-based reliability experiment (Table 3):
//!   weighted Kendall tau between the logistic matcher's attribute ranking
//!   and the surrogate's;
//! * [`interest_eval`] — the explanation-quality experiment (Table 4):
//!   remove all positive (matching records) or all negative (non-matching
//!   records) tokens and measure how often the predicted class flips;
//! * [`runner`] — end-to-end per-dataset runners producing the paper's
//!   table rows;
//! * [`tables`] — plain-text table formatting.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod attr_eval;
pub mod interest_eval;
pub mod kendall;
pub mod neighborhood;
pub mod removal;
pub mod runner;
pub mod stability;
pub mod tables;
pub mod technique;
pub mod token_eval;

pub use em_par::ParallelismConfig;
pub use kendall::weighted_kendall_tau;
pub use neighborhood::{neighborhood_stats, NeighborhoodStats};
pub use runner::{DatasetEvaluation, EvalConfig, Evaluator};
pub use stability::{explanation_stability, StabilityReport};
pub use technique::{ExplainedRecord, Technique};
pub use token_eval::TokenEvalResult;
