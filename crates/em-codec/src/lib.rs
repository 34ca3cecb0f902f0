//! `em-codec` — the shared explanation wire codec.
//!
//! Two subsystems emit explanations as JSON: the online server (`em-serve`)
//! and the offline batch pipeline (`em-batch`). Their outputs must be
//! **bit-identical** for the same `(pair, explainer, config, seed)` — a
//! batch-precomputed corpus has to be interchangeable with served
//! responses. That guarantee only holds if both sides share one encoder,
//! so the encoder lives here, below both of them:
//!
//! * [`json`] — the [`Value`] tree, recursive-descent parser, and writer.
//!   Objects preserve insertion order and numbers use Rust's
//!   shortest-round-trip `Display`, so encoding is deterministic and
//!   `f64 → text → f64` is exact (originally `em-serve::json`);
//! * [`explain`] — typed decode of explain requests, the canonical cache
//!   key, and the walk from `PairExplanation` / `DualExplanation` into a
//!   deterministic [`Value`] tree (originally `em-serve::codec`);
//! * [`hash`] — the FNV-1a 64-bit hash applied to the canonical key, so
//!   the serving cache's shard pick and the routing tier's ring placement
//!   (`em-route`) agree byte-for-byte on where a key lives.
//!
//! The crate stays dependency-free beyond the workspace: the build
//! environment is offline (no `serde`).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod explain;
pub mod hash;
pub mod json;

pub use explain::{ExplainOptions, ExplainRequest, ExplainerKind};
pub use hash::{fnv1a64, Fnv1a64};
pub use json::{JsonError, Value};
