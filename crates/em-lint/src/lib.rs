//! `em-lint` — the workspace's static-analysis pass.
//!
//! Explanations are only trustworthy if the pipeline that produces them
//! is **deterministic** (same seed, same bytes — DESIGN.md §7/§8),
//! **total** (no panic on any input), and **crash-safe** (partial batch
//! runs never corrupt committed state). Those are invariants of the
//! whole codebase, not of one module, so this crate enforces them as
//! named, machine-checked rules over every workspace `.rs` file:
//!
//! * [`float-partial-cmp`](rules) — float orderings must use
//!   `f64::total_cmp`, never `partial_cmp().unwrap()`;
//! * [`hashmap-iter-order`](rules) — output-producing crates must not
//!   iterate hash-ordered collections;
//! * [`nondet-taint`](taint) — no nondeterminism source (clocks,
//!   hash-order iteration, `RandomState`, `std::env`, thread ids) may be
//!   *reachable* from a determinism sink (explainer entry points, codec
//!   writers, batch shard writers) through any depth of calls;
//! * [`fsync-protocol-order`](protocol) — em-batch's crash-safety
//!   commit sequence (tmp write → fsync → rename → dir fsync → manifest
//!   append under flock) must appear in exactly that order;
//! * [`panic-in-request-path`](rules) — no panic is reachable from a
//!   serving request handler, through any depth of helpers.
//!
//! Documentation is rustc's job: the workspace sets `missing_docs =
//! "warn"` and CI's clippy job denies warnings.
//!
//! The reachability rules run on a conservative workspace call graph:
//! [`parser`] builds a brace-tree item model on top of the [`lexer`],
//! [`graph`] resolves calls across all crates, and [`taint`] /
//! [`protocol`] / the panic rule consume it. See DESIGN.md §9/§13.
//!
//! Violations can be silenced only by a justified inline suppression
//! (`// em-lint: allow(<rule>) -- <reason>`); an unjustified suppression
//! is itself a violation. A function may instead be declared a
//! *sanitizer* (`// em-lint: sanitize(nondet-taint) -- <reason>`):
//! taint traversal stops at it, which is how em-obs's sanctioned clock
//! stays out of every seeded path report. Run it as:
//!
//! ```text
//! cargo run -p em-lint -- check [--format human|json|sarif] [--root <dir>]
//! cargo run -p em-lint -- graph [--format human|json] [--root <dir>]
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod context;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod protocol;
pub mod report;
pub mod rules;
pub mod taint;

pub use engine::{
    find_workspace_root, graph_stats, lint_source, lint_workspace, workspace_graph, Report,
    Violation,
};
