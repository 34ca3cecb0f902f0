//! The rule catalog.
//!
//! Each rule encodes one project invariant (DESIGN.md §9/§13). The
//! per-file rules scan a [`FileContext`]; the workspace rules
//! (`nondet-taint` in [`crate::taint`], `fsync-protocol-order` in
//! [`crate::protocol`], and `panic-in-request-path` here) additionally
//! consume the [`crate::graph`] call graph. Rules return *raw* findings;
//! suppression filtering and reporting live in [`crate::engine`].
//!
//! | rule | invariant |
//! |---|---|
//! | `float-partial-cmp` | float comparisons must be total (`f64::total_cmp`), never `partial_cmp().unwrap()` — a NaN weight must not panic an explanation |
//! | `hashmap-iter-order` | output-producing crates must not iterate hash-ordered collections — iteration order is seeded per process and would leak into (cached) output |
//! | `nondet-taint` | no nondeterminism source may be reachable from a determinism sink through any depth of calls |
//! | `fsync-protocol-order` | em-batch's crash-safety commit sequence must appear in protocol order |
//! | `panic-in-request-path` | no panic site may be reachable from a request handler: no `unwrap`/`expect`/indexing panics anywhere a request can flow |

use crate::context::{FileContext, FileKind};
use crate::graph::Graph;
use crate::lexer::{Token, TokenKind};

/// A single rule finding before suppression filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`float-partial-cmp`, ...).
    pub rule: &'static str,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Alternate suppression anchor: for graph rules, the declaration
    /// line of the enclosing fn, so one per-function `allow` can cover a
    /// body with several sites. `None` for purely line-local rules.
    pub alt_line: Option<usize>,
    /// Human-readable description with the expected fix.
    pub message: String,
}

/// Names of all real rules, in reporting order. (The engine additionally
/// emits the two meta rules `suppression-missing-reason` and
/// `unknown-rule` for malformed suppression comments; those cannot be
/// suppressed.)
pub const RULE_NAMES: &[&str] = &[
    "float-partial-cmp",
    "fsync-protocol-order",
    "hashmap-iter-order",
    "nondet-taint",
    "panic-in-request-path",
];

/// Crates whose output is user-visible or cached, where hash-iteration
/// order would leak nondeterminism into results (ISSUE 3 / DESIGN.md §9).
/// `em-text` and `em-matchers` joined when the prepared scoring kernel
/// (DESIGN.md §11) moved probability computation into them: their f64
/// accumulation order now IS the explanation output, so hash-ordered
/// iteration there would break the kernel's bit-identity contract.
/// `em-lint` dogfoods its own rule: lint reports are diffed in CI, so
/// their ordering is output too. `em-route` is in scope because the
/// routing tier's contract is that a proxied response is byte-identical
/// to a direct one (ISSUE 10 / DESIGN.md §15): hash-ordered iteration
/// over ring or health state could reorder failover attempts or metric
/// series, both of which are observable output.
const OUTPUT_CRATES: &[&str] = &[
    "core",
    "em-lime",
    "em-eval",
    "em-serve",
    "em-text",
    "em-matchers",
    "em-codec",
    "em-batch",
    "em-lint",
    "em-route",
];

/// Runs every per-file rule over `ctx`. The workspace rules run once per
/// tree in [`crate::engine`], not here.
pub fn run_all(ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    float_partial_cmp(ctx, &mut out);
    hashmap_iter_order(ctx, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// Index just past the `)` matching the `(` at `toks[open]`.
fn skip_parens(toks: &[Token], open: usize) -> usize {
    let mut depth = 1usize;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        if toks[i].is_punct('(') {
            depth += 1;
        } else if toks[i].is_punct(')') {
            depth -= 1;
        }
        i += 1;
    }
    i
}

/// `float-partial-cmp`: flags `partial_cmp(..)` immediately chained into
/// `.unwrap()` / `.expect(..)`. `PartialOrd` on floats is not total, so
/// the chain panics on the first NaN weight or score; `f64::total_cmp`
/// gives the same order on real data and a deterministic one on NaN.
///
/// Applies everywhere — tests and examples included, since a NaN-induced
/// panic is just as wrong in a regression test as in the pipeline.
fn float_partial_cmp(ctx: &FileContext, out: &mut Vec<Finding>) {
    let toks = ctx.tokens();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let after = skip_parens(toks, i + 1);
        let dot = toks.get(after).is_some_and(|t| t.is_punct('.'));
        let panicky = toks
            .get(after + 1)
            .and_then(|t| t.ident())
            .is_some_and(|id| id == "unwrap" || id == "expect");
        if dot && panicky {
            out.push(Finding {
                rule: "float-partial-cmp",
                line: t.line,
                alt_line: None,
                message: "`partial_cmp(..).unwrap()/expect(..)` panics on NaN; \
                          use `f64::total_cmp` for a total, deterministic order"
                    .to_string(),
            });
        }
    }
}

/// Iterator-producing methods on `HashMap`/`HashSet` whose order is
/// seeded per process.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// All hash-order iteration sites in a file, as `(token index, line,
/// collection name)`, in token order. Shared between the per-file
/// `hashmap-iter-order` rule and the taint pass's source detection.
///
/// A site is either `name.iter()`-style (any [`HASH_ITER_METHODS`]
/// method on a tracked local or declared field, including `self.name`
/// receivers) or a `for .. in name { .. }` loop over one.
pub(crate) fn hash_iter_sites(ctx: &FileContext) -> Vec<(usize, usize, String)> {
    let toks = ctx.tokens();
    let tracked = |name: &str| ctx.hash_locals.contains(name) || ctx.hash_fields.contains(name);
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `name.iter()` and friends on a tracked collection.
        if let Some(name) = t.ident() {
            if tracked(name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(i + 2)
                    .and_then(|t| t.ident())
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                let method = toks[i + 2].ident().unwrap_or("");
                sites.push((i, t.line, format!("{name}.{method}()")));
            }
        }
        // `for x in [&[mut]] [self.]name { .. }` over a tracked collection.
        if t.is_ident("for") {
            // Find the `in` at nesting depth 0 before the loop body.
            let mut j = i + 1;
            let mut depth = 0isize;
            while j < toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && u.is_ident("in") {
                    break;
                } else if depth == 0 && u.is_punct('{') {
                    j = toks.len();
                }
                j += 1;
            }
            let mut k = j + 1;
            while toks
                .get(k)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                k += 1;
            }
            // A `self.name` receiver: step to the field ident.
            if toks.get(k).is_some_and(|t| t.is_ident("self"))
                && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
            {
                k += 2;
            }
            if let Some(name) = toks.get(k).and_then(|t| t.ident()) {
                if tracked(name) && toks.get(k + 1).is_some_and(|t| t.is_punct('{')) {
                    sites.push((i, t.line, format!("for .. in {name}")));
                }
            }
        }
    }
    sites
}

/// `hashmap-iter-order`: in output-producing crates, flags iteration over
/// locals and declared fields bound to `HashMap`/`HashSet`. `RandomState`
/// seeds the order per process, so anything downstream of the iteration —
/// sorted-by-equal-key lists, float accumulations, serialized maps — can
/// differ between two runs with identical seeds. Use
/// `BTreeMap`/`BTreeSet` or sort first.
fn hashmap_iter_order(ctx: &FileContext, out: &mut Vec<Finding>) {
    if !OUTPUT_CRATES.contains(&ctx.crate_name.as_str())
        || !matches!(ctx.kind, FileKind::LibrarySrc | FileKind::Binary)
    {
        return;
    }
    for (_, line, what) in hash_iter_sites(ctx) {
        if ctx.is_test_line(line) {
            continue;
        }
        out.push(Finding {
            rule: "hashmap-iter-order",
            line,
            alt_line: None,
            message: format!(
                "`{what}` iterates a hash-ordered collection in an output-producing \
                 crate; order is seeded per process — use BTreeMap/BTreeSet or \
                 collect and sort deterministically"
            ),
        });
    }
}

/// Entry points of `panic-in-request-path` reachability: the shared
/// connection loop, the routing tier's request handler (em-serve's loop
/// calls it through a trait the graph cannot follow across crates), and
/// the codec surfaces that parse or render untrusted bytes (shared with
/// em-batch so batch output stays server-identical).
pub const PANIC_ROOTS: &[(&str, &str)] = &[
    ("em-serve", "handle_connection"),
    ("em-route", "route"),
    ("em-serve", "read_request"),
    ("em-codec", "run_explain"),
    ("em-codec", "run_explain_traced"),
    ("em-codec", "parse"),
    ("em-codec", "to_json"),
];

/// Crates the panic traversal may enter. The explainer core is excluded
/// deliberately: its contract is seeded determinism, not totality on
/// adversarial input — requests reach it only after codec validation.
pub const PANIC_SCOPE: &[&str] = &["em-serve", "em-route", "em-codec", "em-obs"];

/// `panic-in-request-path` (v2): walks the call graph from the request
/// handlers ([`PANIC_ROOTS`]) through every helper in [`PANIC_SCOPE`]
/// and flags `.unwrap()`, `.expect(..)`, `panic!`-family macros, and
/// slice/array indexing in any reached function. A malformed or
/// adversarial request must produce a 4xx/5xx response, never tear down
/// a worker — and v1's file allowlist could not see a panicky helper one
/// module away. Returns `(file index, finding)` pairs.
pub fn panic_in_request_path(ctxs: &[FileContext], graph: &Graph) -> Vec<(usize, Finding)> {
    let scope: std::collections::BTreeSet<String> =
        PANIC_SCOPE.iter().map(|s| s.to_string()).collect();
    let mut roots = Vec::new();
    for &(krate, fname) in PANIC_ROOTS {
        roots.extend(graph.find(krate, fname));
    }
    let preds = graph.reachable(&roots, Some(&scope), &|_| false);
    let mut out = Vec::new();
    for &f in preds.keys() {
        let node = &graph.fns[f];
        let ctx = &ctxs[node.file];
        for (line, message) in panic_sites(ctx, &graph.own_tokens(f)) {
            out.push((
                node.file,
                Finding {
                    rule: "panic-in-request-path",
                    line,
                    alt_line: Some(node.decl_line),
                    message: format!(
                        "{message} (in `{}`, reachable via {})",
                        node.name,
                        graph.chain(&preds, f)
                    ),
                },
            ));
        }
    }
    out
}

/// Token-level panic-site detection over one fn's own tokens.
fn panic_sites(ctx: &FileContext, own: &[usize]) -> Vec<(usize, String)> {
    let toks = ctx.tokens();
    let mut out = Vec::new();
    for &i in own {
        let t = &toks[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        if let Some(id) = t.ident() {
            let prev_dot = i > 0 && toks[i - 1].is_punct('.');
            match id {
                "unwrap" | "expect" if prev_dot => {
                    // `self.expect(b'x')` is the parser's own fallible
                    // method, not `Option::expect`; skip that one receiver.
                    let receiver_is_self = i >= 2 && toks[i - 2].is_ident("self") && id == "expect";
                    if !receiver_is_self {
                        out.push((
                            t.line,
                            format!(
                                "`.{id}(..)` in the request path can panic on \
                                 malformed input; return an error response instead"
                            ),
                        ));
                    }
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
                {
                    out.push((
                        t.line,
                        format!(
                            "`{id}!` in the request path; handle the case and \
                             return an error response instead"
                        ),
                    ));
                }
                _ => {}
            }
        }
        // Indexing: `[` whose previous token ends an expression (ident,
        // `)`, `]`) — but not macro invocations (`vec![`), attributes
        // (`#[`), or type syntax.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let prev_ends_expr = matches!(
                &prev.kind,
                TokenKind::Ident(_) | TokenKind::Punct(')') | TokenKind::Punct(']')
            );
            let is_macro = i >= 2 && toks[i - 2].is_punct('!');
            // `let x = [..]` array literals follow `=`/`(`/`,`, which
            // `prev_ends_expr` already excludes.
            let is_keyword = prev
                .ident()
                .is_some_and(|id| matches!(id, "in" | "return" | "else" | "match" | "mut"));
            if prev_ends_expr && !is_macro && !is_keyword {
                out.push((
                    t.line,
                    "slice/array indexing in the request path panics when out of \
                     bounds; use `.get(..)` or prove the bound with a suppression"
                        .to_string(),
                ));
            }
        }
    }
    out
}
