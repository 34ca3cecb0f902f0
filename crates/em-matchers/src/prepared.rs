//! The prepared-pair scoring kernel for the feature-based matchers
//! (DESIGN.md §11).
//!
//! Perturbation explainers score hundreds of masked variants of one
//! record. The naive path pays full price per mask: rebuild an
//! `EntityPair`, re-split and re-normalize every attribute value, rebuild
//! TF-IDF maps, recompute every Jaro-Winkler distance. But almost all of
//! that work is mask-invariant: the token set is fixed (masks only toggle
//! membership), the landmark side never changes, and every pairwise
//! Jaro-Winkler value is drawn from a fixed matrix. This module hoists the
//! mask-invariant work into a one-time preparation step and scores each
//! mask with integer id merges over reusable buffers.
//!
//! Training runs the same per-attribute evaluator with both sides fixed,
//! over the token ids the training corpus interned once for the whole
//! dataset (`corpus_rows`).
//!
//! **Bit-identity.** Every per-mask computation here replays the *exact*
//! floating-point operation sequence of
//! [`FeatureExtractor::extract`](crate::FeatureExtractor) on the
//! reconstructed pair:
//!
//! * interned token ids ascend in byte-lexicographic string order
//!   ([`TokenIds`]), so sorted-id merges visit (and sum) entries in the
//!   same order as the sorted-string merges of the naive TF-IDF path;
//! * Jaccard counts are integers either way; the final division uses the
//!   same two casts;
//! * Monge-Elkan folds the precomputed Jaro-Winkler matrix in the same
//!   token order with the same `f64::max` accumulator;
//! * numeric parsing per token is equivalent to parsing the joined string
//!   (a space always flushes the current number fragment), and the blend /
//!   fallback helpers are shared functions, not re-implementations.
//!
//! The property suites (`tests/property_kernel.rs`,
//! `tests/property_training.rs`) and the `kernel_speedup` bench assert the
//! resulting probabilities and training rows equal the naive path's bit
//! for bit.

use std::collections::HashMap;

use em_entity::prepared::{PerturbSpec, PreparedScorer, SideSpec};
use em_entity::schema::AttributeKind;
use em_entity::{EmDataset, Entity, EntityPair, EntitySide, Schema};
use em_linalg::logistic::LogisticModel;
use em_text::intern::TokenIds;
use em_text::tfidf::{cosine_prepared, PreparedDoc};
use em_text::{jaro_winkler, levenshtein_similarity, numeric_value_similarity, parse_number};

use crate::corpus::Corpus;
use crate::features::{code_similarity_norm, combine_name, combine_text, FeatureExtractor};
use crate::id_space::{jaccard_ids, monge_elkan_matrix};
use crate::logistic_matcher::LogisticMatcher;
use crate::naive_bayes::NaiveBayesMatcher;

/// A side frozen at one attribute value: everything here is computed
/// once and valid for every mask. Only what the attribute's kind reads is
/// computed.
#[derive(Debug, Default)]
struct Frozen<'a> {
    /// The attribute value, exactly as `predict_proba` sees it.
    raw: &'a str,
    /// Normalized token ids in token order (the Monge-Elkan sequence).
    ids: Vec<u32>,
    /// `ids` sorted ascending (Name, Text: the Jaccard / TF-IDF form).
    sorted_ids: Vec<u32>,
    /// Prepared TF-IDF document (Text).
    doc: PreparedDoc,
    /// `parse_number(raw)` (Numeric).
    parsed: Option<f64>,
    /// `raw.trim().to_lowercase()` (Code).
    code_norm: String,
}

impl<'a> Frozen<'a> {
    /// Freezes the side at value `raw` of a `kind` attribute, whose
    /// normalized token ids in token order are `ids`, reusing the buffers
    /// of the value frozen before.
    fn set(&mut self, kind: AttributeKind, raw: &'a str, ids: &[u32], idf_by_id: &[f64]) {
        self.raw = raw;
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.sorted_ids.clear();
        if matches!(kind, AttributeKind::Name | AttributeKind::Text) {
            self.sorted_ids.extend_from_slice(ids);
            self.sorted_ids.sort_unstable();
        }
        if kind == AttributeKind::Text {
            self.doc
                .rebuild_from_sorted_ids(&self.sorted_ids, idf_by_id);
        }
        self.parsed = match kind {
            AttributeKind::Numeric => parse_number(raw),
            _ => None,
        };
        if kind == AttributeKind::Code {
            self.code_norm = raw.trim().to_lowercase();
        }
    }
}

/// Mask-invariant state for one side of one attribute.
#[derive(Debug)]
enum SideState<'a> {
    /// Frozen side: the same value for every mask.
    Fixed(Frozen<'a>),
    /// Mask-varying side: per-token state, filtered by the mask per call.
    Varying {
        /// Global mask-bit index of each of this attribute's tokens, in
        /// token order.
        feat_idx: Vec<usize>,
        /// Raw token texts, in token order (joining kept texts with `' '`
        /// reproduces the detokenized attribute value).
        raw: Vec<&'a str>,
        /// Normalized ids of the tokens whose normalization is non-empty,
        /// in token order — the Monge-Elkan sequence.
        ids: Vec<u32>,
        /// Local token index of each entry of `ids`.
        norm_local: Vec<usize>,
        /// `parse_number(token)` per token, in token order.
        parsed: Vec<Option<f64>>,
        /// Lowercased token texts, in token order (Code-kind form).
        lower: Vec<String>,
    },
}

impl<'a> SideState<'a> {
    /// One side of attribute `attr` in a token-drop family. `ids` holds
    /// the side's `(attribute, normalized id)` per token, in token order
    /// (`None` where a token normalizes to empty); a varying side's mask
    /// bits start at `offset`.
    fn prepare(
        kind: AttributeKind,
        spec: &SideSpec<'a>,
        entity: &'a Entity,
        ids: &[(usize, Option<u32>)],
        attr: usize,
        offset: usize,
        idf_by_id: &[f64],
    ) -> Self {
        match spec {
            SideSpec::Fixed => {
                let ids: Vec<u32> = ids
                    .iter()
                    .filter(|&&(a, _)| a == attr)
                    .filter_map(|&(_, id)| id)
                    .collect();
                let mut frozen = Frozen::default();
                frozen.set(kind, entity.value(attr), &ids, idf_by_id);
                SideState::Fixed(frozen)
            }
            SideSpec::Varying(tokens) => {
                let mut feat_idx = Vec::new();
                let mut raw: Vec<&'a str> = Vec::new();
                let mut norm_ids = Vec::new();
                let mut norm_local = Vec::new();
                let mut parsed = Vec::new();
                let mut lower = Vec::new();
                for (global, (token, &(_, id))) in tokens.iter().zip(ids).enumerate() {
                    if token.attribute != attr {
                        continue;
                    }
                    if let Some(id) = id {
                        norm_ids.push(id);
                        norm_local.push(raw.len());
                    }
                    feat_idx.push(offset + global);
                    raw.push(token.text.as_str());
                    parsed.push(parse_number(&token.text));
                    lower.push(token.text.to_lowercase());
                }
                SideState::Varying {
                    feat_idx,
                    raw,
                    ids: norm_ids,
                    norm_local,
                    parsed,
                    lower,
                }
            }
        }
    }

    /// Every normalized token id in token order, mask ignored.
    fn ids(&self) -> &[u32] {
        match self {
            SideState::Fixed(frozen) => &frozen.ids,
            SideState::Varying { ids, .. } => ids,
        }
    }

    /// Collects the mask-surviving normalized tokens: `seq` gets their
    /// positions in this side's Monge-Elkan sequence (ascending), `ids`
    /// their interned ids sorted ascending (duplicates preserved).
    fn gather_norm(&self, mask: &[bool], seq: &mut Vec<usize>, ids: &mut Vec<u32>) {
        seq.clear();
        ids.clear();
        match self {
            SideState::Fixed(frozen) => {
                seq.extend(0..frozen.ids.len());
                ids.extend_from_slice(&frozen.sorted_ids);
            }
            SideState::Varying {
                feat_idx,
                ids: all,
                norm_local,
                ..
            } => {
                for (k, (local, id)) in norm_local.iter().zip(all).enumerate() {
                    if mask[feat_idx[*local]] {
                        seq.push(k);
                        ids.push(*id);
                    }
                }
                ids.sort_unstable();
            }
        }
    }

    /// The prepared TF-IDF document for the mask-surviving tokens whose
    /// sorted ids are `sorted_ids` (from [`SideState::gather_norm`]).
    fn doc<'s>(
        &'s self,
        sorted_ids: &[u32],
        buf: &'s mut PreparedDoc,
        idf_by_id: &[f64],
    ) -> &'s PreparedDoc {
        match self {
            SideState::Fixed(frozen) => &frozen.doc,
            SideState::Varying { .. } => {
                buf.rebuild_from_sorted_ids(sorted_ids, idf_by_id);
                buf
            }
        }
    }

    /// The numeric value `parse_number` would find in the reconstructed
    /// attribute value (equivalent per token because a space always
    /// flushes the current number fragment).
    fn numeric_value(&self, mask: &[bool]) -> Option<f64> {
        match self {
            SideState::Fixed(frozen) => frozen.parsed,
            SideState::Varying {
                feat_idx, parsed, ..
            } => {
                for (local, p) in parsed.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if let Some(v) = p {
                            return Some(*v);
                        }
                    }
                }
                None
            }
        }
    }

    /// The reconstructed raw attribute value (kept tokens joined by a
    /// space; the fixed side returns the original value by reference).
    fn raw_value<'s>(&'s self, mask: &[bool], buf: &'s mut String) -> &'s str {
        match self {
            SideState::Fixed(frozen) => frozen.raw,
            SideState::Varying { feat_idx, raw, .. } => join_kept(raw, feat_idx, mask, buf),
        }
    }

    /// The Code-kind comparison form of the reconstructed value
    /// (trimmed + lowercased; per-token lowercasing composes because
    /// `to_lowercase` maps code points independently and the joined value
    /// has no edge whitespace).
    fn code_value<'s>(&'s self, mask: &[bool], buf: &'s mut String) -> &'s str {
        match self {
            SideState::Fixed(frozen) => &frozen.code_norm,
            SideState::Varying {
                feat_idx, lower, ..
            } => join_kept(lower, feat_idx, mask, buf),
        }
    }
}

/// The mask-kept entries of `texts` (token `i` is kept iff
/// `mask[feat_idx[i]]`), joined by a space into `buf`.
fn join_kept<'s>(
    texts: &[impl AsRef<str>],
    feat_idx: &[usize],
    mask: &[bool],
    buf: &'s mut String,
) -> &'s str {
    buf.clear();
    for (text, &bit) in texts.iter().zip(feat_idx) {
        if mask[bit] {
            if !buf.is_empty() {
                buf.push(' ');
            }
            buf.push_str(text.as_ref());
        }
    }
    buf
}

/// Mask-invariant state for one attribute: the kernel's per-attribute
/// evaluator.
#[derive(Debug)]
struct AttrState<'a> {
    kind: AttributeKind,
    left: SideState<'a>,
    right: SideState<'a>,
    /// Name-kind only: row-major Jaro-Winkler matrix between the left
    /// side's full normalized-token sequence (rows) and the right side's
    /// (columns). Empty for other kinds.
    jw: Vec<f64>,
}

impl<'a> AttrState<'a> {
    /// Prepares a `kind` attribute; `jaro(l, r)` is the Jaro-Winkler
    /// similarity of the tokens with ids `l` and `r`.
    fn new(
        kind: AttributeKind,
        left: SideState<'a>,
        right: SideState<'a>,
        jaro: impl FnMut(u32, u32) -> f64,
    ) -> Self {
        let mut attr = AttrState {
            kind,
            left,
            right,
            jw: Vec::new(),
        };
        attr.fill_jw(jaro);
        attr
    }

    /// Re-freezes both sides, which must be fixed, at another record's
    /// `(value, ids)` pairs (see [`Frozen::set`]), reusing every buffer.
    fn refreeze(
        &mut self,
        left: (&'a str, &[u32]),
        right: (&'a str, &[u32]),
        idf_by_id: &[f64],
        jaro: impl FnMut(u32, u32) -> f64,
    ) {
        for (side, (raw, ids)) in [(&mut self.left, left), (&mut self.right, right)] {
            let SideState::Fixed(frozen) = side else {
                unreachable!("only fixed sides are re-frozen");
            };
            frozen.set(self.kind, raw, ids, idf_by_id);
        }
        self.fill_jw(jaro);
    }

    /// Recomputes the Jaro-Winkler matrix from both sides' ids.
    fn fill_jw(&mut self, mut jaro: impl FnMut(u32, u32) -> f64) {
        self.jw.clear();
        // The matrix is only consulted for Name attributes; skip the
        // quadratic work everywhere else.
        if self.kind == AttributeKind::Name {
            let (l_ids, r_ids) = (self.left.ids(), self.right.ids());
            for &l in l_ids {
                for &r in r_ids {
                    self.jw.push(jaro(l, r));
                }
            }
        }
    }

    /// The attribute's feature under `mask`, bit-identical to extracting
    /// it from the reconstructed pair.
    fn evaluate(&self, mask: &[bool], scratch: &mut Scratch, idf_by_id: &[f64]) -> f64 {
        match self.kind {
            AttributeKind::Name | AttributeKind::Text => {
                self.left
                    .gather_norm(mask, &mut scratch.l_seq, &mut scratch.l_ids);
                self.right
                    .gather_norm(mask, &mut scratch.r_seq, &mut scratch.r_ids);
                let jac = jaccard_ids(&scratch.l_ids, &scratch.r_ids);
                if self.kind == AttributeKind::Name {
                    let ncols = self.right.ids().len();
                    let me = monge_elkan_matrix(&scratch.l_seq, &scratch.r_seq, &self.jw, ncols);
                    combine_name(jac, me)
                } else {
                    let ld = self.left.doc(&scratch.l_ids, &mut scratch.l_doc, idf_by_id);
                    let rd = self
                        .right
                        .doc(&scratch.r_ids, &mut scratch.r_doc, idf_by_id);
                    combine_text(cosine_prepared(ld, rd), jac)
                }
            }
            AttributeKind::Numeric => {
                match (
                    self.left.numeric_value(mask),
                    self.right.numeric_value(mask),
                ) {
                    (Some(x), Some(y)) => numeric_value_similarity(x, y),
                    _ => {
                        let l = self.left.raw_value(mask, &mut scratch.l_str);
                        let r = self.right.raw_value(mask, &mut scratch.r_str);
                        levenshtein_similarity(l, r)
                    }
                }
            }
            AttributeKind::Code => {
                let l = self.left.code_value(mask, &mut scratch.l_str);
                let r = self.right.code_value(mask, &mut scratch.r_str);
                code_similarity_norm(l, r)
            }
        }
    }
}

/// Reusable per-mask buffers: one allocation set per scorer, reused for
/// every mask it scores.
#[derive(Debug, Default)]
struct Scratch {
    l_seq: Vec<usize>,
    r_seq: Vec<usize>,
    l_ids: Vec<u32>,
    r_ids: Vec<u32>,
    l_doc: PreparedDoc,
    r_doc: PreparedDoc,
    l_str: String,
    r_str: String,
    features: Vec<f64>,
}

/// Prepared feature computation for any [`PerturbSpec`], shared by both
/// matcher kernels.
#[derive(Debug)]
enum PreparedFamily<'a> {
    /// Token drop (Landmark, LIME): one evaluator per attribute, over ids
    /// weighted by `idf_by_id`.
    TokenDrop {
        attrs: Vec<AttrState<'a>>,
        idf_by_id: Vec<f64>,
    },
    /// Attribute copy (Mojito copy): every attribute can only take two
    /// values — its original similarity or its fully-copied similarity —
    /// so scoring a mask is pure selection.
    AttrCopy { kept: Vec<f64>, copied: Vec<f64> },
}

impl<'a> PreparedFamily<'a> {
    /// Prepares a token-drop family.
    fn token_drop(
        extractor: &FeatureExtractor,
        schema: &Schema,
        pair: &'a EntityPair,
        left: &SideSpec<'a>,
        right: &SideSpec<'a>,
    ) -> Self {
        for spec in [left, right] {
            if let SideSpec::Varying(tokens) = spec {
                for t in tokens.iter() {
                    // Same rejection the naive path gets from `detokenize`.
                    assert!(
                        t.attribute < schema.len(),
                        "token attribute {} out of range for {} attributes",
                        t.attribute,
                        schema.len()
                    );
                }
            }
        }
        // Pass 1: normalize every token of both sides once and intern it,
        // so ids are shared (and comparable) across sides. A side becomes
        // one `(attribute, id)` per token, in token order; the id is `None`
        // where the token normalizes to empty.
        let mut interning = TokenIds::default();
        let mut intern_side = |side: EntitySide, spec: &SideSpec| -> Vec<(usize, Option<u32>)> {
            let entity = pair.entity(side);
            match spec {
                SideSpec::Fixed => (0..schema.len())
                    .flat_map(|a| entity.value(a).split_whitespace().map(move |t| (a, t)))
                    .map(|(a, text)| (a, interning.id(text)))
                    .collect(),
                SideSpec::Varying(tokens) => tokens
                    .iter()
                    .map(|t| (t.attribute, interning.id(&t.text)))
                    .collect(),
            }
        };
        let mut l_ids = intern_side(EntitySide::Left, left);
        let mut r_ids = intern_side(EntitySide::Right, right);
        let (vocabulary, remap) = interning.into_sorted();
        for (_, id) in l_ids.iter_mut().chain(&mut r_ids) {
            if let Some(id) = id {
                *id = remap[*id as usize];
            }
        }
        let vectorizer = extractor.vectorizer();
        let idf_by_id: Vec<f64> = vocabulary.iter().map(|t| vectorizer.idf(t)).collect();

        // Pass 2: per-attribute, per-side mask-invariant state.
        let right_offset = left.token_count();
        let attrs = (0..schema.len())
            .map(|a| {
                let kind = schema.attribute(a).kind;
                AttrState::new(
                    kind,
                    SideState::prepare(kind, left, &pair.left, &l_ids, a, 0, &idf_by_id),
                    SideState::prepare(
                        kind,
                        right,
                        &pair.right,
                        &r_ids,
                        a,
                        right_offset,
                        &idf_by_id,
                    ),
                    |l, r| jaro_winkler(&vocabulary[l as usize], &vocabulary[r as usize]),
                )
            })
            .collect();
        PreparedFamily::TokenDrop { attrs, idf_by_id }
    }
}

/// Every training record's feature row, row-major, from the kernel's
/// per-attribute evaluator with both sides fixed: `corpus` (built from
/// `dataset`) supplies each value's ids and the dataset-wide IDF, and
/// Jaro-Winkler is memoized per id pair across the whole run. Row `i`
/// equals [`FeatureExtractor::extract`] on record `i` bit for bit.
pub(crate) fn corpus_rows(dataset: &EmDataset, corpus: &Corpus) -> Vec<f64> {
    let schema = dataset.schema();
    let idf_by_id = corpus.idf_by_id();
    // Only probed, never iterated.
    let mut jw_memo: HashMap<(u32, u32), f64> = HashMap::new();
    let mut scratch = Scratch::default();
    // One evaluator per attribute, re-frozen at every record's values.
    let mut attrs: Vec<AttrState> = (0..schema.len())
        .map(|a| {
            let fixed = || SideState::Fixed(Frozen::default());
            AttrState::new(schema.attribute(a).kind, fixed(), fixed(), |_, _| 0.0)
        })
        .collect();
    let mut rows = Vec::with_capacity(dataset.len() * schema.len());
    for (r, record) in dataset.records().iter().enumerate() {
        for (a, attr) in attrs.iter_mut().enumerate() {
            attr.refreeze(
                (record.pair.left.value(a), corpus.value_ids(r, 0, a)),
                (record.pair.right.value(a), corpus.value_ids(r, 1, a)),
                &idf_by_id,
                |l, rt| {
                    *jw_memo
                        .entry((l, rt))
                        .or_insert_with(|| jaro_winkler(corpus.token(l), corpus.token(rt)))
                },
            );
            rows.push(attr.evaluate(&[], &mut scratch, &idf_by_id));
        }
    }
    rows
}

/// Feature-level prepared state + scratch: computes the per-mask feature
/// vector that `FeatureExtractor::extract` would produce on the
/// reconstructed pair, bit for bit.
#[derive(Debug)]
pub(crate) struct PreparedFeatures<'a> {
    family: PreparedFamily<'a>,
    mask_len: usize,
    scratch: Scratch,
}

impl<'a> PreparedFeatures<'a> {
    pub(crate) fn new(
        extractor: &FeatureExtractor,
        schema: &Schema,
        spec: &PerturbSpec<'a>,
    ) -> Self {
        let family = match spec {
            PerturbSpec::TokenDrop { pair, left, right } => {
                PreparedFamily::token_drop(extractor, schema, pair, left, right)
            }
            PerturbSpec::AttrCopy { pair, .. } => {
                let all_copied = spec.reconstruct(&vec![false; schema.len()], schema.len());
                PreparedFamily::AttrCopy {
                    kept: extractor.extract(schema, pair),
                    copied: extractor.extract(schema, &all_copied),
                }
            }
        };
        PreparedFeatures {
            family,
            mask_len: spec.mask_len(schema.len()),
            scratch: Scratch::default(),
        }
    }

    /// The feature vector for one mask (borrowed from internal scratch),
    /// bit-identical to extracting from the reconstructed pair.
    pub(crate) fn compute(&mut self, mask: &[bool]) -> &[f64] {
        assert_eq!(
            mask.len(),
            self.mask_len,
            "perturbation mask length must equal the spec's mask length"
        );
        let scratch = &mut self.scratch;
        scratch.features.clear();
        match &self.family {
            PreparedFamily::TokenDrop { attrs, idf_by_id } => {
                for attr in attrs {
                    let value = attr.evaluate(mask, scratch, idf_by_id);
                    scratch.features.push(value);
                }
            }
            PreparedFamily::AttrCopy { kept, copied } => {
                for ((&keep, &k), &c) in mask.iter().zip(kept).zip(copied) {
                    scratch.features.push(if keep { k } else { c });
                }
            }
        }
        &scratch.features
    }
}

/// The [`LogisticMatcher`] kernel: prepared features + the logistic head.
#[derive(Debug)]
pub struct LogisticPreparedScorer<'a> {
    features: PreparedFeatures<'a>,
    model: &'a LogisticModel,
}

impl<'a> LogisticPreparedScorer<'a> {
    /// Prepares the matcher for one perturbation family.
    pub fn new(matcher: &'a LogisticMatcher, schema: &Schema, spec: &PerturbSpec<'a>) -> Self {
        LogisticPreparedScorer {
            features: PreparedFeatures::new(matcher.extractor(), schema, spec),
            model: matcher.model(),
        }
    }
}

impl PreparedScorer for LogisticPreparedScorer<'_> {
    fn score_mask(&mut self, mask: &[bool]) -> f64 {
        let features = self.features.compute(mask);
        self.model.predict_proba(features)
    }
}

/// The [`NaiveBayesMatcher`] kernel: prepared features + the Gaussian NB
/// posterior head.
#[derive(Debug)]
pub struct NaiveBayesPreparedScorer<'a> {
    features: PreparedFeatures<'a>,
    matcher: &'a NaiveBayesMatcher,
}

impl<'a> NaiveBayesPreparedScorer<'a> {
    /// Prepares the matcher for one perturbation family.
    pub fn new(matcher: &'a NaiveBayesMatcher, schema: &Schema, spec: &PerturbSpec<'a>) -> Self {
        NaiveBayesPreparedScorer {
            features: PreparedFeatures::new(matcher.extractor(), schema, spec),
            matcher,
        }
    }
}

impl PreparedScorer for NaiveBayesPreparedScorer<'_> {
    fn score_mask(&mut self, mask: &[bool]) -> f64 {
        let features = self.features.compute(mask);
        self.matcher.posterior_from_features(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic_matcher::MatcherConfig;
    use em_entity::prepared::FallbackScorer;
    use em_entity::schema::Attribute;
    use em_entity::tokenizer::tokenize_entity;
    use em_entity::{EmDataset, Entity, LabeledPair, MatchModel};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute {
                name: "name".into(),
                kind: AttributeKind::Name,
            },
            Attribute {
                name: "description".into(),
                kind: AttributeKind::Text,
            },
            Attribute {
                name: "price".into(),
                kind: AttributeKind::Numeric,
            },
            Attribute {
                name: "model".into(),
                kind: AttributeKind::Code,
            },
        ])
    }

    fn dataset() -> EmDataset {
        let mk = |l: [&str; 4], r: [&str; 4], label| {
            LabeledPair::new(
                EntityPair::new(Entity::new(l.to_vec()), Entity::new(r.to_vec())),
                label,
            )
        };
        EmDataset::new(
            "toy",
            schema(),
            vec![
                mk(
                    [
                        "sony alpha camera",
                        "digital slr camera with lens and kit",
                        "849.99",
                        "DSLRA200W",
                    ],
                    ["sony camera", "slr camera lens kit", "$850.00", "dslra200w"],
                    true,
                ),
                mk(
                    ["nikon coolpix", "compact zoom camera", "329.00", "CP-950"],
                    [
                        "leather case",
                        "black leather case for cameras",
                        "7.99",
                        "5811",
                    ],
                    false,
                ),
                mk(
                    ["canon eos body", "professional slr body", "1299", "EOS-5D"],
                    ["canon eos", "pro slr camera body", "1250.00", "eos-5d"],
                    true,
                ),
                mk(
                    ["dell xps laptop", "thin light laptop", "999.99", "XPS13"],
                    ["kitchen towel", "cotton towel set", "9.99", "KT-2"],
                    false,
                ),
            ],
        )
    }

    /// All masks for small n, plus a deterministic pseudo-random batch for
    /// larger n.
    fn masks_for(n: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        if n <= 10 {
            for bits in 0..(1u32 << n) {
                out.push((0..n).map(|i| bits >> i & 1 == 1).collect());
            }
        } else {
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            out.push(vec![true; n]);
            out.push(vec![false; n]);
            for _ in 0..200 {
                out.push(
                    (0..n)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state & 1 == 1
                        })
                        .collect(),
                );
            }
        }
        out
    }

    fn assert_kernel_matches_fallback<M: MatchModel>(model: &M, s: &Schema, spec: PerturbSpec<'_>) {
        let mut kernel = model.prepare_scorer(s, &spec);
        let mut naive = FallbackScorer::new(model, s, &spec);
        for mask in masks_for(spec.mask_len(s.len())) {
            let k = kernel.score_mask(&mask);
            let n = naive.score_mask(&mask);
            assert_eq!(
                k.to_bits(),
                n.to_bits(),
                "kernel {k} != naive {n} for mask {mask:?}"
            );
        }
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_landmark_specs() {
        let d = dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let s = d.schema();
        for record in d.records() {
            for varying in [EntitySide::Left, EntitySide::Right] {
                let tokens = tokenize_entity(record.pair.entity(varying));
                let (left, right) = match varying {
                    EntitySide::Left => (SideSpec::Varying(&tokens[..]), SideSpec::Fixed),
                    EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&tokens[..])),
                };
                let spec = PerturbSpec::TokenDrop {
                    pair: &record.pair,
                    left,
                    right,
                };
                assert_kernel_matches_fallback(&m, s, spec);
            }
        }
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_both_sides_varying() {
        let d = dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let s = d.schema();
        let pair = &d.records()[0].pair;
        let lt = tokenize_entity(&pair.left);
        let rt = tokenize_entity(&pair.right);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&lt[..]),
            right: SideSpec::Varying(&rt[..]),
        };
        assert_kernel_matches_fallback(&m, s, spec);
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_attr_copy() {
        let d = dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let s = d.schema();
        for record in d.records() {
            for side in [EntitySide::Left, EntitySide::Right] {
                let spec = PerturbSpec::AttrCopy {
                    pair: &record.pair,
                    copy_into: side,
                };
                assert_kernel_matches_fallback(&m, s, spec);
            }
        }
    }

    #[test]
    fn naive_bayes_kernel_is_bit_identical() {
        let d = dataset();
        let m = NaiveBayesMatcher::train(&d);
        let s = d.schema();
        let pair = &d.records()[1].pair;
        let tokens = tokenize_entity(&pair.right);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(&tokens[..]),
        };
        assert_kernel_matches_fallback(&m, s, spec);
        let copy = PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Left,
        };
        assert_kernel_matches_fallback(&m, s, copy);
    }

    #[test]
    fn kernel_handles_empty_and_unparseable_values() {
        // Attribute values that stress edge conventions: empty strings,
        // punctuation-only tokens (normalize to empty), unparseable
        // numerics falling back to Levenshtein on the raw join.
        let d = dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let s = d.schema();
        let pair = EntityPair::new(
            Entity::new(vec!["!!! ---", "", "around 12.50 ish", "  MIXed Case  "]),
            Entity::new(vec!["sony", "some words here", "n/a", ""]),
        );
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        assert_kernel_matches_fallback(&m, s, spec);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn kernel_rejects_short_masks() {
        let d = dataset();
        let m = LogisticMatcher::train(&d, &MatcherConfig::default());
        let pair = &d.records()[0].pair;
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        let mut scorer = m.prepare_scorer(d.schema(), &spec);
        let short = vec![true; tokens.len() - 1];
        scorer.score_mask(&short);
    }
}
