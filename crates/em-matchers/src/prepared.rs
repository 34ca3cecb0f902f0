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
//! **Bit-identity.** Every per-mask computation here replays the *exact*
//! floating-point operation sequence of
//! [`FeatureExtractor::extract`](crate::FeatureExtractor) on the
//! reconstructed pair:
//!
//! * interned token ids ascend in byte-lexicographic string order
//!   ([`Interner`]), so sorted-id merges visit (and sum) entries in the
//!   same order as the sorted-string merges of the naive TF-IDF path;
//! * Jaccard counts are integers either way; the final division uses the
//!   same two casts;
//! * Monge-Elkan folds the precomputed Jaro-Winkler matrix in the same
//!   token order with the same `f64::max` accumulator;
//! * numeric parsing per token is equivalent to parsing the joined string
//!   (a space always flushes the current number fragment), and the blend /
//!   fallback helpers are shared functions, not re-implementations.
//!
//! The property suite (`tests/property_kernel.rs`) and the
//! `kernel_speedup` bench assert the resulting probabilities equal the
//! naive path's bit for bit.

use em_entity::prepared::{PerturbSpec, PreparedScorer, SideSpec};
use em_entity::schema::AttributeKind;
use em_entity::{EntityPair, EntitySide, Schema};
use em_linalg::logistic::LogisticModel;
use em_text::intern::Interner;
use em_text::tfidf::{cosine_prepared, PreparedDoc};
use em_text::tokens::{normalize, normalized_tokens};
use em_text::{jaro_winkler, levenshtein_similarity, numeric_value_similarity, parse_number};

use crate::features::{code_similarity_norm, combine_name, combine_text, FeatureExtractor};
use crate::id_space::{jaccard_ids, monge_elkan_matrix};
use crate::logistic_matcher::LogisticMatcher;
use crate::naive_bayes::NaiveBayesMatcher;

/// Mask-invariant state for one side of one attribute.
#[derive(Debug)]
enum SideState<'a> {
    /// Frozen side: every value below is computed once and valid for all
    /// masks.
    Fixed {
        /// The original attribute value, exactly as `predict_proba` sees it.
        raw: &'a str,
        /// Number of normalized tokens (the Monge-Elkan sequence length).
        n_norm: usize,
        /// Normalized token ids, sorted ascending (Jaccard / TF-IDF form).
        sorted_ids: Vec<u32>,
        /// Prepared TF-IDF document.
        doc: PreparedDoc,
        /// `parse_number(raw)`.
        parsed: Option<f64>,
        /// `raw.trim().to_lowercase()` (Code-kind comparison form).
        code_norm: String,
    },
    /// Mask-varying side: per-token state, filtered by the mask per call.
    Varying {
        /// Global mask-bit index of each of this attribute's tokens, in
        /// token order.
        feat_idx: Vec<usize>,
        /// Raw token texts, in token order (joining kept texts with `' '`
        /// reproduces the detokenized attribute value).
        raw: Vec<&'a str>,
        /// `(local token index, normalized id)` for tokens whose
        /// normalization is non-empty, in token order — the Monge-Elkan
        /// sequence.
        norm_pos: Vec<(usize, u32)>,
        /// `parse_number(token)` per token, in token order.
        parsed: Vec<Option<f64>>,
        /// Lowercased token texts, in token order (Code-kind form).
        lower: Vec<String>,
    },
}

impl SideState<'_> {
    /// Collects the mask-surviving normalized tokens: `seq` gets their
    /// positions in this side's Monge-Elkan sequence (ascending), `ids`
    /// their interned ids sorted ascending (duplicates preserved).
    fn gather_norm(&self, mask: &[bool], seq: &mut Vec<usize>, ids: &mut Vec<u32>) {
        seq.clear();
        ids.clear();
        match self {
            SideState::Fixed {
                n_norm, sorted_ids, ..
            } => {
                seq.extend(0..*n_norm);
                ids.extend_from_slice(sorted_ids);
            }
            SideState::Varying {
                feat_idx, norm_pos, ..
            } => {
                for (k, (local, id)) in norm_pos.iter().enumerate() {
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
            SideState::Fixed { doc, .. } => doc,
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
            SideState::Fixed { parsed, .. } => *parsed,
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
            SideState::Fixed { raw, .. } => raw,
            SideState::Varying { feat_idx, raw, .. } => {
                buf.clear();
                for (local, text) in raw.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if !buf.is_empty() {
                            buf.push(' ');
                        }
                        buf.push_str(text);
                    }
                }
                buf
            }
        }
    }

    /// The Code-kind comparison form of the reconstructed value
    /// (trimmed + lowercased; per-token lowercasing composes because
    /// `to_lowercase` maps code points independently and the joined value
    /// has no edge whitespace).
    fn code_value<'s>(&'s self, mask: &[bool], buf: &'s mut String) -> &'s str {
        match self {
            SideState::Fixed { code_norm, .. } => code_norm,
            SideState::Varying {
                feat_idx, lower, ..
            } => {
                buf.clear();
                for (local, text) in lower.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if !buf.is_empty() {
                            buf.push(' ');
                        }
                        buf.push_str(text);
                    }
                }
                buf
            }
        }
    }
}

/// Mask-invariant state for one attribute.
#[derive(Debug)]
struct AttrState<'a> {
    kind: AttributeKind,
    left: SideState<'a>,
    right: SideState<'a>,
    /// Name-kind only: row-major Jaro-Winkler matrix between the left
    /// side's full normalized-token sequence (rows) and the right side's
    /// (columns). Empty for other kinds.
    jw: Vec<f64>,
    /// Column count of `jw`.
    ncols: usize,
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

/// Prepared per-record state for a token-drop perturbation family.
#[derive(Debug)]
struct PreparedTokenDrop<'a> {
    mask_len: usize,
    attrs: Vec<AttrState<'a>>,
    idf_by_id: Vec<f64>,
}

impl<'a> PreparedTokenDrop<'a> {
    fn new(
        extractor: &FeatureExtractor,
        schema: &Schema,
        pair: &'a EntityPair,
        left: &SideSpec<'a>,
        right: &SideSpec<'a>,
    ) -> Self {
        // Pass 1: normalize every token of both sides once and intern the
        // union, so ids are shared (and comparable) across sides.
        let mut all_norms: Vec<String> = Vec::new();
        let mut side_norms = |spec: &SideSpec<'a>, side: EntitySide| match spec {
            SideSpec::Fixed => {
                for i in 0..schema.len() {
                    all_norms.extend(normalized_tokens(pair.entity(side).value(i)));
                }
            }
            SideSpec::Varying(tokens) => {
                for t in tokens.iter() {
                    let n = normalize(&t.text);
                    if !n.is_empty() {
                        all_norms.push(n);
                    }
                }
            }
        };
        side_norms(left, EntitySide::Left);
        side_norms(right, EntitySide::Right);
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
        let interner = Interner::from_tokens(all_norms);
        let idf_by_id = extractor.vectorizer().idf_by_id(&interner);

        // Pass 2: per-attribute, per-side mask-invariant state.
        let left_offset = 0;
        let right_offset = left.token_count();
        let mut attrs = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let kind = schema.attribute(i).kind;
            let (l_state, l_norm_ids) = build_side(
                pair,
                EntitySide::Left,
                left,
                i,
                left_offset,
                &interner,
                &idf_by_id,
            );
            let (r_state, r_norm_ids) = build_side(
                pair,
                EntitySide::Right,
                right,
                i,
                right_offset,
                &interner,
                &idf_by_id,
            );
            // The Jaro-Winkler matrix is only consulted for Name
            // attributes; skip the quadratic work everywhere else.
            let (jw, ncols) = if kind == AttributeKind::Name {
                let ncols = r_norm_ids.len();
                let mut jw = Vec::with_capacity(l_norm_ids.len() * ncols);
                for &li in &l_norm_ids {
                    for &ri in &r_norm_ids {
                        jw.push(jaro_winkler(interner.get(li), interner.get(ri)));
                    }
                }
                (jw, ncols)
            } else {
                (Vec::new(), 0)
            };
            attrs.push(AttrState {
                kind,
                left: l_state,
                right: r_state,
                jw,
                ncols,
            });
        }
        PreparedTokenDrop {
            mask_len: left.token_count() + right.token_count(),
            attrs,
            idf_by_id,
        }
    }

    /// Computes the feature vector for one mask into `scratch.features`,
    /// bit-identical to extracting from the reconstructed pair.
    fn features<'s>(&self, mask: &[bool], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            mask.len(),
            self.mask_len,
            "perturbation mask length must equal the spec's mask length"
        );
        scratch.features.clear();
        for attr in &self.attrs {
            let value = match attr.kind {
                AttributeKind::Name => {
                    attr.left
                        .gather_norm(mask, &mut scratch.l_seq, &mut scratch.l_ids);
                    attr.right
                        .gather_norm(mask, &mut scratch.r_seq, &mut scratch.r_ids);
                    let jac = jaccard_ids(&scratch.l_ids, &scratch.r_ids);
                    let me =
                        monge_elkan_matrix(&scratch.l_seq, &scratch.r_seq, &attr.jw, attr.ncols);
                    combine_name(jac, me)
                }
                AttributeKind::Text => {
                    attr.left
                        .gather_norm(mask, &mut scratch.l_seq, &mut scratch.l_ids);
                    attr.right
                        .gather_norm(mask, &mut scratch.r_seq, &mut scratch.r_ids);
                    let ld = attr
                        .left
                        .doc(&scratch.l_ids, &mut scratch.l_doc, &self.idf_by_id);
                    let rd = attr
                        .right
                        .doc(&scratch.r_ids, &mut scratch.r_doc, &self.idf_by_id);
                    let tfidf = cosine_prepared(ld, rd);
                    let jac = jaccard_ids(&scratch.l_ids, &scratch.r_ids);
                    combine_text(tfidf, jac)
                }
                AttributeKind::Numeric => {
                    match (
                        attr.left.numeric_value(mask),
                        attr.right.numeric_value(mask),
                    ) {
                        (Some(x), Some(y)) => numeric_value_similarity(x, y),
                        _ => {
                            let l = attr.left.raw_value(mask, &mut scratch.l_str);
                            let r = attr.right.raw_value(mask, &mut scratch.r_str);
                            levenshtein_similarity(l, r)
                        }
                    }
                }
                AttributeKind::Code => {
                    let l = attr.left.code_value(mask, &mut scratch.l_str);
                    let r = attr.right.code_value(mask, &mut scratch.r_str);
                    code_similarity_norm(l, r)
                }
            };
            scratch.features.push(value);
        }
        &scratch.features
    }
}

/// Builds one side of one attribute; also returns the side's full
/// normalized-id sequence (in token order) for the Jaro-Winkler matrix.
fn build_side<'a>(
    pair: &'a EntityPair,
    side: EntitySide,
    spec: &SideSpec<'a>,
    attr: usize,
    offset: usize,
    interner: &Interner,
    idf_by_id: &[f64],
) -> (SideState<'a>, Vec<u32>) {
    let intern_id = |norm: &str| -> u32 {
        interner
            .id(norm)
            .expect("every normalized token was interned in pass 1")
    };
    match spec {
        SideSpec::Fixed => {
            let raw = pair.entity(side).value(attr);
            let norm_ids: Vec<u32> = normalized_tokens(raw)
                .iter()
                .map(|t| intern_id(t))
                .collect();
            let mut sorted_ids = norm_ids.clone();
            sorted_ids.sort_unstable();
            let mut doc = PreparedDoc::default();
            doc.rebuild_from_sorted_ids(&sorted_ids, idf_by_id);
            let state = SideState::Fixed {
                raw,
                n_norm: norm_ids.len(),
                sorted_ids,
                doc,
                parsed: parse_number(raw),
                code_norm: raw.trim().to_lowercase(),
            };
            (state, norm_ids)
        }
        SideSpec::Varying(tokens) => {
            let mut feat_idx = Vec::new();
            let mut raw: Vec<&'a str> = Vec::new();
            let mut norm_pos = Vec::new();
            let mut parsed = Vec::new();
            let mut lower = Vec::new();
            let mut norm_ids = Vec::new();
            for (global, token) in tokens.iter().enumerate() {
                if token.attribute != attr {
                    continue;
                }
                let local = raw.len();
                feat_idx.push(offset + global);
                raw.push(token.text.as_str());
                parsed.push(parse_number(&token.text));
                lower.push(token.text.to_lowercase());
                let norm = normalize(&token.text);
                if !norm.is_empty() {
                    let id = intern_id(&norm);
                    norm_pos.push((local, id));
                    norm_ids.push(id);
                }
            }
            let state = SideState::Varying {
                feat_idx,
                raw,
                norm_pos,
                parsed,
                lower,
            };
            (state, norm_ids)
        }
    }
}

/// Prepared state for an attribute-copy (Mojito copy) family: every
/// attribute can only take two values — its original similarity or its
/// fully-copied similarity — so scoring a mask is pure selection.
#[derive(Debug)]
struct PreparedAttrCopy {
    kept: Vec<f64>,
    copied: Vec<f64>,
}

impl PreparedAttrCopy {
    fn new(
        extractor: &FeatureExtractor,
        schema: &Schema,
        pair: &EntityPair,
        copy_into: EntitySide,
    ) -> Self {
        let kept: Vec<f64> = (0..schema.len())
            .map(|i| extractor.attribute_similarity(schema, pair, i))
            .collect();
        let mut copied_pair = pair.clone();
        let source = copy_into.other();
        for i in 0..schema.len() {
            let value = pair.entity(source).value(i).to_string();
            copied_pair.entity_mut(copy_into).set_value(i, value);
        }
        let copied: Vec<f64> = (0..schema.len())
            .map(|i| extractor.attribute_similarity(schema, &copied_pair, i))
            .collect();
        PreparedAttrCopy { kept, copied }
    }

    fn features<'s>(&self, mask: &[bool], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            mask.len(),
            self.kept.len(),
            "perturbation mask length must equal the spec's mask length"
        );
        scratch.features.clear();
        for (i, &keep) in mask.iter().enumerate() {
            scratch
                .features
                .push(if keep { self.kept[i] } else { self.copied[i] });
        }
        &scratch.features
    }
}

/// Prepared feature computation for any [`PerturbSpec`], shared by both
/// matcher kernels.
#[derive(Debug)]
enum PreparedFamily<'a> {
    TokenDrop(PreparedTokenDrop<'a>),
    AttrCopy(PreparedAttrCopy),
}

/// Feature-level prepared state + scratch: computes the per-mask feature
/// vector that `FeatureExtractor::extract` would produce on the
/// reconstructed pair, bit for bit.
#[derive(Debug)]
pub(crate) struct PreparedFeatures<'a> {
    family: PreparedFamily<'a>,
    scratch: Scratch,
}

impl<'a> PreparedFeatures<'a> {
    pub(crate) fn new(
        extractor: &FeatureExtractor,
        schema: &Schema,
        spec: &PerturbSpec<'a>,
    ) -> Self {
        let family = match spec {
            PerturbSpec::TokenDrop { pair, left, right } => PreparedFamily::TokenDrop(
                PreparedTokenDrop::new(extractor, schema, pair, left, right),
            ),
            PerturbSpec::AttrCopy { pair, copy_into } => {
                PreparedFamily::AttrCopy(PreparedAttrCopy::new(extractor, schema, pair, *copy_into))
            }
        };
        PreparedFeatures {
            family,
            scratch: Scratch::default(),
        }
    }

    /// The feature vector for one mask (borrowed from internal scratch).
    pub(crate) fn compute(&mut self, mask: &[bool]) -> &[f64] {
        match &self.family {
            PreparedFamily::TokenDrop(td) => td.features(mask, &mut self.scratch),
            PreparedFamily::AttrCopy(ac) => ac.features(mask, &mut self.scratch),
        }
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
