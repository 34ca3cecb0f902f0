//! Per-attribute similarity feature extraction.
//!
//! Every logical attribute of a record contributes **one** feature: a
//! composite similarity between the left and right values, chosen by the
//! attribute's [`AttributeKind`]. Keeping one feature per attribute makes
//! the logistic-regression coefficients directly interpretable as
//! attribute weights — the quantity the paper's Table 3 evaluation ranks.

use em_entity::schema::AttributeKind;
use em_entity::{EmDataset, EntityPair, Schema};
use em_linalg::Matrix;
use em_text::monge_elkan::monge_elkan_symmetric;
use em_text::tokens::normalized_tokens;
use em_text::{jaccard, jaro_winkler, levenshtein_similarity, numeric_similarity, TfIdfVectorizer};

use crate::corpus::Corpus;

/// A fitted feature extractor.
///
/// Fitting learns corpus statistics (TF-IDF document frequencies) from the
/// attribute values of a training dataset; extraction is then deterministic.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    vectorizer: TfIdfVectorizer,
}

impl FeatureExtractor {
    /// Fits corpus statistics on every attribute value (both sides) of the
    /// dataset.
    pub fn fit(dataset: &EmDataset) -> Self {
        FeatureExtractor {
            vectorizer: Corpus::build(dataset).into_vectorizer(),
        }
    }

    /// Fits like [`FeatureExtractor::fit`] and returns every record's
    /// feature row with it, in one corpus pass. Row `i` equals
    /// [`FeatureExtractor::extract`] on record `i`, bit for bit.
    pub fn fit_transform(dataset: &EmDataset) -> (Self, Matrix) {
        let corpus = Corpus::build(dataset);
        let rows = crate::prepared::corpus_rows(dataset, &corpus);
        let x = Matrix::from_vec(dataset.len(), dataset.schema().len(), rows)
            .expect("one row per record, one feature per attribute");
        let extractor = FeatureExtractor {
            vectorizer: corpus.into_vectorizer(),
        };
        (extractor, x)
    }

    /// Extracts the per-attribute similarity vector for a record: one
    /// composite similarity per schema attribute.
    pub fn extract(&self, schema: &Schema, pair: &EntityPair) -> Vec<f64> {
        (0..schema.len())
            .map(|i| {
                let (left, right) = (pair.left.value(i), pair.right.value(i));
                match schema.attribute(i).kind {
                    AttributeKind::Name => name_similarity(left, right),
                    AttributeKind::Text => self.text_similarity(left, right),
                    AttributeKind::Numeric => numeric_kind_similarity(left, right),
                    AttributeKind::Code => code_similarity(left, right),
                }
            })
            .collect()
    }

    fn text_similarity(&self, left: &str, right: &str) -> f64 {
        let lt = normalized_tokens(left);
        let rt = normalized_tokens(right);
        let tfidf = self.vectorizer.cosine(&lt, &rt);
        let lt_refs: Vec<&str> = lt.iter().map(String::as_str).collect();
        let rt_refs: Vec<&str> = rt.iter().map(String::as_str).collect();
        let jac = jaccard(&lt_refs, &rt_refs);
        combine_text(tfidf, jac)
    }

    /// The fitted TF-IDF table, for the prepared kernel.
    pub(crate) fn vectorizer(&self) -> &TfIdfVectorizer {
        &self.vectorizer
    }
}

/// Blends the two Text components. Shared verbatim by the naive extractor
/// and the prepared kernel so both perform the identical f64 operations:
/// TF-IDF dominates for long text; Jaccard stabilizes short values.
pub(crate) fn combine_text(tfidf: f64, jac: f64) -> f64 {
    0.7 * tfidf + 0.3 * jac
}

/// Blends the two Name components (shared with the prepared kernel, like
/// [`combine_text`]).
pub(crate) fn combine_name(jac: f64, me: f64) -> f64 {
    0.6 * jac + 0.4 * me
}

/// Name attributes: token Jaccard blended with a typo-tolerant
/// Monge-Elkan / Jaro-Winkler component.
fn name_similarity(left: &str, right: &str) -> f64 {
    let lt = normalized_tokens(left);
    let rt = normalized_tokens(right);
    let lt_refs: Vec<&str> = lt.iter().map(String::as_str).collect();
    let rt_refs: Vec<&str> = rt.iter().map(String::as_str).collect();
    let jac = jaccard(&lt_refs, &rt_refs);
    let me = monge_elkan_symmetric(&lt_refs, &rt_refs, jaro_winkler);
    combine_name(jac, me)
}

/// Numeric attributes: relative numeric similarity when both sides parse,
/// edit-distance similarity otherwise.
fn numeric_kind_similarity(left: &str, right: &str) -> f64 {
    numeric_similarity(left, right).unwrap_or_else(|| levenshtein_similarity(left, right))
}

/// Code attributes: exact match dominates, with a small edit-distance
/// component for near-misses.
fn code_similarity(left: &str, right: &str) -> f64 {
    code_similarity_norm(&left.trim().to_lowercase(), &right.trim().to_lowercase())
}

/// The core of [`code_similarity`] on already trimmed + lowercased values
/// (the prepared kernel pre-normalizes once and calls this per mask).
pub(crate) fn code_similarity_norm(l: &str, r: &str) -> f64 {
    if l.is_empty() && r.is_empty() {
        // Two missing codes carry no match evidence.
        return 0.0;
    }
    if l == r {
        return 1.0;
    }
    0.8 * levenshtein_similarity(l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::schema::Attribute;
    use em_entity::{Entity, LabeledPair};

    fn product_schema() -> Schema {
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
        let schema = product_schema();
        let mk = |l: [&str; 4], r: [&str; 4], label| {
            LabeledPair::new(
                EntityPair::new(Entity::new(l.to_vec()), Entity::new(r.to_vec())),
                label,
            )
        };
        EmDataset::new(
            "toy",
            schema,
            vec![
                mk(
                    [
                        "sony camera",
                        "digital slr camera with lens",
                        "849.99",
                        "dslra200w",
                    ],
                    ["sony camera", "slr camera lens kit", "850.00", "dslra200w"],
                    true,
                ),
                mk(
                    ["sony camera", "digital slr camera", "849.99", "dslra200w"],
                    ["nikon case", "leather black case", "7.99", "5811"],
                    false,
                ),
            ],
        )
    }

    #[test]
    fn extract_produces_one_feature_per_attribute() {
        let d = dataset();
        let fx = FeatureExtractor::fit(&d);
        let f = fx.extract(d.schema(), &d.records()[0].pair);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn features_are_in_unit_interval() {
        let d = dataset();
        let fx = FeatureExtractor::fit(&d);
        for r in d.records() {
            for f in fx.extract(d.schema(), &r.pair) {
                assert!((0.0..=1.0 + 1e-12).contains(&f), "{f}");
            }
        }
    }

    #[test]
    fn matching_pair_scores_higher_everywhere() {
        let d = dataset();
        let fx = FeatureExtractor::fit(&d);
        let fm = fx.extract(d.schema(), &d.records()[0].pair);
        let fn_ = fx.extract(d.schema(), &d.records()[1].pair);
        for (m, n) in fm.iter().zip(&fn_) {
            assert!(m > n, "match feature {m} not above non-match {n}");
        }
    }

    #[test]
    fn identical_pair_has_all_ones() {
        let d = dataset();
        let fx = FeatureExtractor::fit(&d);
        let e = Entity::new(vec!["sony camera", "digital slr", "849.99", "dslra200w"]);
        let p = EntityPair::new(e.clone(), e);
        for f in fx.extract(d.schema(), &p) {
            assert!(f > 0.99, "{f}");
        }
    }

    #[test]
    fn name_similarity_tolerates_token_reorder() {
        let s = name_similarity("digital sony camera", "sony camera digital");
        assert!(s > 0.99);
    }

    #[test]
    fn numeric_kind_falls_back_to_edit_distance() {
        // Unparseable on one side -> Levenshtein fallback, not a panic.
        let s = numeric_kind_similarity("cheap", "chea");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn code_similarity_exact_match_is_one() {
        assert_eq!(code_similarity("DSLRA200W", "dslra200w"), 1.0);
        assert!(code_similarity("dslra200w", "dslra200") < 1.0);
        assert_eq!(code_similarity("", ""), 0.0); // empty codes are not a match signal
    }

    #[test]
    fn text_similarity_rewards_rare_shared_tokens() {
        let d = dataset();
        let fx = FeatureExtractor::fit(&d);
        let shared_rare = fx.text_similarity("dslra200w camera stuff", "dslra200w other things");
        let shared_common = fx.text_similarity("camera stuff extra", "camera other things");
        assert!(shared_rare > shared_common);
    }
}
