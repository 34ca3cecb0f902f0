//! TF-IDF vectorization and cosine similarity.
//!
//! Used by the EM matcher to compare long textual attributes (e.g. product
//! descriptions): rare tokens shared across the two entities are strong
//! match evidence, while ubiquitous tokens carry little signal.
//!
//! All floating-point accumulation here happens in byte-lexicographic
//! token order (sorted slices / merge-joins, never hash-map iteration),
//! so cosine values are deterministic across runs and can be reproduced
//! bit-for-bit over interned ids: ids from [`crate::intern::TokenIds`]
//! ascend in the same lexicographic order. Id-space callers weight ids
//! with their own per-id IDF vector (the kernel looks each interned token
//! up with [`TfIdfVectorizer::idf`]; training computes [`smoothed_idf`]
//! from its document frequencies).

use std::collections::HashMap;

/// Smoothed IDF weight of a token that occurs in `df` of `n_docs`
/// documents (scikit-learn convention): `ln((1 + n) / (1 + df)) + 1`,
/// with `n` floored at one document. The single definition shared by
/// [`TfIdfVectorizer`] and callers that weight tokens by id.
pub fn smoothed_idf(n_docs: usize, df: usize) -> f64 {
    let n = n_docs.max(1) as f64;
    ((1.0 + n) / (1.0 + df as f64)).ln() + 1.0
}

/// A frozen TF-IDF weighting table.
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    idf: HashMap<String, f64>,
    /// IDF assigned to tokens never seen in the corpus (max rarity).
    default_idf: f64,
}

impl TfIdfVectorizer {
    /// Freezes the IDF table of a corpus of `n_docs` documents from its
    /// vocabulary: every distinct token once, with its document frequency.
    pub fn from_vocabulary<I>(n_docs: usize, vocabulary: I) -> Self
    where
        I: IntoIterator<Item = (String, usize)>,
    {
        let idf = vocabulary
            .into_iter()
            .map(|(token, df)| (token, smoothed_idf(n_docs, df)))
            .collect();
        TfIdfVectorizer {
            idf,
            default_idf: smoothed_idf(n_docs, 0),
        }
    }

    /// IDF weight of a token (out-of-vocabulary tokens get the max weight).
    pub fn idf(&self, token: &str) -> f64 {
        *self.idf.get(token).unwrap_or(&self.default_idf)
    }

    /// Sparse TF-IDF entries `(token, tf * idf)` for a token list, sorted
    /// by token in byte-lexicographic order.
    fn weighted<'t, S: AsRef<str>>(&self, tokens: &'t [S]) -> Vec<(&'t str, f64)> {
        let mut sorted: Vec<&str> = tokens.iter().map(AsRef::as_ref).collect();
        sorted.sort_unstable();
        let mut out: Vec<(&str, f64)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let t = sorted[i];
            let mut count = 1usize;
            while i + count < sorted.len() && sorted[i + count] == t {
                count += 1;
            }
            out.push((t, count as f64 * self.idf(t)));
            i += count;
        }
        out
    }

    /// Cosine similarity between the TF-IDF vectors of two token lists.
    ///
    /// Two empty token lists have similarity 1; one empty list scores 0.
    pub fn cosine<S: AsRef<str>>(&self, a: &[S], b: &[S]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let wa = self.weighted(a);
        let wb = self.weighted(b);
        // Merge-join in token order: the dot product accumulates in the
        // order a merge over lexicographically interned ids visits too.
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while let (Some(&(ka, x)), Some(&(kb, y))) = (wa.get(i), wb.get(j)) {
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += x * y;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = wa.iter().map(|(_, x)| x * x).sum::<f64>().sqrt();
        let nb: f64 = wb.iter().map(|(_, y)| y * y).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four documents: "sony camera digital", "nikon camera digital",
    /// "leather case black", "camera lens kit".
    fn build_small_corpus() -> TfIdfVectorizer {
        let vocabulary = [
            ("black", 1),
            ("camera", 3),
            ("case", 1),
            ("digital", 2),
            ("kit", 1),
            ("leather", 1),
            ("lens", 1),
            ("nikon", 1),
            ("sony", 1),
        ];
        TfIdfVectorizer::from_vocabulary(4, vocabulary.map(|(t, df)| (t.to_string(), df)))
    }

    #[test]
    fn idf_follows_the_smoothed_formula() {
        let v = build_small_corpus();
        assert_eq!(v.idf("camera"), (5.0f64 / 4.0).ln() + 1.0);
        assert_eq!(v.idf("sony"), (5.0f64 / 2.0).ln() + 1.0);
        assert_eq!(v.idf("zzz-unknown"), 5.0f64.ln() + 1.0);
        assert_eq!(smoothed_idf(0, 0), smoothed_idf(1, 0));
    }

    #[test]
    fn rare_tokens_have_higher_idf() {
        let v = build_small_corpus();
        assert!(v.idf("sony") > v.idf("camera"));
    }

    #[test]
    fn oov_tokens_get_max_idf() {
        let v = build_small_corpus();
        assert!(v.idf("zzz-unknown") >= v.idf("sony"));
    }

    #[test]
    fn identical_docs_have_cosine_one() {
        let v = build_small_corpus();
        let d = ["sony", "camera"];
        assert!((v.cosine(&d, &d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_docs_have_cosine_zero() {
        let v = build_small_corpus();
        assert_eq!(v.cosine(&["sony"], &["leather"]), 0.0);
    }

    #[test]
    fn empty_conventions() {
        let v = build_small_corpus();
        let empty: [&str; 0] = [];
        assert_eq!(v.cosine(&empty, &empty), 1.0);
        assert_eq!(v.cosine(&empty, &["sony"]), 0.0);
    }

    #[test]
    fn shared_rare_token_outweighs_shared_common_token() {
        let v = build_small_corpus();
        // "sony" is rare, "camera" is common.
        let s_rare = v.cosine(&["sony", "x1", "x2"], &["sony", "y1", "y2"]);
        let s_common = v.cosine(&["camera", "x1", "x2"], &["camera", "y1", "y2"]);
        assert!(s_rare > s_common, "{s_rare} vs {s_common}");
    }

    #[test]
    fn weighted_counts_term_frequency() {
        let v = build_small_corpus();
        let m = v.weighted(&["camera", "camera", "sony"]);
        assert_eq!(
            m,
            vec![("camera", 2.0 * v.idf("camera")), ("sony", v.idf("sony"))]
        );
    }

    #[test]
    fn cosine_symmetric() {
        let v = build_small_corpus();
        let a = ["sony", "camera", "kit"];
        let b = ["nikon", "camera"];
        assert!((v.cosine(&a, &b) - v.cosine(&b, &a)).abs() < 1e-12);
    }
}
