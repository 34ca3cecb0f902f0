//! TF-IDF vectorization and cosine similarity.
//!
//! Used by the EM matcher to compare long textual attributes (e.g. product
//! descriptions): rare tokens shared across the two entities are strong
//! match evidence, while ubiquitous tokens carry little signal.
//!
//! All floating-point accumulation here happens in byte-lexicographic
//! token order (sorted slices / merge-joins, never hash-map iteration),
//! so cosine values are deterministic across runs and can be reproduced
//! bit-for-bit by the prepared kernel via [`cosine_prepared`], whose
//! interned ids ascend in the same lexicographic order
//! (see [`crate::intern::Interner`]).

use std::collections::HashMap;

/// Builder that accumulates corpus documents before freezing IDF weights.
#[derive(Debug, Default)]
pub struct TfIdfVectorizerBuilder {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl TfIdfVectorizerBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document (a token list) to the corpus statistics.
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.doc_count += 1;
        let mut seen: Vec<&str> = tokens.iter().map(AsRef::as_ref).collect();
        seen.sort_unstable();
        seen.dedup();
        for t in seen {
            *self.doc_freq.entry(t.to_string()).or_insert(0) += 1;
        }
    }

    /// Freezes the IDF table.
    pub fn build(self) -> TfIdfVectorizer {
        let n = self.doc_count.max(1) as f64;
        let idf = self
            // em-lint: allow(hashmap-iter-order, nondet-taint) -- per-key map from one HashMap into another; consumers only do point lookups, so iteration order cannot reach any output
            .doc_freq
            .into_iter()
            .map(|(t, df)| {
                // Smoothed IDF (scikit-learn convention): ln((1+n)/(1+df)) + 1
                let w = ((1.0 + n) / (1.0 + df as f64)).ln() + 1.0;
                (t, w)
            })
            .collect();
        TfIdfVectorizer {
            idf,
            default_idf: ((1.0 + n) / 1.0).ln() + 1.0,
        }
    }
}

/// A frozen TF-IDF weighting table.
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    idf: HashMap<String, f64>,
    /// IDF assigned to tokens never seen in the corpus (max rarity).
    default_idf: f64,
}

impl TfIdfVectorizer {
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
        cosine_from_sorted(
            wa.iter().map(|(t, w)| (*t, *w)),
            wb.iter().map(|(t, w)| (*t, *w)),
        )
    }

    /// Per-id IDF weights for every token of an
    /// [`Interner`](crate::intern::Interner), indexed by interned id.
    ///
    /// `out[id] == self.idf(interner.get(id))` — precomputed once per
    /// prepared pair so the kernel never touches the IDF hash map in its
    /// per-mask loop.
    pub fn idf_by_id(&self, interner: &crate::intern::Interner) -> Vec<f64> {
        (0..interner.len())
            .map(|id| self.idf(interner.get(id as u32)))
            .collect()
    }
}

/// Shared cosine core: both inputs must be sparse `(key, weight)` entries
/// sorted ascending by key with distinct keys. Accumulation order (and so
/// the exact f64 result) depends only on the key order, which is identical
/// for sorted strings and lexicographically-interned ids.
fn cosine_from_sorted<K: Ord, A, B>(a: A, b: B) -> f64
where
    A: Iterator<Item = (K, f64)> + Clone,
    B: Iterator<Item = (K, f64)> + Clone,
{
    let mut dot = 0.0;
    let mut ia = a.clone();
    let mut ib = b.clone();
    let mut ca = ia.next();
    let mut cb = ib.next();
    while let (Some((ka, x)), Some((kb, y))) = (&ca, &cb) {
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => ca = ia.next(),
            std::cmp::Ordering::Greater => cb = ib.next(),
            std::cmp::Ordering::Equal => {
                dot += x * y;
                ca = ia.next();
                cb = ib.next();
            }
        }
    }
    let na: f64 = a.map(|(_, x)| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.map(|(_, y)| y * y).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// A TF-IDF document prepared for incremental mask scoring: sparse
/// `(interned id, tf * idf)` entries sorted ascending by id.
///
/// Because interned ids ascend in lexicographic string order, a merge-join
/// over two `PreparedDoc`s performs the *same sequence of f64 operations*
/// as [`TfIdfVectorizer::cosine`] on the corresponding token lists, making
/// [`cosine_prepared`] bit-identical to the naive path.
#[derive(Debug, Clone, Default)]
pub struct PreparedDoc {
    entries: Vec<(u32, f64)>,
}

impl PreparedDoc {
    /// Builds a document from interned token ids (any order, duplicates
    /// meaning repeated tokens) and the per-id IDF table from
    /// [`TfIdfVectorizer::idf_by_id`].
    pub fn from_ids(ids: &[u32], idf_by_id: &[f64]) -> Self {
        let mut doc = Self::default();
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        doc.rebuild_from_sorted_ids(&sorted, idf_by_id);
        doc
    }

    /// Rebuilds in place from ids already sorted ascending (duplicates
    /// meaning repeated tokens). Reuses the entry buffer — this is the
    /// per-mask hot path.
    pub fn rebuild_from_sorted_ids(&mut self, sorted_ids: &[u32], idf_by_id: &[f64]) {
        debug_assert!(sorted_ids.windows(2).all(|w| w[0] <= w[1]));
        self.entries.clear();
        let mut i = 0;
        while i < sorted_ids.len() {
            let id = sorted_ids[i];
            let mut count = 1usize;
            while i + count < sorted_ids.len() && sorted_ids[i + count] == id {
                count += 1;
            }
            self.entries
                .push((id, count as f64 * idf_by_id[id as usize]));
            i += count;
        }
    }

    /// Whether the document has no tokens.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct token ids in the document.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }
}

/// Cosine similarity between two prepared TF-IDF documents, bit-identical
/// to [`TfIdfVectorizer::cosine`] on the equivalent token lists (same
/// empty-document conventions: both empty → 1, one empty → 0).
pub fn cosine_prepared(a: &PreparedDoc, b: &PreparedDoc) -> f64 {
    if a.entries.is_empty() && b.entries.is_empty() {
        return 1.0;
    }
    if a.entries.is_empty() || b.entries.is_empty() {
        return 0.0;
    }
    cosine_from_sorted(a.entries.iter().copied(), b.entries.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;

    fn build_small_corpus() -> TfIdfVectorizer {
        let mut b = TfIdfVectorizerBuilder::new();
        b.add_document(&["sony", "camera", "digital"]);
        b.add_document(&["nikon", "camera", "digital"]);
        b.add_document(&["leather", "case", "black"]);
        b.add_document(&["camera", "lens", "kit"]);
        b.build()
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

    #[test]
    fn prepared_cosine_is_bit_identical_to_naive() {
        let v = build_small_corpus();
        let docs: [&[&str]; 5] = [
            &["sony", "camera", "camera", "kit"],
            &["nikon", "camera"],
            &["leather", "case", "black", "zzz"],
            &["camera"],
            &[],
        ];
        for a in &docs {
            for b in &docs {
                let interner = Interner::from_tokens(a.iter().chain(b.iter()).copied());
                let idf = v.idf_by_id(&interner);
                let ids_a: Vec<u32> = a.iter().map(|t| interner.id(t).unwrap()).collect();
                let ids_b: Vec<u32> = b.iter().map(|t| interner.id(t).unwrap()).collect();
                let pa = PreparedDoc::from_ids(&ids_a, &idf);
                let pb = PreparedDoc::from_ids(&ids_b, &idf);
                let naive = v.cosine(a, b);
                let prepared = cosine_prepared(&pa, &pb);
                assert_eq!(
                    naive.to_bits(),
                    prepared.to_bits(),
                    "{a:?} vs {b:?}: {naive} != {prepared}"
                );
            }
        }
    }

    #[test]
    fn prepared_doc_reuses_buffer() {
        let v = build_small_corpus();
        let interner = Interner::from_tokens(["camera", "sony"]);
        let idf = v.idf_by_id(&interner);
        let mut doc = PreparedDoc::default();
        doc.rebuild_from_sorted_ids(&[0, 0, 1], &idf);
        assert_eq!(doc.distinct(), 2);
        doc.rebuild_from_sorted_ids(&[1], &idf);
        assert_eq!(doc.distinct(), 1);
        assert!(!doc.is_empty());
        doc.rebuild_from_sorted_ids(&[], &idf);
        assert!(doc.is_empty());
    }
}
