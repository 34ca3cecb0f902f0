//! Corpus-prepared training (DESIGN.md §11, "Training uses the same id
//! space").
//!
//! Fitting the extractor and extracting every training row is one pass
//! over the dataset: each attribute value is split and normalized exactly
//! as [`em_text::tokens::normalized_tokens`] does, and every token is
//! interned once. Document frequencies are counted by id, the vocabulary
//! is sorted once so ids ascend in byte-lexicographic order (the order
//! [`em_text::Interner`] guarantees the prepared kernel), and the Text and
//! Name features are computed over ids with the kernel's helpers. Every
//! row equals [`FeatureExtractor::extract`](crate::FeatureExtractor) on the
//! same record bit for bit.

use std::collections::HashMap;

use em_entity::schema::AttributeKind;
use em_entity::EmDataset;
use em_text::jaro_winkler;
use em_text::tfidf::{cosine_prepared, smoothed_idf, PreparedDoc, TfIdfVectorizer};
use em_text::tokens::normalize_into;

use crate::features::{code_similarity, combine_name, combine_text, numeric_kind_similarity};
use crate::id_space::{jaccard_ids, monge_elkan_matrix};

/// A dataset's attribute values as interned token ids, with the corpus
/// statistics the TF-IDF table needs.
#[derive(Debug)]
pub(crate) struct Corpus {
    /// Every distinct normalized token, ascending; a token's id is its
    /// index.
    vocabulary: Vec<String>,
    /// Document frequency per id.
    df: Vec<usize>,
    /// Number of documents: non-empty (record, side, attribute) values.
    n_docs: usize,
    /// Normalized token ids of every value, in token order, concatenated.
    ids: Vec<u32>,
    /// `ids[offsets[v]..offsets[v + 1]]` are the ids of value `v`; values
    /// are numbered by record, then side (left first), then attribute.
    offsets: Vec<usize>,
    n_attributes: usize,
}

impl Corpus {
    /// Tokenizes, normalizes and interns every attribute value of the
    /// dataset (both sides) and counts document frequencies.
    pub(crate) fn build(dataset: &EmDataset) -> Self {
        let n_attributes = dataset.schema().len();
        // First-seen interning. The tokens come from input data (em-batch
        // trains on a user's CSV), so the map keeps std's randomly keyed
        // hasher; it is only probed, never iterated, and the ids are
        // renumbered by sorting below, so no output depends on hash order.
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut strings: Vec<String> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut offsets = Vec::with_capacity(2 * dataset.len() * n_attributes + 1);
        offsets.push(0);
        let mut df: Vec<usize> = Vec::new();
        // The last document (1-based) that counted each id.
        let mut counted_in: Vec<usize> = Vec::new();
        let mut n_docs = 0;
        let mut buf = String::new();
        for record in dataset.records() {
            for entity in [&record.pair.left, &record.pair.right] {
                for a in 0..n_attributes {
                    let start = ids.len();
                    for token in entity.value(a).split_whitespace() {
                        let norm = normalize_into(token, &mut buf);
                        if norm.is_empty() {
                            continue;
                        }
                        let id = match index.get(norm) {
                            Some(&id) => id,
                            None => {
                                let id = u32::try_from(strings.len())
                                    .expect("fewer than 2^32 distinct tokens");
                                strings.push(norm.to_owned());
                                index.insert(norm.to_owned(), id);
                                id
                            }
                        };
                        ids.push(id);
                    }
                    if ids.len() > start {
                        n_docs += 1;
                        df.resize(strings.len(), 0);
                        counted_in.resize(strings.len(), 0);
                        for &id in &ids[start..] {
                            let id = id as usize;
                            if counted_in[id] != n_docs {
                                counted_in[id] = n_docs;
                                df[id] += 1;
                            }
                        }
                    }
                    offsets.push(ids.len());
                }
            }
        }

        // The map's copies of the strings are not needed past this point.
        drop(index);

        // Renumber first-seen ids into byte-lexicographic order.
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| strings[x as usize].cmp(&strings[y as usize]));
        let mut remap = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        for id in &mut ids {
            *id = remap[*id as usize];
        }
        Corpus {
            vocabulary: order
                .iter()
                .map(|&old| std::mem::take(&mut strings[old as usize]))
                .collect(),
            df: order.iter().map(|&old| df[old as usize]).collect(),
            n_docs,
            ids,
            offsets,
            n_attributes,
        }
    }

    /// The ids of one side's value of attribute `a` in record `r`.
    fn value_ids(&self, r: usize, side: usize, a: usize) -> &[u32] {
        let v = (2 * r + side) * self.n_attributes + a;
        &self.ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Every record's feature row, row-major: row `i` equals
    /// `FeatureExtractor::extract` on record `i` bit for bit. `dataset`
    /// must be the one the corpus was built from.
    pub(crate) fn rows(&self, dataset: &EmDataset) -> Vec<f64> {
        let schema = dataset.schema();
        let idf_by_id: Vec<f64> = self
            .df
            .iter()
            .map(|&df| smoothed_idf(self.n_docs, df))
            .collect();
        // Jaro-Winkler per (left id, right id), for the whole run; only
        // probed, never iterated.
        let mut jw_memo: HashMap<(u32, u32), f64> = HashMap::new();
        let mut s = Scratch::default();
        let mut rows = Vec::with_capacity(dataset.len() * self.n_attributes);
        for (r, record) in dataset.records().iter().enumerate() {
            for a in 0..self.n_attributes {
                let left = self.value_ids(r, 0, a);
                let right = self.value_ids(r, 1, a);
                let value = match schema.attribute(a).kind {
                    AttributeKind::Text => {
                        s.sort(left, right);
                        s.l_doc.rebuild_from_sorted_ids(&s.l_sorted, &idf_by_id);
                        s.r_doc.rebuild_from_sorted_ids(&s.r_sorted, &idf_by_id);
                        let tfidf = cosine_prepared(&s.l_doc, &s.r_doc);
                        combine_text(tfidf, jaccard_ids(&s.l_sorted, &s.r_sorted))
                    }
                    AttributeKind::Name => {
                        s.sort(left, right);
                        let jac = jaccard_ids(&s.l_sorted, &s.r_sorted);
                        s.jw.clear();
                        for &l in left {
                            for &rt in right {
                                s.jw.push(*jw_memo.entry((l, rt)).or_insert_with(|| {
                                    jaro_winkler(
                                        &self.vocabulary[l as usize],
                                        &self.vocabulary[rt as usize],
                                    )
                                }));
                            }
                        }
                        let n = left.len().max(right.len());
                        if s.positions.len() < n {
                            s.positions.extend(s.positions.len()..n);
                        }
                        let me = monge_elkan_matrix(
                            &s.positions[..left.len()],
                            &s.positions[..right.len()],
                            &s.jw,
                            right.len(),
                        );
                        combine_name(jac, me)
                    }
                    AttributeKind::Numeric => numeric_kind_similarity(
                        record.pair.left.value(a),
                        record.pair.right.value(a),
                    ),
                    AttributeKind::Code => {
                        code_similarity(record.pair.left.value(a), record.pair.right.value(a))
                    }
                };
                rows.push(value);
            }
        }
        rows
    }

    /// The serving TF-IDF table, built once from the sorted vocabulary.
    pub(crate) fn into_vectorizer(self) -> TfIdfVectorizer {
        TfIdfVectorizer::from_vocabulary(self.n_docs, self.vocabulary.into_iter().zip(self.df))
    }
}

/// Buffers reused across every value of a training run.
#[derive(Debug, Default)]
struct Scratch {
    l_sorted: Vec<u32>,
    r_sorted: Vec<u32>,
    l_doc: PreparedDoc,
    r_doc: PreparedDoc,
    /// Row-major Jaro-Winkler matrix of the current Name value pair.
    jw: Vec<f64>,
    /// `0, 1, 2, …`: Monge-Elkan visits every token of both sides.
    positions: Vec<usize>,
}

impl Scratch {
    /// Sorted copies of both sides' ids (duplicates kept).
    fn sort(&mut self, left: &[u32], right: &[u32]) {
        for (dst, src) in [(&mut self.l_sorted, left), (&mut self.r_sorted, right)] {
            dst.clear();
            dst.extend_from_slice(src);
            dst.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::schema::Attribute;
    use em_entity::{Entity, EntityPair, LabeledPair, Schema};
    use em_text::tokens::normalized_tokens;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Words, numbers, non-ASCII and punctuation-only tokens under
    /// assorted whitespace.
    fn value() -> impl Strategy<Value = String> {
        let token = prop_oneof![
            "[a-cA-C]{1,3}",
            "[0-9]{1,2}",
            Just("ΟΔΟΣ".to_string()),
            Just("Straße".to_string()),
            Just("İstanbul".to_string()),
            Just("!!!".to_string()),
            Just("(x),".to_string()),
        ];
        let sep = prop_oneof![
            Just(" ".to_string()),
            Just("\t".to_string()),
            Just("\u{a0}".to_string()),
        ];
        prop::collection::vec((token, sep), 0..5)
            .prop_map(|pieces| pieces.into_iter().map(|(t, s)| t + &s).collect())
    }

    fn dataset() -> impl Strategy<Value = EmDataset> {
        let entity = || prop::collection::vec(value(), 2).prop_map(Entity::new);
        prop::collection::vec((entity(), entity()), 1..6).prop_map(|pairs| {
            let records = pairs
                .into_iter()
                .map(|(l, r)| LabeledPair::new(EntityPair::new(l, r), true))
                .collect();
            let schema = Schema::new(vec![
                Attribute {
                    name: "a".into(),
                    kind: AttributeKind::Text,
                },
                Attribute {
                    name: "b".into(),
                    kind: AttributeKind::Name,
                },
            ]);
            EmDataset::new("idf", schema, records)
        })
    }

    /// Document frequencies counted the plain way: one document per
    /// non-empty value, each distinct normalized token counted once.
    fn reference_df(d: &EmDataset) -> (usize, BTreeMap<String, usize>) {
        let mut n_docs = 0;
        let mut df = BTreeMap::new();
        for r in d.records() {
            for value in r.pair.left.values().chain(r.pair.right.values()) {
                let mut tokens = normalized_tokens(value);
                if tokens.is_empty() {
                    continue;
                }
                n_docs += 1;
                tokens.sort();
                tokens.dedup();
                for t in tokens {
                    *df.entry(t).or_insert(0) += 1;
                }
            }
        }
        (n_docs, df)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn idf_matches_a_reference_df_count(d in dataset()) {
            let corpus = Corpus::build(&d);
            let (n_docs, df) = reference_df(&d);
            prop_assert_eq!(corpus.n_docs, n_docs);
            prop_assert_eq!(corpus.vocabulary.iter().collect::<Vec<_>>(), df.keys().collect::<Vec<_>>());
            prop_assert_eq!(corpus.df.iter().collect::<Vec<_>>(), df.values().collect::<Vec<_>>());

            let n = n_docs.max(1) as f64;
            let idf = |df: usize| ((1.0 + n) / (1.0 + df as f64)).ln() + 1.0;
            let vectorizer = corpus.into_vectorizer();
            for (token, &count) in &df {
                prop_assert_eq!(vectorizer.idf(token).to_bits(), idf(count).to_bits());
            }
            for oov in ["zzz", "οδος-x", ""] {
                prop_assert_eq!(vectorizer.idf(oov).to_bits(), idf(0).to_bits());
            }
        }
    }
}
