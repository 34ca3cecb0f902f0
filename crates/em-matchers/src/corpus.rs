//! A training dataset's attribute values as interned token ids (DESIGN.md
//! §11, "Training uses the same id space").
//!
//! Each attribute value is split on whitespace as
//! [`em_text::tokens::normalized_tokens`] does, every token is normalized
//! and interned once with [`TokenIds`], the kernel's interning, and
//! document frequencies are counted by id. Training then scores every
//! record with the kernel's per-attribute evaluator over these ids
//! ([`crate::prepared::corpus_rows`]), and the serving TF-IDF table is
//! frozen from the same counts.

use em_entity::EmDataset;
use em_text::intern::TokenIds;
use em_text::tfidf::{smoothed_idf, TfIdfVectorizer};

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
        let mut interning = TokenIds::default();
        let mut ids: Vec<u32> = Vec::new();
        let mut offsets = Vec::with_capacity(2 * dataset.len() * n_attributes + 1);
        offsets.push(0);
        // Document frequency by first-seen id.
        let mut df: Vec<usize> = Vec::new();
        // The last document (1-based) that counted each id.
        let mut counted_in: Vec<usize> = Vec::new();
        let mut n_docs = 0;
        for record in dataset.records() {
            for entity in [&record.pair.left, &record.pair.right] {
                for a in 0..n_attributes {
                    let start = ids.len();
                    for token in entity.value(a).split_whitespace() {
                        ids.extend(interning.id(token));
                    }
                    if ids.len() > start {
                        n_docs += 1;
                        for &id in &ids[start..] {
                            let id = id as usize;
                            if id == df.len() {
                                df.push(0);
                                counted_in.push(0);
                            }
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

        let (vocabulary, remap) = interning.into_sorted();
        for id in &mut ids {
            *id = remap[*id as usize];
        }
        let mut sorted_df = vec![0; df.len()];
        for (old, count) in df.into_iter().enumerate() {
            sorted_df[remap[old] as usize] = count;
        }
        Corpus {
            vocabulary,
            df: sorted_df,
            n_docs,
            ids,
            offsets,
            n_attributes,
        }
    }

    /// The ids of one side's value of attribute `a` in record `r`, in
    /// token order.
    pub(crate) fn value_ids(&self, r: usize, side: usize, a: usize) -> &[u32] {
        let v = (2 * r + side) * self.n_attributes + a;
        &self.ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The normalized token with id `id`.
    pub(crate) fn token(&self, id: u32) -> &str {
        &self.vocabulary[id as usize]
    }

    /// The smoothed IDF of every token, indexed by id.
    pub(crate) fn idf_by_id(&self) -> Vec<f64> {
        self.df
            .iter()
            .map(|&df| smoothed_idf(self.n_docs, df))
            .collect()
    }

    /// The serving TF-IDF table, built once from the sorted vocabulary.
    pub(crate) fn into_vectorizer(self) -> TfIdfVectorizer {
        TfIdfVectorizer::from_vocabulary(self.n_docs, self.vocabulary.into_iter().zip(self.df))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::schema::{Attribute, AttributeKind};
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
