//! Order-preserving token interning: the one map from normalized tokens to
//! ids, shared by the prepared scoring kernel and corpus-prepared training
//! (DESIGN.md §11).
//!
//! Comparing `u32` ids is much cheaper than comparing strings, but only
//! safe for *bit-identical* reproduction of the string path if the id
//! order matches the string order the string path sorts by. [`TokenIds`]
//! hands out ids in first-seen order while tokens stream in, and
//! [`TokenIds::into_sorted`] then renumbers them into byte-lexicographic
//! order: for any two tokens `a` and `b`, `id(a) < id(b)` iff `a < b` as
//! `str`. Sorting ids is then exactly sorting strings, so merge-joins over
//! sorted id lists visit entries in the same order (and accumulate
//! floating-point sums in the same order) as merge-joins over sorted
//! string lists.

use std::collections::HashMap;

use crate::tokens::normalize_into;

/// Interns normalized tokens in first-seen order;
/// [`TokenIds::into_sorted`] yields the final, lexicographically ordered
/// ids.
#[derive(Debug, Default)]
pub struct TokenIds {
    /// The tokens may come from input data (em-batch trains on a user's
    /// CSV), so the map keeps std's randomly keyed hasher. It is only
    /// probed, never iterated, and ids are renumbered by sorting, so no
    /// output depends on hash order.
    index: HashMap<String, u32>,
    /// Every interned token, indexed by first-seen id.
    strings: Vec<String>,
    /// Normalization buffer, reused across tokens.
    buf: String,
}

impl TokenIds {
    /// The first-seen id of `token`'s normalized form ([`normalize_into`]),
    /// interning it on first sight, or `None` if the token normalizes to
    /// empty. Ids are dense: a new form gets the number of forms interned
    /// before it.
    pub fn id(&mut self, token: &str) -> Option<u32> {
        let norm = normalize_into(token, &mut self.buf);
        if norm.is_empty() {
            return None;
        }
        if let Some(&id) = self.index.get(norm) {
            return Some(id);
        }
        let id = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct tokens");
        self.strings.push(norm.to_owned());
        self.index.insert(norm.to_owned(), id);
        Some(id)
    }

    /// Renumbers into byte-lexicographic order. Returns the tokens in
    /// ascending order (a token's final id is its index) and, indexed by
    /// first-seen id, each token's final id.
    pub fn into_sorted(self) -> (Vec<String>, Vec<u32>) {
        let TokenIds {
            index, mut strings, ..
        } = self;
        // The map's copies of the strings are not needed past this point.
        drop(index);
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| strings[x as usize].cmp(&strings[y as usize]));
        let mut remap = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let sorted = order
            .iter()
            .map(|&old| std::mem::take(&mut strings[old as usize]))
            .collect();
        (sorted, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `tokens` and returns the vocabulary and each token's final id.
    fn intern(tokens: &[&str]) -> (Vec<String>, Vec<u32>) {
        let mut ids = TokenIds::default();
        let first_seen: Vec<u32> = tokens.iter().map(|t| ids.id(t).unwrap()).collect();
        let (vocabulary, remap) = ids.into_sorted();
        let ids = first_seen.iter().map(|&id| remap[id as usize]).collect();
        (vocabulary, ids)
    }

    #[test]
    fn first_seen_ids_are_dense_and_stable() {
        let mut ids = TokenIds::default();
        assert_eq!(ids.id("zoom"), Some(0));
        assert_eq!(ids.id("alpha"), Some(1));
        assert_eq!(ids.id("zoom"), Some(0));
        assert_eq!(ids.id("camera"), Some(2));
    }

    #[test]
    fn tokens_are_interned_by_normalized_form() {
        let mut ids = TokenIds::default();
        assert_eq!(ids.id("Sony,"), Some(0));
        assert_eq!(ids.id("(sony)"), Some(0));
        assert_eq!(ids.id("!!!"), None);
        assert_eq!(ids.id("ΟΔΟΣ"), Some(1));
        let (vocabulary, _) = ids.into_sorted();
        assert_eq!(vocabulary, ["sony", "οδος"]);
    }

    #[test]
    fn ids_follow_lexicographic_order() {
        let (vocabulary, ids) = intern(&["zoom", "alpha", "camera", "alpha"]);
        assert_eq!(vocabulary, ["alpha", "camera", "zoom"]);
        assert_eq!(ids, [2, 0, 1, 0]);
    }

    #[test]
    fn id_order_matches_string_order_for_all_pairs() {
        let toks = [
            "b", "aa", "a", "ba", "ab", "z", "10.2", "0", "οδος", "straße",
        ];
        let (vocabulary, ids) = intern(&toks);
        for (x, &ix) in toks.iter().zip(&ids) {
            assert_eq!(vocabulary[ix as usize], *x);
            for (y, &iy) in toks.iter().zip(&ids) {
                assert_eq!(ix.cmp(&iy), x.cmp(y), "{x} vs {y}");
            }
        }
    }
}
