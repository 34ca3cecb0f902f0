//! Similarity helpers over interned token ids, for the kernel's
//! per-attribute evaluator ([`crate::prepared`]), which scores
//! perturbations and training rows alike.
//!
//! Ids come from [`em_text::intern::TokenIds`] (ids ascend in
//! byte-lexicographic string order), so each helper performs the same
//! f64 operations as its string counterpart in [`em_text`] and returns the
//! same bits (DESIGN.md §11).

/// Both sides of one attribute merged by token id once: per distinct id
/// of either side, ascending, the id's IDF and each side's term count
/// under a mask — a fixed count, plus the kept tokens among a run of mask
/// bits. Scoring a mask then walks the ids in order with no sort and no
/// per-mask merge.
#[derive(Debug, Default)]
pub(crate) struct IdUnion {
    entries: Vec<UnionEntry>,
    /// Per side, the mask bits of its varying tokens in ascending (id,
    /// position) order; entry `k`'s run ends at `entries[k].end[side]`.
    bits: [Vec<usize>; 2],
}

#[derive(Debug)]
struct UnionEntry {
    idf: f64,
    /// Per side, the id's occurrences that no mask drops (a fixed side's).
    fixed_tf: [u32; 2],
    /// Per side, the end of the id's run in `IdUnion::bits`.
    end: [usize; 2],
}

impl IdUnion {
    /// Rebuilds from each side's normalized tokens as `(id, mask bit)`
    /// sorted ascending, where a fixed side's tokens have no bit.
    pub(crate) fn rebuild(
        &mut self,
        left: &[(u32, Option<usize>)],
        right: &[(u32, Option<usize>)],
        idf_by_id: &[f64],
    ) {
        self.entries.clear();
        self.bits.iter_mut().for_each(Vec::clear);
        let mut rest = [left, right];
        while let Some(id) = rest
            .iter()
            .filter_map(|side| side.first())
            .map(|t| t.0)
            .min()
        {
            let mut fixed_tf = [0; 2];
            for (side, tokens) in rest.iter_mut().enumerate() {
                while let Some(&(_, bit)) = tokens.first().filter(|t| t.0 == id) {
                    match bit {
                        Some(bit) => self.bits[side].push(bit),
                        None => fixed_tf[side] += 1,
                    }
                    *tokens = &tokens[1..];
                }
            }
            self.entries.push(UnionEntry {
                idf: idf_by_id[id as usize],
                fixed_tf,
                end: [self.bits[0].len(), self.bits[1].len()],
            });
        }
    }

    /// Jaccard and TF-IDF cosine inputs under `mask`, in one pass over the
    /// ids in ascending order: the order the string path's sorted-token
    /// merge visits and sums them in. An id that a side lacks, or whose
    /// tokens there the mask all drops, weighs `+0.0` on that side and
    /// adds `+0.0` to its sum of squares and to the dot product, which
    /// leaves every partial sum unchanged (all terms are non-negative).
    pub(crate) fn overlap(&self, mask: &[bool]) -> Overlap {
        let mut o = Overlap::default();
        let mut start = [0; 2];
        for entry in &self.entries {
            let mut tf = entry.fixed_tf;
            for (side, tf) in tf.iter_mut().enumerate() {
                let run = &self.bits[side][start[side]..entry.end[side]];
                *tf += run.iter().map(|&bit| u32::from(mask[bit])).sum::<u32>();
            }
            start = entry.end;
            // `count as f64 * idf`, as `TfIdfVectorizer` weighs a term.
            let weight = tf.map(|t| f64::from(t) * entry.idf);
            for side in 0..2 {
                o.distinct[side] += usize::from(tf[side] > 0);
                o.sum_sq[side] += weight[side] * weight[side];
            }
            o.shared += usize::from(tf[0] > 0 && tf[1] > 0);
            o.dot += weight[0] * weight[1];
        }
        o
    }
}

/// What one pass over an attribute's [`IdUnion`] yields: the inputs of
/// both Jaccard and TF-IDF cosine.
#[derive(Debug, Default)]
pub(crate) struct Overlap {
    /// Per side, the number of distinct kept ids.
    distinct: [usize; 2],
    /// Distinct ids kept on both sides.
    shared: usize,
    dot: f64,
    /// Per side, the sum of squared TF-IDF weights.
    sum_sq: [f64; 2],
}

impl Overlap {
    /// `em_text::jaccard`: integer set counts, the same final division.
    pub(crate) fn jaccard(&self) -> f64 {
        let [l, r] = self.distinct;
        if l == 0 && r == 0 {
            return 1.0;
        }
        self.shared as f64 / (l + r - self.shared) as f64
    }

    /// `TfIdfVectorizer::cosine`, with its empty-document conventions:
    /// both empty → 1, one empty → 0.
    pub(crate) fn cosine(&self) -> f64 {
        let [l, r] = self.distinct;
        if l == 0 && r == 0 {
            return 1.0;
        }
        if l == 0 || r == 0 {
            return 0.0;
        }
        let (na, nb) = (self.sum_sq[0].sqrt(), self.sum_sq[1].sqrt());
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (self.dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Symmetric Monge-Elkan over a precomputed inner-similarity matrix:
/// replays `monge_elkan_symmetric`'s loops (same iteration order, same
/// `f64::max` fold, same empty-list conventions) with matrix lookups in
/// place of Jaro-Winkler calls.
pub(crate) fn monge_elkan_matrix(
    l_seq: &[usize],
    r_seq: &[usize],
    jw: &[f64],
    ncols: usize,
) -> f64 {
    let one_direction = |rows: &[usize], cols: &[usize], fetch: &dyn Fn(usize, usize) -> f64| {
        if rows.is_empty() && cols.is_empty() {
            return 1.0;
        }
        if rows.is_empty() || cols.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &i in rows {
            let best = cols.iter().map(|&j| fetch(i, j)).fold(0.0f64, f64::max);
            total += best;
        }
        total / rows.len() as f64
    };
    let fwd = one_direction(l_seq, r_seq, &|i, j| jw[i * ncols + j]);
    let bwd = one_direction(r_seq, l_seq, &|j, i| jw[i * ncols + j]);
    (fwd + bwd) / 2.0
}
