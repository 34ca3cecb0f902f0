//! Similarity helpers over interned token ids, for the kernel's
//! per-attribute evaluator ([`crate::prepared`]), which scores
//! perturbations and training rows alike.
//!
//! Ids come from [`em_text::intern::TokenIds`] (ids ascend in
//! byte-lexicographic string order), so each helper performs the same
//! f64 operations as its string counterpart in [`em_text`] and returns the
//! same bits (DESIGN.md §11).

/// Number of distinct values in a sorted slice.
fn distinct_count(sorted: &[u32]) -> usize {
    let mut count = 0;
    let mut prev = None;
    for &x in sorted {
        if prev != Some(x) {
            count += 1;
            prev = Some(x);
        }
    }
    count
}

/// Number of distinct values present in both sorted slices.
fn intersect_distinct(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                let v = a[i];
                while i < a.len() && a[i] == v {
                    i += 1;
                }
                while j < b.len() && b[j] == v {
                    j += 1;
                }
            }
        }
    }
    count
}

/// Jaccard over sorted id multisets — integer set counts and the same
/// final division as `em_text::jaccard`, so the result is bit-identical.
pub(crate) fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    let sa = distinct_count(a);
    let sb = distinct_count(b);
    if sa == 0 && sb == 0 {
        return 1.0;
    }
    let inter = intersect_distinct(a, b);
    let union = sa + sb - inter;
    inter as f64 / union as f64
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
