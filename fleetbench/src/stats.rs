//! Order statistics with an honest sample count.
//!
//! A percentile read from a sample is only as good as the number of
//! observations beyond it: with 20 samples, "p99" is simply the maximum.
//! [`Percentile`] therefore carries how many samples lie beyond the
//! reported value, and [`highest_supported`] picks the highest of a few
//! standard percentiles that keeps at least [`MIN_BEYOND`] of them.

/// Observations that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles [`highest_supported`] chooses from, highest first.
pub const CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, as a fraction in `(0, 1]`.
    pub p: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples strictly after the reported rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the value to trust it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank rank (1-based) of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact product such as 0.99 * 1000 from
    // rounding up a rank through representation error.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` of an ascending sample. `None` for an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    Some(Percentile {
        p,
        value: sorted[r - 1],
        n,
        beyond: n - r,
    })
}

/// The highest of [`CANDIDATES`] that keeps at least [`MIN_BEYOND`]
/// samples beyond it; `None` when even the median does not.
pub fn highest_supported(sorted: &[f64]) -> Option<Percentile> {
    CANDIDATES
        .iter()
        .filter_map(|&p| percentile(sorted, p))
        .find(Percentile::supported)
}

/// Splits `items` into `n` consecutive blocks of near-equal size.
pub fn blocks<T>(items: &[T], n: usize) -> std::slice::Chunks<'_, T> {
    items.chunks(items.len().div_ceil(n.max(1)).max(1))
}

/// Sorts a sample ascending (total order; NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (nearest rank); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5).map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&s, 0.95).unwrap().value, 95.0);
        assert_eq!(percentile(&s, 0.95).unwrap().beyond, 5);
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn p99_of_twenty_samples_is_not_supported() {
        // A round((n-1)p) helper reports the maximum as p99 here.
        let s = one_to(20);
        let p99 = percentile(&s, 0.99).unwrap();
        assert_eq!(p99.value, 20.0);
        assert_eq!(p99.beyond, 0);
        assert!(!p99.supported());
        let best = highest_supported(&s).unwrap();
        assert_eq!(
            (best.p, best.value, best.n, best.beyond),
            (0.5, 10.0, 20, 10)
        );
    }

    #[test]
    fn highest_supported_grows_with_the_sample() {
        assert!(highest_supported(&one_to(19)).is_none());
        assert_eq!(highest_supported(&one_to(199)).unwrap().p, 0.9);
        assert_eq!(highest_supported(&one_to(200)).unwrap().p, 0.95);
        assert_eq!(highest_supported(&one_to(999)).unwrap().p, 0.95);
        let p99 = highest_supported(&one_to(1000)).unwrap();
        assert_eq!((p99.p, p99.value, p99.beyond), (0.99, 990.0, 10));
        assert_eq!(highest_supported(&one_to(10_000)).unwrap().p, 0.999);
    }

    #[test]
    fn blocks_cover_every_item_in_order() {
        let items: Vec<usize> = (0..11).collect();
        let parts: Vec<&[usize]> = blocks(&items, 5).collect();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.concat(), items);
        assert_eq!(blocks(&items[..0], 5).count(), 0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
