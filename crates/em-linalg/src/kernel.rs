//! Proximity kernels for weighting perturbation samples.
//!
//! LIME weights every perturbation sample by its similarity to the original
//! record, using `exp(-D(x, z)² / σ²)`. For token data, `D` is the cosine
//! distance between the binary presence vectors.

/// The exponential kernel `exp(-d² / width²)` used by LIME.
#[inline]
pub fn exponential_kernel(distance: f64, width: f64) -> f64 {
    (-(distance * distance) / (width * width)).exp()
}

/// Cosine distance between two vectors: `1 − cos(a, b)`.
///
/// Returns `1.0` when either vector is all-zero (maximally distant), which is
/// the convention LIME relies on for the empty perturbation.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    let c = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
    1.0 - c
}

/// Default kernel width used by LIME for text: `0.25 * sqrt(d)` where `d` is
/// the number of interpretable features... LIME's text explainer actually
/// uses a fixed width of 25 over cosine distances scaled by 100; we keep the
/// distances in `[0, 1]` and use a width of `0.25`, which is equivalent.
pub const DEFAULT_TEXT_KERNEL_WIDTH: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_kernel_is_one_at_zero_distance() {
        assert_eq!(exponential_kernel(0.0, 0.25), 1.0);
    }

    #[test]
    fn exponential_kernel_decreases_with_distance() {
        let w = 0.25;
        let k1 = exponential_kernel(0.1, w);
        let k2 = exponential_kernel(0.5, w);
        let k3 = exponential_kernel(1.0, w);
        assert!(k1 > k2 && k2 > k3);
        assert!(k3 > 0.0);
    }

    #[test]
    fn wider_kernel_gives_larger_weights() {
        assert!(exponential_kernel(0.5, 1.0) > exponential_kernel(0.5, 0.25));
    }

    #[test]
    fn cosine_distance_identical_vectors_is_zero() {
        let a = [1.0, 1.0, 0.0, 1.0];
        assert!(cosine_distance(&a, &a) < 1e-12);
    }

    #[test]
    fn cosine_distance_orthogonal_vectors_is_one() {
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_zero_vector_is_maximal() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(cosine_distance(&[1.0, 1.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn cosine_distance_partial_overlap_is_between() {
        let d = cosine_distance(&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0, 0.0, 0.0]);
        assert!(d > 0.0 && d < 1.0);
    }
}
