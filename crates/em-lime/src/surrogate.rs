//! Surrogate-model fitting: from perturbation masks and black-box
//! probabilities to a proximity-weighted linear model.

use em_linalg::kernel::{cosine_distance, exponential_kernel, DEFAULT_TEXT_KERNEL_WIDTH};
use em_linalg::lasso::lasso_fit;
use em_linalg::ridge::ridge_fit;
use em_linalg::Matrix;

/// Which linear solver fits the surrogate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurrogateSolver {
    /// Ridge regression (LIME's default).
    Ridge {
        /// L2 penalty.
        lambda: f64,
    },
    /// Lasso — sparse surrogate, implicitly selecting features.
    Lasso {
        /// L1 penalty.
        lambda: f64,
    },
}

impl Default for SurrogateSolver {
    fn default() -> Self {
        SurrogateSolver::Ridge { lambda: 1.0 }
    }
}

/// Configuration for [`fit_surrogate`].
#[derive(Debug, Clone, Copy)]
pub struct SurrogateConfig {
    /// Width of the exponential proximity kernel over cosine distances.
    pub kernel_width: f64,
    /// The solver.
    pub solver: SurrogateSolver,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            kernel_width: DEFAULT_TEXT_KERNEL_WIDTH,
            solver: SurrogateSolver::default(),
        }
    }
}

/// A fitted surrogate: linear coefficients over the interpretable features.
#[derive(Debug, Clone)]
pub struct SurrogateFit {
    /// Intercept.
    pub intercept: f64,
    /// One coefficient per interpretable feature.
    pub coefficients: Vec<f64>,
    /// Weighted R² on the perturbation dataset.
    pub r2: f64,
}

impl SurrogateFit {
    /// Surrogate prediction for a mask.
    pub fn predict(&self, mask: &[bool]) -> f64 {
        debug_assert_eq!(mask.len(), self.coefficients.len());
        self.intercept
            + mask
                .iter()
                .zip(&self.coefficients)
                .filter(|(&m, _)| m)
                .map(|(_, c)| c)
                .sum::<f64>()
    }
}

/// Fits the surrogate model.
///
/// * `masks` — binary neighborhood samples (first is conventionally the
///   unperturbed record);
/// * `probs` — black-box match probability for each reconstructed sample.
///
/// Samples are weighted by `exp(-cosineDist(mask, 1⃗)² / width²)`, exactly
/// LIME's text kernel.
///
/// # Panics
/// Panics if `masks.len() != probs.len()`, if no samples are given, or if
/// masks are ragged.
pub fn fit_surrogate(masks: &[Vec<bool>], probs: &[f64], config: &SurrogateConfig) -> SurrogateFit {
    assert_eq!(masks.len(), probs.len(), "one probability per mask");
    assert!(!masks.is_empty(), "need at least one sample");
    let d = masks[0].len();
    assert!(masks.iter().all(|m| m.len() == d), "ragged masks");
    if d == 0 {
        // No features: the surrogate is just the weighted mean.
        let mean = probs.iter().sum::<f64>() / probs.len() as f64;
        return SurrogateFit {
            intercept: mean,
            coefficients: vec![],
            r2: 1.0,
        };
    }

    let ones = vec![1.0; d];
    let rows: Vec<Vec<f64>> = masks
        .iter()
        .map(|m| m.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
        .collect();
    let weights: Vec<f64> = rows
        .iter()
        .map(|row| exponential_kernel(cosine_distance(row, &ones), config.kernel_width))
        .collect();
    let x = Matrix::from_rows(&rows).expect("rectangular rows");

    let (intercept, coefficients) = match config.solver {
        SurrogateSolver::Ridge { lambda } => {
            let m = ridge_fit(&x, probs, &weights, lambda).expect("ridge surrogate fit");
            (m.intercept, m.coefficients)
        }
        SurrogateSolver::Lasso { lambda } => {
            let m = lasso_fit(&x, probs, &weights, lambda).expect("lasso surrogate fit");
            (m.intercept, m.coefficients)
        }
    };

    // Weighted R².
    let wsum: f64 = weights.iter().sum();
    let y_mean: f64 = probs.iter().zip(&weights).map(|(y, w)| y * w).sum::<f64>() / wsum;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for ((row, &y), &w) in rows.iter().zip(probs).zip(&weights) {
        let pred = intercept
            + row
                .iter()
                .zip(&coefficients)
                .map(|(x, c)| x * c)
                .sum::<f64>();
        ss_res += w * (y - pred) * (y - pred);
        ss_tot += w * (y - y_mean) * (y - y_mean);
    }
    let r2 = if ss_tot <= 1e-15 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    SurrogateFit {
        intercept,
        coefficients,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_masks;

    /// Black box: probability = 0.1 + 0.5·[token0 on] + 0.3·[token2 on].
    fn synthetic_probs(masks: &[Vec<bool>]) -> Vec<f64> {
        masks
            .iter()
            .map(|m| 0.1 + if m[0] { 0.5 } else { 0.0 } + if m[2] { 0.3 } else { 0.0 })
            .collect()
    }

    #[test]
    fn recovers_additive_structure_with_ridge() {
        let masks = sample_masks(4, 400, 0);
        let probs = synthetic_probs(&masks);
        let fit = fit_surrogate(&masks, &probs, &SurrogateConfig::default());
        assert!(
            (fit.coefficients[0] - 0.5).abs() < 0.05,
            "{:?}",
            fit.coefficients
        );
        assert!(fit.coefficients[1].abs() < 0.05);
        assert!((fit.coefficients[2] - 0.3).abs() < 0.05);
        assert!(fit.coefficients[3].abs() < 0.05);
        assert!(fit.r2 > 0.95, "r2 = {}", fit.r2);
    }

    #[test]
    fn recovers_additive_structure_with_lasso() {
        let masks = sample_masks(4, 400, 1);
        let probs = synthetic_probs(&masks);
        let cfg = SurrogateConfig {
            solver: SurrogateSolver::Lasso { lambda: 1e-4 },
            ..Default::default()
        };
        let fit = fit_surrogate(&masks, &probs, &cfg);
        assert!(
            (fit.coefficients[0] - 0.5).abs() < 0.05,
            "{:?}",
            fit.coefficients
        );
        assert!((fit.coefficients[2] - 0.3).abs() < 0.05);
    }

    #[test]
    fn lasso_with_strong_penalty_is_sparse() {
        let masks = sample_masks(6, 300, 2);
        let probs: Vec<f64> = masks.iter().map(|m| if m[0] { 0.9 } else { 0.1 }).collect();
        let cfg = SurrogateConfig {
            solver: SurrogateSolver::Lasso { lambda: 0.05 },
            ..Default::default()
        };
        let fit = fit_surrogate(&masks, &probs, &cfg);
        let nonzero = fit.coefficients.iter().filter(|c| c.abs() > 1e-9).count();
        assert!(nonzero <= 2, "{:?}", fit.coefficients);
        assert!(fit.coefficients[0] > 0.3);
    }

    #[test]
    fn predict_sums_active_coefficients() {
        let fit = SurrogateFit {
            intercept: 0.1,
            coefficients: vec![0.5, -0.2, 0.3],
            r2: 1.0,
        };
        assert!((fit.predict(&[true, false, true]) - 0.9).abs() < 1e-12);
        assert!((fit.predict(&[false, true, false]) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn constant_black_box_gives_zero_coefficients() {
        let masks = sample_masks(3, 100, 3);
        let probs = vec![0.7; masks.len()];
        let fit = fit_surrogate(&masks, &probs, &SurrogateConfig::default());
        for c in &fit.coefficients {
            assert!(c.abs() < 1e-6, "{c}");
        }
        assert!((fit.intercept - 0.7).abs() < 1e-6);
    }

    #[test]
    fn zero_feature_record_reduces_to_mean() {
        let masks = vec![vec![], vec![], vec![]];
        let probs = vec![0.2, 0.4, 0.6];
        let fit = fit_surrogate(&masks, &probs, &SurrogateConfig::default());
        assert!((fit.intercept - 0.4).abs() < 1e-12);
        assert!(fit.coefficients.is_empty());
    }

    #[test]
    #[should_panic(expected = "one probability per mask")]
    fn mismatched_lengths_panic() {
        fit_surrogate(&[vec![true]], &[0.1, 0.2], &SurrogateConfig::default());
    }

    #[test]
    fn narrower_kernel_focuses_on_light_perturbations() {
        // A black box that is linear for light perturbations but saturates
        // when most tokens are gone: a narrow kernel should fit the local
        // (linear) region better.
        let masks = sample_masks(8, 500, 4);
        let probs: Vec<f64> = masks
            .iter()
            .map(|m| {
                let on = m.iter().filter(|&&b| b).count() as f64;
                if on >= 6.0 {
                    0.1 * on
                } else {
                    0.0
                }
            })
            .collect();
        let narrow = fit_surrogate(
            &masks,
            &probs,
            &SurrogateConfig {
                kernel_width: 0.1,
                ..Default::default()
            },
        );
        let wide = fit_surrogate(
            &masks,
            &probs,
            &SurrogateConfig {
                kernel_width: 5.0,
                ..Default::default()
            },
        );
        // The narrow kernel concentrates its weight on light perturbations
        // (≥ 6 tokens on), so its surrogate must predict that local linear
        // region far better than the wide kernel's global compromise fit.
        let local_mae = |fit: &SurrogateFit| -> f64 {
            let local: Vec<(&Vec<bool>, f64)> = masks
                .iter()
                .zip(&probs)
                .filter(|(m, _)| m.iter().filter(|&&b| b).count() >= 6)
                .map(|(m, &p)| (m, p))
                .collect();
            local
                .iter()
                .map(|(m, p)| (fit.predict(m) - p).abs())
                .sum::<f64>()
                / local.len() as f64
        };
        assert!(local_mae(&narrow) < local_mae(&wide));
        // And its per-token coefficients still carry the local slope's sign.
        assert!(narrow.coefficients.iter().sum::<f64>() > 0.0);
    }
}
