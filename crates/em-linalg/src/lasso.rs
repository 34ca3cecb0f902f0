//! Weighted lasso regression via cyclic coordinate descent.
//!
//! Used as an alternative surrogate model (LIME's original paper proposes
//! K-LASSO for feature selection). The objective is
//!
//! ```text
//! β = argmin (1 / (2 Σw)) Σᵢ wᵢ (yᵢ − β₀ − xᵢᵀβ)² + λ ‖β‖₁
//! ```
//!
//! with an unpenalized intercept, matching scikit-learn's `Lasso` scaling.

use crate::{LinalgError, Matrix, Result};

/// Maximum number of full coordinate-descent sweeps.
const MAX_ITER: usize = 1000;

/// Convergence threshold on the maximum coefficient change per sweep.
const TOL: f64 = 1e-8;

/// A fitted lasso model.
#[derive(Debug, Clone)]
pub struct LassoModel {
    /// Intercept term.
    pub intercept: f64,
    /// Per-feature coefficients (sparse in practice: many exact zeros).
    pub coefficients: Vec<f64>,
    /// Number of coordinate-descent sweeps performed.
    pub iterations: usize,
}

impl LassoModel {
    /// Predicts the response for a feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + crate::matrix::dot(x, &self.coefficients)
    }
}

/// Soft-thresholding operator: `sign(z) * max(|z| - g, 0)`.
#[inline]
fn soft_threshold(z: f64, g: f64) -> f64 {
    if z > g {
        z - g
    } else if z < -g {
        z + g
    } else {
        0.0
    }
}

/// Fits weighted lasso regression with cyclic coordinate descent.
///
/// `lambda` is the L1 penalty on every coefficient except the intercept
/// (negative values count as 0).
#[allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
pub fn lasso_fit(x: &Matrix, y: &[f64], weights: &[f64], lambda: f64) -> Result<LassoModel> {
    let n = x.rows();
    let d = x.cols();
    if n == 0 || d == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lasso_fit(y)",
            expected: n,
            actual: y.len(),
        });
    }
    if weights.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lasso_fit(weights)",
            expected: n,
            actual: weights.len(),
        });
    }
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return Err(LinalgError::EmptyInput);
    }

    // Center with weighted means so the intercept is unpenalized.
    let (x_mean, y_mean) = {
        let mut xm = vec![0.0; d];
        let mut ym = 0.0;
        for r in 0..n {
            let w = weights[r];
            ym += w * y[r];
            for (m, &v) in xm.iter_mut().zip(x.row(r)) {
                *m += w * v;
            }
        }
        for m in xm.iter_mut() {
            *m /= wsum;
        }
        (xm, ym / wsum)
    };

    // Pre-compute centered columns and their weighted squared norms.
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(d);
    for j in 0..d {
        let mut col = Vec::with_capacity(n);
        for r in 0..n {
            col.push(x.get(r, j) - x_mean[j]);
        }
        cols.push(col);
    }
    let col_norms: Vec<f64> = cols
        .iter()
        .map(|col| col.iter().zip(weights).map(|(v, w)| w * v * v).sum::<f64>() / wsum)
        .collect();

    let mut beta = vec![0.0; d];
    // residual r = yc - X beta (beta starts at 0)
    let mut resid: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

    let lambda = lambda.max(0.0);
    let mut iterations = 0;
    for it in 0..MAX_ITER {
        iterations = it + 1;
        let mut max_delta: f64 = 0.0;
        for j in 0..d {
            if col_norms[j] <= 0.0 {
                continue; // constant column after centering: keep at 0
            }
            let col = &cols[j];
            // Partial residual correlation: (1/Σw) Σ w x_j (r + x_j βⱼ)
            let mut rho = 0.0;
            for i in 0..n {
                rho += weights[i] * col[i] * (resid[i] + col[i] * beta[j]);
            }
            rho /= wsum;
            let new_beta = soft_threshold(rho, lambda) / col_norms[j];
            let delta = new_beta - beta[j];
            if delta != 0.0 {
                for i in 0..n {
                    resid[i] -= delta * col[i];
                }
                beta[j] = new_beta;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < TOL {
            break;
        }
        if it + 1 == MAX_ITER && max_delta >= TOL * 100.0 {
            return Err(LinalgError::DidNotConverge {
                iterations,
                last_delta: max_delta,
            });
        }
    }

    let intercept = y_mean - crate::matrix::dot(&x_mean, &beta);
    Ok(LassoModel {
        intercept,
        coefficients: beta,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn soft_threshold_behaviour() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn tiny_lambda_recovers_ols_solution() {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![0.5, -1.0],
        ])
        .unwrap();
        let y: Vec<f64> = (0..5)
            .map(|r| 1.0 + 2.0 * x.get(r, 0) - 3.0 * x.get(r, 1))
            .collect();
        let m = lasso_fit(&x, &y, &ones(5), 1e-10).unwrap();
        assert!((m.intercept - 1.0).abs() < 1e-4, "{m:?}");
        assert!((m.coefficients[0] - 2.0).abs() < 1e-4);
        assert!((m.coefficients[1] + 3.0).abs() < 1e-4);
    }

    #[test]
    fn large_lambda_zeros_everything() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let y = vec![0.0, 1.0, 2.0];
        let m = lasso_fit(&x, &y, &ones(3), 100.0).unwrap();
        assert_eq!(m.coefficients, vec![0.0]);
    }

    #[test]
    fn lasso_selects_the_informative_feature() {
        // Feature 0 drives y; feature 1 is pure noise (constant-ish small values).
        let x = Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![1.0, -0.1],
            vec![2.0, 0.05],
            vec![3.0, -0.02],
            vec![4.0, 0.08],
        ])
        .unwrap();
        let y = vec![0.0, 2.0, 4.0, 6.0, 8.0];
        let m = lasso_fit(&x, &y, &ones(5), 0.05).unwrap();
        assert!(m.coefficients[0] > 1.0, "{m:?}");
        assert_eq!(m.coefficients[1], 0.0, "{m:?}");
    }

    #[test]
    fn weighted_samples_dominate() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![0.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 1.0, 0.0, 5.0];
        let a = lasso_fit(&x, &y, &[10.0, 10.0, 0.01, 0.01], 1e-6).unwrap();
        let b = lasso_fit(&x, &y, &[0.01, 0.01, 10.0, 10.0], 1e-6).unwrap();
        assert!(a.coefficients[0] < b.coefficients[0]);
    }

    #[test]
    fn constant_column_gets_zero_coefficient() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let y = vec![0.0, 1.0, 2.0];
        let m = lasso_fit(&x, &y, &ones(3), 1e-8).unwrap();
        assert_eq!(m.coefficients[0], 0.0);
        assert!((m.coefficients[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::zeros(2, 1);
        assert!(lasso_fit(&x, &[1.0], &[1.0, 1.0], 0.01).is_err());
        assert!(lasso_fit(&x, &[1.0, 2.0], &[1.0], 0.01).is_err());
        assert!(lasso_fit(&Matrix::zeros(0, 0), &[], &[], 0.01).is_err());
    }
}
