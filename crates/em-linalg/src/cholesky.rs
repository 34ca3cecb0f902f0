//! Cholesky decomposition for symmetric positive-definite systems.
//!
//! The ridge-regression normal equations `(XᵀWX + λI) β = XᵀWy` always have
//! a symmetric positive-definite left-hand side for `λ > 0`, so Cholesky is
//! the right (and fastest) direct solver.

use crate::{LinalgError, Matrix, Result};

/// A lower-triangular Cholesky factor `L` such that `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper part is zero).
    l: Vec<f64>,
}

impl Cholesky {
    /// Decomposes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive (within a small tolerance relative to the diagonal scale).
    pub fn decompose(a: &Matrix) -> Result<Cholesky> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::decompose",
                expected: n,
                actual: a.cols(),
            });
        }
        if n == 0 {
            return Err(LinalgError::EmptyInput);
        }
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Solves `A x = b` using the factorization.
    #[allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::solve",
                expected: self.n,
                actual: b.len(),
            });
        }
        let n = self.n;
        // Forward substitution: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * n + k] * y[k];
            }
            y[i] = sum / self.l[i * n + i];
        }
        // Back substitution: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[k * n + i] * x[k];
            }
            x[i] = sum / self.l[i * n + i];
        }
        Ok(x)
    }

    /// Reconstructs `A = L Lᵀ` (useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.n;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..=i.min(j) {
                    sum += self.l[i * n + k] * self.l[j * n + k];
                }
                a.set(i, j, sum);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn decompose_and_reconstruct() {
        let a = spd_example();
        let ch = Cholesky::decompose(&a).unwrap();
        let r = ch.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!((a.get(i, j) - r.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_example();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        let err = Cholesky::decompose(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::EmptyInput)
        ));
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let ch = Cholesky::decompose(&spd_example()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::decompose(&Matrix::identity(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b).unwrap(), b.to_vec());
    }
}
