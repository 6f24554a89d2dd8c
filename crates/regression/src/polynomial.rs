//! Univariate polynomial least squares with input standardisation and
//! optional ridge regularisation.
//!
//! This is the `RG(U_sr)` building block of the paper's basic performance
//! model: a curve mapping one resource's contention value to the
//! component's service time. Degree 2 is the default — the ground-truth
//! slowdowns are smooth and gently convex, and the paper's 2.68 % mean
//! error does not require anything exotic.

use crate::linalg;
use pcs_types::PcsError;

/// A fitted univariate polynomial `y ≈ Σ cᵢ·zⁱ` on the standardised input
/// `z = (x − μ)/σ`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolynomialModel {
    /// Coefficients, constant term first, over the standardised input.
    coeffs: Vec<f64>,
    /// Input mean used for standardisation.
    x_mean: f64,
    /// Input scale used for standardisation (1.0 if input was constant).
    x_scale: f64,
}

impl PolynomialModel {
    /// Fits a polynomial of the given degree by least squares.
    ///
    /// `ridge` adds L2 shrinkage `ridge·I` to the normal equations for the
    /// non-constant coefficients (the intercept is never penalised); pass
    /// `0.0` for ordinary least squares.
    ///
    /// Degenerate inputs (constant `x`) yield a constant model predicting
    /// the target mean — this mirrors how an uncorrelated resource behaves
    /// in the paper's weighting (it simply receives a near-zero weight).
    ///
    /// # Errors
    /// Returns [`PcsError::InsufficientData`] with fewer samples than
    /// `degree + 1`, and [`PcsError::Numerical`] if the normal equations
    /// are singular.
    ///
    /// # Panics
    /// Panics if `xs` and `ys` differ in length or `degree` is 0 with no
    /// samples.
    #[allow(clippy::needless_range_loop)] // triangular normal-equation access mirrors the maths
    pub fn fit(xs: &[f64], ys: &[f64], degree: usize, ridge: f64) -> Result<Self, PcsError> {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(
            ridge >= 0.0 && ridge.is_finite(),
            "ridge must be finite and non-negative"
        );
        let n = xs.len();
        if n < degree + 1 {
            return Err(PcsError::InsufficientData {
                context: "polynomial fit",
                got: n,
                need: degree + 1,
            });
        }

        let x_mean = xs.iter().sum::<f64>() / n as f64;
        let x_var = xs.iter().map(|x| (x - x_mean).powi(2)).sum::<f64>() / n as f64;
        let x_scale = x_var.sqrt();
        let y_mean = ys.iter().sum::<f64>() / n as f64;

        // Constant input: nothing to regress on.
        if x_scale < 1e-12 {
            let mut coeffs = vec![0.0; degree + 1];
            coeffs[0] = y_mean;
            return Ok(PolynomialModel {
                coeffs,
                x_mean,
                x_scale: 1.0,
            });
        }

        let dim = degree + 1;
        // Normal equations on the standardised design matrix.
        let mut ata = vec![vec![0.0; dim]; dim];
        let mut aty = vec![0.0; dim];
        let mut powers = vec![0.0; dim];
        for (&x, &y) in xs.iter().zip(ys) {
            let z = (x - x_mean) / x_scale;
            let mut p = 1.0;
            for slot in powers.iter_mut() {
                *slot = p;
                p *= z;
            }
            for i in 0..dim {
                aty[i] += powers[i] * y;
                for j in i..dim {
                    ata[i][j] += powers[i] * powers[j];
                }
            }
        }
        // Mirror the upper triangle and apply ridge to non-intercept terms.
        for i in 0..dim {
            for j in 0..i {
                ata[i][j] = ata[j][i];
            }
            if i > 0 {
                ata[i][i] += ridge * n as f64;
            }
        }

        let coeffs = linalg::solve(ata, aty)?;
        Ok(PolynomialModel {
            coeffs,
            x_mean,
            x_scale,
        })
    }

    /// Evaluates the model at `x` (Horner on the standardised input).
    pub fn predict(&self, x: f64) -> f64 {
        let z = (x - self.x_mean) / self.x_scale;
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * z + c;
        }
        acc
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients over the standardised input, constant term first.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn recovers_linear_function() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let m = PolynomialModel::fit(&xs, &ys, 1, 0.0).unwrap();
        for &x in &xs {
            assert_close(m.predict(x), 3.0 + 2.0 * x, 1e-9);
        }
        // Extrapolation stays exact for an exactly-linear target.
        assert_close(m.predict(5.0), 13.0, 1e-8);
    }

    #[test]
    fn recovers_quadratic_function() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 0.5 * x + 2.0 * x * x).collect();
        let m = PolynomialModel::fit(&xs, &ys, 2, 0.0).unwrap();
        for &x in &xs {
            assert_close(m.predict(x), 1.0 + 0.5 * x + 2.0 * x * x, 1e-8);
        }
    }

    #[test]
    fn underdetermined_fit_is_an_error() {
        let err = PolynomialModel::fit(&[1.0, 2.0], &[1.0, 2.0], 2, 0.0).unwrap_err();
        assert!(matches!(err, PcsError::InsufficientData { need: 3, .. }));
    }

    #[test]
    fn constant_input_predicts_target_mean() {
        let xs = [0.5; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let m = PolynomialModel::fit(&xs, &ys, 2, 0.0).unwrap();
        assert_close(m.predict(0.5), 4.5, 1e-12);
        assert_close(m.predict(100.0), 4.5, 1e-12);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.02).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 * x).collect();
        let ols = PolynomialModel::fit(&xs, &ys, 1, 0.0).unwrap();
        let ridged = PolynomialModel::fit(&xs, &ys, 1, 10.0).unwrap();
        assert!(
            ridged.coefficients()[1].abs() < ols.coefficients()[1].abs(),
            "ridge must shrink the slope"
        );
    }

    #[test]
    fn fits_noisy_data_approximately() {
        // Deterministic pseudo-noise; verifies least squares averages it out.
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.01).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 + x + 0.01 * ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect();
        let m = PolynomialModel::fit(&xs, &ys, 1, 0.0).unwrap();
        // Mean of the noise term is ~0.005, so intercept ≈ 2.005.
        assert_close(m.predict(1.0), 3.005, 0.01);
    }

    #[test]
    fn standardisation_keeps_large_inputs_conditioned() {
        // Raw Vandermonde on values ~1e6 would be catastrophically
        // ill-conditioned; standardisation must keep this exact.
        let xs: Vec<f64> = (0..20).map(|i| 1.0e6 + i as f64 * 1.0e4).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + 3.0e-6 * x).collect();
        let m = PolynomialModel::fit(&xs, &ys, 2, 0.0).unwrap();
        for &x in &xs {
            let expected = 5.0 + 3.0e-6 * x;
            assert!((m.predict(x) - expected).abs() / expected < 1e-6);
        }
    }
}
