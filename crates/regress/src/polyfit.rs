//! Polynomial fitting and evaluation.
//!
//! The idle-power model (Eq. 2) expresses both of its coefficients,
//! `Widle1(V)` and `Widle0(V)`, as **third-order polynomials of
//! voltage**; this module provides the fit (Vandermonde least squares)
//! and Horner evaluation used there.

use crate::matrix::Matrix;
use crate::solve::least_squares_qr;
use ppep_types::{Error, Result};

/// A polynomial `p(x) = c0 + c1·x + … + cn·xⁿ` stored dense by degree.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coefficients: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from coefficients ordered constant-first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when `coefficients` is empty or
    /// contains non-finite values.
    pub fn new(coefficients: Vec<f64>) -> Result<Self> {
        if coefficients.is_empty() {
            return Err(Error::InvalidInput(
                "polynomial needs >= 1 coefficient".into(),
            ));
        }
        if coefficients.iter().any(|c| !c.is_finite()) {
            return Err(Error::InvalidInput(
                "polynomial coefficients must be finite".into(),
            ));
        }
        Ok(Self { coefficients })
    }

    /// Least-squares fit of a degree-`degree` polynomial to `(x, y)`
    /// pairs.
    ///
    /// ```
    /// use ppep_regress::polyfit::Polynomial;
    ///
    /// # fn main() -> ppep_types::Result<()> {
    /// // Fit y = 1 + 2x² through five points.
    /// let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
    /// let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x * x).collect();
    /// let p = Polynomial::fit(&xs, &ys, 2)?;
    /// assert!((p.eval(5.0) - 51.0).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when inputs mismatch or there
    /// are fewer than `degree + 1` points, and [`Error::Numerical`]
    /// when the Vandermonde system is rank deficient (e.g. duplicated
    /// x values only).
    pub fn fit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(Error::InvalidInput(format!(
                "{} x-values but {} y-values",
                xs.len(),
                ys.len()
            )));
        }
        if xs.len() < degree + 1 {
            return Err(Error::InvalidInput(format!(
                "need at least {} points for degree {degree}, got {}",
                degree + 1,
                xs.len()
            )));
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(Error::InvalidInput("polyfit inputs must be finite".into()));
        }
        let rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|&x| {
                let mut row = Vec::with_capacity(degree + 1);
                let mut p = 1.0;
                for _ in 0..=degree {
                    row.push(p);
                    p *= x;
                }
                row
            })
            .collect();
        let design = Matrix::from_rows(&rows)?;
        let coefficients = least_squares_qr(&design, ys)?;
        Self::new(coefficients)
    }

    /// Evaluates the polynomial at `x` by Horner's scheme.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.coefficients
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * x + c)
    }

    /// The coefficients, constant term first.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Degree of the stored representation (trailing zeros included).
    pub fn degree(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// The derivative polynomial.
    #[must_use]
    pub fn derivative(&self) -> Polynomial {
        if self.coefficients.len() == 1 {
            return Polynomial {
                coefficients: vec![0.0],
            };
        }
        let coefficients = self
            .coefficients
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| c * i as f64)
            .collect();
        Polynomial { coefficients }
    }
}

impl std::fmt::Display for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, c) in self.coefficients.iter().enumerate() {
            if *c == 0.0 && self.coefficients.len() > 1 {
                continue;
            }
            if !first {
                write!(f, " {} ", if *c < 0.0 { "-" } else { "+" })?;
            } else if *c < 0.0 {
                write!(f, "-")?;
            }
            let mag = c.abs();
            match i {
                0 => write!(f, "{mag}")?,
                1 => write!(f, "{mag}·x")?,
                _ => write!(f, "{mag}·x^{i}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_recovered_exactly() {
        // p(x) = 1 - 2x + 0.5x² + 3x³
        let truth = Polynomial::new(vec![1.0, -2.0, 0.5, 3.0]).unwrap();
        let xs: Vec<f64> = (0..8).map(|i| 0.8 + 0.1 * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = Polynomial::fit(&xs, &ys, 3).unwrap();
        for (a, b) in fit.coefficients().iter().zip(truth.coefficients()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        assert_eq!(fit.degree(), 3);
    }

    #[test]
    fn horner_matches_naive() {
        let p = Polynomial::new(vec![2.0, -1.0, 4.0]).unwrap();
        let x = 1.7;
        let naive = 2.0 - 1.0 * x + 4.0 * x * x;
        assert!((p.eval(x) - naive).abs() < 1e-12);
    }

    #[test]
    fn derivative_rules() {
        let p = Polynomial::new(vec![5.0, 3.0, 2.0]).unwrap(); // 5 + 3x + 2x²
        let d = p.derivative(); // 3 + 4x
        assert_eq!(d.coefficients(), &[3.0, 4.0]);
        let constant = Polynomial::new(vec![7.0]).unwrap();
        assert_eq!(constant.derivative().coefficients(), &[0.0]);
    }

    #[test]
    fn fit_validation() {
        assert!(Polynomial::fit(&[1.0, 2.0], &[1.0], 1).is_err());
        assert!(Polynomial::fit(&[1.0, 2.0], &[1.0, 2.0], 2).is_err());
        assert!(Polynomial::fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0], 2).is_err());
        assert!(Polynomial::new(vec![]).is_err());
        assert!(Polynomial::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn noisy_fit_is_reasonable() {
        // Linear data with deterministic "noise"; slope must be close.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + 1.0 + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let fit = Polynomial::fit(&xs, &ys, 1).unwrap();
        assert!((fit.coefficients()[1] - 2.0).abs() < 0.01);
        assert!((fit.coefficients()[0] - 1.0).abs() < 0.06);
    }

    #[test]
    fn display_formats() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.0, 3.0]).unwrap();
        let s = p.to_string();
        assert!(s.contains("1"));
        assert!(s.contains("2·x"));
        assert!(s.contains("3·x^3"));
        assert_eq!(Polynomial::new(vec![0.0]).unwrap().to_string(), "0");
    }
}
