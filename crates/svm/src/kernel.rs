//! Kernel functions for SVM training and prediction.

use serde::{Deserialize, Serialize};

use crate::{Result, SvmError};

/// A positive-definite kernel `K(x, y)` used by [`crate::Svc`] and
/// [`crate::Svr`].
///
/// The paper's test-compaction flow uses an RBF kernel (the decision boundary
/// of a mixed analog/MEMS acceptance region is curved, see Figure 3); the
/// linear kernel is retained for the simpler cases and for fast unit tests.
///
/// # Example
///
/// ```
/// use stc_svm::Kernel;
///
/// let k = Kernel::rbf(0.5);
/// let same = k.eval(&[1.0, 2.0], &[1.0, 2.0]);
/// assert!((same - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Kernel {
    /// `K(x, y) = x · y`
    Linear,
    /// `K(x, y) = (gamma * x · y + coef0)^degree`
    Polynomial {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
    /// `K(x, y) = exp(-gamma * ||x - y||^2)`
    Rbf {
        /// Width parameter; larger values make the kernel more local.
        gamma: f64,
    },
    /// `K(x, y) = tanh(gamma * x · y + coef0)`
    Sigmoid {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Linear kernel.
    pub fn linear() -> Self {
        Kernel::Linear
    }

    /// Gaussian radial-basis-function kernel with the given `gamma`.
    pub fn rbf(gamma: f64) -> Self {
        Kernel::Rbf { gamma }
    }

    /// Polynomial kernel `(gamma x·y + coef0)^degree`.
    pub fn polynomial(gamma: f64, coef0: f64, degree: u32) -> Self {
        Kernel::Polynomial { gamma, coef0, degree }
    }

    /// Sigmoid (hyperbolic tangent) kernel.
    pub fn sigmoid(gamma: f64, coef0: f64) -> Self {
        Kernel::Sigmoid { gamma, coef0 }
    }

    /// Validates the kernel hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::InvalidParameter`] when `gamma` is not strictly
    /// positive or `degree` is zero.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Kernel::Linear => Ok(()),
            Kernel::Rbf { gamma } | Kernel::Sigmoid { gamma, .. } => {
                if gamma > 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    Err(SvmError::InvalidParameter { name: "gamma", value: gamma })
                }
            }
            Kernel::Polynomial { gamma, degree, .. } => {
                if !(gamma > 0.0 && gamma.is_finite()) {
                    Err(SvmError::InvalidParameter { name: "gamma", value: gamma })
                } else if degree == 0 {
                    Err(SvmError::InvalidParameter { name: "degree", value: 0.0 })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Evaluates the kernel for two feature vectors.
    ///
    /// Both vectors must come from the same feature space: a [`crate::Dataset`]
    /// (whose constructors validate dimensions and finiteness once) or a
    /// prediction input of the same dimension.  Mismatched lengths are a
    /// caller bug, never valid data — release builds used to *silently
    /// truncate* to the shorter vector here (the `zip` ignores trailing
    /// elements), which turned dimension bugs into wrong kernel values; the
    /// guard is now unconditional.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths (debug **and** release
    /// builds).
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel arguments must have equal length");
        let inner = if self.uses_distance() { squared_distance(x, y) } else { dot(x, y) };
        self.finish(inner)
    }

    /// Whether the kernel is a function of the squared distance
    /// `‖x − y‖²` (RBF) rather than of the dot product `x · y`.
    pub(crate) fn uses_distance(&self) -> bool {
        matches!(self, Kernel::Rbf { .. })
    }

    /// `K(x, y)` from its inner term: the squared distance when
    /// [`Kernel::uses_distance`], the dot product otherwise.
    pub(crate) fn finish(&self, inner: f64) -> f64 {
        match *self {
            Kernel::Linear => inner,
            Kernel::Polynomial { gamma, coef0, degree } => {
                (gamma * inner + coef0).powi(degree as i32)
            }
            Kernel::Rbf { gamma } => (-gamma * inner).exp(),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * inner + coef0).tanh(),
        }
    }

    /// Bounds of `K` from bounds `[lo, hi]` of its inner term (see
    /// [`Kernel::finish`]).
    pub(crate) fn finish_bounds(&self, lo: f64, hi: f64) -> (f64, f64) {
        match *self {
            Kernel::Linear => (lo, hi),
            Kernel::Polynomial { gamma, coef0, degree } => {
                powi_bounds(gamma * lo + coef0, gamma * hi + coef0, degree as i32)
            }
            Kernel::Rbf { gamma } => ((-gamma * hi).exp(), (-gamma * lo).exp()),
            Kernel::Sigmoid { gamma, coef0 } => {
                ((gamma * lo + coef0).tanh(), (gamma * hi + coef0).tanh())
            }
        }
    }

    /// A reasonable default `gamma` for RBF kernels: `1 / dimension`,
    /// matching the common LIBSVM heuristic.
    pub fn default_gamma(dimension: usize) -> f64 {
        if dimension == 0 {
            1.0
        } else {
            1.0 / dimension as f64
        }
    }

    /// Bounds of `K(x, y)` as `y` ranges over the axis-aligned box
    /// `[lower, upper]` (per-dimension inclusive bounds): returns
    /// `(min, max)` such that `min <= K(x, y) <= max` for every `y` in the
    /// box.  The bounds are exact per dimension (interval arithmetic over
    /// the dot product / squared distance, pushed through the monotone or
    /// piecewise-monotone outer function), which is what lets
    /// [`crate::Svc::decision_bounds`] prove a constant decision sign over a
    /// partially measured device.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths.
    pub fn eval_bounds(&self, x: &[f64], lower: &[f64], upper: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), lower.len(), "kernel arguments must have equal length");
        assert_eq!(x.len(), upper.len(), "kernel arguments must have equal length");
        let term = if self.uses_distance() { squared_offset_bounds } else { product_bounds };
        let (mut lo, mut hi) = (0.0, 0.0);
        for ((&a, &l), &u) in x.iter().zip(lower).zip(upper) {
            let (t_lo, t_hi) = term(a, l, u);
            lo += t_lo;
            hi += t_hi;
        }
        self.finish_bounds(lo, hi)
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

/// Start value of an inner-term sum (see [`Kernel::finish`]): `-0.0`, the
/// additive identity `Iterator::sum` starts from, so a sum of `-0.0` terms
/// stays `-0.0`.
pub(crate) const INNER_START: f64 = -0.0;

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(INNER_START, |sum, (&a, &b)| sum + product(a, b))
}

fn squared_distance(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(INNER_START, |sum, (&a, &b)| sum + squared_offset(a, b))
}

/// One dot-product term `a · b`.
#[inline]
pub(crate) fn product(a: f64, b: f64) -> f64 {
    a * b
}

/// One squared-distance term `(a − b)²`.
#[inline]
pub(crate) fn squared_offset(a: f64, b: f64) -> f64 {
    let d = a - b;
    d * d
}

/// Bounds of one dot-product term `a · y` with `y ∈ [l, u]`: the term is
/// monotone in `y`, so the extremes sit at the interval endpoints.
#[inline]
pub(crate) fn product_bounds(a: f64, l: f64, u: f64) -> (f64, f64) {
    let (t1, t2) = (a * l, a * u);
    (t1.min(t2), t1.max(t2))
}

/// Bounds of one squared-distance term `(a − y)²` with `y ∈ [l, u]`: it is
/// smallest at the projection of `a` onto the interval and largest at the
/// farther endpoint.
#[inline]
pub(crate) fn squared_offset_bounds(a: f64, l: f64, u: f64) -> (f64, f64) {
    let near = (l - a).max(a - u).max(0.0);
    let (d1, d2) = (a - l, a - u);
    (near * near, (d1 * d1).max(d2 * d2))
}

/// Bounds of `s^degree` for `s ∈ [lo, hi]`: monotone for odd degrees; for
/// even degrees the minimum is 0 when the interval straddles zero.
fn powi_bounds(lo: f64, hi: f64, degree: i32) -> (f64, f64) {
    let (p_lo, p_hi) = (lo.powi(degree), hi.powi(degree));
    if degree % 2 != 0 {
        (p_lo, p_hi)
    } else if lo <= 0.0 && hi >= 0.0 {
        (0.0, p_lo.max(p_hi))
    } else {
        (p_lo.min(p_hi), p_lo.max(p_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        let k = Kernel::linear();
        assert_eq!(k.eval(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::rbf(2.0);
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 1.0).abs() < 1e-15);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn polynomial_matches_manual_expansion() {
        let k = Kernel::polynomial(1.0, 1.0, 2);
        // (x·y + 1)^2 with x·y = 2
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_is_bounded() {
        let k = Kernel::sigmoid(0.5, 0.0);
        let v = k.eval(&[10.0, 10.0], &[10.0, 10.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(Kernel::rbf(0.0).validate().is_err());
        assert!(Kernel::rbf(-1.0).validate().is_err());
        assert!(Kernel::rbf(f64::NAN).validate().is_err());
        assert!(Kernel::polynomial(1.0, 0.0, 0).validate().is_err());
        assert!(Kernel::linear().validate().is_ok());
        assert!(Kernel::rbf(0.7).validate().is_ok());
    }

    #[test]
    fn default_gamma_follows_libsvm_heuristic() {
        assert_eq!(Kernel::default_gamma(4), 0.25);
        assert_eq!(Kernel::default_gamma(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn eval_rejects_mismatched_lengths_in_all_builds() {
        // Regression guard: this used to be a debug_assert, so release
        // builds silently truncated to the shorter vector.
        Kernel::linear().eval(&[1.0, 2.0], &[1.0]);
    }

    /// `eval_bounds` encloses the kernel value for every point of the box,
    /// and collapses to the exact value on a degenerate (point) box.
    #[test]
    fn eval_bounds_enclose_every_point_of_the_box() {
        let kernels = [
            Kernel::linear(),
            Kernel::rbf(0.8),
            Kernel::polynomial(0.5, 1.0, 2),
            Kernel::polynomial(0.5, -2.0, 3),
            Kernel::sigmoid(0.4, -0.1),
        ];
        let x = [0.7, -0.3, 1.4];
        let lower = [-0.5, 0.0, 0.2];
        let upper = [0.5, 1.0, 1.6];
        for k in kernels {
            let (lo, hi) = k.eval_bounds(&x, &lower, &upper);
            assert!(lo <= hi, "{k:?}");
            // Dense sample of the box.
            for i in 0..=4 {
                for j in 0..=4 {
                    for m in 0..=4 {
                        let y = [
                            lower[0] + (upper[0] - lower[0]) * i as f64 / 4.0,
                            lower[1] + (upper[1] - lower[1]) * j as f64 / 4.0,
                            lower[2] + (upper[2] - lower[2]) * m as f64 / 4.0,
                        ];
                        let value = k.eval(&x, &y);
                        assert!(
                            lo - 1e-12 <= value && value <= hi + 1e-12,
                            "{k:?}: {value} outside [{lo}, {hi}] at {y:?}"
                        );
                    }
                }
            }
            let point = [0.1, 0.5, 0.9];
            let (p_lo, p_hi) = k.eval_bounds(&x, &point, &point);
            let exact = k.eval(&x, &point);
            assert!((p_lo - exact).abs() < 1e-12 && (p_hi - exact).abs() < 1e-12, "{k:?}");
        }
    }

    #[test]
    fn kernels_are_symmetric() {
        let kernels = [
            Kernel::linear(),
            Kernel::rbf(0.3),
            Kernel::polynomial(0.5, 1.0, 3),
            Kernel::sigmoid(0.2, 0.1),
        ];
        let x = [0.3, -1.2, 2.5];
        let y = [1.1, 0.4, -0.9];
        for k in kernels {
            assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-12, "{k:?} not symmetric");
        }
    }
}
