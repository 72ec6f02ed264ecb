//! The RBF kernel the compaction flow trains with.

use serde::{Deserialize, Serialize};

use crate::{Result, SvmError};

/// The Gaussian radial-basis-function kernel
/// `K(x, y) = exp(-gamma * ||x - y||^2)` used by [`crate::Svc`] and
/// [`crate::Svr`].
///
/// The paper's test-compaction flow uses an RBF kernel: the decision
/// boundary of a mixed analog/MEMS acceptance region is curved (see its
/// Figure 3).  `Rbf` is the only variant; a document naming another kernel
/// fails to decode.
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
    /// `K(x, y) = exp(-gamma * ||x - y||^2)`
    Rbf {
        /// Width parameter; larger values make the kernel more local.
        gamma: f64,
    },
}

impl Kernel {
    /// Gaussian radial-basis-function kernel with the given `gamma`.
    pub fn rbf(gamma: f64) -> Self {
        Kernel::Rbf { gamma }
    }

    /// Validates the kernel hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::InvalidParameter`] when `gamma` is not strictly
    /// positive and finite.
    pub fn validate(&self) -> Result<()> {
        let Kernel::Rbf { gamma } = *self;
        if gamma > 0.0 && gamma.is_finite() {
            Ok(())
        } else {
            Err(SvmError::InvalidParameter { name: "gamma", value: gamma })
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
        self.finish(squared_distance(x, y))
    }

    /// `K(x, y)` from the squared distance `‖x − y‖²`.
    pub(crate) fn finish(&self, distance: f64) -> f64 {
        let Kernel::Rbf { gamma } = *self;
        (-gamma * distance).exp()
    }

    /// Bounds of `K` from bounds `[lo, hi]` of the squared distance: the
    /// kernel falls as the distance grows.
    pub(crate) fn finish_bounds(&self, lo: f64, hi: f64) -> (f64, f64) {
        let Kernel::Rbf { gamma } = *self;
        ((-gamma * hi).exp(), (-gamma * lo).exp())
    }

    /// Bounds of `K(x, y)` as `y` ranges over the axis-aligned box
    /// `[lower, upper]` (per-dimension inclusive bounds): returns
    /// `(min, max)` such that `min <= K(x, y) <= max` for every `y` in the
    /// box.  The bounds are exact per dimension (interval arithmetic over
    /// the squared distance, pushed through the monotone outer function),
    /// which is what lets [`crate::Svc::decision_bounds`] prove a constant
    /// decision sign over a partially measured device.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths.
    pub fn eval_bounds(&self, x: &[f64], lower: &[f64], upper: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), lower.len(), "kernel arguments must have equal length");
        assert_eq!(x.len(), upper.len(), "kernel arguments must have equal length");
        let (mut lo, mut hi) = (0.0, 0.0);
        for ((&a, &l), &u) in x.iter().zip(lower).zip(upper) {
            let (t_lo, t_hi) = squared_offset_bounds(a, l, u);
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

/// Start value of a squared-distance sum (see [`Kernel::finish`]): `-0.0`,
/// the additive identity `Iterator::sum` starts from, so a sum of `-0.0`
/// terms stays `-0.0`.
pub(crate) const INNER_START: f64 = -0.0;

fn squared_distance(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(INNER_START, |sum, (&a, &b)| sum + squared_offset(a, b))
}

/// One squared-distance term `(a − b)²`.
#[inline]
pub(crate) fn squared_offset(a: f64, b: f64) -> f64 {
    let d = a - b;
    d * d
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn validate_rejects_bad_parameters() {
        assert!(Kernel::rbf(0.0).validate().is_err());
        assert!(Kernel::rbf(-1.0).validate().is_err());
        assert!(Kernel::rbf(f64::NAN).validate().is_err());
        assert!(Kernel::rbf(f64::INFINITY).validate().is_err());
        assert!(Kernel::rbf(0.7).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn eval_rejects_mismatched_lengths_in_all_builds() {
        // Regression guard: this used to be a debug_assert, so release
        // builds silently truncated to the shorter vector.
        Kernel::rbf(1.0).eval(&[1.0, 2.0], &[1.0]);
    }

    /// `eval_bounds` encloses the kernel value for every point of the box,
    /// and collapses to the exact value on a degenerate (point) box.
    #[test]
    fn eval_bounds_enclose_every_point_of_the_box() {
        let kernels = [Kernel::rbf(0.05), Kernel::rbf(0.8), Kernel::rbf(3.0)];
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
        let kernels = [Kernel::rbf(0.05), Kernel::rbf(0.3), Kernel::rbf(2.5)];
        let x = [0.3, -1.2, 2.5];
        let y = [1.1, 0.4, -0.9];
        for k in kernels {
            assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-12, "{k:?} not symmetric");
        }
    }
}
