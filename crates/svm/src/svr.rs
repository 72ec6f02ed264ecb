//! ε-support-vector regression.
//!
//! The paper argues (Section 4.1) that pass/fail prediction should be treated
//! as a *classification* problem rather than the regression formulation used
//! by earlier alternate-test work, because classification only needs training
//! coverage near the class boundary.  This module provides the regression
//! counterpart so the comparison can be reproduced (ablation A,
//! `stc_bench::experiments::ablation_classification_vs_regression`).

use std::cell::RefCell;

use crate::engine::{KernelEngine, KernelPath};
use crate::smo::{self, QMatrix, SmoParams, SmoProblem};
use crate::{Dataset, Kernel, Result, SvmError};

/// Hyper-parameters for [`Svr::train`].
///
/// # Example
///
/// ```
/// use stc_svm::{Kernel, SvrParams};
///
/// let params = SvrParams::new()
///     .with_c(10.0)
///     .with_epsilon(0.05)
///     .with_kernel(Kernel::rbf(1.0));
/// assert_eq!(params.epsilon(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrParams {
    c: f64,
    epsilon: f64,
    kernel: Kernel,
    tolerance: f64,
    max_iterations: usize,
}

impl SvrParams {
    /// Default parameters: `C = 1`, `epsilon = 0.1`, RBF kernel.
    pub fn new() -> Self {
        SvrParams {
            c: 1.0,
            epsilon: 0.1,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_iterations: 200_000,
        }
    }

    /// Sets the penalty `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the width of the ε-insensitive tube.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the SMO stopping tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the SMO iteration budget.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// The penalty `C`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The ε-tube half-width.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "C", value: self.c });
        }
        if !(self.epsilon >= 0.0 && self.epsilon.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "epsilon", value: self.epsilon });
        }
        self.kernel.validate()
    }
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams::new()
    }
}

/// `Q` matrix for the expanded 2l-variable SVR dual.
///
/// Variables `0..l` correspond to `alpha` (sign +1), variables `l..2l` to
/// `alpha*` (sign -1); `Q[s][t] = sign_s * sign_t * K(s mod l, t mod l)`.
struct SvrQ<'a> {
    engine: KernelEngine<'a>,
    /// Number of training instances `l` (the expanded dual has `2l` rows).
    samples: usize,
    diag: Vec<f64>,
    /// Reusable base-kernel row of length `l`, expanded into `out` per call.
    scratch: RefCell<Vec<f64>>,
}

impl<'a> SvrQ<'a> {
    fn new(data: &'a Dataset, kernel: Kernel) -> Self {
        let engine = KernelEngine::new(data, kernel, KernelPath::Blocked);
        let l = data.len();
        let mut diag = vec![0.0; 2 * l];
        for i in 0..l {
            let k = engine.diag(i);
            diag[i] = k;
            diag[i + l] = k;
        }
        SvrQ { engine, samples: l, diag, scratch: RefCell::new(vec![0.0; l]) }
    }

    fn sign(&self, t: usize) -> f64 {
        if t < self.samples {
            1.0
        } else {
            -1.0
        }
    }

    fn base(&self, t: usize) -> usize {
        t % self.samples
    }
}

impl QMatrix for SvrQ<'_> {
    fn len(&self) -> usize {
        2 * self.samples
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        // One engine row over the l base instances serves both dual halves.
        let mut scratch = self.scratch.borrow_mut();
        self.engine.kernel_row(self.base(i), &mut scratch);
        let si = self.sign(i);
        let (alpha_half, alpha_star_half) = out[..2 * self.samples].split_at_mut(self.samples);
        for ((cell, starred), &k) in
            alpha_half.iter_mut().zip(alpha_star_half.iter_mut()).zip(scratch.iter())
        {
            *cell = si * k;
            *starred = -si * k;
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }
}

/// A trained ε-support-vector regressor.
///
/// The prediction is `f(x) = Σ_i beta_i K(x_i, x) + b` where
/// `beta_i = alpha_i - alpha*_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Svr {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>,
    bias: f64,
    dimension: usize,
    /// SMO iterations spent training this model.
    iterations: usize,
}

impl Svr {
    /// Trains a regressor.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty, the hyper-parameters are
    /// invalid, or the SMO solver fails to converge.
    pub fn train(data: &Dataset, params: &SvrParams) -> Result<Self> {
        params.validate()?;
        if data.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        let l = data.len();
        let mut y = vec![1.0; 2 * l];
        let mut p = vec![0.0; 2 * l];
        for i in 0..l {
            let target = data.label(i);
            p[i] = params.epsilon - target;
            p[i + l] = params.epsilon + target;
            y[i + l] = -1.0;
        }
        let upper_bound = vec![params.c; 2 * l];
        let problem = SmoProblem { y, p, upper_bound, initial_alpha: vec![0.0; 2 * l] };
        let q = SvrQ::new(data, params.kernel);
        let smo_params = SmoParams {
            tolerance: params.tolerance,
            max_iterations: params.max_iterations,
            ..SmoParams::default()
        };
        let solution = smo::solve(&q, &problem, &smo_params)?;

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..l {
            let beta = solution.alpha[i] - solution.alpha[i + l];
            if beta.abs() > 1e-12 {
                support_vectors.push(data.features(i));
                coefficients.push(beta);
            }
        }
        Ok(Svr {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            bias: -solution.rho,
            dimension: data.dimension(),
            iterations: solution.iterations,
        })
    }

    /// Predicted target value for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svr::dimension`] entries.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension, "feature vector has wrong dimension");
        let mut sum = self.bias;
        for (sv, &coef) in self.support_vectors.iter().zip(self.coefficients.iter()) {
            sum += coef * self.kernel.eval(sv, x);
        }
        sum
    }

    /// Number of support vectors.
    pub fn support_vector_count(&self) -> usize {
        self.support_vectors.len()
    }

    /// Expected input dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// SMO iterations the solver spent training this model.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> Dataset {
        // y = 2x + 1 on [0, 1]
        let mut d = Dataset::new(1).unwrap();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            d.push(vec![x], 2.0 * x + 1.0).unwrap();
        }
        d
    }

    /// Root-mean-square prediction error of `model` over `data`.
    fn rmse(model: &Svr, data: &Dataset) -> f64 {
        let sum: f64 = (0..data.len())
            .map(|i| {
                let e = model.predict(&data.features(i)) - data.label(i);
                e * e
            })
            .sum();
        (sum / data.len() as f64).sqrt()
    }

    #[test]
    fn fits_a_line_with_an_rbf_kernel() {
        let data = linear_data();
        let params =
            SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::rbf(1.0));
        let model = Svr::train(&data, &params).unwrap();
        assert!(rmse(&model, &data) < 0.05, "rmse {}", rmse(&model, &data));
        assert!((model.predict(&[0.5]) - 2.0).abs() < 0.1);
    }

    #[test]
    fn fits_a_smooth_nonlinear_function_with_rbf() {
        let mut d = Dataset::new(1).unwrap();
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            d.push(vec![x], (2.0 * std::f64::consts::PI * x).sin()).unwrap();
        }
        let params =
            SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::rbf(10.0));
        let model = Svr::train(&d, &params).unwrap();
        assert!(rmse(&model, &d) < 0.1, "rmse {}", rmse(&model, &d));
    }

    #[test]
    fn epsilon_tube_controls_sparsity() {
        let data = linear_data();
        let tight = Svr::train(
            &data,
            &SvrParams::new().with_c(10.0).with_epsilon(0.001).with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        let loose = Svr::train(
            &data,
            &SvrParams::new().with_c(10.0).with_epsilon(0.5).with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        // A wider tube tolerates more error and needs at most as many SVs.
        assert!(loose.support_vector_count() <= tight.support_vector_count());
    }

    #[test]
    fn rejects_invalid_parameters_and_empty_data() {
        let data = linear_data();
        assert!(Svr::train(&data, &SvrParams::new().with_c(0.0)).is_err());
        assert!(Svr::train(&data, &SvrParams::new().with_epsilon(-1.0)).is_err());
        let empty = Dataset::new(1).unwrap();
        assert!(matches!(Svr::train(&empty, &SvrParams::new()), Err(SvmError::EmptyDataset)));
    }
}
