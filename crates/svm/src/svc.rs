//! Soft-margin support-vector classification (C-SVC).

use serde::{Deserialize, Serialize};

use crate::engine::{DotRowBank, EngineUsage, KernelEngine, KernelPath};
use crate::kernel::{squared_offset, squared_offset_bounds, INNER_START};
use crate::smo::{self, QMatrix, SmoParams, SmoProblem};
use crate::{Dataset, Kernel, Result, SvmError};

/// Support vectors scored together per feature sweep of
/// [`Svc::decision_function`] and [`Svc::decision_bounds`].  Their inner
/// terms live in fixed-size stack buffers, so a decision never allocates.
const SV_BLOCK: usize = 64;

/// Hyper-parameters for [`Svc::train`].
///
/// # Example
///
/// ```
/// use stc_svm::{Kernel, SvcParams};
///
/// let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(0.5));
/// assert_eq!(params.c(), 10.0);
/// ```
///
/// The SMO solver stops at the LIBSVM tolerance of `1e-3` on the maximal
/// KKT violation and reports [`SvmError::NotConverged`] after 200,000
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvcParams {
    c: f64,
    kernel: Kernel,
    kernel_path: KernelPath,
}

impl SvcParams {
    /// Default parameters: `C = 1`, RBF kernel with `gamma = 1`.
    pub fn new() -> Self {
        SvcParams { c: 1.0, kernel: Kernel::default(), kernel_path: KernelPath::default() }
    }

    /// Sets the soft-margin penalty `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The soft-margin penalty.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the kernel row-assembly implementation (see [`KernelPath`]).
    pub fn with_kernel_path(mut self, kernel_path: KernelPath) -> Self {
        self.kernel_path = kernel_path;
        self
    }

    /// The configured kernel row-assembly implementation.
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel_path
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "C", value: self.c });
        }
        self.kernel.validate()
    }
}

impl Default for SvcParams {
    fn default() -> Self {
        SvcParams::new()
    }
}

/// `Q` matrix for classification: `Q[i][j] = y_i y_j K(x_i, x_j)`.
///
/// Kernel rows come from the [`KernelEngine`]; the label products multiply
/// exact `±1` factors on top, so the engine's numerical contract carries
/// through to `Q` unchanged.
struct SvcQ<'a> {
    engine: KernelEngine<'a>,
    labels: &'a [f64],
    diag: Vec<f64>,
}

impl<'a> SvcQ<'a> {
    fn new(data: &'a Dataset, kernel: Kernel, path: KernelPath, bank: Option<&DotRowBank>) -> Self {
        let engine = KernelEngine::with_bank(data, kernel, path, bank);
        let diag = (0..data.len()).map(|i| engine.diag(i)).collect();
        SvcQ { engine, labels: data.labels(), diag }
    }

    fn usage(&self) -> EngineUsage {
        self.engine.usage()
    }

    fn into_bank(self) -> DotRowBank {
        self.engine.into_bank()
    }
}

impl QMatrix for SvcQ<'_> {
    fn len(&self) -> usize {
        self.engine.len()
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        self.engine.kernel_row(i, out);
        let yi = self.labels[i];
        for (cell, &yj) in out.iter_mut().zip(self.labels) {
            *cell *= yi * yj;
        }
    }

    fn rows(&self, indices: &[usize], out: &mut [&mut [f64]]) {
        self.engine.kernel_rows(indices, out);
        for (row, &i) in out.iter_mut().zip(indices) {
            let yi = self.labels[i];
            for (cell, &yj) in row.iter_mut().zip(self.labels) {
                *cell *= yi * yj;
            }
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }
}

/// A trained support-vector classifier.
///
/// The decision function is `f(x) = Σ_i a_i y_i K(x_i, x) - rho`; prediction
/// is `sign(f(x))` with ties broken toward the positive class.
///
/// Support vectors are stored column-major, one lane per feature, so the
/// decision functions accumulate every support vector's inner term one
/// contiguous feature lane at a time.
///
/// Decoding checks the layout: a document whose `support_lanes` do not hold
/// `dimension` values per coefficient, or whose `support_indices` do not
/// hold one index per coefficient, is a decode error, never a model that
/// panics or ignores values when it scores a device.  A document whose
/// kernel is not [`Kernel::Rbf`], or whose `bias_shift` (a field documents
/// written before 0.22 carry, zero for every trained model) is not zero, is a
/// decode error too.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Svc {
    kernel: Kernel,
    /// Feature `f` of support vector `k` sits at `f * count + k`, where
    /// `count` is the number of support vectors.
    support_lanes: Vec<f64>,
    coefficients: Vec<f64>,
    /// Training-instance index of each support vector, enabling warm starts
    /// of related problems over the same training population.
    support_indices: Vec<usize>,
    rho: f64,
    dimension: usize,
    /// SMO iterations spent training this model.
    iterations: usize,
}

impl<'de> Deserialize<'de> for Svc {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            kernel: Kernel,
            support_lanes: Vec<f64>,
            coefficients: Vec<f64>,
            support_indices: Vec<usize>,
            rho: f64,
            dimension: usize,
            #[serde(default)]
            bias_shift: f64,
            iterations: usize,
        }
        let Wire {
            kernel,
            support_lanes,
            coefficients,
            support_indices,
            rho,
            dimension,
            bias_shift,
            iterations,
        } = Wire::deserialize(deserializer)?;
        if bias_shift != 0.0 {
            return Err(serde::de::Error::custom(format!(
                "svc has bias_shift {bias_shift}; only 0 is supported"
            )));
        }
        let count = coefficients.len();
        if support_indices.len() != count {
            return Err(serde::de::Error::custom(format!(
                "svc has {count} coefficients but {} support indices",
                support_indices.len()
            )));
        }
        if dimension.checked_mul(count) != Some(support_lanes.len()) {
            return Err(serde::de::Error::custom(format!(
                "svc has {} support-lane values, but {count} support vectors of dimension \
                 {dimension}",
                support_lanes.len()
            )));
        }
        Ok(Svc { kernel, support_lanes, coefficients, support_indices, rho, dimension, iterations })
    }
}

impl Svc {
    /// Trains a classifier on `data` (labels must be `+1`/`-1`).
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty or single-class, when a
    /// label is not `±1`, when hyper-parameters are invalid, or when the SMO
    /// solver fails to converge.
    pub fn train(data: &Dataset, params: &SvcParams) -> Result<Self> {
        Svc::train_warm(data, params, None)
    }

    /// [`Svc::train`] with an optional warm start from a model trained on
    /// the *same training instances* (typically over an overlapping feature
    /// subset, as in the greedy test-compaction loop where consecutive
    /// candidate kept sets differ by one measurement column).
    ///
    /// The warm model's support-vector alphas are mapped by training-instance
    /// index onto this problem, clipped to the feasible box, the equality
    /// constraint is repaired, and SMO solves from that point.  Warm starts
    /// only change the solver trajectory: the returned model satisfies
    /// exactly the same KKT stopping tolerance as a cold start.  A warm
    /// model that does not match the dataset (more instances than `data`
    /// has) is ignored and training falls back to a cold start.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Svc::train`].
    pub fn train_warm(data: &Dataset, params: &SvcParams, warm: Option<&Svc>) -> Result<Self> {
        Svc::train_with_bank(data, params, warm, None).map(|(model, _, _)| model)
    }

    /// [`Svc::train_warm`] that additionally threads the kernel engine's
    /// [`DotRowBank`] through training: `parent_bank` (dot rows recorded by
    /// the committed parent's training, if any) seeds this problem's kernel
    /// rows incrementally, and the returned bank holds the rows *this*
    /// training touched, ready for the next candidate generation.
    ///
    /// The bank is strictly an accelerator with the same contract as warm
    /// starts: an inapplicable bank (different column universe or population)
    /// is ignored, and the returned model satisfies the same stopping
    /// tolerance either way.  On [`KernelPath::Naive`] the returned bank is
    /// always empty.  The returned [`EngineUsage`] says how the parent bank
    /// fared — rows seeded versus rebuilt from scratch, and whether a
    /// supplied bank had to be ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Svc::train`].
    pub fn train_with_bank(
        data: &Dataset,
        params: &SvcParams,
        warm: Option<&Svc>,
        parent_bank: Option<&DotRowBank>,
    ) -> Result<(Self, DotRowBank, EngineUsage)> {
        params.validate()?;
        if data.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        for &label in data.labels() {
            if label != 1.0 && label != -1.0 {
                return Err(SvmError::InvalidLabel(label));
            }
        }
        let positives = data.positive_count();
        if positives == 0 || positives == data.len() {
            return Err(SvmError::SingleClass);
        }

        let n = data.len();
        let y = data.labels().to_vec();
        let upper_bound = vec![params.c; n];
        let initial_alpha = match warm {
            Some(model) => model.project_alphas(&y, &upper_bound),
            None => vec![0.0; n],
        };
        let problem = SmoProblem { y: y.clone(), p: vec![-1.0; n], upper_bound, initial_alpha };
        let q = SvcQ::new(data, params.kernel, params.kernel_path, parent_bank);
        let solution = smo::solve(&q, &problem, &SmoParams::default())?;

        let mut coefficients = Vec::new();
        let mut support_indices = Vec::new();
        for (i, (&alpha, &label)) in solution.alpha.iter().zip(y.iter()).enumerate() {
            if alpha > 1e-12 {
                coefficients.push(alpha * label);
                support_indices.push(i);
            }
        }
        let support_lanes = data
            .shared_columns()
            .iter()
            .flat_map(|column| support_indices.iter().map(|&i| column[i]))
            .collect();
        let model = Svc {
            kernel: params.kernel,
            support_lanes,
            coefficients,
            support_indices,
            rho: solution.rho,
            dimension: data.dimension(),
            iterations: solution.iterations,
        };
        let usage = q.usage();
        Ok((model, q.into_bank(), usage))
    }

    /// Projects this model's dual variables onto a related problem over the
    /// same training instances: alphas land on the instance that produced
    /// them, are clipped to the new box, and the equality constraint is
    /// repaired.  Returns the zero vector (a plain cold start) when the
    /// model does not line up with the new problem.
    fn project_alphas(&self, y: &[f64], upper_bound: &[f64]) -> Vec<f64> {
        let n = y.len();
        let mut alpha = vec![0.0; n];
        for (&index, &coefficient) in self.support_indices.iter().zip(self.coefficients.iter()) {
            if index >= n {
                // Trained on a different (larger) population: cold start.
                return vec![0.0; n];
            }
            // `coefficient` is `alpha_i * y_i`, so its sign is the training
            // label; skip instances whose label changed (defensive — labels
            // are independent of the kept feature columns in the compaction
            // flow, so this should not trigger there).
            if y[index] * coefficient <= 0.0 {
                continue;
            }
            alpha[index] = coefficient.abs().min(upper_bound[index]);
        }
        smo::repair_equality_constraint(&mut alpha, y);
        alpha
    }

    /// Feature `feature` of every support vector, in support-vector order.
    fn lane(&self, feature: usize) -> &[f64] {
        let count = self.coefficients.len();
        &self.support_lanes[feature * count..(feature + 1) * count]
    }

    /// Signed distance-like score of `x`; positive means the positive class.
    ///
    /// Bit-identical to summing `coefficient · K(sv, x)` with
    /// [`Kernel::eval`] in support-vector order: each support vector's
    /// inner term still accumulates its features in ascending order from
    /// the same start value, only the support vectors of a block advance
    /// together.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svc::dimension`] entries.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension, "feature vector has wrong dimension");
        let mut block = [0.0; SV_BLOCK];
        let mut sum = 0.0;
        for (start, coefficients) in (0..).step_by(SV_BLOCK).zip(self.coefficients.chunks(SV_BLOCK))
        {
            let inner = &mut block[..coefficients.len()];
            inner.fill(INNER_START);
            for (feature, &value) in x.iter().enumerate() {
                let lane = &self.lane(feature)[start..start + inner.len()];
                for (acc, &sv) in inner.iter_mut().zip(lane) {
                    *acc += squared_offset(sv, value);
                }
            }
            for (&coef, &term) in coefficients.iter().zip(inner.iter()) {
                sum += coef * self.kernel.finish(term);
            }
        }
        sum - self.rho
    }

    /// Bounds of the decision function over the axis-aligned box
    /// `[lower, upper]`: returns `(min, max)` with
    /// `min <= f(y) <= max` for every `y` in the box, built from the
    /// per-support-vector kernel bounds ([`Kernel::eval_bounds`], to the
    /// bit) weighted by the sign of each coefficient.
    ///
    /// A strictly positive `min` proves every point of the box is
    /// classified positive; a strictly negative `max` proves every point
    /// negative — the capability behind the sequential tester's early
    /// exits.
    ///
    /// # Panics
    ///
    /// Panics if the bounds do not have [`Svc::dimension`] entries.
    pub fn decision_bounds(&self, lower: &[f64], upper: &[f64]) -> (f64, f64) {
        assert_eq!(lower.len(), self.dimension, "lower bound has wrong dimension");
        assert_eq!(upper.len(), self.dimension, "upper bound has wrong dimension");
        let mut block_lo = [0.0; SV_BLOCK];
        let mut block_hi = [0.0; SV_BLOCK];
        let mut min = 0.0;
        let mut max = 0.0;
        for (start, coefficients) in (0..).step_by(SV_BLOCK).zip(self.coefficients.chunks(SV_BLOCK))
        {
            let inner_lo = &mut block_lo[..coefficients.len()];
            let inner_hi = &mut block_hi[..coefficients.len()];
            inner_lo.fill(0.0);
            inner_hi.fill(0.0);
            for (feature, (&l, &u)) in lower.iter().zip(upper).enumerate() {
                let lane = &self.lane(feature)[start..start + inner_lo.len()];
                for ((lo, hi), &sv) in inner_lo.iter_mut().zip(inner_hi.iter_mut()).zip(lane) {
                    let (t_lo, t_hi) = squared_offset_bounds(sv, l, u);
                    *lo += t_lo;
                    *hi += t_hi;
                }
            }
            for ((&coef, &lo), &hi) in coefficients.iter().zip(inner_lo.iter()).zip(inner_hi.iter())
            {
                let (k_lo, k_hi) = self.kernel.finish_bounds(lo, hi);
                if coef >= 0.0 {
                    min += coef * k_lo;
                    max += coef * k_hi;
                } else {
                    min += coef * k_hi;
                    max += coef * k_lo;
                }
            }
        }
        (min - self.rho, max - self.rho)
    }

    /// Predicted class label (`+1.0` or `-1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svc::dimension`] entries.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision_function(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of support vectors retained by training.
    pub fn support_vector_count(&self) -> usize {
        self.coefficients.len()
    }

    /// Expected input dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Offset `rho` of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// SMO iterations the solver spent training this model (a warm start
    /// typically needs a small fraction of the cold-start count).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Training-instance indices of the support vectors, aligned with the
    /// coefficient order.
    pub fn support_indices(&self) -> &[usize] {
        &self.support_indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        for i in 0..n {
            let x = i as f64 / n as f64;
            d.push(vec![x, x + 0.5], 1.0).unwrap();
            d.push(vec![x, x - 0.5], -1.0).unwrap();
        }
        d
    }

    /// XOR-like data that a linear kernel cannot separate but RBF can.
    fn xor_data() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        let centers =
            [([0.0, 0.0], 1.0), ([1.0, 1.0], 1.0), ([0.0, 1.0], -1.0), ([1.0, 0.0], -1.0)];
        for (c, label) in centers {
            for di in 0..5 {
                for dj in 0..5 {
                    let x = c[0] + 0.02 * di as f64;
                    let y = c[1] + 0.02 * dj as f64;
                    d.push(vec![x, y], label).unwrap();
                }
            }
        }
        d
    }

    /// Fraction of the samples of `data` that `model` labels correctly.
    fn accuracy(model: &Svc, data: &Dataset) -> f64 {
        let correct =
            (0..data.len()).filter(|&i| model.predict(&data.features(i)) == data.label(i)).count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn separable_data_is_classified_perfectly() {
        let data = linearly_separable(30);
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(1.0));
        let model = Svc::train(&data, &params).unwrap();
        assert_eq!(accuracy(&model, &data), 1.0);
        assert_eq!(model.predict(&[0.5, 1.0]), 1.0);
        assert_eq!(model.predict(&[0.5, 0.0]), -1.0);
    }

    #[test]
    fn rbf_solves_xor() {
        let data = xor_data();
        let params = SvcParams::new().with_c(50.0).with_kernel(Kernel::rbf(4.0));
        let model = Svc::train(&data, &params).unwrap();
        assert!(accuracy(&model, &data) > 0.98, "accuracy {}", accuracy(&model, &data));
        assert_eq!(model.predict(&[0.02, 0.02]), 1.0);
        assert_eq!(model.predict(&[0.98, 0.05]), -1.0);
    }

    #[test]
    fn training_rejects_bad_inputs() {
        let empty = Dataset::new(2).unwrap();
        let params = SvcParams::new();
        assert!(matches!(Svc::train(&empty, &params), Err(SvmError::EmptyDataset)));

        let mut single = Dataset::new(1).unwrap();
        single.push(vec![1.0], 1.0).unwrap();
        single.push(vec![2.0], 1.0).unwrap();
        assert!(matches!(Svc::train(&single, &params), Err(SvmError::SingleClass)));

        let mut bad_label = Dataset::new(1).unwrap();
        bad_label.push(vec![1.0], 2.0).unwrap();
        bad_label.push(vec![2.0], -1.0).unwrap();
        assert!(matches!(Svc::train(&bad_label, &params), Err(SvmError::InvalidLabel(_))));

        let data = linearly_separable(5);
        assert!(Svc::train(&data, &SvcParams::new().with_c(-1.0)).is_err());
        assert!(Svc::train(&data, &SvcParams::new().with_kernel(Kernel::rbf(0.0))).is_err());
    }

    #[test]
    fn model_exposes_metadata() {
        let data = linearly_separable(10);
        let params = SvcParams::new().with_c(2.0).with_kernel(Kernel::rbf(1.0));
        let model = Svc::train(&data, &params).unwrap();
        assert_eq!(model.dimension(), 2);
        assert!(model.support_vector_count() > 0);
        assert_eq!(model.support_indices().len(), model.support_vector_count());
        assert!(model.support_indices().iter().all(|&i| i < data.len()));
        assert_eq!(model.kernel(), Kernel::rbf(1.0));
        assert!(model.rho().is_finite());
        assert!(model.iterations() > 0);
    }

    /// Warm-starting from a model of the *same* problem converges without
    /// iterating and reproduces the model.
    #[test]
    fn warm_start_from_itself_is_free() {
        let data = xor_data();
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let cold = Svc::train(&data, &params).unwrap();
        let warm = Svc::train_warm(&data, &params, Some(&cold)).unwrap();
        assert!(
            warm.iterations() <= cold.iterations() / 4,
            "warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
        for i in 0..data.len() {
            let x = data.features(i);
            assert_eq!(warm.predict(&x), cold.predict(&x));
        }
    }

    /// Warm-starting across an overlapping feature subset (the compaction
    /// loop's case: same instances, one column dropped) converges to the
    /// same decisions as the cold start of the smaller problem.
    #[test]
    fn warm_start_across_a_dropped_column_matches_cold_training() {
        let data = xor_data();
        // The one-column projection of the XOR data: labels stay mixed, and
        // the instances line up index-for-index with the 2-D parent.
        let narrow = data.select_columns(&[0]).unwrap();
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let parent = Svc::train(&data, &params).unwrap();
        let cold = Svc::train(&narrow, &params).unwrap();
        let warm = Svc::train_warm(&narrow, &params, Some(&parent)).unwrap();
        assert_eq!(warm.dimension(), 1);
        // Both satisfy the same KKT tolerance; on this well-separated data
        // their decisions agree everywhere.
        for i in 0..narrow.len() {
            let x = narrow.features(i);
            assert_eq!(warm.predict(&x), cold.predict(&x));
        }
    }

    /// Deterministic splitmix64 stream mapped to `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// The decision function as a plain per-support-vector sum of
    /// [`Kernel::eval`] terms, in support-vector order.
    fn reference_decision(model: &Svc, data: &Dataset, x: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&i, &coef) in model.support_indices.iter().zip(&model.coefficients) {
            sum += coef * model.kernel.eval(&data.features(i), x);
        }
        sum - model.rho
    }

    /// The decision bounds as a plain per-support-vector sum of
    /// [`Kernel::eval_bounds`] terms, in support-vector order.
    fn reference_bounds(model: &Svc, data: &Dataset, lower: &[f64], upper: &[f64]) -> (f64, f64) {
        let (mut min, mut max) = (0.0, 0.0);
        for (&i, &coef) in model.support_indices.iter().zip(&model.coefficients) {
            let (k_lo, k_hi) = model.kernel.eval_bounds(&data.features(i), lower, upper);
            if coef >= 0.0 {
                min += coef * k_lo;
                max += coef * k_hi;
            } else {
                min += coef * k_hi;
                max += coef * k_lo;
            }
        }
        (min - model.rho, max - model.rho)
    }

    /// `decision_function` and `decision_bounds` equal, to the bit, the
    /// per-support-vector sums of `Kernel::eval` and `Kernel::eval_bounds`
    /// at several kernel widths, over random models (some with more support
    /// vectors than two blocks), points and boxes.
    #[test]
    fn decisions_equal_the_per_support_vector_kernel_sums_bit_for_bit() {
        let kernels = [
            Kernel::rbf(0.05),
            Kernel::rbf(0.4),
            Kernel::rbf(1.3),
            Kernel::rbf(4.0),
            Kernel::rbf(12.0),
        ];
        let mut state = 2005;
        let mut largest = 0;
        for case in 0..12 {
            let dimension = 1 + case % 5;
            let samples = 40 + (uniform(&mut state) * 360.0) as usize;
            let mut data = Dataset::new(dimension).unwrap();
            for i in 0..samples {
                let x: Vec<f64> = (0..dimension).map(|_| uniform(&mut state) * 2.0 - 0.5).collect();
                // Overlapping classes keep many support vectors.
                let label = if x[0] + 0.6 * uniform(&mut state) > 0.8 { 1.0 } else { -1.0 };
                let label = if i < 2 { [1.0, -1.0][i] } else { label };
                data.push(x, label).unwrap();
            }
            for kernel in kernels {
                let params =
                    SvcParams::new().with_c(0.5 + 10.0 * uniform(&mut state)).with_kernel(kernel);
                let model = Svc::train(&data, &params).unwrap();
                largest = largest.max(model.support_vector_count());
                for _ in 0..6 {
                    let x: Vec<f64> =
                        (0..dimension).map(|_| uniform(&mut state) * 2.0 - 0.5).collect();
                    let got = model.decision_function(&x);
                    let expected = reference_decision(&model, &data, &x);
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "{kernel:?} case {case}: {got} vs {expected}"
                    );
                    let (lower, upper): (Vec<f64>, Vec<f64>) = x
                        .iter()
                        .map(|&value| {
                            let width =
                                if uniform(&mut state) < 0.3 { 0.0 } else { uniform(&mut state) };
                            (value - width, value + width * uniform(&mut state))
                        })
                        .unzip();
                    let got = model.decision_bounds(&lower, &upper);
                    let expected = reference_bounds(&model, &data, &lower, &upper);
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (expected.0.to_bits(), expected.1.to_bits()),
                        "{kernel:?} case {case}: {got:?} vs {expected:?}"
                    );
                }
            }
        }
        assert!(
            largest > 2 * 64,
            "some model must span several blocks ({largest} support vectors)"
        );
    }

    /// A warm model from an unrelated (larger) population is ignored rather
    /// than corrupting the start.
    #[test]
    fn mismatched_warm_models_fall_back_to_cold_training() {
        let big = linearly_separable(40);
        let small = linearly_separable(6);
        let params = SvcParams::new().with_c(5.0).with_kernel(Kernel::rbf(1.0));
        let parent = Svc::train(&big, &params).unwrap();
        assert!(parent.support_indices().iter().any(|&i| i >= small.len()));
        let cold = Svc::train(&small, &params).unwrap();
        let warm = Svc::train_warm(&small, &params, Some(&parent)).unwrap();
        assert_eq!(warm.iterations(), cold.iterations());
        assert_eq!(warm, cold);
    }
}
