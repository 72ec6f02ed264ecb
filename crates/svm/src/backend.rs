//! The ε-SVM classifier backend for the compaction pipeline.
//!
//! `stc-core` defines the [`ClassifierFactory`]/[`Classifier`] seam; this
//! module plugs the SMO-trained [`Svc`] into it, making the paper's model
//! family one backend among several (the grid model of
//! `stc_core::classifier::GridBackend` is another).

use std::sync::Arc;

use stc_core::classifier::{
    BankStats, Classifier, ClassifierFactory, TrainingView, WarmStartContext,
};
use stc_core::CompactionError;

use crate::engine::{DotRowBank, EngineUsage};
use crate::{Dataset, Kernel, Svc, SvcParams, SvmError};

impl From<SvmError> for CompactionError {
    fn from(error: SvmError) -> Self {
        CompactionError::Classifier { backend: "svm".to_string(), message: error.to_string() }
    }
}

/// The SMO-trained ε-SVM backend (the classifier family of the paper).
///
/// # Example
///
/// ```
/// use stc_core::pipeline::CompactionPipeline;
/// use stc_core::{MonteCarloConfig, SyntheticDevice};
/// use stc_svm::SvmBackend;
///
/// # fn main() -> Result<(), stc_core::CompactionError> {
/// let device = SyntheticDevice::new(4, 1.8, 0.9);
/// let report = CompactionPipeline::for_device(&device)
///     .monte_carlo(MonteCarloConfig::new(300).with_seed(7))
///     .classifier(SvmBackend::paper_default())
///     .run()?;
/// assert_eq!(report.backend, "svm");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvmBackend {
    params: SvcParams,
}

impl SvmBackend {
    /// A backend with explicit SVC hyper-parameters.
    pub fn new(params: SvcParams) -> Self {
        SvmBackend { params }
    }

    /// The paper's settings: `C = 10`, RBF kernel with `gamma = 1`.
    pub fn paper_default() -> Self {
        SvmBackend::new(SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(1.0)))
    }

    /// The SVC hyper-parameters this backend trains with.
    pub fn params(&self) -> &SvcParams {
        &self.params
    }
}

impl Default for SvmBackend {
    fn default() -> Self {
        SvmBackend::paper_default()
    }
}

impl ClassifierFactory for SvmBackend {
    fn name(&self) -> &str {
        "svm"
    }

    fn train(&self, view: &TrainingView<'_>) -> stc_core::Result<Arc<dyn Classifier>> {
        self.train_warm(view, None)
    }

    /// Trains the ε-SVM, warm-starting the SMO solver from the hinted
    /// model's support-vector alphas when the hint is a model this backend
    /// trained over the same training population (see [`Svc::train_warm`]).
    /// Any other hint — a foreign backend's model, a population mismatch,
    /// or a kept set sharing no column with this view's (a start from a
    /// fully disjoint feature space carries no useful geometry) — silently
    /// falls back to a cold start; the returned model always meets the
    /// cold-start KKT tolerance.
    ///
    /// The same hint also carries the parent training's [`DotRowBank`]: the
    /// kernel engine adjusts the parent's cached dot-product rows by the one
    /// (or few) differing feature columns instead of recomputing them from
    /// scratch — the incremental candidate-row path of [`crate::engine`].
    /// Like the warm start itself, the bank is purely an accelerator and is
    /// ignored whenever it does not line up with this view's columns.
    fn train_warm(
        &self,
        view: &TrainingView<'_>,
        warm: Option<&WarmStartContext<'_>>,
    ) -> stc_core::Result<Arc<dyn Classifier>> {
        let dataset = dataset_from_view(view)?;
        let parent = warm
            .filter(|context| context.overlaps(view.kept()))
            .and_then(|context| context.model().as_any())
            .and_then(|any| any.downcast_ref::<SvmClassifier>());
        let warm_model = parent.map(|classifier| &classifier.model);
        let parent_bank = parent.map(|classifier| classifier.bank.as_ref());
        let (model, bank, usage) =
            Svc::train_with_bank(&dataset, &self.params, warm_model, parent_bank)?;
        Ok(Arc::new(SvmClassifier { model, bank: Arc::new(bank), usage }))
    }
}

/// Classifier wrapping a trained [`Svc`], together with the dot rows its
/// training recorded (reused when this model later warm-starts a candidate
/// child — see [`crate::engine`]).
#[derive(Debug, Clone)]
struct SvmClassifier {
    model: Svc,
    bank: Arc<DotRowBank>,
    usage: EngineUsage,
}

impl Classifier for SvmClassifier {
    fn decision(&self, features: &[f64]) -> f64 {
        self.model.decision_function(features)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn solver_iterations(&self) -> Option<usize> {
        Some(self.model.iterations())
    }

    fn bank_stats(&self) -> Option<BankStats> {
        Some(BankStats {
            seeded_rows: self.usage.seeded_rows,
            rebuilt_rows: self.usage.rebuilt_rows,
            ignored_banks: usize::from(self.usage.ignored_bank),
        })
    }

    /// Box decisions from the interval bounds of the decision function
    /// ([`Svc::decision_bounds`]): a sign proven constant over the whole box
    /// with a small numerical safety margin yields `Some`, anything else
    /// `None`.  This is what gives SVM-backed tester programs model-based
    /// early exits in the sequential deploy mode.
    fn predict_good_within(&self, lower: &[f64], upper: &[f64]) -> Option<bool> {
        /// Guards the proof against floating-point rounding in the bound
        /// accumulation: a sign this close to zero is not trusted.
        const SIGN_MARGIN: f64 = 1e-9;
        let (min, max) = self.model.decision_bounds(lower, upper);
        if min > SIGN_MARGIN {
            Some(true)
        } else if max < -SIGN_MARGIN {
            Some(false)
        } else {
            None
        }
    }
}

/// Builds an SVM [`Dataset`] from a training view: normalised kept-column
/// features with margin-adjusted `+1`/`-1` labels (the successor of the old
/// `MeasurementSet::to_svm_dataset`).
///
/// Since 0.8 this is **zero-copy end to end**: the view hands out the
/// `Arc`-shared normalized columns memoized on the underlying measurement
/// set, and the dataset adopts those allocations directly
/// ([`Dataset::from_shared_columns`]) — no per-row gathers and no per-call
/// renormalization.  Because every candidate kept set of a compaction run
/// draws from the same memoized columns, the datasets built here share
/// column allocations, which is what enables the kernel engine's
/// incremental candidate rows.
///
/// # Errors
///
/// Propagates dataset-construction errors (converted to
/// [`CompactionError::Classifier`]).
pub fn dataset_from_view(view: &TrainingView<'_>) -> stc_core::Result<Dataset> {
    let columns = view.shared_feature_columns();
    let labels = view.class_labels();
    Ok(Dataset::from_shared_columns(columns, labels)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_core::{MeasurementSet, Specification, SpecificationSet};

    fn population() -> MeasurementSet {
        let specs = SpecificationSet::new(vec![
            Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap(),
            Specification::new("b", "-", 0.0, -1.0, 1.0).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let x = -1.5 + 3.0 * (i as f64) / 119.0;
                vec![x, 0.9 * x]
            })
            .collect();
        MeasurementSet::new(specs, rows).unwrap()
    }

    #[test]
    fn svm_backend_learns_the_boundary() {
        let data = population();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let model = SvmBackend::paper_default().train(&view).unwrap();
        assert!(model.predict_good(&[0.5]));
        assert!(!model.predict_good(&[1.3]));
        assert!(!model.predict_good(&[-0.3]));
    }

    #[test]
    fn dataset_conversion_matches_the_view() {
        let data = population();
        let view = TrainingView::new(&data, &[1], 0.05).unwrap();
        let dataset = dataset_from_view(&view).unwrap();
        assert_eq!(dataset.len(), view.len());
        assert_eq!(dataset.dimension(), 1);
        for i in 0..view.len() {
            assert_eq!(dataset.features(i), view.features(i));
            assert_eq!(dataset.label(i), view.label(i).to_class());
        }
    }

    #[test]
    fn single_class_views_fail_with_a_classifier_error() {
        let specs =
            SpecificationSet::new(vec![Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap()])
                .unwrap();
        let rows = vec![vec![0.0]; 40];
        let data = MeasurementSet::new(specs, rows).unwrap();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let error = SvmBackend::paper_default().train(&view).unwrap_err();
        assert!(matches!(error, CompactionError::Classifier { .. }));
    }

    #[test]
    fn classifier_reports_solver_iterations_and_supports_downcast() {
        let data = population();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let model = SvmBackend::paper_default().train(&view).unwrap();
        assert!(model.solver_iterations().expect("svm reports iterations") > 0);
        assert!(model.as_any().is_some());
    }

    /// Warm-starting from the parent kept set's model (the compaction loop's
    /// pattern) trains fewer iterations and keeps the decisions of a cold
    /// start on this population.
    #[test]
    fn warm_start_from_the_parent_kept_set_saves_iterations() {
        let data = population();
        let backend = SvmBackend::paper_default();
        let parent_kept = [0usize, 1];
        let parent_view = TrainingView::new(&data, &parent_kept, 0.0).unwrap();
        let parent = backend.train(&parent_view).unwrap();

        let child_view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let cold = backend.train(&child_view).unwrap();
        let hint = WarmStartContext::new(parent.as_ref(), &parent_kept);
        let warm = backend.train_warm(&child_view, Some(&hint)).unwrap();
        assert!(
            warm.solver_iterations().unwrap() <= cold.solver_iterations().unwrap(),
            "warm {:?} vs cold {:?}",
            warm.solver_iterations(),
            cold.solver_iterations()
        );
        for x in [-0.4, 0.2, 0.5, 0.8, 1.3] {
            assert_eq!(warm.predict_good(&[x]), cold.predict_good(&[x]), "x = {x}");
        }
    }

    /// Box decisions are sound (they never contradict a pointwise
    /// prediction inside the box) and decisive on boxes far from the
    /// boundary.
    #[test]
    fn box_decisions_are_sound_and_decisive_off_the_boundary() {
        let data = population();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let model = SvmBackend::paper_default().train(&view).unwrap();
        // A tight box around a clearly-good point and one around a
        // clearly-bad point decide; whatever is returned must agree with
        // every sampled point inside the box.
        for (lo, hi) in [(0.4, 0.6), (1.3, 1.5), (-0.4, -0.2), (0.0, 1.0)] {
            if let Some(verdict) = model.predict_good_within(&[lo], &[hi]) {
                for i in 0..=10 {
                    let x = lo + (hi - lo) * i as f64 / 10.0;
                    assert_eq!(model.predict_good(&[x]), verdict, "x = {x} in [{lo}, {hi}]");
                }
            }
        }
        // A degenerate box collapses the bounds to the exact decision, so
        // off-boundary points always decide, with the right sign.
        assert_eq!(model.predict_good_within(&[0.5], &[0.5]), Some(true));
        assert_eq!(model.predict_good_within(&[1.4], &[1.4]), Some(false));
        // A box spanning the boundary cannot be decided.
        assert_eq!(model.predict_good_within(&[-0.5], &[1.5]), None);
    }

    /// A foreign backend's model as the warm hint must be ignored, not
    /// panicked on or misused.
    #[test]
    fn foreign_warm_hints_fall_back_to_cold_training() {
        use stc_core::classifier::GridBackend;
        let data = population();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let grid_model = GridBackend::default().train(&view).unwrap();
        let hint = WarmStartContext::new(grid_model.as_ref(), &[0]);
        let backend = SvmBackend::paper_default();
        let cold = backend.train(&view).unwrap();
        let warm = backend.train_warm(&view, Some(&hint)).unwrap();
        assert_eq!(warm.solver_iterations(), cold.solver_iterations());
    }
}
