//! Guard-banded pass/fail prediction (paper Section 4.2).
//!
//! Two classifiers are trained on the same features but with the
//! acceptability ranges perturbed in opposite directions: the *strict* model
//! is trained on labels computed with every range tightened by the guard-band
//! fraction, the *loose* model with every range widened by the same amount.
//! A device on which the two models agree is classified with high confidence;
//! a disagreement places the device in the guard-band region, where it can be
//! retested or binned according to the application's quality needs.
//!
//! The model family is pluggable: any [`ClassifierFactory`] — the ε-SVM of
//! `stc-svm`, the built-in [`GridBackend`](crate::classifier::GridBackend),
//! or a custom backend — can train the strict/loose pair.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::classifier::{Classifier, ClassifierFactory, TrainingView, WarmStartContext};
use crate::dataset::MeasurementSet;
use crate::metrics::ErrorBreakdown;
use crate::{CompactionError, Result};

/// Three-way outcome of a guard-banded prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Prediction {
    /// Both models predict the device passes the full specification set.
    Good,
    /// Both models predict the device fails.
    Bad,
    /// The two models disagree: the device lies near the decision boundary.
    GuardBand,
}

impl Prediction {
    /// The verdict of a guard-banded pair from its strict and its loose
    /// model's "passes" decisions: the rule every classification of a pair
    /// applies.
    pub(crate) fn of_pair(strict_good: bool, loose_good: bool) -> Prediction {
        match (strict_good, loose_good) {
            (true, true) => Prediction::Good,
            (false, false) => Prediction::Bad,
            _ => Prediction::GuardBand,
        }
    }
}

/// One model of a guard-banded pair.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    /// Trained on labels with every range tightened by the guard band.
    Strict,
    /// Trained on labels with every range widened by the guard band.
    Loose,
}

impl Side {
    /// Both sides, strict first.
    pub(crate) const BOTH: [Side; 2] = [Side::Strict, Side::Loose];

    /// The labelling margin this side trains on.
    fn label_margin(self, config: &GuardBandConfig) -> f64 {
        match self {
            Side::Strict => config.guard_band_fraction,
            Side::Loose => -config.guard_band_fraction,
        }
    }
}

/// Hyper-parameters of the guard-banded classifier.
///
/// A device whose *kept* measurements violate their own acceptability
/// ranges is always classified bad, whatever the models say: the tester
/// applies those tests anyway, so the information is free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardBandConfig {
    /// Guard-band half-width as a fraction of each acceptability range
    /// (the paper uses 5 % for the op-amp and the accelerometer).
    pub guard_band_fraction: f64,
}

impl GuardBandConfig {
    /// The paper's settings: a 5 % guard band.
    pub fn paper_default() -> Self {
        GuardBandConfig { guard_band_fraction: 0.05 }
    }

    /// Sets the guard-band fraction.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::InvalidConfig`] when the fraction is NaN,
    /// infinite or negative.  An in-range but too-wide fraction (≥ 0.5) is
    /// still rejected at training time, so sweeps can construct configs
    /// they never train.
    pub fn with_guard_band(mut self, fraction: f64) -> Result<Self> {
        if !(fraction >= 0.0 && fraction.is_finite()) {
            return Err(CompactionError::InvalidConfig {
                parameter: "guard_band_fraction",
                value: fraction,
            });
        }
        self.guard_band_fraction = fraction;
        Ok(self)
    }

    fn validate(&self) -> Result<()> {
        if !(self.guard_band_fraction >= 0.0 && self.guard_band_fraction < 0.5) {
            return Err(CompactionError::InvalidConfig {
                parameter: "guard_band_fraction",
                value: self.guard_band_fraction,
            });
        }
        Ok(())
    }
}

impl Default for GuardBandConfig {
    fn default() -> Self {
        GuardBandConfig::paper_default()
    }
}

/// A pair of classifiers predicting overall pass/fail from a subset of the
/// specification measurements, with a guard band between them.
#[derive(Debug, Clone)]
pub struct GuardBandedClassifier {
    kept: Vec<usize>,
    strict: Arc<dyn Classifier>,
    loose: Arc<dyn Classifier>,
    config: GuardBandConfig,
    backend: String,
}

impl GuardBandedClassifier {
    /// Trains the strict/loose model pair with an explicit classifier backend,
    /// using only the measurement columns in `kept` as features.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, data errors (for example when the
    /// training population is single-class after guard-banding) and backend
    /// training failures.
    pub fn train_with(
        backend: &dyn ClassifierFactory,
        training: &MeasurementSet,
        kept: &[usize],
        config: &GuardBandConfig,
    ) -> Result<Self> {
        GuardBandedClassifier::train_with_warm(backend, training, kept, config, None)
    }

    /// [`GuardBandedClassifier::train_with`] with an optional warm start
    /// from a pair previously trained on the *same training population* over
    /// an overlapping kept set: the parent's strict model seeds the strict
    /// training, its loose model the loose training (the two sides use
    /// different labelling margins, so they must never cross).
    ///
    /// Warm starts are an accelerator only — backends fall back to cold
    /// training when they cannot use the hint, and a warm-trained pair meets
    /// the same convergence guarantees as a cold one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuardBandedClassifier::train_with`].
    pub fn train_with_warm(
        backend: &dyn ClassifierFactory,
        training: &MeasurementSet,
        kept: &[usize],
        config: &GuardBandConfig,
        warm: Option<&GuardBandedClassifier>,
    ) -> Result<Self> {
        GuardBandedClassifier::check_training(training, kept, config)?;
        let strict =
            GuardBandedClassifier::train_side(backend, training, kept, config, Side::Strict, warm)?;
        let loose =
            GuardBandedClassifier::train_side(backend, training, kept, config, Side::Loose, warm)?;
        Ok(GuardBandedClassifier::from_sides(backend, kept, config, strict, loose))
    }

    /// The checks a pair's training makes before either side trains: a
    /// valid configuration, enough training instances, and a non-empty,
    /// in-range kept set.
    pub(crate) fn check_training(
        training: &MeasurementSet,
        kept: &[usize],
        config: &GuardBandConfig,
    ) -> Result<()> {
        config.validate()?;
        if training.len() < 10 {
            return Err(CompactionError::InsufficientData {
                reason: format!("{} training instances is too few", training.len()),
            });
        }
        TrainingView::new(training, kept, 0.0).map(|_| ())
    }

    /// Trains one side of a pair that passed
    /// [`GuardBandedClassifier::check_training`], warm-started from the same
    /// side of `warm` (the two sides use different labelling margins, so
    /// they never cross).
    pub(crate) fn train_side(
        backend: &dyn ClassifierFactory,
        training: &MeasurementSet,
        kept: &[usize],
        config: &GuardBandConfig,
        side: Side,
        warm: Option<&GuardBandedClassifier>,
    ) -> Result<Arc<dyn Classifier>> {
        let view = TrainingView::new(training, kept, side.label_margin(config))?;
        match warm {
            Some(parent) => {
                let hint = WarmStartContext::new(parent.model(side), &parent.kept);
                backend.train_warm(&view, Some(&hint))
            }
            None => backend.train(&view),
        }
    }

    /// Assembles a pair from its two trained sides.
    pub(crate) fn from_sides(
        backend: &dyn ClassifierFactory,
        kept: &[usize],
        config: &GuardBandConfig,
        strict: Arc<dyn Classifier>,
        loose: Arc<dyn Classifier>,
    ) -> Self {
        GuardBandedClassifier {
            kept: kept.to_vec(),
            strict,
            loose,
            config: *config,
            backend: backend.name().to_string(),
        }
    }

    fn model(&self, side: Side) -> &dyn Classifier {
        match side {
            Side::Strict => self.strict.as_ref(),
            Side::Loose => self.loose.as_ref(),
        }
    }

    /// The measurement columns (specification indices) this classifier needs.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// The configuration used for training.
    pub fn config(&self) -> &GuardBandConfig {
        &self.config
    }

    /// Name of the backend that trained the model pair.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Solver iterations spent training the strict/loose pair, summed, or
    /// `None` when the backend reports none (no iterative solver).
    pub fn solver_iterations(&self) -> Option<usize> {
        match (self.strict.solver_iterations(), self.loose.solver_iterations()) {
            (None, None) => None,
            (strict, loose) => Some(strict.unwrap_or(0) + loose.unwrap_or(0)),
        }
    }

    /// Warm-start bank diagnostics of the strict/loose pair, summed, or
    /// `None` when the backend reports none (no kernel row bank — for
    /// example the grid backend).
    pub fn bank_stats(&self) -> Option<crate::classifier::BankStats> {
        match (self.strict.bank_stats(), self.loose.bank_stats()) {
            (None, None) => None,
            (strict, loose) => {
                let mut total = strict.unwrap_or_default();
                total.merge(&loose.unwrap_or_default());
                Some(total)
            }
        }
    }

    /// Classifies instance `i` of a measurement set: bad when it fails a
    /// kept range, the pair's verdict otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the measurement set does not contain the kept columns.
    pub fn classify_instance(&self, data: &MeasurementSet, i: usize) -> Prediction {
        if fails_kept_range(data, &self.kept, i) {
            return Prediction::Bad;
        }
        let features = data.features(i, &self.kept);
        self.classify_features(&features)
    }

    /// Classifies a pre-normalised feature vector (kept columns only).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the number of kept columns.
    pub fn classify_features(&self, features: &[f64]) -> Prediction {
        Prediction::of_pair(self.strict.predict_good(features), self.loose.predict_good(features))
    }

    /// Evaluates the classifier on a labelled population, producing the
    /// yield-loss / defect-escape / guard-band breakdown.
    pub fn evaluate(&self, data: &MeasurementSet) -> ErrorBreakdown {
        crate::metrics::evaluate_population(data, |data, i| self.classify_instance(data, i))
    }

    /// Classifies an axis-aligned box of feature space, when the pair's
    /// verdict is provably constant over it.
    ///
    /// `lower`/`upper` are per-dimension inclusive bounds in the same
    /// normalised coordinates as [`GuardBandedClassifier::classify_features`].
    /// Returns `Some(prediction)` only when both underlying models prove a
    /// constant sign over the whole box
    /// ([`Classifier::predict_good_within`]): two constant-good signs make
    /// the box `Good`, two constant-bad signs make it `Bad`, and one of each
    /// places the entire box inside the guard band.  `None` means at least
    /// one model could not prove a constant sign, so the box verdict is
    /// unknown.
    ///
    /// This is the decision seam of the sequential tester
    /// ([`SequentialSession`](crate::tester::SequentialSession)): with only
    /// a prefix of the kept measurements taken, the unmeasured coordinates
    /// span a box, and a `Some(Prediction::Bad)` here rejects the device
    /// without measuring the rest.
    pub fn classify_within(&self, lower: &[f64], upper: &[f64]) -> Option<Prediction> {
        let strict = self.strict.predict_good_within(lower, upper)?;
        let loose = self.loose.predict_good_within(lower, upper)?;
        Some(Prediction::of_pair(strict, loose))
    }
}

/// Whether instance `i` of `data` fails the range of a kept specification:
/// such a device is bad whatever the models say.
pub(crate) fn fails_kept_range(data: &MeasurementSet, kept: &[usize], i: usize) -> bool {
    kept.iter().any(|&c| !data.specs().spec(c).passes(data.value(i, c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::GridBackend;
    use crate::device::SyntheticDevice;
    use crate::montecarlo::{generate_train_test, MonteCarloConfig};
    use crate::spec::{Specification, SpecificationSet};

    fn grid() -> GridBackend {
        GridBackend::default()
    }

    fn correlated_population() -> (MeasurementSet, MeasurementSet) {
        let device = SyntheticDevice::new(4, 1.5, 0.8);
        generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(21), 200).unwrap()
    }

    #[test]
    fn grid_backend_trains_the_pair() {
        let (train, test) = correlated_population();
        let classifier = GuardBandedClassifier::train_with(
            &grid(),
            &train,
            &[0, 1, 2],
            &GuardBandConfig::paper_default(),
        )
        .unwrap();
        assert_eq!(classifier.backend(), "grid");
        assert_eq!(classifier.kept(), &[0, 1, 2]);
        let breakdown = classifier.evaluate(&test);
        assert_eq!(breakdown.total, test.len());
        // The grid model is coarser than the SVM but must stay usable.
        assert!(breakdown.prediction_error() < 0.2, "error {:?}", breakdown);
    }

    #[test]
    fn wider_guard_band_captures_more_devices() {
        let (train, test) = correlated_population();
        let narrow = GuardBandedClassifier::train_with(
            &grid(),
            &train,
            &[0, 1, 2],
            &GuardBandConfig::paper_default().with_guard_band(0.02).unwrap(),
        )
        .unwrap()
        .evaluate(&test);
        let wide = GuardBandedClassifier::train_with(
            &grid(),
            &train,
            &[0, 1, 2],
            &GuardBandConfig::paper_default().with_guard_band(0.15).unwrap(),
        )
        .unwrap()
        .evaluate(&test);
        assert!(wide.guard_band_count >= narrow.guard_band_count);
    }

    /// Training is deterministic: two pairs trained with identical inputs
    /// classify every held-out device identically (the invariant the
    /// removed 0.2-era `train` shim used to pin against `train_with`).
    #[test]
    fn identical_trainings_classify_identically() {
        let (train, test) = correlated_population();
        let config = GuardBandConfig::paper_default();
        let first = GuardBandedClassifier::train_with(&grid(), &train, &[0, 1], &config).unwrap();
        let second = GuardBandedClassifier::train_with(&grid(), &train, &[0, 1], &config).unwrap();
        for i in 0..test.len() {
            assert_eq!(first.classify_instance(&test, i), second.classify_instance(&test, i));
        }
    }

    /// A backend without box capability yields `None` from `classify_within`
    /// (the grid backend keeps the trait default).
    #[test]
    fn grid_backend_has_no_box_verdicts() {
        let (train, _) = correlated_population();
        let classifier = GuardBandedClassifier::train_with(
            &grid(),
            &train,
            &[0, 1],
            &GuardBandConfig::paper_default(),
        )
        .unwrap();
        assert_eq!(classifier.classify_within(&[0.0, 0.0], &[1.0, 1.0]), None);
    }

    #[test]
    fn kept_range_enforcement_catches_kept_spec_failures() {
        let specs = SpecificationSet::new(vec![
            Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap(),
            Specification::new("b", "-", 0.0, -1.0, 1.0).unwrap(),
        ])
        .unwrap();
        // Training data: spec b mirrors spec a, everything within ±2.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = -2.0 + 4.0 * (i as f64) / 199.0;
                vec![a, a]
            })
            .collect();
        let train = MeasurementSet::new(specs.clone(), rows).unwrap();
        let classifier = GuardBandedClassifier::train_with(
            &grid(),
            &train,
            &[0],
            &GuardBandConfig::paper_default(),
        )
        .unwrap();
        // A device that obviously fails the kept spec is bad even if the
        // model were to say otherwise.
        let probe = MeasurementSet::new(specs, vec![vec![5.0, 0.0]]).unwrap();
        assert_eq!(classifier.classify_instance(&probe, 0), Prediction::Bad);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (train, _) = correlated_population();
        // Non-finite and negative fractions fail fast at config time.
        assert!(GuardBandConfig::paper_default().with_guard_band(f64::NAN).is_err());
        assert!(GuardBandConfig::paper_default().with_guard_band(f64::INFINITY).is_err());
        assert!(GuardBandConfig::paper_default().with_guard_band(-0.1).is_err());
        // A finite but too-wide fraction is constructible (sweeps may build
        // configs they never train) and rejected at training time.
        let bad_band = GuardBandConfig::paper_default().with_guard_band(0.9).unwrap();
        assert!(GuardBandedClassifier::train_with(&grid(), &train, &[0], &bad_band).is_err());
    }

    #[test]
    fn tiny_training_sets_are_rejected() {
        let specs =
            SpecificationSet::new(vec![Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap()])
                .unwrap();
        let train = MeasurementSet::new(specs, vec![vec![0.0]; 5]).unwrap();
        assert!(matches!(
            GuardBandedClassifier::train_with(
                &grid(),
                &train,
                &[0],
                &GuardBandConfig::paper_default()
            ),
            Err(CompactionError::InsufficientData { .. })
        ));
    }
}
